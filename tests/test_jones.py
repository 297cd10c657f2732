import itertools

import numpy as np
import pytest

from lophoton import jones

BASES = (("H", "V"), ("D", "A"), ("R", "L"))


def test_basis_state_values():
    sq = 1 / np.sqrt(2)
    assert np.array_equal(jones.basis_state("H"), [1, 0])
    assert np.allclose(jones.basis_state("A"), [sq, -sq], atol=1e-15)
    assert np.allclose(jones.basis_state("R"), [sq, -1j * sq], atol=1e-15)
    assert abs(np.vdot(jones.basis_state("R"), jones.basis_state("L"))) < 1e-15


def test_basis_states_normalized():
    for label in "HVDARL":
        v = jones.basis_state(label)
        assert np.vdot(v, v).real == pytest.approx(1.0, abs=1e-12)


def test_unknown_label():
    with pytest.raises(ValueError, match=r"^unknown polarization label 'Q'$"):
        jones.basis_state("Q")


def test_hwp_special_angles():
    assert np.allclose(jones.hwp(0.0), np.diag([1, -1]), atol=1e-15)
    had = jones.hwp(np.deg2rad(22.5))
    assert np.allclose(had @ jones.basis_state("H"), jones.basis_state("D"), atol=1e-12)
    assert np.allclose(had @ jones.basis_state("V"), jones.basis_state("A"), atol=1e-12)
    swap = jones.hwp(np.deg2rad(45.0))
    assert np.allclose(swap @ jones.basis_state("H"), jones.basis_state("V"), atol=1e-12)


@pytest.mark.parametrize("theta", np.linspace(0, np.pi, 9))
def test_hwp_involution_and_unitary(theta):
    m = jones.hwp(theta)
    assert np.allclose(m @ m, np.eye(2), atol=1e-12)
    assert np.allclose(m.conj().T @ m, np.eye(2), atol=1e-12)


def test_projector_values():
    assert np.allclose(jones.projector(jones.basis_state("H")), np.diag([1, 0]), atol=1e-15)
    assert np.allclose(
        jones.projector(jones.basis_state("D")), np.full((2, 2), 0.5), atol=1e-15
    )


def test_projector_properties(rng):
    v = rng.normal(size=2) + 1j * rng.normal(size=2)
    v /= np.linalg.norm(v)
    p = jones.projector(v)
    assert np.allclose(p, p.conj().T, atol=1e-14)
    assert np.allclose(p @ p, p, atol=1e-14)
    assert np.trace(p).real == pytest.approx(1.0, abs=1e-12)


def test_projector_completeness_per_basis():
    for a, b in BASES:
        total = jones.projector(jones.basis_state(a)) + jones.projector(jones.basis_state(b))
        assert np.allclose(total, np.eye(2), atol=1e-12)


def test_three_mutually_unbiased_bases():
    for (a1, a2), (b1, b2) in itertools.combinations(BASES, 2):
        for x in (a1, a2):
            for y in (b1, b2):
                ov = abs(np.vdot(jones.basis_state(x), jones.basis_state(y))) ** 2
                assert ov == pytest.approx(0.5, abs=1e-12)
