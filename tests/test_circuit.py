import numpy as np
import pytest

from lophoton import circuit, jones, tomo

from conftest import random_pure_jones
from oracles import conditional_state_oracle


def _input(c_label, t_label, m=1.0):
    return circuit.TwoPhotonInput(
        jones.basis_state(c_label), jones.basis_state(t_label), m
    )


def test_central_ppbs_single_photon_probabilities():
    u = circuit.ppbs_central().transfer
    assert abs(u[1, 1]) ** 2 == pytest.approx(1 / 3, abs=1e-14)  # V stays in control
    assert abs(u[3, 1]) ** 2 == pytest.approx(2 / 3, abs=1e-14)  # V crosses over
    assert u[0, 0] == 1.0 and u[2, 2] == 1.0  # H untouched
    assert np.max(np.abs(u.conj().T @ u - np.eye(4))) < 1e-12


def test_attenuator_transmissions():
    for path, h_idx, other in (("control", 0, 2), ("target", 2, 0)):
        e = circuit.ppbs_attenuator(path)
        u = e.transfer
        assert abs(u[h_idx, h_idx]) ** 2 == pytest.approx(1 / 3, abs=1e-14)
        assert u[h_idx + 1, h_idx + 1] == 1.0  # V unaffected
        assert u[other, other] == 1.0 and u[other + 1, other + 1] == 1.0
        sv = np.linalg.svd(u, compute_uv=False)
        assert sv[0] <= 1 + 1e-12 and sv[-1] < 1 - 1e-10  # lossy: strictly sub-unitary


def test_central_hom_amplitude_and_probability():
    central = [circuit.ppbs_central()]
    psi = circuit.two_photon_amplitudes(central, _input("V", "V"))
    assert psi[3].real == pytest.approx(1 / 3 - 2 / 3, abs=1e-14)  # T_V - R_V
    state = circuit.coincidence_evolve(central, _input("V", "V", 1.0))
    assert state.success_prob == pytest.approx(1 / 9, abs=1e-14)


def test_central_distinguishable_probability():
    state = circuit.coincidence_evolve([circuit.ppbs_central()], _input("V", "V", 0.0))
    assert state.success_prob == pytest.approx((1 / 3) ** 2 + (2 / 3) ** 2, abs=1e-14)


def test_hh_never_mixes():
    for m in (0.0, 0.5, 1.0):
        state = circuit.coincidence_evolve([circuit.ppbs_central()], _input("H", "H", m))
        assert state.success_prob == pytest.approx(1.0, abs=1e-14)


def test_cz_amplitudes_and_success():
    cz = circuit.build_cz()
    expected = {"HH": 1 / 3, "HV": 1 / 3, "VH": 1 / 3, "VV": -1 / 3}
    for i, label in enumerate(circuit.BASIS_ZZ):
        psi = circuit.two_photon_amplitudes(cz, _input(label[0], label[1]))
        target = np.zeros(4)
        target[i] = expected[label]
        assert np.max(np.abs(psi - target)) < 1e-12
        state = circuit.coincidence_evolve(cz, _input(label[0], label[1], 1.0))
        assert abs(state.success_prob - 1 / 9) < 1e-12


def test_cz_conditional_map_on_basis_and_superposition_probes(rng):
    cz = circuit.build_cz()
    # columns from computational probes
    cols = [
        circuit.two_photon_amplitudes(cz, _input(l[0], l[1])) for l in circuit.BASIS_ZZ
    ]
    a = np.column_stack(cols)
    assert np.max(np.abs(a - np.diag([1, 1, 1, -1]) / 3)) < 1e-9
    # map must stay bilinear on arbitrary product probes
    for _ in range(5):
        c = random_pure_jones(rng)
        t = random_pure_jones(rng)
        psi = circuit.two_photon_amplitudes(
            cz, circuit.TwoPhotonInput(c, t, 1.0)
        )
        assert np.max(np.abs(psi - a @ np.kron(c, t))) < 1e-9


def test_cnot_truth_action():
    cnot = circuit.build_cnot()
    state = circuit.coincidence_evolve(cnot, _input("V", "H", 1.0))
    vv = np.kron(jones.basis_state("V"), jones.basis_state("V"))
    assert np.real(vv.conj() @ state.rho @ vv) == pytest.approx(1.0, abs=1e-12)
    state = circuit.coincidence_evolve(cnot, _input("H", "H", 1.0))
    hh = np.kron(jones.basis_state("H"), jones.basis_state("H"))
    assert np.real(hh.conj() @ state.rho @ hh) == pytest.approx(1.0, abs=1e-12)


def test_cnot_generates_singlet():
    state = circuit.coincidence_evolve(circuit.build_cnot(), _input("A", "V", 1.0))
    assert tomo.fidelity(state.rho, tomo.psi_minus()) == pytest.approx(1.0, abs=1e-12)
    assert state.success_prob == pytest.approx(1 / 9, abs=1e-12)


def test_truth_table_ideal_patterns():
    cnot = circuit.build_cnot()
    zz, success_prob = circuit.truth_table(cnot, 1.0, "ZZ")
    assert np.allclose(success_prob, 1.0 / 9.0, atol=1e-12)
    ideal_zz = np.zeros((4, 4))
    for i, j in enumerate((0, 1, 3, 2)):
        ideal_zz[i, j] = 1.0
    assert np.max(np.abs(zz - ideal_zz)) < 1e-10
    xx, _ = circuit.truth_table(cnot, 1.0, "XX")
    ideal_xx = np.zeros((4, 4))
    for i, j in enumerate((0, 3, 2, 1)):
        ideal_xx[i, j] = 1.0
    assert np.max(np.abs(xx - ideal_xx)) < 1e-10


@pytest.mark.parametrize("m", [0.0, 0.31, 0.77, 1.0])
def test_truth_table_rows_normalized(m):
    for basis in ("ZZ", "XX"):
        cnot = circuit.build_cnot()
        table, success_prob = circuit.truth_table(cnot, m, basis)
        assert np.allclose(table.sum(axis=1), 1.0, atol=1e-10)
        assert np.all(table >= -1e-12)
        inputs, _ = circuit.TRUTH_TABLE_BASES[basis]
        for label, p in zip(inputs, success_prob):
            state = circuit.coincidence_evolve(cnot, _input(label[0], label[1], m))
            assert p == state.success_prob


@pytest.mark.parametrize("m", [0.0, 0.947, 1.0])
@pytest.mark.parametrize("basis", ["ZZ", "XX"])
def test_truth_table_composes_once_and_equals_the_per_input_path(monkeypatch, basis, m):
    """One compose_transfer per table, and the bytes of coincidence_evolve input by input."""
    cnot = circuit.build_cnot()
    inputs, _ = circuit.TRUTH_TABLE_BASES[basis]
    probes = [np.kron(jones.basis_state(label[0]), jones.basis_state(label[1])) for label in inputs]
    expected, expected_prob = np.empty((4, 4)), np.empty(4)
    for i, label in enumerate(inputs):
        state = circuit.coincidence_evolve(cnot, _input(label[0], label[1], m))
        expected_prob[i] = state.success_prob
        for j, probe in enumerate(probes):
            expected[i, j] = float(np.real(probe.conj() @ state.rho @ probe))
    compose, calls = circuit.compose_transfer, []
    monkeypatch.setattr(circuit, "compose_transfer", lambda elements: calls.append(elements) or compose(elements))
    table, success_prob = circuit.truth_table(cnot, m, basis)
    assert len(calls) == 1
    assert table.tobytes() == expected.tobytes() and success_prob.tobytes() == expected_prob.tobytes()


def test_distinguishable_vv_row_matches_assignment_oracle():
    cnot = circuit.build_cnot()
    u = circuit.compose_transfer(cnot)
    alpha = jones.basis_state("V")
    beta = jones.basis_state("V")
    rho_u, p = conditional_state_oracle(u, alpha, beta, overlap=0.0)
    rho = rho_u / p
    probes = [np.kron(jones.basis_state(l[0]), jones.basis_state(l[1])) for l in circuit.BASIS_ZZ]
    expected_row = [np.real(v.conj() @ rho @ v) for v in probes]
    table, _ = circuit.truth_table(cnot, 0.0, "ZZ")
    assert np.allclose(table[3], expected_row, atol=1e-12)
    assert table[3, 2] < 1.0  # flip probability degraded


def _control_retarder(theta_deg):
    # retarder diag(1, i) rotated by theta on the control path: a complex-valued element
    th = np.deg2rad(theta_deg)
    r = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
    m = np.eye(4, dtype=complex)
    m[:2, :2] = r @ np.diag([1.0, 1.0j]) @ r.T
    return circuit.LinearElement(f"retarder:control:{theta_deg:g}deg", m)


@pytest.mark.parametrize("m", [0.0, 0.25, 0.6, 1.0])
def test_evolve_matches_internal_label_oracle(rng, m):
    elements = [
        circuit.waveplate("target", 22.5),
        circuit.ppbs_central(),
        _control_retarder(30.0),
        circuit.ppbs_attenuator("control"),
        circuit.ppbs_attenuator("target"),
    ]
    u = circuit.compose_transfer(elements)
    for _ in range(5):
        c = random_pure_jones(rng)
        t = random_pure_jones(rng)
        state = circuit.coincidence_evolve(elements, circuit.TwoPhotonInput(c, t, m))
        rho_u, p = conditional_state_oracle(u, c, t, m)
        assert state.success_prob == pytest.approx(p, abs=1e-12)
        assert np.max(np.abs(state.rho - rho_u / p)) < 1e-10


def test_gate_fidelity_monotone_in_overlap():
    cnot = circuit.build_cnot()
    ideal_out = {"HH": "HH", "HV": "HV", "VH": "VV", "VV": "VH"}
    for label, out in ideal_out.items():
        probe = np.kron(jones.basis_state(out[0]), jones.basis_state(out[1]))
        fids = []
        for m in np.linspace(0.0, 1.0, 11):
            state = circuit.coincidence_evolve(cnot, _input(label[0], label[1], m))
            fids.append(np.real(probe.conj() @ state.rho @ probe))
        assert np.all(np.diff(fids) >= -1e-12)


def test_output_state_always_physical(rng):
    cnot = circuit.build_cnot()
    for _ in range(20):
        c = random_pure_jones(rng)
        t = random_pure_jones(rng)
        m = rng.uniform()
        state = circuit.coincidence_evolve(cnot, circuit.TwoPhotonInput(c, t, m))
        w = np.linalg.eigvalsh(state.rho)
        assert w.min() > -1e-10
        assert np.trace(state.rho).real == pytest.approx(1.0, abs=1e-10)


def test_zero_success_probability_raises():
    # dump both photons into the control path (reflected ports discarded)
    merge = np.zeros((4, 4), dtype=complex)
    merge[0, 0] = merge[1, 1] = 1 / np.sqrt(2)
    merge[0, 2] = merge[1, 3] = 1 / np.sqrt(2)
    element = circuit.LinearElement("merge", merge)
    with pytest.raises(ValueError, match=r"^coincidence probability below 1e-15$"):
        circuit.coincidence_evolve([element], _input("H", "V", 1.0))


def test_linear_element_rejects_amplification():
    with pytest.raises(ValueError):
        circuit.LinearElement("bad", 1.5 * np.eye(4))


def test_partial_overlap_fidelity_between_floor_and_one():
    cnot = circuit.build_cnot()
    floor = circuit.basis_fidelity(circuit.truth_table(cnot, 0.0, "ZZ")[0], "ZZ")
    mid = circuit.basis_fidelity(circuit.truth_table(cnot, 0.947, "ZZ")[0], "ZZ")
    assert floor < mid < 1.0


def test_basis_fidelity_values():
    ideal = np.zeros((4, 4))
    for i, j in enumerate((0, 1, 3, 2)):
        ideal[i, j] = 1.0
    assert circuit.basis_fidelity(ideal, "ZZ") == pytest.approx(1.0, abs=1e-15)
    uniform = np.full((4, 4), 0.25)
    assert circuit.basis_fidelity(uniform, "ZZ") == pytest.approx(0.25, abs=1e-15)
    # measured-style table whose correct cells average 0.902
    correct = [0.95, 0.92, 0.88, 0.858]
    table = np.zeros((4, 4))
    for i, (j, c) in enumerate(zip((0, 1, 3, 2), correct)):
        table[i, :] = (1 - c) / 3
        table[i, j] = c
    assert circuit.basis_fidelity(table, "ZZ") == pytest.approx(0.902, abs=1e-12)


def test_element_labels():
    labels = [e.label for e in circuit.build_cnot()]
    assert labels == [
        "hwp:target:22.5deg",
        "ppbs_central",
        "ppbs_attenuator:control",
        "ppbs_attenuator:target",
        "hwp:target:22.5deg",
    ]


@pytest.mark.parametrize("call", [
    lambda: circuit.truth_table(circuit.build_cnot(), 1.0, "YY"),
    lambda: circuit.basis_fidelity(np.eye(4), "YY"),
], ids=["truth_table", "basis_fidelity"])
def test_unknown_basis_raises_value_error(call):
    with pytest.raises(ValueError, match="'YY'"):
        call()
