import dataclasses
import itertools
import json
import tracemalloc

import numpy as np
import pytest
from scipy.linalg import lapack

from lophoton import circuit, cli, jones, tomo

from conftest import random_density_matrix, write_records_csv
from oracles import (
    kron_oracle,
    lapack_pivots,
    lbfgsb_log_likelihood,
    linear_inversion_oracle,
    log_likelihood_oracle,
    ordered_params,
    trace_loop_probabilities,
    von_neumann_entropies_oracle,
    wootters_concurrence_oracle,
)


def exact_records(rho, n=1_000_000):
    """Counts equal to n times the exact outcome probabilities."""
    probs = tomo.outcome_probabilities(rho)
    return [tomo.MeasurementRecord(s[0], s[1], n * p) for s, p in zip(tomo.SETTINGS, probs)]


def test_projectors_zz_setting():
    pis = tomo.PROJECTORS[tomo.SETTINGS.index(("Z", "Z"))]
    for k, pi in enumerate(pis):
        expected = np.zeros((4, 4))
        expected[k, k] = 1.0
        assert np.allclose(pi, expected, atol=1e-14)


def test_projector_completeness_all_settings():
    assert tomo.PROJECTORS.shape == (9, 4, 4, 4)
    for pis in tomo.PROJECTORS:
        total = pis.sum(axis=0)
        assert np.max(np.abs(total - np.eye(4))) < 1e-12


def test_xy_projector_hh_element():
    pis = tomo.PROJECTORS[tomo.SETTINGS.index(("X", "Y"))]  # first outcome pair is (D, R)
    assert pis[0][0, 0] == pytest.approx(0.25, abs=1e-14)


def test_projectors_match_loop_built_oracle():
    for i, (b1, b2) in enumerate(tomo.SETTINGS):
        labels = tuple((s1, s2) for s1 in tomo.BASIS_STATES[b1] for s2 in tomo.BASIS_STATES[b2])
        assert tomo.outcome_labels((b1, b2)) == labels
        assert tomo.MeasurementRecord(b1, b2, np.ones(4)).outcome_labels == labels
        for k, (s1, s2) in enumerate(labels):
            expected = kron_oracle(
                jones.projector(jones.basis_state(s1)), jones.projector(jones.basis_state(s2))
            )
            assert np.array_equal(tomo.PROJECTORS[i, k], expected)


def _bell_state(overlap):
    """The state the bell subcommand prepares at the given wavepacket overlap."""
    inp = circuit.TwoPhotonInput(jones.basis_state("A"), jones.basis_state("V"), overlap)
    return circuit.coincidence_evolve(circuit.build_cnot(), inp).rho


def test_outcome_probabilities_equal_trace_loop(rng):
    states = [_bell_state(m) for m in [*np.linspace(0.0, 1.0, 21), 0.947]]
    states += [tomo.werner(p) for p in (0.0, 0.3, 0.9, 1.0)]
    states += [random_density_matrix(rng, 4) for _ in range(50)]
    # the flattened trace sums the 16 products of each trace in another
    # order than the loop, so the two may differ in the last few bits
    for rho in states:
        probs = tomo.outcome_probabilities(rho)
        assert probs.shape == (9, 4)
        assert np.max(np.abs(probs - trace_loop_probabilities(rho, tomo.PROJECTORS))) <= 16 * np.finfo(float).eps


@pytest.mark.parametrize("overlap", [0.947, 0.0])
def test_simulate_counts_equal_per_setting_multinomial_loop(overlap):
    # one multinomial draw over the (9, 4) table equals nine draws, setting
    # by setting, from its rows
    rho = _bell_state(overlap)
    rng = np.random.default_rng(42)
    expected = [rng.multinomial(20_000, p) for p in tomo.outcome_probabilities(rho)]
    records = tomo.simulate_counts(rho, 20_000, seed=42)
    assert [(r.basis1, r.basis2) for r in records] == list(tomo.SETTINGS)
    for rec, counts in zip(records, expected):
        assert np.array_equal(rec.counts, counts)


def test_log_likelihood_matches_loop_oracle(rng):
    for trial in range(20):
        rho = random_density_matrix(rng, 4) if trial % 2 else tomo.werner(0.95)
        counts = rng.integers(0, 1000, size=(9, 4)).astype(float)
        counts[rng.random((9, 4)) < 0.2] = 0.0  # zero counts leave the sum unchanged
        records = [tomo.MeasurementRecord(s[0], s[1], c) for s, c in zip(tomo.SETTINGS, counts)]
        rows = rng.permutation(9)[: 1 + trial % 9]  # a partial list, in any order
        part = [records[i] for i in rows]
        table = trace_loop_probabilities(rho, tomo.PROJECTORS)
        expected = log_likelihood_oracle([r.counts for r in part], table[rows])
        assert tomo.log_likelihood(rho, part) == pytest.approx(expected, rel=1e-12)
    # a probability of 0 under the pure state is floored, not -inf
    zz = tomo.MeasurementRecord("Z", "Z", np.array([3.0, 0.0, 0.0, 0.0]))
    assert tomo.log_likelihood(tomo.psi_minus(), [zz]) == pytest.approx(3 * np.log(1e-300), rel=1e-12)


def test_simulate_counts_pure_and_mixed():
    rng_seed = 99
    hh = np.zeros((4, 4), dtype=complex)
    hh[0, 0] = 1.0
    recs = {(r.basis1, r.basis2): r for r in tomo.simulate_counts(hh, 10_000, rng_seed)}
    zz = recs[("Z", "Z")]
    assert zz.counts[0] == 10_000 and zz.counts[1:].sum() == 0

    singlet = tomo.psi_minus()
    zz = {(r.basis1, r.basis2): r for r in tomo.simulate_counts(singlet, 100_000, rng_seed)}[("Z", "Z")]
    assert zz.counts[0] == 0 and zz.counts[3] == 0
    assert abs(zz.counts[1] - 50_000) < 5 * np.sqrt(25_000)

    mixed = tomo.maximally_mixed()
    for rec in tomo.simulate_counts(mixed, 100_000, rng_seed):
        assert np.all(np.abs(rec.counts - 25_000) < 5 * np.sqrt(25_000))


def test_linear_inversion_exact_inputs():
    singlet = tomo.psi_minus()
    assert np.max(np.abs(tomo.linear_inversion(exact_records(singlet)) - singlet)) < 1e-10
    mixed = tomo.maximally_mixed()
    assert np.max(np.abs(tomo.linear_inversion(exact_records(mixed)) - mixed)) < 1e-10


def test_linear_inversion_map_matches_loop_oracle(rng):
    for trial in range(50):
        counts = rng.integers(0, 10 ** rng.integers(1, 7), size=(9, 4)).astype(float)
        counts[counts.sum(axis=1) == 0, 0] = 1.0
        records = [
            tomo.MeasurementRecord(s[0], s[1], counts[i]) for i, s in enumerate(tomo.SETTINGS)
        ]
        if trial % 2:  # the map must not depend on the order of the records
            records = records[::-1]
        assert np.max(np.abs(tomo.linear_inversion(records) - linear_inversion_oracle(records))) <= 1e-15


def test_linear_inversion_always_hermitian_unit_trace(rng):
    for _ in range(20):
        counts = rng.integers(0, 200, size=(9, 4)).astype(float) + 1.0
        records = [
            tomo.MeasurementRecord(s[0], s[1], counts[i]) for i, s in enumerate(tomo.SETTINGS)
        ]
        rho = tomo.linear_inversion(records)
        assert np.max(np.abs(rho - rho.conj().T)) < 1e-12
        assert np.trace(rho).real == pytest.approx(1.0, abs=1e-12)


def test_linear_inversion_missing_setting():
    records = exact_records(tomo.maximally_mixed())[:-1]
    with pytest.raises(ValueError, match=r"^missing settings: \[\('Y', 'Y'\)\]$"):
        tomo.linear_inversion(records)
    with pytest.raises(ValueError, match=r"^missing settings: \[\('Y', 'Y'\)\]$"):
        tomo.mle_reconstruct(records)


def test_linear_inversion_rejects_zero_total_setting():
    records = exact_records(tomo.maximally_mixed())
    dead = tomo.MeasurementRecord("Z", "Z", np.zeros(4))
    with pytest.raises(ValueError, match=r"^setting \('Z', 'Z'\) has zero total counts$"):
        tomo.linear_inversion([dead] + records[1:])


def test_mle_round_trip_singlet():
    records = tomo.simulate_counts(tomo.psi_minus(), 1_000_000, seed=7)
    res = tomo.mle_reconstruct(records)
    assert res.converged
    assert tomo.fidelity(res.rho, tomo.psi_minus()) >= 0.999


def test_mle_round_trip_maximally_mixed():
    records = tomo.simulate_counts(tomo.maximally_mixed(), 1_000_000, seed=8)
    res = tomo.mle_reconstruct(records)
    w = np.linalg.eigvalsh(res.rho)
    assert np.all(np.abs(w - 0.25) < 0.01)


def test_mle_exact_probabilities_reach_entropy_bound():
    rho = tomo.werner(0.7)
    records = exact_records(rho, n=1000)
    res = tomo.mle_reconstruct(records)
    bound = 0.0
    for rec in records:
        p = rec.counts / rec.counts.sum()
        nz = p > 0
        bound += float(np.sum(rec.counts[nz] * np.log(p[nz])))
    assert res.log_likelihood == pytest.approx(bound, abs=1e-6 * abs(bound))


def test_mle_beats_projected_initializer(rng):
    for trial in range(10):
        counts = rng.integers(0, 50, size=(9, 4)).astype(float)
        counts[counts.sum(axis=1) == 0, 0] = 1.0
        records = [
            tomo.MeasurementRecord(s[0], s[1], counts[i]) for i, s in enumerate(tomo.SETTINGS)
        ]
        res = tomo.mle_reconstruct(records)
        rho0 = tomo.project_to_physical(tomo.linear_inversion(records), floor=1e-12)
        assert res.log_likelihood >= tomo.log_likelihood(rho0, records) - 1e-9


def test_mle_output_always_physical(rng):
    for _ in range(10):
        counts = rng.integers(0, 30, size=(9, 4)).astype(float) + 0.0
        counts[counts.sum(axis=1) == 0, 0] = 1.0
        records = [
            tomo.MeasurementRecord(s[0], s[1], counts[i]) for i, s in enumerate(tomo.SETTINGS)
        ]
        rho = tomo.mle_reconstruct(records).rho
        assert np.max(np.abs(rho - rho.conj().T)) < 1e-12
        assert np.trace(rho).real == pytest.approx(1.0, abs=1e-10)
        assert np.linalg.eigvalsh(rho).min() > -1e-10


def test_mle_iteration_cap_flags_not_converged(monkeypatch):
    records = tomo.simulate_counts(tomo.werner(0.8), 10_000, seed=5)
    monkeypatch.setattr(tomo, "_MLE_MAX_ITER", 1)
    res = tomo.mle_reconstruct(records)
    assert not res.converged
    assert np.trace(res.rho).real == pytest.approx(1.0, abs=1e-10)


def test_mle_failed_line_search_flags_not_converged(monkeypatch):
    records = tomo.simulate_counts(tomo.werner(0.8), 10_000, seed=5)
    monkeypatch.setattr(tomo, "_line_search", lambda n, total, x, q, step, forms, work: (np.zeros(len(x), dtype=bool), x[:0]))
    res = tomo.mle_reconstruct(records)
    assert not res.converged and res.n_iter == 0
    assert res.decrement_sq >= tomo._MLE_DECREMENT_TOL


def test_forms_of_every_order_give_the_outcome_traces(rng):
    # x @ Q_k @ x / |x|^2 is Tr(rho Pi_k) whatever the basis order of T; the
    # two sums run over the 256 products in different orders
    states = [random_density_matrix(rng, 4) for _ in range(5)] + [0.9 * tomo.psi_minus() + 0.1 * tomo.maximally_mixed()]
    for order in itertools.permutations(range(4)):
        forms = tomo._forms(order)
        q = forms.rows.reshape(16, 36, 16).transpose(1, 0, 2)
        assert np.array_equal(forms.sums.T.reshape(36, 16, 16), q)
        assert list(np.array(order)[forms.inverse]) == [0, 1, 2, 3]
        for rho in states:
            x = ordered_params(rho, order)
            traces = np.array([x @ q_k @ x for q_k in q]) / (x @ x)
            expected = trace_loop_probabilities(rho, tomo.PROJECTORS).reshape(36)
            assert np.max(np.abs(traces - expected)) <= 8 * np.finfo(float).eps, order


def test_pivoted_starts_factor_the_floored_state_in_lapack_pivot_order(rng):
    states = [tomo.psi_minus(), _mixed_product_state(), _hh_vv_mixture(), tomo.werner(0.9), tomo.maximally_mixed()]
    for rank in (4, 3, 2, 1):
        for _ in range(50):
            g = rng.normal(size=(4, rank)) + 1j * rng.normal(size=(4, rank))
            g[rng.random(4) < 0.25] = 0.0  # some zero rows: vanishing diagonal entries
            states.append(g @ g.conj().T)
    states.append(_product_state("H", "D"))
    states = np.array([rho / np.trace(rho).real for rho in states if np.trace(rho).real > 0])
    floored = tomo.project_to_physical(states, floor=tomo._MLE_START_FLOOR)
    orders, x = tomo._pivoted_starts(states)
    for rho, order, params in zip(floored, orders, x):
        expected, _ = lapack_pivots(rho)
        assert list(order[::-1]) == list(expected)
        oracle = ordered_params(rho, order)
        assert np.linalg.norm(params - oracle) <= 1e-12 * np.linalg.norm(oracle)


@pytest.mark.parametrize("state", ["psi-minus", "HH"])
def test_pivoted_starts_refuse_a_rank_deficient_state(monkeypatch, state):
    # with no floor these states stay rank 1, and zpstrf leaves the trailing
    # block unfactored: no start may be built from it
    monkeypatch.setattr(tomo, "_MLE_START_FLOOR", 0.0)
    rho = tomo.psi_minus() if state == "psi-minus" else _product_state("H", "H")
    with pytest.raises(np.linalg.LinAlgError):
        tomo._pivoted_starts(rho[None])


def _product_state(label1, label2):
    v = np.kron(jones.basis_state(label1), jones.basis_state(label2))
    return np.outer(v, v.conj())


def _mixed_product_state():
    """|H><H| (x) I/2: rank 2, and both zero diagonal entries are in the last pair of basis states."""
    return np.kron(np.diag([1.0, 0.0]), np.eye(2) / 2.0).astype(complex)


def _hh_vv_mixture():
    """(|HH><HH| + |VV><VV|)/2: rank 2, with the zero diagonal entries in the middle of the basis."""
    return np.diag([0.5, 0.0, 0.0, 0.5]).astype(complex)


def _named_state(name):
    """psi-minus, werner-<p>, H-D (|H> (x) |D>), H-mixed or HH-VV."""
    if name.startswith("werner-"):
        return tomo.werner(float(name.removeprefix("werner-")))
    return {"psi-minus": tomo.psi_minus(), "H-D": _product_state("H", "D"), "H-mixed": _mixed_product_state(),
            "HH-VV": _hh_vv_mixture()}[name]


@pytest.mark.parametrize("state, n_per_setting", [
    *[(state, n) for state in ("psi-minus", "werner-0.9", "H-D") for n in (100, 2000, 1_000_000)],
    ("werner-0.99", 10_000),
    *[(state, n) for state in ("H-mixed", "HH-VV") for n in (10_000, 1_000_000)],
])
def test_newton_fits_reach_the_lbfgsb_reference(state, n_per_setting):
    """Each fit is at most 1e-6 nats below L-BFGS-B at ftol 1e-16 with restarts, and never below ftol 1e-10.

    The fits run through _mle_fits, in the pivoted basis order the CLI uses.
    The bound is one-sided: on rank-deficient optima (psi-minus and H-D at
    10^6 counts) the restarted reference itself stops short, by up to 0.04
    nats on these resamples, while the Newton fits reach the optimum.
    Werner 0.99 at 10^4 counts is the nearly pure mixed state whose Monte
    Carlo refits came closest to the step cap in the fixed basis order;
    |H><H| (x) I/2 and (|HH><HH| + |VV><VV|)/2 are rank-2 states whose
    refits did not converge in that order.
    """
    observed = tomo._count_table(tomo.simulate_counts(_named_state(state), n_per_setting, seed=61))
    counts = np.random.default_rng(62).poisson(observed, size=(5, 36)).astype(float)
    per_setting = counts.reshape(5, 9, 4)
    per_setting[per_setting.sum(axis=-1) == 0] += 1
    starts = tomo.project_to_physical(tomo._inversion(counts), floor=1e-12)
    fits = _inversion_start_fits(counts)
    assert fits.converged.all()
    for n, rho0, ll in zip(counts, starts, fits.log_likelihood):
        reference = lbfgsb_log_likelihood(n, tomo.PROJECTORS, rho0, ftol=1e-16, restarts=50)
        assert ll >= reference - 1e-6
        assert ll >= lbfgsb_log_likelihood(n, tomo.PROJECTORS, rho0, ftol=1e-10) - 1e-14 * abs(ll)


def test_fits_come_back_in_input_order_as_if_run_alone(monkeypatch):
    """Fits of four pivot orders, interleaved, in stacks of 2: each equals its fit run alone, in its input place."""
    states = [np.diag(np.roll([0.55, 0.25, 0.15, 0.05], k)).astype(complex) for k in range(4)]
    observed = np.array([tomo._count_table(tomo.simulate_counts(s, 100_000, seed=81)) for s in states])
    counts = np.random.default_rng(82).poisson(np.tile(observed, (5, 1))).astype(float)
    orders, x = tomo._pivoted_starts(tomo._inversion(counts))
    keys, sizes = np.unique(orders, axis=0, return_counts=True)
    monkeypatch.setattr(tomo, "_FIT_STACK", 2)
    assert len(keys) >= 3 and sizes.min() > tomo._FIT_STACK
    fits = tomo._mle_fits(counts, orders, x)
    for r in range(len(counts)):
        alone = tomo._mle_fits(counts[r:r + 1], orders[r:r + 1], x[r:r + 1])
        for field in dataclasses.fields(tomo.MleResult):
            assert getattr(fits, field.name)[r:r + 1].tobytes() == getattr(alone, field.name).tobytes(), (r, field.name)


@pytest.mark.parametrize("stack", [7, 100])
def test_a_reused_workspace_leaves_no_stale_data(monkeypatch, stack):
    """_mle_fits of 150 fits, then of 40 others, in workspaces that start full of NaN: each as in a fresh workspace.

    A buffer read before it is written shows as NaN.  Each call runs all
    its stacks in one workspace and ends in a partial stack, a shorter
    prefix of the buffers than a stack before it.
    """
    monkeypatch.setattr(tomo, "_FIT_STACK", stack)
    runs = []
    for state, n_per_setting, size, seed in (("werner-0.77", 200, 150, 91), ("H-D", 2000, 40, 92)):
        observed = tomo._count_table(tomo.simulate_counts(_named_state(state), n_per_setting, seed=seed))
        counts = np.random.default_rng(seed).poisson(observed, size=(size, 36)).astype(float)
        runs.append((counts, *tomo._pivoted_starts(tomo._inversion(counts))))
    fresh = [tomo._mle_fits(*run) for run in runs]
    empty, newton_fit, stacks = tomo._Work.empty, tomo._newton_fit, []

    def nan_filled(size):
        work = empty(size)
        for buffer in work:
            buffer.fill(np.nan)
        return work

    def recording(n, x, forms, max_iter, work):
        stacks[-1].append(len(n))
        return newton_fit(n, x, forms, max_iter, work)

    monkeypatch.setattr(tomo._Work, "empty", staticmethod(nan_filled))
    monkeypatch.setattr(tomo, "_newton_fit", recording)
    for run, expected in zip(runs, fresh):
        stacks.append([])
        reused = tomo._mle_fits(*run)
        assert stacks[-1][-1] < max(stacks[-1]), stacks[-1]
        for field in dataclasses.fields(tomo.MleResult):
            assert getattr(reused, field.name).tobytes() == getattr(expected, field.name).tobytes(), field.name


def test_a_newton_fit_allocates_no_stack_sized_temporaries():
    """100 bell-like refits in a workspace built beforehand: the traced peak stays below two (100, 16, 16) arrays.

    Measured apart for the chord steps of the refit starts and for Newton
    fits from the one-step starts, which take a step and a line search.
    Every step allocated (100, 36, 16) and (100, 16, 16) temporaries, a
    traced peak of about 1.8 MB, before they were written into the
    workspace; the one left is the factor of the stacked Cholesky test.
    """
    observed = _refit_case_counts("psi-minus", 1_000_000)
    predictor = tomo._one_step_predictor(observed, _inversion_start_fits(observed[None]).rho[0])
    counts = np.random.default_rng(73).poisson(observed, size=(100, 36)).astype(float)
    _, x = predictor.starts(counts)
    forms, work = tomo._forms(tuple(predictor.order)), tomo._Work.empty(100)
    tracemalloc.start()
    try:
        refined, chord_peak = _traced_peak(lambda: predictor.refine(counts, x, forms, work))
        fit, newton_peak = _traced_peak(lambda: tomo._newton_fit(counts, x, forms, tomo._MLE_REPIVOT_STEPS, work))
    finally:
        tracemalloc.stop()
    assert not np.array_equal(refined, x)
    assert fit.converged.all() and fit.n_iter.min() >= 1
    assert chord_peak < 2 * work.hess.nbytes
    assert newton_peak < 2 * work.hess.nbytes


def _traced_peak(call):
    """(result, traced peak above the memory in use before) of call()."""
    start, _ = tracemalloc.get_traced_memory()
    tracemalloc.reset_peak()
    result = call()
    return result, tracemalloc.get_traced_memory()[1] - start


def _dpotrf_loop_shift(hess, damping):
    """The positivity shift with dpotrf run on every matrix: the reference for the stacked Cholesky test."""
    bad = [i for i, h in enumerate(hess) if lapack.dpotrf(h, lower=True, clean=False)[1] != 0]
    if bad:
        lowest = np.linalg.eigvalsh(hess[bad])[:, 0]
        hess[bad] += (2.0 * (damping[bad] - lowest))[:, None, None] * np.eye(16)
    return bad


def _hessian_stacks(monkeypatch):
    """(hess, damping) of every _shift_to_positive call of two fits of 100 redraws, as passed in.

    The singlet's refits at 10^6 counts per setting see only positive
    Hessians, barely so: the one along x is the damping shift, about 4e-13
    of the largest eigenvalue.  Werner 0.9 at 100 counts per setting starts
    from linear inversions, where some Hessians are indefinite.
    """
    shift, stacks = tomo._shift_to_positive, []

    def recording(hess, damping):
        stacks.append((hess.copy(), damping.copy()))
        return shift(hess, damping)

    monkeypatch.setattr(tomo, "_shift_to_positive", recording)
    for state, n_per_setting in (("psi-minus", 1_000_000), ("werner-0.9", 100)):
        observed = _refit_case_counts(state, n_per_setting)
        _inversion_start_fits(np.random.default_rng(75).poisson(observed, size=(100, 36)).astype(float))
    monkeypatch.undo()
    return stacks


def _synthetic_hessians(rng):
    """(16, 16) symmetric matrices with eigenvalues 1 to 1e6 and a lowest one of 1e-6, -1e-6 or -1e-1."""
    stack = []
    for lowest in (1e-6, 1e-6, -1e-6, 1e-6, -1e-1, 1e-6):
        q, _ = np.linalg.qr(rng.normal(size=(16, 16)))
        h = (q * np.concatenate([[lowest], rng.uniform(1.0, 1e6, 15)])) @ q.T
        stack.append(0.5 * (h + h.T))
    return np.array(stack)


def test_the_stacked_cholesky_test_shifts_exactly_what_the_dpotrf_loop_shifts(monkeypatch, rng):
    stacks = _hessian_stacks(monkeypatch)
    synthetic = _synthetic_hessians(rng)
    stacks += [(synthetic, np.full(6, 1e-6)), (synthetic[[0, 1, 3, 5]], np.full(4, 1e-6))]
    shifted = []
    for hess, damping in stacks:
        stacked, looped = hess.copy(), hess.copy()
        tomo._shift_to_positive(stacked, damping)
        bad = _dpotrf_loop_shift(looped, damping)
        assert stacked.tobytes() == looped.tobytes()
        assert [i for i in range(len(hess)) if not np.array_equal(stacked[i], hess[i])] == bad
        shifted.append(len(bad))
    # stacks that the stacked test passes whole, and stacks with indefinite matrices among positive ones
    assert shifted.count(0) >= 2 and any(0 < k < len(h) for k, (h, _) in zip(shifted, stacks))


def _borderline_hessians(rng, n=80):
    """(n, 16, 16) symmetric matrices with eigenvalues 1 to 1e6 and a lowest one within 30 eps of zero relative
    to the largest, every tenth one -1e-1 instead."""
    stack = []
    for i in range(n):
        q, _ = np.linalg.qr(rng.normal(size=(16, 16)))
        top = rng.uniform(1.0, 1e6, 15)
        lowest = -1e-1 if i % 10 == 0 else rng.uniform(-30.0, 30.0) * np.finfo(float).eps * top.max()
        h = (q * np.concatenate([[lowest], top])) @ q.T
        stack.append(0.5 * (h + h.T))
    return np.array(stack)


def test_the_matrices_shifted_are_those_that_numpys_own_cholesky_rejects_one_by_one(rng):
    hess = _borderline_hessians(rng)
    rejected = [i for i, h in enumerate(hess) if not tomo._cholesky_passes(h)]
    borderline = [i for i in range(len(hess)) if i % 10]
    # near singular, some pass and some fail
    assert 0 < len(set(rejected) & set(borderline)) < len(borderline)
    passing = [i for i in range(len(hess)) if i not in rejected]
    for rows in (range(len(hess)), borderline, passing, rejected):
        stack = hess[list(rows)]
        shifted = stack.copy()
        tomo._shift_to_positive(shifted, np.full(len(stack), 1e-6))
        changed = [j for j in range(len(stack)) if not np.array_equal(shifted[j], stack[j])]
        assert changed == [j for j, i in enumerate(rows) if i in rejected]
        assert np.linalg.eigvalsh(shifted[changed])[:, 0].min(initial=1.0) > 0.0


def _inversion_start_fits(counts):
    """_mle_fits of (R, 36) counts from their linear inversions, the start of mle_reconstruct."""
    return tomo._mle_fits(counts, *tomo._pivoted_starts(tomo._inversion(counts)))


def _refit_counts(rho, n_per_setting, seed, child):
    """A Poisson redraw of seeded records from the child-th child of SeedSequence(seed + 1000), a fixed case of a seeded sweep."""
    observed = tomo._count_table(tomo.simulate_counts(rho, n_per_setting, seed=seed))
    child_seed = np.random.SeedSequence(seed + 1000).spawn(child + 1)[child]
    return np.random.default_rng(child_seed).poisson(observed).astype(float)


@pytest.mark.parametrize("case", ["start-floor", "restart"])
def test_refits_reach_the_optimum_only_with_the_start_floor_and_the_restart(monkeypatch, case):
    """Two refits from a seeded sweep, each of which needs one of the two remedies.

    From a start whose eigenvalues were floored at 1e-12, the Werner 0.77
    refit passed the decrement test 5.8e-4 nats short of its optimum.  In the
    pivot order of its start the Werner 0.99 refit crawled to the step cap;
    the pivot order of its state after 20 steps reaches the optimum in 4 more.
    """
    if case == "start-floor":
        counts, remedy = _refit_counts(tomo.werner(0.77), 200, 7061, 628), ("_MLE_START_FLOOR", 1e-12)
    else:
        counts, remedy = _refit_counts(tomo.werner(0.99), 10_000, 7051, 144), ("_MLE_REPIVOT_STEPS", tomo._MLE_MAX_ITER)
    fit = _inversion_start_fits(counts[None])
    start = tomo.project_to_physical(tomo._inversion(counts), floor=1e-12)
    assert fit.converged[0]
    assert fit.log_likelihood[0] >= lbfgsb_log_likelihood(counts, tomo.PROJECTORS, start, ftol=1e-16, restarts=50) - 1e-6
    monkeypatch.setattr(tomo, *remedy)
    without = _inversion_start_fits(counts[None])
    assert not without.converged[0] or without.log_likelihood[0] < fit.log_likelihood[0] - 1e-4


def test_mle_deterministic():
    records = tomo.simulate_counts(tomo.werner(0.6), 50_000, seed=3)
    a = tomo.mle_reconstruct(records)
    b = tomo.mle_reconstruct(records)
    assert np.array_equal(a.rho, b.rho)


def test_fidelity_values(rng):
    singlet = tomo.psi_minus()
    assert tomo.fidelity(singlet, singlet) == pytest.approx(1.0, abs=1e-12)
    assert tomo.fidelity(tomo.maximally_mixed(), singlet) == pytest.approx(0.25, abs=1e-12)
    for p in (0.0, 0.5, 1.0):
        assert tomo.fidelity(tomo.werner(p), singlet) == pytest.approx(
            (3 * p + 1) / 4, abs=1e-10
        )
    # pure-target shortcut agrees with the full formula
    for _ in range(5):
        rho = random_density_matrix(rng, 4)
        direct = float(np.real(np.trace(singlet @ rho)))
        assert tomo.fidelity(rho, singlet) == pytest.approx(direct, abs=1e-10)


def test_concurrence_values():
    assert tomo.concurrence(tomo.psi_minus()) == pytest.approx(1.0, abs=1e-12)
    product = np.kron(np.diag([1.0, 0.0]), np.diag([0.3, 0.7]))
    assert tomo.concurrence(product) == pytest.approx(0.0, abs=1e-12)
    for p in (1 / 3, 2 / 3, 1.0):
        assert tomo.concurrence(tomo.werner(p)) == pytest.approx(
            max(0.0, (3 * p - 1) / 2), abs=1e-10
        )


def test_entropies_values():
    def entropies(rho):
        metrics = tomo.state_metrics(rho, tomo.psi_minus())
        return metrics.entropy_full_bits, metrics.entropy_reduced_bits

    assert entropies(tomo.psi_minus()) == pytest.approx((0.0, 1.0), abs=1e-10)
    assert entropies(tomo.maximally_mixed()) == pytest.approx((2.0, 1.0), abs=1e-12)
    w = np.array([0.925, 0.025, 0.025, 0.025])
    expected = float(-np.sum(w * np.log2(w)))
    full, _ = entropies(tomo.werner(0.9))
    assert full == pytest.approx(expected, abs=1e-10)


def test_metric_local_unitary_invariance(rng):
    g = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    q, _ = np.linalg.qr(g)
    u = np.kron(q, q)
    rho = tomo.werner(0.8)
    target = tomo.psi_minus()
    rho_u = u @ rho @ u.conj().T
    target_u = u @ target @ u.conj().T
    assert tomo.concurrence(rho_u) == pytest.approx(tomo.concurrence(rho), abs=1e-10)
    assert tomo.fidelity(rho_u, target_u) == pytest.approx(
        tomo.fidelity(rho, target), abs=1e-10
    )


def test_hofmann_bounds():
    assert tomo.hofmann_bounds(0.902, 0.874) == (0.776, 0.874)
    assert tomo.hofmann_bounds(1.0, 1.0) == (1.0, 1.0)
    assert tomo.hofmann_bounds(0.5, 0.5) == (0.0, 0.5)
    lo, hi = tomo.hofmann_bounds(0.3, 0.9)
    assert lo <= hi
    with pytest.raises(ValueError):
        tomo.hofmann_bounds(1.2, 0.5)


def test_monte_carlo_metrics_spread():
    records = tomo.simulate_counts(tomo.psi_minus(), 1_000_000, seed=21)
    central = tomo.mle_reconstruct(records)
    mc = tomo.monte_carlo_metrics(records, central, tomo.psi_minus(), 200, seed=22)
    assert mc.fidelity_to_target.std < 0.002
    assert mc.fidelity_to_target.mean > 0.999
    # resampled spread stabilizes as the number of resamples grows
    mc2 = tomo.monte_carlo_metrics(records, central, tomo.psi_minus(), 400, seed=22)
    assert mc2.fidelity_to_target.std < 0.002


def test_monte_carlo_rounded_exact_input_has_tiny_spread():
    records = [
        tomo.MeasurementRecord(r.basis1, r.basis2, np.round(r.counts))
        for r in exact_records(tomo.werner(0.9), n=1_000_000)
    ]
    mc = tomo.monte_carlo_metrics(records, tomo.mle_reconstruct(records), tomo.psi_minus(), 100, seed=4)
    for name in ("fidelity_to_target", "concurrence", "purity"):
        assert getattr(mc, name).std < 2e-3


_METRICS = ("fidelity_to_target", "concurrence", "entropy_full_bits", "entropy_reduced_bits", "purity")


def _serial_monte_carlo(records, target, n_resamples, seed):
    """Reference loop: per-setting Poisson redraws, one fit at a time from its predicted start, metrics per resample."""
    base = {(r.basis1, r.basis2): r for r in records}
    predictor = tomo._one_step_predictor(tomo._count_table(records), tomo.mle_reconstruct(records).rho)
    rows = []
    rng = np.random.default_rng(np.random.SeedSequence(seed).spawn(1)[0])
    for _ in range(n_resamples):
        resampled = []
        for b1, b2 in tomo.SETTINGS:
            counts = rng.poisson(base[(b1, b2)].counts)
            if counts.sum() == 0:
                counts = counts + 1
            resampled.append(tomo.MeasurementRecord(b1, b2, counts))
        n = tomo._count_table(resampled)[None]
        fit = tomo._mle_fits(n, *predictor.starts(n), predictor)
        if fit.converged[0]:
            m = tomo.state_metrics(fit.rho[0], target)
            rows.append([getattr(m, f) for f in _METRICS])
    arr = np.array(rows)
    return arr.mean(axis=0), arr.std(axis=0, ddof=1), n_resamples - len(rows)


@pytest.mark.parametrize("rho, n_per_setting, n_resamples", [
    (tomo.psi_minus(), 100_000, 100),
    (tomo.werner(0.6), 3, 250),  # settings redrawn to 0 counts; two full stacks and a partial one
], ids=["bell-1e5", "werner-low-count"])
def test_monte_carlo_matches_serial_reference_loop(rho, n_per_setting, n_resamples):
    records = tomo.simulate_counts(0.98 * rho + 0.02 * tomo.maximally_mixed(), n_per_setting, seed=31)
    mc = tomo.monte_carlo_metrics(records, tomo.mle_reconstruct(records), tomo.psi_minus(), n_resamples, seed=32)
    means, stds, n_not_converged = _serial_monte_carlo(records, tomo.psi_minus(), n_resamples, seed=32)
    assert mc.n_resamples == n_resamples
    assert mc.n_not_converged == n_not_converged
    for name, mean, std in zip(_METRICS, means, stds):
        assert abs(getattr(mc, name).mean - mean) <= 1e-8, name
        assert abs(getattr(mc, name).std - std) <= 1e-8, name


def test_stacked_metrics_equal_serial_metrics(rng):
    rhos = np.array([random_density_matrix(rng, 4) for _ in range(20)] + [tomo.psi_minus(), tomo.werner(0.3)])
    stacked = tomo.state_metrics(rhos, tomo.psi_minus())
    for i, rho in enumerate(rhos):
        single = tomo.state_metrics(rho, tomo.psi_minus())
        for name in _METRICS:
            assert getattr(stacked, name)[i] == getattr(single, name), name
    projected = tomo.project_to_physical(rhos - 0.05 * np.eye(4), floor=1e-12)
    for i, rho in enumerate(rhos):
        assert np.array_equal(projected[i], tomo.project_to_physical(rho - 0.05 * np.eye(4), floor=1e-12))


def _states_of_rank(rng, rank, size):
    g = rng.normal(size=(size, 4, rank)) + 1j * rng.normal(size=(size, 4, rank))
    rho = g @ g.conj().swapaxes(1, 2)
    return rho / np.trace(rho, axis1=1, axis2=2).real[:, None, None]


def test_stacked_metrics_match_the_oracles(rng):
    """Concurrence and entropies of random states of rank 1 to 4 and of near-pure ones, against per-matrix oracles.

    The oracle's Wootters lambdas are square roots of eigenvalues found to
    about eps = 2.2e-16, so where they vanish (rank below 4) each may come
    out near sqrt(eps) = 1.5e-8; the concurrence bound allows a few of them.
    """
    rhos = np.concatenate([*(_states_of_rank(rng, rank, 40) for rank in (1, 2, 3, 4)),
                           *((1 - eps) * _states_of_rank(rng, 1, 20) + eps * _states_of_rank(rng, 4, 20)
                             for eps in (1e-4, 1e-8, 1e-12))])
    metrics = tomo.state_metrics(rhos, tomo.psi_minus())
    for i, rho in enumerate(rhos):
        assert abs(metrics.concurrence[i] - wootters_concurrence_oracle(rho)) <= 1e-7, i
        entropies = von_neumann_entropies_oracle(rho)
        assert abs(metrics.entropy_full_bits[i] - entropies[0]) <= 1e-13, i
        assert abs(metrics.entropy_reduced_bits[i] - entropies[1]) <= 1e-13, i
        assert abs(metrics.purity[i] - np.trace(rho @ rho).real) <= 1e-14, i


def test_the_concurrence_of_a_pure_state_is_exact(rng):
    """|psi^T (sigma_y sigma_y) psi| to rounding, where the oracle's lambdas are only good to about 1e-8."""
    psi = rng.normal(size=(50, 4)) + 1j * rng.normal(size=(50, 4))
    psi /= np.linalg.norm(psi, axis=1, keepdims=True)
    exact = np.abs(np.einsum("ri,ij,rj->r", psi, tomo._SIGMA_YY, psi))
    assert np.max(np.abs(tomo.concurrence(np.einsum("ri,rj->rij", psi, psi.conj())) - exact)) <= 1e-14


def _flag_fits_not_converged(monkeypatch, flagged):
    """Flag the refits with the given indices, counted over all solver calls, as not converged.

    Returns the rhos of the refits left converged.
    """
    fit = tomo._mle_fits
    seen, kept = [0], []

    def patched(n, *starts):
        fits = fit(n, *starts)
        index = seen[0] + np.arange(len(n))
        seen[0] += len(n)
        converged = fits.converged & ~np.isin(index, list(flagged))
        kept.extend(fits.rho[converged])
        return dataclasses.replace(fits, converged=converged)

    monkeypatch.setattr(tomo, "_mle_fits", patched)
    return kept


def test_monte_carlo_leaves_out_and_counts_non_converged_fits(monkeypatch):
    records = tomo.simulate_counts(tomo.werner(0.9), 5000, seed=2)
    central = tomo.mle_reconstruct(records)
    kept = _flag_fits_not_converged(monkeypatch, {17})
    mc = tomo.monte_carlo_metrics(records, central, tomo.psi_minus(), 100, seed=3)
    assert mc.n_not_converged == 1 and len(kept) == 99
    rho = np.array(kept)
    expected = np.real(np.trace(rho @ rho, axis1=-2, axis2=-1))  # Tr(rho^2), not the eigenvalues state_metrics uses
    assert mc.purity.mean == pytest.approx(expected.mean(), abs=1e-15)
    assert mc.purity.std == pytest.approx(expected.std(ddof=1), abs=1e-15)


def test_monte_carlo_refuses_more_than_one_percent_non_converged(monkeypatch):
    records = tomo.simulate_counts(tomo.werner(0.9), 5000, seed=2)
    central = tomo.mle_reconstruct(records)
    _flag_fits_not_converged(monkeypatch, {3, 50})
    with pytest.raises(tomo.NotConverged, match="2 of 100"):
        tomo.monte_carlo_metrics(records, central, tomo.psi_minus(), 100, seed=3)


#: (_MC_BLOCK, _FIT_STACK) pairs that must give the same bytes: every
#: block size against every stack cap, one resample per block, and the
#: default pair again last
_STACK_SIZES = [(1, 100), *itertools.product((100, 1000), (1, 7, 100, 1000)), (1000, 100)]


def test_monte_carlo_identical_for_every_stack_size(monkeypatch):
    # the paper's Werner state at low counts: refits take from a few to
    # tens of steps, so the active set of a stack shrinks unevenly, and the
    # refits that repivot fall into several basis orders
    records = tomo.simulate_counts(tomo.werner(0.77), 200, seed=41)
    central = tomo.mle_reconstruct(records)
    newton_fit, orders = tomo._newton_fit, []

    def recording(n, x, forms, max_iter, work):
        orders.append((sizes, forms.inverse.tobytes()))
        return newton_fit(n, x, forms, max_iter, work)

    monkeypatch.setattr(tomo, "_newton_fit", recording)
    results = []
    for sizes in _STACK_SIZES:
        monkeypatch.setattr(tomo, "_MC_BLOCK", sizes[0])
        monkeypatch.setattr(tomo, "_FIT_STACK", sizes[1])
        mc = tomo.monte_carlo_metrics(records, central, tomo.psi_minus(), 250, seed=42)
        stats = np.array([[getattr(mc, name).mean, getattr(mc, name).std] for name in _METRICS])
        results.append((stats.tobytes(), mc.refit_iterations.tobytes(), mc.n_not_converged))
    iterations = np.frombuffer(results[0][1], dtype=int)
    assert len(np.unique(iterations)) > 3 and iterations.max() > tomo._MLE_REPIVOT_STEPS
    # one block of 250 refits in stacks of 1000: the repivoted ones add orders
    assert len({order for s, order in orders if s == (1000, 1000)}) >= 2
    assert all(r == results[0] for r in results[1:])


def test_bell_output_identical_for_every_stack_size(monkeypatch, tmp_path):
    args = ["bell", "--overlap", "1.0", "--resamples", "1000", "--seed", "43"]
    outputs = []
    for i, (block, stack) in enumerate(_STACK_SIZES):
        monkeypatch.setattr(tomo, "_MC_BLOCK", block)
        monkeypatch.setattr(tomo, "_FIT_STACK", stack)
        out = tmp_path / f"bell-{i}.json"
        assert cli.main([*args, "--out", str(out)]) == 0
        outputs.append(out.read_bytes())
    assert all(o == outputs[0] for o in outputs[1:])


def test_bell_fits_run_in_full_stacks_of_one_order(monkeypatch, tmp_path):
    newton_fit, one_step_predictor, stacks, predictors = tomo._newton_fit, tomo._one_step_predictor, [], []

    def recording_stack(n, x, forms, max_iter, work):
        stacks.append((tuple(np.argsort(forms.inverse).tolist()), [row.tobytes() for row in n]))
        return newton_fit(n, x, forms, max_iter, work)

    def recording_predictor(observed, rho):
        predictors.append(one_step_predictor(observed, rho))
        return predictors[-1]

    monkeypatch.setattr(tomo, "_newton_fit", recording_stack)
    monkeypatch.setattr(tomo, "_one_step_predictor", recording_predictor)
    out = tmp_path / "bell.json"
    assert cli.main(["bell", "--overlap", "1.0", "--resamples", "1000", "--seed", "11", "--out", str(out)]) == 0
    # 1001 fits: the CLI's central fit, then the 1000 refits in stacks of
    # the predictor's order, every one of them full
    (_, central), *mc = stacks
    [predictor] = predictors
    assert len(central) == 1
    assert [(o, len(rows)) for o, rows in mc] == [(tuple(predictor.order.tolist()), tomo._FIT_STACK)] * 10
    # the predictor's centre is the CLI's rho, floored like every start
    payload = json.loads(out.read_text())
    rho = np.array(payload["rho_real"]) + 1j * np.array(payload["rho_imag"])
    t = (tomo._T_OF_X @ predictor.x).reshape(4, 4)
    inverse = np.argsort(predictor.order)
    floored = tomo.project_to_physical(rho, floor=tomo._MLE_START_FLOOR)
    assert np.allclose((t.conj().T @ t)[inverse][:, inverse], floored, rtol=0, atol=1e-14)


def _monte_carlo_run(records, n_resamples):
    return tomo.monte_carlo_metrics(records, tomo.mle_reconstruct(records), tomo.psi_minus(), n_resamples, seed=6)


def test_monte_carlo_results_do_not_depend_on_the_block_size(monkeypatch):
    records = tomo.simulate_counts(tomo.werner(0.9), 1000, seed=5)
    runs = []
    for block in (100, 1000):
        monkeypatch.setattr(tomo, "_MC_BLOCK", block)
        runs.append(_monte_carlo_run(records, 250))
    for name in _METRICS:
        assert getattr(runs[0], name) == getattr(runs[1], name), name
    assert runs[0].n_not_converged == runs[1].n_not_converged
    assert runs[0].refit_iterations.tobytes() == runs[1].refit_iterations.tobytes()


def test_shorter_monte_carlo_runs_draw_the_first_resamples_of_longer_ones(monkeypatch):
    mle_fits, drawn = tomo._mle_fits, {}

    def recording(n, *starts):
        drawn.setdefault(n_resamples, []).append(np.array(n))
        return mle_fits(n, *starts)

    records = tomo.simulate_counts(tomo.werner(0.9), 1000, seed=5)
    monkeypatch.setattr(tomo, "_mle_fits", recording)
    for n_resamples in (100, 250):
        _monte_carlo_run(records, n_resamples)
    # each run fits the central counts first, then its one block of resamples
    (_, short), (_, long) = drawn[100], drawn[250]
    assert long.shape == (250, 36) and np.array_equal(short, long[:100])


#: (state, counts per setting) of the refit gate sweep
_REFIT_CASES = [
    ("psi-minus", 1_000_000), ("werner-0.9", 100), ("werner-0.9", 2000), ("H-D", 100), ("H-D", 2000),
    ("werner-0.6", 3), ("HH-VV", 10_000), ("H-mixed", 10_000),
]


def _refit_case_counts(state, n_per_setting):
    return tomo._count_table(tomo.simulate_counts(_named_state(state), n_per_setting, seed=71))


@pytest.mark.parametrize("state, n_per_setting", _REFIT_CASES)
def test_refits_from_the_predicted_start_reach_the_linear_inversion_start_fit(state, n_per_setting):
    """Every refit converges within the step cap, and never ends below the public fit of its counts.

    The public fit starts from the counts' own linear inversion.  The bound
    is _MLE_DECREMENT_TOL plus 64 eps |log-likelihood|: a fit that passes
    the decrement test is about half its squared decrement short of its
    optimum, and the log-likelihood sums 36 terms whose sizes add up to
    about |log-likelihood|.
    """
    observed = _refit_case_counts(state, n_per_setting)
    predictor = tomo._one_step_predictor(observed, _inversion_start_fits(observed[None]).rho[0])
    counts = np.random.default_rng(72).poisson(observed, size=(100, 36)).astype(float)
    per_setting = counts.reshape(100, 9, 4)
    per_setting[per_setting.sum(axis=-1) == 0] += 1
    fits = tomo._mle_fits(counts, *predictor.starts(counts), predictor)
    assert fits.converged.all() and fits.n_iter.max() < tomo._MLE_MAX_ITER
    for n, ll in zip(counts, fits.log_likelihood):
        public = tomo.mle_reconstruct([tomo.MeasurementRecord(*s, c) for s, c in zip(tomo.SETTINGS, n.reshape(9, 4))])
        bound = tomo._MLE_DECREMENT_TOL + 64 * np.finfo(float).eps * abs(public.log_likelihood)
        assert ll >= public.log_likelihood - bound


@pytest.mark.parametrize("state, n_per_setting", [("psi-minus", 1_000_000), ("werner-0.9", 2000), ("werner-0.6", 3)])
def test_the_observed_counts_start_one_newton_step_from_the_floored_central_fit(state, n_per_setting):
    observed = _refit_case_counts(state, n_per_setting)
    rho = _inversion_start_fits(observed[None]).rho[0]
    predictor = tomo._one_step_predictor(observed, rho)
    # the predictor's centre is the central fit, floored like every start
    central = tomo.project_to_physical(rho, floor=tomo._MLE_START_FLOOR)
    t = (tomo._T_OF_X @ predictor.x).reshape(4, 4)
    inverse = np.argsort(predictor.order)
    assert np.allclose((t.conj().T @ t)[inverse][:, inverse], central, rtol=0, atol=1e-14)
    n = observed[None].astype(float)
    forms = tomo._forms(tuple(predictor.order))
    _, grad, hess = tomo._derivatives(n, n.sum(axis=-1), predictor.x[None], forms, tomo._Work.empty(1))
    step = -np.linalg.solve(hess, grad[:, :, None])[..., 0]
    # f is constant along x, where the Newton step holds only rounding
    # scaled by 1 / (the damping shift) and the predicted step nothing
    along_x = np.outer(predictor.x, predictor.x)
    assert abs(predictor.x @ (predictor.starts(n)[1][0] - predictor.x)) <= 1e-15
    assert np.max(np.abs((np.eye(16) - along_x) @ (predictor.starts(n)[1][0] - predictor.x - step[0]))) <= 1e-12


def test_singlet_refits_at_high_counts_pass_the_decrement_test_at_their_start():
    """At 10^6 counts per setting 95 % or more of 1000 singlet refits take no Newton step; from the one-step start each took one."""
    records = tomo.simulate_counts(tomo.psi_minus(), 1_000_000, seed=51)
    mc = tomo.monte_carlo_metrics(records, tomo.mle_reconstruct(records), tomo.psi_minus(), 1000, seed=52)
    assert mc.n_not_converged == 0
    assert np.mean(mc.refit_iterations == 0) >= 0.95


def _chord_case(state, n_per_setting, size):
    """(predictor, counts, orders, one-step starts) of size Poisson redraws of a refit case, as monte_carlo_metrics draws them."""
    observed = _refit_case_counts(state, n_per_setting)
    predictor = tomo._one_step_predictor(observed, _inversion_start_fits(observed[None]).rho[0])
    counts = np.random.default_rng(76).poisson(observed, size=(size, 36)).astype(float)
    per_setting = counts.reshape(size, 9, 4)
    per_setting[per_setting.sum(axis=-1) == 0] += 1
    return predictor, counts, *predictor.starts(counts)


def _refined(predictor, counts, x):
    return predictor.refine(counts, x, tomo._forms(tuple(predictor.order)), tomo._Work.empty(len(counts)))


@pytest.mark.parametrize("n_per_setting", [100, 2000])
def test_refits_that_fail_the_chord_guard_are_the_refits_from_the_one_step_start(n_per_setting):
    predictor, counts, orders, x = _chord_case("werner-0.9", n_per_setting, 300)
    failed = (_refined(predictor, counts, x) == x).all(axis=-1)
    assert failed.any()
    chord, one_step = tomo._mle_fits(counts, orders, x, predictor), tomo._mle_fits(counts, orders, x)
    for field in dataclasses.fields(tomo.MleResult):
        assert getattr(chord, field.name)[failed].tobytes() == getattr(one_step, field.name)[failed].tobytes(), field.name


def test_chord_starts_leave_no_more_refits_unconverged_at_three_counts_per_setting():
    predictor, counts, orders, x = _chord_case("werner-0.6", 3, 1000)
    chord, one_step = tomo._mle_fits(counts, orders, x, predictor), tomo._mle_fits(counts, orders, x)
    assert np.count_nonzero(~chord.converged) <= np.count_nonzero(~one_step.converged)


@pytest.mark.parametrize("state", ["psi-minus", "werner-0.9"])
def test_chord_starts_do_not_depend_on_the_stack(monkeypatch, state):
    """Each refit's chord start, and its fit, as if alone; at 10^6 counts per setting Werner 0.9 keeps a few chord points."""
    predictor, counts, orders, x = _chord_case(state, 1_000_000, 200)
    refined = _refined(predictor, counts, x)
    kept = ~(refined == x).all(axis=-1)
    assert kept.any() and (state == "psi-minus") == kept.all()
    for r in range(len(counts)):
        assert _refined(predictor, counts[r:r + 1], x[r:r + 1]).tobytes() == refined[r:r + 1].tobytes()
    fits = tomo._mle_fits(counts, orders, x, predictor)
    monkeypatch.setattr(tomo, "_FIT_STACK", 7)
    stacked = tomo._mle_fits(counts, orders, x, predictor)
    for field in dataclasses.fields(tomo.MleResult):
        assert getattr(stacked, field.name).tobytes() == getattr(fits, field.name).tobytes(), field.name


def test_monte_carlo_requires_enough_resamples():
    records = tomo.simulate_counts(tomo.werner(0.9), 1000, seed=1)
    with pytest.raises(ValueError):
        tomo.monte_carlo_metrics(records, tomo.mle_reconstruct(records), tomo.psi_minus(), 10, seed=1)


def test_records_csv_round_trip(tmp_path):
    records = tomo.simulate_counts(tomo.werner(0.7), 5000, seed=13)
    path = tmp_path / "records.csv"
    write_records_csv(path, records)
    back = {(r.basis1, r.basis2): r for r in tomo.records_from_csv(path)}
    assert len(back) == 9
    for rec in records:
        assert np.array_equal(back[(rec.basis1, rec.basis2)].counts, rec.counts)


def test_records_csv_rejects_inconsistent_outcomes(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("basis1,basis2,outcome1,outcome2,counts\nZ,Z,D,H,10\n")
    with pytest.raises(ValueError):
        tomo.records_from_csv(path)
