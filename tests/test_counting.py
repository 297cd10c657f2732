import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from lophoton import counting as ct
from lophoton import emitter as em

import oracles
from conftest import write_histogram_csv

DOT_DECAY = em.DecayParams(t1_ps=350.0, delta_inv_ps=em.fss_ueV_to_inv_ps(6.4))
SHORT_DECAY = em.DecayParams(t1_ps=100.0, delta_inv_ps=0.0)
REP_PS = ct.DEFAULT_REP_PERIOD_NS * 1000.0


def _delta_histogram(areas_by_center, bin_width=20.0, n_side=3, **kw):
    """All counts of each peak in the single bin at its center."""
    nbins = int(np.ceil(2 * (n_side + 0.5) * REP_PS / bin_width))
    taus = (np.arange(nbins) - (nbins - 1) / 2) * bin_width
    counts = np.zeros(nbins, dtype=int)
    for center, area in areas_by_center.items():
        counts[np.argmin(np.abs(taus - center))] = area
    return ct.CoincidenceHistogram(bin_width_ps=bin_width, taus_ps=taus, counts=counts, **kw)


def test_delta_peaks_recovered_exactly():
    areas = {k * REP_PS: 100 * (abs(k) + 1) for k in range(-3, 4)}
    h = _delta_histogram(areas)
    peaks = ct.integrate_peaks(h, 2000.0)
    assert len(peaks) == 7
    for p in peaks:
        assert p.area == areas[min(areas, key=lambda c: abs(c - p.center_ps))]


def test_exponential_peak_capture():
    # expected (unsampled) intensities: each window must hold >= 99.6% of its peak
    taus, lam, _ = ct.expected_histogram(
        ct.HbtModel(g2=1.0), DOT_DECAY, 7e6, bin_width_ps=10.0
    )
    h = ct.CoincidenceHistogram(10.0, taus, np.round(lam).astype(int))
    peaks = ct.integrate_peaks(h, 2000.0)
    per_peak = 1e6
    for p in peaks:
        assert p.area >= 0.996 * per_peak


def test_flat_background_subtracted():
    taus, lam, _ = ct.expected_histogram(
        ct.HbtModel(g2=1.0), DOT_DECAY, 7e6, bin_width_ps=10.0, background_per_bin=10.0
    )
    h = ct.CoincidenceHistogram(10.0, taus, np.round(lam).astype(int))
    peaks = ct.integrate_peaks(h, 2000.0)
    for p in peaks:
        assert p.area == pytest.approx(1e6, rel=0.005)


def test_areas_plus_background_account_for_total():
    h = ct.synth_histogram(ct.HbtModel(g2=0.5), DOT_DECAY, 500_000, seed=5,
                           background_per_bin=2.0)
    peaks = ct.integrate_peaks(h, 2000.0)
    # background estimate belongs to every bin
    dist = np.min(np.abs(h.taus_ps[:, None] - np.array([p.center_ps for p in peaks])), axis=1)
    bg = np.median(h.counts[dist > 2000.0])
    recovered = sum(p.area for p in peaks) + bg * h.counts.size
    assert recovered == pytest.approx(h.counts.sum(), rel=0.01)


def test_window_overlap_rejected():
    h = ct.synth_histogram(ct.HomModel(0.9, 2.0), SHORT_DECAY, 10_000, seed=1)
    with pytest.raises(ct.WindowOverlap):
        ct.integrate_peaks(h, 1500.0)  # satellites 2 ns away collide
    with pytest.raises(ValueError):
        ct.integrate_peaks(h, REP_PS)  # window must stay below rep/2


def test_g2_exact_ratios():
    areas = {k * REP_PS: 200 for k in range(-3, 4) if k != 0}
    areas[0.0] = 1
    h = _delta_histogram(areas)
    value, err = ct.g2_zero(h, 2000.0)
    assert value == pytest.approx(1 / 200, abs=1e-12)
    assert err > 0
    areas[0.0] = 0
    value, _ = ct.g2_zero(_delta_histogram(areas), 2000.0)
    assert value == 0.0


def test_g2_requires_side_peaks():
    areas = {0.0: 10, REP_PS: 200, -REP_PS: 200}
    h = _delta_histogram(areas, n_side=1)
    with pytest.raises(ct.NoSidePeaks):
        ct.g2_zero(h, 2000.0)


def test_g2_round_trip_statistics():
    # estimator consistent with the generator across Poisson resamples
    base = ct.synth_histogram(ct.HbtModel(g2=0.008), DOT_DECAY, 200_000, seed=17)
    estimates, errors = [], []
    rng = np.random.default_rng(18)
    for _ in range(500):
        g, e = ct.g2_zero(replace(base, counts=rng.poisson(base.counts)), 2000.0)
        estimates.append(g)
        errors.append(e)
    assert abs(np.mean(estimates) - 0.008) < np.mean(errors)


def test_g2_percent_level_ratio():
    h = ct.synth_histogram(ct.HbtModel(g2=0.005), DOT_DECAY, 300_000, seed=23)
    value, _ = ct.g2_zero(h, 2000.0)
    assert value < 0.01


def test_hom_limits():
    # fully interfering: zero central counts
    h = ct.synth_histogram(ct.HomModel(1.0, 2.0), SHORT_DECAY, 200_000, seed=3)
    v, _ = ct.hom_visibility(h, 600.0)
    assert v == pytest.approx(1.0, abs=5e-3)
    # distinguishable reference: central equals half the satellite mean
    sep = 2000.0
    areas = {0.0: 500, sep: 1000, -sep: 1000}
    for k in (-2, -1, 1, 2):
        for off in (-sep, 0.0, sep):
            areas[k * REP_PS + off] = 1000
    h0 = _delta_histogram(areas, pulse_pair_sep_ns=2.0)
    v0, _ = ct.hom_visibility(h0, 600.0)
    assert v0 == pytest.approx(0.0, abs=1e-12)


def test_hom_round_trip():
    h = ct.synth_histogram(ct.HomModel(0.947, 2.0), SHORT_DECAY, 100_000, seed=7)
    v, err = ct.hom_visibility(h, 600.0)
    assert abs(v - 0.947) < 3 * err


def test_hom_requires_metadata_and_resolution():
    h = ct.synth_histogram(ct.HbtModel(0.01), SHORT_DECAY, 10_000, seed=2)
    with pytest.raises(ValueError):
        ct.hom_visibility(h, 600.0)
    h2 = ct.synth_histogram(ct.HomModel(0.9, 0.05), SHORT_DECAY, 10_000, seed=2,
                            bin_width_ps=20.0)
    with pytest.raises(ct.UnresolvedCluster):
        ct.hom_visibility(h2, 10.0)
    h3 = ct.synth_histogram(ct.HomModel(0.9, 2.0), SHORT_DECAY, 10_000, seed=2, n_side=2)
    no_zero = ct.CoincidenceHistogram(
        bin_width_ps=h3.bin_width_ps, taus_ps=h3.taus_ps + 3.0 * REP_PS, counts=h3.counts,
        pulse_pair_sep_ns=h3.pulse_pair_sep_ns,
    )
    with pytest.raises(ValueError, match="no central peak"):
        ct.hom_visibility(no_zero, 600.0)


def _random_histogram(rng, case):
    """A Poisson histogram with peaks, gapped and shifted at random, and a window for it.

    Every fourth takes window = delta_t/2, where neighbouring windows touch
    and a bin midway between two centers counts toward both.
    """
    sep_ns = None if case % 2 else float(rng.choice([0.6, 1.0, 2.0, rng.uniform(0.3, 4.0)]))
    model = ct.HbtModel(rng.uniform(0.0, 1.0)) if sep_ns is None else ct.HomModel(rng.uniform(0.0, 1.0), sep_ns)
    bin_width = float(rng.choice([10.0, 20.0, 25.0]))
    taus, lam, meta = ct.expected_histogram(model, SHORT_DECAY, rng.uniform(1e3, 1e5), bin_width_ps=bin_width,
                                            n_side=int(rng.integers(1, 4)), background_per_bin=rng.uniform(0, 3))
    keep = rng.random(taus.size) < rng.choice([1.0, 0.7, 0.05])
    taus = taus + rng.choice([0.0, rng.uniform(-0.5, 0.5) * bin_width, rng.integers(-2, 3) * REP_PS])
    h = ct.CoincidenceHistogram(taus_ps=taus[keep], counts=rng.poisson(lam[keep]), **meta)
    if sep_ns is not None and case % 4 == 0:
        return h, sep_ns * 500.0
    limit = REP_PS / 2 if sep_ns is None else sep_ns * 500.0
    return h, float(rng.uniform(0.2, 1.1) * limit)


def _outcome(fn, *args):
    try:
        return fn(*args)
    except ValueError as e:
        return type(e).__name__


def test_integration_and_estimators_match_masked_loop_oracle():
    rng = np.random.default_rng(808)
    for case in range(400):
        h, window = _random_histogram(rng, case)
        new = _outcome(ct.integrate_peaks, h, window)
        if isinstance(new, list):
            new = [(p.center_ps, p.area, p.raw_counts) for p in new]
        assert new == _outcome(oracles.integrate_peaks_oracle, h, window), case
        assert _outcome(ct.g2_zero, h, window) == _outcome(oracles.g2_zero_oracle, h, window), case
        assert _outcome(ct.hom_visibility, h, window) == _outcome(oracles.hom_visibility_oracle, h, window), case


def test_integrate_peaks_memory_linear_in_bins():
    # one bin every two periods: 3999 centers for 2000 bins
    taus = (np.arange(2000) - 1000) * 2.0 * REP_PS
    h = ct.CoincidenceHistogram(bin_width_ps=20.0, taus_ps=taus, counts=np.ones(taus.size, dtype=int))
    tracemalloc.start()
    try:
        peaks = ct.integrate_peaks(h, 2000.0)
        _, peak_bytes = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(peaks) == 3999
    assert peak_bytes < 8e6


def test_histogram_rejects_non_finite_taus():
    taus = np.array([0.0, 20.0, np.nan, 60.0])
    with pytest.raises(ValueError, match="finite"):
        ct.CoincidenceHistogram(bin_width_ps=20.0, taus_ps=taus, counts=np.ones(4, dtype=int))


@pytest.mark.parametrize("field, build", [
    pytest.param("bin_width_ps", lambda: ct.CoincidenceHistogram(
        bin_width_ps=np.nan, taus_ps=np.arange(4.0), counts=np.ones(4)), id="bin_width_ps-nan"),
    pytest.param("counts", lambda: ct.CoincidenceHistogram(
        bin_width_ps=20.0, taus_ps=np.arange(4.0), counts=np.array([1.0, np.nan, 1.0, 1.0])), id="counts-nan"),
    pytest.param("g2", lambda: ct.HbtModel(g2=np.nan), id="g2-nan"),
    pytest.param("g2", lambda: ct.HbtModel(g2=np.inf), id="g2-inf"),
    pytest.param("pulse_sep_ns", lambda: ct.HomModel(0.9, pulse_sep_ns=np.nan), id="pulse_sep_ns-nan"),
    pytest.param("pulse_sep_ns", lambda: ct.HomModel(0.9, pulse_sep_ns=np.inf), id="pulse_sep_ns-inf"),
    pytest.param("total_counts", lambda: ct.synth_histogram(ct.HbtModel(0.01), DOT_DECAY, total_counts=np.nan, seed=5),
                 id="total_counts-nan"),
    pytest.param("total_counts", lambda: ct.synth_histogram(ct.HbtModel(0.01), DOT_DECAY, total_counts=np.inf, seed=5),
                 id="total_counts-inf"),
])
def test_non_finite_fields_are_refused_by_name(field, build):
    with pytest.raises(ValueError, match=field):
        build()


def test_integrate_peaks_rejects_histogram_reaching_too_many_periods():
    # one stray far tau would otherwise make every repetition period up to it a peak center
    taus = np.append(np.arange(-5000.0, 5000.0, 20.0), 1e300)
    h = ct.CoincidenceHistogram(bin_width_ps=20.0, taus_ps=taus, counts=np.ones(taus.size, dtype=int))
    with pytest.raises(ValueError, match="repetition periods"):
        ct.integrate_peaks(h, 2000.0)


def test_ratio_estimators_scale_invariant():
    base = ct.synth_histogram(ct.HbtModel(g2=0.02), DOT_DECAY, 100_000, seed=31)
    scaled = ct.CoincidenceHistogram(
        base.bin_width_ps, base.taus_ps, base.counts * 3,
        base.rep_period_ns, base.pulse_pair_sep_ns,
    )
    assert ct.g2_zero(scaled, 2000.0)[0] == pytest.approx(ct.g2_zero(base, 2000.0)[0], abs=1e-12)

    hom = ct.synth_histogram(ct.HomModel(0.8, 2.0), SHORT_DECAY, 100_000, seed=32)
    hom3 = ct.CoincidenceHistogram(
        hom.bin_width_ps, hom.taus_ps, hom.counts * 3, hom.rep_period_ns, hom.pulse_pair_sep_ns
    )
    assert ct.hom_visibility(hom3, 600.0)[0] == pytest.approx(
        ct.hom_visibility(hom, 600.0)[0], abs=1e-12
    )


def test_synth_zero_central_intensity():
    taus, lam, _ = ct.expected_histogram(ct.HbtModel(g2=0.0), DOT_DECAY, 1e6)
    central = np.abs(taus) <= 2000.0
    # only the 1e-15-relative tails of the neighboring peaks remain
    assert lam[central].sum() < 1e-6
    h = ct.synth_histogram(ct.HbtModel(g2=0.0), DOT_DECAY, 1_000_000, seed=12)
    assert ct.g2_zero(h, 2000.0)[0] == 0.0
    taus, lam, _ = ct.expected_histogram(ct.HomModel(1.0, 2.0), SHORT_DECAY, 1e6)
    central = np.abs(taus) <= 600.0
    satellite = np.abs(taus - 2000.0) <= 600.0
    # the interfering peak itself contributes nothing; what is left in the
    # window is the 1e-6-relative satellite tail
    assert lam[central].sum() < 1e-5 * lam[satellite].sum()


def test_synth_deterministic_per_seed():
    a = ct.synth_histogram(ct.HbtModel(0.01), DOT_DECAY, 50_000, seed=5)
    b = ct.synth_histogram(ct.HbtModel(0.01), DOT_DECAY, 50_000, seed=5)
    c = ct.synth_histogram(ct.HbtModel(0.01), DOT_DECAY, 50_000, seed=6)
    assert np.array_equal(a.counts, b.counts)
    assert not np.array_equal(a.counts, c.counts)


def test_beat_satellites_inside_cluster():
    # self-interference carves sub-peaks one beat period apart inside a peak
    taus, lam, _ = ct.expected_histogram(
        ct.HbtModel(g2=1.0), DOT_DECAY, 1e7, bin_width_ps=10.0, n_side=1
    )
    cluster = (taus > 0) & (taus < 1500.0)
    x, y = taus[cluster], lam[cluster]
    local_max = [i for i in range(1, len(y) - 1) if y[i] >= y[i - 1] and y[i] >= y[i + 1]]
    tops = sorted(local_max, key=lambda i: y[i], reverse=True)[:2]
    spacing = abs(x[tops[0]] - x[tops[1]])
    assert spacing == pytest.approx(DOT_DECAY.beat_period_ps, abs=25.0)


def test_histogram_csv_round_trip(tmp_path):
    h = ct.synth_histogram(ct.HomModel(0.9, 2.0), SHORT_DECAY, 30_000, seed=4)
    csv_path = tmp_path / "h.csv"
    meta_path = tmp_path / "h.meta.json"
    write_histogram_csv(csv_path, meta_path, h)
    back = ct.read_histogram_csv(csv_path, meta_path)
    assert np.array_equal(back.counts, h.counts)
    assert np.allclose(back.taus_ps, h.taus_ps)
    assert back.pulse_pair_sep_ns == h.pulse_pair_sep_ns
    assert back.rep_period_ns == h.rep_period_ns
