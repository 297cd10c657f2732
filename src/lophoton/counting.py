"""Coincidence-histogram synthesis and analysis.

Histograms are binned coincidence counts versus detector time difference
tau (ps).  Peaks repeat at multiples of the laser repetition period; a
pulse-pair experiment adds satellites at +-delta_t around every repetition
peak.  Every peak is named by its repetition index k and offset index j
(center k * rep + j * delta_t, j in {-1, 0, +1}, j = 0 alone without a
pulse pair), never by its float position.  Peak areas are integrated in a
window of +-window_ps around each center inside the histogram after
subtracting a flat background estimated from the inter-peak region.

The intensity autocorrelation at zero delay is estimated as the ratio of
the central peak area (k = 0, j = 0) to the mean area of the side peaks
(k != 0, j = 0); a zero side-peak mean is a ValueError.  Two-photon
interference visibility is 1 - A0/A_ref, where A_ref is the central-peak
area expected for fully distinguishable photons: half the mean of the
+-delta_t satellite areas (k = 0, j = -1 and +1; pulse-pair excitation
with 50/50 splitting).  Both are pure count ratios, so uniform count
rescaling leaves them unchanged.

Laser leakage under resonant excitation shows up as a flat coincidence
floor; the background subtraction above is also how that leakage would be
removed, via the background_per_bin knob of the generator.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import io
from .emitter import DecayParams

#: 76 MHz repetition rate
DEFAULT_REP_PERIOD_NS = 1000.0 / 76.0


class WindowOverlap(ValueError):
    """Integration windows of neighboring peaks collide."""


class NoSidePeaks(ValueError):
    """Fewer than three repetition side peaks inside the histogram."""


class UnresolvedCluster(ValueError):
    """Pulse-pair separation too small for the binning to resolve."""


@dataclass(frozen=True)
class CoincidenceHistogram:
    bin_width_ps: float
    taus_ps: np.ndarray
    counts: np.ndarray
    rep_period_ns: float = DEFAULT_REP_PERIOD_NS
    pulse_pair_sep_ns: float | None = None

    def __post_init__(self):
        taus = np.asarray(self.taus_ps, dtype=float)
        counts = np.asarray(self.counts)
        if not self.bin_width_ps > 0:
            raise ValueError("bin_width_ps must be positive")
        if not self.rep_period_ns > 0:
            raise ValueError(f"rep_period_ns must be positive, got {self.rep_period_ns}")
        if self.pulse_pair_sep_ns is not None and not self.pulse_pair_sep_ns > 0:
            raise ValueError(f"pulse_pair_sep_ns must be positive, got {self.pulse_pair_sep_ns}")
        if taus.shape != counts.shape or taus.ndim != 1:
            raise ValueError("taus and counts must be equal-length 1-D arrays")
        if not np.all(np.isfinite(taus)):
            raise ValueError("taus must be finite")
        if np.any(np.diff(taus) <= 0):
            raise ValueError("taus must be strictly increasing")
        if not np.all(counts >= 0):
            raise ValueError("counts must be nonnegative")
        object.__setattr__(self, "taus_ps", taus)
        object.__setattr__(self, "counts", counts)


@dataclass(frozen=True)
class PeakIntegral:
    """One peak at center_ps = k * rep + j * delta_t (offset index j in {-1, 0, +1})."""

    center_ps: float
    k: int
    j: int
    area: float
    raw_counts: float  # pre-subtraction counts, for Poisson errors


@dataclass(frozen=True)
class HbtModel:
    """Single-detector-pair autocorrelation with central suppression g2."""

    g2: float

    def __post_init__(self):
        if not 0 <= self.g2 < np.inf:
            raise ValueError("g2 must be finite and nonnegative")


@dataclass(frozen=True)
class HomModel:
    """Pulse-pair interference with visibility V and separation delta_t."""

    visibility: float
    pulse_sep_ns: float

    def __post_init__(self):
        if not 0.0 <= self.visibility <= 1.0:
            raise ValueError("visibility must lie in [0, 1]")
        if not 0 < self.pulse_sep_ns < np.inf:
            raise ValueError("pulse_sep_ns must be finite and positive")


def _peak_layout(rep_period_ns, pulse_pair_sep_ns, kmax):
    """Peak centers k*rep + j*delta_t (ps) with their indices k and j, each of shape (2 kmax + 1, offsets).

    Row k runs from -kmax to kmax.  The offset index j is 0 alone without a
    pulse pair and -1, 0, +1 with one.
    """
    k = np.arange(-kmax, kmax + 1)[:, None]
    if pulse_pair_sep_ns is None:
        j, sep_ps = np.array([[0]]), 0.0
    else:
        j, sep_ps = np.array([[-1, 0, 1]]), pulse_pair_sep_ns * 1000.0
    centers = k * (rep_period_ns * 1000.0) + j * sep_ps
    return np.broadcast_arrays(centers, k, j)


def _shape_pdf(x_ps: np.ndarray, p: DecayParams) -> np.ndarray:
    """Two-sided emission profile as a unit-area density in tau.

    Mirrors the beating decay in tau; with zero splitting it degrades to the
    plain two-sided exponential (the beat factor would null the profile).
    """
    ax = np.abs(x_ps)
    envelope = np.exp(-ax / p.t1_ps)
    if p.delta_inv_ps == 0:
        return envelope / (2.0 * p.t1_ps)
    d2 = (p.delta_inv_ps * p.t1_ps) ** 2
    norm = 2.0 * p.t1_ps * d2 / (1.0 + d2)
    return envelope * (1.0 - np.cos(p.delta_inv_ps * ax)) / norm


def expected_histogram(
    model,
    decay: DecayParams,
    total_counts: float,
    *,
    bin_width_ps: float = 20.0,
    rep_period_ns: float = DEFAULT_REP_PERIOD_NS,
    n_side: int = 3,
    background_per_bin: float = 0.0,
):
    """Pre-sampling expected counts per bin for a synthetic experiment.

    Returns (taus, lam, histogram-metadata kwargs).  Peak weights: every
    repetition peak carries weight 1 in the autocorrelation model with the
    central one scaled by g2; in the pulse-pair model side clusters carry
    (1, 2, 1) at offsets (-dt, 0, +dt) and the central cluster
    (1, (1 - V)/2, 1), so the interfering peak sits at (1 - V) times half
    the satellite mean.
    """
    rep_ps = rep_period_ns * 1000.0
    half_span = (n_side + 0.5) * rep_ps
    nbins = int(np.ceil(2.0 * half_span / bin_width_ps))
    taus = (np.arange(nbins) - (nbins - 1) / 2.0) * bin_width_ps

    if isinstance(model, HbtModel):
        pulse_sep = None
        weights = np.ones((2 * n_side + 1, 1))
        weights[n_side, 0] = model.g2
    elif isinstance(model, HomModel):
        pulse_sep = model.pulse_sep_ns
        weights = np.tile([1.0, 2.0, 1.0], (2 * n_side + 1, 1))
        weights[n_side, 1] = 0.5 * (1.0 - model.visibility)
    else:
        raise TypeError(f"model must be HbtModel or HomModel, got {type(model)!r}")
    centers = _peak_layout(rep_period_ns, pulse_sep, n_side)[0]
    peaks = list(zip(centers.ravel().tolist(), weights.ravel().tolist()))  # k ascending, then j

    wsum = sum(w for _, w in peaks)
    lam = np.zeros_like(taus)
    for center, w in peaks:
        if w > 0:
            lam += (total_counts / wsum) * w * _shape_pdf(taus - center, decay) * bin_width_ps
    lam += background_per_bin
    meta = dict(
        bin_width_ps=bin_width_ps,
        rep_period_ns=rep_period_ns,
        pulse_pair_sep_ns=pulse_sep,
    )
    return taus, lam, meta


def synth_histogram(
    model,
    decay: DecayParams,
    total_counts: int,
    seed: int,
    **kwargs,
) -> CoincidenceHistogram:
    """Poisson-sampled synthetic coincidence histogram, deterministic per seed."""
    if not 0 < total_counts < np.inf:
        raise ValueError(f"total_counts must be positive and finite, got {total_counts}")
    taus, lam, meta = expected_histogram(model, decay, float(total_counts), **kwargs)
    rng = np.random.default_rng(seed)
    counts = rng.poisson(lam)
    return CoincidenceHistogram(taus_ps=taus, counts=counts, **meta)


def integrate_peaks(h: CoincidenceHistogram, window_ps: float) -> list[PeakIntegral]:
    """Background-subtracted area of every expected peak, in order of center.

    The window is a half-width: bins with |tau - center| <= window_ps count
    toward a peak.  The flat background per bin is the median of all bins
    farther than one window from every center.
    """
    if not window_ps > 0:
        raise ValueError(f"window_ps must be positive, got {window_ps}")
    rep_ps = h.rep_period_ns * 1000.0
    if not window_ps < rep_ps / 2.0:
        raise ValueError("window must be smaller than half the repetition period")
    taus = h.taus_ps
    reach = max(abs(taus[0]), abs(taus[-1]))
    if reach > rep_ps * len(taus):
        raise ValueError("histogram reaches more repetition periods from tau = 0 than it has bins")
    kmax = int(np.floor(reach / rep_ps))
    centers, ks, js = (a.ravel() for a in _peak_layout(h.rep_period_ns, h.pulse_pair_sep_ns, kmax))
    inside = (taus[0] <= centers) & (centers <= taus[-1])
    order = np.argsort(centers[inside], kind="stable")
    centers, ks, js = (a[inside][order] for a in (centers, ks, js))
    if not centers.size:
        raise ValueError("no peak center inside the histogram")
    gaps = np.diff(centers)
    if len(gaps) and gaps.min() < 2.0 * window_ps:
        raise WindowOverlap(
            f"centers {gaps.min():.0f} ps apart overlap at window {window_ps:.0f} ps"
        )

    # centers are at least two windows apart, so no window but those of the
    # two centers around a bin can hold it; a bin midway counts in both
    right = np.searchsorted(centers, taus)  # centers[right - 1] < tau <= centers[right]
    padded = np.concatenate(([-np.inf], centers, [np.inf]))
    in_left = np.abs(taus - padded[right]) <= window_ps
    in_right = np.abs(taus - padded[right + 1]) <= window_ps
    outside = ~(in_left | in_right)
    background = float(np.median(h.counts[outside])) if outside.any() else 0.0

    peak = np.concatenate((right[in_left] - 1, right[in_right]))
    raw = np.zeros(centers.size, dtype=h.counts.dtype)
    np.add.at(raw, peak, np.concatenate((h.counts[in_left], h.counts[in_right])))
    area = np.maximum(raw - background * np.bincount(peak, minlength=centers.size), 0.0)
    return [
        PeakIntegral(center_ps=c, k=k, j=j, area=a, raw_counts=r)
        for c, k, j, a, r in zip(centers.tolist(), ks.tolist(), js.tolist(), area.tolist(), raw.astype(float).tolist())
    ]


def g2_zero(h: CoincidenceHistogram, window_ps: float):
    """Central-to-side peak area ratio with a propagated Poisson error.

    Returns (g2, sigma).  Requires at least three side peaks.
    """
    peaks = {(p.k, p.j): p for p in integrate_peaks(h, window_ps)}
    sides = [p for (k, j), p in peaks.items() if k != 0 and j == 0]
    if len(sides) < 3:
        raise NoSidePeaks(f"need >= 3 side peaks, found {len(sides)}")
    if (0, 0) not in peaks:
        raise ValueError("no central peak inside the histogram")
    a0 = peaks[0, 0].area
    var0 = peaks[0, 0].raw_counts
    side_mean = float(np.mean([p.area for p in sides]))
    if side_mean <= 0:
        raise ValueError("side-peak area is zero; cannot form g2")
    var_side_mean = float(np.sum([p.raw_counts for p in sides])) / len(sides) ** 2
    value = a0 / side_mean
    sigma = np.sqrt(var0 / side_mean ** 2 + (a0 * np.sqrt(var_side_mean) / side_mean ** 2) ** 2)
    return value, float(sigma)


def hom_visibility(h: CoincidenceHistogram, window_ps: float):
    """Two-photon interference visibility from the central coincidence cluster.

    Returns (V, sigma), with half the mean satellite area as the reference.
    """
    if h.pulse_pair_sep_ns is None:
        raise ValueError("histogram has no pulse_pair_sep_ns metadata")
    sep_ps = h.pulse_pair_sep_ns * 1000.0
    if sep_ps < 3.0 * h.bin_width_ps:
        raise UnresolvedCluster(
            f"pulse separation {sep_ps:.0f} ps below 3 bins ({3 * h.bin_width_ps:.0f} ps)"
        )
    peaks = {(p.k, p.j): p for p in integrate_peaks(h, window_ps)}
    central = peaks.get((0, 0))
    if central is None:
        raise ValueError("no central peak inside the histogram")
    satellites = [peaks[0, j] for j in (-1, 1) if (0, j) in peaks]
    if len(satellites) != 2:
        raise ValueError(f"expected the two +-delta_t satellites, found {len(satellites)}")
    a_ref = 0.5 * float(np.mean([p.area for p in satellites]))
    if a_ref <= 0:
        raise ValueError("reference area is zero; cannot form a visibility")
    value = 1.0 - central.area / a_ref
    var_ref = 0.25 * float(np.sum([p.raw_counts for p in satellites])) / len(satellites) ** 2
    sigma = np.sqrt(
        central.raw_counts / a_ref ** 2 + (central.area / a_ref ** 2) ** 2 * var_ref
    )
    return float(value), float(sigma)


# ---------------------------------------------------------------------------
# file I/O
# ---------------------------------------------------------------------------

def read_histogram_csv(csv_path, meta_path) -> CoincidenceHistogram:
    taus, counts = io.read_columns(csv_path, ("tau_ps", "counts"), (io.finite, io.count))
    if np.any(np.diff(taus) <= 0):
        raise ValueError(f"{csv_path}: tau_ps must be strictly increasing")

    def build(bin_width_ps=None, rep_period_ns=None, pulse_pair_sep_ns=None):
        if bin_width_ps is None or rep_period_ns is None:
            raise ValueError("bin_width_ps and rep_period_ns are required")
        return CoincidenceHistogram(bin_width_ps, taus, counts, rep_period_ns, pulse_pair_sep_ns)

    keys = ("bin_width_ps", "rep_period_ns", "pulse_pair_sep_ns")
    return io.read_json_numbers(meta_path, keys, ("pulse_pair_sep_ns",), build)
