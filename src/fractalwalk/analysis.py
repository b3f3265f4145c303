"""Scaling fits and regime-transition detection.

Detection routines return None for "not found"; exceptions are reserved
for malformed inputs.  Default thresholds (event mass epsilon = 0.02,
plateau delta = 0.002, exponent band 0.15) are deliberate knobs: the
phenomena they mark have no sharp definition, so every one of them is
exposed on the CLI and sweepable.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .calibration import EVENT_NAMES
from .errors import DomainError, ShapeError, StructuralError, check_positive, check_site
from .evolution import ProbabilitySeries
from .geometry import fractal_meta
from .lattice import Lattice, landmark_sites
from .observables import build_observable_table

DEFAULT_EPSILON = 0.02
DEFAULT_BAND = 0.15
DEFAULT_DELTA = 0.002
DEFAULT_MIN_SPAN = 5
DEFAULT_SLOPE_WINDOW = 11

#: fits ignore this many leading grid points (log of tiny variance is noise)
FIT_SKIP_INITIAL = 2

#: variance level that must be crossed before the normal-regime fit starts
NORMAL_FIT_FLOOR = 0.05

#: sustained windows required for the fractal-onset criterion
ONSET_RUN = 5

#: saturation: relative variance growth per unit tau must stay below this
SATURATION_GROWTH = 0.01

#: tau width of each averaging window used by saturation detection; must
#: straddle the slow post-saturation swing (period ~6 tau on the gasket)
#: or the swing itself reads as growth
SATURATION_WINDOW_TAU = 8.0

#: oscillation: trough prominence as a fraction of the saturation level
OSCILLATION_PROMINENCE = 0.005

#: saturation: largest relative deviation of a grid step from the mean step.
#: A grid read back from 12-digit text is off by up to ~1e-11 * tau_max per
#: step (2e-9 of the step on a 1201-point grid to tau 40), so a tighter
#: bound would refuse uniform grids; any real stretch is far above it.
GRID_STEP_RTOL = 1e-6


@dataclass(frozen=True)
class SlopeCurve:
    """Sliding-window log-log slope estimates.

    ``tau`` holds window centres, ``exponent`` the fitted local exponents.
    ``skipped_windows`` lists centre indices of windows dropped because
    they contained a nonpositive time or value.  The field order is the
    order of the report's ``slope_curve`` keys.
    """

    tau: np.ndarray
    exponent: np.ndarray
    skipped_windows: tuple[int, ...] = ()

    def __post_init__(self):
        self.tau.setflags(write=False)
        self.exponent.setflags(write=False)


@dataclass(frozen=True)
class ScalingFit:
    """A power-law fit; the field order is the order of its report keys."""

    tau_lo: float
    tau_hi: float
    exponent: float
    intercept: float
    r_squared: float
    n_samples: int


@dataclass(frozen=True, kw_only=True)
class RegimeReport:
    """Event times, scaling fits, and plateau/saturation findings of one run.
    The field order is the report document's key order."""

    kind: str
    input_site: int
    epsilon: float
    slope_window: int
    probe_length_a: float
    farthest_distance: float
    first_void_tau: float | None
    l_f_tau: float | None
    farthest_tau: float | None
    saturation_tau: float | None
    oscillation_detected: bool
    normal_fit: ScalingFit | None
    fractal_fit: ScalingFit | None
    plateaus: tuple[tuple[float, float], ...]
    slope_curve: SlopeCurve

    def event_taus(self) -> dict[str, float]:
        """Present events by name, for calibration and reporting."""
        taus = {name: getattr(self, f"{name}_tau") for name in EVENT_NAMES}
        return {name: float(tau) for name, tau in taus.items() if tau is not None}


# ---------------------------------------------------------------------------
# slope estimation and power-law fits


def check_slope_window(window: int, samples: int) -> None:
    """DomainError unless ``window`` is odd, at least 5 and at most ``samples``."""
    if window < 5 or window % 2 == 0:
        raise DomainError(f"window must be an odd integer >= 5, got {window}")
    if samples < window:
        raise DomainError(f"need at least {window} samples, got {samples}")


def loglog_slope(times, values, window: int = DEFAULT_SLOPE_WINDOW) -> SlopeCurve:
    """Local power-law exponents by sliding least squares in log-log space.

    Each window of ``window`` consecutive samples yields one
    (tau_center, exponent) pair; windows containing a nonpositive time or
    value are skipped and flagged.  Exact on pure power laws to 1e-9.
    """
    times = np.asarray(times, dtype=np.float64)
    values = np.asarray(values, dtype=np.float64)
    if times.shape != values.shape or times.ndim != 1:
        raise ShapeError(f"times {times.shape} and values {values.shape} must match, 1-d")
    check_slope_window(window, times.size)

    half = window // 2
    centers = []
    slopes = []
    skipped = []
    for start in range(times.size - window + 1):
        center = start + half
        t = times[start:start + window]
        v = values[start:start + window]
        if t.min() <= 0.0 or v.min() <= 0.0:
            skipped.append(center)
            continue
        lt = np.log(t)
        lv = np.log(v)
        lt_c = lt - lt.mean()
        slope = float(np.dot(lt_c, lv) / np.dot(lt_c, lt_c))
        centers.append(times[center])
        slopes.append(slope)
    return SlopeCurve(tau=np.asarray(centers), exponent=np.asarray(slopes),
                      skipped_windows=tuple(skipped))


def fit_powerlaw(times, values, tau_lo: float, tau_hi: float) -> ScalingFit | None:
    """Least-squares power-law fit of values against times over a tau window.

    The first ``FIT_SKIP_INITIAL`` grid points are excluded regardless of
    the window.  Returns None when fewer than 5 usable samples remain.
    """
    times = np.asarray(times, dtype=np.float64)
    values = np.asarray(values, dtype=np.float64)
    mask = (times >= tau_lo) & (times <= tau_hi) & (times > 0.0) & (values > 0.0)
    mask[:FIT_SKIP_INITIAL] = False
    if int(mask.sum()) < 5:
        return None
    lt = np.log(times[mask])
    lv = np.log(values[mask])
    slope, intercept = np.polyfit(lt, lv, 1)
    fitted = slope * lt + intercept
    ss_res = float(((lv - fitted) ** 2).sum())
    ss_tot = float(((lv - lv.mean()) ** 2).sum())
    r2 = 1.0 if ss_tot == 0.0 else max(0.0, 1.0 - ss_res / ss_tot)
    return ScalingFit(
        tau_lo=float(times[mask].min()),
        tau_hi=float(times[mask].max()),
        exponent=float(slope),
        intercept=float(intercept),
        r_squared=r2,
        n_samples=int(mask.sum()),
    )


# ---------------------------------------------------------------------------
# event detection


def check_epsilon(epsilon: float) -> None:
    """DomainError unless 0 < epsilon < 1 (nan fails)."""
    if not 0.0 < epsilon < 1.0:
        raise DomainError(f"epsilon must lie in (0, 1), got {epsilon}")


def detect_event(series: ProbabilitySeries, landmark_set, epsilon: float = DEFAULT_EPSILON):
    """Earliest grid tau with total probability >= epsilon on a site set.

    Returns None when the threshold is never reached on the grid.
    """
    check_epsilon(epsilon)
    ids = np.asarray(sorted(landmark_set), dtype=np.int64)
    if ids.size == 0:
        raise DomainError("landmark set is empty")
    check_site(ids[0], series.n_sites)
    check_site(ids[-1], series.n_sites)
    mass = series.probabilities[:, ids].sum(axis=1)
    hits = np.flatnonzero(mass >= epsilon)
    return float(series.times[hits[0]]) if hits.size else None


def detect_fractal_onset(slope_curve: SlopeCurve, d_f: float, band: float = DEFAULT_BAND,
                         after_tau: float = 0.0):
    """Earliest window centre after ``after_tau`` where the local exponent
    enters d_f +- band and stays there for ``ONSET_RUN`` consecutive windows.

    Returns the entry tau, or None without a sustained entry.
    """
    check_positive(band=band)
    tau = slope_curve.tau
    inside = np.abs(slope_curve.exponent - d_f) <= band
    eligible = tau > after_tau
    n = tau.size
    for i in range(n - ONSET_RUN + 1):
        if eligible[i] and inside[i:i + ONSET_RUN].all():
            return float(tau[i])
    return None


def detect_plateaus(polya_curve, delta: float = DEFAULT_DELTA,
                    min_span: int = DEFAULT_MIN_SPAN, times=None):
    """Greedy maximal flat stretches of a curve: max - min <= delta.

    Scans left to right, extending each stretch as far as possible; kept
    stretches span at least ``min_span`` samples.  Returns a list of
    (start, end) pairs in tau when ``times`` is given, else index pairs
    (inclusive).
    """
    check_positive(delta=delta)
    if min_span < 2:
        raise DomainError(f"min_span must be at least 2, got {min_span}")
    p = np.asarray(polya_curve, dtype=np.float64)
    spans = []
    i = 0
    n = p.size
    while i < n:
        lo = hi = p[i]
        j = i
        while j + 1 < n:
            lo2 = min(lo, p[j + 1])
            hi2 = max(hi, p[j + 1])
            if hi2 - lo2 > delta:
                break
            lo, hi = lo2, hi2
            j += 1
        if j - i + 1 >= min_span:
            spans.append((i, j))
            i = j + 1
        else:
            i += 1
    if times is None:
        return spans
    times = np.asarray(times, dtype=np.float64)
    return [(float(times[a]), float(times[b])) for a, b in spans]


def detect_saturation_and_oscillation(times, variance, farthest_tau):
    """Variance saturation after the farthest-site event, plus oscillation.

    At each candidate tau the variance is averaged over the
    ``SATURATION_WINDOW_TAU`` stretch before and after it; the relative
    growth between the two means, per unit tau, must stay below
    ``SATURATION_GROWTH`` from the saturation point onward.  Saturation is
    the earliest such tau at or after ``farthest_tau``.  Averaging (rather
    than pointwise rates) keeps the post-saturation oscillation itself from
    counting as growth.

    Oscillation requires at least two local maxima of the raw curve after
    saturation with prominence at least ``OSCILLATION_PROMINENCE`` of the
    mean saturated level.  Returns (saturation_tau or None, bool); a None
    ``farthest_tau`` short-circuits to (None, False).  The windows count
    grid steps, so the grid must be uniform: a step that differs from the
    mean step by more than ``GRID_STEP_RTOL`` of it raises StructuralError.
    """
    if farthest_tau is None:
        return None, False
    t = np.asarray(times, dtype=np.float64)
    v = np.asarray(variance, dtype=np.float64)
    if t.shape != v.shape or t.ndim != 1:
        raise ShapeError(f"times {t.shape} and variance {v.shape} must match, 1-d")
    n = t.size
    if n < 3:
        return None, False
    dt = (t[-1] - t[0]) / (n - 1)
    steps = np.diff(t)
    worst = int(np.abs(steps - dt).argmax())
    if abs(steps[worst] - dt) > GRID_STEP_RTOL * dt:
        raise StructuralError(
            f"saturation detection needs a uniform time grid; the step at tau "
            f"{t[worst]:.6g} is {steps[worst]:.6g}, the mean step {dt:.6g}"
        )
    w = max(1, int(round(SATURATION_WINDOW_TAU / dt)))
    if 2 * w >= n:
        return None, False

    csum = np.concatenate(([0.0], np.cumsum(v)))
    before = (csum[w:n - w + 1] - csum[:n - 2 * w + 1]) / w
    after = (csum[2 * w:] - csum[w:n - w + 1]) / w
    rates = (after - before) / (np.maximum(before, 1e-300) * (w * dt))
    centers = t[w:w + rates.size]
    # ok[i]: every window pair from i onward stays below the limit
    bad = rates >= SATURATION_GROWTH
    ok = ~np.flip(np.maximum.accumulate(np.flip(bad)))
    hits = np.flatnonzero(ok & (centers >= farthest_tau))
    if hits.size == 0:
        return None, False
    sat_tau = float(centers[hits[0]])

    tail = v[t >= sat_tau]
    level = float(tail.mean())
    if tail.size < 3 or level <= 0:
        return sat_tau, False
    peaks = _prominent_peaks(tail, OSCILLATION_PROMINENCE * level)
    return sat_tau, bool(peaks.size >= 2)


def _prominent_peaks(x: np.ndarray, min_prominence: float) -> np.ndarray:
    """Indices of local maxima of ``x`` with prominence >= ``min_prominence``.

    A maximum is a run of equal samples with a lower neighbour on each side
    (the endpoints never qualify); a flat top reports its middle sample,
    rounded down.  Prominence is the height above the higher of the two
    lowest points reached on each side before the curve climbs above the
    peak or ends.  These are the peaks scipy.signal reports for a prominence
    threshold; the tests hold the two to exact agreement.
    """
    edges = np.flatnonzero(np.diff(x)) + 1
    starts = np.concatenate(([0], edges))
    ends = np.concatenate((edges - 1, [x.size - 1]))
    level = x[starts]
    tops = np.flatnonzero((level[1:-1] > level[:-2]) & (level[1:-1] > level[2:])) + 1
    kept = []
    for peak in (starts[tops] + ends[tops]) // 2:
        higher = np.flatnonzero(x > x[peak])
        cut = np.searchsorted(higher, peak)
        lo = higher[cut - 1] + 1 if cut > 0 else 0
        hi = higher[cut] if cut < higher.size else x.size
        base = max(x[lo:peak + 1].min(), x[peak:hi].min())
        if x[peak] - base >= min_prominence:
            kept.append(peak)
    return np.asarray(kept, dtype=np.int64)


# ---------------------------------------------------------------------------
# end-to-end regime analysis


def build_regime_report(lattice: Lattice, series: ProbabilitySeries,
                        epsilon: float = DEFAULT_EPSILON,
                        slope_window: int = DEFAULT_SLOPE_WINDOW,
                        band: float = DEFAULT_BAND,
                        delta: float = DEFAULT_DELTA,
                        min_span: int = DEFAULT_MIN_SPAN) -> RegimeReport:
    """Run the full regime analysis for one fractal evolution.

    Computes observables, detects the first-void / fractal-onset /
    farthest-site / saturation events, fits the normal and fractal
    scaling windows, and collects Polya plateaus.  Requires a fractal
    lattice (landmarks are void-based).
    """
    marks = landmark_sites(lattice, series.input_site)
    table = build_observable_table(series, lattice)
    meta = fractal_meta(lattice.kind)
    slope_curve = loglog_slope(table.times, table.variance, window=slope_window)

    first_void_tau = detect_event(series, marks.first_void_boundary, epsilon)
    farthest_tau = detect_event(series, marks.farthest_set, epsilon)
    l_f_tau = None
    if first_void_tau is not None:
        l_f_tau = detect_fractal_onset(
            slope_curve, meta.fractal_dimension, band=band, after_tau=first_void_tau
        )

    normal_fit = None
    if first_void_tau is not None:
        crossed = np.flatnonzero(table.variance > NORMAL_FIT_FLOOR)
        if crossed.size:
            lo = float(table.times[crossed[0]])
            if lo < first_void_tau:
                normal_fit = fit_powerlaw(table.times, table.variance, lo, first_void_tau)

    fractal_fit = None
    if l_f_tau is not None:
        hi = farthest_tau if farthest_tau is not None else float(table.times[-1])
        fractal_fit = fit_powerlaw(table.times, table.variance, l_f_tau, hi)

    saturation_tau, oscillation = detect_saturation_and_oscillation(
        table.times, table.variance, farthest_tau
    )
    plateaus = detect_plateaus(table.polya, delta=delta, min_span=min_span,
                               times=table.times)

    return RegimeReport(
        kind=lattice.kind.value,
        input_site=series.input_site,
        first_void_tau=first_void_tau,
        l_f_tau=l_f_tau,
        farthest_tau=farthest_tau,
        saturation_tau=saturation_tau,
        normal_fit=normal_fit,
        fractal_fit=fractal_fit,
        plateaus=tuple(plateaus),
        oscillation_detected=oscillation,
        slope_curve=slope_curve,
        probe_length_a=marks.probe_length_a,
        farthest_distance=marks.farthest_distance,
        epsilon=epsilon,
        slope_window=slope_window,
    )
