"""Slope estimation, event detection, plateaus, saturation, calibration."""

import math

import numpy as np
import pytest

from fractalwalk.analysis import (
    OSCILLATION_PROMINENCE,
    RegimeReport,
    SlopeCurve,
    build_regime_report,
    detect_event,
    detect_fractal_onset,
    detect_plateaus,
    detect_saturation_and_oscillation,
    fit_powerlaw,
    loglog_slope,
    _prominent_peaks,
)
from fractalwalk.calibration import calibrate_events
from fractalwalk.errors import BoundsError, DomainError, ShapeError, StructuralError
from fractalwalk.evolution import (
    ProbabilitySeries,
    SeriesKind,
    evolve_quantum,
    spectral_decompose,
    time_grid,
)
from fractalwalk.hamiltonian import build_hamiltonian
from fractalwalk.lattice import canonical_input, generate, landmark_sites


def series_of(times, probabilities, input_site=0):
    return ProbabilitySeries(
        kind=SeriesKind.QUANTUM,
        input_site=input_site,
        times=np.asarray(times, dtype=np.float64),
        probabilities=np.asarray(probabilities, dtype=np.float64),
    )


# --- local log-log slopes -------------------------------------------------

def test_loglog_slope_exact_on_power_law():
    t = np.geomspace(0.1, 10.0, 51)
    curve = loglog_slope(t, 2.7 * t**1.8, window=11)
    assert curve.skipped_windows == ()
    assert curve.tau.size == 41
    assert np.abs(curve.exponent - 1.8).max() < 1e-9
    assert np.array_equal(curve.tau, t[5:-5])


def test_loglog_slope_prefactor_invariant():
    t = np.geomspace(0.2, 5.0, 31)
    v = t**2.5
    c = float(np.random.default_rng(11).uniform(0.1, 10.0))
    base = loglog_slope(t, v)
    scaled = loglog_slope(t, c * v)
    assert np.abs(base.exponent - scaled.exponent).max() < 1e-12


def test_loglog_slope_skips_windows_touching_zero():
    t = np.linspace(0.0, 5.0, 21)
    curve = loglog_slope(t, t**2, window=11)
    # only the first window contains t = 0; its centre index is flagged
    assert curve.skipped_windows == (5,)
    assert curve.tau.size == 10
    assert np.abs(curve.exponent - 2.0).max() < 1e-9


@pytest.mark.parametrize("window", [3, 4, 10])
def test_loglog_slope_window_validation(window):
    t = np.geomspace(1.0, 10.0, 20)
    with pytest.raises(DomainError):
        loglog_slope(t, t, window=window)


def test_loglog_slope_needs_enough_samples():
    t = np.geomspace(1.0, 10.0, 7)
    with pytest.raises(DomainError):
        loglog_slope(t, t, window=11)


def test_loglog_slope_shape_mismatch():
    with pytest.raises(ShapeError):
        loglog_slope(np.ones(10), np.ones(9))


# --- power-law fits -------------------------------------------------------

def test_fit_powerlaw_recovers_exponent():
    t = np.linspace(0.0, 10.0, 101)
    v = 0.5 * t**2.3
    fit = fit_powerlaw(t, v, 0.5, 8.0)
    assert fit.exponent == pytest.approx(2.3, abs=1e-12)
    assert fit.intercept == pytest.approx(np.log(0.5), abs=1e-12)
    assert fit.r_squared == pytest.approx(1.0, abs=1e-12)
    assert fit.n_samples == 76
    assert fit.tau_lo == 0.5 and fit.tau_hi == 8.0


def test_fit_powerlaw_skips_leading_grid_points():
    t = np.linspace(0.0, 10.0, 101)
    v = np.full_like(t, 3.0)
    fit = fit_powerlaw(t, v, 0.0, 10.0)
    # first two grid points excluded even though the window admits them
    assert fit.tau_lo == pytest.approx(t[2])
    assert fit.exponent == pytest.approx(0.0, abs=1e-12)


def test_fit_powerlaw_none_when_underpopulated():
    t = np.linspace(0.0, 10.0, 101)
    assert fit_powerlaw(t, t**2, 0.5, 0.8) is None


def test_fit_powerlaw_r_squared_drops_with_noise():
    t = np.linspace(0.1, 10.0, 100)
    rng = np.random.default_rng(7)
    v = t**2.3 * np.exp(rng.normal(0.0, 0.05, t.size))
    fit = fit_powerlaw(t, v, 0.2, 9.0)
    assert 0.9 < fit.r_squared < 1.0
    assert fit.exponent == pytest.approx(2.3, abs=0.1)


# --- event detection ------------------------------------------------------

def test_detect_event_first_crossing():
    series = series_of([0.0, 1.0, 2.0], [[1.0, 0.0], [0.9, 0.1], [0.5, 0.5]])
    assert detect_event(series, {1}, epsilon=0.05) == 1.0
    assert detect_event(series, {1}, epsilon=0.3) == 2.0
    assert detect_event(series, {1}, epsilon=0.6) is None


def test_detect_event_epsilon_monotone(dsc1_run):
    marks = landmark_sites(dsc1_run.lattice, dsc1_run.input_site)
    taus = []
    for eps in (1e-4, 1e-3, 1e-2, 0.05):
        tau = detect_event(dsc1_run.series, marks.farthest_set, epsilon=eps)
        assert tau is not None
        taus.append(tau)
    assert taus == sorted(taus)


@pytest.mark.parametrize("eps", [0.0, 1.0, -0.1, 1.5])
def test_detect_event_epsilon_validation(eps, pair):
    series = series_of([1.0], [[0.5, 0.5]])
    with pytest.raises(DomainError):
        detect_event(series, {1}, epsilon=eps)


def test_detect_event_set_validation():
    series = series_of([1.0], [[0.5, 0.5]])
    with pytest.raises(DomainError):
        detect_event(series, set())
    with pytest.raises(BoundsError):
        detect_event(series, {5})
    with pytest.raises(BoundsError):
        detect_event(series, {-1, 0})


# --- fractal onset --------------------------------------------------------

def test_onset_requires_sustained_entry():
    tau = np.arange(10.0)
    exponent = np.array([3.0, 3.0, 2.0, 2.0, 2.0, 2.0, 2.0, 3.0, 3.0, 3.0])
    curve = SlopeCurve(tau=tau, exponent=exponent)
    assert detect_fractal_onset(curve, 2.0) == 2.0
    # after the entry point only 4 in-band windows remain
    assert detect_fractal_onset(curve, 2.0, after_tau=2.5) is None


def test_onset_none_when_band_never_held():
    tau = np.arange(8.0)
    exponent = np.array([3.0, 2.0, 2.0, 3.0, 2.0, 2.0, 3.0, 2.0])
    assert detect_fractal_onset(SlopeCurve(tau=tau, exponent=exponent), 2.0) is None


def test_onset_band_validation():
    curve = SlopeCurve(tau=np.arange(6.0), exponent=np.ones(6))
    with pytest.raises(DomainError):
        detect_fractal_onset(curve, 2.0, band=0.0)


# --- plateaus -------------------------------------------------------------

def test_plateaus_constant_curve_is_one_span():
    assert detect_plateaus(np.full(20, 0.4)) == [(0, 19)]


def test_plateaus_absent_on_steep_curve():
    assert detect_plateaus(np.linspace(0.0, 1.0, 50)) == []


def test_plateaus_split_at_step():
    curve = np.concatenate([np.full(10, 0.3), np.full(10, 0.6)])
    assert detect_plateaus(curve) == [(0, 9), (10, 19)]


def test_plateaus_short_stretches_dropped():
    curve = np.concatenate([np.linspace(0.0, 0.5, 30), np.full(4, 0.6)])
    assert detect_plateaus(curve, min_span=5) == []


def test_plateaus_map_to_times():
    times = np.linspace(0.0, 1.9, 20)
    spans = detect_plateaus(np.full(20, 0.4), times=times)
    assert spans == [(0.0, 1.9)]


def test_plateaus_validation():
    with pytest.raises(DomainError):
        detect_plateaus(np.ones(10), delta=0.0)
    with pytest.raises(DomainError):
        detect_plateaus(np.ones(10), min_span=1)


# --- saturation and oscillation -------------------------------------------

@pytest.fixture(scope="module")
def long_grid():
    return np.linspace(0.0, 50.0, 1001)


def test_saturation_with_ripple(long_grid):
    t = long_grid
    v = 100.0 * (1.0 - np.exp(-t / 3.0)) + np.sin(2.0 * np.pi * t / 6.0)
    sat, osc = detect_saturation_and_oscillation(t, v, 5.0)
    assert sat == pytest.approx(12.6, abs=1e-6)
    assert osc is True


def test_saturation_smooth_curve_has_no_oscillation(long_grid):
    t = long_grid
    v = 100.0 * (1.0 - np.exp(-t / 3.0))
    sat, osc = detect_saturation_and_oscillation(t, v, 5.0)
    assert sat == pytest.approx(12.5, abs=1e-6)
    assert osc is False


def test_saturation_absent_under_sustained_growth(long_grid):
    assert detect_saturation_and_oscillation(long_grid, long_grid**2, 1.0) == (None, False)


def test_saturation_short_circuits_without_farthest_event(long_grid):
    v = np.ones_like(long_grid)
    assert detect_saturation_and_oscillation(long_grid, v, None) == (None, False)


def test_saturation_none_when_event_beyond_grid(long_grid):
    v = 100.0 * (1.0 - np.exp(-long_grid / 3.0))
    assert detect_saturation_and_oscillation(long_grid, v, 60.0) == (None, False)


def test_saturation_none_on_short_grid():
    t = np.linspace(0.0, 10.0, 21)
    # averaging windows would cover the whole grid
    assert detect_saturation_and_oscillation(t, t, 1.0) == (None, False)


def test_saturation_rejects_a_non_uniform_grid(long_grid):
    # the averaging windows count grid steps; a stretched tail used to be
    # read as if it were sampled at the mean step
    t = np.where(long_grid > 25.0, 2.0 * long_grid - 25.0, long_grid)
    v = 100.0 * (1.0 - np.exp(-t / 3.0))
    with pytest.raises(StructuralError, match="uniform"):
        detect_saturation_and_oscillation(t, v, 5.0)


def test_saturation_accepts_a_grid_read_back_from_text():
    # 12-digit text moves each step by up to ~1e-11 * tau_max: 2e-9 of the
    # step on this grid, still uniform for the detector
    t = np.array([float(format(x, ".12g")) for x in time_grid(40.0, 1201)])
    v = 100.0 * (1.0 - np.exp(-t / 3.0))
    assert detect_saturation_and_oscillation(t, v, 5.0)[0] is not None


def test_saturation_shape_mismatch():
    with pytest.raises(ShapeError):
        detect_saturation_and_oscillation(np.ones(10), np.ones(9), 1.0)


def test_prominent_peaks_match_scipy():
    signal = pytest.importorskip("scipy.signal")
    rng = np.random.default_rng(11)
    for i in range(2000):
        n = int(rng.integers(3, 60))
        if i % 2:
            # few distinct levels: plateaus everywhere, flat tops included
            x = rng.integers(0, 5, size=n).astype(np.float64)
        else:
            x = np.cumsum(rng.normal(size=n))
        threshold = float(rng.uniform(0.0, 3.0))
        expected, _ = signal.find_peaks(x, prominence=threshold)
        assert np.array_equal(_prominent_peaks(x, threshold), expected), (x, threshold)


def test_prominent_peaks_flat_top_reports_middle():
    x = np.array([0.0, 1.0, 2.0, 2.0, 2.0, 2.0, 1.0, 3.0, 3.0])
    # the rising end plateau is no peak; the four-sample top reports index 3
    assert _prominent_peaks(x, 0.0).tolist() == [3]
    assert _prominent_peaks(x, 1.0).tolist() == [3]
    assert _prominent_peaks(x, 2.5).tolist() == []


@pytest.mark.parametrize("fixture, count", [("sg4_run", 2), ("dsc2_run", 3)])
def test_prominent_peaks_on_variance_tail(fixture, count, request):
    # counts recorded from scipy.signal.find_peaks on the same tails
    run = request.getfixturevalue(fixture)
    tail = run.table.variance[run.table.times >= run.report.saturation_tau]
    peaks = _prominent_peaks(tail, OSCILLATION_PROMINENCE * tail.mean())
    assert peaks.size == count
    assert run.report.oscillation_detected


# --- calibration ----------------------------------------------------------

def make_report(**events):
    return RegimeReport(
        kind="dsc",
        input_site=0,
        first_void_tau=events.get("first_void"),
        l_f_tau=events.get("l_f"),
        farthest_tau=events.get("farthest"),
        saturation_tau=events.get("saturation"),
        normal_fit=None,
        fractal_fit=None,
        plateaus=(),
        oscillation_detected=False,
        slope_curve=SlopeCurve(tau=np.arange(5.0), exponent=np.ones(5)),
        probe_length_a=1.0,
        farthest_distance=4.0,
    )


def test_calibration_scale_and_events():
    report = make_report(first_void=0.5, farthest=2.0, saturation=4.0)
    result = calibrate_events(report.event_taus(), "farthest", 9.0)
    assert result.scale_mm_per_tau == pytest.approx(4.5)
    assert result.events_mm == pytest.approx(
        {"first_void": 2.25, "farthest": 9.0, "saturation": 18.0}
    )
    assert result.scale_mm_per_tau * 3.0 == pytest.approx(13.5)


def test_calibration_none_when_anchor_missing():
    report = make_report(first_void=0.5)
    assert calibrate_events(report.event_taus(), "farthest", 9.0) is None


@pytest.mark.parametrize("events,anchor_mm", [
    ({"farthest": 0.0}, 9.0),
    ({"farthest": 1e-320}, 9.0),
    ({"farthest": 2.0, "saturation": 4.0}, 1.7e308),
])
def test_calibration_without_a_finite_scale_is_a_domain_error(events, anchor_mm):
    with pytest.raises(DomainError, match="anchor farthest"):
        calibrate_events(events, "farthest", anchor_mm)


def test_calibration_config_validation():
    # a bad anchor is refused before the events are read, present or not
    for events in ({}, {"saturation": 4.0, "farthest": 2.0}):
        with pytest.raises(DomainError, match="anchor_event must be 'first_void' or "):
            calibrate_events(events, "saturation", 9.0)
        for anchor_mm in (0.0, -1.0, math.inf, math.nan):
            with pytest.raises(DomainError, match="anchor_mm must be "):
                calibrate_events(events, "farthest", anchor_mm)


def test_calibration_on_real_report(dsc1_run):
    report = dsc1_run.report
    events = report.event_taus()
    assert "farthest" in events
    result = calibrate_events(events, "farthest", 10.0)
    assert set(result.events_mm) == set(events)
    assert result.events_mm["farthest"] == pytest.approx(10.0)


# --- end-to-end report ----------------------------------------------------

def test_regime_report_event_ordering(dsc1_run):
    report = dsc1_run.report
    assert report.kind == "dsc"
    assert report.probe_length_a == pytest.approx(np.sqrt(2.0))
    events = report.event_taus()
    order = [events[k] for k in ("first_void", "l_f", "farthest", "saturation")
             if k in events]
    assert order == sorted(order)
    assert all(v > 0 for v in order)


def test_regime_report_rejects_nonfractal():
    lat = generate("triangle", 4)
    spec = spectral_decompose(build_hamiltonian(lat))
    series = evolve_quantum(spec, canonical_input(lat), time_grid(2.0, 21))
    with pytest.raises(StructuralError):
        build_regime_report(lat, series)
