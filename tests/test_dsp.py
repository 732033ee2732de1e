"""Smoothing, extrema, pass labeling, envelope and calibration tests."""

import numpy as np
import pytest

from paveharvest import dsp
from paveharvest.dsp import (
    DEFAULT_CONFIGS,
    ENVELOPE_FRACTIONS,
    FIRST20,
    LAST20,
    MAXIMA,
    MINIMA,
    UNLABELED,
    CalibrationSpec,
    DspConfig,
    Extremum,
    Series,
    SeriesTooShort,
    calibrate,
    detect_extrema,
    extract_envelope,
    savgol_weights,
    select_passes,
    smooth,
)


def series(y, dt=1.0, unit=""):
    y = np.asarray(y, dtype=float)
    return Series(t=np.arange(len(y)) * dt, y=y, unit=unit)


def savgol_oracle(y, window, order):
    """Independent per-window least-squares fit (center evaluation)."""
    h = window // 2
    out = np.full(len(y), np.nan)
    xs = np.arange(-h, h + 1, dtype=float)
    for c in range(h, len(y) - h):
        coeffs = np.polyfit(xs, y[c - h : c + h + 1], order)
        out[c] = np.polyval(coeffs, 0.0)
    return out


def edge_oracle(y, window, order):
    """Independent per-sample fit over the truncated one-sided window, for
    the samples within half a window of either end (NaN elsewhere)."""
    h = window // 2
    n = len(y)
    out = np.full(n, np.nan)
    for i in list(range(h)) + list(range(n - h, n)):
        lo, hi = max(0, i - h), min(n - 1, i + h)
        x = (np.arange(lo, hi + 1) - i) / h
        coeffs = np.polyfit(x, y[lo : hi + 1], min(order, hi - lo))
        out[i] = np.polyval(coeffs, 0.0)
    return out


# --- weights ------------------------------------------------------------


def test_weights_five_point_quadratic():
    # solved by hand from the 5-point quadratic normal equations
    want = np.array([-3.0, 12.0, 17.0, 12.0, -3.0]) / 35.0
    got = savgol_weights(5, 2)
    assert np.allclose(got, want, atol=1e-12)


@pytest.mark.parametrize("window,order", [(5, 2), (51, 2), (51, 3), (101, 2), (1001, 3)])
def test_weights_sum_to_one_and_symmetric(window, order):
    w = savgol_weights(window, order)
    assert w.sum() == pytest.approx(1.0, abs=1e-10)
    assert np.allclose(w, w[::-1], atol=1e-12)


def test_weights_validation():
    """The smoother's window and order are checked once, by ``DspConfig``,
    whose values ``smooth`` passes to ``savgol_weights``."""
    for window, order in ((4, 2), (1, 1), (5, 5), (5, 0)):
        with pytest.raises(ValueError):
            DspConfig(window=window, polyorder=order)


def test_weights_are_computed_once_and_read_only():
    w = savgol_weights(101, 2)
    assert savgol_weights(101, 2) is w
    assert not w.flags.writeable and w.base is None  # owns no whole projection
    with pytest.raises(ValueError):
        w[0] = 0.0
    x = np.arange(-50, 51) / 50
    design = np.vander(x, 3, increasing=True)
    assert w.tobytes() == (design @ np.linalg.pinv(design))[50].tobytes()


# --- smoothing ------------------------------------------------------------


def test_smooth_reproduces_constant():
    s = series(np.full(300, 3.25))
    out = smooth(s, DspConfig(window=51))
    assert np.array_equal(out.t, s.t)
    assert np.allclose(out.y, 3.25, atol=1e-12)


def test_smooth_reproduces_linear():
    s = series(np.arange(300, dtype=float) * 0.7 - 4.0)
    out = smooth(s, DspConfig(window=51, polyorder=2))
    assert np.allclose(out.y, s.y, atol=1e-10)


@pytest.mark.parametrize("order", [2, 3])
def test_smooth_reproduces_polynomial_of_matching_degree(order):
    t = np.arange(500, dtype=float)
    y = 2.0 + 0.03 * t - 4e-4 * t**2 + (1e-6 * t**3 if order == 3 else 0.0)
    out = smooth(Series(t=t, y=y), DspConfig(window=101, polyorder=order))
    assert np.allclose(out.y, y, rtol=0, atol=1e-9 * max(1.0, np.abs(y).max()))


def test_smooth_matches_per_window_lsq_oracle():
    rng = np.random.default_rng(42)
    y = rng.normal(size=1000)
    cfg = DspConfig(window=101, polyorder=2)
    got = smooth(series(y), cfg).y
    want = savgol_oracle(y, 101, 2)
    h = 50
    scale = np.maximum(np.abs(want[h:-h]), 1e-9)
    assert np.all(np.abs(got[h:-h] - want[h:-h]) / scale <= 1e-9)


@pytest.mark.parametrize(
    "window,order", [(51, 2), (51, 3), (101, 2), (101, 3), (1001, 2), (1001, 3)]
)
def test_smooth_edges_match_one_sided_lsq_oracle(window, order):
    rng = np.random.default_rng(window + order)
    h = window // 2
    for n in (window, window + 1, 5000):
        y = rng.normal(size=n)
        got = smooth(series(y), DspConfig(window=window, polyorder=order)).y
        want = edge_oracle(y, window, order)
        edges = np.r_[0:h, n - h : n]
        scale = np.maximum(np.abs(want[edges]), 1e-9)
        assert np.all(np.abs(got[edges] - want[edges]) / scale <= 1e-9), n


def test_smooth_is_linear():
    rng = np.random.default_rng(1)
    y1, y2 = rng.normal(size=400), rng.normal(size=400)
    cfg = DspConfig(window=51)
    a, b = 2.5, -1.25
    lhs = smooth(series(a * y1 + b * y2), cfg).y
    rhs = a * smooth(series(y1), cfg).y + b * smooth(series(y2), cfg).y
    assert np.allclose(lhs, rhs, atol=1e-12 * max(1, np.abs(rhs).max()))


def test_smooth_too_short_raises():
    with pytest.raises(SeriesTooShort):
        smooth(series(np.ones(50)), DspConfig(window=51))


def test_smooth_keeps_unit():
    out = smooth(series(np.ones(100), unit="microstrain"), DspConfig(window=5))
    assert out.unit == "microstrain"


def test_default_configs_per_sensor_kind():
    assert DEFAULT_CONFIGS["ASG"].window == 1001
    assert DEFAULT_CONFIGS["CSG"].window == 1001
    assert DEFAULT_CONFIGS["LASER"].window == 1001
    assert DEFAULT_CONFIGS["PC"].window == 101
    assert DEFAULT_CONFIGS["TC"].window == 51
    assert all(cfg.polyorder == 2 for cfg in DEFAULT_CONFIGS.values())


# --- extrema ------------------------------------------------------------


@pytest.fixture
def detection(monkeypatch):
    """Sets the detection constants: ``detection(separation_s, prominence)``."""

    def set_to(min_separation_s: float, prominence_fraction: float) -> None:
        monkeypatch.setattr(dsp, "MIN_SEPARATION_S", min_separation_s)
        monkeypatch.setattr(dsp, "PROMINENCE_FRACTION", prominence_fraction)

    return set_to


def test_monotone_ramp_has_no_extrema():
    s = series(np.linspace(0, 10, 500))
    assert detect_extrema(s) == []


def test_sine_peak_count_and_spacing(detection):
    t = np.arange(0.0, 200.0, 0.01)
    s = Series(t=t, y=np.sin(2 * np.pi * t / 10.0))
    detection(5.0, 0.1)
    maxima = [e for e in detect_extrema(s) if e.kind == MAXIMA]
    assert len(maxima) == 20
    gaps = np.diff([e.t for e in maxima])
    assert np.allclose(gaps, 10.0, atol=0.02)
    minima = [e for e in detect_extrema(s) if e.kind == MINIMA]
    assert len(minima) == 20


def test_peak_positions_from_formatted_archive_sample(detection):
    # reconstruct a response whose maxima sit near the published capture
    # times 9.7004, 19.5662, 30.9986, 42.6466 s
    centers = [9.7004, 19.5662, 30.9986, 42.6466]
    t = np.arange(0.0, 50.0, 0.01)
    y = sum(np.exp(-((t - c) ** 2) / 2.0) for c in centers)
    s = Series(t=t, y=np.asarray(y))
    detection(5.0, 0.2)
    maxima = [e for e in detect_extrema(s) if e.kind == MAXIMA]
    assert len(maxima) == 4
    seps = np.diff([e.t for e in maxima])
    assert np.all((seps >= 9.0) & (seps <= 12.0))
    for e, c in zip(maxima, centers):
        assert abs(e.t - c) < 0.1


def test_extrema_affine_invariance(detection):
    rng = np.random.default_rng(5)
    base = np.cumsum(rng.normal(size=2000))
    base = np.convolve(base, np.ones(25) / 25, mode="same")
    s1 = series(base, dt=0.1)
    s2 = series(3.0 * base - 7.0, dt=0.1)
    detection(2.0, 0.15)
    e1 = detect_extrema(s1)
    e2 = detect_extrema(s2)
    assert [(e.kind, e.t) for e in e1] == [(e.kind, e.t) for e in e2]


def test_greedy_separation_keeps_highest(detection):
    # two close peaks: 0.8 at t=1.0, 1.0 at t=1.5 -> only the higher survives
    t = np.arange(0.0, 10.0, 0.01)
    y = 0.8 * np.exp(-((t - 1.0) ** 2) / 0.005) + np.exp(-((t - 1.5) ** 2) / 0.005)
    s = Series(t=t, y=y)
    detection(1.0, 0.05)
    maxima = [e for e in detect_extrema(s) if e.kind == MAXIMA]
    assert len(maxima) == 1
    assert abs(maxima[0].t - 1.5) < 0.05


# --- pass selection ------------------------------------------------------------


def make_maxima(n, spacing=10.0):
    return [
        Extremum(kind=MAXIMA, t=5.0 + i * spacing, value=1.0)
        for i in range(n)
    ]


def test_select_passes_sixty_maxima():
    labeled = select_passes(make_maxima(60))
    labels = [e.label for e in labeled]
    assert labels[:20] == [FIRST20] * 20
    assert labels[-20:] == [LAST20] * 20
    assert labels[20:40] == [UNLABELED] * 20


def test_select_passes_empty():
    assert select_passes([]) == []


def test_select_passes_overlap_first20_priority():
    labeled = select_passes(make_maxima(30))
    labels = [e.label for e in labeled]
    assert labels[:20] == [FIRST20] * 20
    assert labels[20:] == [LAST20] * 10
    assert UNLABELED not in labels


@pytest.mark.parametrize("n", [0, 1, 19, 20, 21, 39, 40, 41, 60])
def test_select_passes_each_labeled_once(n):
    labeled = select_passes(make_maxima(n))
    first = sum(1 for e in labeled if e.label == FIRST20)
    last = sum(1 for e in labeled if e.label == LAST20)
    assert first == min(n, 20)
    assert last == max(0, min(n - 20, 20))


# --- envelope ------------------------------------------------------------


def test_envelope_forty_passes_gives_two_hundred_points():
    n_max = 1000
    t = np.arange(0.0, n_max * 10.0, 0.5)
    y = np.zeros_like(t)
    s = Series(t=t, y=y)
    labeled = select_passes(make_maxima(n_max))
    points = extract_envelope(s, labeled)
    assert len(points) == 200
    per_pass = {}
    for p in points:
        per_pass.setdefault(p.pass_index, []).append(p)
    assert all(len(v) == 5 for v in per_pass.values())
    assert sorted(per_pass) == list(range(1, 21)) + list(range(981, 1001))


def test_envelope_values_match_closed_form_decay():
    # linear recovery between two peaks: interpolation is exact for lines
    t = np.arange(0.0, 12.0, 0.25)
    t1, t2 = 2.0, 7.0
    y = np.where(t < t1, 0.0, np.where(t <= t2, 1.0 - (t - t1) / (t2 - t1), 0.0))
    s = Series(t=t, y=y)
    maxima = [
        Extremum(kind=MAXIMA, t=t1, value=1.0, label=FIRST20),
        Extremum(kind=MAXIMA, t=t2, value=1.0, label=UNLABELED),
    ]
    points = extract_envelope(s, maxima)
    assert len(points) == len(ENVELOPE_FRACTIONS)
    for p, f in zip(points, ENVELOPE_FRACTIONS):
        assert p.t == t1 + f * (t2 - t1)
        assert t1 < p.t < t2
        want = 1.0 - (p.t - t1) / (t2 - t1)
        assert p.value == pytest.approx(want, abs=1e-12)


def test_envelope_exponential_recovery_tracks_curve():
    t = np.arange(0.0, 30.0, 0.01)
    t1, t2 = 5.0, 15.0
    y = np.exp(-np.clip(t - t1, 0.0, None))
    s = Series(t=t, y=y)
    maxima = [
        Extremum(kind=MAXIMA, t=t1, value=1.0, label=FIRST20),
        Extremum(kind=MAXIMA, t=t2, value=float(np.exp(-10)), label=UNLABELED),
    ]
    for p in extract_envelope(s, maxima):
        assert p.value == pytest.approx(np.exp(-(p.t - t1)), rel=1e-6)


def test_envelope_fraction_invariants():
    t = np.arange(0.0, 100.0, 0.5)
    s = Series(t=t, y=np.sin(t))
    maxima = select_passes(make_maxima(8))
    points = extract_envelope(s, maxima)
    ends = [e.t for e in maxima[1:]] + [float(t[-1])]
    assert [(p.pass_index, p.t) for p in points] == [
        (ordinal, peak.t + f * (end - peak.t))
        for ordinal, (peak, end) in enumerate(zip(maxima, ends), start=1)
        for f in ENVELOPE_FRACTIONS
    ]
    assert all(0 < f < 1 for f in ENVELOPE_FRACTIONS)


def test_envelope_degenerate_interval_reported(caplog):
    # labeled maximum exactly at the series end -> zero-length interval
    t = np.arange(0.0, 10.5, 0.5)
    s = Series(t=t, y=np.zeros_like(t))
    maxima = [Extremum(kind=MAXIMA, t=t[-1], value=0.0, label=FIRST20)]
    with caplog.at_level("WARNING"):
        points = extract_envelope(s, maxima)
    assert points == []
    assert any("truncated" in r.message for r in caplog.records)


# --- calibration ------------------------------------------------------------


def test_calibrate_identity_gain():
    spec = CalibrationSpec(cal_coeff=1.0, rated_output=5890.0)
    value, flag = calibrate(123.0, spec)
    assert value == 123.0 and not flag


def test_calibrate_linear_scaling():
    value, flag = calibrate(2.0, CalibrationSpec(cal_coeff=0.5, rated_output=5890.0))
    assert value == 1.0 and not flag


def test_calibrate_range_flag():
    value, flag = calibrate(10_000.0, CalibrationSpec(cal_coeff=1.0, rated_output=5890.0))
    assert value == 10_000.0 and flag


def test_calibration_spec_validation():
    with pytest.raises(ValueError):
        CalibrationSpec(cal_coeff=1.0, rated_output=0.0)
