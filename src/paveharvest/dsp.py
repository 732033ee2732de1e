"""Signal processing for static pavement logs.

Least-squares (Savitzky-Golay style) smoothing with per-sensor window
defaults, prominence-based extrema detection, load-pass labeling,
elastic-recovery envelope extraction and gauge calibration.

The smoother operates by sample index: interior points are a convolution
with the center-row least-squares weights, boundary points fall back to a
polynomial fit over the truncated one-sided window so profile ends keep
their real geometry. All operations are pure. The detection, labeling
and envelope settings are module constants, one value each.
"""

from __future__ import annotations

import bisect
import functools
import logging
from dataclasses import dataclass, replace

import numpy as np

logger = logging.getLogger(__name__)

MAXIMA = "maxima"
MINIMA = "minima"

FIRST20 = "first20"
LAST20 = "last20"
UNLABELED = "unlabeled"

#: extrema closer than this keep only the higher (seconds)
MIN_SEPARATION_S = 1.0
#: least prominence of an extremum, as a share of the series' range
PROMINENCE_FRACTION = 0.1
#: how many first and how many last passes of an ASG log are labeled
PASSES = 20
#: sampling fractions of the inter-peak interval for recovery envelopes
ENVELOPE_FRACTIONS = (0.30, 0.45, 0.60, 0.75, 0.90)

#: direct convolution is exact-ish; switch to overlap-add above this cost
_DIRECT_CONV_LIMIT = 5 * 10**7


class DspError(Exception):
    pass


class SeriesTooShort(DspError):
    """Series has fewer samples than the smoothing window."""


@dataclass
class Series:
    """A sampled signal: seconds elapsed and values, same length.

    ``t`` must be strictly increasing and both arrays finite.
    """

    t: np.ndarray
    y: np.ndarray
    unit: str = ""

    def __post_init__(self) -> None:
        self.t = np.asarray(self.t, dtype=float)
        self.y = np.asarray(self.y, dtype=float)
        if self.t.ndim != 1 or self.t.shape != self.y.shape:
            raise ValueError("t and y must be 1-D arrays of equal length")
        if len(self.t) and not np.all(np.diff(self.t) > 0):
            raise ValueError("t must be strictly increasing")
        if not (np.all(np.isfinite(self.t)) and np.all(np.isfinite(self.y))):
            raise ValueError("series values must be finite")

    def __len__(self) -> int:
        return len(self.t)


@dataclass(frozen=True)
class DspConfig:
    """Smoothing parameters for one sensor kind."""

    window: int = 1001
    polyorder: int = 2

    def __post_init__(self) -> None:
        if self.window < 3 or self.window % 2 == 0:
            raise ValueError("window must be an odd integer >= 3")
        if not (1 <= self.polyorder < self.window):
            raise ValueError("polyorder must satisfy 1 <= polyorder < window")


# The sources quote even windows of 1000/100/50 per sensor family; a centered
# filter needs odd lengths, so the defaults round up to the nearest odd.
DEFAULT_CONFIGS: dict[str, DspConfig] = {
    "ASG": DspConfig(window=1001),
    "CSG": DspConfig(window=1001),
    "PC": DspConfig(window=101),
    "TC": DspConfig(window=51),
    "LASER": DspConfig(window=1001),
    "LASER_PRETRAFFIC": DspConfig(window=1001),
    "STATIONARY_ET": DspConfig(window=1001),
    "STATIONARY_MT": DspConfig(window=1001),
    "FWD": DspConfig(window=1001),
}


@dataclass
class Extremum:
    kind: str  # maxima | minima
    t: float
    value: float
    label: str = UNLABELED  # first20 | last20 | unlabeled


@dataclass
class EnvelopePoint:
    pass_index: int  # 1-based ordinal of the owning maximum, in time order
    t: float
    value: float


@dataclass(frozen=True)
class CalibrationSpec:
    """Per-gauge gain and full-scale magnitude, both in 1e-6 units."""

    cal_coeff: float
    rated_output: float

    def __post_init__(self) -> None:
        if self.rated_output <= 0:
            raise ValueError("rated output must be positive")


@functools.lru_cache(maxsize=8)
def savgol_weights(window: int, polyorder: int) -> np.ndarray:
    """Center-row weights of the least-squares polynomial smoother.

    Fitting a degree-``polyorder`` polynomial over ``window`` consecutive
    samples and reading it at the center is a linear map; these are its
    weights. They sum to 1 and are symmetric. Read-only, as every caller
    shares them. ``window`` and ``polyorder`` are a :class:`DspConfig`'s,
    which checks them.
    """
    half = window // 2
    x = np.arange(-half, half + 1, dtype=float) / half
    design = np.vander(x, polyorder + 1, increasing=True)
    # a copy: a row view would keep the whole window x window product alive
    weights = (design @ np.linalg.pinv(design))[half].copy()
    weights.flags.writeable = False
    return weights


def smooth(series: Series, config: DspConfig) -> Series:
    """Smooth a series; unit and time axis are unchanged.

    Interior points convolve with :func:`savgol_weights`; within half a
    window of either end the value is a polynomial fit to the truncated
    one-sided window evaluated at the point.
    """
    n = len(series)
    w = config.window
    if n < w:
        raise SeriesTooShort(f"series of {n} samples needs >= {w}")
    half = w // 2
    weights = savgol_weights(w, config.polyorder)
    if n * w <= _DIRECT_CONV_LIMIT:
        interior = np.convolve(series.y, weights, mode="valid")
    else:
        from scipy import signal  # imported here: scipy is slow to import

        interior = signal.oaconvolve(series.y, weights, mode="valid")
    out = np.empty(n, dtype=float)
    out[half : n - half] = interior
    edge = _edge_weights(w, config.polyorder)
    out[:half] = edge @ series.y[:w]
    out[n - half :] = (edge @ series.y[n - w :][::-1])[::-1]
    return Series(t=series.t, y=out, unit=series.unit)


@functools.lru_cache(maxsize=8)  # 4 MB each at window 1001
def _edge_weights(window: int, polyorder: int) -> np.ndarray:
    """Weights giving the first ``window // 2`` smoothed values from the
    first ``window`` samples; read-only, as every caller shares it.

    Row ``i`` fits a polynomial to samples ``0 .. i + half`` (the window
    centred on ``i``, cut at the series start) and reads it at ``i``. A
    fit's value is linear in the data, so each row is the constant-term
    row of the fit's pseudo-inverse. The right edge is the same map on
    the reversed tail.
    """
    half = window // 2
    weights = np.zeros((half, window))
    for i in range(half):
        x = (np.arange(i + half + 1) - i) / half
        order = min(polyorder, i + half)
        design = np.vander(x, order + 1, increasing=True)
        weights[i, : i + half + 1] = np.linalg.pinv(design)[0]
    weights.flags.writeable = False
    return weights


def detect_extrema(series: Series) -> list[Extremum]:
    """Prominent, well-separated maxima and minima, sorted by time.

    An extremum's prominence must be at least :data:`PROMINENCE_FRACTION`
    of the series' peak-to-peak range, so detection is invariant under
    positive affine transforms of y. Of two candidates closer than
    :data:`MIN_SEPARATION_S` the higher one wins.
    """
    n = len(series)
    if n < 3:
        return []
    span = float(series.y.max() - series.y.min())
    if span == 0.0:
        return []
    from scipy import signal  # imported here: scipy is slow to import

    threshold = PROMINENCE_FRACTION * span
    out: list[Extremum] = []
    for kind, sig in ((MAXIMA, series.y), (MINIMA, -series.y)):
        candidates, _ = signal.find_peaks(sig)
        if len(candidates) == 0:
            continue
        prominences = signal.peak_prominences(sig, candidates)[0]
        eligible = candidates[prominences >= threshold]
        out.extend(
            Extremum(kind=kind, t=float(series.t[i]), value=float(series.y[i]))
            for i in _greedy_separate(eligible, sig, series.t)
        )
    out.sort(key=lambda e: (e.t, e.kind))
    return out


def _greedy_separate(idx: np.ndarray, sig: np.ndarray, t: np.ndarray) -> list[int]:
    """Keep-highest greedy thinning under :data:`MIN_SEPARATION_S`."""
    min_sep = MIN_SEPARATION_S
    order = sorted(idx, key=lambda i: (-sig[i], t[i]))
    accepted_times: list[float] = []
    accepted: list[int] = []
    for i in order:
        ti = t[i]
        pos = bisect.bisect_left(accepted_times, ti)
        left_ok = pos == 0 or ti - accepted_times[pos - 1] >= min_sep
        right_ok = pos == len(accepted_times) or accepted_times[pos] - ti >= min_sep
        if left_ok and right_ok:
            accepted_times.insert(pos, ti)
            accepted.append(int(i))
    return sorted(accepted)


def select_passes(maxima: list[Extremum]) -> list[Extremum]:
    """Copies of ``maxima`` (in time order), the first and the last
    :data:`PASSES` labeled as capture passes.

    Each maximum is labeled at most once; on overlap (fewer than
    ``2 * PASSES`` maxima) the first-pass label wins.
    """
    out = [replace(e, label=UNLABELED) for e in maxima]
    for e in out[-PASSES:]:
        e.label = LAST20
    for e in out[:PASSES]:
        e.label = FIRST20
    return out


def extract_envelope(series: Series, maxima: list[Extremum]) -> list[EnvelopePoint]:
    """Sample the recovery curve after each labeled one of ``maxima``
    (in time order).

    For every labeled maximum, one point is read off the (smoothed) series
    at each of the :data:`ENVELOPE_FRACTIONS` of the interval to the next
    maximum; the final maximum uses the interval to the series end. A
    degenerate zero-length interval yields no points and is reported.
    """
    out: list[EnvelopePoint] = []
    t_end = float(series.t[-1]) if len(series) else 0.0
    truncated = 0
    for ordinal, peak in enumerate(maxima, start=1):
        if peak.label == UNLABELED:
            continue
        next_t = maxima[ordinal].t if ordinal < len(maxima) else t_end
        interval = next_t - peak.t
        if interval <= 0:
            truncated += 1
            continue
        for f in ENVELOPE_FRACTIONS:
            ts = peak.t + f * interval
            out.append(
                EnvelopePoint(
                    pass_index=ordinal,
                    t=float(ts),
                    value=float(np.interp(ts, series.t, series.y)),
                )
            )
    if truncated:
        logger.warning(
            "%d labeled pass(es) truncated at series end; fewer envelope points",
            truncated,
        )
    return out


def calibrate(raw: float, spec: CalibrationSpec) -> tuple[float, bool]:
    """Engineering value and an out-of-range flag.

    The value is ``raw * cal_coeff``; the flag trips when its magnitude
    exceeds the gauge's rated output.
    """
    value = raw * spec.cal_coeff
    return value, abs(value) > spec.rated_output
