"""Scoring mathematics: three raw relative errors S of a prediction against
its truth (`score_short_time`, `score_long_time_spectral`,
`score_long_time_histogram`), each mapped to a score E by `to_score`.
`scorer` takes any S from row blocks, so neither side need be held whole.

Three choices fix the last bits of every S and are part of the metrics'
definition. Each Frobenius norm sums its squares in blocks of
`SUM_BLOCK_ROWS` = 64 rows, each block by `np.add.reduce` and the block
totals in row order. The power spectrum is re^2 + im^2 of the
`np.fft.rfft` band at wavenumbers 0..kmax, mirrored to -kmax..-1. Its log
is `elementary.log`'s series, not libm's. None of these calls BLAS, libm
or a CPU-specific kernel, so a score is the same on any x86-64 CPU, BLAS
and thread count under one numpy major version.

Zero-power convention: the spectral error takes ln(|FFT|^2), which is
undefined on exactly-zero rows. Any power below 1e-300 is assigned
log-power 0 instead. An all-zero prediction therefore has a zero spectrum
matrix and scores S = 1 (E = 0) exactly, anchoring the zeros baseline.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import elementary
from .exceptions import MetricError
from .matio import SUM_BLOCK_ROWS, MatrixReader, _check_fields, _kept, _once, tail

logger = logging.getLogger(__name__)

SCORE_IDS = tuple(f"E{i}" for i in range(1, 13))

#: Powers below this are treated as exact zeros and given log-power 0.
ZERO_POWER_FLOOR = 1e-300


class MetricKind(str, Enum):
    SHORT_TIME = "short_time"
    LONG_TIME_SPECTRAL = "long_time_spectral"
    LONG_TIME_HISTOGRAM = "long_time_histogram"


#: The least value of each window. `MetricWindows` and every metric function
#: judge a window by this one table.
_LEAST = {"short_k": 1, "long_k": 1, "kmax": 1, "bins": 2}


def _window(name: str, value, rows: int | None = None) -> None:
    """Raise a MetricError naming window `name` unless `value` is an integer
    from `_LEAST[name]` up to `rows`, when given."""
    least = _LEAST[name]
    if not isinstance(value, (int, np.integer)):
        raise MetricError(f"{name} must be an integer, got {value!r}")
    if rows is not None and not least <= value <= rows:
        raise MetricError(f"{name}={value} outside [{least}, {rows}]")
    if value < least:
        raise MetricError(f"{name} must be >= {least}")


@dataclass(frozen=True)
class MetricWindows:
    """Window parameters for the scoring metrics.

    short_k: leading rows compared by the short-time error (forecast tasks;
    reconstruction tasks always use their full window). long_k: trailing
    rows entering the long-time metrics. kmax: wavenumber half-width of the
    spectral comparison band. bins: histogram bin count.
    """

    short_k: int = 100
    long_k: int = 500
    kmax: int = 100
    bins: int = 41

    def __post_init__(self):
        for name in _LEAST:
            try:
                _window(name, getattr(self, name))
            except MetricError as exc:
                raise ValueError(str(exc)) from None
        _check_fields(self)


def _matrix(x: np.ndarray) -> np.ndarray:
    """`x` as a 2-D float64 array, or an open `MatrixReader` as it is; any
    other shape is a MetricError."""
    if isinstance(x, MatrixReader):
        return x
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2:
        raise MetricError(f"expected 2-D matrices, got shape {x.shape}")
    return x


def _pair(pred: np.ndarray, truth: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """`pred` and `truth` as float64 arrays of one 2-D shape, else a MetricError."""
    pred = np.asarray(pred, dtype=np.float64)
    truth = np.asarray(truth, dtype=np.float64)
    if pred.shape != truth.shape:
        raise MetricError(f"shape mismatch: prediction {pred.shape} vs truth {truth.shape}")
    return pred, _matrix(truth)


# An S whose squares overflow is infinite, not an error: `to_score` gives it -100.
@np.errstate(over="ignore")
def _sum_sq(a: np.ndarray, b: np.ndarray | None = None, total: float = 0.0) -> float:
    """`total` plus sum((a - b)**2), or plus sum(a**2) without `b`, over
    whole 2-D arrays, summed as the module docstring defines. `0 - t`
    squares to `t*t`, so a zero `a` gives the same sum as `b` alone: S = 1
    exactly. Rows summed in parts that start at multiples of
    `SUM_BLOCK_ROWS`, each part given the sum so far as `total`, give the
    bits of one call over all of them."""
    rows = a.shape[0]
    buf = np.empty((min(SUM_BLOCK_ROWS, rows),) + a.shape[1:])
    for i in range(0, rows, SUM_BLOCK_ROWS):
        span = slice(i, i + SUM_BLOCK_ROWS)
        block = buf[: min(SUM_BLOCK_ROWS, rows - i)]
        if b is None:
            np.multiply(a[span], a[span], out=block)
        else:
            np.subtract(a[span], b[span], out=block)
            np.multiply(block, block, out=block)
        total += float(np.add.reduce(block, axis=None))
    return total


def score_short_time(pred: np.ndarray, truth: np.ndarray, short_k: int) -> float:
    """Relative Frobenius error over the first `short_k` rows.

    S = ||pred[:k] - truth[:k]||_F / ||truth[:k]||_F. Raises MetricError if
    the truth window has zero norm (the score would be undefined).
    """
    pred, t = _pair(pred, truth)
    return _ShortTime(truth, t, short_k).over(pred)


@np.errstate(over="ignore", invalid="ignore")
def power_spectrum_rows(x: np.ndarray, long_k: int, kmax: int) -> np.ndarray:
    """Log power spectrum of the trailing `long_k` rows along the space
    axis, columns from wavenumber -kmax to kmax, as the module docstring
    defines it, zero-power convention included."""
    x = _matrix(x)
    rows, n = x.shape
    if n % 2 != 0:
        raise MetricError(f"spectral metric requires an even column count, got {n}")
    _window("kmax", kmax)
    if n < 2 * kmax + 2:
        raise MetricError(f"need at least {2 * kmax + 2} columns for kmax={kmax}, got {n}")
    _window("long_k", long_k, rows)
    spec = np.fft.rfft(x[rows - long_k :], axis=1)[:, : kmax + 1]
    power = spec.real * spec.real
    power += spec.imag * spec.imag
    # log 1 is exactly 0: floored powers get log-power 0. A power that
    # overflowed, to inf or through the FFT's inf - inf to NaN, gets
    # log-power inf.
    overflow = ~np.isfinite(power)
    power[overflow | (power < ZERO_POWER_FLOOR)] = 1.0
    half = elementary.log(power)
    half[overflow] = np.inf
    return np.concatenate([half[:, :0:-1], half], axis=1)


def spectral_reference(truth: np.ndarray, windows: MetricWindows) -> tuple[np.ndarray, float]:
    """The truth's log spectrum (`power_spectrum_rows`) and its Frobenius
    norm, from its trailing `long_k` rows only."""
    t = tail(_matrix(truth), windows.long_k)
    p_truth = power_spectrum_rows(t, windows.long_k, windows.kmax)
    return p_truth, math.sqrt(_sum_sq(p_truth))


def score_long_time_spectral(pred: np.ndarray, truth: np.ndarray, windows: MetricWindows) -> float:
    """Relative Frobenius error between truth and prediction log spectra."""
    pred, t = _pair(pred, truth)
    return _Spectral(truth, t, windows).over(pred)


def _series_reference(truth_series: np.ndarray, bins: int) -> tuple:
    """The truth side of `histogram_l1`: range, bin edges and counts (the
    last two None for a degenerate range)."""
    _window("bins", bins)
    t = np.asarray(truth_series, dtype=np.float64).ravel()
    if t.size < 1:
        raise MetricError("empty series")
    lo, hi = float(t.min()), float(t.max())
    if lo == hi:
        return lo, hi, None, None
    edges = np.linspace(lo, hi, bins + 1)
    h_t, _ = np.histogram(t, bins=edges)
    return lo, hi, edges, h_t


def _series_l1(reference: tuple, pred_series: np.ndarray) -> float:
    """`histogram_l1` of `pred_series` against `_series_reference` of its truth."""
    lo, hi, edges, h_t = reference
    if lo == hi:
        # Single bin; every clamped value lands in it.
        return 0.0
    h_p, _ = np.histogram(np.clip(pred_series, lo, hi), bins=edges)
    return float(np.abs(h_t - h_p).sum() / pred_series.size)


def histogram_l1(truth_series: np.ndarray, pred_series: np.ndarray, bins: int) -> float:
    """Normalized L1 distance between value histograms of two equal-length
    series.

    Bin edges are `bins` equal-width bins spanning [min, max] of the truth
    series; both series are binned with those shared edges, prediction
    values outside the range clamping into the nearest end bin. Counts are
    compared: s = sum_b |h_truth[b] - h_pred[b]| / len, which lies in [0, 2].
    A degenerate truth range (max == min) collapses to a single bin.
    """
    t = np.asarray(truth_series, dtype=np.float64).ravel()
    p = np.asarray(pred_series, dtype=np.float64).ravel()
    if t.size != p.size:
        raise MetricError(f"series lengths differ: {t.size} vs {p.size}")
    return _series_l1(_series_reference(t, bins), p)


def histogram_reference(truth: np.ndarray, windows: MetricWindows) -> list:
    """The truth side of `histogram_l1` for each coordinate of the trailing
    `long_k` rows of a 3-column truth, reading those rows only."""
    truth = _matrix(truth)
    if truth.shape[1] != 3:
        raise MetricError(f"histogram metric requires 3 columns, got {truth.shape[1]}")
    _window("long_k", windows.long_k, truth.shape[0])
    t = tail(truth, windows.long_k)
    return [_series_reference(t[:, c], windows.bins) for c in range(3)]


def score_long_time_histogram(pred: np.ndarray, truth: np.ndarray,
                              windows: MetricWindows) -> float:
    """Mean per-coordinate histogram distance over the trailing `long_k` rows.

    Defined for 3-column state trajectories; the three coordinate distances
    are averaged, so S lies in [0, 2].
    """
    pred, t = _pair(pred, truth)
    return _Histogram(truth, t, windows).over(pred)


class _Score:
    """One S, fed as `scorer` says. Only `value` takes the truth side
    (`_once`) and judges the windows, so an S never valued raises nothing."""

    #: The truth's rows, from the first, that `add` takes beside the prediction's.
    need = 0

    def __init__(self, truth, t):
        self.truth, self.t = truth, t  # the caller's object keys the truth side

    def over(self, pred: np.ndarray) -> float:
        """S of a whole in-memory `pred`, taken as one block."""
        self.add(0, pred)
        return self.value()


class _ShortTime(_Score):
    """The short-time S. Its reference, the truth's own `_sum_sq`, is summed
    from the same truth rows unless the truth table holds it already."""

    def __init__(self, truth, t: np.ndarray, short_k: int):
        super().__init__(truth, t)
        if not isinstance(short_k, (int, np.integer)):
            _window("short_k", short_k)  # raises; `value` judges an integer's range
        self.short_k = self.need = short_k
        self.key = (MetricKind.SHORT_TIME, short_k)
        self.total, self.ref = 0.0, None if _kept(truth, self.key) else 0.0

    def add(self, start: int, block: np.ndarray, truth: np.ndarray | None = None) -> None:
        stop = min(start + len(block), self.short_k)
        if start < stop:
            t = self.t[start:stop] if truth is None else truth[: stop - start]
            self.total = _sum_sq(block[: stop - start], t, self.total)
            if self.ref is not None:
                self.ref = _sum_sq(t, None, self.ref)

    def _reference(self) -> float:
        _window("short_k", self.short_k, self.t.shape[0])
        return math.sqrt(self.ref)

    def value(self) -> float:
        ref = _once(self.truth, self.key, self._reference)
        if ref == 0.0:
            raise MetricError("zero-norm truth window: short-time score undefined")
        return math.sqrt(self.total) / ref


class _Tail(_Score):
    """A long-time S: keeps a copy of the trailing `long_k` rows as they pass."""

    def __init__(self, truth, t: np.ndarray, windows: MetricWindows):
        super().__init__(truth, t)
        self.windows = windows
        rows = t.shape[0]
        self.first = rows - min(windows.long_k, rows)
        self.tail = np.empty((rows - self.first, t.shape[1]))

    def add(self, start: int, block: np.ndarray, truth: np.ndarray | None = None) -> None:
        lo = max(start, self.first)
        if lo < start + len(block):
            self.tail[lo - self.first : start + len(block) - self.first] = block[lo - start :]


class _Spectral(_Tail):
    """The spectral S: `power_spectrum_rows` of the kept rows against the truth's."""

    def value(self) -> float:
        t, w = self.t, self.windows
        p_truth, ref = _once(self.truth, (MetricKind.LONG_TIME_SPECTRAL, w.long_k, w.kmax),
                             lambda: spectral_reference(t, w))
        p_pred = power_spectrum_rows(self.tail, w.long_k, w.kmax)
        if ref == 0.0:
            raise MetricError("zero-norm truth spectrum: spectral score undefined")
        return math.sqrt(_sum_sq(p_pred, p_truth)) / ref


class _Histogram(_Tail):
    """The histogram S: the mean `_series_l1` of the kept rows' three columns."""

    def value(self) -> float:
        t, w = self.t, self.windows
        refs = _once(self.truth, (MetricKind.LONG_TIME_HISTOGRAM, w.long_k, w.bins),
                     lambda: histogram_reference(t, w))
        return float(np.mean([_series_l1(refs[c], self.tail[:, c]) for c in range(3)]))


def scorer(kind: MetricKind, truth: np.ndarray, windows: MetricWindows) -> _Score:
    """The S of `kind` against 2-D `truth` (an array or an open
    `matio.MatrixReader`) for a prediction of its shape, fed in row order by
    the blocks `matio.row_blocks` cuts: `add(start, block, truth_block)`,
    with the truth's same rows before row `need` (optional for an in-memory
    truth), then `value()`, which gives the bits of `score_*`."""
    t = _matrix(truth)
    if kind is MetricKind.SHORT_TIME:
        return _ShortTime(truth, t, windows.short_k)
    return (_Spectral if kind is MetricKind.LONG_TIME_SPECTRAL else _Histogram)(truth, t, windows)


def to_score(s: float, label: str = "") -> float:
    """Map a raw relative error S to the clipped score E = 100*(1 - S).

    Non-finite S is recorded as a warning, which starts with `label` when
    one is given, and scored -100.
    """
    if not np.isfinite(s):
        logger.warning("%snon-finite relative error %r scored as -100",
                       f"{label}: " if label else "", s)
        return -100.0
    return float(np.clip(100.0 * (1.0 - s), -100.0, 100.0))


def composite(scores: list[float | None]) -> float:
    """Average the twelve scores; absent (None) entries count as -100."""
    if len(scores) != len(SCORE_IDS):
        raise ValueError(f"expected {len(SCORE_IDS)} scores, got {len(scores)}")
    filled = [-100.0 if e is None else float(e) for e in scores]
    return float(np.mean(filled))
