import re
import unittest.mock
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ctfbench as cb
from ctfbench import matio, metrics
from ctfbench.exceptions import MetricError
from ctfbench.metrics import (
    MetricWindows,
    composite,
    histogram_l1,
    power_spectrum_rows,
    score_long_time_histogram,
    score_long_time_spectral,
    score_short_time,
    to_score,
)


def hist_l1_oracle(truth, pred, bins):
    """Independent per-value binning: shared truth-derived edges, clamped
    predictions, last bin right-inclusive."""
    truth = [float(v) for v in np.asarray(truth).ravel()]
    pred = [float(v) for v in np.asarray(pred).ravel()]
    lo, hi = min(truth), max(truth)
    if lo == hi:
        return 0.0
    edges = np.linspace(lo, hi, bins + 1)

    def bin_of(v):
        v = min(max(v, lo), hi)
        for b in range(bins):
            if edges[b] <= v < edges[b + 1]:
                return b
        return bins - 1

    h_t = [0] * bins
    h_p = [0] * bins
    for v in truth:
        h_t[bin_of(v)] += 1
    for v in pred:
        h_p[bin_of(v)] += 1
    return sum(abs(a - b) for a, b in zip(h_t, h_p)) / len(truth)


class TestShortTime:
    def test_perfect_match(self):
        x = np.random.default_rng(0).normal(size=(50, 4))
        assert score_short_time(x, x, 50) == 0.0
        assert to_score(score_short_time(x, x, 50)) == 100.0

    def test_zero_prediction_scores_one_exactly(self):
        truth = np.random.default_rng(1).normal(size=(30, 6))
        s = score_short_time(np.zeros_like(truth), truth, 30)
        assert s == 1.0
        assert to_score(s) == 0.0

    def test_hand_frobenius_values(self):
        assert score_short_time([[0.0, 0.0]], [[3.0, 4.0]], 1) == 1.0
        assert score_short_time([[6.0, 8.0]], [[3.0, 4.0]], 1) == 1.0

    def test_window_restricts_comparison(self):
        truth = np.ones((10, 2))
        pred = np.ones((10, 2))
        pred[5:] = 99.0
        assert score_short_time(pred, truth, 5) == 0.0
        assert score_short_time(pred, truth, 10) > 0.0

    def test_zero_norm_truth_rejected(self):
        with pytest.raises(MetricError, match="zero-norm"):
            score_short_time(np.ones((3, 2)), np.zeros((3, 2)), 3)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(MetricError, match="shape"):
            score_short_time(np.ones((3, 2)), np.ones((4, 2)), 2)

    def test_short_k_bounds(self):
        with pytest.raises(MetricError, match=r"^short_k=4 outside \[1, 3\]$"):
            score_short_time(np.ones((3, 2)), np.ones((3, 2)), 4)
        with pytest.raises(MetricError, match=r"^short_k=0 outside \[1, 3\]$"):
            score_short_time(np.ones((3, 2)), np.ones((3, 2)), 0)

    @given(
        c=st.floats(min_value=1e-6, max_value=1e6),
        sign=st.sampled_from([-1.0, 1.0]),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=50, deadline=None)
    def test_scale_invariance(self, c, sign, seed):
        rng = np.random.default_rng(seed)
        truth = rng.normal(size=(8, 3))
        pred = rng.normal(size=(8, 3))
        s0 = score_short_time(pred, truth, 8)
        s1 = score_short_time(sign * c * pred, sign * c * truth, 8)
        assert s1 == pytest.approx(s0, rel=1e-10)


class TestPowerSpectrum:
    def test_zero_row_maps_to_zero_spectrum(self):
        p = power_spectrum_rows(np.zeros((4, 64)), 4, 16)
        assert np.array_equal(p, np.zeros((4, 33)))

    def test_pure_cosine_concentrates_at_its_wavenumber(self):
        n = 64
        x = np.cos(2.0 * np.pi * 5 * np.arange(n) / n)[None, :]
        p = power_spectrum_rows(x, 1, 16)
        center = 16
        peak = np.log((n / 2.0) ** 2)
        assert p[0, center - 5] == pytest.approx(peak, rel=1e-12)
        assert p[0, center + 5] == pytest.approx(peak, rel=1e-12)
        others = np.delete(p[0], [center - 5, center + 5])
        # Remaining bins carry only DFT roundoff, twenty-plus orders below
        # the peak power.
        assert np.all(np.exp(others) < 1e-20)

    def test_circular_shift_invariance(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(6, 128))
        a = power_spectrum_rows(x, 6, 30)
        b = power_spectrum_rows(np.roll(x, 17, axis=1), 6, 30)
        assert np.abs(a - b).max() <= 1e-9

    def test_odd_column_count_rejected(self):
        with pytest.raises(MetricError, match="even"):
            power_spectrum_rows(np.ones((2, 63)), 2, 16)

    def test_too_few_columns_rejected(self):
        with pytest.raises(MetricError, match="columns"):
            power_spectrum_rows(np.ones((2, 64)), 2, 100)

    def test_selects_trailing_rows(self):
        x = np.zeros((5, 64))
        x[-2:] = np.cos(2.0 * np.pi * 3 * np.arange(64) / 64)
        p = power_spectrum_rows(x, 2, 10)
        assert p.shape == (2, 21)
        assert np.any(p != 0.0)


class TestSpectralScore:
    def test_perfect_match(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(20, 64))
        s = score_long_time_spectral(x, x, MetricWindows(long_k=10, kmax=16))
        assert s == 0.0
        assert to_score(s) == 100.0

    def test_zero_prediction_scores_one_exactly(self):
        rng = np.random.default_rng(5)
        truth = rng.normal(size=(20, 64))
        s = score_long_time_spectral(
            np.zeros_like(truth), truth, MetricWindows(long_k=10, kmax=16)
        )
        assert s == 1.0
        assert to_score(s) == 0.0

    def test_shifted_prediction_matches(self):
        rng = np.random.default_rng(6)
        truth = rng.normal(size=(20, 128))
        pred = np.roll(truth, 17, axis=1)
        s = score_long_time_spectral(pred, truth, MetricWindows(long_k=10, kmax=30))
        assert s <= 1e-9

    def test_zero_norm_truth_spectrum_rejected(self):
        truth = np.zeros((8, 64))
        with pytest.raises(MetricError, match="zero-norm"):
            score_long_time_spectral(np.ones((8, 64)), truth, MetricWindows(long_k=4, kmax=16))


class TestHistogramL1:
    def test_identical_series(self):
        t = np.random.default_rng(7).normal(size=200)
        assert histogram_l1(t, t, 41) == 0.0

    def test_hand_counted_example(self):
        assert histogram_l1([0.0, 0.0, 1.0, 1.0], [0.0, 1.0, 1.0, 1.0], 2) == 0.5

    def test_clamped_disjoint_prediction(self):
        # All predictions clamp into the top bin; the truth maximum also
        # lives there, so the distance is 2*(1 - h_top/L).
        truth = np.linspace(0.0, 1.0, 100)
        pred = np.full(100, 10.0)
        expected = hist_l1_oracle(truth, pred, 10)
        got = histogram_l1(truth, pred, 10)
        assert got == expected == 1.8

    def test_degenerate_truth_range(self):
        assert histogram_l1([2.0, 2.0, 2.0], [5.0, -1.0, 2.0], 41) == 0.0

    def test_order_invariance(self):
        rng = np.random.default_rng(8)
        t = rng.normal(size=300)
        p = rng.normal(size=300)
        assert histogram_l1(t, p, 17) == histogram_l1(t, rng.permutation(p), 17)

    def test_length_mismatch_rejected(self):
        with pytest.raises(MetricError, match="lengths"):
            histogram_l1([1.0, 2.0], [1.0], 5)

    def test_matches_oracle_on_random_instances(self):
        rng = np.random.default_rng(9)
        for _ in range(200):
            length = int(rng.integers(1, 60))
            bins = int(rng.integers(2, 20))
            t = rng.normal(scale=rng.uniform(0.1, 10.0), size=length)
            p = rng.normal(loc=rng.uniform(-5, 5), scale=rng.uniform(0.1, 10.0), size=length)
            assert histogram_l1(t, p, bins) == hist_l1_oracle(t, p, bins)

    @given(
        data=st.lists(
            st.floats(min_value=-1e6, max_value=1e6, allow_nan=False), min_size=1, max_size=40
        ),
        other=st.lists(
            st.floats(min_value=-1e6, max_value=1e6, allow_nan=False), min_size=1, max_size=40
        ),
        bins=st.integers(2, 30),
    )
    @settings(max_examples=100, deadline=None)
    def test_bounds_and_oracle(self, data, other, bins):
        length = min(len(data), len(other))
        t = np.asarray(data[:length])
        p = np.asarray(other[:length])
        s = histogram_l1(t, p, bins)
        assert 0.0 <= s <= 2.0
        assert s == hist_l1_oracle(t, p, bins)


class TestHistogramScore:
    def test_perfect_match(self):
        x = np.random.default_rng(10).normal(size=(600, 3))
        s = score_long_time_histogram(x, x, MetricWindows())
        assert s == 0.0

    def test_disjoint_prediction_near_minus_100(self):
        rng = np.random.default_rng(11)
        truth = rng.normal(size=(600, 3))
        pred = truth + 1000.0
        w = MetricWindows()
        s = score_long_time_histogram(pred, truth, w)
        per_coord = [
            hist_l1_oracle(truth[-w.long_k :, c], pred[-w.long_k :, c], w.bins) for c in range(3)
        ]
        assert s == pytest.approx(np.mean(per_coord), rel=0, abs=0)
        # The truth max occupies its own top bin, so the distance tops out
        # just below 2 and the score just above -100.
        assert s > 1.9
        assert -100.0 <= to_score(s) < -95.0

    def test_temporal_permutation_invariance(self):
        rng = np.random.default_rng(12)
        truth = rng.normal(size=(600, 3))
        pred = rng.normal(size=(600, 3))
        w = MetricWindows()
        s0 = score_long_time_histogram(pred, truth, w)
        perm = np.vstack([pred[:100], rng.permutation(pred[100:])])
        assert score_long_time_histogram(perm, truth, w) == s0

    def test_requires_three_columns(self):
        with pytest.raises(MetricError, match="3 columns"):
            score_long_time_histogram(np.ones((600, 4)), np.ones((600, 4)), MetricWindows())


# A finite prediction whose squares or powers overflow has an infinite S,
# given without a numpy warning.
@pytest.mark.parametrize("score", [
    lambda p, t: score_short_time(p, t, 40),
    lambda p, t: score_long_time_spectral(p, t, MetricWindows(long_k=30, kmax=4)),
], ids=["short_time", "spectral"])
def test_overflowing_error_is_infinite_without_warning(score):
    truth = np.random.default_rng(5).standard_normal((40, 16))
    pred = truth.copy()
    pred[20, 3] = 1e200
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert score(pred, truth) == np.inf


class TestToScore:
    def test_anchor_values(self):
        assert to_score(0.0) == 100.0
        assert to_score(1.0) == 0.0
        assert to_score(3.5) == -100.0

    def test_non_finite_scores_minimum_with_warning(self, caplog):
        import logging

        with caplog.at_level(logging.WARNING, logger="ctfbench.metrics"):
            assert to_score(float("nan")) == -100.0
            assert to_score(float("inf")) == -100.0
        assert len(caplog.records) == 2

    @given(st.floats(min_value=0.0, max_value=1e9))
    @settings(max_examples=100, deadline=None)
    def test_always_within_bounds(self, s):
        assert -100.0 <= to_score(s) <= 100.0


class TestComposite:
    def test_all_perfect(self):
        assert composite([100.0] * 12) == 100.0

    def test_all_absent(self):
        assert composite([None] * 12) == -100.0

    def test_half_present(self):
        assert composite([100.0] * 6 + [None] * 6) == 0.0

    def test_length_enforced(self):
        with pytest.raises(ValueError):
            composite([100.0] * 11)

    @given(
        st.lists(
            st.one_of(st.none(), st.floats(min_value=-100, max_value=100)),
            min_size=12,
            max_size=12,
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_bounds(self, scores):
        assert -100.0 <= composite(scores) <= 100.0


class TestMetricWindows:
    def test_defaults(self):
        w = MetricWindows()
        assert (w.short_k, w.long_k, w.kmax, w.bins) == (100, 500, 100, 41)

    @pytest.mark.parametrize(
        "kw", [{"short_k": 0}, {"long_k": 0}, {"kmax": 0}, {"bins": 1}]
    )
    def test_validation(self, kw):
        with pytest.raises(ValueError):
            MetricWindows(**kw)

    @pytest.mark.parametrize("kw", [{"short_k": 1.5}, {"long_k": 10.5}, {"kmax": 3.0},
                                    {"bins": 2.5}])
    def test_fractional_window_names_its_field(self, kw):
        (name,) = kw
        with pytest.raises(ValueError, match=f"^{name} must be an integer, got "):
            MetricWindows(**kw)

    def test_numpy_integer_windows_accepted(self):
        assert MetricWindows(short_k=np.int64(5)).short_k == 5


def _ulps(got, ref):
    return np.abs(got - ref) / np.spacing(np.abs(ref))


class TestKernels:
    """The blocked norm and the rfft band against the numpy kernels they
    replace; `elementary.log` is tested in test_elementary.py."""

    def test_blocked_norm_is_within_4_ulp_of_linalg(self):
        rng = np.random.default_rng(0)
        a, b = rng.standard_normal((2, 10000, 1024))
        assert _ulps(np.sqrt(metrics._sum_sq(a)), np.linalg.norm(a)) <= 4
        assert _ulps(np.sqrt(metrics._sum_sq(a, b)), np.linalg.norm(a - b)) <= 4

    def test_rfft_band_is_the_fftshift_band(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((50, 1024))
        n, kmax = x.shape[1], 100
        power = np.fft.fftshift(np.abs(np.fft.fft(x, axis=1)) ** 2, axes=1)
        old = np.log(power[:, n // 2 - kmax : n // 2 + kmax + 1])
        # A relative power difference d shows as a log difference of about d.
        assert np.abs(power_spectrum_rows(x, 50, kmax) - old).max() <= 1e-12

    @pytest.mark.parametrize("rows", [1, 63, 64, 130, 1000])
    def test_anchors_hold_for_any_row_count(self, rows):
        assert metrics.SUM_BLOCK_ROWS == 64
        truth = np.random.default_rng(rows).normal(size=(rows, 64))
        zeros = np.zeros_like(truth)
        windows = MetricWindows(long_k=rows, kmax=16)
        assert score_short_time(zeros, truth, rows) == 1.0
        assert score_short_time(truth.copy(), truth, rows) == 0.0
        assert score_long_time_spectral(zeros, truth, windows) == 1.0
        assert score_long_time_spectral(truth.copy(), truth, windows) == 0.0

    def test_overflowed_power_keeps_log_power_inf(self):
        x = np.zeros((1, 64))
        x[0, 0] = 1e200
        with np.errstate(over="ignore"):
            assert np.all(power_spectrum_rows(x, 1, 16) == np.inf)

    def test_fft_overflow_is_not_a_zero_spectrum(self):
        # Columns of alternating sign: the FFT's inf - inf makes the power of
        # every even wavenumber NaN, and that of every odd one is exactly 0.
        x = np.full((200, 64), 1.7e308)
        x[:, 1::2] *= -1
        p = power_spectrum_rows(x, 100, 10)
        assert np.all(p[:, ::2] == np.inf) and np.all(p[:, 1::2] == 0.0)
        truth = np.random.default_rng(3).standard_normal((200, 64))
        s = score_long_time_spectral(x, truth, MetricWindows(long_k=100, kmax=10))
        assert s == np.inf and to_score(s) == -100.0


_T = np.random.default_rng(20).normal(size=(8, 16))
_P = np.random.default_rng(21).normal(size=(8, 16))


class TestRawWindows:
    """A window handed to a metric function is judged by `MetricWindows`'
    rule, and the refusal is a MetricError that names it."""

    @pytest.mark.parametrize("call, why", [
        (lambda: histogram_l1(_T, _T, 0), "bins must be >= 2"),
        (lambda: histogram_l1(_T, _P, -3), "bins must be >= 2"),
        (lambda: histogram_l1(_T, _P, 2.5), "bins must be an integer, got 2.5"),
        (lambda: power_spectrum_rows(_T, 2, -1), "kmax must be >= 1"),
        (lambda: power_spectrum_rows(_T, 2, 2.0), "kmax must be an integer, got 2.0"),
        (lambda: power_spectrum_rows(_T, 2.0, 4), "long_k must be an integer, got 2.0"),
        (lambda: score_short_time(_P, _T, 1.5), "short_k must be an integer, got 1.5"),
        (lambda: metrics.short_time_reference(_T, 2.0), "short_k must be an integer, got 2.0"),
        (lambda: power_spectrum_rows(np.ones(16), 2, 2), "expected 2-D matrices, got shape (16,)"),
        (lambda: metrics.histogram_reference(np.ones(16), MetricWindows(long_k=2)),
         "expected 2-D matrices, got shape (16,)"),
    ], ids=["bins-0", "bins-negative", "bins-float", "kmax-negative", "kmax-float",
            "long_k-float", "short_k-float", "reference-short_k-float", "spectrum-1d",
            "histogram-reference-1d"])
    def test_refused_by_name(self, call, why):
        with pytest.raises(MetricError, match=f"^{re.escape(why)}$"):
            call()

    @pytest.mark.parametrize("score", [
        lambda p, t: score_short_time(p, t, 2),
        lambda p, t: score_long_time_spectral(p, t, MetricWindows(long_k=2, kmax=2)),
        lambda p, t: score_long_time_histogram(p, t, MetricWindows(long_k=2)),
    ], ids=["short_time", "spectral", "histogram"])
    def test_one_dimensional_input_refused(self, score):
        with pytest.raises(MetricError, match=r"^expected 2-D matrices, got shape \(16,\)$"):
            score(_P[0], _T[0])


# Each kind: its score on a 40-row truth, the function that computes its
# truth side, and how often that function runs for two scores in one
# `truth_table()` block and outside one. A spectral score also computes the
# prediction's spectrum, so `power_spectrum_rows` runs once more per score.
_SCORES = {
    "short_time": (lambda p, t: cb.score_short_time(p, t, 5), 3,
                   "short_time_reference", 1, 2),
    "spectral": (lambda p, t: cb.score_long_time_spectral(p, t, MetricWindows(long_k=8, kmax=4)),
                 16, "power_spectrum_rows", 3, 4),
    "histogram": (lambda p, t: cb.score_long_time_histogram(p, t, MetricWindows(long_k=30, bins=7)),
                  3, "histogram_reference", 1, 2),
}


class TestTruthTable:
    """Direct metric calls take their truth side through the one truth table."""

    @pytest.mark.parametrize("kind", _SCORES)
    @pytest.mark.parametrize("in_block", [True, False], ids=["block", "no_block"])
    def test_truth_side_computed_once_per_block(self, monkeypatch, kind, in_block):
        score, cols, counted, once, twice = _SCORES[kind]
        rng = np.random.default_rng(22)
        truth, pred = rng.normal(size=(2, 40, cols))
        calls = []
        work = getattr(metrics, counted)

        def counting(*args):
            calls.append(args[0].shape)
            return work(*args)

        monkeypatch.setattr(metrics, counted, counting)
        if in_block:
            with cb.truth_table():
                first, second = score(pred, truth), score(pred.copy(), truth)
        else:
            first, second = score(pred, truth), score(pred.copy(), truth)
        assert first == second
        assert len(calls) == (once if in_block else twice)

    @pytest.mark.parametrize("kind", _SCORES)
    def test_converted_truth_computed_once_per_block(self, monkeypatch, kind):
        # A float32 truth is converted on every call; its truth side is still
        # kept once, under the object the caller passed.
        score, cols, counted, once, _ = _SCORES[kind]
        rng = np.random.default_rng(24)
        truth, pred = rng.normal(size=(2, 40, cols))
        truth = truth.astype(np.float32)
        calls = []
        work = getattr(metrics, counted)
        monkeypatch.setattr(metrics, counted, lambda *args: calls.append(1) or work(*args))
        with cb.truth_table():
            first, second = score(pred, truth), score(pred.copy(), truth)
            entries = len(matio._TRUTHS.get())
        assert first == second
        assert len(calls) == once
        assert entries == 1

    @pytest.mark.parametrize("kind", _SCORES)
    def test_same_bits_in_and_out_of_a_block(self, kind):
        score, cols, *_ = _SCORES[kind]
        rng = np.random.default_rng(23)
        truth, pred = rng.normal(size=(2, 40, cols))
        outside = score(pred, truth)
        with cb.truth_table():
            inside = [score(pred, truth), score(pred, truth)]
        assert 0.0 < outside
        assert [np.float64(s).tobytes() for s in inside] == [np.float64(outside).tobytes()] * 2


# The metrics' definition (module docstring), written out again here: each
# Frobenius norm sums squares in blocks of 64 rows, each block by
# `np.add.reduce` and the block totals in row order; the spectrum is the
# re^2 + im^2 of the `rfft` band 0..kmax, mirrored, with `elementary.log`.
def reference_sum_sq(d):
    total = 0.0
    for i in range(0, d.shape[0], 64):
        total += float(np.add.reduce(d[i:i + 64] ** 2, axis=None))
    return total


def reference_log_spectrum(x, long_k, kmax):
    spec = np.fft.rfft(x[x.shape[0] - long_k:], axis=1)[:, :kmax + 1]
    power = spec.real ** 2 + spec.imag ** 2
    power[~(power >= metrics.ZERO_POWER_FLOOR)] = 1.0
    half = cb.elementary.log(power)
    return np.concatenate([half[:, :0:-1], half], axis=1)


def reference_s(kind, pred, truth, w):
    if kind == "short_time":
        k = w.short_k
        return (np.sqrt(reference_sum_sq(pred[:k] - truth[:k]))
                / np.sqrt(reference_sum_sq(truth[:k])))
    if kind == "spectral":
        p, t = (reference_log_spectrum(x, w.long_k, w.kmax) for x in (pred, truth))
        return np.sqrt(reference_sum_sq(p - t)) / np.sqrt(reference_sum_sq(t))
    p, t = pred[-w.long_k:], truth[-w.long_k:]
    return np.mean([hist_l1_oracle(t[:, c], p[:, c], w.bins) for c in range(3)])


_DIRECT = {
    "short_time": lambda p, t, w: score_short_time(p, t, w.short_k),
    "spectral": score_long_time_spectral,
    "histogram": score_long_time_histogram,
}
_KINDS = {"short_time": metrics.MetricKind.SHORT_TIME,
          "spectral": metrics.MetricKind.LONG_TIME_SPECTRAL,
          "histogram": metrics.MetricKind.LONG_TIME_HISTOGRAM}


class TestStreamed:
    """A prediction streamed from its file in blocks of any multiple of 64
    rows keeps the bits of the definition, and of the in-memory score."""

    @settings(max_examples=120, deadline=None)
    @given(data=st.data(), kind=st.sampled_from(sorted(_KINDS)),
           rows=st.integers(1, 400), blocks=st.integers(1, 4), slack=st.integers(0, 511))
    def test_same_bits_as_the_definition(self, tmp_path_factory, data, kind, rows, blocks,
                                         slack):
        cols = 3 if kind == "histogram" else data.draw(st.sampled_from([4, 8, 16]))
        windows = MetricWindows(short_k=data.draw(st.integers(1, rows)),
                                long_k=data.draw(st.integers(1, rows)),
                                kmax=max(1, cols // 2 - 1), bins=data.draw(st.integers(2, 9)))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        truth, pred = rng.standard_normal((2, rows, cols))
        path = tmp_path_factory.mktemp("streamed") / "pred.mat"
        matio.write_matrix(path, pred)
        # Chunks of 64 * `blocks` rows: the last holds what is left, and with
        # fewer rows than one chunk the only one holds them all.
        chunk = 8 * cols * 64 * blocks + slack % (8 * cols * 64)
        with unittest.mock.patch.object(matio, "_CHUNK_BYTES", chunk), \
                matio.MatrixReader(path) as reader:
            scorer = metrics.scorer(_KINDS[kind], truth, windows)
            starts = []
            for start, block in reader.blocks():
                assert len(block) == min(64 * blocks, rows - start)
                starts.append(start)
                scorer.add(start, block)
            streamed = scorer.value()
        assert starts == list(range(0, rows, 64 * blocks))
        if kind == "short_time":
            # The square root can hide the last bit of the sum of squares.
            k = windows.short_k
            assert scorer.total == reference_sum_sq(pred[:k] - truth[:k])
        want = np.float64(reference_s(kind, pred, truth, windows)).tobytes()
        assert np.float64(streamed).tobytes() == want
        assert np.float64(_DIRECT[kind](pred, truth, windows)).tobytes() == want

    def test_block_totals_are_added_in_row_order_across_reads(self, tmp_path, monkeypatch):
        # The error's squares are 2**54 in block 0, then 1 in each of blocks
        # 8-15, the second read of 512 rows. Added one by one in row order,
        # each 1 rounds away; summed per read first, they add 8 and move S.
        truth = np.zeros((1024, 2))
        truth[:, 1] = 1.0  # a norm of 32
        pred = truth.copy()
        pred[0, 0] += 2.0 ** 27
        pred[8 * 64::64, 1] += 1.0
        path = tmp_path / "pred.mat"
        matio.write_matrix(path, pred)
        monkeypatch.setattr(matio, "_CHUNK_BYTES", 512 * 2 * 8)
        scorer = metrics.scorer(metrics.MetricKind.SHORT_TIME, truth, MetricWindows(short_k=1024))
        with matio.MatrixReader(path) as reader:
            for start, block in reader.blocks():
                scorer.add(start, block)
        assert scorer.value() == score_short_time(pred, truth, 1024) == 2.0 ** 27 / 32.0
        assert np.sqrt(2.0 ** 54 + 8.0) / 32.0 != 2.0 ** 27 / 32.0
