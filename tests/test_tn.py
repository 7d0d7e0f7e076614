import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pulse_tn import (
    EPSILON,
    NO_NOISE,
    FrameClip,
    PipelineConfig,
    PulseSpec,
    SceneSpec,
    detrend,
    extract_tn_pooled,
    fit_trend,
    rms_normalize,
    synth_pulse,
    tn,
    tn_trace,
    tn_traces,
)
from pulse_tn import _kernels_np
from pulse_tn.harness import noise_feature_ratios

# frozen oracle: detrend([0,1,0,1]) has mean square 0.2, so dividing by
# sqrt(0.2) gives +-0.4472135955 and +-1.3416407865
TN_0101 = np.array([-0.447213595499958, 1.341640786499874, -1.341640786499874, 0.447213595499958])


def ols_bruteforce(y):
    """Independent oracle: solve the 2x2 normal equations directly."""
    t = np.arange(y.size, dtype=float)
    a = np.stack([t, np.ones_like(t)], axis=1)
    slope, intercept = np.linalg.solve(a.T @ a, a.T @ y)
    return slope, intercept


class TestFitTrend:
    def test_exact_line(self):
        fit = fit_trend([1.0, 2.0, 3.0, 4.0])
        assert fit.slope == pytest.approx(1.0, abs=1e-12)
        assert fit.intercept == pytest.approx(1.0, abs=1e-12)

    def test_constant(self):
        fit = fit_trend([2.5, 2.5, 2.5, 2.5])
        assert fit.slope == pytest.approx(0.0, abs=1e-12)
        assert fit.intercept == pytest.approx(2.5, abs=1e-12)

    def test_alternating(self):
        fit = fit_trend([0.0, 1.0, 0.0, 1.0])
        assert fit.slope == pytest.approx(0.2, abs=1e-12)
        assert fit.intercept == pytest.approx(0.2, abs=1e-12)

    def test_matches_normal_equations(self):
        rng = np.random.default_rng(42)
        for _ in range(200):
            y = rng.uniform(-1.0, 1.0, rng.integers(2, 65))
            fit = fit_trend(y)
            slope, intercept = ols_bruteforce(y)
            assert abs(fit.slope - slope) < 1e-9
            assert abs(fit.intercept - intercept) < 1e-9

    def test_too_short(self):
        with pytest.raises(ValueError):
            fit_trend([1.0])

    @pytest.mark.parametrize(
        "values, message",
        [([[1.0, 2.0], [3.0, 4.0]], r"^trace must be 1-D, got shape \(2, 2\)$"), ([1.0, np.nan, 2.0], "^trace must be finite$")],
        ids=["2d", "nan"],
    )
    def test_rejects_a_trace_that_is_not_one_finite_row(self, values, message):
        with pytest.raises(ValueError, match=message):
            fit_trend(values)


class TestDetrend:
    def test_affine_goes_to_zero(self):
        t = np.arange(50, dtype=float)
        assert np.max(np.abs(detrend(0.3 * t - 2.0))) < 1e-12

    def test_alternating(self):
        assert np.allclose(detrend([0.0, 1.0, 0.0, 1.0]), [-0.2, 0.6, -0.6, 0.2], atol=1e-12)

    def test_idempotent(self):
        rng = np.random.default_rng(0)
        y = rng.normal(size=64)
        once = detrend(y)
        assert np.max(np.abs(detrend(once) - once)) < 1e-12

    def test_zero_mean_and_zero_time_covariance(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            y = rng.normal(size=rng.integers(3, 200))
            scale = np.sqrt(np.mean(y * y)) + 1e-30
            r = detrend(y)
            t = np.arange(r.size) - (r.size - 1) / 2
            assert abs(r.mean()) <= 1e-9 * scale
            assert abs(np.mean(r * t)) <= 1e-9 * scale * r.size


class TestRmsNormalize:
    def test_zero_trace_stays_zero(self):
        out = rms_normalize(np.zeros(8))
        assert np.array_equal(out, np.zeros(8))

    def test_frozen_values(self):
        out = rms_normalize([-0.2, 0.6, -0.6, 0.2], 1e-15)
        assert np.allclose(out, TN_0101, atol=1e-6)

    def test_scale_invariance_small_epsilon(self):
        rng = np.random.default_rng(2)
        y = rng.normal(size=32)
        for a in (0.5, 3.0, 117.0):
            assert np.max(np.abs(rms_normalize(a * y, 1e-16) - rms_normalize(y, 1e-16))) < 1e-9


class TestTnTrace:
    def test_single_pixel_composition(self):
        out = tn_trace([0.0, 1.0, 0.0, 1.0], 1e-12)
        assert np.allclose(out, TN_0101, atol=1e-6)

    def test_needs_three_samples(self):
        with pytest.raises(ValueError):
            tn_trace([0.0, 1.0])

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        n=st.integers(8, 128),
        a=st.floats(0.1, 10.0),
        b=st.floats(-1.0, 1.0),
        c=st.floats(-0.01, 0.01),
    )
    def test_affine_time_invariance(self, seed, n, a, b, c):
        # epsilon far below any detrended mean square here, i.e. the
        # normalization behaves as its epsilon -> 0 limit
        rng = np.random.default_rng(seed)
        x = rng.uniform(-1.0, 1.0, n)
        if np.sqrt(np.mean(detrend(x) ** 2)) < 1e-3:
            return
        t = np.arange(n, dtype=float)
        delta = np.abs(tn_trace(a * x + b + c * t, 1e-16) - tn_trace(x, 1e-16))
        assert delta.max() < 1e-6

    def test_sign_equivariance_is_exact(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            x = rng.normal(size=rng.integers(3, 100))
            assert np.array_equal(tn_trace(-x), -tn_trace(x))

    def test_output_statistics(self):
        rng = np.random.default_rng(4)
        for _ in range(30):
            x = rng.uniform(-1.0, 1.0, 96)
            out = tn_trace(x)
            ms = float(np.mean(detrend(x) ** 2))
            assert abs(out.mean()) <= 1e-9
            expected_rms = np.sqrt(ms / (ms + EPSILON))
            assert np.sqrt(np.mean(out**2)) == pytest.approx(expected_rms, abs=1e-9)
            if ms >= 1e4 * EPSILON:
                assert np.sqrt(np.mean(out**2)) == pytest.approx(1.0, abs=1e-4)

    def test_idempotence(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            x = rng.uniform(-1.0, 1.0, 80)
            once = tn_trace(x)
            assert np.max(np.abs(tn_trace(once) - once)) < 1e-4

    def test_single_sample_change_touches_every_output(self):
        # the shared RMS divisor makes the transform globally coupled in time
        rng = np.random.default_rng(6)
        x = rng.normal(size=64)
        bumped = x.copy()
        bumped[10] += 0.5
        delta = tn_trace(bumped) - tn_trace(x)
        assert np.all(delta != 0.0)


class TestTnClip:
    def test_affine_traces_annihilated(self):
        t = np.arange(60, dtype=float)
        rng = np.random.default_rng(7)
        gains = rng.uniform(0.5, 1.5, (1, 4, 4, 3))
        offsets = rng.uniform(-0.2, 0.2, (1, 4, 4, 3))
        data = gains * (0.001 * t)[:, None, None, None] + offsets
        out = tn(FrameClip(data, 30.0))
        assert np.max(np.abs(out.data)) < 1e-9

    def test_shape_and_fps_preserved(self):
        rng = np.random.default_rng(8)
        clip = FrameClip(rng.random((12, 3, 5, 3)), 25.0)
        out = tn(clip)
        assert out.data.shape == clip.data.shape
        assert out.fps == clip.fps

    @pytest.mark.parametrize("kind", ["random", "u8", "dead", "min_t", "long"])
    def test_matches_trace_path(self, kind):
        rng = np.random.default_rng(10)
        if kind == "random":
            data = rng.random((20, 3, 2, 3))
        elif kind == "u8":
            data = rng.integers(0, 256, (60, 4, 4, 3)) / 255.0
        elif kind == "dead":
            data = rng.random((45, 3, 3, 3))
            data[:, :2] = rng.random((1, 2, 3, 3))
        elif kind == "min_t":
            data = rng.random((3, 4, 4, 3))
        else:
            data = rng.random((1800, 4, 4, 3))
        out = tn(FrameClip(data, 30.0)).data

        def expected(trace):
            # a constant trace has the exact output 0; the oracle's own
            # rounding of its mean, divided by sqrt(epsilon), reaches ~3e-12
            return np.zeros_like(trace) if np.ptp(trace) == 0 else tn_trace(trace)

        _, h, w, c = data.shape
        err = max(
            np.max(np.abs(out[:, i, j, k] - expected(data[:, i, j, k])))
            for i in range(h)
            for j in range(w)
            for k in range(c)
        )
        assert err <= 1e-12

    @pytest.mark.parametrize("frames", [3, 600, 1800])
    def test_exact_offset_invariance(self, frames):
        # a level in [0, 1) per trace plus a pulse-sized wobble, on a 2^-20
        # grid: both y and y + 1024 are exact in float64, so the offset must
        # not change the output
        rng = np.random.default_rng(11)
        level = rng.integers(0, 2**20, (1, 4, 4, 3))
        y = (level + rng.integers(-(2**12), 2**12, (frames, 4, 4, 3))) * 2.0**-20
        y[:, 0] = y[:1, 0]
        out = tn(FrameClip(y, 30.0)).data
        shifted = tn(FrameClip(y + 1024.0, 30.0)).data
        assert np.max(np.abs(shifted - out)) <= 1e-12

    def test_trace_stack_matches_clip_rows(self):
        rng = np.random.default_rng(12)
        traces = rng.normal(size=(40, 97))
        clip = FrameClip(traces.T.reshape(97, 40, 1, 1), 30.0)
        rows = tn(clip).data.reshape(97, 40).T
        stack = tn_traces(traces, 1e-8)
        assert stack.shape == traces.shape
        assert np.max(np.abs(stack - rows)) <= 1e-12

    def test_too_few_frames(self):
        with pytest.raises(ValueError, match="^temporal normalization needs at least 3 frames, got 2$"):
            tn(FrameClip(np.zeros((2, 2, 2, 1)), 30.0))
        # the trace-major entry has the kernel's one check and message
        with pytest.raises(ValueError, match="^temporal normalization needs at least 3 frames, got 2$"):
            tn_traces(np.zeros((4, 2)), 1e-8)

    def test_an_overflowing_clip_raises_only_the_clip_check(self, overflowing_clip):
        # pytest turns numpy's overflow warning into an error
        with pytest.raises(ValueError, match="^clip data must not contain NaN or Inf$"):
            tn(overflowing_clip)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_trace_stack_rejects_non_finite_traces(self, bad):
        with pytest.raises(ValueError, match="^traces must not contain NaN or Inf$"):
            tn_traces(np.array([[bad, 1.0, 2.0, 0.5]]), 1e-8)

    def test_trace_stack_rejects_a_result_that_overflows(self, overflowing_clip):
        traces = overflowing_clip.data.reshape(40, -1).T
        with pytest.raises(ValueError, match="^normalized traces must not contain NaN or Inf$"):
            tn_traces(traces, 1e-8)

    @pytest.mark.parametrize(
        "eps",
        [
            0.0, -1e-8, float("nan"), float("inf"), pytest.param(10**400, id="int_beyond_float"),
            # float() takes each of these, but none is a guard
            True, np.True_, "1e-8", b"1e-8",
            # and float() takes neither of these
            None, [1e-8],
        ],
    )
    def test_trace_stack_rejects_bad_epsilon(self, eps):
        with pytest.raises(ValueError, match="epsilon must be finite and > 0"):
            tn_traces(np.ones((2, 10)), eps)
        # every public entry that takes the guard checks it, with one message
        for call in (
            lambda: tn(FrameClip(np.ones((4, 2, 2, 1)), 30.0), eps),
            lambda: tn(FrameClip(np.ones((2, 2, 2, 1)), 30.0), eps),  # before the clip's length
            lambda: tn_trace(np.arange(4.0), eps),
            lambda: rms_normalize(np.arange(4.0), eps),
            lambda: extract_tn_pooled(FrameClip(np.ones((4, 2, 2, 3)), 30.0), eps),
            lambda: noise_feature_ratios(SceneSpec(), synth_pulse(PulseSpec(72.0), 30.0, 30), NO_NOISE, 2, 2, eps),
        ):
            with pytest.raises(ValueError, match="epsilon must be finite and > 0"):
                call()
        # a config's number fields are checked for their type first
        numeric = isinstance(eps, (int, float)) and not isinstance(eps, bool)
        message = "epsilon must be finite and > 0" if numeric else "epsilon must be a number"
        with pytest.raises(ValueError, match=message):
            PipelineConfig(epsilon=eps)


class TestBlockwiseKernel:
    """The kernel's row blocks, shrunk so that T spans many blocks and a ragged last one."""

    @pytest.fixture(autouse=True)
    def small_blocks(self, monkeypatch):
        # 48 traces of 8 bytes: 7 rows per block, and 100 = 14 * 7 + 2
        monkeypatch.setattr(_kernels_np, "_BLOCK_BYTES", 7 * 48 * 8)

    def test_matches_oracle(self):
        rng = np.random.default_rng(13)
        data = rng.random((100, 4, 4, 3))
        data[:, 0, 0] = data[:1, 0, 0]  # dead traces
        out = tn(FrameClip(data, 30.0)).data
        assert np.all(out[:, 0, 0] == 0.0)
        live = [(i, j, k) for i in range(4) for j in range(4) for k in range(3) if (i, j) != (0, 0)]
        err = max(np.max(np.abs(out[:, i, j, k] - tn_trace(data[:, i, j, k]))) for i, j, k in live)
        assert err <= 1e-12

    def test_exact_offset_invariance(self):
        rng = np.random.default_rng(14)
        y = (rng.integers(0, 2**20, (1, 4, 4, 3)) + rng.integers(-(2**12), 2**12, (100, 4, 4, 3))) * 2.0**-20
        assert np.array_equal(tn(FrameClip(y + 1024.0, 30.0)).data, tn(FrameClip(y, 30.0)).data)


def test_float32_clip_normalizes_as_its_float64_widening(f32_read):
    clip, wide = f32_read
    out = tn(clip).data
    assert out.dtype == np.float64
    assert out.tobytes() == tn(wide).data.tobytes()


def test_kernel_widens_float32_traces_exactly(f32_read):
    # the (T, n) float32 view that tn hands the kernel for a decoded f32 clip
    clip, _ = f32_read
    traces = clip.data.reshape(clip.frames, -1)
    widened = traces.astype(np.float64)
    assert _kernels_np.tn_traces(traces, EPSILON).tobytes() == _kernels_np.tn_traces(widened, EPSILON).tobytes()


def test_trace_stack_allocates_its_output_and_one_block():
    # a float32 (n, T) stack goes to the kernel as its (T, n) view, unwidened, as in
    # the kernel's own pin below
    stack = np.random.default_rng(3).random((256, 900)).astype(np.float32)
    tracemalloc.start()
    try:
        held = tracemalloc.get_traced_memory()[0]
        out = tn_traces(stack, EPSILON)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - held < out.nbytes + 2 * _kernels_np._BLOCK_BYTES


def test_kernel_allocates_its_output_and_one_block():
    # a (T, n) float32 view, as tn hands the kernel a band of a decoded green channel:
    # astype widens it into the output; beside it the kernel holds one block of the
    # slope product, and numpy's ufunc buffers for that product's broadcast operands,
    # which are smaller than a block; a second (T, n) array would break the bound
    data = np.random.default_rng(31).random((900, 16, 16, 3)).astype(np.float32)
    traces = data[:, :, :, 1:2].reshape(900, -1)
    assert np.shares_memory(traces, data)
    tracemalloc.start()
    try:
        held = tracemalloc.get_traced_memory()[0]
        out = _kernels_np.tn_traces(traces, EPSILON)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - held < out.nbytes + 2 * _kernels_np._BLOCK_BYTES
