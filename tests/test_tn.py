import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pulse_tn import (
    FrameClip,
    TnConfig,
    detrend,
    fit_trend,
    rms_normalize,
    tn,
    tn_trace,
    tn_traces,
)

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
        out = rms_normalize([-0.2, 0.6, -0.6, 0.2], TnConfig(epsilon=1e-15))
        assert np.allclose(out, TN_0101, atol=1e-6)

    def test_scale_invariance_small_epsilon(self):
        rng = np.random.default_rng(2)
        y = rng.normal(size=32)
        cfg = TnConfig(epsilon=1e-16)
        for a in (0.5, 3.0, 117.0):
            assert np.max(np.abs(rms_normalize(a * y, cfg) - rms_normalize(y, cfg))) < 1e-9


class TestTnTrace:
    def test_single_pixel_composition(self):
        out = tn_trace([0.0, 1.0, 0.0, 1.0], TnConfig(epsilon=1e-12))
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
        cfg = TnConfig(epsilon=1e-16)
        t = np.arange(n, dtype=float)
        delta = np.abs(tn_trace(a * x + b + c * t, cfg) - tn_trace(x, cfg))
        assert delta.max() < 1e-6

    def test_sign_equivariance_is_exact(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            x = rng.normal(size=rng.integers(3, 100))
            assert np.array_equal(tn_trace(-x), -tn_trace(x))

    def test_output_statistics(self):
        rng = np.random.default_rng(4)
        cfg = TnConfig()
        for _ in range(30):
            x = rng.uniform(-1.0, 1.0, 96)
            out = tn_trace(x, cfg)
            ms = float(np.mean(detrend(x) ** 2))
            assert abs(out.mean()) <= 1e-9
            expected_rms = np.sqrt(ms / (ms + cfg.epsilon))
            assert np.sqrt(np.mean(out**2)) == pytest.approx(expected_rms, abs=1e-9)
            if ms >= 1e4 * cfg.epsilon:
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
        with pytest.raises(ValueError):
            tn(FrameClip(np.zeros((2, 2, 2, 1)), 30.0))

