import tracemalloc

import numpy as np
import pytest

from pulse_tn import (
    FrameClip,
    LinearNoise,
    NO_NOISE,
    NoiseSpec,
    PulseSpec,
    SceneSpec,
    StepNoise,
    SinusoidNoise,
    diff_normalized,
    frame_diff,
    render_ideal,
    synth_pulse,
    tn,
    render_noisy,
)
from pulse_tn import diff as diff_module
from pulse_tn.diff import DIFF_DENOM_GUARD


def rms(a):
    return float(np.sqrt(np.mean(np.square(a))))


def diff_noise_residual(scene, pulse, noise, height, width):
    """Noise leakage in difference-feature space, with a shared jitter realization."""
    noisy = frame_diff(render_noisy(scene, pulse, noise, height, width)).data
    return noisy - frame_diff(render_ideal(scene, pulse, height, width)).data


@pytest.mark.parametrize("transform", [frame_diff, diff_normalized])
class TestDiffContract:
    def test_returns_one_frame_fewer_at_the_input_rate(self, transform):
        clip = FrameClip(np.random.default_rng(3).uniform(0.2, 0.8, (5, 2, 3, 3)), 25.0)
        out = transform(clip)
        assert isinstance(out, FrameClip)
        assert out.data.shape == (4, 2, 3, 3)
        assert out.fps == 25.0

    def test_two_frame_input_is_rejected(self, transform):
        with pytest.raises(ValueError, match="clip needs at least 2 frames, got 1"):
            transform(FrameClip(np.full((2, 1, 1, 1), 0.5), 30.0))

    def test_an_overflowing_clip_raises_only_the_clip_check(self, transform, overflowing_clip):
        # pytest turns numpy's overflow warning into an error
        with pytest.raises(ValueError, match="^clip data must not contain NaN or Inf$"):
            transform(overflowing_clip)


class TestFrameDiff:
    def test_constant_clip(self):
        clip = FrameClip(np.full((6, 2, 2, 3), 0.4), 30.0)
        out = frame_diff(clip)
        assert out.frames == 5
        assert np.array_equal(out.data, np.zeros_like(out.data))

    def test_affine_clip_gives_constant_slope(self):
        t = np.arange(10, dtype=float)
        rng = np.random.default_rng(0)
        slopes = rng.uniform(-0.01, 0.01, (1, 3, 3, 1))
        clip = FrameClip(slopes * t[:, None, None, None] + 0.5, 30.0)
        out = frame_diff(clip)
        assert np.allclose(out.data, np.broadcast_to(slopes, out.data.shape), atol=1e-14)

    def test_rendered_ideal_difference(self):
        scene = SceneSpec(jitter_seed=6)
        pulse = synth_pulse(PulseSpec(hr_bpm=72.0), 30.0, 90)
        clip = render_ideal(scene, pulse, 4, 4)
        out = frame_diff(clip)
        vd = scene.diffuse_field(4, 4)
        dvp = np.diff(pulse.samples)
        expected = scene.illumination * vd * dvp[:, None, None, None]
        assert np.max(np.abs(out.data - expected)) < 1e-12

    def test_linearity_and_cumsum_recovery(self):
        rng = np.random.default_rng(1)
        x = rng.random((12, 2, 2, 1))
        y = rng.random((12, 2, 2, 1))
        lhs = frame_diff(FrameClip(3.0 * x - 0.5 * y, 30.0)).data
        rhs = 3.0 * frame_diff(FrameClip(x, 30.0)).data - 0.5 * frame_diff(FrameClip(y, 30.0)).data
        assert np.max(np.abs(lhs - rhs)) < 1e-12

        summand = rng.random((11, 2, 2, 1))
        cum = np.concatenate([np.zeros((1, 2, 2, 1)), np.cumsum(summand, axis=0)])
        recovered = frame_diff(FrameClip(cum, 30.0)).data
        assert np.max(np.abs(recovered - summand)) < 1e-12


class TestDiffNormalized:
    def test_constant_clip_is_zero(self):
        clip = FrameClip(np.full((6, 2, 2, 1), 0.8), 30.0)
        assert np.allclose(diff_normalized(clip).data, 0.0, atol=1e-12)

    def test_two_frame_arithmetic(self):
        data = np.zeros((3, 1, 1, 1))
        data[0] = 0.4
        data[1] = 0.6
        data[2] = 0.2
        out = diff_normalized(FrameClip(data, 30.0))
        assert out.data[0, 0, 0, 0] == pytest.approx(0.2, abs=1e-6)
        assert out.data[1, 0, 0, 0] == pytest.approx(-0.5, abs=1e-6)

    def test_zero_denominator_is_rejected(self):
        # both frames at -guard/2: the guarded sum is exactly 0, so the ratio is 0/0
        data = np.full((3, 1, 1, 1), -DIFF_DENOM_GUARD / 2)
        with pytest.raises(ValueError, match="clip data must not contain NaN or Inf"):
            diff_normalized(FrameClip(data, 30.0))

    def test_gain_invariance(self):
        rng = np.random.default_rng(2)
        data = rng.uniform(0.2, 0.8, (20, 3, 3, 3))
        base = diff_normalized(FrameClip(data, 30.0)).data
        scaled = diff_normalized(FrameClip(2.7 * data, 30.0)).data
        assert np.max(np.abs(base - scaled)) < 1e-6

    @pytest.mark.parametrize("scale", [1.0, 1e3, 1e-300, "u8"])
    def test_equals_the_guarded_ratio_bit_for_bit(self, scale):
        data = np.random.default_rng(5).random((40, 3, 4, 3))
        data = np.round(255 * data) / 255 if scale == "u8" else scale * data
        a, b = data[1:], data[:-1]
        assert np.array_equal(diff_normalized(FrameClip(data, 30.0)).data, (a - b) / (a + b + DIFF_DENOM_GUARD))

    def test_peak_is_the_widened_clip_plus_one_scratch_block(self):
        # the output is a view of the clip widened once; its finiteness mask, one
        # byte a sample and smaller than the block, is taken once the block is freed
        clip = FrameClip(np.random.default_rng(7).random((600, 4, 32, 1)), 30.0)
        assert clip.data[1:].size < diff_module._BLOCK_BYTES
        tracemalloc.start()
        try:
            held = tracemalloc.get_traced_memory()[0]
            diff_normalized(clip)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - held < clip.data.nbytes + diff_module._BLOCK_BYTES + 4096


def guarded_ratio(data):
    """The quotient diff_normalized computes, in one expression of float64 arrays."""
    a, b = data[1:].astype(np.float64), data[:-1].astype(np.float64)
    return (a - b) / (a + b + DIFF_DENOM_GUARD)


def assert_same_bits(out, expected):
    assert out.dtype == expected.dtype and out.shape == expected.shape
    assert out.tobytes() == expected.tobytes()


class TestBlockwiseDiff:
    """diff_normalized's scratch blocks, shrunk so that T spans many blocks and a ragged last one."""

    @pytest.fixture(autouse=True)
    def small_blocks(self, monkeypatch):
        # 8 samples per block: no frame below is a whole number of blocks, and every
        # clip's (T - 1) x frame output samples end in a ragged block
        monkeypatch.setattr(diff_module, "_BLOCK_BYTES", 8 * 8)

    def test_a_strided_float32_band(self):
        # the green channel of an f32 payload, cut into image-row bands as _banded_pool cuts it
        data = np.random.default_rng(8).random((50, 7, 5, 3)).astype(np.float32)
        band = data[:, 3:6, :, 1:2]
        assert not band.flags.c_contiguous
        assert_same_bits(diff_normalized(FrameClip._checked(band, 30.0)).data, guarded_ratio(band))

    def test_three_frames(self):
        data = np.random.default_rng(9).random((3, 2, 5, 1))
        assert_same_bits(diff_normalized(FrameClip(data, 30.0)).data, guarded_ratio(data))

    def test_one_frame_blocks(self, monkeypatch):
        data = np.random.default_rng(10).random((20, 3, 4, 3))
        monkeypatch.setattr(diff_module, "_BLOCK_BYTES", 8 * 3 * 4 * 3)
        assert_same_bits(diff_normalized(FrameClip(data, 30.0)).data, guarded_ratio(data))

    @pytest.mark.parametrize("scale", [1e3, 1e-300, "u8"])
    def test_equals_the_guarded_ratio_bit_for_bit(self, scale):
        data = np.random.default_rng(5).random((40, 3, 4, 3))
        data = np.round(255 * data) / 255 if scale == "u8" else scale * data
        assert_same_bits(diff_normalized(FrameClip(data, 30.0)).data, guarded_ratio(data))

    def test_a_zero_denominator_in_the_last_block_is_rejected(self):
        # the last output sample, 0/0, is in the ragged block of 54 = 6 x 8 + 6 samples
        data = np.random.default_rng(11).random((10, 2, 3, 1))
        data[-2:, -1, -1] = -DIFF_DENOM_GUARD / 2
        with pytest.raises(ValueError, match="clip data must not contain NaN or Inf"):
            diff_normalized(FrameClip(data, 30.0))


class TestDiffNoiseResidual:
    def test_zero_noise(self):
        scene = SceneSpec(jitter_seed=3)
        pulse = synth_pulse(PulseSpec(hr_bpm=72.0), 30.0, 60)
        res = diff_noise_residual(scene, pulse, NO_NOISE, 3, 3)
        assert np.array_equal(res, np.zeros_like(res))

    def test_linear_drift_rate(self):
        # drift ramps by total/(T-1) per frame, scaled by (v_s + v_d)
        scene = SceneSpec(pixel_jitter=0.0)
        pulse = synth_pulse(PulseSpec(hr_bpm=72.0, amplitude=0.0), 30.0, 300)
        noise = NoiseSpec(delta_illumination=(LinearNoise(0.06),))
        res = diff_noise_residual(scene, pulse, noise, 4, 4)
        rate = 0.06 / 299
        assert np.allclose(res, rate * 0.7, atol=1e-12)

    def test_step_noise_single_spike(self):
        scene = SceneSpec(jitter_seed=3)
        pulse = synth_pulse(PulseSpec(hr_bpm=72.0, amplitude=0.0), 30.0, 300)
        noise = NoiseSpec(delta_illumination=(StepNoise(t0_s=5.0, gain=0.05),))
        res = diff_noise_residual(scene, pulse, noise, 4, 4)
        frame_peaks = np.abs(res).max(axis=(1, 2, 3))
        nonzero = np.where(frame_peaks > 0)[0]
        assert nonzero.tolist() == [int(5.0 * 30) - 1]


class TestComparativeSuppression:
    def test_tn_leaks_an_order_less_drift_than_differences(self):
        # regime: pure affine drift on 15-second clips; see the harness notes
        # for why longer clips or band-limited wobble close the gap
        noise = NoiseSpec(delta_illumination=(LinearNoise(0.10),))
        pulse = synth_pulse(PulseSpec(hr_bpm=72.0), 30.0, 450)
        for seed in range(3):
            scene = SceneSpec(jitter_seed=seed)
            ideal = render_ideal(scene, pulse, 8, 8)
            noisy = render_noisy(scene, pulse, noise, 8, 8)
            tn_ratio = rms(tn(noisy).data - tn(ideal).data) / rms(tn(ideal).data)
            fd_ratio = rms(frame_diff(noisy).data - frame_diff(ideal).data) / rms(
                frame_diff(ideal).data
            )
            assert tn_ratio <= 0.1 * fd_ratio


@pytest.mark.parametrize("transform", [frame_diff, diff_normalized])
def test_float32_clip_transforms_as_its_float64_widening(f32_read, transform):
    clip, wide = f32_read
    out = transform(clip).data
    assert out.dtype == np.float64
    assert out.tobytes() == transform(wide).data.tobytes()
