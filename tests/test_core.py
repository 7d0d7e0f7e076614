import numpy as np
import pytest

from pulse_tn import FrameClip, Waveform, pool_spatial, segment_waveform


def make_clip(t=10, h=4, w=4, c=3, fill=0.5, fps=30.0):
    return FrameClip(np.full((t, h, w, c), fill), fps)


class TestFrameClip:
    def test_accepts_valid_tensor(self):
        clip = make_clip()
        assert clip.frames == 10
        assert clip.channels == 3
        assert clip.data.dtype == np.float64

    @pytest.mark.parametrize(
        "shape", [(10, 4, 4), (1, 4, 4, 3), (10, 0, 4, 3), (10, 4, 4, 2), (10, 4, 4, 4)]
    )
    def test_rejects_bad_shape(self, shape):
        with pytest.raises(ValueError):
            FrameClip(np.zeros(shape), 30.0)

    def test_rejects_nonfinite(self):
        data = np.zeros((4, 2, 2, 1))
        data[2, 0, 0, 0] = np.nan
        with pytest.raises(ValueError):
            FrameClip(data, 30.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("channel", [0, 1, 2])
    def test_rejects_nonfinite_in_any_channel(self, channel, bad):
        data = np.full((4, 2, 2, 3), 0.5)
        data[1, 1, 0, channel] = bad
        with pytest.raises(ValueError, match="^clip data must not contain NaN or Inf$"):
            FrameClip(data, 30.0)

    @pytest.mark.parametrize("fps", [0.0, -1.0, np.nan, np.inf])
    def test_rejects_bad_fps(self, fps):
        with pytest.raises(ValueError):
            make_clip(fps=fps)


class TestWaveform:
    def test_roundtrip(self):
        w = Waveform([0.0, 1.0, 2.0], 30.0)
        assert len(w) == 3
        assert w.duration_s == pytest.approx(0.1)

    def test_rejects_short_or_nonfinite(self):
        with pytest.raises(ValueError):
            Waveform([1.0], 30.0)
        with pytest.raises(ValueError):
            Waveform([1.0, np.inf], 30.0)


class TestSegmentWaveform:
    def test_exact_division(self):
        w = Waveform(np.arange(45 * 30, dtype=float), 30.0)
        segments = segment_waveform(w, 15.0)
        assert len(segments) == 3
        assert all(len(s) == 450 for s in segments)

    def test_trailing_remainder_discarded(self):
        w = Waveform(np.arange(40 * 30, dtype=float), 30.0)
        segments = segment_waveform(w, 15.0)
        assert len(segments) == 2
        assert sum(len(s) for s in segments) == 900

    def test_shorter_than_one_segment(self):
        w = Waveform(np.arange(10 * 30, dtype=float), 30.0)
        assert segment_waveform(w, 15.0) == []

    def test_segment_too_short_rejected(self):
        w = Waveform(np.arange(100, dtype=float), 30.0)
        with pytest.raises(ValueError):
            segment_waveform(w, 0.01)

    def test_concatenation_reproduces_prefix(self):
        rng = np.random.default_rng(3)
        w = Waveform(rng.normal(size=1000), 25.0)
        segments = segment_waveform(w, 3.0)
        joined = np.concatenate([s.samples for s in segments])
        assert np.array_equal(joined, w.samples[: joined.size])


class TestPoolSpatial:
    def test_constant_frame(self):
        clip = make_clip(t=5, h=2, w=2, c=1, fill=0.5)
        assert np.allclose(pool_spatial(clip).samples, 0.5)

    def test_symmetric_mean(self):
        data = np.zeros((2, 2, 2, 1))
        data[:, :, :, 0] = np.array([[0.0, 1.0], [1.0, 0.0]])
        w = pool_spatial(FrameClip(data, 30.0))
        assert np.allclose(w.samples, 0.5)

    def test_matches_bruteforce_sum(self):
        rng = np.random.default_rng(11)
        data = rng.random((6, 4, 4, 3))[..., 2:]
        clip = FrameClip(data, 30.0)
        w = pool_spatial(clip)
        for t in range(6):
            total = 0.0
            for i in range(4):
                for j in range(4):
                    total += data[t, i, j, 0]
            assert w.samples[t] == pytest.approx(total / 16, abs=1e-12)

    def test_linearity(self):
        rng = np.random.default_rng(5)
        x = rng.random((8, 3, 5, 3))[..., 1:2]
        y = rng.random((8, 3, 5, 3))[..., 1:2]
        a, b = 2.25, -0.75
        lhs = pool_spatial(FrameClip(a * x + b * y, 30.0)).samples
        rhs = a * pool_spatial(FrameClip(x, 30.0)).samples + b * pool_spatial(FrameClip(y, 30.0)).samples
        assert np.max(np.abs(lhs - rhs)) < 1e-12

    def test_three_channel_clip_refused(self):
        with pytest.raises(ValueError, match="one-channel clip, got 3 channels"):
            pool_spatial(make_clip(c=3))
