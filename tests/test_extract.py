import tracemalloc

import numpy as np
import pytest

from pulse_tn import (
    ExtractorKind,
    FrameClip,
    LinearNoise,
    NoiseSpec,
    PipelineConfig,
    PulseSpec,
    SceneSpec,
    Waveform,
    bandpass,
    diff_normalized,
    extract_diff_pooled,
    extract_green,
    extract_tn_pooled,
    pool_spatial,
    render_ideal,
    render_noisy,
    run_extractor,
    synth_pulse,
    tn,
    video_hr,
    welch_psd,
)
from pulse_tn import core
from pulse_tn import diff as diff_module
from pulse_tn import extract as extract_module

WELCH_BIN_BPM = 60.0 * 30.0 / 3300.0


def ideal_clip(hr=72.0, frames=600, seed=11, amplitude=0.005):
    scene = SceneSpec(jitter_seed=seed)
    pulse = synth_pulse(PulseSpec(hr_bpm=hr, amplitude=amplitude), 30.0, frames)
    return render_ideal(scene, pulse, 8, 8), scene, pulse


def psd_peak_hz(w):
    ps = welch_psd(bandpass(w), PipelineConfig(window_len=min(256, len(w))))
    return ps.freqs[np.argmax(ps.power)]


class TestExtractGreen:
    def test_constant_clip(self):
        clip = FrameClip(np.full((10, 4, 4, 3), 0.3), 30.0)
        assert np.allclose(extract_green(clip).samples, 0.3)

    def test_matches_pooled_reflectance_model(self):
        clip, scene, pulse = ideal_clip(frames=90)
        vd_mean = scene.diffuse_field(8, 8)[:, :, 1].mean()
        expected = scene.illumination[1] * (0.2 + vd_mean * (1.0 + pulse.samples))
        assert np.max(np.abs(extract_green(clip).samples - expected)) < 1e-12

    def test_scaling(self):
        rng = np.random.default_rng(0)
        data = rng.random((10, 3, 3, 3))
        one = extract_green(FrameClip(data, 30.0)).samples
        three = extract_green(FrameClip(3.0 * data, 30.0)).samples
        assert np.allclose(three, 3.0 * one, atol=1e-14)

    def test_single_channel_uses_channel_zero(self):
        rng = np.random.default_rng(1)
        data = rng.random((10, 3, 3, 1))
        w = extract_green(FrameClip(data, 30.0))
        assert np.allclose(w.samples, data[:, :, :, 0].mean(axis=(1, 2)))


class TestExtractTnPooled:
    def test_psd_peak_at_pulse_rate(self):
        clip, _, _ = ideal_clip()
        peak = psd_peak_hz(extract_tn_pooled(clip))
        assert abs(peak - 1.2) <= 30.0 / 3300.0

    def test_affine_only_clip_nearly_silent(self):
        t = np.arange(120, dtype=float)
        rng = np.random.default_rng(2)
        gains = rng.uniform(0.5, 1.5, (1, 4, 4, 3))
        data = gains * (0.4 + 0.0005 * t)[:, None, None, None]
        w = extract_tn_pooled(FrameClip(data, 30.0))
        assert np.sqrt(np.mean(w.samples**2)) <= 1e-3

    def test_gain_and_drift_invariance(self):
        clip, _, _ = ideal_clip(frames=300)
        t = np.arange(300, dtype=float)[:, None, None, None]
        shifted = FrameClip(2.0 * clip.data + 0.1 + 0.0001 * t, 30.0)
        a = extract_tn_pooled(clip, 1e-12).samples
        b = extract_tn_pooled(shifted, 1e-12).samples
        assert np.max(np.abs(a - b)) < 1e-6

    def test_green_raw_is_not_invariant(self):
        clip, _, _ = ideal_clip(frames=300)
        shifted = FrameClip(2.0 * clip.data + 0.1, 30.0)
        a = extract_green(clip).samples
        b = extract_green(shifted).samples
        assert np.max(np.abs(a - b)) > 0.05

    def test_output_zero_mean(self):
        clip, _, _ = ideal_clip(frames=150)
        w = extract_tn_pooled(clip)
        assert abs(w.samples.mean()) < 1e-9

    @pytest.mark.parametrize("kind", ["random", "u8", "dead", "min_t", "one_channel"])
    def test_matches_pooled_full_tn(self, kind):
        rng = np.random.default_rng(15)
        if kind == "random":
            data = rng.random((40, 5, 4, 3))
        elif kind == "u8":
            data = rng.integers(0, 256, (60, 4, 4, 3)) / 255.0
        elif kind == "dead":
            data = rng.random((45, 3, 3, 3))
            data[:, :2] = rng.random((1, 2, 3, 3))
        elif kind == "min_t":
            data = rng.random((3, 4, 4, 3))
        else:
            data = rng.random((30, 4, 4, 1))
        clip = FrameClip(data, 30.0)
        green = 1 if clip.channels == 3 else 0
        expected = tn(clip).data[..., green].mean(axis=(1, 2))
        assert np.max(np.abs(extract_tn_pooled(clip).samples - expected)) <= 1e-12


class TestExtractDiffPooled:
    def test_differences_only_the_green_channel(self, monkeypatch):
        seen = []
        original = extract_module.diff_normalized
        monkeypatch.setattr(extract_module, "diff_normalized", lambda clip: seen.append(clip.channels) or original(clip))
        extract_diff_pooled(FrameClip(np.random.default_rng(16).random((10, 2, 2, 3)), 30.0))
        assert seen == [1]

    @pytest.mark.parametrize("channels", [3, 1])
    def test_equals_pooled_full_clip_difference(self, channels):
        clip = FrameClip(np.random.default_rng(17).random((40, 5, 7, channels)), 30.0)
        green = 1 if channels == 3 else 0
        expected = diff_normalized(clip).data[:, :, :, green].mean(axis=(1, 2))
        assert np.array_equal(extract_diff_pooled(clip).samples, expected)

    def test_constant_clip_silent(self):
        clip = FrameClip(np.full((10, 4, 4, 3), 0.3), 30.0)
        assert np.allclose(extract_diff_pooled(clip).samples, 0.0, atol=1e-12)

    def test_psd_peak_at_pulse_rate(self):
        clip, _, _ = ideal_clip()
        peak = psd_peak_hz(extract_diff_pooled(clip))
        assert abs(peak - 1.2) <= 30.0 / 3300.0

    def test_length_is_one_less(self):
        clip, _, _ = ideal_clip(frames=90)
        assert len(extract_diff_pooled(clip)) == 89

    def test_drift_response_scales_with_rate(self):
        scene = SceneSpec(jitter_seed=4)
        pulse = synth_pulse(PulseSpec(hr_bpm=72.0, amplitude=0.0), 30.0, 300)
        rmss = []
        for total in (0.05, 0.10):
            noise = NoiseSpec(delta_illumination=(LinearNoise(total),))
            clip = render_noisy(scene, pulse, noise, 8, 8)
            rmss.append(float(np.sqrt(np.mean(extract_diff_pooled(clip).samples ** 2))))
        assert rmss[0] > 0
        assert rmss[1] / rmss[0] == pytest.approx(2.0, rel=0.05)


def band_clip(kind, rng):
    """A one-channel clip of the named kind, as decoded green clips are."""
    if kind == "random":
        data = rng.random((40, 7, 5, 1))
    elif kind == "dead":
        data = rng.random((45, 7, 5, 1))
        data[:, 2:5] = rng.random((1, 3, 5, 1))
    elif kind == "u8":
        data = rng.integers(0, 256, (60, 7, 5, 1)) / 255.0
    elif kind == "dc_offset":
        data = 1e3 + rng.random((40, 7, 5, 1))
    elif kind == "min_t":
        data = rng.random((3, 7, 5, 1))
    else:  # "h_1": a clip one image row high
        data = rng.random((40, 1, 5, 1))
    return FrameClip(data, 30.0)


def set_band_rows(monkeypatch, clip, rows):
    """Size bands to `rows` image rows of `clip`."""
    frames, _, width, _ = clip.data.shape
    monkeypatch.setattr(extract_module, "_BAND_BYTES", rows * 8 * frames * width)


BANDED = [extract_tn_pooled, extract_diff_pooled]
EXTRACTORS = [extract_green, *BANDED]


def identity(clip):
    return clip


TRANSFORMS = [(extract_green, identity), (extract_tn_pooled, tn), (extract_diff_pooled, diff_normalized)]


class TestBands:
    @pytest.mark.parametrize("extractor", EXTRACTORS)
    @pytest.mark.parametrize("rows", [1, 3])  # 7 rows in bands of 3 leave a ragged last band
    @pytest.mark.parametrize("kind", ["random", "dead", "u8", "dc_offset", "min_t", "h_1"])
    def test_bands_match_one_band(self, monkeypatch, extractor, rows, kind):
        clip = band_clip(kind, np.random.default_rng(23))
        whole = extractor(clip).samples
        set_band_rows(monkeypatch, clip, rows)
        banded = extractor(clip).samples
        assert np.max(np.abs(banded - whole)) <= 1e-12 * np.max(np.abs(whole))

    @pytest.mark.parametrize("extractor, transform", TRANSFORMS)
    @pytest.mark.parametrize("channels", [3, 1])
    def test_one_band_is_the_single_call(self, extractor, transform, channels):
        clip = FrameClip(np.random.default_rng(24).random((50, 6, 5, channels)), 30.0)
        g = 1 if channels == 3 else 0
        green = FrameClip(clip.data[..., g : g + 1], 30.0)
        assert np.array_equal(extractor(clip).samples, pool_spatial(transform(green)).samples)

    @pytest.mark.parametrize("threads", ["1", "2"])
    @pytest.mark.parametrize("extractor, transform", TRANSFORMS)
    def test_band_means_are_summed_in_band_order(self, monkeypatch, extractor, transform, threads):
        # the serial loop's sum, bit for bit, on one worker and on two
        monkeypatch.setattr(core.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        monkeypatch.setenv("PULSE_TN_THREADS", threads)
        clip = band_clip("dc_offset", np.random.default_rng(30))
        set_band_rows(monkeypatch, clip, 2)
        total = 0.0
        for start in range(0, 7, 2):
            band = FrameClip(clip.data[:, start : start + 2], 30.0)
            total = total + band.data.shape[1] / 7 * pool_spatial(transform(band)).samples
        assert extractor(clip).samples.tobytes() == total.tobytes()

    @pytest.mark.parametrize("extractor", BANDED)
    def test_each_band_is_one_transform_of_a_view(self, monkeypatch, extractor):
        clip = band_clip("random", np.random.default_rng(25))
        set_band_rows(monkeypatch, clip, 3)
        calls = []
        check = FrameClip.__post_init__
        monkeypatch.setattr(FrameClip, "__post_init__", lambda self: calls.append(self) or check(self))
        extractor(clip)
        assert len(calls) == 3  # the transform's output of each of the 3 bands; band views are not checked

    @pytest.mark.parametrize("extractor", EXTRACTORS)
    def test_peak_is_the_green_clip_plus_a_few_bands(self, monkeypatch, extractor):
        # one worker: with more, as many bands as workers are in flight at once
        monkeypatch.setenv("PULSE_TN_THREADS", "1")
        tracemalloc.start()
        try:
            clip = FrameClip(np.random.default_rng(26).random((300, 32, 32, 1)), 30.0)
            set_band_rows(monkeypatch, clip, 4)
            band_bytes = clip.data.nbytes // 8  # 32 rows in 8 bands of 4
            tracemalloc.reset_peak()
            held = tracemalloc.get_traced_memory()[0]
            extractor(clip)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - held < 3 * band_bytes

    @pytest.mark.parametrize("extractor", EXTRACTORS)
    def test_peak_is_the_green_clip_plus_a_few_bands_per_worker(self, monkeypatch, extractor):
        monkeypatch.setattr(core.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        monkeypatch.setenv("PULSE_TN_THREADS", "2")
        tracemalloc.start()
        try:
            # 600 frames keep a 2-row band above numpy's 256 KiB temporary-elision
            # threshold, as the 4-row bands of 300 frames above are
            clip = FrameClip(np.random.default_rng(26).random((600, 32, 32, 1)), 30.0)
            set_band_rows(monkeypatch, clip, 2)
            band_bytes = clip.data.nbytes // 16  # 32 rows in 16 bands of 2
            tracemalloc.reset_peak()
            held = tracemalloc.get_traced_memory()[0]
            extractor(clip)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - held < 2 * 3 * band_bytes

    def test_diff_widens_a_float32_band_once(self):
        # the green channel of an f32 payload, in one band: its float64 widening, of which
        # the differences are a view, and diff's scratch block, which is freed before the
        # smaller finiteness mask of the differences; a second float64 band breaks the bound
        data = np.random.default_rng(27).random((600, 16, 16, 1)).astype(np.float32)
        assert data[1:].size < diff_module._BLOCK_BYTES
        clip = FrameClip._checked(data, 30.0)
        tracemalloc.start()
        try:
            held = tracemalloc.get_traced_memory()[0]
            extract_diff_pooled(clip)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - held < 2 * data.nbytes + diff_module._BLOCK_BYTES + 16384


class TestRunExtractor:
    def test_dispatch_matches_direct_calls(self):
        clip, _, _ = ideal_clip(frames=120)
        assert np.array_equal(
            run_extractor(ExtractorKind.GREEN_RAW, clip).samples, extract_green(clip).samples
        )
        assert np.array_equal(
            run_extractor(ExtractorKind.TN_POOLED, clip).samples,
            extract_tn_pooled(clip).samples,
        )
        assert np.array_equal(
            run_extractor(ExtractorKind.DIFF_POOLED, clip).samples,
            extract_diff_pooled(clip).samples,
        )

    def test_kind_must_be_an_extractor_kind(self):
        clip = FrameClip(np.full((10, 2, 2, 3), 0.6), 30.0)
        with pytest.raises(ValueError, match="^unknown extractor kind 'tn_pooled'$"):
            run_extractor("tn_pooled", clip)

    def test_constant_clip_green(self):
        clip = FrameClip(np.full((10, 2, 2, 3), 0.6), 30.0)
        w = run_extractor(ExtractorKind.GREEN_RAW, clip)
        assert np.allclose(w.samples, 0.6)

    def test_diff_length_contract(self):
        clip, _, _ = ideal_clip(frames=90)
        assert len(run_extractor(ExtractorKind.DIFF_POOLED, clip)) == 89

    @pytest.mark.parametrize(
        "kind, validated", [(ExtractorKind.GREEN_RAW, 0), (ExtractorKind.TN_POOLED, 1), (ExtractorKind.DIFF_POOLED, 1)]
    )
    def test_green_view_is_not_validated_again(self, monkeypatch, kind, validated):
        # the source clip was checked when it was built; only a transform's output is new data
        clip, _, _ = ideal_clip(frames=60)
        calls = []
        check = FrameClip.__post_init__
        monkeypatch.setattr(FrameClip, "__post_init__", lambda self: calls.append(self) or check(self))
        run_extractor(kind, clip)
        assert len(calls) == validated


@pytest.mark.parametrize("kind", list(ExtractorKind))
def test_float32_green_channel_extracts_as_its_float64_widening(f32_green, kind):
    clip, wide = f32_green
    assert run_extractor(kind, clip).samples.tobytes() == run_extractor(kind, wide).samples.tobytes()


class TestExtractorAgreement:
    def test_noise_free_extractors_agree_within_one_bin(self):
        clip, _, _ = ideal_clip()
        rates = [video_hr(run_extractor(kind, clip)) for kind in ExtractorKind]
        for a in rates:
            for b in rates:
                assert abs(a - b) <= WELCH_BIN_BPM

    def test_drift_correlation_favors_tn(self):
        noise = NoiseSpec(delta_illumination=(LinearNoise(0.08),))
        for seed in (0, 1, 2):
            scene = SceneSpec(jitter_seed=seed)
            pulse = synth_pulse(PulseSpec(hr_bpm=72.0), 30.0, 450)
            clip = render_noisy(scene, pulse, noise, 8, 8)
            vp = bandpass(Waveform(pulse.samples, 30.0)).samples
            vp_m1 = bandpass(Waveform(pulse.samples[:-1], 30.0)).samples
            r_tn = np.corrcoef(bandpass(extract_tn_pooled(clip)).samples, vp)[0, 1]
            r_diff = np.corrcoef(bandpass(extract_diff_pooled(clip)).samples, vp_m1)[0, 1]
            assert r_tn >= r_diff
