import json
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import signal as sps

from pulse_tn import (
    DegenerateSignalError,
    ExtractorKind,
    PipelineConfig,
    PowerSpectrum,
    PulseSpec,
    SceneSpec,
    Waveform,
    bandpass,
    compute_metrics,
    hr_from_psd,
    parse_noise_string,
    render_noisy,
    run_extractor,
    segment_heart_rates,
    segment_waveform,
    synth_pulse,
    video_hr,
    welch_psd,
)
from pulse_tn import hr


def sinusoid(freq_hz, seconds, fps=30.0, amp=1.0):
    t = np.arange(int(seconds * fps)) / fps
    return Waveform(amp * np.sin(2 * np.pi * freq_hz * t), fps)


def band_of(cfg=PipelineConfig()):
    """The (low_hz, high_hz, order) that the cached filter design functions take."""
    return cfg.band_low_hz, cfg.band_high_hz, cfg.band_order


def scipy_sos(fps, low_hz=0.5, high_hz=3.0, order=4):
    return sps.butter(order // 2, [low_hz, high_hz], btype="bandpass", fs=fps, output="sos")


def butter_gain_sq(freq_hz, fps=30.0):
    """Oracle: squared magnitude response of the designed filter."""
    _, h = sps.sosfreqz(scipy_sos(fps), worN=[freq_hz], fs=fps)
    return float(np.abs(h[0]) ** 2)


class TestBandpass:
    def test_dc_is_rejected(self):
        out = bandpass(Waveform(np.ones(600), 30.0))
        assert np.sqrt(np.mean(out.samples**2)) <= 1e-3

    def test_passband_tone_survives(self):
        out = bandpass(sinusoid(1.2, 15.0)).samples
        amp = np.max(np.abs(out[60:-60]))
        assert 0.9 <= amp <= 1.0
        assert amp == pytest.approx(butter_gain_sq(1.2), abs=0.01)

    def test_stopband_tone_attenuated(self):
        out = bandpass(sinusoid(0.1, 15.0)).samples
        amp = np.max(np.abs(out[60:-60]))
        assert amp <= 0.1
        assert amp <= butter_gain_sq(0.1) + 0.01

    def test_low_fps_rejected(self):
        with pytest.raises(ValueError):
            bandpass(Waveform(np.zeros(100), 5.0))

    def test_short_waveform_rejected(self):
        with pytest.raises(ValueError):
            bandpass(Waveform(np.zeros(10), 30.0))

    def test_low_edge_too_near_zero_for_the_rate(self):
        # a section's two poles round to z = 1, where the settled state would divide by 0
        message = "band_low_hz 1e-08 Hz too low to filter at a sampling rate of 30.0 Hz"
        with pytest.raises(hr.SamplingRateError, match=f"^{re.escape(message)}$"):
            bandpass(sinusoid(1.2, 15.0), PipelineConfig(band_low_hz=1e-8))
        assert len(bandpass(sinusoid(1.2, 15.0), PipelineConfig(band_low_hz=1e-7))) == 450

    def test_length_preserved(self):
        out = bandpass(sinusoid(1.0, 15.0))
        assert len(out) == 450

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            PipelineConfig(band_low_hz=3.0, band_high_hz=0.5)
        with pytest.raises(ValueError):
            PipelineConfig(band_order=3)


class TestWelchPsd:
    def test_peak_at_exact_bin_frequency(self):
        # 1.2 Hz sits exactly on bin 132 of a 3300-point grid at 30 fps
        ps = welch_psd(sinusoid(1.2, 15.0))
        assert ps.freqs[np.argmax(ps.power)] == pytest.approx(1.2, abs=1e-12)

    def test_peak_within_one_bin(self):
        ps = welch_psd(sinusoid(1.234, 15.0))
        peak = ps.freqs[np.argmax(ps.power)]
        assert abs(peak - 1.234) <= 30.0 / 3300.0

    def test_frequency_grid(self):
        ps = welch_psd(sinusoid(1.0, 15.0))
        assert ps.freqs[0] == 0.0
        assert ps.freqs[-1] == pytest.approx(15.0)
        assert len(ps.freqs) == 3300 // 2 + 1

    def test_parseval_with_window_correction(self):
        rng = np.random.default_rng(7)
        w = Waveform(rng.normal(size=450), 30.0)
        ps = welch_psd(w)
        total = np.sum(ps.power) * (ps.freqs[1] - ps.freqs[0])
        assert total == pytest.approx(np.mean(w.samples**2), rel=0.05)

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"window_len": 256.0}, "window_len must be an integer, got 256.0"),
            ({"window_len": True}, "window_len must be an integer, got True"),
            ({"nfft": 3300.0}, "nfft must be an integer, got 3300.0"),
            ({"nfft": False}, "nfft must be an integer, got False"),
        ],
    )
    def test_non_integer_lengths_rejected(self, kwargs, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            PipelineConfig(**kwargs)

    def test_zero_padding_refines_but_never_moves_peak(self):
        w = sinusoid(1.27, 15.0)
        coarse = welch_psd(w, PipelineConfig(nfft=256))
        fine = welch_psd(w, PipelineConfig(nfft=3300))
        peak_coarse = coarse.freqs[np.argmax(coarse.power)]
        peak_fine = fine.freqs[np.argmax(fine.power)]
        assert abs(peak_coarse - peak_fine) <= 30.0 / 256.0
        total_coarse = np.sum(coarse.power) * (coarse.freqs[1] - coarse.freqs[0])
        total_fine = np.sum(fine.power) * (fine.freqs[1] - fine.freqs[0])
        assert total_coarse == pytest.approx(total_fine, rel=0.01)


class TestHrFromPsd:
    def test_unit_conversion(self):
        ps = PowerSpectrum([0.5, 1.0, 1.5], [0.0, 5.0, 0.0])
        assert hr_from_psd(ps) == pytest.approx(60.0)

    def test_72_bpm(self):
        ps = PowerSpectrum([0.8, 1.2, 2.0], [0.1, 9.0, 0.1])
        assert hr_from_psd(ps) == pytest.approx(72.0)

    def test_tie_breaks_low(self):
        ps = PowerSpectrum([1.0, 1.5, 2.0], [3.0, 1.0, 3.0])
        assert hr_from_psd(ps) == pytest.approx(60.0)

    def test_leak_across_an_edge_is_not_the_peak(self):
        # power falling from below the band into it: the edge bin is highest, not a local maximum
        ps = PowerSpectrum([0.25, 0.5, 1.0, 1.5, 2.0, 3.0, 3.5], [9.0, 8.0, 1.0, 2.0, 1.0, 7.0, 9.5])
        assert hr_from_psd(ps) == pytest.approx(90.0)

    def test_monotone_band_keeps_the_plain_maximum(self):
        freqs = np.linspace(0.25, 3.25, 13)
        assert hr_from_psd(PowerSpectrum(freqs, 13.0 - np.arange(13))) == pytest.approx(30.0)
        assert hr_from_psd(PowerSpectrum(freqs, 1.0 + np.arange(13))) == pytest.approx(180.0)

    def test_band_at_the_ends_of_the_spectrum(self):
        # a bin past either end of the spectrum counts as lower
        assert hr_from_psd(PowerSpectrum([0.5, 1.0, 1.5], [3.0, 1.0, 2.0])) == pytest.approx(30.0)
        assert hr_from_psd(PowerSpectrum([0.5, 1.0, 1.5], [1.0, 2.0, 3.0])) == pytest.approx(90.0)

    def test_plateau_peaks_at_its_lowest_bin(self):
        ps = PowerSpectrum([0.5, 1.0, 1.5, 2.0, 2.5], [1.0, 4.0, 4.0, 4.0, 1.0])
        assert hr_from_psd(ps) == pytest.approx(60.0)

    def test_rows_match_a_loop_over_bins(self):
        # small integer powers make ties, plateaus and edge maxima common
        rng = np.random.default_rng(13)
        freqs = np.linspace(0.0, 4.0, 17)
        power = rng.integers(0, 4, size=(400, 17)).astype(float)
        peak_hz, peak_power = hr._in_band_peak(freqs, power, PipelineConfig())
        for row, hz, p in zip(power, peak_hz, peak_power):
            band = [k for k in range(17) if 0.5 <= freqs[k] <= 3.0]
            local = [k for k in band if row[k - 1] < row[k] >= row[k + 1]]
            best = max(local or band, key=lambda k: (row[k], -k))
            assert (hz, p) == (freqs[best], row[best])

    def test_peak_power_is_the_chosen_bin(self):
        # the leak at the edge is the in-band maximum; the segment's own peak is degenerate
        freqs = np.linspace(0.25, 3.25, 13)
        power = np.array([9.0, 1.0, 1e-13, 2e-13, 1e-13] + [0.0] * 8)
        hz, p = hr._in_band_peak(freqs, power, PipelineConfig())
        assert (hz, p) == (1.0, 2e-13)
        assert p < hr.DEGENERATE_POWER

    def test_empty_band_rejected(self):
        ps = PowerSpectrum([5.0, 6.0], [1.0, 2.0])
        with pytest.raises(ValueError, match=r"^spectrum has no bins inside \[0\.5, 3\.0\] Hz$"):
            hr_from_psd(ps)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("field", ["freqs", "power"])
    def test_non_finite_spectrum_rejected(self, field, bad):
        values = {"freqs": [0.5, 1.0, 1.5], "power": [1.0, 0.5, 0.25]}
        values[field][1] = bad
        with pytest.raises(ValueError, match=f"^{field} must not contain NaN or Inf$"):
            PowerSpectrum(**values)

    @pytest.mark.parametrize(
        "freqs, power, message",
        [
            ([0.5, 1.0], [1.0, 0.5, 0.25], "^freqs and power must be 1-D and equally long$"),
            ([[0.5, 1.0]], [[1.0, 0.5]], "^freqs and power must be 1-D and equally long$"),
            ([0.5, 0.5, 1.0], [1.0, 0.5, 0.25], "^freqs must be strictly increasing$"),
            ([0.5, 1.0, 1.5], [1.0, -0.5, 0.25], "^power must be nonnegative$"),
        ],
        ids=["lengths", "2d", "repeated_freq", "negative_power"],
    )
    def test_malformed_spectrum_rejected(self, freqs, power, message):
        with pytest.raises(ValueError, match=message):
            PowerSpectrum(freqs, power)

    def test_rescaling_invariance(self):
        rng = np.random.default_rng(8)
        freqs = np.linspace(0.0, 15.0, 200)
        power = rng.random(200)
        base = hr_from_psd(PowerSpectrum(freqs, power))
        assert hr_from_psd(PowerSpectrum(freqs, 13.7 * power)) == base


@pytest.mark.parametrize(
    "stage, message",
    [
        (bandpass, "waveform samples must not contain NaN or Inf"),
        (welch_psd, "power must not contain NaN or Inf"),
        (video_hr, "waveform samples must not contain NaN or Inf"),
    ],
)
def test_an_overflowing_waveform_raises_only_its_check(stage, message):
    # samples alternating between +-1.7e308; pytest turns numpy's overflow warning into an error
    w = Waveform(np.tile([1.7e308, -1.7e308], 450), 30.0)
    with pytest.raises(ValueError, match=f"^{message}$"):
        stage(w)


class TestVideoHr:
    def test_clean_72_bpm(self):
        assert video_hr(sinusoid(1.2, 45.0)) == pytest.approx(72.0, abs=0.6)

    def test_mean_of_segment_rates(self):
        w = Waveform(
            np.concatenate([sinusoid(1.0, 15.0).samples, sinusoid(1.1, 15.0).samples]), 30.0
        )
        assert video_hr(w) == pytest.approx(63.0, abs=1e-9)

    def test_constant_waveform_degenerate(self):
        with pytest.raises(DegenerateSignalError):
            video_hr(Waveform(np.ones(450), 30.0))

    def test_no_full_segment_rejected(self):
        with pytest.raises(ValueError):
            video_hr(sinusoid(1.2, 10.0))

    def test_amplitude_invariance(self):
        a = video_hr(sinusoid(1.3, 45.0, amp=1.0))
        b = video_hr(sinusoid(1.3, 45.0, amp=0.003))
        assert a == b

    def test_degenerate_segments_dropped_and_counted(self):
        good = sinusoid(1.2, 15.0).samples
        dead = np.zeros(450)
        w = Waveform(np.concatenate([good, dead]), 30.0)
        rates, dropped = segment_heart_rates(w)
        assert dropped == 1
        assert len(rates) == 1
        assert rates[0] == pytest.approx(72.0, abs=0.6)

    def test_short_segments_use_whole_segment_window(self):
        # 15 s at 12 fps is 180 samples, below the 256 default window
        w = sinusoid(1.2, 15.0, fps=12.0)
        assert video_hr(w) == pytest.approx(72.0, abs=1.0)


def per_segment_oracle(w, cfg=PipelineConfig()):
    """segment_heart_rates one segment at a time through the public 1-D calls."""
    rates, dropped = [], 0
    for seg in segment_waveform(w, cfg):
        win = min(cfg.window_len, len(seg))
        welch_cfg = PipelineConfig(window_len=win, overlap=cfg.overlap, nfft=max(cfg.nfft, win))
        spectrum = welch_psd(bandpass(seg, cfg), welch_cfg)
        if hr._in_band_peak(spectrum.freqs, spectrum.power, cfg)[1] < hr.DEGENERATE_POWER:
            dropped += 1
        else:
            rates.append(hr_from_psd(spectrum, cfg))
    return rates, dropped


def noisy_pulse(seconds, fps=30.0, seed=0):
    rng = np.random.default_rng(seed)
    t = np.arange(int(seconds * fps)) / fps
    return np.sin(2 * np.pi * rng.uniform(0.8, 2.0) * t) + rng.normal(scale=0.5, size=t.size)


class TestBatchedSegments:
    """segment_heart_rates filters all segments in one run and takes their Welch
    spectra a block of whole segments at a time; it must give exactly the
    per-segment result."""

    def check(self, w, cfg=PipelineConfig()):
        rates, dropped = segment_heart_rates(w, cfg)
        assert (rates, dropped) == per_segment_oracle(w, cfg)
        assert all(type(r) is float for r in rates)
        return rates, dropped

    def test_segments_with_ragged_remainder(self):
        w = Waveform(noisy_pulse(4 * 15.0 + 3.3, seed=1), 30.0)
        rates, dropped = self.check(w)
        assert (len(rates), dropped) == (4, 0)

    def test_constant_segment_among_live_ones(self):
        samples = noisy_pulse(45.0, seed=2)
        samples[450:900] = 0.25
        rates, dropped = self.check(Waveform(samples, 30.0))
        assert (len(rates), dropped) == (2, 1)

    def test_all_segments_degenerate(self):
        assert self.check(Waveform(np.full(1400, 0.5), 30.0)) == ([], 3)

    def test_window_longer_than_segment(self):
        # 15 s at 12 fps is 180 samples, below the 256-sample Welch window
        rates, dropped = self.check(Waveform(noisy_pulse(50.0, fps=12.0, seed=3), 12.0))
        assert (len(rates), dropped) == (3, 0)

    def test_other_pipeline_settings(self):
        w = Waveform(noisy_pulse(40.0, fps=25.0, seed=5), 25.0)
        cfg = PipelineConfig(
            segment_s=8.0, band_low_hz=0.7, band_high_hz=2.5, band_order=6, window_len=128, overlap=0.25, nfft=512
        )
        self.check(w, cfg)

    def test_rows_equal_one_dimensional_calls(self):
        w = Waveform(noisy_pulse(60.0, seed=6), 30.0)
        rows = w.samples.reshape(4, 450)
        filtered = hr._bandpass_rows(rows, 30.0, PipelineConfig())
        freqs, power = hr._welch_rows(filtered, 30.0, PipelineConfig(window_len=256, overlap=0.5, nfft=3300))
        for row, f_row, p_row in zip(rows, filtered, power):
            one = bandpass(Waveform(row, 30.0))
            assert np.array_equal(f_row, one.samples)
            spectrum = welch_psd(one)
            assert np.array_equal(freqs, spectrum.freqs)
            assert np.array_equal(p_row, spectrum.power)

    @pytest.mark.parametrize(
        "samples, fps, segment_s, message",
        [
            (np.zeros(100), 5.0, 15.0, "sampling rate 5.0 Hz too low for a 3.0 Hz passband edge"),
            (np.zeros(100), 30.0, 0.3, "waveform too short to filter: 9 < 12"),
            (np.zeros(300), 30.0, 15.0, "waveform of 10.00 s has no full 15.0 s segment"),
            (np.zeros(300), 30.0, 1e307, "waveform of 10.00 s has no full 1e+307 s segment"),
            (np.tile([1e308, -1e308], 225), 30.0, 15.0, "waveform samples must not contain NaN or Inf"),
        ],
        ids=["fps_too_low", "too_short_to_filter", "no_full_segment", "segment_overflow", "filter_overflow"],
    )
    def test_error_messages(self, samples, fps, segment_s, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            segment_heart_rates(Waveform(samples, fps), PipelineConfig(segment_s=segment_s))

    def test_grid_with_no_bin_in_band(self):
        # an 8-point grid at 30 fps has bins at 0, 3.75, 7.5, 11.25 and 15 Hz
        cfg = PipelineConfig(window_len=8, nfft=8)
        with pytest.raises(ValueError, match=r"^spectrum has no bins inside \[0\.5, 3\.0\] Hz$"):
            segment_heart_rates(Waveform(noisy_pulse(16.0), 30.0), cfg)


def spectrum_row_bytes(n, cfg=PipelineConfig()):
    """Bytes of the complex Welch spectra of one n-sample segment."""
    window_len, step, nfft = hr._welch_layout(n, cfg)
    return (1 + (n - window_len) // step) * (nfft // 2 + 1) * 16


class TestSpectrumBlocks:
    """_spectra filters every row in one run, then yields the Welch spectra of
    blocks of whole rows, each within _SPECTRA_BYTES of complex spectra."""

    def block_rows(self, monkeypatch, w, rows_per_block):
        """The row count of each block segment_heart_rates takes, with blocks
        of `rows_per_block` segments of 15 s."""
        monkeypatch.setattr(hr, "_SPECTRA_BYTES", rows_per_block * spectrum_row_bytes(int(15 * w.fps)))
        seen, welch_rows = [], hr._welch_rows

        def spy(x, fps, cfg):
            seen.append(len(x))
            return welch_rows(x, fps, cfg)

        monkeypatch.setattr(hr, "_welch_rows", spy)
        rates, blocks = segment_heart_rates(w), seen.copy()
        assert rates == per_segment_oracle(w)
        return blocks

    @pytest.mark.parametrize(
        "rows_per_block, blocks", [(0, [1] * 7), (1, [1] * 7), (2, [2, 2, 2, 1]), (3, [3, 3, 1]), (7, [7]), (8, [7])]
    )
    def test_rates_across_block_edges(self, monkeypatch, rows_per_block, blocks):
        # a budget below one segment's spectra still takes one segment a block;
        # degenerate segments 1, 2 and 5 sit on either side of the block edges
        samples = noisy_pulse(7 * 15.0 + 4.0, seed=9)
        for k in (1, 2, 5):
            samples[450 * k : 450 * (k + 1)] = 0.75
        w = Waveform(samples, 30.0)
        assert self.block_rows(monkeypatch, w, rows_per_block) == blocks
        assert segment_heart_rates(w)[1] == 3

    def test_blocks_are_the_rows_of_one_welch_call(self, monkeypatch):
        monkeypatch.setattr(hr, "_SPECTRA_BYTES", 2 * spectrum_row_bytes(450))
        rows = noisy_pulse(75.0, seed=11).reshape(5, 450)
        freqs, power = hr._welch_rows(hr._bandpass_rows(rows, 30.0, PipelineConfig()), 30.0, PipelineConfig())
        blocks = list(hr._spectra(rows, 30.0, PipelineConfig()))
        assert [len(p) for _, p in blocks] == [2, 2, 1]
        assert all(np.array_equal(f, freqs) for f, _ in blocks)
        assert np.array_equal(np.concatenate([p for _, p in blocks]), power)

    @pytest.mark.parametrize("seconds", [600, 3600])
    def test_long_waveform_memory(self, seconds):
        # the filter buffer is about one waveform, the spectra a block of 256 KiB;
        # the whole batch of spectra took 5.45 MB at 600 s and 32.7 MB at 3600 s
        w = Waveform(noisy_pulse(seconds, seed=12), 30.0)
        expected = per_segment_oracle(w)
        segment_heart_rates(w)  # the filter design and Hann window are cached
        tracemalloc.start()
        try:
            rates = segment_heart_rates(w)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rates == expected
        assert peak <= 2 * w.samples.nbytes + 2**20


def scipy_segment_heart_rates(w, cfg=PipelineConfig(), pick=hr._in_band_peak):
    """Oracle: segment_heart_rates with the filter and spectrum from scipy.signal
    and the peaks of each segment's spectrum from `pick`."""
    segments = hr._segment_rows(w, cfg)
    n = segments.shape[1]
    filtered = sps.sosfiltfilt(scipy_sos(w.fps, *band_of(cfg)), segments, padlen=min(3 * cfg.band_order, n - 1))
    window_len, nfft = cfg.welch_lengths(n)
    freqs, power = sps.welch(
        filtered, fs=w.fps, window="hann", nperseg=window_len, noverlap=int(window_len * cfg.overlap),
        nfft=nfft, detrend=False, scaling="density",
    )
    peak_hz, peak_power = pick(freqs, power, cfg)
    dead = peak_power < hr.DEGENERATE_POWER
    return (60.0 * peak_hz[~dead]).tolist(), int(dead.sum())


def plain_in_band_max(freqs, power, cfg):
    """The peak picker before the local-maximum rule: the highest in-band bin."""
    in_band = (freqs >= cfg.band_low_hz) & (freqs <= cfg.band_high_hz)
    freqs, power = freqs[in_band], power[:, in_band]
    return freqs[power.argmax(axis=1)], power.max(axis=1)


# wobbles of the scene's illumination (plain) or specular term (vs/) beside the band edges
LOW_WOBBLES_HZ = (0.30, 0.35, 0.40, 0.45, 0.48)
HIGH_WOBBLES_HZ = (3.02, 3.05, 3.1, 3.2)
# the wobbles whose main lobe leaks across an edge and set it under the plain maximum
LEAKING_HZ = (0.40, 0.45, 0.48, 3.02, 3.05, 3.1)
specular_or_not = pytest.mark.parametrize("specular", [False, True], ids=["plain", "vs"])


def wobble_waveforms(bpm, hz=None, specular=False):
    """Each extractor's waveform of an 8x8, 900-frame scene with a `bpm` pulse
    and a wobble at `hz`, if any."""
    noise = "none" if hz is None else f"vs/sin:{hz}:0.02" if specular else f"sin:{hz}:0.05"
    pulse = synth_pulse(PulseSpec(hr_bpm=bpm), 30.0, 900)
    clip = render_noisy(SceneSpec(jitter_seed=3), pulse, parse_noise_string(noise), 8, 8)
    return [run_extractor(kind, clip) for kind in ExtractorKind]


class TestEdgeLeakage:
    """The in-band peak must be a local maximum of the whole spectrum, so a
    wobble outside the band no longer sets an edge rate, 30 or 180 BPM."""

    @specular_or_not
    @pytest.mark.parametrize("hz", LOW_WOBBLES_HZ + HIGH_WOBBLES_HZ)
    def test_out_of_band_wobble_leaves_the_pulse(self, hz, specular):
        for w in wobble_waveforms(75.0, hz, specular):
            assert video_hr(w) == pytest.approx(75.0, abs=0.6)

    @specular_or_not
    @pytest.mark.parametrize("hz", LEAKING_HZ)
    def test_the_plain_maximum_read_the_edge(self, hz, specular):
        # the failure the rule mends: some extractor's rate was the edge bin
        waveforms = wobble_waveforms(75.0, hz, specular)
        rates = [np.mean(scipy_segment_heart_rates(w, pick=plain_in_band_max)[0]) for w in waveforms]
        assert (30.0 if hz < 1 else 180.0) in rates

    @specular_or_not
    @pytest.mark.parametrize("hz, edge", [(0.5, 30.0), (3.0, 180.0)])
    def test_wobble_on_an_edge_sets_it(self, hz, edge, specular):
        # inside the band, no rule of location tells it from an edge pulse
        assert [video_hr(w) for w in wobble_waveforms(75.0, hz, specular)] == [edge] * 3

    @pytest.mark.parametrize("bpm, rate", [(30.0, 30.0), (30.2, 30.0), (179.8, 180.0), (180.0, 180.0)])
    def test_edge_pulse_keeps_its_rate(self, bpm, rate):
        assert [video_hr(w) for w in wobble_waveforms(bpm)] == [rate] * 3

    @specular_or_not
    @pytest.mark.parametrize("hz", LOW_WOBBLES_HZ)
    @pytest.mark.parametrize("bpm", [179.8, 180.0])
    def test_edge_pulse_beside_a_wobble_at_the_other_edge(self, bpm, hz, specular):
        assert [video_hr(w) for w in wobble_waveforms(bpm, hz, specular)] == [180.0] * 3

    @pytest.mark.parametrize("hz, specular", [(0.3, False), (3.1, False), (3.05, True)])
    def test_rates_equal_the_scipy_oracle(self, hz, specular):
        for w in wobble_waveforms(75.0, hz, specular):
            assert segment_heart_rates(w) == scipy_segment_heart_rates(w)


ZI_GRID = [
    (fps, order, band)
    for fps in (6.5, 12.0, 25.0, 30.0, 60.0, 240.0, 1000.0)
    for order in (2, 4, 6, 8)
    for band in ((0.5, 3.0), (0.7, 2.5), (0.05, 3.2), (1.0, 1.05))
    if fps > 2 * band[1]
]


class TestScipyOracle:
    """The numpy filter design, zero-phase filter and Welch spectrum against scipy.signal."""

    @pytest.mark.parametrize("fps, order, band", ZI_GRID)
    def test_settled_state(self, fps, order, band):
        # the closed-form lfilter_zi of each section; solving for the state against the
        # block matrix instead misses by ~3e-4 at 1000 fps, order 8, 0.05-3.2 Hz
        _, zi = hr._cascade(fps, *band, order)
        expected = sps.sosfilt_zi(hr._butter_sos(fps, *band, order).copy()).ravel()
        assert np.max(np.abs(zi - expected)) <= 1e-10 * np.max(np.abs(expected))

    @pytest.mark.parametrize("fps", [25.0, 30.0, 60.0])
    @pytest.mark.parametrize("order", [2, 4, 6, 8])
    def test_filter_response(self, fps, order):
        sos = hr._butter_sos(fps, 0.5, 3.0, order)
        assert sos.shape == (order // 2, 6)
        _, h = sps.sosfreqz(sos.copy(), worN=512, fs=fps)
        _, expected = sps.sosfreqz(scipy_sos(fps, order=order), worN=512, fs=fps)
        assert np.max(np.abs(h - expected)) <= 1e-12

    @pytest.mark.parametrize(
        "order, n", [(2, 6), (4, 12), (6, 18), (8, 24), (4, 13), (4, 450), (6, 450), (4, 1799), (8, 1799)]
    )
    def test_zero_phase_filter(self, order, n):
        # n = 3 * order pads by n - 1 samples, the longest odd extension there is
        rng = np.random.default_rng(order * n)
        x = rng.normal(size=(3, n)) + np.array([[0.0], [1e3], [-1e3]])
        out = hr._bandpass_rows(x, 30.0, PipelineConfig(band_low_hz=0.5, band_high_hz=3.0, band_order=order))
        expected = sps.sosfiltfilt(scipy_sos(30.0, order=order), x, padlen=min(3 * order, n - 1))
        # rounding grows with the DC offset the filter removes
        assert np.all(np.abs(out - expected) <= 1e-13 * np.abs(x).max(axis=1, keepdims=True))

    @pytest.mark.parametrize("n", [450, 100])
    @pytest.mark.parametrize("nfft", [3300, 3301, 450, 451])
    @pytest.mark.parametrize("overlap", [0.0, 0.5, 0.75])
    @pytest.mark.parametrize("window_len", [256, 450])
    def test_welch(self, nfft, overlap, window_len, n):
        # at n = 100 the window is longer than the waveform and shrinks to it
        w = Waveform(noisy_pulse(15.0, seed=nfft)[:n], 30.0)
        ps = welch_psd(w, PipelineConfig(window_len=window_len, overlap=overlap, nfft=nfft))
        nperseg = min(window_len, n)
        freqs, expected = sps.welch(
            w.samples, fs=30.0, window="hann", nperseg=nperseg, noverlap=int(nperseg * overlap),
            nfft=max(nfft, nperseg), detrend=False, scaling="density",
        )
        assert np.array_equal(ps.freqs, freqs)
        assert np.max(np.abs(ps.power - expected)) <= 1e-13 * expected.max()

    @pytest.mark.parametrize("noise", ["none", "linear:0.1", "sin:0.3:0.05", "linear:0.1+vs/sin:0.5:0.02"])
    def test_segment_rates(self, noise):
        pulse = synth_pulse(PulseSpec(hr_bpm=77.0), 30.0, 1800)
        clip = render_noisy(SceneSpec(jitter_seed=11), pulse, parse_noise_string(noise), 4, 4)
        for w in [pulse] + [run_extractor(kind, clip) for kind in ExtractorKind]:
            assert segment_heart_rates(w) == scipy_segment_heart_rates(w)

    def test_configs_differing_only_in_welch_settings_share_one_filter(self):
        w = Waveform(noisy_pulse(30.0, fps=29.0, seed=8), 29.0)
        before = hr._cascade.cache_info().misses
        for window_len, nfft in [(256, 3300), (128, 512), (64, 64)]:
            segment_heart_rates(w, PipelineConfig(window_len=window_len, nfft=nfft, epsilon=1e-6))
        assert hr._cascade.cache_info().misses - before <= 1

    def test_shared_filter_arrays_are_read_only(self):
        # the cached arrays are shared by every thread that filters at this rate
        block, zi = hr._cascade(30.0, *band_of())
        for array in (hr._butter_sos(30.0, *band_of()), block, zi, hr._hann(256)):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0.0


class TestPipelineConfig:
    def test_default_report_config(self):
        # the report config block of the default settings, as written before PipelineConfig
        doc = PipelineConfig().to_json(["tn_pooled", "green_raw"])
        expected = {
            "extractors": ["tn_pooled", "green_raw"],
            "segment_s": 15.0,
            "band_low_hz": 0.5,
            "band_high_hz": 3.0,
            "band_order": 4,
            "zero_phase": True,
            "window_len": 256,
            "overlap": 0.5,
            "nfft": 3300,
            "epsilon": 1e-8,
        }
        assert json.dumps(doc, sort_keys=True) == json.dumps(expected, sort_keys=True)

    def test_welch_lengths_clamp(self):
        assert PipelineConfig().welch_lengths(1000) == (256, 3300)
        assert PipelineConfig().welch_lengths(180) == (180, 3300)
        # an nfft below the window is raised to it, not rejected
        assert PipelineConfig(nfft=100).welch_lengths(1000) == (256, 256)
        assert PipelineConfig(nfft=100).welch_lengths(180) == (180, 180)

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("nfft", 3300.0, "nfft must be an integer, got 3300.0"),
            ("window_len", 256.0, "window_len must be an integer, got 256.0"),
            ("band_order", 4.0, "band_order must be an integer, got 4.0"),
            ("band_order", True, "band_order must be an integer, got True"),
            ("nfft", "3300", "nfft must be an integer, got '3300'"),
            ("segment_s", True, "segment_s must be a number, got True"),
            ("band_low_hz", False, "band_low_hz must be a number, got False"),
            ("overlap", "0.5", "overlap must be a number, got '0.5'"),
            ("epsilon", None, "epsilon must be a number, got None"),
            # an integer beyond the float range gets the message of inf
            pytest.param("epsilon", 10**400, f"epsilon must be finite and > 0, got {10**400}", id="epsilon-big_int"),
            pytest.param(
                "segment_s", 10**400, f"segment duration must be finite and > 0 s, got {10**400}", id="segment_s-big_int"
            ),
            pytest.param("band_high_hz", 10**400, f"band edges must be finite, got 0.5, {10**400}", id="band_high_hz-big_int"),
        ],
    )
    def test_setting_of_the_wrong_type_fails_when_built(self, field, value, message):
        # a float reaching numpy raises a TypeError, which no per-row ValueError handler catches
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            PipelineConfig(**{field: value})

    def test_number_fields_take_ints(self):
        cfg = PipelineConfig(segment_s=10, band_low_hz=1, band_high_hz=2, overlap=0, epsilon=1)
        assert (cfg.segment_s, cfg.band_low_hz, cfg.band_high_hz, cfg.overlap, cfg.epsilon) == (10, 1, 2, 0, 1)


class TestComputeMetrics:
    def test_exact_match(self):
        report = compute_metrics([60.0, 70.0], [60.0, 70.0])
        assert report.mae == 0.0
        assert report.rmse == 0.0
        assert report.pearson == pytest.approx(1.0)
        assert report.pearson_defined

    def test_two_point_arithmetic(self):
        report = compute_metrics([62.0, 68.0], [60.0, 70.0])
        assert report.mae == pytest.approx(2.0)
        assert report.rmse == pytest.approx(2.0)
        assert report.pearson == pytest.approx(1.0)

    def test_zero_variance_flagged(self):
        report = compute_metrics([60.0, 60.0], [60.0, 70.0])
        assert not report.pearson_defined
        assert np.isnan(report.pearson)

    def test_single_pair(self):
        report = compute_metrics([65.0], [60.0])
        assert report.mae == pytest.approx(5.0)
        assert not report.pearson_defined

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            compute_metrics([], [])

    @pytest.mark.parametrize("labels", [[60.0], [[60.0, 70.0]]], ids=["shorter", "2d"])
    def test_mismatched_shapes_rejected(self, labels):
        with pytest.raises(ValueError, match="^preds and labels must be 1-D and equally long$"):
            compute_metrics([60.0, 70.0], labels)

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 100_000), n=st.integers(1, 40))
    def test_rmse_at_least_mae(self, seed, n):
        rng = np.random.default_rng(seed)
        report = compute_metrics(rng.uniform(30, 180, n), rng.uniform(30, 180, n))
        assert report.rmse >= report.mae
