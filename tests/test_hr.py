import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import signal as sps

from pulse_tn import (
    BandpassSpec,
    DegenerateSignalError,
    PipelineConfig,
    PowerSpectrum,
    Waveform,
    bandpass,
    compute_metrics,
    hr_from_psd,
    segment_heart_rates,
    segment_waveform,
    video_hr,
    welch_psd,
)
from pulse_tn import hr


def sinusoid(freq_hz, seconds, fps=30.0, amp=1.0):
    t = np.arange(int(seconds * fps)) / fps
    return Waveform(amp * np.sin(2 * np.pi * freq_hz * t), fps)


def butter_gain_sq(freq_hz, spec=BandpassSpec(), fps=30.0):
    """Oracle: squared magnitude response of the designed filter."""
    sos = sps.butter(spec.order // 2, [spec.low_hz, spec.high_hz], btype="bandpass", fs=fps, output="sos")
    _, h = sps.sosfreqz(sos, worN=[freq_hz], fs=fps)
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

    def test_length_preserved(self):
        out = bandpass(sinusoid(1.0, 15.0))
        assert len(out) == 450

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            BandpassSpec(low_hz=3.0, high_hz=0.5)
        with pytest.raises(ValueError):
            BandpassSpec(order=3)


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

    def test_too_short_rejected(self):
        with pytest.raises(ValueError):
            welch_psd(Waveform(np.zeros(100), 30.0), window_len=256)

    def test_zero_padding_refines_but_never_moves_peak(self):
        w = sinusoid(1.27, 15.0)
        coarse = welch_psd(w, nfft=256)
        fine = welch_psd(w, nfft=3300)
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

    def test_empty_band_rejected(self):
        ps = PowerSpectrum([5.0, 6.0], [1.0, 2.0])
        with pytest.raises(ValueError):
            hr_from_psd(ps)

    def test_rescaling_invariance(self):
        rng = np.random.default_rng(8)
        freqs = np.linspace(0.0, 15.0, 200)
        power = rng.random(200)
        base = hr_from_psd(PowerSpectrum(freqs, power))
        assert hr_from_psd(PowerSpectrum(freqs, 13.7 * power)) == base


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
    band = cfg.band
    rates, dropped = [], 0
    for seg in segment_waveform(w, cfg.segment_s):
        win = min(cfg.window_len, len(seg))
        spectrum = welch_psd(bandpass(seg, band), window_len=win, overlap=cfg.overlap, nfft=max(cfg.nfft, win))
        in_band = (spectrum.freqs >= band.low_hz) & (spectrum.freqs <= band.high_hz)
        if spectrum.power[in_band].max(initial=0.0) < hr.DEGENERATE_POWER:
            dropped += 1
        else:
            rates.append(hr_from_psd(spectrum, band.low_hz, band.high_hz))
    return rates, dropped


def noisy_pulse(seconds, fps=30.0, seed=0):
    rng = np.random.default_rng(seed)
    t = np.arange(int(seconds * fps)) / fps
    return np.sin(2 * np.pi * rng.uniform(0.8, 2.0) * t) + rng.normal(scale=0.5, size=t.size)


class TestBatchedSegments:
    """segment_heart_rates filters and Welch-averages all segments in one batch;
    it must give exactly the per-segment result."""

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

    def test_causal_filter(self):
        w = Waveform(noisy_pulse(40.0, seed=4), 30.0)
        self.check(w, PipelineConfig(band=BandpassSpec(zero_phase=False)))

    def test_other_pipeline_settings(self):
        w = Waveform(noisy_pulse(40.0, fps=25.0, seed=5), 25.0)
        cfg = PipelineConfig(
            segment_s=8.0, band=BandpassSpec(0.7, 2.5, order=6), window_len=128, overlap=0.25, nfft=512
        )
        self.check(w, cfg)

    def test_rows_equal_one_dimensional_calls(self):
        w = Waveform(noisy_pulse(60.0, seed=6), 30.0)
        rows = w.samples.reshape(4, 450)
        filtered = hr._bandpass_rows(rows, 30.0, BandpassSpec())
        freqs, power = hr._welch_rows(filtered, 30.0, 256, 0.5, 3300)
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
            (np.tile([1e308, -1e308], 225), 30.0, 15.0, "waveform samples must not contain NaN or Inf"),
        ],
        ids=["fps_too_low", "too_short_to_filter", "no_full_segment", "filter_overflow"],
    )
    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    def test_error_messages(self, samples, fps, segment_s, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            segment_heart_rates(Waveform(samples, fps), PipelineConfig(segment_s=segment_s))


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

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 100_000), n=st.integers(1, 40))
    def test_rmse_at_least_mae(self, seed, n):
        rng = np.random.default_rng(seed)
        report = compute_metrics(rng.uniform(30, 180, n), rng.uniform(30, 180, n))
        assert report.rmse >= report.mae
