"""Heart-rate pipeline: bandpass filtering, Welch spectra, peak picking, metrics."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import signal as sps

from .core import Waveform, _check_segment_s, _require_finite, _segment_rows
from .tn import TnConfig

HR_LOW_HZ = 0.5
HR_HIGH_HZ = 3.0
WELCH_WINDOW_LEN = 256
WELCH_OVERLAP = 0.5
WELCH_NFFT = 3300
DEGENERATE_POWER = 1e-12


class DegenerateSignalError(ValueError):
    """Raised when a signal carries no usable in-band power."""


@dataclass(frozen=True)
class BandpassSpec:
    """Butterworth bandpass, applied forward and backward (zero phase).

    `order` is the overall filter order (even; order 4 realizes two
    second-order sections). Zero-phase filtering squares the magnitude
    response and removes phase distortion.
    """

    low_hz: float = HR_LOW_HZ
    high_hz: float = HR_HIGH_HZ
    order: int = 4

    def __post_init__(self):
        if not (np.isfinite(self.low_hz) and np.isfinite(self.high_hz)):
            raise ValueError(f"band edges must be finite, got {self.low_hz}, {self.high_hz}")
        if not 0 < self.low_hz < self.high_hz:
            raise ValueError(f"need 0 < low_hz < high_hz, got {self.low_hz}, {self.high_hz}")
        if self.order < 2 or self.order % 2:
            raise ValueError(f"order must be even and >= 2, got {self.order}")


@dataclass(frozen=True)
class PipelineConfig:
    """Every setting of the heart-rate back end, validated once when built.

    A waveform is cut into `segment_s`-second segments. Each segment is
    filtered by `band`, and its Welch spectrum (Hann windows of `window_len`
    samples overlapping by the fraction `overlap`, zero-padded to `nfft`)
    gives one rate. `tn` is the guard of the temporal-normalization
    extractor. `band` and `tn` validate themselves when they are built.
    """

    segment_s: float = 15.0
    band: BandpassSpec = BandpassSpec()
    window_len: int = WELCH_WINDOW_LEN
    overlap: float = WELCH_OVERLAP
    nfft: int = WELCH_NFFT
    tn: TnConfig = TnConfig()

    def __post_init__(self):
        _check_segment_s(self.segment_s)
        if self.nfft < 1:
            raise ValueError(f"nfft must be >= 1, got {self.nfft}")
        window_len, nfft = self.welch_lengths(self.window_len)
        _check_welch(window_len, self.overlap, nfft)

    def welch_lengths(self, n: int) -> tuple[int, int]:
        """Welch (window_len, nfft) for an n-sample input: a window longer than
        the input shrinks to it, and nfft grows to at least the window."""
        window_len = min(self.window_len, n)
        return window_len, max(self.nfft, window_len)

    def to_json(self, extractors: list[str]) -> dict:
        """The `config` block of a report made with these settings."""
        return {
            "extractors": extractors,
            "segment_s": self.segment_s,
            "band_low_hz": self.band.low_hz,
            "band_high_hz": self.band.high_hz,
            "band_order": self.band.order,
            "zero_phase": True,  # the filter is always zero phase; the report format keeps the key
            "window_len": self.window_len,
            "overlap": self.overlap,
            "nfft": self.nfft,
            "epsilon": self.tn.epsilon,
        }


@dataclass(frozen=True)
class PowerSpectrum:
    """One-sided power spectral density on a uniform frequency grid."""

    freqs: np.ndarray
    power: np.ndarray

    def __post_init__(self):
        freqs = np.asarray(self.freqs, dtype=np.float64)
        power = np.asarray(self.power, dtype=np.float64)
        if freqs.shape != power.shape or freqs.ndim != 1:
            raise ValueError("freqs and power must be 1-D and equally long")
        if np.any(np.diff(freqs) <= 0):
            raise ValueError("freqs must be strictly increasing")
        if np.any(power < 0):
            raise ValueError("power must be nonnegative")
        object.__setattr__(self, "freqs", freqs)
        object.__setattr__(self, "power", power)


@dataclass(frozen=True)
class MetricsReport:
    """Prediction/label agreement: MAE, RMSE and Pearson correlation.

    When either vector has zero variance (or there are fewer than two pairs)
    the correlation is undefined: `pearson` is NaN and `pearson_defined` is
    False.
    """

    mae: float
    rmse: float
    pearson: float
    pearson_defined: bool


def bandpass(w: Waveform, spec: BandpassSpec = BandpassSpec()) -> Waveform:
    """Apply the Butterworth bandpass to a waveform, preserving its length."""
    return Waveform(_bandpass_rows(w.samples, w.fps, spec), w.fps)


def _bandpass_rows(x: np.ndarray, fps: float, spec: BandpassSpec) -> np.ndarray:
    """`bandpass` along the last axis of `x`, each row filtered on its own."""
    n = x.shape[-1]
    if fps <= 2.0 * spec.high_hz:
        raise ValueError(
            f"sampling rate {fps} Hz too low for a {spec.high_hz} Hz passband edge"
        )
    if n < 3 * spec.order:
        raise ValueError(f"waveform too short to filter: {n} < {3 * spec.order}")
    sos = sps.butter(
        spec.order // 2, [spec.low_hz, spec.high_hz], btype="bandpass", fs=fps, output="sos"
    )
    return sps.sosfiltfilt(sos, x, axis=-1, padlen=min(3 * spec.order, n - 1))


def welch_psd(
    w: Waveform,
    window_len: int = WELCH_WINDOW_LEN,
    overlap: float = WELCH_OVERLAP,
    nfft: int = WELCH_NFFT,
) -> PowerSpectrum:
    """Averaged periodogram over Hann-windowed, zero-padded segments.

    Frequencies are k * fps / nfft for k = 0..nfft/2. Density scaling with
    per-segment window-power compensation, so summing power times the bin
    width approximates the time-domain mean square.
    """
    return PowerSpectrum(*_welch_rows(w.samples, w.fps, window_len, overlap, nfft))


def _welch_rows(
    x: np.ndarray, fps: float, window_len: int, overlap: float, nfft: int
) -> tuple[np.ndarray, np.ndarray]:
    """`welch_psd` along the last axis of `x`: the frequencies and one power row per row."""
    _check_welch(window_len, overlap, nfft)
    if x.shape[-1] < window_len:
        raise ValueError(
            f"waveform length {x.shape[-1]} < window_len {window_len}; segment accordingly"
        )
    return sps.welch(
        x,
        fs=fps,
        window="hann",
        nperseg=window_len,
        noverlap=int(window_len * overlap),
        nfft=nfft,
        detrend=False,
        scaling="density",
        axis=-1,
    )


def _check_welch(window_len: int, overlap: float, nfft: int) -> None:
    if window_len < 2:
        raise ValueError(f"window_len must be >= 2, got {window_len}")
    if nfft < window_len:
        raise ValueError(f"nfft {nfft} must be >= window_len {window_len}")
    if not 0 <= overlap < 1:
        raise ValueError(f"overlap must lie in [0, 1), got {overlap}")


def hr_from_psd(
    spectrum: PowerSpectrum, low_hz: float = HR_LOW_HZ, high_hz: float = HR_HIGH_HZ
) -> float:
    """Heart rate in BPM from the spectral peak inside [low_hz, high_hz].

    Ties break toward the lower frequency.
    """
    mask = (spectrum.freqs >= low_hz) & (spectrum.freqs <= high_hz)
    if not np.any(mask):
        raise ValueError(f"spectrum has no bins inside [{low_hz}, {high_hz}] Hz")
    freqs = spectrum.freqs[mask]
    power = spectrum.power[mask]
    return 60.0 * float(freqs[int(np.argmax(power))])


def segment_heart_rates(
    w: Waveform, cfg: PipelineConfig = PipelineConfig()
) -> tuple[list[float], int]:
    """Per-segment heart rates plus the count of degenerate segments dropped.

    The full segments are bandpassed and run through the Welch estimator
    as one batch, each segment on its own; segments shorter than the Welch
    window use the whole segment as a single Welch segment. Segments whose in-band peak power falls below
    DEGENERATE_POWER carry no usable pulse and are dropped.
    """
    segments = _segment_rows(w, cfg.segment_s)
    if not len(segments):
        raise ValueError(
            f"waveform of {w.duration_s:.2f} s has no full {cfg.segment_s} s segment"
        )
    filtered = _bandpass_rows(segments, w.fps, cfg.band)
    # samples near the float64 limit overflow in the filter; reject them as bandpass() does
    _require_finite(filtered, "waveform samples")
    window_len, nfft = cfg.welch_lengths(segments.shape[1])
    freqs, power = _welch_rows(filtered, w.fps, window_len, cfg.overlap, nfft)
    in_band = (freqs >= cfg.band.low_hz) & (freqs <= cfg.band.high_hz)
    freqs, power = freqs[in_band], power[:, in_band]
    dead = power.max(axis=1, initial=0.0) < DEGENERATE_POWER
    live = power[~dead]
    # ties break toward the lower frequency, as in hr_from_psd
    rates = 60.0 * freqs[live.argmax(axis=1)] if live.size else np.empty(0)
    return rates.tolist(), int(np.count_nonzero(dead))


def video_hr(w: Waveform, cfg: PipelineConfig = PipelineConfig()) -> float:
    """Mean of the per-segment heart rates of a waveform, in BPM."""
    rates, dropped = segment_heart_rates(w, cfg)
    if not rates:
        raise DegenerateSignalError(
            f"all {dropped} segments are spectrally degenerate (in-band power < {DEGENERATE_POWER})"
        )
    return float(np.mean(rates))


def compute_metrics(preds, labels) -> MetricsReport:
    """MAE, RMSE and Pearson correlation between predictions and labels."""
    preds = np.asarray(preds, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.float64)
    if preds.shape != labels.shape or preds.ndim != 1:
        raise ValueError("preds and labels must be 1-D and equally long")
    if preds.size < 1:
        raise ValueError("need at least one prediction/label pair")
    err = preds - labels
    mae = float(np.mean(np.abs(err)))
    rmse = float(np.sqrt(np.mean(err * err)))
    defined = preds.size >= 2 and float(np.std(preds)) > 0 and float(np.std(labels)) > 0
    pearson = float(np.corrcoef(preds, labels)[0, 1]) if defined else float("nan")
    return MetricsReport(mae=mae, rmse=rmse, pearson=pearson, pearson_defined=defined)
