"""Heart-rate pipeline: bandpass filtering, Welch spectra, peak picking, metrics."""

from __future__ import annotations

from dataclasses import asdict, dataclass, fields
from functools import lru_cache

import numpy as np

from .core import Waveform, _is_finite, _require_finite, _require_number, _require_positive
from .tn import EPSILON

HR_LOW_HZ = 0.5
HR_HIGH_HZ = 3.0
WELCH_WINDOW_LEN = 256
WELCH_OVERLAP = 0.5
WELCH_NFFT = 3300
DEGENERATE_POWER = 1e-12
# samples per step of the block recursion that runs the filter cascade
_BLOCK = 64


class DegenerateSignalError(ValueError):
    """Raised when a signal carries no usable in-band power."""


class SamplingRateError(ValueError):
    """Raised when the frame rate cannot carry the passband."""


@dataclass(frozen=True)
class PipelineConfig:
    """Every setting of the heart-rate back end, validated once when built.

    A waveform is cut into `segment_s`-second segments. Each segment is
    filtered by a Butterworth bandpass from `band_low_hz` to `band_high_hz` of
    overall order `band_order` (even; order 4 realizes two second-order
    sections), applied forward and backward: zero phase, with the magnitude
    response squared. Its Welch spectrum (Hann windows of `window_len` samples
    overlapping by the fraction `overlap`, zero-padded to `nfft`) gives one
    rate. `epsilon` is the guard of the temporal-normalization extractor.
    The field names are the keys of a report's `config` block.
    """

    segment_s: float = 15.0
    band_low_hz: float = HR_LOW_HZ
    band_high_hz: float = HR_HIGH_HZ
    band_order: int = 4
    window_len: int = WELCH_WINDOW_LEN
    overlap: float = WELCH_OVERLAP
    nfft: int = WELCH_NFFT
    epsilon: float = EPSILON

    def __post_init__(self):
        for field in fields(self):  # annotations are strings here
            _require_number(getattr(self, field.name), field.name, integer=field.type == "int")
        low, high = self.band_low_hz, self.band_high_hz
        if not (_is_finite(low) and _is_finite(high)):
            raise ValueError(f"band edges must be finite, got {low}, {high}")
        if not 0 < low < high:
            raise ValueError(f"need 0 < low_hz < high_hz, got {low}, {high}")
        if self.band_order < 2 or self.band_order % 2:
            raise ValueError(f"order must be even and >= 2, got {self.band_order}")
        _require_positive(self.epsilon, "epsilon")
        if not (_is_finite(self.segment_s) and self.segment_s > 0):
            raise ValueError(f"segment duration must be finite and > 0 s, got {self.segment_s}")
        if self.nfft < 1:
            raise ValueError(f"nfft must be >= 1, got {self.nfft}")
        if self.window_len < 2:
            raise ValueError(f"window_len must be >= 2, got {self.window_len}")
        if not 0 <= self.overlap < 1:
            raise ValueError(f"overlap must lie in [0, 1), got {self.overlap}")

    def welch_lengths(self, n: int) -> tuple[int, int]:
        """Welch (window_len, nfft) for an n-sample input: a window longer than
        the input shrinks to it, and nfft grows to at least the window."""
        window_len = min(self.window_len, n)
        return window_len, max(self.nfft, window_len)

    def to_json(self, extractors: list[str]) -> dict:
        """The `config` block of a report made with these settings."""
        # the filter is always zero phase; the report format keeps the key
        return {"extractors": extractors, "zero_phase": True, **asdict(self)}


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
        _require_finite(freqs, "freqs")
        _require_finite(power, "power")
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


def bandpass(w: Waveform, cfg: PipelineConfig = PipelineConfig()) -> Waveform:
    """Apply `cfg`'s Butterworth bandpass to a waveform, preserving its length."""
    return Waveform(_bandpass_rows(w.samples, w.fps, cfg), w.fps)


def _bandpass_rows(x: np.ndarray, fps: float, cfg: PipelineConfig) -> np.ndarray:
    """`bandpass` along the last axis of `x`, each row filtered on its own, as
    scipy.signal.sosfiltfilt filters it with `_butter_sos`: odd extension by
    `padlen` samples at each end, a forward and a backward pass each started
    from the settled state scaled by its first sample, and the extension cut
    off again."""
    n, order = x.shape[-1], cfg.band_order
    if fps <= 2.0 * cfg.band_high_hz:
        raise SamplingRateError(f"sampling rate {fps} Hz too low for a {cfg.band_high_hz} Hz passband edge")
    if n < 3 * order:
        raise ValueError(f"waveform too short to filter: {n} < {3 * order}")
    block, zi = _cascade(fps, cfg.band_low_hz, cfg.band_high_hz, order)
    padlen = min(3 * order, n - 1)
    rows = x.reshape(-1, n)
    ext = np.concatenate(
        [2 * rows[:, :1] - rows[:, padlen:0:-1], rows, 2 * rows[:, -1:] - rows[:, -2 : -padlen - 2 : -1]], axis=1
    )
    # samples near the float64 limit overflow; callers reject the non-finite result
    with np.errstate(over="ignore", invalid="ignore"):
        y = _run_cascade(ext, zi * ext[:, :1], block)
        y = _run_cascade(y[:, ::-1], zi * y[:, -1:], block)
    return y[:, ::-1][:, padlen:-padlen].reshape(x.shape)


@lru_cache
def _butter_sos(fps: float, low_hz: float, high_hz: float, order: int) -> np.ndarray:
    """Second-order sections (b0, b1, b2, 1, a1, a2) of the digital Butterworth
    bandpass, designed as scipy.signal.butter designs it: band edges prewarped,
    the analog prototype's poles moved to the band, then the bilinear transform.

    Each section holds one conjugate pole pair (or two real poles) and zeros at
    +1 and -1; the section whose poles lie nearest the unit circle comes last,
    and the overall gain sits on the first. The array is shared, so read-only.
    """
    n = order // 2
    wn = 2 * np.array([low_hz, high_hz]) / fps
    warped = 4.0 * np.tan(np.pi * wn / 2.0)
    bw = warped[1] - warped[0]
    wo = np.sqrt(warped[0] * warped[1])
    p_lp = -np.exp(1j * np.pi * np.arange(-n + 1, n, 2) / (2 * n)) * bw / 2
    root = np.sqrt(p_lp**2 - wo**2)
    p_analog = np.concatenate([p_lp + root, p_lp - root])
    gain = bw**n * np.real(4.0**n / np.prod(4.0 - p_analog))
    poles = (4.0 + p_analog) / (4.0 - p_analog)

    real = np.abs(poles.imag) <= 100 * np.finfo(float).eps * np.abs(poles)
    pairs = [(p, np.conj(p)) for p in poles[~real & (poles.imag > 0)]]
    pairs += list(np.sort(poles[real].real).reshape(-1, 2))
    pairs.sort(key=lambda pair: -min(abs(1 - abs(p)) for p in pair))
    sos = np.zeros((n, 6))
    sos[:, 0], sos[:, 2], sos[:, 3] = 1.0, -1.0, 1.0
    for row, (p1, p2) in zip(sos, pairs):
        row[4], row[5] = np.real(-(p1 + p2)), np.real(p1 * p2)
    sos[0, :3] *= gain
    sos.setflags(write=False)
    return sos


@lru_cache
def _cascade(fps: float, low_hz: float, high_hz: float, order: int) -> tuple[np.ndarray, np.ndarray]:
    """The `_butter_sos` cascade as a block recursion on the rows of a matrix.

    The cascade's state is the two transposed-direct-form-II delays of each
    section, k = 2 * sections values. With M the (B + k) x (B + k) matrix
    returned here (B = _BLOCK), [x_block, state] @ M = [y_block, next_state].
    Row j of M is the run of the per-sample recursion from the unit vector j.
    Also returned is the start state of scipy.signal.sosfilt_zi: the state
    after a unit step has run forever, so a constant input starts settled.
    Both arrays are shared, so read-only.
    """
    sections = _butter_sos(fps, low_hz, high_hz, order).tolist()
    k = 2 * len(sections)
    units = np.eye(_BLOCK + k)  # symmetric: row j is unit vector j and its column
    # the two delays of every section, each a vector over the B + k runs
    delay0, delay1 = list(units[_BLOCK::2]), list(units[_BLOCK + 1 :: 2])
    outputs = []
    for x in units[:_BLOCK]:
        for s, (b0, b1, b2, _, a1, a2) in enumerate(sections):
            y = b0 * x + delay0[s]
            delay0[s] = b1 * x - a1 * y + delay1[s]
            delay1[s] = b2 * x - a2 * y
            x = y
        outputs.append(x)
    block = np.column_stack(outputs + [d for pair in zip(delay0, delay1) for d in pair])

    zi, scale = [], 1.0
    for b0, b1, b2, _, a1, a2 in sections:
        denom = 1.0 + a1 + a2
        if denom == 0.0:
            # both poles of the section round to z = 1: the low edge is too near 0 Hz for this rate
            raise SamplingRateError(f"band_low_hz {low_hz} Hz too low to filter at a sampling rate of {fps} Hz")
        # lfilter_zi of one section: solve (I - companion(a).T) z = b[1:] - a[1:] * b0
        z0 = (b1 - a1 * b0 + b2 - a2 * b0) / denom
        zi += [scale * z0, scale * (b2 - a2 * b0 - a2 * z0)]
        scale *= (b0 + b1 + b2) / denom
    zi = np.array(zi)
    block.setflags(write=False)
    zi.setflags(write=False)
    return block, zi


def _run_cascade(x: np.ndarray, state: np.ndarray, block: np.ndarray) -> np.ndarray:
    """The cascade's output on the rows of x from `state`, one product per block.

    The rows are zero-padded to whole blocks; the padding follows the data, so
    it changes no output sample that is kept.
    """
    rows, n = x.shape
    padded = np.zeros((rows, -(-n // _BLOCK) * _BLOCK))
    padded[:, :n] = x
    out = np.empty_like(padded)
    for start in range(0, padded.shape[1], _BLOCK):
        # einsum, not @: a threaded BLAS product this small can stall for milliseconds
        z = np.einsum(
            "ri,ij->rj", np.concatenate([padded[:, start : start + _BLOCK], state], axis=1), block
        )
        out[:, start : start + _BLOCK] = z[:, :_BLOCK]
        state = z[:, _BLOCK:]
    return out[:, :n]


def welch_psd(w: Waveform, cfg: PipelineConfig = PipelineConfig()) -> PowerSpectrum:
    """Averaged periodogram over `cfg`'s Hann-windowed, zero-padded segments.

    A window longer than the waveform shrinks to it, as in the pipeline
    (`PipelineConfig.welch_lengths`). Frequencies are k * fps / nfft for
    k = 0..nfft/2. Density scaling with per-segment window-power
    compensation, so summing power times the bin width approximates the
    time-domain mean square.
    """
    return PowerSpectrum(*_welch_rows(w.samples, w.fps, cfg))


def _welch_rows(x: np.ndarray, fps: float, cfg: PipelineConfig) -> tuple[np.ndarray, np.ndarray]:
    """`welch_psd` along the last axis of `x`: the frequencies and one power row per row.

    The frames start every window_len - int(window_len * overlap) samples and
    are not detrended, as in scipy.signal.welch(detrend=False).
    """
    window_len, nfft = cfg.welch_lengths(x.shape[-1])
    step = window_len - int(window_len * cfg.overlap)
    # the periodic Hann window
    win = 0.5 + 0.5 * np.cos(np.linspace(-np.pi, np.pi, window_len + 1)[:-1])
    frames = np.lib.stride_tricks.sliding_window_view(x, window_len, axis=-1)[..., ::step, :]
    spectra = np.fft.rfft(win * frames, n=nfft)
    power = (np.conj(spectra) * spectra).real * (1.0 / (fps * (win * win).sum()))
    # one-sided: every bin but DC, and Nyquist for an even nfft, also holds its mirror
    power[..., 1 : (nfft + 1) // 2] *= 2
    return np.fft.rfftfreq(nfft, 1 / fps), power.mean(axis=-2)


def _in_band_peak(freqs: np.ndarray, power: np.ndarray, cfg: PipelineConfig) -> tuple[np.ndarray, np.ndarray]:
    """Frequency and power of the highest bin inside `cfg`'s band along the
    last axis of `power`; ties break toward the lower frequency."""
    low_hz, high_hz = cfg.band_low_hz, cfg.band_high_hz
    in_band = (freqs >= low_hz) & (freqs <= high_hz)
    if not np.any(in_band):
        raise ValueError(f"spectrum has no bins inside [{low_hz}, {high_hz}] Hz")
    power = power[..., in_band]
    return freqs[in_band][power.argmax(axis=-1)], power.max(axis=-1)


def hr_from_psd(spectrum: PowerSpectrum, cfg: PipelineConfig = PipelineConfig()) -> float:
    """Heart rate in BPM from the spectral peak inside `cfg`'s band.

    Ties break toward the lower frequency.
    """
    return 60.0 * float(_in_band_peak(spectrum.freqs, spectrum.power, cfg)[0])


def _spectra(x: np.ndarray, fps: float, cfg: PipelineConfig) -> tuple[np.ndarray, np.ndarray]:
    """`cfg`'s bandpass, then Welch spectrum, of each row of `x`: the frequencies and
    one power row per row. A row shorter than the Welch window is one Welch segment."""
    filtered = _bandpass_rows(x, fps, cfg)
    # samples near the float64 limit overflow in the filter; reject them as bandpass() does
    _require_finite(filtered, "waveform samples")
    return _welch_rows(filtered, fps, cfg)


def segment_waveform(w: Waveform, cfg: PipelineConfig = PipelineConfig()) -> list[Waveform]:
    """Split a waveform into consecutive non-overlapping `cfg.segment_s`-second segments.

    The segment length is floor(segment_s * fps) samples; a trailing remainder
    shorter than one segment is discarded. A waveform shorter than one
    segment yields an empty list.
    """
    return [Waveform(row, w.fps) for row in _segment_rows(w, cfg)]


def _segment_rows(w: Waveform, cfg: PipelineConfig) -> np.ndarray:
    """The full segments of `segment_waveform` as the rows of one
    (n_segments, segment_length) view of the samples, with no copy."""
    # a segment longer than the waveform, its length overflowed to inf included,
    # is cut to one sample more than the waveform, so that none is full
    seg_len = int(np.floor(min(cfg.segment_s * w.fps + 1e-9, w.samples.size + 1)))
    if seg_len < 2:
        raise ValueError(f"segment of {cfg.segment_s} s at {w.fps} fps is shorter than 2 samples")
    n = w.samples.size // seg_len
    return w.samples[: n * seg_len].reshape(n, seg_len)


def segment_heart_rates(
    w: Waveform, cfg: PipelineConfig = PipelineConfig()
) -> tuple[list[float], int]:
    """Per-segment heart rates plus the count of degenerate segments dropped.

    The full segments are bandpassed and run through the Welch estimator
    as one batch, each segment on its own. Segments whose in-band peak power
    falls below DEGENERATE_POWER carry no usable pulse and are dropped.
    """
    segments = _segment_rows(w, cfg)
    if not len(segments):
        raise ValueError(
            f"waveform of {w.duration_s:.2f} s has no full {cfg.segment_s} s segment"
        )
    freqs, power = _spectra(segments, w.fps, cfg)
    peak_hz, peak_power = _in_band_peak(freqs, power, cfg)
    dead = peak_power < DEGENERATE_POWER
    return (60.0 * peak_hz[~dead]).tolist(), int(np.count_nonzero(dead))


def _rate(w: Waveform, cfg: PipelineConfig) -> tuple[float, int]:
    """`video_hr` and the count of degenerate segments left out of its mean."""
    rates, dropped = segment_heart_rates(w, cfg)
    if not rates:
        raise DegenerateSignalError(
            f"all {dropped} segments are spectrally degenerate (in-band power < {DEGENERATE_POWER})"
        )
    return float(np.mean(rates)), dropped


def video_hr(w: Waveform, cfg: PipelineConfig = PipelineConfig()) -> float:
    """Mean of the per-segment heart rates of a waveform, in BPM."""
    return _rate(w, cfg)[0]


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
