"""Core value types: video clips, 1-D signals, segmentation and pooling.

Everything here is an immutable value; the operations are pure functions,
so clips and waveforms can be shared freely across threads.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def _require_finite(values: np.ndarray, name: str) -> None:
    if not np.all(np.isfinite(values)):
        raise ValueError(f"{name} must not contain NaN or Inf")


def _require_fps(fps: float) -> float:
    fps = float(fps)
    if not np.isfinite(fps) or fps <= 0.0:
        raise ValueError(f"fps must be finite and > 0, got {fps}")
    return fps


def _require_clip_shape(shape: tuple) -> None:
    """FrameClip's shape rules, which clipio also applies to a header's dims
    before it reads the payload."""
    if len(shape) != 4:
        raise ValueError(f"clip tensor must be T x H x W x C, got shape {shape}")
    t, h, w, c = shape
    if t < 2:
        raise ValueError(f"clip needs at least 2 frames, got {t}")
    if h < 1 or w < 1:
        raise ValueError(f"clip needs H >= 1 and W >= 1, got {h} x {w}")
    if c not in (1, 3):
        raise ValueError(f"clip channel count must be 1 or 3, got {c}")


def green_channel(channels: int) -> int:
    """Index of the green channel: channel 1 of 3, channel 0 of 1."""
    return 1 if channels == 3 else 0


@dataclass(frozen=True)
class FrameClip:
    """A T x H x W x C video tensor with its frame rate in Hz.

    Raw clips are expected in [0, 1] (u8 payloads are divided by 255 at
    ingestion); transformed feature clips are unbounded. Data is stored
    as float64.
    """

    data: np.ndarray
    fps: float

    def __post_init__(self):
        data = np.asarray(self.data, dtype=np.float64)
        _require_clip_shape(data.shape)
        _require_finite(data, "clip data")
        object.__setattr__(self, "data", data)
        object.__setattr__(self, "fps", _require_fps(self.fps))

    @classmethod
    def _checked(cls, data: np.ndarray, fps: float) -> FrameClip:
        """A clip of float64 data whose shape and samples the caller has
        already checked, so they are not scanned again; fps still is."""
        clip = object.__new__(cls)
        object.__setattr__(clip, "data", data)
        object.__setattr__(clip, "fps", _require_fps(fps))
        return clip

    @property
    def frames(self) -> int:
        return self.data.shape[0]

    @property
    def channels(self) -> int:
        return self.data.shape[3]


@dataclass(frozen=True)
class Waveform:
    """A real-valued 1-D signal with its sampling rate in Hz.

    Used both for per-pixel intensity traces and for pooled pulse signals.
    """

    samples: np.ndarray
    fps: float

    def __post_init__(self):
        samples = np.asarray(self.samples, dtype=np.float64)
        if samples.ndim != 1:
            raise ValueError(f"waveform must be 1-D, got shape {samples.shape}")
        if samples.size < 2:
            raise ValueError(f"waveform needs at least 2 samples, got {samples.size}")
        _require_finite(samples, "waveform samples")
        object.__setattr__(self, "samples", samples)
        object.__setattr__(self, "fps", _require_fps(self.fps))

    def __len__(self) -> int:
        return self.samples.size

    @property
    def duration_s(self) -> float:
        return self.samples.size / self.fps


def segment_waveform(w: Waveform, seconds: float) -> list[Waveform]:
    """Split a waveform into consecutive non-overlapping fixed-length segments.

    The segment length is floor(seconds * fps) samples; a trailing remainder
    shorter than one segment is discarded. A waveform shorter than one
    segment yields an empty list.
    """
    return [Waveform(row, w.fps) for row in _segment_rows(w, seconds)]


def _check_segment_s(seconds: float) -> None:
    if not (np.isfinite(seconds) and seconds > 0):
        raise ValueError(f"segment duration must be finite and > 0 s, got {seconds}")


def _segment_rows(w: Waveform, seconds: float) -> np.ndarray:
    """The full segments of `segment_waveform` as the rows of one
    (n_segments, segment_length) view of the samples, with no copy."""
    _check_segment_s(seconds)
    seg_len = int(np.floor(seconds * w.fps + 1e-9))
    if seg_len < 2:
        raise ValueError(f"segment of {seconds} s at {w.fps} fps is shorter than 2 samples")
    n = w.samples.size // seg_len
    return w.samples[: n * seg_len].reshape(n, seg_len)


def pool_spatial(clip: FrameClip) -> Waveform:
    """Average a one-channel FrameClip over all pixels, frame by frame."""
    if clip.channels != 1:
        raise ValueError(f"pool_spatial needs a one-channel clip, got {clip.channels} channels")
    return Waveform(clip.data[:, :, :, 0].mean(axis=(1, 2)), clip.fps)
