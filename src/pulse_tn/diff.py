"""Frame-difference features: the classical baseline temporal normalization replaces."""

from __future__ import annotations

from .core import FrameClip

DIFF_DENOM_GUARD = 1e-8


def frame_diff(clip: FrameClip) -> FrameClip:
    """First difference along time: out[t] = clip[t+1] - clip[t], T-1 frames."""
    return FrameClip(clip.data[1:] - clip.data[:-1], clip.fps)


def diff_normalized(clip: FrameClip) -> FrameClip:
    """Sum-normalized first difference: (x[t+1] - x[t]) / (x[t+1] + x[t] + DIFF_DENOM_GUARD).

    The guard keeps zero frames harmless; a constant multiplicative gain on
    the whole clip cancels out of the ratio. The output has T-1 frames.
    """
    a = clip.data[1:]
    b = clip.data[:-1]
    return FrameClip((a - b) / (a + b + DIFF_DENOM_GUARD), clip.fps)
