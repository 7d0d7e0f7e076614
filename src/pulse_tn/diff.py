"""Frame-difference features: the classical baseline temporal normalization replaces."""

from __future__ import annotations

import numpy as np

from .core import FrameClip

DIFF_DENOM_GUARD = 1e-8


def frame_diff(clip: FrameClip) -> FrameClip:
    """First difference along time: out[t] = clip[t+1] - clip[t], T-1 frames."""
    return FrameClip(np.subtract(clip.data[1:], clip.data[:-1], dtype=np.float64), clip.fps)


def diff_normalized(clip: FrameClip) -> FrameClip:
    """Sum-normalized first difference: (x[t+1] - x[t]) / (x[t+1] + x[t] + DIFF_DENOM_GUARD).

    The guard keeps zero frames harmless; a constant multiplicative gain on
    the whole clip cancels out of the ratio. The output has T-1 frames.
    """
    a, b = clip.data[1:], clip.data[:-1]
    # one buffer takes the guarded sum and then the quotient: two temporaries, not three
    out = np.add(a, b, dtype=np.float64)
    out += DIFF_DENOM_GUARD
    return FrameClip(np.divide(np.subtract(a, b, dtype=np.float64), out, out=out), clip.fps)
