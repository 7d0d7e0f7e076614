"""Frame-difference features: the classical baseline temporal normalization replaces."""

from __future__ import annotations

import numpy as np

from .core import FrameClip

DIFF_DENOM_GUARD = 1e-8

# Bytes of diff_normalized's float64 scratch block, as the TN kernel's: a block
# stays in cache from its difference to its quotient, and a band takes few of
# them, each of four ufunc calls that release and retake the interpreter lock
# beside the other clip workers. With 64 KiB blocks compare-sim's traced
# diff_normalized read 7.4-8.8 ms a unit, against 4.5-5.6 ms here (2 vCPUs).
_BLOCK_BYTES = 256 * 1024


def frame_diff(clip: FrameClip) -> FrameClip:
    """First difference along time: out[t] = clip[t+1] - clip[t], T-1 frames."""
    wide = clip.data.astype(np.float64, order="C")
    x = wide.reshape(-1)
    frame = x.size // clip.frames
    # numpy gives overlapping operands the result of disjoint ones; it copies
    # nothing here, as each sample is read before the one a frame back is written.
    # Samples near the float64 limit overflow; the output clip's check rejects them
    with np.errstate(over="ignore", invalid="ignore"):
        np.subtract(x[frame:], x[:-frame], out=x[:-frame])
    return FrameClip(wide[:-1], clip.fps)


def diff_normalized(clip: FrameClip) -> FrameClip:
    """Sum-normalized first difference: (x[t+1] - x[t]) / (x[t+1] + x[t] + DIFF_DENOM_GUARD).

    The guard keeps zero frames harmless; a constant multiplicative gain on
    the whole clip cancels out of the ratio. The output has T-1 frames.
    """
    # The clip is widened once, exactly, into the array returned. Sample i of
    # the output pairs samples i and i + frame of the flattened clip, so the
    # quotient can be written over it in order of i, one block of samples at a
    # time: a block overwrites only samples that no later block reads. Each
    # block's sum is taken in place once its difference is in the scratch block.
    wide = clip.data.astype(np.float64, order="C")
    x = wide.reshape(-1)
    frame = x.size // clip.frames
    n = x.size - frame
    scratch = np.empty(min(n, _BLOCK_BYTES // 8))
    with np.errstate(over="ignore", invalid="ignore"):  # as in frame_diff
        for start in range(0, n, scratch.size):
            b = x[start : min(start + scratch.size, n)]
            a = x[start + frame : start + frame + b.size]
            d = np.subtract(a, b, out=scratch[: b.size])
            np.add(a, b, out=b)
            b += DIFF_DENOM_GUARD
            np.divide(d, b, out=b)
    del d, scratch  # freed before the output's finiteness check allocates its mask
    return FrameClip(wide[:-1], clip.fps)
