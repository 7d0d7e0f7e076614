"""Fused detrend + RMS-normalization kernel on time-major data.

Traces are the columns of a (T, n) float32 or float64 array, which is the
layout a clip already has once its pixel/channel axes are flattened, so no
transpose or contiguous copy is needed. The kernel computes in float64: it
first widens the input exactly, with one astype into the array it returns,
and shifts that by frame 0 in place, so a float32 input gives the bytes of
its float64 widening. That (T, n) float64 array is the only full-size
allocation: the slope removal and the sum of squares run together over
blocks of rows small enough to stay in cache.

The kernel calls no BLAS routine, so concurrent callers (the clip worker
pool of `evaluate` and `compare`) never contend for BLAS threads.
"""

from __future__ import annotations

import numpy as np

# Bytes of output rows handled per block by the slope-removal/sum-of-squares pass.
_BLOCK_BYTES = 256 * 1024


def tn_traces(data: np.ndarray, epsilon: float) -> np.ndarray:
    """Detrend each column against its index, then divide by sqrt(mean square + epsilon)."""
    t_len, n = data.shape
    if t_len < 3:
        raise ValueError(f"temporal normalization needs at least 3 frames, got {t_len}")
    tc = np.arange(t_len, dtype=np.float64) - (t_len - 1) / 2.0
    denom = t_len * (float(t_len) * t_len - 1.0) / 12.0
    # samples near the float64 limit overflow; callers reject the non-finite result
    with np.errstate(over="ignore", invalid="ignore"):
        # The axis-0 mean accumulates row by row; shifting each column by its
        # frame-0 value first keeps that sum small on large DC offsets, and makes
        # exactly representable offsets cancel exactly.
        resid = data.astype(np.float64)
        resid -= data[0].astype(np.float64)
        resid -= resid.mean(axis=0)
        # einsum, not @: OpenBLAS runs a dgemv this size on its own threads, which take
        # the second CPU from the clip worker pool (two workers ran compare ×1.03 faster than one)
        slope = np.einsum("t,tj->j", tc, resid) / denom
        sumsq = np.zeros(n)
        rows = max(1, _BLOCK_BYTES // (8 * max(n, 1)))
        for start in range(0, t_len, rows):
            block = resid[start : start + rows]
            block -= tc[start : start + rows, None] * slope
            sumsq += np.einsum("tj,tj->j", block, block)
        resid /= np.sqrt(sumsq / t_len + epsilon)
    return resid
