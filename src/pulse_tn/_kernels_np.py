"""Fused detrend + RMS-normalization kernel on time-major data.

Traces are the columns of a (T, n) float64 array, which is the layout a
clip already has once its pixel/channel axes are flattened, so no transpose
or contiguous copy is needed. The output is a new (T, n) array.
"""

from __future__ import annotations

import numpy as np


def tn_traces(data: np.ndarray, eps: float) -> np.ndarray:
    """Detrend each column against its index, then divide by sqrt(mean square + eps)."""
    t_len = data.shape[0]
    if t_len < 3:
        raise ValueError("traces must have at least 3 samples")
    tc = np.arange(t_len, dtype=np.float64) - (t_len - 1) / 2.0
    denom = t_len * (float(t_len) * t_len - 1.0) / 12.0
    # The axis-0 mean accumulates row by row; shifting each column by its
    # frame-0 value first keeps that sum small on large DC offsets, and makes
    # exactly representable offsets cancel exactly.
    resid = data - data[0]
    resid -= resid.mean(axis=0)
    slope = tc @ resid / denom
    resid -= np.outer(tc, slope)
    ms = np.einsum("tj,tj->j", resid, resid) / t_len
    resid /= np.sqrt(ms + eps)
    return resid
