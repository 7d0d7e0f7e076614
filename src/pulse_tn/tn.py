"""Temporal normalization: least-squares detrending plus temporal RMS scaling.

Every pixel/channel trace of a clip is treated independently: the ordinary
least-squares line over the frame index is subtracted, then the residual is
divided by the square root of its temporal mean square (plus a small guard
epsilon). Per-trace gains, offsets and linear drifts are thereby removed,
which is what makes the features insensitive to illumination level and to
slow lighting or motion trends, while a shared divisor couples every output
sample to the whole trace.

The clip-level transform hands the time-major clip, flattened to
(T, H*W*C), straight to one numpy kernel (pulse_tn._kernels_np), so no
trace-major copy is made.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import FrameClip, _require_positive
from . import _kernels_np

# Kept as a constant: perfbench/run.py reports it in every run's environment block.
DEFAULT_BACKEND = "numpy"


# Kept for the same reason as DEFAULT_BACKEND; there is one kernel.
def available_backends() -> tuple[str, ...]:
    return (DEFAULT_BACKEND,)


# The guard of x / sqrt(mean(x^2) + EPSILON). It suits raw clips scaled to [0, 1]:
# it sits well below the typical detrended mean square of a pulse-bearing trace, so
# live traces normalize to unit RMS while dead (constant) traces stay bounded near 0.
EPSILON = 1e-8


@dataclass(frozen=True)
class TrendFit:
    """Least-squares line over the frame index: value ~ slope * t + intercept."""

    slope: float
    intercept: float


def _as_trace(values) -> np.ndarray:
    trace = np.asarray(values, dtype=np.float64)
    if trace.ndim != 1:
        raise ValueError(f"trace must be 1-D, got shape {trace.shape}")
    if trace.size < 2:
        raise ValueError(f"trace needs at least 2 samples, got {trace.size}")
    if not np.all(np.isfinite(trace)):
        raise ValueError("trace must be finite")
    return trace


def fit_trend(values) -> TrendFit:
    """Exact ordinary least squares of a trace against t = 0..T-1.

    Uses centered sums: slope = sum((t - tbar) (y - ybar)) / sum((t - tbar)^2),
    intercept = ybar - slope * tbar.
    """
    y = _as_trace(values)
    t_len = y.size
    tbar = (t_len - 1) / 2.0
    tc = np.arange(t_len, dtype=np.float64) - tbar
    ybar = y.mean()
    slope = float((y - ybar) @ tc / (t_len * (float(t_len) * t_len - 1.0) / 12.0))
    return TrendFit(slope=slope, intercept=float(ybar - slope * tbar))


def detrend(values) -> np.ndarray:
    """Residual of a trace about its own least-squares line.

    The result has zero mean and zero sample covariance with the index.
    """
    y = _as_trace(values)
    fit = fit_trend(y)
    t = np.arange(y.size, dtype=np.float64)
    return y - (fit.slope * t + fit.intercept)


def rms_normalize(values, epsilon: float = EPSILON) -> np.ndarray:
    """Divide a trace by the square root of its mean square plus epsilon."""
    y = _as_trace(values)
    return y / np.sqrt(np.mean(y * y) + _require_positive(epsilon, "epsilon"))


def tn_trace(values, epsilon: float = EPSILON) -> np.ndarray:
    """Detrend then RMS-normalize a single trace (needs T >= 3)."""
    y = _as_trace(values)
    if y.size < 3:
        raise ValueError("temporal normalization needs at least 3 samples")
    return rms_normalize(detrend(y), epsilon)


# Trace-major (n, T) entry point of the public API; perfbench/spans.py also wraps it by name.
def tn_traces(traces: np.ndarray, epsilon: float) -> np.ndarray:
    """Apply the kernel to an (n, T) stack of traces, one trace per row."""
    return _kernels_np.tn_traces(np.asarray(traces, dtype=np.float64).T, _require_positive(epsilon, "epsilon")).T


def tn(clip: FrameClip, epsilon: float = EPSILON) -> FrameClip:
    """Temporally normalize every pixel/channel trace of a clip.

    Epsilon is checked first; then the kernel rejects a clip shorter than 3
    frames, whose traces would each be fitted exactly by their trend line.
    """
    # Called in its own module so that perfbench/spans.py times it as the tn.kernel span.
    out = _kernels_np.tn_traces(clip.data.reshape(clip.frames, -1), _require_positive(epsilon, "epsilon"))
    return FrameClip(out.reshape(clip.data.shape), clip.fps)
