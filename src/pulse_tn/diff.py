"""Frame-difference features: the classical baseline temporal normalization replaces."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import FrameClip, _require_finite, _require_fps
from .simulate import NoiseSpec, SceneSpec, render_ideal, render_noisy

DIFF_DENOM_GUARD = 1e-8


@dataclass(frozen=True)
class DiffClip:
    """A (T-1) x H x W x C tensor of frame-to-frame feature differences."""

    data: np.ndarray
    fps: float

    def __post_init__(self):
        data = np.asarray(self.data, dtype=np.float64)
        if data.ndim != 4:
            raise ValueError(f"diff tensor must be (T-1) x H x W x C, got shape {data.shape}")
        if data.shape[0] < 1:
            raise ValueError("diff tensor needs at least 1 frame pair")
        _require_finite(data, "diff data")
        object.__setattr__(self, "data", data)
        object.__setattr__(self, "fps", _require_fps(self.fps))

    @property
    def frames(self) -> int:
        return self.data.shape[0]


def frame_diff(clip: FrameClip) -> DiffClip:
    """First difference along time: out[t] = clip[t+1] - clip[t]."""
    return DiffClip(np.diff(clip.data, axis=0), clip.fps)


def diff_normalized(clip: FrameClip) -> DiffClip:
    """Sum-normalized first difference: (x[t+1] - x[t]) / (x[t+1] + x[t] + DIFF_DENOM_GUARD).

    The guard keeps zero frames harmless; a constant multiplicative gain on
    the whole clip cancels out of the ratio.
    """
    a = clip.data[1:]
    b = clip.data[:-1]
    return DiffClip((a - b) / (a + b + DIFF_DENOM_GUARD), clip.fps)


def diff_noise_residual(
    scene: SceneSpec, pulse, noise: NoiseSpec, height: int, width: int
) -> DiffClip:
    """Noise leakage in difference-feature space for a simulated scene.

    Computed as frame_diff(noisy) - frame_diff(ideal) with a shared jitter
    realization.
    """
    noisy = frame_diff(render_noisy(scene, pulse, noise, height, width))
    ideal = frame_diff(render_ideal(scene, pulse, height, width))
    return DiffClip(noisy.data - ideal.data, noisy.fps)
