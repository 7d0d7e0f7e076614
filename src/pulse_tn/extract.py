"""Clip-to-waveform extractors: the axis along which feature families compare."""

from __future__ import annotations

from enum import Enum

from .core import FrameClip, Waveform, green_channel, pool_spatial
from .diff import diff_normalized
from .tn import EPSILON, tn


class ExtractorKind(Enum):
    GREEN_RAW = "green_raw"
    TN_POOLED = "tn_pooled"
    DIFF_POOLED = "diff_pooled"


def _green(clip: FrameClip) -> FrameClip:
    """The green channel as a one-channel view, which needs no second check."""
    g = green_channel(clip.channels)
    return FrameClip._checked(clip.data[..., g : g + 1], clip.fps)


def extract_green(clip: FrameClip) -> Waveform:
    """Classical baseline: spatial mean of the green channel, frame by frame."""
    return pool_spatial(_green(clip))


def extract_tn_pooled(clip: FrameClip, epsilon: float = EPSILON) -> Waveform:
    """Temporally normalize the green channel, then pool it.

    Pooling happens after normalization so every pixel contributes at equal
    amplitude instead of bright static pixels swamping strong-pulse ones.
    TN treats each trace on its own, so only the pooled channel is
    normalized. The output is zero-mean.
    """
    return pool_spatial(tn(_green(clip), epsilon))


def extract_diff_pooled(clip: FrameClip) -> Waveform:
    """Sum-normalized frame differences of the green channel, pooled (length T-1)."""
    return pool_spatial(diff_normalized(_green(clip)))


def run_extractor(kind: ExtractorKind, clip: FrameClip, epsilon: float = EPSILON) -> Waveform:
    """Uniform dispatch used by the evaluation harness."""
    if kind is ExtractorKind.GREEN_RAW:
        return extract_green(clip)
    if kind is ExtractorKind.TN_POOLED:
        return extract_tn_pooled(clip, epsilon)
    if kind is ExtractorKind.DIFF_POOLED:
        return extract_diff_pooled(clip)
    raise ValueError(f"unknown extractor kind {kind!r}")
