"""Clip-to-waveform extractors: the axis along which feature families compare."""

from __future__ import annotations

from enum import Enum

from .core import FrameClip, Waveform, _pool_channel, pool_spatial
from .diff import diff_normalized
from .tn import TnConfig, tn


class ExtractorKind(Enum):
    GREEN_RAW = "green_raw"
    TN_POOLED = "tn_pooled"
    DIFF_POOLED = "diff_pooled"


def _green_channel(clip_channels: int, channel: int | None) -> int:
    if channel is None:
        return 1 if clip_channels >= 2 else 0
    if not 0 <= channel < clip_channels:
        raise ValueError(f"channel {channel} out of range for {clip_channels} channels")
    return channel


def extract_green(clip: FrameClip, channel: int | None = None) -> Waveform:
    """Classical baseline: spatial mean of the green channel, frame by frame."""
    return pool_spatial(clip, _green_channel(clip.channels, channel))


def extract_tn_pooled(
    clip: FrameClip, cfg: TnConfig = TnConfig(), channel: int | None = None
) -> Waveform:
    """Temporally normalize the green channel, then pool it.

    Pooling happens after normalization so every pixel contributes at equal
    amplitude instead of bright static pixels swamping strong-pulse ones.
    TN treats each trace on its own, so only the pooled channel is
    normalized, as a one-channel view of the clip. The output is zero-mean.
    """
    g = _green_channel(clip.channels, channel)
    return pool_spatial(tn(FrameClip(clip.data[..., g : g + 1], clip.fps), cfg), 0)


def extract_diff_pooled(clip: FrameClip, channel: int | None = None) -> Waveform:
    """Sum-normalized frame differences pooled over the green channel (length T-1)."""
    d = diff_normalized(clip)
    return Waveform(_pool_channel(d.data, _green_channel(clip.channels, channel)), d.fps)


def run_extractor(
    kind: ExtractorKind, clip: FrameClip, cfg: TnConfig = TnConfig()
) -> Waveform:
    """Uniform dispatch used by the evaluation harness."""
    if kind is ExtractorKind.GREEN_RAW:
        return extract_green(clip)
    if kind is ExtractorKind.TN_POOLED:
        return extract_tn_pooled(clip, cfg)
    if kind is ExtractorKind.DIFF_POOLED:
        return extract_diff_pooled(clip)
    raise ValueError(f"unknown extractor kind {kind!r}")
