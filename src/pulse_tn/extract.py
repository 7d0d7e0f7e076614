"""Clip-to-waveform extractors: the axis along which feature families compare."""

from __future__ import annotations

from enum import Enum

from .core import FrameClip, Waveform, _ordered_map, green_channel, pool_spatial
from .diff import diff_normalized
from .tn import EPSILON, tn


# Bytes of float64 feature samples per band of image rows, like the kernel's
# _BLOCK_BYTES: small enough that a band's transform stays near the cache, so
# a large clip never gets a second full-size array.
_BAND_BYTES = 2 * 1024 * 1024


class ExtractorKind(Enum):
    GREEN_RAW = "green_raw"
    TN_POOLED = "tn_pooled"
    DIFF_POOLED = "diff_pooled"


def _banded_pool(transform, clip: FrameClip) -> Waveform:
    """pool_spatial(transform(green)) of the clip's green channel, for a transform
    that treats each pixel trace on its own, taken over bands of whole image rows.

    Each band is a view, checked with its clip, pooled on its own on the worker
    pool. The band means, weighted by each band's rows / height, are summed in
    band order as each is ready; one band has the weight 1.0, so a clip that fits
    one band gives exactly the single call.
    """
    frames, height, width, _ = clip.data.shape
    g = green_channel(clip.channels)
    rows = max(1, _BAND_BYTES // (8 * frames * width))

    def weighted_band(start: int):
        band = clip.data[:, start : start + rows, :, g : g + 1]
        return band.shape[1] / height * pool_spatial(transform(FrameClip._checked(band, clip.fps))).samples

    return Waveform(sum(_ordered_map(weighted_band, range(0, height, rows))), clip.fps)


def extract_green(clip: FrameClip) -> Waveform:
    """Classical baseline: spatial mean of the green channel, frame by frame."""
    return _banded_pool(lambda band: band, clip)


def extract_tn_pooled(clip: FrameClip, epsilon: float = EPSILON) -> Waveform:
    """Temporally normalize the green channel, then pool it.

    Pooling happens after normalization so every pixel contributes at equal
    amplitude instead of bright static pixels swamping strong-pulse ones.
    TN treats each trace on its own, so only the pooled channel is
    normalized. The output is zero-mean.
    """
    return _banded_pool(lambda band: tn(band, epsilon), clip)


def extract_diff_pooled(clip: FrameClip) -> Waveform:
    """Sum-normalized frame differences of the green channel, pooled (length T-1)."""
    return _banded_pool(diff_normalized, clip)


def run_extractor(kind: ExtractorKind, clip: FrameClip, epsilon: float = EPSILON) -> Waveform:
    """Uniform dispatch used by the evaluation harness."""
    if kind is ExtractorKind.GREEN_RAW:
        return extract_green(clip)
    if kind is ExtractorKind.TN_POOLED:
        return extract_tn_pooled(clip, epsilon)
    if kind is ExtractorKind.DIFF_POOLED:
        return extract_diff_pooled(clip)
    raise ValueError(f"unknown extractor kind {kind!r}")
