"""Core value types: video clips, 1-D signals, segmentation and pooling.

Everything here is an immutable value; the operations are pure functions,
so clips and waveforms can be shared freely across threads. The package's
one worker pool, `_ordered_map`, is here too.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

THREADS_ENV = "PULSE_TN_THREADS"


def worker_count(n_tasks: int) -> int:
    """Bounded pool size: the CPUs this process may run on (all of the host's where
    the platform cannot tell), at most one per task; the PULSE_TN_THREADS env var caps it."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    workers = min(cpus, max(n_tasks, 1))
    cap = os.environ.get(THREADS_ENV, "").strip()
    if cap and not (cap.isdecimal() and int(cap) >= 1):
        raise ValueError(f"{THREADS_ENV} must be an integer >= 1, got {cap!r}")
    return min(workers, int(cap)) if cap else workers


class _InMap(threading.local):
    """Whether this thread is running an item of a parallel `_ordered_map`."""

    active = False


_in_map = _InMap()


def _ordered_map(fn, items):
    """An iterator over fn(item) for each item, in item order, computed on up
    to worker_count(len(items)) threads, the calling thread among them.

    Raises the worker count's ValueError at the call, not at the first result.
    Iterating yields the results as the serial loop would, and raises the
    exception of the first failing item in item order, once the results
    before it are taken. At one worker, and inside an item of a parallel map
    (so that there is one level of parallelism), it starts no thread and
    runs each item as its result is asked for. A parallel map's threads stop
    once it is exhausted, raises or is closed.
    """
    items = list(items)
    workers = 1 if _in_map.active else worker_count(len(items))
    return map(fn, items) if workers == 1 else _parallel_map(fn, items, workers)


def _parallel_map(fn, items: list, workers: int):
    """_ordered_map on a pool of workers - 1 threads, which take the queued
    items in order, and this thread, which claims an item by cancelling its
    queued task."""

    def task(item):
        _in_map.active = True
        try:
            return fn(item)
        finally:
            _in_map.active = False

    def here(item) -> Future:
        done = Future()
        try:
            done.set_result(task(item))
        except Exception as exc:
            done.set_exception(exc)
        return done

    # looked up at each call, so a ThreadPoolExecutor swapped into this module is used
    pool = ThreadPoolExecutor(max_workers=workers - 1)
    try:
        # item 0 is never queued: the calling thread runs items so that it does not sit idle, and
        # so that perfbench's traced metrics, which count band spans only as direct children of
        # the extractor span, find some. Each item is its task's first argument, so a pool that
        # names tasks can name them by it
        slots = [None] + [pool.submit(task, item) for item in items[1:]]
        slots[0] = here(items[0])
        ahead = 1
        for i in range(len(items)):
            ahead = max(ahead, i)
            # while a pool thread runs item i, this thread takes the next items none has started
            while not slots[i].done() and ahead < len(items):
                if slots[ahead].cancel():
                    slots[ahead] = here(items[ahead])
                ahead += 1
            result = slots[i].result()
            slots[i] = None  # the caller may fold each result in and drop it
            yield result
    finally:
        pool.shutdown(cancel_futures=True)


def _require_finite(values: np.ndarray, name: str) -> None:
    if not np.all(np.isfinite(values)):
        raise ValueError(f"{name} must not contain NaN or Inf")


def _require_fps(fps: float) -> float:
    fps = float(fps)
    if not np.isfinite(fps) or fps <= 0.0:
        raise ValueError(f"fps must be finite and > 0, got {fps}")
    return fps


def _require_clip_shape(shape: tuple) -> None:
    """FrameClip's shape rules, which clipio also applies to a header's dims
    before it reads the payload."""
    if len(shape) != 4:
        raise ValueError(f"clip tensor must be T x H x W x C, got shape {shape}")
    t, h, w, c = shape
    if t < 2:
        raise ValueError(f"clip needs at least 2 frames, got {t}")
    if h < 1 or w < 1:
        raise ValueError(f"clip needs H >= 1 and W >= 1, got {h} x {w}")
    if c not in (1, 3):
        raise ValueError(f"clip channel count must be 1 or 3, got {c}")


def green_channel(channels: int) -> int:
    """Index of the green channel: channel 1 of 3, channel 0 of 1."""
    return 1 if channels == 3 else 0


@dataclass(frozen=True)
class FrameClip:
    """A T x H x W x C video tensor with its frame rate in Hz.

    Raw clips are expected in [0, 1] (u8 payloads are divided by 255 at
    ingestion); transformed feature clips are unbounded. Data is stored
    as float64.
    """

    data: np.ndarray
    fps: float

    def __post_init__(self):
        data = np.asarray(self.data, dtype=np.float64)
        _require_clip_shape(data.shape)
        _require_finite(data, "clip data")
        object.__setattr__(self, "data", data)
        object.__setattr__(self, "fps", _require_fps(self.fps))

    @classmethod
    def _checked(cls, data: np.ndarray, fps: float) -> FrameClip:
        """A clip of float64 data whose shape and samples the caller has
        already checked, so they are not scanned again; fps still is."""
        clip = object.__new__(cls)
        object.__setattr__(clip, "data", data)
        object.__setattr__(clip, "fps", _require_fps(fps))
        return clip

    @property
    def frames(self) -> int:
        return self.data.shape[0]

    @property
    def channels(self) -> int:
        return self.data.shape[3]


@dataclass(frozen=True)
class Waveform:
    """A real-valued 1-D signal with its sampling rate in Hz.

    Used both for per-pixel intensity traces and for pooled pulse signals.
    """

    samples: np.ndarray
    fps: float

    def __post_init__(self):
        samples = np.asarray(self.samples, dtype=np.float64)
        if samples.ndim != 1:
            raise ValueError(f"waveform must be 1-D, got shape {samples.shape}")
        if samples.size < 2:
            raise ValueError(f"waveform needs at least 2 samples, got {samples.size}")
        _require_finite(samples, "waveform samples")
        object.__setattr__(self, "samples", samples)
        object.__setattr__(self, "fps", _require_fps(self.fps))

    def __len__(self) -> int:
        return self.samples.size

    @property
    def duration_s(self) -> float:
        return self.samples.size / self.fps


def segment_waveform(w: Waveform, seconds: float) -> list[Waveform]:
    """Split a waveform into consecutive non-overlapping fixed-length segments.

    The segment length is floor(seconds * fps) samples; a trailing remainder
    shorter than one segment is discarded. A waveform shorter than one
    segment yields an empty list.
    """
    return [Waveform(row, w.fps) for row in _segment_rows(w, seconds)]


def _check_segment_s(seconds: float) -> None:
    if not (np.isfinite(seconds) and seconds > 0):
        raise ValueError(f"segment duration must be finite and > 0 s, got {seconds}")


def _segment_rows(w: Waveform, seconds: float) -> np.ndarray:
    """The full segments of `segment_waveform` as the rows of one
    (n_segments, segment_length) view of the samples, with no copy."""
    _check_segment_s(seconds)
    seg_len = int(np.floor(seconds * w.fps + 1e-9))
    if seg_len < 2:
        raise ValueError(f"segment of {seconds} s at {w.fps} fps is shorter than 2 samples")
    n = w.samples.size // seg_len
    return w.samples[: n * seg_len].reshape(n, seg_len)


def pool_spatial(clip: FrameClip) -> Waveform:
    """Average a one-channel FrameClip over all pixels, frame by frame."""
    if clip.channels != 1:
        raise ValueError(f"pool_spatial needs a one-channel clip, got {clip.channels} channels")
    return Waveform(clip.data[:, :, :, 0].mean(axis=(1, 2)), clip.fps)
