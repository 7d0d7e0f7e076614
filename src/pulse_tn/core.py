"""Core value types (video clips, 1-D signals) and spatial pooling.

Everything here is an immutable value; the operations are pure functions,
so clips and waveforms can be shared freely across threads. The package's
one worker pool, `_ordered_map`, is here too.
"""

from __future__ import annotations

import math
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
    before it are taken. In a parallel map no item starts once an earlier
    item has failed, and its threads stop before it returns. At one worker, and inside an item of a parallel
    map (so that there is one level of parallelism), it starts no thread and
    runs each item as its result is asked for.
    """
    items = list(items)
    workers = 1 if _in_map.active else worker_count(len(items))
    return map(fn, items) if workers == 1 else _parallel_map(fn, items, workers)


def _parallel_map(fn, items: list, workers: int):
    """_ordered_map on a pool of workers - 1 threads, which take the queued
    items in order, and this thread, which runs item 0 and then claims each
    unstarted queued item by cancelling its task. The index of the first item
    known to have failed is shared: no item after it starts, on any thread."""
    failed = [len(items)]
    lock = threading.Lock()

    def task(item, index):
        if index > failed[0]:
            return None  # an earlier item failed, so no result from here on is taken
        _in_map.active = True
        try:
            return fn(item)
        except Exception:
            with lock:
                failed[0] = min(failed[0], index)
            raise
        finally:
            _in_map.active = False

    def here(item, index) -> Future:
        done = Future()
        try:
            done.set_result(task(item, index))
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
        queued = [pool.submit(task, item, index) for index, item in enumerate(items[1:], 1)]
        done = []
        # then each queued item no pool thread has started, up to the first failed item
        for index, (item, slot) in enumerate(zip(items, [None, *queued])):
            if index > failed[0]:
                break
            done.append(here(item, index) if slot is None or slot.cancel() else slot)
    finally:
        pool.shutdown(cancel_futures=True)
    return map(Future.result, done)


def _require_finite(values: np.ndarray, name: str) -> None:
    if not np.all(np.isfinite(values)):
        raise ValueError(f"{name} must not contain NaN or Inf")


def _is_finite(value) -> bool:
    """Whether a value is finite as a float; an integer beyond the float range is
    not, and neither is a value that float() does not take."""
    try:
        return math.isfinite(float(value))
    except (OverflowError, TypeError):
        return False


# float() takes a boolean or a numeric string, and numpy casts None to NaN, but none is a quantity
_NOT_NUMBERS = (bool, np.bool_, str, bytes, type(None))


def _require_positive(value, name: str) -> float:
    finite = not isinstance(value, _NOT_NUMBERS) and _is_finite(value)
    value = float(value) if finite else value
    if not (finite and value > 0.0):
        raise ValueError(f"{name} must be finite and > 0, got {value}")
    return value


def _require_number(value, name: str, integer: bool = False) -> None:
    """An int, or a float unless `integer`; a boolean is neither."""
    if isinstance(value, bool) or not isinstance(value, int if integer else (int, float)):
        raise ValueError(f"{name} must be {'an integer' if integer else 'a number'}, got {value!r}")


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
    ingestion); transformed feature clips are unbounded. The constructor
    stores data as float64. A green channel that clipio decodes from an f32
    payload keeps its float32 samples instead; every function of the package
    that takes a clip widens them exactly inside its own float64 arithmetic,
    so it gives the bytes it gives for the float64 widening of that clip.
    """

    data: np.ndarray
    fps: float

    def __post_init__(self):
        data = np.asarray(self.data, dtype=np.float64)
        _require_clip_shape(data.shape)
        _require_finite(data, "clip data")
        object.__setattr__(self, "data", data)
        object.__setattr__(self, "fps", _require_positive(self.fps, "fps"))

    @classmethod
    def _checked(cls, data: np.ndarray, fps: float) -> FrameClip:
        """A clip of float64 data, or of a decoded f32 payload's float32
        samples, whose shape and samples the caller has already checked, so
        they are not scanned again; fps still is."""
        clip = object.__new__(cls)
        object.__setattr__(clip, "data", data)
        object.__setattr__(clip, "fps", _require_positive(fps, "fps"))
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

    Used for pooled pulse signals, synthetic pulses and reference labels.
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
        object.__setattr__(self, "fps", _require_positive(self.fps, "fps"))

    def __len__(self) -> int:
        return self.samples.size

    @property
    def duration_s(self) -> float:
        return self.samples.size / self.fps


def pool_spatial(clip: FrameClip) -> Waveform:
    """Average a one-channel FrameClip over all pixels, frame by frame, in float64.

    Float32 data is widened in one copy, which the extractors keep band-sized.
    """
    if clip.channels != 1:
        raise ValueError(f"pool_spatial needs a one-channel clip, got {clip.channels} channels")
    # not mean(dtype=float64): that casts through 8192-sample buffers, which
    # would sum a frame of more pixels in another order
    return Waveform(np.asarray(clip.data[:, :, :, 0], dtype=np.float64).mean(axis=(1, 2)), clip.fps)
