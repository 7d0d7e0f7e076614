import threading
from types import SimpleNamespace

import numpy as np
import pytest

from pulse_tn import FrameClip, core, read_clip, write_clip
from pulse_tn import extract as extract_module

# (frames, height, width) of the f32 clips below: the fewest frames TN and the
# frame differences take, 1x1 frames, frames of more pixels than numpy's
# 8192-sample cast buffer, and 7 image rows, which extract bands of 3 leave ragged
F32_GREEN_SHAPES = {"t3": (3, 4, 5), "1x1": (40, 1, 1), "1x9000": (4, 1, 9000), "bands": (40, 7, 5)}


@pytest.fixture(
    params=[
        *[(name, channels, None) for name in F32_GREEN_SHAPES for channels in (1, 3)],
        *[("bands", 3, workers) for workers in ("1", "2")],
    ],
    ids=lambda param: f"{param[0]}-c{param[1]}" + (f"-whole-w{param[2]}" if param[2] else ""),
)
def f32_read(request, tmp_path, monkeypatch):
    """An f32 clip file as read_clip returns it, float32, and the float64
    FrameClip of the same samples.

    Most params read the green channel alone, as estimate, evaluate and
    compare do; the "whole" ones read all three channels of the multi-band
    clip, as transform does, on one and on two workers.

    The samples spread over 40 binades, so that a float64 sum of them depends
    on its order, and a float32 step anywhere changes some result's bytes.
    Extract bands are 3 image rows, so a clip takes several bands and a
    ragged last one where it can.
    """
    name, channels, workers = request.param
    frames, height, width = F32_GREEN_SHAPES[name]
    shape = (frames, height, width, channels)
    rng = np.random.default_rng(sum(shape))
    path = tmp_path / "clip.rpgc"
    write_clip(FrameClip(rng.random(shape) * 2.0 ** rng.integers(-40, 1, shape), 30.0), path)
    if workers:
        monkeypatch.setattr(core.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        monkeypatch.setenv("PULSE_TN_THREADS", workers)
    clip = read_clip(path, green_only=not workers)
    assert clip.data.dtype == np.float32
    monkeypatch.setattr(extract_module, "_BAND_BYTES", 3 * 8 * frames * width)
    return clip, FrameClip(clip.data.astype(np.float64), clip.fps)


@pytest.fixture
def overflowing_clip():
    """A one-channel float64 clip of 40 frames of 3 x 3 pixels, each frame all
    +1.7e308 or all -1.7e308, in turn: the difference of two frames, and the
    sum of two samples of one frame, overflow float64."""
    signs = np.where(np.arange(40) % 2, -1.0, 1.0)
    return FrameClip(1.7e308 * signs[:, None, None, None] * np.ones((40, 3, 3, 1)), 30.0)


@pytest.fixture
def held_pool(monkeypatch):
    """core's worker pool with the futures of its queued tasks (`queued`) and an event
    (`cancelled`) set once the map has shut the pool down and its queue is cancelled,
    before its threads are joined. A pool item that waits for the event holds its
    thread until the map has stopped claiming items."""
    pool = SimpleNamespace(queued=[], cancelled=threading.Event())

    class HeldPool(core.ThreadPoolExecutor):
        def submit(self, fn, /, *args, **kwargs):
            pool.queued.append(super().submit(fn, *args, **kwargs))
            return pool.queued[-1]

        def shutdown(self, wait=True, *, cancel_futures=False):
            super().shutdown(wait=False, cancel_futures=cancel_futures)
            pool.cancelled.set()
            super().shutdown(wait, cancel_futures=cancel_futures)

    monkeypatch.setattr(core, "ThreadPoolExecutor", HeldPool)
    return pool
