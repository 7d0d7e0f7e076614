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
    params=[(name, channels) for name in F32_GREEN_SHAPES for channels in (1, 3)],
    ids=lambda param: f"{param[0]}-c{param[1]}",
)
def f32_green(request, tmp_path, monkeypatch):
    """The green channel of an f32 clip file as read_clip(green_only=True)
    returns it, float32, and the float64 FrameClip of the same samples.

    The samples spread over 40 binades, so that a float64 sum of them depends
    on its order, and a float32 step anywhere changes some result's bytes.
    Extract bands are 3 image rows, so a clip takes several bands and a
    ragged last one where it can.
    """
    name, channels = request.param
    frames, height, width = F32_GREEN_SHAPES[name]
    shape = (frames, height, width, channels)
    rng = np.random.default_rng(sum(shape))
    path = tmp_path / "clip.rpgc"
    write_clip(FrameClip(rng.random(shape) * 2.0 ** rng.integers(-40, 1, shape), 30.0), path)
    clip = read_clip(path, green_only=True)
    assert clip.data.dtype == np.float32
    monkeypatch.setattr(extract_module, "_BAND_BYTES", 3 * 8 * frames * width)
    return clip, FrameClip(clip.data.astype(np.float64), clip.fps)


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
