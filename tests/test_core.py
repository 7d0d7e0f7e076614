import sys
import threading
import time
from concurrent import futures

import numpy as np
import pytest

from pulse_tn import FrameClip, PipelineConfig, Waveform, core, pool_spatial, segment_waveform
from pulse_tn.core import green_channel


def make_clip(t=10, h=4, w=4, c=3, fill=0.5, fps=30.0):
    return FrameClip(np.full((t, h, w, c), fill), fps)


class TestFrameClip:
    def test_accepts_valid_tensor(self):
        clip = make_clip()
        assert clip.frames == 10
        assert clip.channels == 3
        assert clip.data.dtype == np.float64

    def test_keeps_float32_samples_without_a_copy(self):
        # a strided view, as a channel of a decoded clip is
        data = np.random.default_rng(4).random((5, 2, 3, 3)).astype(np.float32)[..., 1:2]
        assert FrameClip(data, 30.0).data is data

    @pytest.mark.parametrize("dtype", [np.uint8, np.int64, np.float16, ">f4", ">f8"])
    def test_widens_any_other_dtype_to_float64(self, dtype):
        data = np.arange(2 * 2 * 3 * 3).reshape(2, 2, 3, 3).astype(dtype)
        clip = FrameClip(data, 30.0)
        assert clip.data.dtype == np.dtype(np.float64)
        assert np.array_equal(clip.data, data)

    @pytest.mark.parametrize(
        "shape", [(10, 4, 4), (1, 4, 4, 3), (10, 0, 4, 3), (10, 4, 4, 2), (10, 4, 4, 4)]
    )
    def test_rejects_bad_shape(self, shape):
        with pytest.raises(ValueError):
            FrameClip(np.zeros(shape), 30.0)

    def test_rejects_nonfinite(self):
        data = np.zeros((4, 2, 2, 1))
        data[2, 0, 0, 0] = np.nan
        with pytest.raises(ValueError):
            FrameClip(data, 30.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("channel", [0, 1, 2])
    def test_rejects_nonfinite_in_any_channel(self, channel, bad):
        data = np.full((4, 2, 2, 3), 0.5)
        data[1, 1, 0, channel] = bad
        with pytest.raises(ValueError, match="^clip data must not contain NaN or Inf$"):
            FrameClip(data, 30.0)

    @pytest.mark.parametrize(
        "fps", [0.0, -1.0, np.nan, np.inf, True, pytest.param(np.True_, id="numpy_True"), "30", b"30", None]
    )
    def test_rejects_bad_fps(self, fps):
        with pytest.raises(ValueError):
            make_clip(fps=fps)


class TestWaveform:
    def test_roundtrip(self):
        w = Waveform([0.0, 1.0, 2.0], 30.0)
        assert len(w) == 3
        assert w.duration_s == pytest.approx(0.1)

    def test_rejects_short_or_nonfinite(self):
        with pytest.raises(ValueError):
            Waveform([1.0], 30.0)
        with pytest.raises(ValueError):
            Waveform([1.0, np.inf], 30.0)
        with pytest.raises(ValueError, match=r"^waveform must be 1-D, got shape \(2, 2\)$"):
            Waveform([[1.0, 2.0], [3.0, 4.0]], 30.0)


class TestSegmentWaveform:
    def test_exact_division(self):
        w = Waveform(np.arange(45 * 30, dtype=float), 30.0)
        segments = segment_waveform(w, PipelineConfig(segment_s=15.0))
        assert len(segments) == 3
        assert all(len(s) == 450 for s in segments)

    def test_trailing_remainder_discarded(self):
        w = Waveform(np.arange(40 * 30, dtype=float), 30.0)
        segments = segment_waveform(w, PipelineConfig(segment_s=15.0))
        assert len(segments) == 2
        assert sum(len(s) for s in segments) == 900

    def test_shorter_than_one_segment(self):
        w = Waveform(np.arange(10 * 30, dtype=float), 30.0)
        assert segment_waveform(w, PipelineConfig(segment_s=15.0)) == []

    def test_segment_length_overflow_is_no_full_segment(self):
        # 1e307 s * 30 fps overflows to inf samples
        w = Waveform(np.arange(10 * 30, dtype=float), 30.0)
        assert segment_waveform(w, PipelineConfig(segment_s=1e307)) == []

    def test_segment_too_short_rejected(self):
        w = Waveform(np.arange(100, dtype=float), 30.0)
        with pytest.raises(ValueError):
            segment_waveform(w, PipelineConfig(segment_s=0.01))

    def test_concatenation_reproduces_prefix(self):
        rng = np.random.default_rng(3)
        w = Waveform(rng.normal(size=1000), 25.0)
        segments = segment_waveform(w, PipelineConfig(segment_s=3.0))
        joined = np.concatenate([s.samples for s in segments])
        assert np.array_equal(joined, w.samples[: joined.size])


class TestPoolSpatial:
    def test_constant_frame(self):
        clip = make_clip(t=5, h=2, w=2, c=1, fill=0.5)
        assert np.allclose(pool_spatial(clip).samples, 0.5)

    def test_symmetric_mean(self):
        data = np.zeros((2, 2, 2, 1))
        data[:, :, :, 0] = np.array([[0.0, 1.0], [1.0, 0.0]])
        w = pool_spatial(FrameClip(data, 30.0))
        assert np.allclose(w.samples, 0.5)

    def test_matches_bruteforce_sum(self):
        rng = np.random.default_rng(11)
        data = rng.random((6, 4, 4, 3))[..., 2:]
        clip = FrameClip(data, 30.0)
        w = pool_spatial(clip)
        for t in range(6):
            total = 0.0
            for i in range(4):
                for j in range(4):
                    total += data[t, i, j, 0]
            assert w.samples[t] == pytest.approx(total / 16, abs=1e-12)

    def test_linearity(self):
        rng = np.random.default_rng(5)
        x = rng.random((8, 3, 5, 3))[..., 1:2]
        y = rng.random((8, 3, 5, 3))[..., 1:2]
        a, b = 2.25, -0.75
        lhs = pool_spatial(FrameClip(a * x + b * y, 30.0)).samples
        rhs = a * pool_spatial(FrameClip(x, 30.0)).samples + b * pool_spatial(FrameClip(y, 30.0)).samples
        assert np.max(np.abs(lhs - rhs)) < 1e-12

    def test_an_overflowing_mean_raises_only_the_waveform_check(self, overflowing_clip):
        # pytest turns numpy's overflow warning into an error
        with pytest.raises(ValueError, match="^waveform samples must not contain NaN or Inf$"):
            pool_spatial(overflowing_clip)

    def test_three_channel_clip_refused(self):
        with pytest.raises(ValueError, match="one-channel clip, got 3 channels"):
            pool_spatial(make_clip(c=3))

    @pytest.mark.parametrize("pixels", [(4, 5), (1, 9000)])
    def test_chunks_sum_each_frame_as_one_whole_clip_mean(self, pixels):
        # 9000 pixels are more than numpy's 8192-sample cast buffer
        h, w = pixels
        rng = np.random.default_rng(31)
        data = rng.random((7, h, w, 1)) * 2.0 ** rng.integers(-40, 1, (7, h, w, 1))
        assert pool_spatial(FrameClip(data, 30.0)).samples.tobytes() == data[..., 0].mean(axis=(1, 2)).tobytes()

    def test_float32_clip_pools_as_its_float64_widening(self, f32_read):
        clip, wide = f32_read
        g = green_channel(clip.channels)  # a view of the green channel, as the extractors pool it
        narrow, wide = (FrameClip(c.data[..., g : g + 1], c.fps) for c in (clip, wide))
        assert narrow.data.dtype == np.float32
        assert pool_spatial(narrow).samples.tobytes() == pool_spatial(wide).samples.tobytes()


class TestOrderedMap:
    """core._ordered_map, the package's one worker pool."""

    @pytest.fixture
    def cpus(self, monkeypatch):
        """Four CPUs whatever the host has, so that the pool size is the cap's."""
        monkeypatch.setattr(core.os, "sched_getaffinity", lambda pid: {0, 1, 2, 3}, raising=False)
        monkeypatch.delenv("PULSE_TN_THREADS", raising=False)

    @pytest.fixture
    def pools(self, monkeypatch):
        """The pools that the map starts."""
        started = []

        class CountedPool(core.ThreadPoolExecutor):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                started.append(self)

        monkeypatch.setattr(core, "ThreadPoolExecutor", CountedPool)
        return started

    def test_results_come_in_item_order_when_later_items_finish_first(self, cpus, pools):
        def slow_first(i):
            time.sleep(0.01 * (6 - i))
            return i * i

        assert list(core._ordered_map(slow_first, range(6))) == [i * i for i in range(6)]
        assert len(pools) == 1

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_the_first_failing_item_in_item_order_raises(self, cpus, monkeypatch, threads):
        monkeypatch.setenv("PULSE_TN_THREADS", threads)

        def fail_at_2_and_5(i):
            if i == 2:
                time.sleep(0.05)  # item 5 fails first in time
                raise ValueError("item 2")
            if i == 5:
                raise ValueError("item 5")
            return i

        results = core._ordered_map(fail_at_2_and_5, range(8))
        assert [next(results), next(results)] == [0, 1]
        with pytest.raises(ValueError, match="^item 2$"):
            next(results)

    def test_the_calling_thread_runs_items(self, cpus, pools):
        threads = []

        def record(i):
            threads.append(threading.get_ident())
            time.sleep(0.002)
            return i

        assert list(core._ordered_map(record, range(16))) == list(range(16))
        assert len(pools) == 1
        assert threading.get_ident() in threads
        assert len(set(threads)) <= 4
        # also when every item is instant and a pool thread could take them all
        for _ in range(20):
            threads.clear()
            assert list(core._ordered_map(lambda i: threads.append(threading.get_ident()), range(4))) == [None] * 4
            assert threading.get_ident() in threads

    def test_a_map_inside_an_item_runs_inline(self, cpus, pools):
        def inner(item):
            return item, threading.get_ident()

        def outer(i):
            here = threading.get_ident()
            pairs = list(core._ordered_map(inner, [(i, j) for j in range(4)]))
            assert [thread for _, thread in pairs] == [here] * 4
            return [item for item, _ in pairs]

        assert list(core._ordered_map(outer, range(4))) == [[(i, j) for j in range(4)] for i in range(4)]
        assert len(pools) == 1  # the outer map's only

    def test_one_worker_starts_no_thread(self, cpus, pools, monkeypatch):
        monkeypatch.setenv("PULSE_TN_THREADS", "1")
        before = threading.active_count()
        threads = set()

        def record(i):
            threads.add(threading.get_ident())
            assert threading.active_count() == before
            return i

        assert list(core._ordered_map(record, range(8))) == list(range(8))
        assert pools == []
        assert threads == {threading.get_ident()}

    def test_a_parallel_map_runs_every_item_before_it_returns(self, cpus, pools):
        before = threading.active_count()
        ran = []

        def record(i):
            time.sleep(0.002)
            ran.append(i)

        core._ordered_map(record, range(8))  # no result is taken
        assert sorted(ran) == list(range(8))
        assert len(pools) == 1
        assert threading.active_count() == before

    @pytest.mark.parametrize("first_failure", [0, 1])
    @pytest.mark.parametrize("threads", [2, 4])
    def test_the_first_failure_ends_the_map(self, cpus, held_pool, monkeypatch, threads, first_failure):
        # item 0 runs on this thread, item 1 on a pool thread, and every item from the first
        # failure on fails. Each other item a pool thread takes waits until the pool's queue
        # is cancelled; item 0, when it does not fail, waits until item 1 has failed
        monkeypatch.setenv("PULSE_TN_THREADS", str(threads))
        caller, ran = threading.get_ident(), []

        def run_item(i):
            ran.append(i)
            if i == 0 and first_failure == 1:
                assert futures.wait(held_pool.queued[:1], timeout=30).done
            elif i != first_failure and threading.get_ident() != caller:
                assert held_pool.cancelled.wait(timeout=30)
            if i >= first_failure:
                raise ValueError(f"item {i}")
            return i

        before = threading.active_count()
        results = core._ordered_map(run_item, range(16))
        # the threads' first items, and for a pool failure the one item its thread takes next
        assert len(ran) <= threads + first_failure
        assert threading.active_count() == before
        assert [next(results) for _ in range(first_failure)] == list(range(first_failure))
        with pytest.raises(ValueError, match=f"^item {first_failure}$"):
            next(results)

    def test_every_item_runs_once_under_frequent_thread_switches(self, monkeypatch):
        # more workers than the host's CPUs, and a switch interval that interleaves every claim
        monkeypatch.setattr(core.os, "sched_getaffinity", lambda pid: set(range(8)), raising=False)
        monkeypatch.delenv("PULSE_TN_THREADS", raising=False)
        runs, results = [], []

        def run_item(i):
            runs.append(i)
            return -i

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(20):
                caller = threading.Thread(target=lambda: results.append(list(core._ordered_map(run_item, range(200)))))
                caller.start()
                caller.join(timeout=60)
                assert not caller.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert results == [[-i for i in range(200)]] * 20
        assert sorted(runs) == sorted(list(range(200)) * 20)

    def test_a_failure_ends_the_map_once_under_frequent_thread_switches(self, monkeypatch):
        # as above, with items 120 and 160 failing: every item up to 120 runs, none runs twice,
        # and item 120's error follows the results before it
        monkeypatch.setattr(core.os, "sched_getaffinity", lambda pid: set(range(8)), raising=False)
        monkeypatch.delenv("PULSE_TN_THREADS", raising=False)
        runs, outcomes = [], []

        def run_item(i):
            runs.append(i)
            if i in (120, 160):
                raise ValueError(f"item {i}")
            return -i

        def take_results():
            results = core._ordered_map(run_item, range(200))
            taken = [next(results) for _ in range(120)]
            with pytest.raises(ValueError) as exc:
                next(results)
            outcomes.append((taken, str(exc.value)))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(20):
                runs.clear()
                caller = threading.Thread(target=take_results)
                caller.start()
                caller.join(timeout=60)
                assert not caller.is_alive()
                assert len(runs) == len(set(runs)) and set(range(121)) <= set(runs)
        finally:
            sys.setswitchinterval(interval)
        assert outcomes == [([-i for i in range(120)], "item 120")] * 20

    def test_no_item_starts_once_a_running_pool_task_has_failed(self, cpus, held_pool, monkeypatch):
        # item 1 runs on the pool thread and fails only once this thread, finding its task
        # running, has gone past it and claimed item 2, which ends once item 1 has failed.
        # The failure is shared, so no item after it starts on either thread
        monkeypatch.setenv("PULSE_TN_THREADS", "2")
        ran, started, claimed = [], threading.Event(), threading.Event()

        def run_item(i):
            ran.append(i)
            if i == 0:
                assert started.wait(timeout=30)
            elif i == 1:
                started.set()
                assert claimed.wait(timeout=30)
                raise ValueError("item 1")
            elif i == 2:
                claimed.set()
                assert futures.wait(held_pool.queued[:1], timeout=30).done
            return i

        results = core._ordered_map(run_item, range(16))
        assert sorted(ran) == [0, 1, 2]
        assert next(results) == 0
        with pytest.raises(ValueError, match="^item 1$"):
            next(results)

    def test_a_bad_thread_cap_raises_at_the_call(self, monkeypatch):
        monkeypatch.setenv("PULSE_TN_THREADS", "0")
        with pytest.raises(ValueError, match="^PULSE_TN_THREADS must be an integer >= 1, got '0'$"):
            core._ordered_map(abs, range(3))
