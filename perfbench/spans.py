"""In-memory span tracer that wraps pulse_tn's functions from outside the package.

Each span records its name, start and end (``time.perf_counter`` seconds), its
parent span, the clip id it works on and its thread. Parents come from a
per-thread stack; a task handed to the harness thread pool takes the span
that submitted it as its parent. Spans stay in memory until the benchmark
writes them out at the end.

Wrapping happens at every ``pulse_tn`` module attribute that holds the
function, because that is where the callers look it up (``harness`` calls
``run_extractor`` through its own module globals, ``extract`` calls ``tn``
through its own, and so on). No package source is changed.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import importlib.util
import json
import os
import sys
import threading
import time
from collections import defaultdict
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path


class Span:
    __slots__ = ("name", "parent", "clip", "thread", "start", "end", "attrs")

    def __init__(self, name, parent, clip, thread):
        self.name = name
        self.parent = parent
        self.clip = clip
        self.thread = thread
        self.start = self.end = 0.0
        self.attrs = None


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._local = threading.local()

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> Span | None:
        stack = self._stack()
        return stack[-1] if stack else None

    def open(self, name: str, clip: str | None = None, parent: Span | None = None) -> Span:
        stack = self._stack()
        if parent is None and stack:
            parent = stack[-1]
        if clip is None and parent is not None:
            clip = parent.clip
        span = Span(name, parent, clip, threading.get_ident())
        self.spans.append(span)
        stack.append(span)
        span.start = time.perf_counter()
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack().pop()

    def wrap(self, fn, name, clip_of=None, attrs_of=None):
        """A function that runs ``fn`` inside a span; ``name`` may be a function of the arguments."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = tracer.open(name(*args) if callable(name) else name, clip_of(*args) if clip_of else None)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(span)
            if attrs_of is not None:
                span.attrs = attrs_of(result, *args)
            return result

        return traced

    def pool_class(self):
        """ThreadPoolExecutor whose tasks run in a span parented by the submitting span."""
        tracer = self

        class TracedPool(ThreadPoolExecutor):
            def submit(self, fn, /, *args, **kwargs):
                parent = tracer.current()
                clip = Path(args[0]).stem if args and isinstance(args[0], (str, os.PathLike)) else None

                def task():
                    span = tracer.open("harness.task", clip, parent)
                    try:
                        return fn(*args, **kwargs)
                    finally:
                        tracer.close(span)

                return super().submit(task)

        return TracedPool

    @contextlib.contextmanager
    def patched(self):
        """Swap pulse_tn's traced functions in for the duration of the block."""
        undo = []

        def replace(original, traced):
            for mod_name, mod in list(sys.modules.items()):
                if mod_name == "pulse_tn" or mod_name.startswith("pulse_tn."):
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, key, traced)
                            undo.append((mod, key, original))

        for module_name, attr, name, clip_of, attrs_of in TARGETS:
            original = getattr(importlib.import_module(module_name), attr)
            replace(original, self.wrap(original, name, clip_of, attrs_of))
        replace(ThreadPoolExecutor, self.pool_class())
        frame_clip = importlib.import_module("pulse_tn.core").FrameClip
        undo.append((frame_clip, "__post_init__", frame_clip.__post_init__))
        frame_clip.__post_init__ = self.wrap(frame_clip.__post_init__, "core.FrameClip")
        try:
            yield self
        finally:
            for owner, key, original in reversed(undo):
                setattr(owner, key, original)


def _clip_of_path(path, *_):
    return Path(path).stem


def _file_bytes(result, path, *_):
    return {"bytes": os.path.getsize(path)}


def _samples(result, data, *_):
    return {"samples": data.size}


def _tn_attrs(result, clip, *_):
    return {"samples": clip.data.size, "channels": clip.channels}


def _segment_counts(result, *_):
    rates, dropped = result
    return {"used": len(rates), "attempted": len(rates) + dropped}


def _extractor_name(kind, *_):
    return f"extract.run_extractor.{kind.value}"


# (defining module, attribute, span name, clip id from args, attributes from result and args)
TARGETS = [
    ("pulse_tn.clipio", "read_clip", "clipio.read_clip", _clip_of_path, _file_bytes),
    ("pulse_tn.clipio", "read_labels", "clipio.read_labels", None, None),
    ("pulse_tn.core", "pool_spatial", "core.pool_spatial", None, None),
    ("pulse_tn.tn", "tn", "tn.tn", None, _tn_attrs),
    ("pulse_tn.tn", "tn_traces", "tn.tn_traces", None, None),
    ("pulse_tn._kernels_np", "tn_traces", "tn.kernel", None, _samples),
    ("pulse_tn.extract", "run_extractor", _extractor_name, None, None),
    ("pulse_tn.diff", "diff_normalized", "diff.diff_normalized", None, None),
    ("pulse_tn.diff", "frame_diff", "diff.frame_diff", None, None),
    ("pulse_tn.hr", "segment_heart_rates", "hr.segment_heart_rates", None, _segment_counts),
    ("pulse_tn.hr", "bandpass", "hr.bandpass", None, None),
    ("pulse_tn.hr", "welch_psd", "hr.welch_psd", None, None),
    ("pulse_tn.simulate", "render_ideal", "simulate.render_ideal", None, None),
    ("pulse_tn.simulate", "render_noisy", "simulate.render_noisy", None, None),
    ("pulse_tn.harness", "noise_feature_ratios", "harness.noise_feature_ratios", None, None),
    ("pulse_tn.harness", "evaluate_manifest", "harness.evaluate_manifest", None, None),
    ("pulse_tn.harness", "compare_manifest", "harness.compare_manifest", None, None),
]
if importlib.util.find_spec("pulse_tn._kernels") is not None:
    TARGETS.append(("pulse_tn._kernels", "tn_traces", "tn.kernel", None, _samples))


def self_times(spans: list[Span]) -> dict[Span, float]:
    """Seconds of each span not covered by its open child spans.

    Time is swept in order; at each instant it goes to the open spans that
    have no open child, split evenly when threads run at once. A span waiting
    on pool tasks it submitted therefore gets none of that time, and the self
    times of one unit sum to the wall time its root span covers.
    """
    events = sorted(
        [(s.end, 0, i) for i, s in enumerate(spans)] + [(s.start, 1, i) for i, s in enumerate(spans)]
    )
    index = {id(s): i for i, s in enumerate(spans)}
    parent = [index.get(id(s.parent)) for s in spans]
    open_children = [0] * len(spans)
    is_open = [False] * len(spans)
    leaves: set[int] = set()
    own = [0.0] * len(spans)
    prev = events[0][0] if events else 0.0
    for t, is_start, i in events:
        if leaves and t > prev:
            share = (t - prev) / len(leaves)
            for leaf in leaves:
                own[leaf] += share
        prev = t
        p = parent[i]
        if is_start:
            is_open[i] = True
            if open_children[i] == 0:
                leaves.add(i)
            if p is not None:
                open_children[p] += 1
                leaves.discard(p)
        else:
            is_open[i] = False
            leaves.discard(i)
            if p is not None:
                open_children[p] -= 1
                if open_children[p] == 0 and is_open[p]:
                    leaves.add(p)
    return {s: own[i] for i, s in enumerate(spans)}


class UnitTrace:
    """Per-name totals of one traced unit."""

    def __init__(self, spans: list[Span]):
        self.spans = spans
        own = self_times(spans)
        self.self_s = defaultdict(float)
        self.total_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.attrs = defaultdict(lambda: defaultdict(float))
        for s in spans:
            self.self_s[s.name] += own[s]
            self.total_s[s.name] += s.end - s.start
            self.calls[s.name] += 1
            for key, value in (s.attrs or {}).items():
                self.attrs[s.name][key] += value
        self.self_sum_s = sum(own.values())

    def clips(self, name: str) -> set:
        return {s.clip for s in self.spans if s.name == name}

    def under(self, name: str, parent_name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name and s.parent is not None and s.parent.name == parent_name]


def write_spans(units: list[tuple[str, list[Span]]], path: Path) -> None:
    """One JSON line per span of each (kind, spans) unit; times are seconds
    from the first span of the run."""
    path.parent.mkdir(parents=True, exist_ok=True)
    t0 = min((s.start for _, unit in units for s in unit), default=0.0)
    with path.open("w") as fh:
        for u, (kind, unit) in enumerate(units):
            ids = {id(s): i for i, s in enumerate(unit)}
            for i, s in enumerate(unit):
                rec = {
                    "unit": u, "kind": kind, "id": i, "name": s.name, "parent": ids.get(id(s.parent)),
                    "clip": s.clip, "thread": s.thread, "start": s.start - t0, "end": s.end - t0,
                }
                if s.attrs:
                    rec.update(s.attrs)
                fh.write(json.dumps(rec) + "\n")
