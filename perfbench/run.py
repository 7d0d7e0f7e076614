#!/usr/bin/env python3
"""Clip-to-BPM pipeline benchmark for pulse-tn.

    python3 perfbench/run.py --workload estimate-large --seed 1 --seconds 25 --trace 0

The package is imported from ``src/`` beside this directory; nothing is built.
Inputs are generated from ``--seed`` outside the timed region. Each workload
is driven through ``pulse_tn.cli.main`` in this process, as a closed loop
with one caller, for ``--seconds`` seconds (and at least ``MIN_UNITS``
units). Every unit's output is checked. The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics with tracing off. ``--trace 1``
alternates untraced units, traced units and traced units with one worker
thread, and reports per-module metrics from the traced units (medians per
unit), the tracing overhead and the thread speed-up. Spans are written to
``.perfbench_out/`` at the end.

``setup_s`` is the median wall time of ``SETUP_RUNS`` fresh interpreters that
each import pulse_tn and run one cold unit.
``clips_per_s`` is the median, over windows of at least ``WINDOW_S`` seconds
of the loop, of the clips finished per second in each window.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))
try:
    import pulse_tn
    from pulse_tn import cli, clipio

    tn_mod = importlib.import_module("pulse_tn.tn")  # the package re-exports the function as pulse_tn.tn
except ImportError as exc:
    sys.exit(f"perfbench: cannot import pulse_tn from {SRC}: {exc}")
if Path(pulse_tn.__file__).resolve().parent.parent != SRC:
    sys.exit(f"perfbench: pulse_tn was imported from {pulse_tn.__file__}, not from {SRC}")

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import spans  # noqa: E402
from workloads import WORKLOADS, Workload, check_reference, generate  # noqa: E402

WORK_DIR = ROOT / ".perfbench_work"
OUT_DIR = ROOT / ".perfbench_out"
SETUP_RUNS = 3
# clips_per_s is the median over windows of this many seconds, so that a few
# stalled units (a busy host) move it no more than they move latency_p50_ms
WINDOW_S = 2.0
TAIL_BEYOND = 10  # the tail is the highest percentile with this many samples beyond it
MIN_UNITS = TAIL_BEYOND + 1
MIN_TRACE_ROUNDS = 3
ORACLE_TRACES = 64
ORACLE_TOL = 1e-12
SETUP_CODE = "import sys; sys.path.insert(0, sys.argv[1]); import pulse_tn.cli; sys.exit(pulse_tn.cli.main(sys.argv[2:]))"

END_TO_END = {
    "setup_s": "s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "clips_per_s": "1/s",
    "peak_mem_mb": "MB",
}
PER_LAYER = {
    "cli.main.self_ms": "ms",
    "clipio.read_clip.self_ms": "ms",
    "clipio.read_clip.mb_per_s": "MB/s",
    "clipio.reads_per_clip": "count",
    "clipio.read_labels.self_ms": "ms",
    "core.FrameClip.calls": "count",
    "core.FrameClip.self_ms": "ms",
    "core.pool_spatial.self_ms": "ms",
    "tn.tn.self_ms": "ms",
    "tn.tn_traces.self_ms": "ms",
    "tn.kernel.self_ms": "ms",
    "tn.msamples_per_s": "Msample/s",
    "tn.bytes_moved_mb": "MB",
    "tn.kernel_mflop": "Mflop",
    "tn.oracle_max_abs_err": "1",
    "extract.run_extractor.tn_pooled.self_ms": "ms",
    "extract.run_extractor.diff_pooled.self_ms": "ms",
    "extract.run_extractor.green_raw.self_ms": "ms",
    "extract.channels_useful_frac": "ratio",
    "diff.diff_normalized.self_ms": "ms",
    "diff.frame_diff.self_ms": "ms",
    "hr.segment_heart_rates.self_ms": "ms",
    "hr.bandpass.self_ms": "ms",
    "hr.welch_psd.self_ms": "ms",
    "hr.segments": "count",
    "hr.segments_useful_frac": "ratio",
    "simulate.render_ideal.self_ms": "ms",
    "simulate.render_noisy.self_ms": "ms",
    "harness.noise_feature_ratios.self_ms": "ms",
    "harness.evaluate_manifest.self_ms": "ms",
    "harness.compare_manifest.self_ms": "ms",
    "harness.thread_speedup_2v1": "ratio",
    "trace.overhead_ms": "ms",
}
# Compulsory traffic per sample through tn(): the layout copy reads and writes
# each f64 sample once, and the kernel reads its input and writes its output
# once. Temporaries of the numpy kernel are not counted.
TN_BYTES_PER_SAMPLE = 32
# Numpy kernel: mean, centre, slope dot (mul + add), residual (mul + sub),
# square, mean of squares, divide.
TN_FLOP_PER_SAMPLE = 9
# Numpy-backend rows of the baseline table in ROADMAP.md (ms), and its noise.
BASELINE_MS = {
    "read_clip (decode + float64)": 154.0,
    "FrameClip validation (each construction)": 29.0,
    "layout change to (n, T) inside tn()": 248.0,
    "kernel tn_traces": 479.0,
    "tn() total": 727.0,
    "pool green + HR pipeline": 11.0,
}
BASELINE_NOISE = 0.10


def environment() -> dict:
    cpu = next(
        (line.split(":", 1)[1].strip() for line in Path("/proc/cpuinfo").read_text().splitlines()
         if line.startswith("model name")),
        platform.processor(),
    )
    l3_bytes = None
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        if (index / "level").read_text().strip() == "3":
            size = (index / "size").read_text().strip()
            scale = {"K": 1024, "M": 1024**2}.get(size[-1], 1)
            l3_bytes = int(size.rstrip("KM")) * scale
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "l3_mib": None if l3_bytes is None else l3_bytes / 1024**2,
        "PULSE_TN_THREADS": os.environ.get("PULSE_TN_THREADS"),
        "tn_backend": pulse_tn.DEFAULT_BACKEND,
        "tn_backends_importable": list(tn_mod.available_backends()),
    }


def check_tn(data_dir: Path, seed: int) -> tuple[float, list[str]]:
    """tn() against the single-trace oracle on a seeded sample of traces, and
    the importable backends against each other."""
    clip = clipio.read_clip(data_dir / "v000.rpgc")
    out = tn_mod.tn(clip).data
    rng = np.random.default_rng(seed)
    _, h, w, c = clip.data.shape
    picks = zip(rng.integers(h, size=ORACLE_TRACES), rng.integers(w, size=ORACLE_TRACES), rng.integers(c, size=ORACLE_TRACES))
    err = max(float(np.max(np.abs(out[:, i, j, k] - tn_mod.tn_trace(clip.data[:, i, j, k])))) for i, j, k in picks)
    problems = [] if err <= ORACLE_TOL else [f"tn() differs from tn_trace by {err:.3g} > {ORACLE_TOL}"]
    print(f"check tn oracle: max |tn - tn_trace| = {err:.3g} over {ORACLE_TRACES} traces (limit {ORACLE_TOL})")
    backends = tn_mod.available_backends()
    if len(backends) < 2:
        print(f"check tn backends: only {backends} importable, no cross-backend timing")
        return err, problems
    flat = clip.data.reshape(clip.frames, -1).T
    results = {}
    for name in backends:
        start = time.perf_counter()
        results[name] = tn_mod.tn_traces(flat, 1e-8, backend=name)
        print(f"check tn backends: {name} tn_traces {1e3 * (time.perf_counter() - start):.1f} ms")
    first = results[backends[0]]
    for name in backends[1:]:
        diff = float(np.max(np.abs(results[name] - first)))
        print(f"check tn backends: max |{name} - {backends[0]}| = {diff:.3g}")
        if diff > ORACLE_TOL:
            problems.append(f"backend {name} differs from {backends[0]} by {diff:.3g}")
    return err, problems


class Runner:
    """Runs units of one workload and checks each unit's output.

    The first unit's report is the reference: it must pass the workload's
    checks (strict JSON, no unplanned error rows, BPM within a Welch bin),
    and every later report must equal it byte for byte.
    """

    def __init__(self, w: Workload, data_dir: Path, out_dir: Path, problems: list[str]):
        self.w = w
        self.data_dir = data_dir
        self.out_dir = out_dir
        self.global_problems = problems
        self.reference: bytes | None = None
        self.reference_problems: list[str] = []
        self.mae_bpm = float("nan")
        self.attempted = 0
        self.failed = 0

    def record(self, status, stdout: str, out: Path) -> None:
        if self.w.command == "estimate":
            report = stdout.encode()
        else:
            report = out.read_bytes() if out.exists() else b""
        problems = list(self.global_problems)
        if status != 0:
            problems.append(f"unit ended with {status!r}")
        if self.reference is None:
            self.reference = report
            self.reference_problems, self.mae_bpm = check_reference(self.w, report)
        if report != self.reference:
            problems.append("report bytes differ from the first unit's")
        problems += self.reference_problems
        self.attempted += 1
        if problems:
            self.failed += 1
            print(f"unit {self.attempted} failed: {'; '.join(problems[:3])}")

    def unit(self, tracer: spans.Tracer | None = None) -> float:
        """Run one unit in this process; returns its wall time in seconds."""
        out = self.out_dir / "report.json"
        out.unlink(missing_ok=True)
        argv = self.w.unit_argv(self.data_dir, out)
        buf = io.StringIO()
        patched = tracer.patched() if tracer else contextlib.nullcontext()
        with patched, contextlib.redirect_stdout(buf):
            start = time.perf_counter()
            try:
                if tracer:
                    root = tracer.open("cli.main")
                    try:
                        status = cli.main(argv)
                    finally:
                        tracer.close(root)
                else:
                    status = cli.main(argv)
            except (Exception, SystemExit) as exc:
                status = exc
            wall = time.perf_counter() - start
        self.record(status, buf.getvalue(), out)
        return wall

    def fresh_interpreter_unit(self, k: int) -> float:
        """One cold unit in a new interpreter; returns its wall time in seconds."""
        out = self.out_dir / f"setup-{k}.json"
        argv = self.w.unit_argv(self.data_dir, out)
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_CODE, str(SRC), *argv],
            cwd=ROOT, capture_output=True, text=True, timeout=150,
        )
        wall = time.perf_counter() - start
        if proc.returncode:
            print(proc.stderr.strip()[-500:])
        self.record(proc.returncode, proc.stdout, out)
        return wall

    def peak_unit(self) -> float:
        """tracemalloc peak of one untimed unit, in MB.

        The unit runs with one worker thread: with two, the peak depends on
        whether both workers' largest allocations happen to overlap.
        """
        tracemalloc.start()
        try:
            with threads_env("1"):
                self.unit()
            return tracemalloc.get_traced_memory()[1] / 1e6
        finally:
            tracemalloc.stop()


@contextlib.contextmanager
def threads_env(value: str):
    """Set PULSE_TN_THREADS for the duration of the block."""
    previous = os.environ.get("PULSE_TN_THREADS")
    os.environ["PULSE_TN_THREADS"] = value
    try:
        yield
    finally:
        if previous is None:
            del os.environ["PULSE_TN_THREADS"]
        else:
            os.environ["PULSE_TN_THREADS"] = previous


def window_rates(clips: int, start: float, ends: list[float]) -> list[float]:
    """Clips finished per second in consecutive windows of whole units, each
    closed at the first unit end at least WINDOW_S after the window opened; a
    last, shorter window is dropped."""
    rates, first, opened = [], 0, start
    for i, end in enumerate(ends):
        if end - opened >= WINDOW_S:
            rates.append(clips * (i + 1 - first) / (end - opened))
            first, opened = i + 1, end
    return rates


def end_to_end(runner: Runner, seconds: float) -> dict:
    setup = [runner.fresh_interpreter_unit(k) for k in range(SETUP_RUNS)]
    print("setup runs (s): " + " ".join(f"{s:.3f}" for s in setup))
    runner.unit()  # warm-up
    walls, ends = [], []
    start = time.perf_counter()
    while time.perf_counter() - start < seconds or len(walls) < MIN_UNITS:
        walls.append(runner.unit())
        ends.append(time.perf_counter())
    loop_s = ends[-1] - start
    peak_mb = runner.peak_unit()
    ordered = sorted(walls)
    n = len(ordered)
    tail = ordered[n - 1 - TAIL_BEYOND]
    print(f"latency samples: {n} units in {loop_s:.2f} s")
    print(f"latency tail: p{100.0 * (n - TAIL_BEYOND) / n:.1f}, the highest percentile with {TAIL_BEYOND} of {n} samples above it")
    print("unit walls (ms): " + " ".join(f"{1e3 * x:.0f}" for x in walls))
    rates = window_rates(runner.w.clips, start, ends) or [runner.w.clips * n / loop_s]
    print(f"clips_per_s: median of {len(rates)} window(s) of >= {WINDOW_S:g} s; whole-loop mean {runner.w.clips * n / loop_s:.4f}")
    return {
        "setup_s": statistics.median(setup),
        "latency_p50_ms": 1e3 * statistics.median(walls),
        "latency_tail_ms": 1e3 * tail,
        "clips_per_s": statistics.median(rates),
        "peak_mem_mb": peak_mb,
    }


def layer_metrics(units: list[spans.UnitTrace], oracle_err: float) -> dict:
    def med(f):
        return statistics.median(f(u) for u in units)

    def self_ms(name):
        return med(lambda u: 1e3 * u.self_s[name])

    def ratio(num, den):
        return num / den if den else float("nan")

    out = {name: self_ms(name[: -len(".self_ms")]) for name in PER_LAYER if name.endswith(".self_ms")}
    kernel_samples = lambda u: u.attrs["tn.kernel"]["samples"]  # noqa: E731
    out.update({
        "clipio.read_clip.mb_per_s": med(lambda u: ratio(u.attrs["clipio.read_clip"]["bytes"] / 1e6, u.total_s["clipio.read_clip"])),
        "clipio.reads_per_clip": med(lambda u: ratio(u.calls["clipio.read_clip"], len(u.clips("clipio.read_clip")))),
        "core.FrameClip.calls": med(lambda u: u.calls["core.FrameClip"]),
        "tn.msamples_per_s": med(lambda u: ratio(kernel_samples(u) / 1e6, u.total_s["tn.kernel"])),
        "tn.bytes_moved_mb": med(lambda u: TN_BYTES_PER_SAMPLE * kernel_samples(u) / 1e6),
        "tn.kernel_mflop": med(lambda u: TN_FLOP_PER_SAMPLE * kernel_samples(u) / 1e6),
        "tn.oracle_max_abs_err": oracle_err,
        "extract.channels_useful_frac": med(lambda u: ratio(
            len(u.under("core.pool_spatial", "extract.run_extractor.tn_pooled")),
            sum(s.attrs["channels"] for s in u.under("tn.tn", "extract.run_extractor.tn_pooled")),
        )),
        "hr.segments": med(lambda u: u.attrs["hr.segment_heart_rates"]["attempted"]),
        "hr.segments_useful_frac": med(lambda u: ratio(
            u.attrs["hr.segment_heart_rates"]["used"], u.attrs["hr.segment_heart_rates"]["attempted"]
        )),
    })
    return out


def baseline_table(units: list[spans.UnitTrace], peak_mb: float) -> None:
    """The traced estimate-large numbers in the rows of the ROADMAP baseline table."""
    def med(f):
        return statistics.median(f(u) for u in units)

    rows = {
        "read_clip (decode + float64)": med(lambda u: u.self_s["clipio.read_clip"]),
        "FrameClip validation (each construction)": med(lambda u: u.self_s["core.FrameClip"] / u.calls["core.FrameClip"]),
        "layout change to (n, T) inside tn()": med(lambda u: u.self_s["tn.tn"] + u.self_s["tn.tn_traces"]),
        "kernel tn_traces": med(lambda u: u.self_s["tn.kernel"]),
        "tn() total": med(lambda u: u.total_s["tn.tn"]),
        "pool green + HR pipeline": med(lambda u: u.self_s["core.pool_spatial"] + u.total_s["hr.segment_heart_rates"]),
    }
    print("| layer | ROADMAP numpy | traced here | note |")
    print("| --- | --- | --- | --- |")
    for row, seconds in rows.items():
        ms, base = 1e3 * seconds, BASELINE_MS[row]
        note = "" if abs(ms / base - 1) <= BASELINE_NOISE else f"differs by {100 * (ms / base - 1):+.0f}% (more than the table's +-10% noise)"
        print(f"| {row} | {base:.0f} ms | {ms:.1f} ms | {note} |")
    print(f"| peak alloc (tracemalloc, whole estimate unit) | - | {peak_mb:.1f} MB | "
          "table has no numpy value; its 531 MB (cython) covered read + extract only |")


def traced(runner: Runner, args, oracle_err: float, l3_mib: float | None) -> dict:
    threads = runner.w.threads
    runner.unit()  # warm-up and reference
    tracer = spans.Tracer()
    plain, traced_walls, one_worker_walls, units, kept = [], [], [], [], []

    def plain_unit():
        plain.append(runner.unit())

    def traced_unit():
        tracer.spans = []
        traced_walls.append(runner.unit(tracer))
        units.append(spans.UnitTrace(tracer.spans))
        kept.append(("traced", tracer.spans))

    def one_worker_unit():
        tracer.spans = []
        with threads_env("1"):
            one_worker_walls.append(runner.unit(tracer))
        kept.append(("traced-one-worker", tracer.spans))

    # the order rotates each round so that no kind always follows another
    kinds = [plain_unit, traced_unit, one_worker_unit]
    start = time.perf_counter()
    while time.perf_counter() - start < args.seconds or len(units) < MIN_TRACE_ROUNDS:
        first = len(units) % len(kinds)
        for kind in kinds[first:] + kinds[:first]:
            kind()
    for u, wall in zip(units, traced_walls):
        print(f"trace check: self times sum to {u.self_sum_s / wall:.4f} of the traced unit wall")
    metrics = layer_metrics(units, oracle_err)
    metrics["harness.thread_speedup_2v1"] = statistics.median(one_worker_walls) / statistics.median(traced_walls)
    metrics["trace.overhead_ms"] = 1e3 * (statistics.median(traced_walls) - statistics.median(plain))
    print(f"trace walls (ms): untraced {1e3 * statistics.median(plain):.1f}, traced {1e3 * statistics.median(traced_walls):.1f}, "
          f"traced with one worker {1e3 * statistics.median(one_worker_walls):.1f} (PULSE_TN_THREADS={threads}, n={len(units)})")
    peak_mb = runner.peak_unit()
    if runner.w.name == "estimate-large":
        baseline_table(units, peak_mb)
    working_set = runner.w.frames * runner.w.size**2 * 3 * 8 / 1e6
    print(f"roofline: omitted: a bandwidth figure needs a working set >= 4x the last-level cache "
          f"({l3_mib} MiB); the f64 clip here is {working_set:.1f} MB, so tn.bytes_moved_mb and "
          "tn.kernel_mflop are computed from array sizes instead")
    path = OUT_DIR / f"spans-{runner.w.name}-seed{args.seed}.jsonl"
    spans.write_spans(kept, path)
    print(f"spans: {sum(len(s) for _, s in kept)} written to {path.relative_to(ROOT)}")
    return metrics


def run(w: Workload, args, work: Path) -> dict:
    env = environment()
    print(f"workload {w.name} seed {args.seed} seconds {args.seconds} trace {args.trace}")
    print("env " + json.dumps(env))
    data_dir = work / "data"
    start = time.perf_counter()
    generate(w, args.seed, data_dir)
    size = sum(p.stat().st_size for p in data_dir.iterdir())
    print(f"inputs: {w.clips} clip(s), {size / 1e6:.1f} MB, generated in {time.perf_counter() - start:.2f} s (untimed)")
    oracle_err, problems = check_tn(data_dir, args.seed)
    runner = Runner(w, data_dir, work, problems)
    if args.trace:
        values, units = traced(runner, args, oracle_err, env["l3_mib"]), PER_LAYER
    else:
        values, units = end_to_end(runner, args.seconds), END_TO_END
    for name, unit in units.items():
        print(f"metric {name} = {values[name]:.6g} {unit}")
    print(f"metric mae_bpm = {runner.mae_bpm:.6g} BPM (HR error against the labels; a check, not a bounded metric)")
    print(f"metric failed_frac = {runner.failed / runner.attempted:.6g} fraction ({runner.failed} of {runner.attempted} units)")
    return {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    w = WORKLOADS[args.workload]
    if w.threads:
        os.environ["PULSE_TN_THREADS"] = w.threads
    WORK_DIR.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{w.name}-", dir=WORK_DIR))
    try:
        result = run(w, args, work)
    finally:
        shutil.rmtree(work)
    print(json.dumps(result, allow_nan=False))
    return 0


if __name__ == "__main__":
    sys.exit(main())
