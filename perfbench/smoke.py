#!/usr/bin/env python3
"""Smoke check of the benchmark itself, on tiny versions of every workload.

    python3 perfbench/smoke.py

Checks that
  - every metric named in BENCHMARK.json is printed with its unit, in both
    trace modes, and the result line has the keys the runner promises;
  - in each workload, the self times of a traced unit sum to its wall time
    within a few percent;
  - the same seed regenerates the inputs byte-identically.
Exits non-zero on the first failed check.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import tempfile
from pathlib import Path

import run
import spans
from workloads import WORKLOADS, generate

TINY = {
    "estimate-large": dict(frames=450, size=4),
    "evaluate-many": dict(clips=4, frames=450, size=2),
    # diff_pooled yields T-1 samples, which must still fill one 15 s segment
    "compare-sim": dict(clips=4, frames=451, size=4),
}
SELF_SUM_TOL = 0.03


def check(ok: bool, message: str) -> None:
    if not ok:
        raise SystemExit(f"smoke: FAIL: {message}")
    print(f"smoke: ok: {message}")


def file_bytes(root: Path) -> dict[str, bytes]:
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


def check_printed_metrics(name: str, spec: dict) -> None:
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            run.main(["--workload", name, "--seed", "3", "--seconds", "0.2", "--trace", str(trace)])
        lines = buf.getvalue().splitlines()
        result = json.loads(lines[-1])
        check(sorted(result) == ["attempted", "correct", "failed", "metrics"], f"{name} trace {trace}: result keys")
        check(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
              f"{name} trace {trace}: {result['failed']} of {result['attempted']} units failed")
        wanted = {m["name"]: m["unit"] for m in spec[key]}
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        check(got == wanted, f"{name} trace {trace}: result metrics and units match BENCHMARK.json {key}")
        printed = [line.split() for line in lines if line.startswith("metric ")]
        printed = {parts[1]: parts[4] for parts in printed}
        check(all(printed.get(m) == u for m, u in wanted.items()), f"{name} trace {trace}: every metric printed with its unit")


def check_self_sum(w, data_dir: Path, out_dir: Path) -> None:
    runner = run.Runner(w, data_dir, out_dir, [])
    runner.unit()
    tracer = spans.Tracer()
    wall = runner.unit(tracer)
    share = spans.UnitTrace(tracer.spans).self_sum_s / wall
    check(abs(share - 1) <= SELF_SUM_TOL and runner.failed == 0,
          f"{w.name}: traced self times sum to {share:.4f} of the unit wall ({len(tracer.spans)} spans)")


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    check(sorted(w["name"] for w in spec["workloads"]) == sorted(WORKLOADS), "BENCHMARK.json names every workload")
    for name, sizes in TINY.items():
        WORKLOADS[name] = dataclasses.replace(WORKLOADS[name], **sizes)
    run.WORK_DIR.mkdir(exist_ok=True)
    for name, w in WORKLOADS.items():
        with tempfile.TemporaryDirectory(dir=run.WORK_DIR) as tmp:
            tmp = Path(tmp)
            generate(w, 5, tmp / "a")
            generate(w, 5, tmp / "b")
            generate(w, 6, tmp / "c")
            check(file_bytes(tmp / "a") == file_bytes(tmp / "b"), f"{name}: same seed, byte-identical inputs")
            check(file_bytes(tmp / "a") != file_bytes(tmp / "c"), f"{name}: another seed, other inputs")
            check_self_sum(w, tmp / "a", tmp)
        check_printed_metrics(name, spec)
    print("smoke: all checks passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
