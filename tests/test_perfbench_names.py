"""The package names and span shapes the benchmark looks up from outside the package.

perfbench/spans.py wraps functions by module and attribute name, and
perfbench/run.py reports the TN backend names in every run's environment
block and reads its per-layer metrics from the traced spans' parents.
Renaming or deleting one of them, or running band work where the metrics
do not look, breaks the benchmark only when it runs; these tests break
first. The benchmark files are imported, never changed.
"""

import importlib
import math
import sys
from pathlib import Path

import pytest

from pulse_tn import cli, core, extract

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def perfbench(monkeypatch):
    """perfbench's spans and run modules, imported by the names run.py uses;
    sys.path (which run.py also extends) and sys.modules are restored after."""
    monkeypatch.setattr(sys, "path", [str(PERFBENCH), *sys.path])
    try:
        yield importlib.import_module("spans"), importlib.import_module("run")
    finally:
        for name in ("spans", "workloads", "run"):
            sys.modules.pop(name, None)


def test_every_traced_function_resolves(perfbench):
    spans, _ = perfbench
    for module_name, attr, *_ in spans.TARGETS:
        assert callable(getattr(importlib.import_module(module_name), attr)), f"{module_name}.{attr}"


def test_run_environment_reads_the_backend_names(perfbench):
    _, run = perfbench
    env = run.environment()
    assert env["tn_backend"] in env["tn_backends_importable"]


def test_traced_multi_band_estimate_gives_finite_layer_metrics(perfbench, monkeypatch, tmp_path):
    # extract.channels_useful_frac counts only the band spans that are direct children
    # of the extractor span; were every band run on a pool thread it would be NaN, which
    # run.py's strict JSON output refuses. perfbench's own smoke clips fit one band.
    spans, run = perfbench
    clip = tmp_path / "v.rpgc"
    assert cli.main(["simulate", "--hr", "72", "--frames", "480", "--size", "8x8", "--out", str(clip)]) == 0
    monkeypatch.setattr(core.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setenv("PULSE_TN_THREADS", "2")
    monkeypatch.setattr(extract, "_BAND_BYTES", 8 * 480 * 8 * 2)  # 2-row bands: 4 of them
    tracer = spans.Tracer()
    with tracer.patched():
        root = tracer.open("cli.main")
        try:
            assert cli.main(["estimate", "--in", str(clip)]) == 0
        finally:
            tracer.close(root)
    unit = spans.UnitTrace(tracer.spans)
    assert unit.calls["tn.tn"] == 4
    metrics = run.layer_metrics([unit], 0.0)
    assert {name: value for name, value in metrics.items() if not math.isfinite(value)} == {}
