"""The package names the benchmark looks up from outside the package.

perfbench/spans.py wraps functions by module and attribute name, and
perfbench/run.py reports the TN backend names in every run's environment
block. Renaming or deleting one of them breaks the benchmark only when it
runs; these tests break first. The benchmark files are imported, never
changed.
"""

import importlib
import sys
from pathlib import Path

import pytest

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
