"""Tripwire: the package has one worker pool, `core._ordered_map`.

Every parallel loop of the package goes through it, so the PULSE_TN_THREADS
cap, the one level of parallelism (a map inside an item runs inline) and the
item-order error rule hold everywhere. No module but core.py may name a
thread or process pool, a thread or multiprocessing.
"""

import ast
from pathlib import Path

import pytest

import pulse_tn

PACKAGE = Path(pulse_tn.__file__).resolve().parent
POOL_MODULE = "core.py"
POOL_NAMES = {"ThreadPoolExecutor", "ProcessPoolExecutor", "multiprocessing"}
WHY = "only core._ordered_map starts threads or processes; map over it instead"


def _rule(node: ast.AST) -> str | None:
    """The pool name a node uses, or None."""
    if isinstance(node, ast.Name) and node.id in POOL_NAMES:
        return node.id
    if isinstance(node, ast.Attribute):
        if node.attr in POOL_NAMES:
            return node.attr
        if node.attr == "Thread" and isinstance(node.value, ast.Name) and node.value.id == "threading":
            return "threading.Thread"
    if isinstance(node, ast.Import):
        for alias in node.names:
            if alias.name.split(".")[0] == "multiprocessing":
                return "multiprocessing"
    if isinstance(node, ast.ImportFrom):
        if (node.module or "").split(".")[0] == "multiprocessing":
            return "multiprocessing"
        for alias in node.names:
            if alias.name in POOL_NAMES:
                return alias.name
            if node.module == "threading" and alias.name == "Thread":
                return "threading.Thread"
    return None


def pool_uses(source: str, filename: str) -> list[tuple[str, str, int]]:
    """(file, name, line) of every pool, thread or multiprocessing use in source."""
    return [
        (filename, rule, node.lineno)
        for node in ast.walk(ast.parse(source, filename))
        if (rule := _rule(node))
    ]


def package_uses() -> list[tuple[str, str, int]]:
    return [use for path in sorted(PACKAGE.glob("*.py")) for use in pool_uses(path.read_text(), path.name)]


def test_only_core_names_a_pool():
    offenders = [use for use in package_uses() if use[0] != POOL_MODULE]
    assert not offenders, WHY + ": " + ", ".join(f"{name}:{line} uses {rule}" for name, rule, line in offenders)


def test_core_still_holds_the_pool():
    assert "ThreadPoolExecutor" in {rule for name, rule, _ in package_uses() if name == POOL_MODULE}


@pytest.mark.parametrize(
    "source, rule",
    [
        ("from concurrent.futures import ThreadPoolExecutor", "ThreadPoolExecutor"),
        ("pool = concurrent.futures.ThreadPoolExecutor(2)", "ThreadPoolExecutor"),
        ("from concurrent.futures import ProcessPoolExecutor", "ProcessPoolExecutor"),
        ("pool = futures.ProcessPoolExecutor()", "ProcessPoolExecutor"),
        ("t = threading.Thread(target=f)", "threading.Thread"),
        ("from threading import Thread", "threading.Thread"),
        ("import multiprocessing", "multiprocessing"),
        ("import multiprocessing.pool", "multiprocessing"),
        ("from multiprocessing import Pool", "multiprocessing"),
        ("ctx = multiprocessing.get_context()", "multiprocessing"),
    ],
)
def test_each_rule_is_caught(source, rule):
    assert rule in [use[1] for use in pool_uses(source, "m.py")]


@pytest.mark.parametrize(
    "source",
    [
        "buffers = threading.local()",
        "import threading",
        "tid = threading.get_ident()",
        "from .core import _ordered_map",
    ],
)
def test_pool_free_idioms_pass(source):
    assert pool_uses(source, "m.py") == []
