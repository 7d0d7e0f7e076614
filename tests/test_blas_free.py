"""Tripwire: no module of the package calls a BLAS-backed product.

numpy's OpenBLAS runs a product of more than a few thousand elements on its
own threads. In the TN kernel that took the second CPU from the clip worker
pool of `evaluate` and `compare`: on 2 vCPUs the six seed-1 compare-sim
noise-ratio scenes ran x1.03 faster on two workers than on one with a BLAS
slope, and x1.9 faster with BLAS held to one thread. `einsum` without
`optimize` and numpy's ufunc reductions start no threads, so the package
uses those.
"""

import ast
from pathlib import Path

import pytest

import pulse_tn

PACKAGE = Path(pulse_tn.__file__).resolve().parent
BLAS_CALLS = {"dot", "matmul", "inner", "vdot", "tensordot"}
# tn.fit_trend is the one-trace OLS oracle: its product is 1-D and no command calls it.
ALLOWED = {("tn.py", "fit_trend", "@")}
WHY = (
    "the package calls no BLAS-backed product (use einsum without optimize): OpenBLAS "
    "threads steal the clip worker pool's second CPU; with a BLAS TN slope two workers "
    "ran compare-sim's noise ratios x1.03 faster than one on 2 vCPUs, x1.9 without"
)


def _rule(node: ast.AST) -> str | None:
    """The BLAS rule a node breaks, or None."""
    if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
        return "@"
    if isinstance(node, ast.Attribute) and node.attr == "linalg":
        return "linalg"
    if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[-1] == "linalg":
        return "linalg"
    if isinstance(node, ast.Import) and any(a.name.split(".")[-1] == "linalg" for a in node.names):
        return "linalg"
    if isinstance(node, ast.Call):
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
        if name in BLAS_CALLS:
            return f"{name}()"
        if name == "einsum" and any(k.arg == "optimize" for k in node.keywords):
            return "einsum(optimize=)"
    return None


def blas_uses(source: str, filename: str) -> list[tuple[str, str, str, int]]:
    """(file, enclosing function, rule, line) of every BLAS-backed product in source."""
    found = []

    def walk(node: ast.AST, func: str) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        rule = _rule(node)
        if rule:
            found.append((filename, func, rule, node.lineno))
        for child in ast.iter_child_nodes(node):
            walk(child, func)

    walk(ast.parse(source, filename), "<module>")
    return found


def package_uses() -> list[tuple[str, str, str, int]]:
    return [
        use
        for path in sorted(PACKAGE.glob("*.py"))
        for use in blas_uses(path.read_text(), path.name)
    ]


def test_package_calls_no_blas_product():
    offenders = [use for use in package_uses() if use[:3] not in ALLOWED]
    assert not offenders, WHY + ": " + ", ".join(
        f"{name}:{line} in {func}() uses {rule}" for name, func, rule, line in offenders
    )


def test_the_one_allowed_product_still_exists():
    assert {use[:3] for use in package_uses()} == ALLOWED


@pytest.mark.parametrize(
    "source, rule",
    [
        ("y = a @ b", "@"),
        ("a @= b", "@"),
        ("y = np.dot(a, b)", "dot()"),
        ("y = a.dot(b)", "dot()"),
        ("y = np.matmul(a, b)", "matmul()"),
        ("y = np.inner(a, b)", "inner()"),
        ("y = np.vdot(a, b)", "vdot()"),
        ("y = np.tensordot(a, b, 1)", "tensordot()"),
        ("from numpy import dot\ny = dot(a, b)", "dot()"),
        ("y = np.linalg.solve(a, b)", "linalg"),
        ("from numpy.linalg import norm", "linalg"),
        ("import numpy.linalg", "linalg"),
        ("y = np.einsum('ij,jk->ik', a, b, optimize=True)", "einsum(optimize=)"),
    ],
)
def test_each_rule_is_caught(source, rule):
    assert rule in [use[2] for use in blas_uses(source, "m.py")]


@pytest.mark.parametrize(
    "source",
    [
        "y = np.einsum('t,tj->j', a, b)",
        "y = np.einsum('tj,tj->j', a, a)",
        "y = (a * b).sum(axis=0)",
        "y = a.mean(axis=0)",
    ],
)
def test_blas_free_idioms_pass(source):
    assert blas_uses(source, "m.py") == []
