"""Tripwire: no module of the package passes `dtype=` to a numpy ufunc.

A ufunc given float32 operands and `dtype=np.float64` casts them through
numpy's 8192-sample buffers, one buffer at a time. On one 1800x128 strided
float32 band (two image rows of a 64x64 clip's green channel) that took
about 500 us for `np.subtract(band, band[0], dtype=np.float64)`, against
about 250 us for `band.astype(np.float64)` (2 vCPUs, numpy 2.4, best of 5).
The package widens a band once with `astype` into the array it then
computes in, in place, which also holds one band-sized array where the
buffered forms made a new one per ufunc call.
"""

import ast
from pathlib import Path

import numpy as np
import pytest

import pulse_tn

PACKAGE = Path(pulse_tn.__file__).resolve().parent
WHY = (
    "widen with astype(np.float64), then compute in place: a ufunc given dtype= casts float32 "
    "through 8192-sample buffers, which took ~500 us against ~250 us for astype on one "
    "1800x128 strided float32 band, and allocates a new band-sized array per call"
)


def _numpy_names(tree: ast.AST) -> dict[str, object]:
    """The names a module binds to numpy or to objects imported from it."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "numpy":
                    names[alias.asname or "numpy"] = np
        elif isinstance(node, ast.ImportFrom) and node.module == "numpy":
            for alias in node.names:
                if hasattr(np, alias.name):
                    names[alias.asname or alias.name] = getattr(np, alias.name)
    return names


def _resolve(func: ast.expr, names: dict[str, object]):
    """The numpy object a call's dotted callee names, or None."""
    if isinstance(func, ast.Name):
        return names.get(func.id)
    if isinstance(func, ast.Attribute):
        owner = _resolve(func.value, names)
        return None if owner is None else getattr(owner, func.attr, None)
    return None


def _is_ufunc(obj) -> bool:
    """A ufunc, or one of its methods such as np.add.reduce."""
    return isinstance(obj, np.ufunc) or isinstance(getattr(obj, "__self__", None), np.ufunc)


def ufunc_dtype_calls(source: str, filename: str) -> list[tuple[str, str, int]]:
    """(file, enclosing function, line) of every ufunc call in source given dtype=."""
    tree = ast.parse(source, filename)
    names = _numpy_names(tree)
    found = []

    def walk(node: ast.AST, func: str) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        if (
            isinstance(node, ast.Call)
            and any(k.arg == "dtype" for k in node.keywords)
            and _is_ufunc(_resolve(node.func, names))
        ):
            found.append((filename, func, node.lineno))
        for child in ast.iter_child_nodes(node):
            walk(child, func)

    walk(tree, "<module>")
    return found


def test_the_band_transforms_are_scanned():
    scanned = {path.name for path in PACKAGE.glob("*.py")}
    assert {"diff.py", "_kernels_np.py"} <= scanned


def test_package_passes_no_dtype_to_a_ufunc():
    offenders = [
        call for path in sorted(PACKAGE.glob("*.py")) for call in ufunc_dtype_calls(path.read_text(), path.name)
    ]
    assert not offenders, WHY + ": " + ", ".join(f"{name}:{line} in {func}()" for name, func, line in offenders)


@pytest.mark.parametrize(
    "source",
    [
        "import numpy as np\ny = np.subtract(a, b, dtype=np.float64)",
        "import numpy as np\ny = np.add(a, b, out=c, dtype=np.float64)",
        "import numpy\ny = numpy.divide(a, b, dtype=float)",
        "import numpy as np\ny = np.add.reduce(a, axis=0, dtype=np.float64)",
        "from numpy import subtract\ny = subtract(a, b, dtype='f8')",
        "from numpy import subtract as sub\ny = sub(a, b, dtype='f8')",
    ],
)
def test_each_form_is_caught(source):
    assert len(ufunc_dtype_calls(source, "m.py")) == 1


@pytest.mark.parametrize(
    "source",
    [
        "import numpy as np\ny = a.astype(np.float64)",
        "import numpy as np\ny = np.asarray(a, dtype=np.float64)",
        "import numpy as np\ny = np.arange(5, dtype=np.float64)",
        "import numpy as np\nnp.subtract(a, b, out=a)",
        "import numpy as np\ny = a.mean(axis=0)",
        "def subtract(a, b, dtype):\n    pass\ny = subtract(a, b, dtype=1)",
    ],
)
def test_widen_once_idioms_pass(source):
    assert ufunc_dtype_calls(source, "m.py") == []
