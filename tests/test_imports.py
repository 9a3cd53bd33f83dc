"""Every name a source module imports is used there (``__init__.py`` re-exports are exempt),
and no source module binds another package's private module unless it is named here."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "identikit"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """Names bound by an import statement of ``source`` and never read, in source order."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [(node.lineno, a.asname or a.name.split(".")[0]) for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [(node.lineno, a.asname or a.name) for a in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for line, name in sorted(imported) if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_import(path):
    assert unused_imports(path.read_text()) == []


def test_the_scan_finds_an_unused_import():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "import json as js\n"
        "from math import inf, pi\n"
        "def f(x: inf) -> float:\n"
        "    return js.dumps(x)\n"
    )
    assert unused_imports(source) == ["line 2: os", "line 4: pi"]


# Private modules of other packages that src/ may bind, each held bit for bit to the public
# function it replaces by its own test (README "Dependencies"): numpy's SVD gufunc by
# tests/test_estimation.py::TestSvdBinding, LSODA and gammaincinv by the tests named there.
PRIVATE_BINDINGS = {
    "numpy.linalg._umath_linalg",
    "scipy.integrate._odepack",
    "scipy.special._special_ufuncs",
}


def private_bindings(source: str) -> list[str]:
    """Dotted paths, in source order, of the modules or names that ``source`` imports from
    another package with a component starting with ``_`` (``from a import _b`` counts as
    ``a._b``), and the scipy extensions it loads by ``_scipy_extension(subpackage, name)``;
    an argument that is not a literal reads as ``_?``, so it is never a named binding."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            paths = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module != "__future__":
            paths = [f"{node.module}.{alias.name}" for alias in node.names]
        elif isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_scipy_extension":
            names = [arg.value if isinstance(arg, ast.Constant) else "_?" for arg in node.args]
            paths = [".".join(["scipy", *names])]
        else:
            continue
        found += [(node.lineno, path) for path in paths if any(c.startswith("_") for c in path.split("."))]
    return [path for _, path in sorted(found)]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unnamed_private_binding(path):
    assert set(private_bindings(path.read_text())) <= PRIVATE_BINDINGS


def test_every_named_private_binding_is_bound():
    assert {b for p in SRC.glob("*.py") for b in private_bindings(p.read_text())} == PRIVATE_BINDINGS


def test_the_scan_finds_a_private_binding():
    source = (
        "from __future__ import annotations\n"
        "import numpy as np\n"
        "import numpy.linalg._umath_linalg\n"
        "from numpy.linalg import _umath_linalg, norm\n"
        "from scipy._lib import doccer\n"
        "from .models import _scipy_extension\n"
        "f = _scipy_extension('linalg', '_flapack')\n"
        "g = _scipy_extension(sub, name)\n"
    )
    assert private_bindings(source) == ["numpy.linalg._umath_linalg", "numpy.linalg._umath_linalg",
                                        "scipy._lib.doccer", "scipy.linalg._flapack", "scipy._?._?"]
