"""No recorded total may depend on the Python version, a scatter order or the
BLAS kernel, so the library's source uses none of: the builtin `sum` (which
compensates its float sums from Python 3.12 on), `np.add.at`, the `@`
operator, numpy's calls that may go through BLAS or LAPACK (`dot`, `matmul`,
`inner`, `vdot`, `vecdot`, `matvec`, `vecmat`, `einsum`, `tensordot`,
`convolve`, `correlate`, `cov`, `corrcoef` and `polyfit`), `np.linalg`, and
any `.dot` method but the `Dataset`'s own (`self.data.dot`).  Its totals go
through `objectives.ordered_sum` and `objectives.squared_norm`.  This checks
the source itself, in tier-1; ``tests/kernels.py`` runs the digests under one
forced OpenBLAS kernel only, as a canary."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "shuffleopt"
NUMPY = ("np", "numpy")
BANNED = {"dot", "matmul", "inner", "vdot", "vecdot", "matvec", "vecmat", "einsum", "tensordot",
          "convolve", "correlate", "cov", "corrcoef", "polyfit", "linalg"}


def _dotted(node) -> str | None:
    """"np.add.at" for that attribute chain; None unless it starts at a name."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    return ".".join([node.id, *reversed(parts)])


def banned_sites(source: str) -> list[tuple[int, str]]:
    """(line, what) for each banned use in `source`."""
    sites = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
                and node.func.id == "sum":
            sites.append((node.lineno, "builtin sum"))
        elif isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            sites.append((node.lineno, "@"))
        elif isinstance(node, ast.Attribute):
            name = _dotted(node)
            parts = name.split(".") if name else []
            if name in ("np.add.at", "numpy.add.at") or \
                    (len(parts) == 2 and parts[0] in NUMPY and parts[1] in BANNED):
                sites.append((node.lineno, name))
            elif node.attr == "dot" and name != "self.data.dot":  # ndarray.dot is BLAS
                sites.append((node.lineno, name or ".dot"))
        elif isinstance(node, ast.ImportFrom) and node.module in ("numpy", "numpy.linalg"):
            sites += [(node.lineno, f"{node.module}.{alias.name}") for alias in node.names
                      if node.module == "numpy.linalg" or alias.name in BANNED]
        elif isinstance(node, ast.Import):
            sites += [(node.lineno, alias.name) for alias in node.names
                      if alias.name == "numpy.linalg"]
    return sites


@pytest.mark.parametrize("source, found", [
    ("x = sum(v)", ["builtin sum"]),
    ("np.add.at(g, cols, grads)", ["np.add.at"]),
    ("m = a @ b", ["@"]),
    ("a @= b", ["@"]),
    ("m = np.dot(a, b)", ["np.dot"]),
    ("m = numpy.einsum('i,i', a, b)", ["numpy.einsum"]),
    ("f = np.polyfit", ["np.polyfit"]),
    ("r = np.linalg.norm(v)", ["np.linalg"]),
    ("from numpy import vdot", ["numpy.vdot"]),
    ("from numpy.linalg import norm", ["numpy.linalg.norm"]),
    ("import numpy.linalg", ["numpy.linalg"]),
    # a method of the same name, the ordered sums and numpy's reductions pass
    ("m = self.data.dot(w) + ordered_sum(xs) + np.add.reduce(v) + v.sum()", []),
    # every banned numpy name, called and imported; any other .dot method
    *((f"r = np.{name}(a, b)", [f"np.{name}"]) for name in sorted(BANNED)),
    *((f"from numpy import {name}", [f"numpy.{name}"]) for name in sorted(BANNED)),
    ("g = x.dot(y)", ["x.dot"]),
    ("g = self.w.dot(y) + np.ndarray.dot(x, y)", ["self.w.dot", "np.ndarray.dot"]),
    ("g = (x + 1.0).dot(y)", [".dot"]),
])
def test_guard_finds_each_banned_use(source, found):
    assert [what for _, what in banned_sites(source)] == found


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda path: path.name)
def test_library_takes_no_unordered_or_blas_total(path):
    assert banned_sites(path.read_text()) == [], path
