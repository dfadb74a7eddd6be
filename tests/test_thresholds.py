"""Every numerical threshold in src has a name.

A float far from 1 inside a function body decides something without a
name that a reader can find or a ``--tol`` override can reach.  Such a
value lives either in ``core.Tolerances`` or in a module-level constant,
and README's table of solver constants lists every one of the latter.
"""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "hermitia").glob("*.py"))


def _far_from_one(node) -> bool:
    if not (isinstance(node, ast.Constant) and type(node.value) in (float, complex)):
        return False
    x = abs(node.value)
    return 0.0 < x < 1e-3 or x >= 1e6


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_unnamed_threshold_in_a_function_body(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    found = {f"{path.name}:{node.lineno}: {node.value!r}"
             for fn in ast.walk(tree) if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))
             for node in ast.walk(fn) if _far_from_one(node)}
    assert not found, sorted(found)


def _module_thresholds():
    """(module, name, value) of every module-level float constant far from 1."""
    for path in SOURCES:
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(stmt, ast.Assign) and _far_from_one(stmt.value):
                for target in stmt.targets:
                    yield path.stem, target.id, stmt.value.value


def test_readme_lists_every_solver_constant():
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    table = re.search(r"\| module \| constant \| value \|.*?\n\n", text, re.S).group(0)
    rows = re.findall(r"^\| `(\w+)` \| `(\w+)` \| ([0-9.e+-]+) \|", table, re.M)
    assert sorted((m, n, float(v)) for m, n, v in rows) == sorted(_module_thresholds())
