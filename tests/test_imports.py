"""Every name a module imports is used in it.

No linter ships with the project, so this test does pyflakes' F401
check over ``src/`` and ``tests/``: a name bound by an import statement
that its module never reads fails.  An import statement whose first
line carries ``# noqa: F401``, and a name listed in the module's
``__all__``, count as deliberate re-exports.  A name inside a string
that parses as a Python expression (a string annotation, say) counts
as read.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(p for d in ("src", "tests") for p in (ROOT / d).rglob("*.py"))


def _read_names(tree: ast.AST) -> set[str]:
    """Names the module reads, including inside expression strings."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                inner = ast.parse(node.value, mode="eval")
            except (SyntaxError, ValueError):  # not an expression, or a NUL byte
                continue
            names |= {n.id for n in ast.walk(inner) if isinstance(n, ast.Name)}
    return names


def _exported(tree: ast.Module) -> set[str]:
    """The string entries of a module-level ``__all__``."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return {e.value for e in node.value.elts if isinstance(e, ast.Constant)}
    return set()


def unused_imports(source: str) -> list[str]:
    """The imported names of ``source`` that it never reads."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if "# noqa: F401" in lines[node.lineno - 1]:
            continue
        for alias in node.names:
            imported.append(alias.asname or alias.name.split(".")[0])
    used = _read_names(tree) | _exported(tree)
    return sorted({name for name in imported if name not in used})


def test_checker_flags_only_unused_names():
    source = (
        "from __future__ import annotations\n"
        "import os, sys\n"
        "import numpy.linalg\n"
        "from a import (  # noqa: F401\n    kept,\n)\n"
        "from b import exported, hinted, unused as alias\n"
        "__all__ = ['exported']\n"
        "def f(x: 'hinted') -> None:\n    return numpy.linalg.norm(sys.argv)\n"
    )
    assert unused_imports(source) == ["alias", "os"]


def test_no_unused_imports():
    found = {
        str(path.relative_to(ROOT)): unused_imports(path.read_text(encoding="utf-8"))
        for path in MODULES
    }
    assert {path: names for path, names in found.items() if names} == {}
