"""No module imports a name it never uses.

A stdlib-``ast`` name-use scan over every module under ``src/repro`` and
``tests`` except the ``__init__`` re-export modules.  A name counts as used
when it appears as a ``Name`` anywhere in the module, inside a quoted
annotation, or in the module's ``__all__``.
"""

from __future__ import annotations

import ast
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
SCANNED = [REPO_ROOT / "src" / "repro", REPO_ROOT / "tests"]


def annotation_names(node: ast.AST) -> set[str]:
    """Names an annotation uses, including inside quoted parts."""
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            try:
                names |= annotation_names(ast.parse(sub.value, mode="eval"))
            except SyntaxError:
                pass
    return names


def unused_imports(path: Path) -> list[tuple[int, str]]:
    """``(line, name)`` of every name ``path`` imports and never uses."""
    tree = ast.parse(path.read_text(), str(path))
    imported: dict[str, int] = {}
    used: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                if alias.name != "*":
                    name = alias.asname or alias.name.split(".")[0]
                    imported.setdefault(name, node.lineno)
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.arg) and node.annotation is not None:
            used |= annotation_names(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            used |= annotation_names(node.returns)
        elif isinstance(node, ast.AnnAssign):
            used |= annotation_names(node.annotation)
        elif (
            isinstance(node, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
            and isinstance(node.value, (ast.List, ast.Tuple))
        ):
            used |= {e.value for e in node.value.elts if isinstance(e, ast.Constant)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_quoted_annotations_count_as_use(tmp_path):
    module = tmp_path / "m.py"
    module.write_text(
        "from typing import Optional, Sequence\n"
        "import os\n"
        "def f(x: 'Optional[int]') -> None: ...\n"
    )
    assert unused_imports(module) == [(1, "Sequence"), (2, "os")]


def test_no_unused_imports():
    offenders = [
        f"{path.relative_to(REPO_ROOT)}:{line}:{name}"
        for root in SCANNED
        for path in sorted(root.rglob("*.py"))
        if path.name != "__init__.py"
        for line, name in unused_imports(path)
    ]
    assert offenders == [], "unused imports:\n" + "\n".join(offenders)
