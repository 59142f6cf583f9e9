"""Static checks on the package source."""

from __future__ import annotations

import ast
from pathlib import Path

import structctl


def test_no_dead_helpers():
    """Every function, class and non-dunder method in the package is either
    exported or referenced by name somewhere in the package."""
    defined: dict[str, str] = {}
    used: set[str] = set()
    for path in sorted(Path(structctl.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if not (node.name.startswith("__") and node.name.endswith("__")):
                    defined.setdefault(node.name, f"{path.name}:{node.lineno}")
            elif isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    dead = sorted(
        f"{where} {name}"
        for name, where in defined.items()
        if name not in used and name not in structctl.__all__
    )
    assert dead == []
