"""Static checks on the package source."""

from __future__ import annotations

import ast
from pathlib import Path

import structctl


def _module_level_names(tree: ast.Module):
    """The names a module's top-level assignments bind, with their nodes."""
    for stmt in tree.body:
        targets = stmt.targets if isinstance(stmt, ast.Assign) else (
            [stmt.target] if isinstance(stmt, ast.AnnAssign) else []
        )
        for target in targets:
            for node in ast.walk(target):
                if isinstance(node, ast.Name):
                    yield node.id, node


def test_no_dead_helpers():
    """Every function, class, non-dunder method and module-level assigned
    name in the package is either exported or read by name somewhere in the
    package."""
    defined: dict[str, str] = {}
    used: set[str] = set()
    for path in sorted(Path(structctl.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for name, node in _module_level_names(tree):
            defined.setdefault(name, f"{path.name}:{node.lineno}")
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.setdefault(node.name, f"{path.name}:{node.lineno}")
            elif isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    dead = sorted(
        f"{where} {name}"
        for name, where in defined.items()
        if name not in used and name not in structctl.__all__
        and not (name.startswith("__") and name.endswith("__"))
    )
    assert dead == []


def test_agents_yield_only_recv():
    """A send is the call ``ctx.send``; the one action an agent yields is
    ``Recv(...)``, and ``yield from`` hands the turn to a helper."""
    stray = []
    for path in sorted(Path(structctl.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Yield) and not (
                isinstance(node.value, ast.Call)
                and isinstance(node.value.func, ast.Name)
                and node.value.func.id == "Recv"
            ):
                stray.append(f"{path.name}:{node.lineno}")
    assert stray == []


def test_runtime_has_one_agreement_layer():
    """Agents agree through ``bfs`` and ``tree_aggregate`` alone: they are
    the only generator functions in the runtime."""
    path = Path(structctl.__file__).parent / "runtime.py"
    tree = ast.parse(path.read_text(encoding="utf-8"))
    generators = sorted(
        node.name
        for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef)
        and any(
            isinstance(inner, (ast.Yield, ast.YieldFrom))
            for inner in ast.walk(node)
        )
    )
    assert generators == ["bfs", "tree_aggregate"]
