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


def _package_trees():
    for path in sorted(Path(structctl.__file__).parent.glob("*.py")):
        yield path, ast.parse(path.read_text(encoding="utf-8"))


def _is_attribute(node, module: str, attr: str) -> bool:
    return (
        isinstance(node, ast.Attribute)
        and node.attr == attr
        and isinstance(node.value, ast.Name)
        and node.value.id == module
    )


def test_json_dumps_never_indents():
    """``indent`` sends ``json.dumps`` down its pure-Python encoder; indented
    text comes from ``model.indented_json``, which writes the same bytes."""
    stray = [
        f"{path.name}:{node.lineno}"
        for path, tree in _package_trees()
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and _is_attribute(node.func, "json", "dumps")
        and any(kw.arg == "indent" for kw in node.keywords)
    ]
    assert stray == []


def test_only_cli_main_pauses_the_collector():
    """``cli.main`` turns the cyclic collector off for one command; no other
    code toggles it, so no second pause can leave it off."""
    found = []
    for path, tree in _package_trees():
        for stmt in tree.body:
            for node in ast.walk(stmt):
                if _is_attribute(node, "gc", "disable") or (
                    isinstance(node, ast.ImportFrom) and node.module == "gc"
                ):
                    found.append(f"{path.name}:{getattr(stmt, 'name', stmt.lineno)}")
    assert found == ["cli.py:main"]
