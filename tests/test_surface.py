"""The library's surface is what `groupgraph/__init__.py` imports.  This test
finds, by name, every definition under src/groupgraph that neither the CLI,
nor that import block, nor the benchmark harness reaches: such code is dead,
or a test helper that belongs under tests/."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).parent.parent
PACKAGE = ROOT / "src" / "groupgraph"
PERFBENCH = ROOT / "perfbench"

# Definitions kept although nothing above reaches them, each with its reason.
ALLOWED: dict[str, str] = {}

DOTTED = re.compile(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)+")


def _definitions(tree: ast.Module, module: str) -> dict[str, ast.AST]:
    """Module-level functions and classes, and the methods of those classes,
    keyed 'module.name' and 'module.Class.method'."""
    defs = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defs[f"{module}.{node.name}"] = node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    defs[f"{module}.{node.name}.{item.name}"] = item
    return defs


def _names(node: ast.AST, dotted_strings: bool = False) -> set[str]:
    """Every identifier a node's code reads, as a name or an attribute, and,
    when asked, each part of a dotted string constant ('layer.name', the form
    in which the benchmark's tracer names its targets).  Annotations are
    skipped: they are never evaluated."""
    out = set()
    stack = [node]
    while stack:
        n = stack.pop()
        if isinstance(n, ast.Name):
            out.add(n.id)
        elif isinstance(n, ast.Attribute):
            out.add(n.attr)
        elif dotted_strings and isinstance(n, ast.Constant) and isinstance(n.value, str):
            if DOTTED.fullmatch(n.value):
                out.update(n.value.split("."))
        for field, child in ast.iter_fields(n):
            if field in ("annotation", "returns"):
                continue
            if isinstance(child, ast.AST):
                stack.append(child)
            elif isinstance(child, list):
                stack.extend(c for c in child if isinstance(c, ast.AST))
    return out


def _module_code(tree: ast.Module) -> list[ast.AST]:
    """What runs at import, besides the definitions and the imports."""
    skip = (ast.FunctionDef, ast.ClassDef, ast.Import, ast.ImportFrom)
    return [n for n in tree.body if not isinstance(n, skip)]


def unreached() -> dict[str, int]:
    """Definitions that no root reaches, with their line counts."""
    trees = {p.stem: ast.parse(p.read_text(encoding="utf-8")) for p in PACKAGE.glob("*.py")}
    defs = {}
    for module, tree in trees.items():
        defs.update(_definitions(tree, module))
    by_name: dict[str, list[str]] = {}
    for key in defs:
        by_name.setdefault(key.rsplit(".", 1)[1], []).append(key)

    names = {"main"}  # cli.main, the console script
    for node in ast.walk(trees["__init__"]):
        if isinstance(node, ast.ImportFrom):
            names.update(a.asname or a.name for a in node.names)
    for path in PERFBENCH.glob("*.py"):
        names |= _names(ast.parse(path.read_text(encoding="utf-8")), dotted_strings=True)
    for tree in trees.values():
        for node in _module_code(tree):
            names |= _names(node)

    reached: set[str] = set()
    pending = [key for name in names for key in by_name.get(name, ())]
    while pending:
        key = pending.pop()
        if key in reached:
            continue
        reached.add(key)
        node = defs[key]
        parts = [node]
        if isinstance(node, ast.ClassDef):
            # the interpreter calls a reached class's dunder methods; its
            # bases, decorators and class-level statements run
            pending += [f"{key}.{item.name}" for item in node.body
                        if isinstance(item, ast.FunctionDef) and item.name.startswith("__")]
            parts = [item for item in node.body if not isinstance(item, ast.FunctionDef)]
            parts += node.bases + node.decorator_list
        pending += [k for part in parts for name in _names(part) for k in by_name.get(name, ())]
    return {key: node.end_lineno - node.lineno + 1
            for key, node in sorted(defs.items()) if key not in reached}


def test_every_definition_is_reached_from_the_surface():
    found = unreached()
    dead = {key: lines for key, lines in found.items() if key not in ALLOWED}
    assert not dead, (
        f"{len(dead)} definitions ({sum(dead.values())} lines) are reached neither from "
        f"cli.main, nor from the import block of groupgraph/__init__.py, nor from "
        f"perfbench/: delete them, move test helpers under tests/, or import API "
        f"in __init__.py: {sorted(dead)}"
    )
    assert not set(ALLOWED) - set(found), "an allowed definition is reached or gone"
