"""The library's surface is what `groupgraph/__init__.py` imports.  Three
guards keep src/groupgraph to it:

* by name: every definition is reached, by name, from the CLI, that import
  block or the benchmark harness;
* by execution: every function and method is entered when the CLI and the
  import block's functions run on small inputs (the roots below), unless
  `NOT_ENTERED` gives a reason;
* every name a module imports is read.

What fails them is dead code, or a test helper that belongs under tests/."""

import ast
import functools
import json
import random
import re
import sys
from pathlib import Path

from conftest import constant_group_graph
from groupgraph import (
    Cochain0,
    Cocycle1,
    FoliationSpec,
    Graph,
    QuotientLift,
    Tree,
    VectorSpace,
    build_tf_red,
    characterization_crosscheck,
    cli,
    coboundary_action,
    contract,
    contraction_regularity,
    cyclic_group,
    direct_image,
    generators,
    h1_finite_bruteforce,
    image_of,
    is_finite_type,
    is_regular,
    kernel_of,
    quotient,
    quotient_with_projection,
    remove_offsupport_edges,
    scan_typed_geodesics,
)
from groupgraph.generators import (
    random_exact_sequence,
    random_finite_group_graph,
    random_regular_finite,
    random_regular_vector,
    random_tree,
    random_vector_group_graph,
)
from groupgraph.cohomology import _orbits

ROOT = Path(__file__).parent.parent
PACKAGE = ROOT / "src" / "groupgraph"
PERFBENCH = ROOT / "perfbench"
FIXTURES = ROOT / "tests" / "fixtures"

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


# ---------------------------------------------------------------------------
# imports


def _read(tree: ast.AST) -> set[str]:
    """Every name the code reads, in an annotation too (a string annotation
    is parsed)."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out.add(node.id)
        for field in ("annotation", "returns"):
            ann = getattr(node, field, None)
            if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
                out |= _read(ast.parse(ann.value, mode="eval"))
    return out


def test_every_imported_name_is_read():
    unread = {}
    for path in sorted(PACKAGE.glob("*.py")):
        if path.stem == "__init__":
            continue  # its imports are the surface
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = {
            (alias.asname or alias.name).split(".")[0]
            for node in ast.walk(tree)
            if isinstance(node, ast.Import)
            or isinstance(node, ast.ImportFrom) and node.module != "__future__"
            for alias in node.names
        }
        names = imported - _read(tree)
        if names:
            unread[path.stem] = sorted(names)
    assert not unread, f"modules import names they never read: {unread}"


# ---------------------------------------------------------------------------
# by execution

# Functions and methods that no root enters, each kept for its reason.
NOT_ENTERED: dict[str, str] = {
    "group_graph.FiniteGroup.__hash__":
        "the class defines __eq__, so without __hash__ groups would be unhashable",
    "foliation.FoliationSpec.is_red_edge":
        "perfbench/tracing.py reads it (test_cli.py::test_benchmark_tracer_names_resolve)",
    "foliation.FoliationSpec.to_json":
        "writes the spec format that from_json reads; a failing selfcheck "
        "instance is to carry its spec in this form (ROADMAP)",
}

MODES = ("auto", "vector", "bruteforce", "regular", "count")


def _functions() -> dict[tuple[Path, int], tuple[str, int]]:
    """Module-level functions and the methods of module-level classes, keyed
    by file and by the first line of their code object, which is that of the
    first decorator when there is one; with their name and line count."""
    out = {}
    for path in sorted(PACKAGE.glob("*.py")):
        defs = _definitions(ast.parse(path.read_text(encoding="utf-8")), path.stem)
        for key, node in defs.items():
            if isinstance(node, ast.FunctionDef):
                first = min([node.lineno] + [d.lineno for d in node.decorator_list])
                out[(path.resolve(), first)] = (key, node.end_lineno - first + 1)
    return out


def _main(code: int, *argv):
    """Run the CLI in this process and check its exit code."""
    got = cli.main([str(a) for a in argv])
    assert got == code, (argv, got)


def _cli_roots(tmp: Path):
    """`analyze` on every fixture, selfcheck, every cohomology mode on
    generated group-graphs of both carriers, and each kind of bad input, so
    that the error handlers are entered too."""
    out = tmp / "out.json"
    for name in ("active_red_segment", "type4_two_reds", "star_vertex"):
        for extra in ((), ("--summary",)):
            _main(0, "analyze", "--input", FIXTURES / f"{name}.json", "--output", out, *extra)
    for seed in (0, 1):
        _main(0, "selfcheck", "--seed", seed, "--count", 10, "--output", out)
    _main(0, "selfcheck", "--count", 1, "--summary", "--output", out)

    # the exit code of each mode is worked out from the instance
    rng = random.Random(0)
    graphs = [
        random_finite_group_graph(rng, random_tree(rng, 4)),
        random_vector_group_graph(rng, random_tree(rng, 4)),
        random_regular_finite(rng, max_vertices=4),
        random_regular_vector(rng, max_vertices=4),
    ]
    for i, g in enumerate(graphs):
        path = tmp / f"gg{i}.json"
        path.write_text(json.dumps(g.to_json()))
        finite = g.carrier == "finite"
        fits = {"vector": not finite, "bruteforce": finite, "count": finite,
                "regular": is_regular(g)[0]}
        for mode in MODES:
            _main(0 if fits.get(mode, True) else 1,
                  "cohomology", "--input", path, "--mode", mode, "--output", out)
    _main(4, "cohomology", "--input", tmp / "gg0.json", "--budget", 1)

    spec = json.loads((FIXTURES / "active_red_segment.json").read_text())
    spec["vertices"]["D1"]["holonomy"]["tdim"] = 2
    (tmp / "invalid.json").write_text(json.dumps(spec))
    _main(2, "analyze", "--input", tmp / "invalid.json", "--output", out)
    (tmp / "nan.json").write_text(json.dumps(spec).replace('"-2"', "NaN"))
    _main(1, "analyze", "--input", tmp / "nan.json")
    huge = json.dumps({**graphs[0].to_json(), "x": "HUGE"}).replace('"HUGE"', "1e999")
    (tmp / "huge.json").write_text(huge)
    _main(1, "cohomology", "--input", tmp / "huge.json")
    _main(1, "analyze", "--input", tmp / "missing.json")
    _main(1, "selfcheck", "--count", 0, "--output", tmp)  # a directory


def _api_roots():
    """One call of each function of the import block that no CLI root enters,
    on each carrier it accepts; and `coboundary_action` on the vector
    carrier, which the CLI enters on the finite one only."""
    spec = FoliationSpec.from_json(json.loads((FIXTURES / "type4_two_reds.json").read_text()))
    assert scan_typed_geodesics(spec) and is_finite_type(spec)[0] == "not-finite"
    assert characterization_crosscheck(spec) and build_tf_red(spec).carrier == "vector"

    path = Graph.make("abc", [("a", "b"), ("b", "c")])
    for obj in (cyclic_group(4), VectorSpace(2)):
        g = constant_group_graph(path, obj)  # regular, every star supported
        _, phi = contract(Tree(path), {"a", "b"})
        _, j = direct_image(phi, g)  # over phi, not over the identity
        k = kernel_of(j)  # trivial: j is an isomorphism on every star
        assert quotient(k.parent, k).to_json() == k.parent.to_json()
        assert all(o.is_trivial() for o in quotient(g, image_of(j)).vobj.values())
        assert remove_offsupport_edges(g)[0].to_json() == g.to_json()
        assert is_regular(contraction_regularity(g, {"b", "c"}))[0]
    # the vector g: acting by c and then by -c leaves the zero cocycle
    zero = Cocycle1(g, [g.eobj[e].identity() for e in g.base.sorted_edges()])
    acted = coboundary_action(Cochain0(g, {v: [1] * o.dim for v, o in g.vobj.items()}), zero, g)
    back = coboundary_action(Cochain0(g, {v: [-1] * o.dim for v, o in g.vobj.items()}), acted, g)
    assert back.tail == zero.tail

    rng = random.Random(0)
    g, k = random_exact_sequence(rng, max_vertices=3, good=True)
    quo, proj = quotient_with_projection(g, k)
    z = h1_finite_bruteforce(g).representatives[-1]
    h = coboundary_action(Cochain0(g, {v: o.order - 1 for v, o in g.vobj.items()}), z, g)
    lift = QuotientLift(g, k, proj, _orbits(quo, 10**6, witnesses=True))(z, h)
    assert coboundary_action(lift, z, g).tail == h.tail


def test_every_definition_is_entered(tmp_path, monkeypatch):
    codes = set()

    def profile(frame, event, arg):
        if event == "call":
            codes.add(frame.f_code)

    # what an earlier test left in the per-process caches is built again
    monkeypatch.setattr(cli, "_parser", functools.cache(cli.build_parser))
    monkeypatch.setattr(generators, "_GROUP_POOL", None)
    monkeypatch.setattr(generators, "_AUT_CACHE", {})
    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        _cli_roots(tmp_path)
        _api_roots()
    finally:
        sys.setprofile(previous)
    entered = {(Path(c.co_filename).resolve(), c.co_firstlineno) for c in codes}
    missed = {name: lines for key, (name, lines) in _functions().items() if key not in entered}
    unexplained = {name: lines for name, lines in missed.items() if name not in NOT_ENTERED}
    assert not unexplained, (
        f"{len(unexplained)} definitions ({sum(unexplained.values())} lines) are never "
        f"entered by the CLI or the import block's functions: delete them, move test "
        f"helpers under tests/, or give a reason in NOT_ENTERED: {sorted(unexplained)}"
    )
    assert not set(NOT_ENTERED) - set(missed), "an allowed definition is entered or gone"
