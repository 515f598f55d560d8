"""Mutated inputs at the CLI boundary: both analyze fixture specs and one
group-graph of each carrier, with keys dropped and values replaced by other
JSON types, out-of-range elements, wrong-length vectors and bools.  Whatever
the input, `cli.main` returns an exit code in 0..5 and writes no traceback.
Also random finite group-graphs, on which the orbit walk over generating
sets partitions Z1 as the all-element oracle does."""

import contextlib
import copy
import io
import json
import math
import tempfile
from pathlib import Path

import pytest

from conftest import act_tail, constant_group_graph, finite_gg, oracle_h1, vector_gg
from groupgraph import cli, cohomology
from groupgraph.generators import automorphisms_of, group_pool
from groupgraph.graph import Graph
from groupgraph.group_graph import cyclic_group, trivial_group

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

FIXTURES = Path(__file__).parent / "fixtures"
SPECS = [json.loads((FIXTURES / f"{name}.json").read_text())
         for name in ("active_red_segment", "type4_two_reds")]
GROUP_GRAPHS = [
    constant_group_graph(Graph.make("abc", [("a", "b"), ("b", "c")]), cyclic_group(4)).to_json(),
    vector_gg(
        "abc", [("a", "b"), ("b", "c")], {"a": 2, "b": 1, "c": 1},
        {("a", "b"): 1, ("b", "c"): 1},
        mats={("a", ("a", "b")): [[1, -1]], ("c", ("b", "c")): [["1/2"]]},
    ).to_json(),
]

# small values only: an order or dimension drawn here never asks for much memory
SCALARS = st.sampled_from(
    [None, True, False, -1, 0, 1, 2, 3, 7, 25, 0.5, 1.0, "", "x", "1/2", "1/0", "D1", "a#b"]
)
VALUES = st.one_of(
    SCALARS,
    st.lists(SCALARS, max_size=3),  # wrong-length vectors and rows, bool entries
    st.dictionaries(st.sampled_from(["order", "dim", "map", "matrix", "a", "D1"]), SCALARS,
                    max_size=2),
)


def _paths(node, prefix=()):
    """Every position inside a JSON document, as a key/index path."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, child in items:
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


def _perturb(draw, old):
    """A value near the old one: another small int (out-of-range elements) or
    a rational string, a flipped bool, or a list one entry shorter or longer
    (wrong-length vectors)."""
    if isinstance(old, bool):
        return not old
    if isinstance(old, int):
        return draw(st.sampled_from([-1, 0, 1, 2, 3, 4, 5, 25, "1/2", "1/0"]))
    if isinstance(old, list):
        return old[:-1] if old and draw(st.booleans()) else old + [draw(SCALARS)]
    return draw(VALUES)


@st.composite
def mutated(draw, documents):
    """A document with one to three positions dropped, replaced or perturbed."""
    data = copy.deepcopy(draw(st.sampled_from(documents)))
    for _ in range(draw(st.sampled_from([1, 1, 2, 3]))):
        paths = list(_paths(data))[::-1]  # leaves first: most draws keep the shape
        if not paths:
            break
        path = draw(st.sampled_from(paths))
        parent = data
        for key in path[:-1]:
            parent = parent[key]
        action = draw(st.sampled_from(["drop", "replace", "perturb", "perturb"]))
        if action == "drop":
            del parent[path[-1]]
        elif action == "replace":
            parent[path[-1]] = draw(VALUES)
        else:
            parent[path[-1]] = _perturb(draw, parent[path[-1]])
    return data


def _run(argv, data) -> tuple[int, str]:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "input.json"
        path.write_text(json.dumps(data))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main([*argv, "--input", str(path)])
    return code, err.getvalue()


FUZZ = hypothesis.settings(
    max_examples=250, derandomize=True, deadline=None, database=None,
    suppress_health_check=[hypothesis.HealthCheck.too_slow],
)


@FUZZ
@hypothesis.given(data=mutated(SPECS), summary=st.booleans())
def test_mutated_spec_exits_with_a_code_not_a_traceback(data, summary):
    code, err = _run(["analyze"] + (["--summary"] if summary else []), data)
    assert code in range(6) and "Traceback" not in err, (code, err)


@FUZZ
@hypothesis.given(
    data=mutated(GROUP_GRAPHS),
    mode=st.sampled_from(["auto", "vector", "bruteforce", "regular", "count"]),
)
def test_mutated_group_graph_exits_with_a_code_not_a_traceback(data, mode):
    code, err = _run(["cohomology", "--mode", mode], data)
    assert code in range(6) and "Traceback" not in err, (code, err)


@st.composite
def finite_group_graphs(draw):
    """A tree on 2-5 vertices, or a tree on 3-5 closed into one cycle by an
    extra edge.  Either every group is Z1..Z6 with a random homomorphism
    x -> c x mod m on each incidence, or each star is one group of order at
    most 8 (nonabelian D3 and D4 included) or trivial, with automorphism or
    trivial restrictions.  |Z1| is at most 512, so the oracle stays quick."""
    n = draw(st.integers(2, 5))
    names = [f"v{i}" for i in range(n)]
    edges = [(names[draw(st.integers(0, i - 1))], names[i]) for i in range(1, n)]
    if n >= 3 and draw(st.booleans()):
        chords = [(a, b) for i, a in enumerate(names) for b in names[i + 1:]
                  if (a, b) not in edges]
        edges.append(draw(st.sampled_from(chords)))
    homs = {}
    if draw(st.booleans()):
        vgroups = {v: cyclic_group(draw(st.integers(1, 6))) for v in names}
        egroups = {e: cyclic_group(draw(st.integers(1, 6))) for e in edges}
        for e in edges:
            for v in e:
                nv, m = vgroups[v].order, egroups[e].order
                c = (m // math.gcd(nv, m)) * draw(st.integers(0, math.gcd(nv, m) - 1))
                homs[(v, e)] = tuple(c * x % m for x in range(nv))
    else:
        name, grp = draw(st.sampled_from([p for p in group_pool() if p[1].order <= 8]))
        auts = automorphisms_of(name, grp)
        vgroups = {v: draw(st.sampled_from([grp, grp, trivial_group()])) for v in names}
        egroups = {e: draw(st.sampled_from([grp, grp, trivial_group()])) for e in edges}
        for e in edges:
            for v in e:
                if vgroups[v] is grp and egroups[e] is grp:
                    homs[(v, e)] = draw(st.sampled_from(auts + [(0,) * grp.order]))
    hypothesis.assume(math.prod(egroups[e].order for e in edges) <= 512)
    return finite_gg(names, edges, vgroups, egroups, homs)


@hypothesis.settings(FUZZ, max_examples=150)
@hypothesis.given(gg=finite_group_graphs())
def test_orbit_walk_partitions_z1_as_the_all_element_oracle(gg):
    reps, class_index = oracle_h1(gg)
    w_reps, w_index, fams = cohomology._orbits(gg, 10**6, witnesses=True)
    assert w_reps == reps
    assert w_index == class_index
    vs = gg.base.sorted_vertices()
    for t, fam in fams.items():
        assert act_tail(gg, dict(zip(vs, fam)), w_reps[w_index[t]]) == t
