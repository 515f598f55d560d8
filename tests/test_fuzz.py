"""Mutated inputs at the CLI boundary: both analyze fixture specs and one
group-graph of each carrier, with keys dropped and values replaced by other
JSON types, out-of-range elements, wrong-length vectors and bools.  Whatever
the input, `cli.main` returns an exit code in 0..5 and writes no traceback."""

import contextlib
import copy
import io
import json
import tempfile
from pathlib import Path

import pytest

from conftest import constant_group_graph, vector_gg
from groupgraph import cli
from groupgraph.graph import Graph
from groupgraph.group_graph import cyclic_group

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
