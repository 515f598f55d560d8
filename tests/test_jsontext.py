"""The report writer against its oracle, the standard library's indented
encoder: every text the CLI writes must equal
`json.dumps(data, sort_keys=True, indent=2) + "\\n"` byte for byte."""

import json
import random
import sys
import threading
from collections import OrderedDict, defaultdict
from enum import IntEnum
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from groupgraph import _jsontext, cli, foliation, linalg, theorems
from groupgraph.foliation import FoliationSpec
from groupgraph.generators import (
    random_finite_group_graph,
    random_foliation_spec,
    random_injected_spec,
    random_regular_finite,
    random_regular_vector,
    random_tree,
    random_vector_group_graph,
)
from groupgraph.group_graph import GroupHom

FIXTURES = Path(__file__).parent / "fixtures"


def oracle(data) -> str:
    return json.dumps(data, sort_keys=True, indent=2) + "\n"


class Name(str):
    pass


@pytest.fixture
def written(monkeypatch):
    """Every value the CLI hands to the writer, in order."""
    seen = []
    real = _jsontext.dumps

    def spy(data):
        seen.append(data)
        return real(data)

    monkeypatch.setattr(_jsontext, "dumps", spy)
    return seen


def run(argv, capsys) -> tuple[int, str]:
    code = cli.main(argv)
    return code, capsys.readouterr().out


# keys and strings: non-ASCII text, quotes, backslashes, control characters
TEXT = st.text(st.sampled_from('aZ09 "\\/\x00\x01\x1f\x7f\n\té \ud800\U0001f600'), max_size=6)
SCALARS = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=-(10**40), max_value=10**40)
    | st.sampled_from([0, 1, -1, 2.5, -0.0, 1e16, 10**30])
    | TEXT
)
VALUES = st.recursive(
    SCALARS,
    lambda inner: (
        st.lists(inner, max_size=4)
        | st.lists(inner, max_size=4).map(tuple)
        | st.dictionaries(TEXT, inner, max_size=4)
    ),
    max_leaves=30,
)


@settings(max_examples=400, deadline=None)
@given(VALUES)
def test_writer_matches_the_standard_encoder(value):
    assert _jsontext.dumps(value) == oracle(value)


@pytest.mark.parametrize("value", [
    {}, [], (), [[]], [{}], {"a": []}, {"a": {"b": {}}}, [[], [[]], {}],
    [True, 1, False, 0], {"1": 1, "True": True, "": None}, [2.5, -0.0, 1e16],
    10**100, -(10**100), "é\"\\\x00\x1f", {" ": "\ud800"}, ["a", 1, None, ["b"]],
    # subclasses of JSON types
    OrderedDict(b=[1], a=defaultdict(list, x=[Name("s"), Name("t")])), [IntEnum("E", "A")(1)],
])
def test_writer_matches_on_edge_values(value):
    assert _jsontext.dumps(value) == oracle(value)


def test_writer_fills_holes_below_its_depth_limit():
    # containers past _MAX_DEPTH are written by later calls and spliced back
    value = {"k": [0, [1, {"x": ["y"]}]]}
    for _ in range(3 * _jsontext._MAX_DEPTH + 1):
        value = [value, {"level": value}] if len(str(value)) < 10_000 else [value]
    assert _jsontext.dumps(value) == oracle(value)


def test_generated_reports_match_the_oracle():
    for seed in range(200):
        specs = [random_foliation_spec(random.Random(f"writer:{seed}"))]
        specs += [random_injected_spec(random.Random(f"writer:{seed}:{t}"), t) for t in (1, 2, 3, 4)]
        for data in specs:
            report = foliation.moduli_dimension(FoliationSpec.from_json(data))
            assert report.dumps() == oracle(report.to_json()), (seed, data)


@pytest.mark.parametrize("name", ["active_red_segment", "type4_two_reds", "star_vertex"])
def test_fixture_reports_match_the_oracle(name, written, capsys):
    code, out = run(["analyze", "--input", str(FIXTURES / f"{name}.json")], capsys)
    assert code == 0
    assert out == oracle(written[-1])
    committed = FIXTURES / f"{name}.report.json"
    if committed.exists():
        assert out == committed.read_text()


def test_cohomology_output_matches_the_oracle_in_every_mode(tmp_path, written, capsys):
    rng = random.Random("writer:cohomology")
    graphs = []
    for _ in range(8):
        graphs.append(("finite", random_finite_group_graph(rng, random_tree(rng, rng.randint(1, 5)))))
        graphs.append(("finite", random_regular_finite(rng, max_vertices=5)))
        graphs.append(("vector", random_vector_group_graph(rng, random_tree(rng, rng.randint(1, 5)))))
        graphs.append(("vector", random_regular_vector(rng, max_vertices=5)))
    modes = {"finite": ["auto", "bruteforce", "count", "regular"], "vector": ["auto", "vector", "regular"]}
    compared = set()
    for i, (carrier, gg) in enumerate(graphs):
        path = tmp_path / f"gg{i}.json"
        path.write_text(json.dumps(gg.to_json()))
        for mode in modes[carrier]:
            code, out = run(["cohomology", "--input", str(path), "--mode", mode], capsys)
            if code == 1:  # the regular mode on a group-graph that is not regular
                assert mode == "regular" and out == ""
                continue
            assert code == 0
            assert out == oracle(written[-1])
            compared.add((carrier, mode))
    assert compared == {(c, m) for c, ms in modes.items() for m in ms}


def test_selfcheck_output_matches_the_oracle(written, capsys):
    code, out = run(["selfcheck", "--seed", "4", "--count", "3"], capsys)
    assert code == 0
    assert out == oracle(written[-1])


def test_cs_index_nested_as_deep_as_json_load_accepts(tmp_path, written, capsys):
    data = json.loads((FIXTURES / "active_red_segment.json").read_text())
    data["vertices"]["D1"]["cs_index"] = "nested"
    text = json.dumps(data)
    path = tmp_path / "deep.json"
    for depth in range(sys.getrecursionlimit(), 0, -1):
        path.write_text(text.replace('"nested"', "[" * depth + "0" + "]" * depth))
        code, out = run(["analyze", "--input", str(path)], capsys)
        if code != 1:  # 1: json.load ran out of recursion depth
            break
    assert code == 0 and depth > 500, (code, depth)
    # the oracle recurses once per level: give it a fresh thread's stack
    expected = []
    worker = threading.Thread(target=lambda: expected.append(oracle(written[-1])))
    worker.start()
    worker.join(timeout=60)
    assert not worker.is_alive() and out == expected[0], depth


def _single_red_component_spec() -> FoliationSpec:
    """A finite spec whose red part is one component with a vertex and an
    edge of tdim 1, so the regularity check compares restrictions."""
    for seed in range(100):
        spec = FoliationSpec.from_json(random_foliation_spec(random.Random(seed), require_red=True))
        ctx = foliation.analyze(spec)
        tf = ctx.tf_red
        if (len(foliation.connected_components(ctx.red)) == 1
                and any(tf.vobj[v].dim and tf.eobj[e].dim for v, e in tf.base.incidences())):
            return spec
    raise AssertionError("no such spec among the seeds")


def test_one_active_structure_for_a_single_red_component(monkeypatch):
    spec = _single_red_component_spec()
    calls = []
    real = theorems.build_active_structure

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(theorems, "build_active_structure", counted)
    assert foliation.moduli_dimension(spec).finite_type == "finite"
    assert len(calls) == 1


def test_one_active_structure_for_several_red_components(monkeypatch):
    calls = []
    real = theorems.build_active_structure
    monkeypatch.setattr(theorems, "build_active_structure", lambda g: calls.append(g) or real(g))
    parts = []
    for seed in range(80):
        spec = FoliationSpec.from_json(random_foliation_spec(random.Random(seed)))
        calls.clear()
        report = foliation.moduli_dimension(spec)
        if report.finite_type == "finite":
            assert len(calls) == 1, seed
            parts.append(len(foliation.connected_components(foliation.analyze(spec).red)))
    assert sum(k > 1 for k in parts) >= 10 and 1 in parts, parts


@pytest.mark.parametrize(
    "name,ranks", [("active_red_segment", 1), ("star_vertex", 1), ("type4_two_reds", 0)]
)
def test_one_cochain_rank_per_finite_analysis(monkeypatch, name, ranks):
    # regular_h1's cross-check is the moduli pipeline's only rank computation
    calls = []
    real = linalg.sparse_rank
    monkeypatch.setattr(linalg, "sparse_rank", lambda rows: calls.append(rows) or real(rows))
    spec = FoliationSpec.from_json(json.loads((FIXTURES / f"{name}.json").read_text()))
    assert foliation.moduli_dimension(spec).finite_type == ("finite" if ranks else "not-finite")
    assert len(calls) == ranks


def test_regularity_is_checked_once_per_restriction(monkeypatch):
    spec = _single_red_component_spec()
    checked = []
    real = GroupHom.is_iso

    def counted(self):
        checked.append(id(self))
        return real(self)

    monkeypatch.setattr(GroupHom, "is_iso", counted)
    foliation.moduli_dimension(spec)
    assert checked and len(checked) == len(set(checked))
