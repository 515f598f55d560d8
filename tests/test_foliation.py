import json
import random

import pytest

from groupgraph.foliation import (
    FoliationError,
    FoliationSpec,
    analyze,
    build_tf_red,
    characterization_crosscheck,
    cut_graph,
    is_finite_type,
    moduli_dimension,
    scan_typed_geodesics,
    validate,
)
from groupgraph.foliation import _certifies, _disconnection_witness
from groupgraph.graph import Graph, connected_components, edge, path_to_json, path_to_root
from groupgraph.theorems import HypothesisViolated
from groupgraph.generators import (
    random_connected_subset,
    random_foliation_spec,
    random_injected_spec,
    random_tree,
)
from groupgraph.group_graph import is_regular


def spec_of(data):
    return FoliationSpec.from_json(data)


def green_vertex(order):
    return {"kind": "invariant", "holonomy": {"finite": True, "order": order}}


def red_vertex(tdim):
    return {"kind": "invariant", "holonomy": {"finite": False, "tdim": tdim}}


def green_inc(order):
    return {"periodic": True, "order": order}


RED_INC = {"periodic": False}


def path_tree(*names):
    return {
        "vertices": list(names),
        "edges": [[names[i], names[i + 1]] for i in range(len(names) - 1)],
    }


def red_segment(tdim_a=0, tdim_b=0, edge_tdim=1):
    return {
        "tree": path_tree("D1", "D2"),
        "vertices": {"D1": red_vertex(tdim_a), "D2": red_vertex(tdim_b)},
        "edges": {
            "D1#D2": {
                "kind": "singular",
                "tdim": edge_tdim,
                "holonomy": {"D1": RED_INC, "D2": RED_INC},
            }
        },
    }


def type4_spec():
    return {
        "tree": path_tree("D1", "D2"),
        "vertices": {"D1": red_vertex(1), "D2": red_vertex(0)},
        "edges": {
            "D1#D2": {
                "kind": "singular",
                "holonomy": {"D1": green_inc(2), "D2": green_inc(3)},
            }
        },
    }


# --- validation ---------------------------------------------------------------


def test_single_invariant_vertex_is_valid():
    spec = spec_of({
        "tree": {"vertices": ["D1"], "edges": []},
        "vertices": {"D1": green_vertex(1)},
        "edges": {},
    })
    assert validate(spec) == []


def test_red_edge_needs_red_endpoints():
    spec = spec_of({
        "tree": path_tree("D1", "D2"),
        "vertices": {"D1": red_vertex(0), "D2": green_vertex(4)},
        "edges": {
            "D1#D2": {"kind": "singular", "tdim": 1,
                      "holonomy": {"D1": RED_INC, "D2": RED_INC}},
        },
    })
    violations = validate(spec)
    assert any("forces an infinite group" in v for v in violations)
    assert any("non-red endpoint" in v for v in violations)


def test_divisibility_violation():
    spec = spec_of({
        "tree": path_tree("D1", "D2"),
        "vertices": {"D1": green_vertex(4), "D2": green_vertex(4)},
        "edges": {
            "D1#D2": {"kind": "singular",
                      "holonomy": {"D1": green_inc(3), "D2": green_inc(4)}},
        },
    })
    assert any("does not divide" in v for v in validate(spec))


def test_monotonicity_violation():
    spec = spec_of(red_segment(tdim_a=1, tdim_b=0, edge_tdim=0))
    assert any("exceeds the edge tdim" in v for v in validate(spec))


def test_non_tree_rejected():
    spec = spec_of({
        "tree": {"vertices": ["D1", "D2", "D3"],
                 "edges": [["D1", "D2"], ["D2", "D3"], ["D1", "D3"]]},
        "vertices": {v: green_vertex(1) for v in ("D1", "D2", "D3")},
        "edges": {
            k: {"kind": "singular", "holonomy": {a: green_inc(1), b: green_inc(1)}}
            for k, (a, b) in {
                "D1#D2": ("D1", "D2"), "D2#D3": ("D2", "D3"), "D1#D3": ("D1", "D3")
            }.items()
        },
    })
    assert any("not a tree" in v for v in validate(spec))


def test_dicritical_singular_edge_rejected():
    spec = spec_of({
        "tree": path_tree("D1", "D2"),
        "vertices": {"D1": {"kind": "dicritical"}, "D2": green_vertex(2)},
        "edges": {"D1#D2": {"kind": "singular",
                            "holonomy": {"D2": green_inc(2)}}},
    })
    assert any("cannot be singular" in v for v in validate(spec))


def test_holonomy_outside_cut_graph_rejected():
    spec = spec_of({
        "tree": path_tree("D1", "D2"),
        "vertices": {"D1": green_vertex(2), "D2": green_vertex(2)},
        "edges": {"D1#D2": {"kind": "regular",
                            "holonomy": {"D1": green_inc(2), "D2": green_inc(2)}}},
    })
    assert any("outside the cut graph" in v for v in validate(spec))


# --- cut graph and red subgraph --------------------------------------------------


def full_green_path():
    return spec_of({
        "tree": path_tree("D1", "D2", "D3"),
        "vertices": {v: green_vertex(2) for v in ("D1", "D2", "D3")},
        "edges": {
            "D1#D2": {"kind": "singular",
                      "holonomy": {"D1": green_inc(2), "D2": green_inc(2)}},
            "D2#D3": {"kind": "singular",
                      "holonomy": {"D2": green_inc(2), "D3": green_inc(2)}},
        },
    })


def test_cut_graph_keeps_everything_when_plain():
    cut, comps = cut_graph(full_green_path())
    assert len(cut.vertices) == 3 and len(cut.edges) == 2
    assert len(comps) == 1


def test_nodal_edge_cuts_the_path():
    data = full_green_path().to_json()
    data["edges"]["D1#D2"] = {"kind": "nodal"}
    cut, comps = cut_graph(spec_of(data))
    assert len(comps) == 2


def test_dicritical_star_center_isolates_leaves():
    spec = spec_of({
        "tree": {"vertices": ["C", "L1", "L2", "L3"],
                 "edges": [["C", "L1"], ["C", "L2"], ["C", "L3"]]},
        "vertices": {
            "C": {"kind": "dicritical"},
            "L1": green_vertex(1), "L2": green_vertex(1), "L3": green_vertex(1),
        },
        "edges": {f"C#L{i}": {"kind": "regular"} for i in (1, 2, 3)},
    })
    cut, comps = cut_graph(spec)
    assert not cut.edges
    assert [sorted(c.vertices) for c in comps] == [["L1"], ["L2"], ["L3"]]


def test_red_subgraph_cases():
    assert analyze(full_green_path()).red.vertices == frozenset()
    red = analyze(spec_of(red_segment())).red
    assert len(red.vertices) == 2 and len(red.edges) == 1

    # two red vertices joined by a periodic (green) edge: disconnected red part
    spec4 = spec_of(type4_spec())
    red4 = analyze(spec4).red
    assert len(red4.vertices) == 2 and not red4.edges


# --- classification ------------------------------------------------------------


def test_classify_restrictions():
    data = {
        "tree": path_tree("D1", "D2", "D3"),
        "vertices": {"D1": green_vertex(5), "D2": green_vertex(10), "D3": red_vertex(1)},
        "edges": {
            "D1#D2": {"kind": "singular",
                      "holonomy": {"D1": green_inc(5), "D2": green_inc(5)}},
            "D2#D3": {"kind": "singular",
                      "holonomy": {"D2": green_inc(10), "D3": green_inc(2)}},
        },
    }
    cls = analyze(spec_of(data)).classes
    assert cls[("D1", ("D1", "D2"))] == "iso"  # orders 5 = 5
    assert cls[("D2", ("D1", "D2"))] == "not-iso"  # 10 != 5
    assert cls[("D3", ("D2", "D3"))] == "not-iso"  # red vertex into a green edge
    red = spec_of(red_segment(tdim_a=1, tdim_b=0, edge_tdim=1))
    cls = analyze(red).classes
    assert cls[("D1", ("D1", "D2"))] == "iso"  # tdims 1 = 1
    assert cls[("D2", ("D1", "D2"))] == "not-iso"  # tdim 0 into 1


# --- finite type -----------------------------------------------------------------


def test_entirely_red_connected_component_is_finite():
    verdict, reports = is_finite_type(spec_of(red_segment()))
    assert verdict == "finite"
    assert reports[0]["status"] == "ok"


def test_type4_two_reds_green_edge():
    verdict, reports = is_finite_type(spec_of(type4_spec()))
    assert verdict == "not-finite"
    types = [w["type"] for w in reports[0]["witnesses"]]
    assert types == [4]


def test_outward_condition_holds_with_equal_orders():
    spec = spec_of({
        "tree": path_tree("D1", "D2"),
        "vertices": {"D1": red_vertex(1), "D2": green_vertex(4)},
        "edges": {"D1#D2": {"kind": "singular",
                            "holonomy": {"D1": green_inc(3), "D2": green_inc(4)}}},
    })
    verdict, _ = is_finite_type(spec)
    assert verdict == "finite"


def test_outward_condition_fails_with_type2_witness():
    spec = spec_of({
        "tree": path_tree("D1", "D2"),
        "vertices": {"D1": red_vertex(1), "D2": green_vertex(4)},
        "edges": {"D1#D2": {"kind": "singular",
                            "holonomy": {"D1": green_inc(3), "D2": green_inc(2)}}},
    })
    verdict, reports = is_finite_type(spec)
    assert verdict == "not-finite"
    assert [w["type"] for w in reports[0]["witnesses"]] == [2]


def test_type1_witness_on_longer_geodesic():
    spec = spec_of({
        "tree": path_tree("D1", "D2", "D3"),
        "vertices": {"D1": red_vertex(0), "D2": green_vertex(6), "D3": green_vertex(6)},
        "edges": {
            "D1#D2": {"kind": "singular",
                      "holonomy": {"D1": green_inc(2), "D2": green_inc(6)}},
            "D2#D3": {"kind": "singular",
                      "holonomy": {"D2": green_inc(6), "D3": green_inc(3)}},
        },
    })
    verdict, reports = is_finite_type(spec)
    assert verdict == "not-finite"
    assert 1 in [w["type"] for w in reports[0]["witnesses"]]


def test_empty_red_component_certificate_search():
    spec = full_green_path()  # all first-edge orders equal the vertex orders
    verdict, reports = is_finite_type(spec)
    assert verdict == "finite"
    assert reports[0]["certificate_vertex"] == "D1"  # first certifier in order


def test_empty_red_component_without_certificate():
    spec = spec_of({
        "tree": path_tree("D1", "D2"),
        "vertices": {"D1": green_vertex(4), "D2": green_vertex(4)},
        "edges": {"D1#D2": {"kind": "singular",
                            "holonomy": {"D1": green_inc(2), "D2": green_inc(2)}}},
    })
    verdict, reports = is_finite_type(spec)
    assert verdict == "not-finite"
    assert reports[0]["witnesses"][0]["type"] == "untyped"


def test_entirely_green_check():
    assert analyze(spec_of(red_segment())).entirely_green == []
    assert analyze(full_green_path()).entirely_green == [["D1", "D2", "D3"]]


def test_moduli_report_carries_the_analysis_characterization():
    specs = [full_green_path()]
    for seed in range(20):
        specs.append(spec_of(random_foliation_spec(random.Random(seed))))
        specs.append(spec_of(random_injected_spec(random.Random(seed), 1 + seed % 4)))
    for spec in specs:
        expected = analyze(spec).characterization
        assert moduli_dimension(spec).characterization == expected
        if expected["status"] == "ok":
            assert characterization_crosscheck(spec) is expected["consistent"]
    assert moduli_dimension(specs[0]).characterization["status"] == "hypothesis-violated"


def test_verdict_invariant_under_relabeling():
    for seed in range(10):
        rng = random.Random(seed)
        data = random_foliation_spec(rng, max_vertices=8)
        verdict1, _ = is_finite_type(spec_of(data))
        renamed = json.loads(json.dumps(data).replace("D", "Q"))
        verdict2, _ = is_finite_type(spec_of(renamed))
        assert verdict1 == verdict2


# --- the restricted symmetry graph and the moduli dimension -----------------------


def test_build_tf_red_regular_and_dims():
    tf = build_tf_red(spec_of(red_segment(0, 0, 1)))
    assert is_regular(tf)[0]
    assert tf.eobj[("D1", "D2")].dim == 1
    assert tf.vobj["D1"].dim == 0

    all_ones = build_tf_red(spec_of(red_segment(1, 1, 1)))
    assert all(o.dim == 1 for o in all_ones.vobj.values())

    empty = build_tf_red(full_green_path())
    assert not empty.base.vertices


def test_moduli_single_active_red_edge():
    report = moduli_dimension(spec_of(red_segment(0, 0, 1)))
    assert report.finite_type == "finite"
    assert report.moduli_dim == 1
    assert report.basis_edges == ["D1#D2"]


def test_moduli_fully_supported_red_is_zero():
    report = moduli_dimension(spec_of(red_segment(1, 1, 1)))
    assert report.moduli_dim == 0
    assert report.basis_edges == []


def test_moduli_red_path_110():
    # red path of 3 vertices, tdims (1,1,0), both edges tdim 1: one active
    # edge in a larger component, so the dimension is 0
    spec = spec_of({
        "tree": path_tree("D1", "D2", "D3"),
        "vertices": {"D1": red_vertex(1), "D2": red_vertex(1), "D3": red_vertex(0)},
        "edges": {
            "D1#D2": {"kind": "singular", "tdim": 1,
                      "holonomy": {"D1": RED_INC, "D2": RED_INC}},
            "D2#D3": {"kind": "singular", "tdim": 1,
                      "holonomy": {"D2": RED_INC, "D3": RED_INC}},
        },
    })
    report = moduli_dimension(spec)
    assert report.finite_type == "finite"
    assert report.moduli_dim == 0


def test_moduli_not_finite_reports_infinite():
    report = moduli_dimension(spec_of(type4_spec()))
    assert report.finite_type == "not-finite"
    assert report.moduli_dim == "infinite"
    assert report.basis_edges == []


def test_moduli_triple_agreement_random():
    for seed in range(30):
        rng = random.Random(seed)
        spec = spec_of(random_foliation_spec(rng))
        assert validate(spec) == []
        report = moduli_dimension(spec)  # internal triple assertion
        assert report.finite_type == "finite"
        if isinstance(report.moduli_dim, int):
            assert report.moduli_dim == len(report.basis_edges)


def test_invalid_spec_raises_with_violations():
    bad = red_segment(tdim_a=1, tdim_b=0, edge_tdim=0)
    with pytest.raises(FoliationError) as err:
        moduli_dimension(spec_of(bad))
    assert err.value.violations


# --- characterization --------------------------------------------------------------


def test_crosscheck_requires_hypothesis():
    with pytest.raises(HypothesisViolated):
        characterization_crosscheck(full_green_path())


def test_crosscheck_on_finite_and_injected_specs():
    for seed in range(12):
        rng = random.Random(seed)
        if seed % 2:
            spec = spec_of(random_foliation_spec(rng, require_red=True))
            verdict, _ = is_finite_type(spec)
            assert verdict == "finite"
            assert scan_typed_geodesics(spec) == []
        else:
            spec = spec_of(random_injected_spec(rng, (seed % 4) + 1))
            verdict, _ = is_finite_type(spec)
            assert verdict == "not-finite"
            assert scan_typed_geodesics(spec)
        assert characterization_crosscheck(spec)


def test_red_edges_have_red_endpoints_in_generated_specs():
    for seed in range(15):
        rng = random.Random(seed)
        spec = spec_of(random_foliation_spec(rng))
        assert validate(spec) == []
        for e in spec.graph.sorted_edges():
            if spec.is_red_edge(e):
                assert spec.is_red_vertex(e[0]) and spec.is_red_vertex(e[1])


# --- serialization -------------------------------------------------------------------


def test_spec_json_round_trip():
    data = red_segment(0, 1, 1)
    data["vertices"]["D1"]["cs_index"] = "-3/2"
    spec = spec_of(data)
    again = FoliationSpec.from_json(json.loads(json.dumps(spec.to_json())))
    assert again.to_json() == spec.to_json()


def test_report_serializes_deterministically():
    spec = spec_of(red_segment(0, 0, 1))
    a = moduli_dimension(spec).dumps()
    b = moduli_dimension(spec).dumps()
    assert a == b
    parsed = json.loads(a)
    assert parsed["moduli_dim"] == 1


# --- slow oracles: the per-vertex searches that one BFS per component replaced


def oracle_tree_path(comp, u, w):
    prev = {u: None}
    queue = [u]
    while queue:
        cur = queue.pop(0)
        if cur == w:
            break
        for n in comp.neighbors(cur):
            if n not in prev:
                prev[n] = cur
                queue.append(n)
    path = [w]
    cur = w
    while prev[cur] is not None:
        p = prev[cur]
        path.append(edge(p, cur))
        path.append(p)
        cur = p
    path.reverse()
    return path


def oracle_first_edge_toward(comp, targets, v):
    prev = {v: None}
    queue = [v]
    hit = None
    while queue:
        cur = queue.pop(0)
        if cur in targets:
            hit = cur
            break
        for n in comp.neighbors(cur):
            if n not in prev:
                prev[n] = cur
                queue.append(n)
    cur = hit
    while prev[prev[cur]] is not None:
        cur = prev[cur]
    return edge(v, cur), cur


def oracle_nearest_red(comp, red_vs, v):
    prev = {v: None}
    queue = [v]
    while queue:
        cur = queue.pop(0)
        if cur in red_vs:
            return cur
        for n in comp.neighbors(cur):
            if n not in prev:
                prev[n] = cur
                queue.append(n)
    raise AssertionError("no red vertex reachable")


def oracle_certifies(spec, comp, v):
    prev = {v: None}
    queue = [v]
    while queue:
        cur = queue.pop(0)
        for n in comp.neighbors(cur):
            if n not in prev:
                prev[n] = cur
                queue.append(n)
                e = edge(cur, n)
                if spec.vertex_order[n] != spec.edge_holonomy[(n, e)]["order"]:
                    return False
    return True


def check_red_parent_map(comp, red_vs):
    """The parent map toward a connected red part gives every green vertex
    the first edge and the red-first path of the per-vertex searches."""
    parent = comp.bfs(sorted(red_vs))
    for v in sorted(comp.vertices - red_vs):
        assert (edge(v, parent[v]), parent[v]) == oracle_first_edge_toward(comp, red_vs, v)
        nearest = oracle_nearest_red(comp, red_vs, v)
        assert path_to_root(parent, v) == oracle_tree_path(comp, v, nearest)
    return len(comp.vertices - red_vs)


def check_tree_paths(comp):
    for u in comp.sorted_vertices():
        for w in comp.sorted_vertices():
            assert path_to_root(comp.bfs([w]), u) == oracle_tree_path(comp, u, w)


def test_red_parent_map_and_tree_paths_match_oracles_on_random_trees():
    greens = 0
    for seed in range(80):
        rng = random.Random(seed)
        t = random_tree(rng, rng.randint(1, 14))
        red_vs = random_connected_subset(rng, t, rng.randint(1, len(t.vertices)))
        greens += check_red_parent_map(t.graph, red_vs)
        check_tree_paths(t.graph)
    assert greens > 200


def test_red_parent_map_and_certificates_match_oracles_on_generated_specs():
    specs = [random_foliation_spec(random.Random(seed)) for seed in range(30)]
    specs += [
        random_injected_spec(random.Random(seed), gtype)
        for seed in range(10) for gtype in (1, 2, 3, 4)
    ]
    greens = certified = 0
    for data in specs:
        spec = spec_of(data)
        ctx = analyze(spec)
        for comp, red in zip(ctx.comps, ctx.red_per_comp):
            check_tree_paths(comp)
            if not red.vertices:
                for v in comp.sorted_vertices():
                    assert _certifies(ctx, comp, v) == oracle_certifies(spec, comp, v)
                    certified += 1
            elif len(connected_components(red)) == 1:
                greens += check_red_parent_map(comp, red.vertices)
    assert greens > 100 and certified > 20


def oracle_disconnection_witness(comp, red_comps):
    """The pairwise search: one tree path per vertex pair across two red pieces."""
    best = None
    for i, (vs1, _) in enumerate(red_comps):
        for vs2, _ in red_comps[i + 1:]:
            for u in vs1:
                for w in vs2:
                    path = oracle_tree_path(comp, u, w)
                    if best is None or len(path) < len(best):
                        best = path
    return {"type": 4 if len(best) == 3 else 3, "elements": path_to_json(best)}


def test_disconnection_witness_matches_the_pairwise_oracle():
    cases = []
    for seed in range(40):
        for data in (random_foliation_spec(random.Random(seed)),
                     random_injected_spec(random.Random(seed), 3 + seed % 2)):
            ctx = analyze(spec_of(data))
            cases += [(comp, red) for comp, red in zip(ctx.comps, ctx.red_per_comp)]
    for seed in range(300):
        rng = random.Random(seed)
        comp = random_tree(rng, rng.randint(2, 14)).graph
        red_vs = frozenset(v for v in comp.vertices if rng.random() < 0.6)
        red_es = frozenset(e for e in comp.edges if set(e) <= red_vs and rng.random() < 0.6)
        cases.append((comp, Graph(red_vs, red_es)))
    for k in range(2, 41):  # a green hub with k red leaves, some behind a green spoke
        rng = random.Random(k)
        leaves = [f"r{i}" for i in rng.sample(range(100), k)]
        spokes = {leaf: f"g{leaf}" for leaf in leaves if rng.random() < 0.3}
        edges = [("hub", spokes.get(leaf, leaf)) for leaf in leaves]
        edges += [(leaf, spoke) for leaf, spoke in spokes.items()]
        comp = Graph.make(["hub", *leaves, *spokes.values()], edges)
        cases.append((comp, Graph(frozenset(leaves), frozenset())))
    compared = multi_vertex = 0
    for comp, red in cases:
        red_comps = connected_components(red)
        if len(red_comps) < 2:
            continue
        assert _disconnection_witness(comp, red_comps) == oracle_disconnection_witness(
            comp, red_comps)
        compared += 1
        multi_vertex += any(len(vs) > 1 for vs, _ in red_comps)
    assert compared > 190 and multi_vertex > 50


def test_disconnection_witness_runs_one_bfs_per_pair_of_red_pieces(monkeypatch):
    # an all-red path cut into two red pieces by one periodic edge
    n = 60
    names = [f"D{i:02d}" for i in range(n)]
    edges = {}
    for i in range(n - 1):
        a, b = names[i], names[i + 1]
        if i == n // 2:
            edges[f"{a}#{b}"] = {"kind": "singular",
                                 "holonomy": {a: green_inc(1), b: green_inc(1)}}
        else:
            edges[f"{a}#{b}"] = {"kind": "singular", "tdim": 1,
                                 "holonomy": {a: RED_INC, b: RED_INC}}
    ctx = analyze(spec_of({"tree": path_tree(*names),
                           "vertices": {v: red_vertex(1) for v in names}, "edges": edges}))
    calls = []
    real = Graph.bfs

    def counting(self, sources):
        calls.append(sources)
        return real(self, sources)

    monkeypatch.setattr(Graph, "bfs", counting)
    verdict, reports = ctx.finite_type
    assert verdict == "not-finite"
    mid = names[n // 2: n // 2 + 2]
    assert reports[0]["witnesses"] == [{"type": 4, "elements": [mid[0], mid, mid[1]]}]
    assert len(calls) == 1
