import json
import random

import pytest

from conftest import Geodesic, geodesic_to_subtree, precedes
from groupgraph.graph import (
    Graph,
    GraphError,
    GraphMorphism,
    Tree,
    components,
    connected_components,
    contract,
    edge,
    outward_incidences,
    path_to_root,
    subtree_parents,
    validate_tree,
)
from groupgraph.generators import random_connected_subset


def path_graph(*names):
    return Graph.make(names, [(names[i], names[i + 1]) for i in range(len(names) - 1)])


def random_tree(rng, n):
    names = [f"v{i}" for i in range(n)]
    edges = [(names[rng.randrange(i)], names[i]) for i in range(1, n)]
    return Tree.make(names, edges)


# --- validate_tree -----------------------------------------------------------


def test_single_vertex_is_a_tree():
    assert validate_tree(Graph.make(["a"], []))


def test_triangle_is_not_a_tree():
    tri = Graph.make("abc", [("a", "b"), ("b", "c"), ("a", "c")])
    assert not validate_tree(tri)


def test_path_is_a_tree():
    assert validate_tree(path_graph("a", "b", "c"))


def test_disconnected_is_not_a_tree():
    g = Graph.make(["a", "b", "c"], [("a", "b")])
    assert not validate_tree(g)


def test_graph_invariants_enforced():
    with pytest.raises(GraphError):
        Graph.make(["a"], [("a", "a")])  # self-loop
    with pytest.raises(GraphError):
        Graph(frozenset(["a"]), frozenset([("a", "b")]))  # endpoint missing
    with pytest.raises(GraphError):
        Graph.make(["a#b"], [])  # reserved character


# --- geodesics and the partial order ----------------------------------------


def test_geodesic_in_path():
    t = Tree(path_graph("a", "b", "c"))
    geo = geodesic_to_subtree(t, {"a"}, "c")
    assert geo.elements == ("c", ("b", "c"), "b", ("a", "b"), "a")


def test_geodesic_inside_subtree_is_single_vertex():
    t = Tree(path_graph("a", "b", "c"))
    assert geodesic_to_subtree(t, {"a", "b"}, "b").elements == ("b",)


def test_geodesic_in_star():
    t = Tree.make("sxyz", [("s", "x"), ("s", "y"), ("s", "z")])
    geo = geodesic_to_subtree(t, {"x"}, "y")
    assert geo.elements == ("y", ("s", "y"), "s", ("s", "x"), "x")


def test_geodesic_rejects_disconnected_subtree():
    t = Tree(path_graph("a", "b", "c"))
    with pytest.raises(GraphError):
        geodesic_to_subtree(t, {"a", "c"}, "b")
    with pytest.raises(GraphError):
        geodesic_to_subtree(t, {"a"}, "zzz")


def test_precedes_examples():
    t = Tree(path_graph("a", "b", "c"))
    assert precedes(t, {"a"}, "a", "c")  # inside the subtree
    assert precedes(t, {"a"}, "b", "b")  # reflexive
    assert precedes(t, {"a"}, "b", "c")
    assert not precedes(t, {"a"}, "c", "b")


def test_precedes_is_a_partial_order_on_random_trees():
    for seed in range(20):
        rng = random.Random(seed)
        t = random_tree(rng, rng.randint(2, 8))
        vs = sorted(t.vertices)
        r = {rng.choice(vs)}
        for v in vs:
            assert precedes(t, r, v, v)
        for v in vs:
            for w in vs:
                if v != w and precedes(t, r, v, w):
                    assert not precedes(t, r, w, v) or v == w
                for x in vs:
                    if precedes(t, r, v, w) and precedes(t, r, w, x):
                        assert precedes(t, r, v, x)


# --- slow oracles: the per-vertex searches that one BFS from the subtree
# replaced (for the geodesics, conftest.geodesic_to_subtree)


def oracle_constrained_incidences(t, rset):
    """One BFS per outside vertex for its first edge toward the subtree."""
    out = []
    for v in sorted(t.vertices - rset):
        prev = {v: None}
        queue = [v]
        hit = None
        while queue:
            cur = queue.pop(0)
            if cur in rset:
                hit = cur
                break
            for n in t.graph.neighbors(cur):
                if n not in prev:
                    prev[n] = cur
                    queue.append(n)
        cur = hit
        while prev[prev[cur]] is not None:
            cur = prev[cur]
        out.append((v, edge(v, cur)))
    return out


def test_bfs_multi_source_order_parents_and_unreached():
    g = Graph.make("abcdexyz", [("a", "b"), ("b", "c"), ("c", "d"), ("d", "e"), ("y", "z")])
    # sources first, in the given order (a repeat is ignored), then FIFO
    parent = g.bfs(["e", "a", "e"])
    assert list(parent.items()) == [("e", None), ("a", None), ("d", "e"), ("b", "a"), ("c", "d")]
    assert not {"x", "y", "z"} & set(parent)  # other components are not reached
    assert g.bfs(["x"]) == {"x": None}
    assert g.bfs([]) == {}
    star = Graph.make("scab", [("s", "c"), ("s", "a"), ("s", "b")])  # neighbours sorted
    assert list(star.bfs(["s"]).items()) == [("s", None), ("a", "s"), ("b", "s"), ("c", "s")]


def test_subtree_searches_match_per_vertex_oracles():
    checked = 0
    for seed in range(80):
        rng = random.Random(seed)
        t = random_tree(rng, rng.randint(1, 14))
        r = random_connected_subset(rng, t, rng.randint(1, len(t.vertices)))
        parent = subtree_parents(t, r)
        for v in sorted(t.vertices):
            assert path_to_root(parent, v) == list(geodesic_to_subtree(t, r, v).elements)
            checked += 1
        assert outward_incidences(t, r) == oracle_constrained_incidences(t, r)
    assert checked > 500


# --- contraction -------------------------------------------------------------


def test_contract_path_tail():
    t = Tree(path_graph("a", "b", "c"))
    out, c = contract(t, {"b", "c"})
    assert sorted(out.vertices) == ["a", "b+c"]
    assert sorted(out.edges) == [("a", "b+c")]
    assert c.apply("b") == "b+c" and c.apply("a") == "a"


def test_contract_everything():
    t = Tree(path_graph("a", "b", "c"))
    out, _ = contract(t, {"a", "b", "c"})
    assert len(out.vertices) == 1 and not out.edges


def test_contract_star_branch():
    t = Tree.make("sxy", [("s", "x"), ("s", "y")])
    out, _ = contract(t, {"s", "x"})
    # the only surviving edge is the renamed adjacent one
    assert sorted(out.vertices) == ["s+x", "y"]
    assert sorted(out.edges) == [("s+x", "y")]


def test_contract_preserves_tree_and_edge_count():
    for seed in range(20):
        rng = random.Random(100 + seed)
        t = random_tree(rng, rng.randint(2, 9))
        vs = sorted(t.vertices)
        start = rng.choice(vs)
        sub = {start}
        while rng.random() < 0.6:
            boundary = sorted(
                n for v in sub for n in t.graph.neighbors(v) if n not in sub
            )
            if not boundary:
                break
            sub.add(rng.choice(boundary))
        sub_edges = [e for e in t.edges if e[0] in sub and e[1] in sub]
        out, c = contract(t, sub)
        assert validate_tree(out.graph)
        assert len(out.edges) == len(t.edges) - len(sub_edges)


def test_iterated_contraction_matches_one_shot():
    # A'' inside A' inside A: contracting in stages equals contracting once,
    # up to the canonical renaming of the fresh vertices.
    t = Tree(path_graph("a", "b", "c", "d", "e"))
    inner = {"b", "c"}
    outer = {"b", "c", "d"}
    once, c_once = contract(t, outer)
    stage1, c1 = contract(t, inner)
    image_of_outer = {c1.apply(v) for v in outer}
    stage2, c2 = contract(stage1, image_of_outer)
    renaming = {}
    for v in t.vertices:
        a, b = c_once.apply(v), c2.apply(c1.apply(v))
        assert renaming.setdefault(a, b) == b
    assert len(set(renaming.values())) == len(renaming)
    mapped_edges = {
        tuple(sorted((renaming[x], renaming[y]))) for x, y in once.edges
    }
    assert mapped_edges == set(stage2.edges)


def test_contract_rejects_non_subtree():
    t = Tree(path_graph("a", "b", "c"))
    with pytest.raises(GraphError):
        contract(t, {"a", "c"})


# --- homology rank and components --------------------------------------------


def first_homology_rank(g):
    return len(g.edges) - len(g.vertices) + len(connected_components(g))


def test_first_homology_rank():
    assert first_homology_rank(path_graph("a", "b", "c")) == 0
    tri = Graph.make("abc", [("a", "b"), ("b", "c"), ("a", "c")])
    assert first_homology_rank(tri) == 1
    two = Graph.make(
        "abcdef",
        [("a", "b"), ("b", "c"), ("a", "c"), ("d", "e"), ("e", "f"), ("d", "f")],
    )
    assert first_homology_rank(two) == 2


def test_rank_zero_for_random_trees():
    for seed in range(10):
        t = random_tree(random.Random(300 + seed), 7)
        assert first_homology_rank(t.graph) == 0


def test_connected_components():
    g = path_graph("a", "b", "c")
    assert len(connected_components(g)) == 1
    edgeless = Graph.make("abc", [])
    assert [c[0] for c in connected_components(edgeless)] == [["a"], ["b"], ["c"]]
    mixed = Graph.make("abcz", [("a", "b"), ("b", "c")])
    comps = connected_components(mixed)
    assert len(comps) == 2
    assert comps[0][0] == ["a", "b", "c"] and comps[1][0] == ["z"]


def bfs_components(g):
    """Oracle: one BFS per unreached vertex in sorted order, vertices and
    induced edges sorted."""
    comps, seen = [], set()
    for v in g.sorted_vertices():
        if v not in seen:
            reached = g.bfs([v])
            seen |= reached.keys()
            comps.append((sorted(reached), sorted(e for e in g.edges if e[0] in reached)))
    return comps


def seeded_graphs(count):
    """The empty graph, then isolated vertices, forests, a cycle with trees
    and isolated vertices around it, and dense random graphs, in turn."""
    yield Graph.make([], [])
    for seed in range(count):
        rng = random.Random(1500 + seed)
        n = rng.randint(1, 10)
        vs = [f"n{x}" for x in rng.sample(range(100), n)]  # sorted order != creation order
        shape = seed % 4
        if shape == 0:
            es = []
        elif shape == 1:
            es = [(vs[rng.randrange(i)], vs[i]) for i in range(1, n) if rng.random() < 0.7]
        elif shape == 2:
            m = rng.randint(3, n) if n >= 3 else 0
            es = [(vs[i], vs[(i + 1) % m]) for i in range(m)]
            es += [(vs[rng.randrange(i)], vs[i]) for i in range(max(m, 1), n) if rng.random() < 0.5]
        else:
            es = [(a, b) for i, a in enumerate(vs) for b in vs[:i] if rng.random() < 0.3]
        yield Graph.make(vs, es)


def test_components_match_a_bfs_oracle():
    shapes = {"empty": 0, "forest": 0, "cyclic": 0, "isolated": 0}
    for g in seeded_graphs(200):
        want = bfs_components(g)
        assert connected_components(g) == want, g
        assert components(g.sorted_vertices(), g.edges) == [vs for vs, _ in want], g
        # members keep the input order; classes follow their first member
        order = g.sorted_vertices()[::-1]
        got = components(order, g.edges)
        assert got == sorted(([v for v in order if v in vs] for vs, _ in want),
                             key=lambda c: order.index(c[0])), g
        assert validate_tree(g) == (len(want) == 1 and len(g.edges) == len(g.vertices) - 1)
        shapes["empty"] += not g.vertices
        shapes["forest"] += bool(g.edges) and first_homology_rank(g) == 0
        shapes["cyclic"] += first_homology_rank(g) > 0
        shapes["isolated"] += any(not g.neighbors(v) for v in g.vertices)
    assert shapes["empty"] == 1 and min(shapes.values()) >= 1
    assert min(shapes["forest"], shapes["cyclic"], shapes["isolated"]) >= 30, shapes


def test_neighbors_built_once_and_invisible_to_equality():
    g = Graph.make("abcz", [("c", "a"), ("b", "a")])
    fresh = Graph.make("abcz", [("a", "b"), ("a", "c")])
    assert g.neighbors("a") == ("b", "c")
    assert g.neighbors("b") == ("a",)
    assert g.neighbors("z") == () and g.neighbors("missing") == ()
    assert g.neighbors("a") is g.neighbors("a")  # one adjacency per graph
    # the sorted orders are cached too, and each call hands out a fresh list
    assert g.incidences() == [("a", ("a", "b")), ("b", ("a", "b")),
                              ("a", ("a", "c")), ("c", ("a", "c"))]
    for order in (g.sorted_vertices, g.sorted_edges, g.incidences):
        order().clear()
        assert order() and order() is not order()
    assert g.sorted_vertices() == list("abcz") and g.sorted_edges() == [("a", "b"), ("a", "c")]
    # the cached adjacency and orders are not fields: equality and hashing ignore them
    assert g == fresh and hash(g) == hash(fresh) and len({g, fresh}) == 1
    assert Graph.make("ab", [("a", "b")]) != Graph.make("ab", [])


# --- morphisms and serialization ---------------------------------------------


def test_morphism_validation():
    src = path_graph("a", "b")
    tgt = path_graph("x", "y")
    GraphMorphism.make(src, tgt, {"a": "x", "b": "y"})
    GraphMorphism.make(src, tgt, {"a": "x", "b": "x"})  # collapse is fine
    far = Graph.make(["x", "y", "z"], [("x", "y")])
    with pytest.raises(GraphError):
        GraphMorphism.make(src, far, {"a": "x", "b": "z"})  # image not an edge


def test_morphism_vertex_dict_built_once_and_invisible_to_equality():
    src = path_graph("a", "b", "c")
    tgt = path_graph("x", "y")
    m = GraphMorphism.make(src, tgt, {"a": "x", "b": "y", "c": "y"})
    fresh = GraphMorphism.make(src, tgt, {"c": "y", "b": "y", "a": "x"})
    assert m.apply("a") == "x" and m.apply("c") == "y"
    assert m.apply_edge(("a", "b")) == ("x", "y")
    assert m.apply_edge(("b", "c")) == "y" and m.collapses(("b", "c"))
    assert m._vertex_dict is m._vertex_dict  # one dict per morphism
    # the cached dict is not a field: equality and hashing ignore it
    assert m == fresh and hash(m) == hash(fresh) and len({m, fresh}) == 1
    assert m != GraphMorphism.make(src, tgt, {"a": "y", "b": "x", "c": "x"})


def test_geodesic_validation():
    Geodesic(("a", ("a", "b"), "b"))
    with pytest.raises(GraphError):
        Geodesic(("a", "b"))  # two vertices in a row
    with pytest.raises(GraphError):
        Geodesic(("a", ("b", "c"), "b"))  # not incident


def test_graph_json_round_trip():
    g = path_graph("a", "b", "c")
    data = json.loads(json.dumps(g.to_json()))
    assert Graph.from_json(data) == g
    assert data == {"vertices": ["a", "b", "c"], "edges": [["a", "b"], ["b", "c"]]}
