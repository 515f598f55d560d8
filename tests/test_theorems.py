import json
import math
import random
from pathlib import Path

import pytest

from conftest import constant_group_graph, finite_gg, precedes, vector_gg
from groupgraph.graph import (
    Graph,
    GraphError,
    GraphMorphism,
    Tree,
    connected_components,
    contract,
    edge,
    subtree_parents,
)
from groupgraph.group_graph import (
    GroupGraph,
    GroupGraphError,
    GroupHom,
    SubGroupGraph,
    VectorSpace,
    cyclic_group,
    pullback,
    quotient_with_projection,
    support,
    trivial_group,
)
from groupgraph.cohomology import (
    Cochain0,
    Cocycle1,
    coboundary_action,
    h1_class_of,
    h1_finite_bruteforce,
    h1_vector,
    push_cocycle,
    _orbits,
)
from groupgraph.theorems import (
    HypothesisViolated,
    QuotientLift,
    VerificationError,
    RepulsivityReport,
    build_active_structure,
    check_repulsive,
    contraction_regularity,
    direct_image_verify,
    pruning_verify,
    quotient_iso_verify,
    regular_h1,
    restrict,
    tensor_h1_verify,
)
from groupgraph.generators import (
    random_connected_subset,
    random_direct_image_pair,
    random_exact_sequence,
    random_finite_group_graph,
    random_nonrepulsive_instance,
    random_regular_finite,
    random_regular_vector,
    random_repulsive_instance,
    random_tree,
    random_vector_group_graph,
)
from groupgraph.foliation import _contracted_rank


# --- repulsivity ----------------------------------------------------------------


def test_whole_tree_is_vacuously_repulsive():
    gg = vector_gg(["a", "b"], [("a", "b")], {"a": 1, "b": 1}, {("a", "b"): 1})
    rep = check_repulsive(gg, {"a", "b"})
    assert rep.is_repulsive()


def test_single_condition_segment():
    surj = vector_gg(
        ["a", "b"], [("a", "b")], {"a": 0, "b": 1}, {("a", "b"): 1},
        mats={("b", ("a", "b")): [[1]]},
    )
    assert check_repulsive(surj, {"a"}).is_repulsive()
    zero = vector_gg(
        ["a", "b"], [("a", "b")], {"a": 0, "b": 1}, {("a", "b"): 1},
        mats={("b", ("a", "b")): [[0]]},
    )
    rep = check_repulsive(zero, {"a"})
    assert rep.violations == [("b", ("a", "b"))]


def test_pruning_whole_tree_trivial():
    gg = vector_gg(["a", "b"], [("a", "b")], {"a": 1, "b": 1}, {("a", "b"): 1})
    ok, data = pruning_verify(gg, {"a", "b"})
    assert ok
    assert data["ambient"].dim == data["restricted"].dim


def test_pruning_path_with_final_zero_vertex():
    # dims (1,1,1,1,0): the zero vertex cannot surject onto its edge line, so
    # the subtree {a} is not repulsive and the checker must say so; the H1
    # restriction map still happens to be a bijection here (both sides 0)
    gg = vector_gg(
        ["a", "b", "c"], [("a", "b"), ("b", "c")],
        {"a": 1, "b": 1, "c": 0},
        {("a", "b"): 1, ("b", "c"): 1},
    )
    rep = check_repulsive(gg, {"a"})
    assert rep.violations == [("c", ("b", "c"))]
    with pytest.raises(HypothesisViolated):
        pruning_verify(gg, {"a"})
    assert h1_vector(gg).dim == 0
    sub = gg.base.induced({"a"})
    assert h1_vector(restrict(gg, sub)).dim == 0


def test_pruning_on_random_repulsive_instances():
    for seed in range(20):
        rng = random.Random(seed)
        carrier = "vector" if seed % 2 else "finite"
        g, r = random_repulsive_instance(rng, carrier, max_vertices=5)
        ok, _ = pruning_verify(g, r)
        assert ok, seed


def test_pruning_negative_family_fails_bijectivity():
    # dims (0,1,0) against the single--vertex subtree: 1-dimensional ambient
    # H1, trivial restricted H1, and the repulsivity check rejects it
    gg = vector_gg(["a", "b"], [("a", "b")], {"a": 0, "b": 0}, {("a", "b"): 1})
    rep = check_repulsive(gg, {"a"})
    assert not rep.is_repulsive()
    with pytest.raises(HypothesisViolated):
        pruning_verify(gg, {"a"})
    sub = gg.base.induced({"a"})
    _, canonical = pullback(GraphMorphism.inclusion(sub, gg.base), gg)
    from groupgraph.cohomology import h1_map

    assert not h1_map(canonical).is_bijective()


def test_random_nonrepulsive_controls_are_detected():
    for seed in range(10):
        g, r = random_nonrepulsive_instance(random.Random(seed))
        assert not check_repulsive(g, r).is_repulsive()


def oracle_check_repulsive(g, r):
    """Slow oracle: "near precedes far" read from two geodesics per
    orientation of every edge, as check_repulsive did before the parent map."""
    t = Tree(g.base)
    rset = frozenset(r)
    violations = []
    for e in g.base.sorted_edges():
        u, w = e
        if u in rset and w in rset:
            continue
        for near, far in ((u, w), (w, u)):
            if precedes(t, rset, near, far) and not g.restriction(far, e).is_surjective():
                violations.append((far, e))
    violations.sort(key=lambda p: (p[0], p[1]))
    return RepulsivityReport(sorted(rset), violations)


def test_check_repulsive_matches_precedes_oracle():
    reports = []
    for seed in range(90):
        rng = random.Random(seed)
        if seed % 3 == 0:
            g, r = random_repulsive_instance(rng, "vector" if seed % 2 else "finite")
        elif seed % 3 == 1:
            g, r = random_nonrepulsive_instance(rng)
        else:
            t = random_tree(rng, rng.randint(1, 8))
            make = random_vector_group_graph if seed % 2 else random_finite_group_graph
            g = make(rng, t)
            r = random_connected_subset(rng, t, rng.randint(1, len(t.vertices)))
        rep = check_repulsive(g, r)
        assert rep == oracle_check_repulsive(g, r)
        reports.append(rep.is_repulsive())
    assert 10 < sum(reports) < 80
    # degenerate subtrees: no comparable edge, or not a subtree at all
    single = vector_gg(["a"], [], {"a": 1}, {})
    assert check_repulsive(single, {"a"}) == oracle_check_repulsive(single, {"a"})
    path = vector_gg(["a", "b", "c"], [("a", "b"), ("b", "c")],
                     {"a": 1, "b": 1, "c": 1}, {("a", "b"): 1, ("b", "c"): 1})
    # a non-subtree is refused even when no edge lies outside it (the oracle
    # tests no edge there, so it accepts these)
    for graph, bad in ((single, set()), (single, {"a", "zzz"}), (path, {"a", "b", "c", "zzz"})):
        with pytest.raises(GraphError):
            check_repulsive(graph, bad)
    for bad in ({"a", "c"}, set(), {"a", "zzz"}):
        with pytest.raises(GraphError):
            oracle_check_repulsive(path, bad)
        with pytest.raises(GraphError):
            check_repulsive(path, bad)


# --- quotient isomorphism ---------------------------------------------------------


def z4_mod_2z4_segment():
    gg = constant_group_graph(Graph.make("ab", [("a", "b")]), cyclic_group(4))
    k = SubGroupGraph(gg, {s: frozenset({0, 2}) for s in gg.stars()})
    return gg, k


def test_quotient_iso_z4_segment():
    gg, k = z4_mod_2z4_segment()
    rpt = quotient_iso_verify(gg, k)
    assert rpt["ok"] and rpt["bijective"]
    assert rpt["source_count"] == rpt["target_count"]
    assert rpt["lifted_pairs"] > 0 and not rpt["lift_failures"]


def test_quotient_iso_trivial_kernel():
    gg = constant_group_graph(Graph.make("ab", [("a", "b")]), cyclic_group(3))
    k = SubGroupGraph(gg, {s: frozenset({0}) for s in gg.stars()})
    assert quotient_iso_verify(gg, k)["ok"]


def test_quotient_iso_full_kernel():
    # the quotient is trivial; counts on both sides must still agree
    gg, _ = z4_mod_2z4_segment()
    k = SubGroupGraph(gg, {s: frozenset(range(4)) for s in gg.stars()})
    rpt = quotient_iso_verify(gg, k)
    assert rpt["ok"]
    assert rpt["target_count"] == 1


def test_quotient_hypothesis_violation_reported_precisely():
    gg = constant_group_graph(Graph.make("ab", [("a", "b")]), cyclic_group(4))
    bad = {
        (v, e): GroupHom(cyclic_group(4), cyclic_group(4), (0, 2, 0, 2))
        for v, e in gg.base.incidences()
    }
    gg_bad = finite_gg(
        ["a", "b"], [("a", "b")],
        {"a": cyclic_group(4), "b": cyclic_group(4)},
        {("a", "b"): cyclic_group(4)},
        homs={k: h.data for k, h in bad.items()},
    )
    k = SubGroupGraph(gg_bad, {s: frozenset({0, 2}) for s in gg_bad.stars()})
    with pytest.raises(HypothesisViolated) as err:
        quotient_iso_verify(gg_bad, k)
    assert err.value.violations  # names the failing incidences


def _reversed_names(g, k):
    """g and k with the vertex order reversed: the generated trees attach each
    vertex to a smaller name, so this makes the lift's parents the heads of
    their edges."""
    names = g.base.sorted_vertices()
    ren = dict(zip(names, reversed(names)))

    def star(s):
        return ren[s] if isinstance(s, str) else edge(ren[s[0]], ren[s[1]])

    base = Graph.make(names, [star(e) for e in g.base.edges])
    g2 = GroupGraph(
        base, g.carrier, {star(v): o for v, o in g.vobj.items()},
        {star(e): o for e, o in g.eobj.items()},
        {(star(v), star(e)): h for (v, e), h in g.restrictions.items()},
    )
    return g2, SubGroupGraph(g2, {star(s): x for s, x in k.subs.items()})


def test_quotient_iso_random_instances():
    for seed in range(10):
        g, k = random_exact_sequence(random.Random(seed), max_vertices=3, good=True)
        for gg, kk in ((g, k), _reversed_names(g, k)):
            rpt = quotient_iso_verify(gg, kk)
            assert rpt["ok"], seed
            assert not rpt["lift_failures"]


def test_constructive_lift_yields_trivializing_cochain():
    gg, k = z4_mod_2z4_segment()
    quo, proj = quotient_with_projection(gg, k)
    witnesses = _orbits(quo, 10**6, witnesses=True)
    res = h1_finite_bruteforce(gg)
    e = ("a", "b")
    rep = res.representatives[0]
    # pick a cocycle cohomologous to the representative and lift the pair
    other_tail = None
    for t, c in res._class_index.items():
        if c == 0 and t != rep.tail:
            other_tail = t
            break
    assert other_tail is not None
    other = Cocycle1(gg, other_tail)
    cochain = QuotientLift(gg, k, proj, witnesses)(rep, other)
    acted = coboundary_action(cochain, rep, gg)
    assert acted.tail == other.tail


def _min_preimage(data, value, domain=None) -> int:
    it = domain if domain is not None else range(len(data))
    for x in sorted(it):
        if data[x] == value:
            return x
    raise VerificationError("no preimage found where one must exist")


def oracle_quotient_lift(g, k, proj, z, h, quotient_witness):
    """The lift of the inductive proof for one pair, with all per-graph work
    done again on every call and every preimage found by a linear scan (the
    slow oracle for the compiled `QuotientLift`)."""
    base = g.base
    vs = base.sorted_vertices()
    edges = base.sorted_edges()
    quo = proj.target

    pz = push_cocycle(proj, z)
    ph = push_cocycle(proj, h)
    _, class_index, witness = quotient_witness
    tz, th = pz.tail, ph.tail
    if class_index[tz] != class_index[th]:
        raise HypothesisViolated("projected cocycles are not cohomologous", [])
    c1, c2 = witness[tz], witness[th]  # families over the sorted vertices
    cbar = {v: quo.vobj[v].mul(quo.vobj[v].inv(c1[i]), c2[i]) for i, v in enumerate(vs)}
    gv = {v: _min_preimage(proj.maps[v].data, cbar[v]) for v in vs}

    root = min(vs)
    parent = subtree_parents(Tree(base), {root})
    pos = {e: i for i, e in enumerate(edges)}

    def at(c, v, e):
        x = c.tail[pos[e]]
        return x if v == e[0] else g.eobj[e].inv(x)

    ge = {}
    for e in edges:
        v, w = e if parent[e[1]] == e[0] else e[::-1]
        grp = g.eobj[e]
        rv = g.restriction(v, e).apply(gv[v])
        rw = g.restriction(w, e).apply(gv[w])
        expr = grp.mul(grp.mul(grp.inv(rv), at(z, v, e)), rw)
        ge[e] = grp.mul(grp.inv(expr), at(h, v, e))
        if ge[e] not in k.subs[e]:
            raise VerificationError("edge correction left the kernel sub-group-graph")

    kv = {root: gv[root]}
    fprime = {root: 0}
    for w, par in parent.items():
        if par is None:
            continue
        e_w = (min(par, w), max(par, w))
        grp_e = g.eobj[e_w]
        grp_w = g.vobj[w]
        rho_w = g.restriction(w, e_w)
        rho_par = g.restriction(par, e_w)
        rho_w_table = [rho_w.apply(x) for x in range(grp_w.order)]
        gprime_w = _min_preimage(rho_w_table, ge[e_w], domain=sorted(k.subs[w]))
        gg = grp_e.mul(
            grp_e.mul(grp_e.inv(rho_par.apply(kv[par])), at(z, par, e_w)),
            rho_w.apply(grp_w.mul(gv[w], gprime_w)),
        )
        tilde = grp_e.mul(grp_e.mul(grp_e.inv(gg), rho_par.apply(fprime[par])), gg)
        tilde_w = _min_preimage(rho_w_table, tilde, domain=sorted(k.subs[w]))
        fprime[w] = grp_w.mul(gprime_w, tilde_w)
        kv[w] = grp_w.mul(gv[w], fprime[w])

    cochain = Cochain0(g, kv)
    if coboundary_action(cochain, z, g).tail != h.tail:
        raise VerificationError("constructive lift failed to trivialize the pair")
    return cochain


def _lift_instances():
    yield z4_mod_2z4_segment()
    for seed in range(50):
        g, k = random_exact_sequence(random.Random(seed), max_vertices=3, good=True)
        yield g, k
        yield _reversed_names(g, k)


def test_compiled_lift_matches_the_oracle():
    pairs = rejected = 0
    for g, k in _lift_instances():
        quo, proj = quotient_with_projection(g, k)
        qw = _orbits(quo, 10**6, witnesses=True)
        lift = QuotientLift(g, k, proj, qw)
        src = h1_finite_bruteforce(g)
        for t, c in sorted(src._class_index.items(), key=lambda item: (item[1], item[0])):
            rep, other = src.representatives[c], Cocycle1(g, t)
            want = oracle_quotient_lift(g, k, proj, rep, other, qw).values
            assert lift(rep, other).values == want, (t, c)
            assert QuotientLift(g, k, proj, qw)(rep, other).values == want
            pairs += 1
        # distinct classes project to distinct classes: the lift refuses the pair
        for rep in src.representatives[1:]:
            for fn in (lift, lambda z, h: oracle_quotient_lift(g, k, proj, z, h, qw)):
                with pytest.raises(HypothesisViolated, match="not cohomologous"):
                    fn(src.representatives[0], rep)
            rejected += 1
    assert pairs >= 2000 and rejected >= 10, (pairs, rejected)


def test_quotient_iso_verify_compiles_the_lift_once(monkeypatch):
    import groupgraph.theorems as theorems

    calls = {"Tree": 0, "subtree_parents": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(theorems, "Tree", counted("Tree", theorems.Tree))
    monkeypatch.setattr(
        theorems, "subtree_parents", counted("subtree_parents", theorems.subtree_parents))
    gg = constant_group_graph(Graph.make("abc", [("a", "b"), ("b", "c")]), cyclic_group(4))
    k = SubGroupGraph(gg, {s: frozenset({0, 2}) for s in gg.stars()})
    rpt = quotient_iso_verify(gg, k)
    assert rpt["ok"] and rpt["lifted_pairs"] >= 16
    # one tree check up front and one per compiled lift, whatever the pair count
    assert calls == {"Tree": 2, "subtree_parents": 1}


def test_quotient_iso_verify_sizes_the_image_once(monkeypatch):
    import groupgraph.theorems as theorems

    reads = []

    class CountedMapping(list):
        def __iter__(self):
            reads.append(1)
            return super().__iter__()

    real = theorems.h1_map

    def counted_h1_map(*args):
        mp = real(*args)
        mp.mapping = CountedMapping(mp.mapping)
        return mp

    monkeypatch.setattr(theorems, "h1_map", counted_h1_map)
    gg = constant_group_graph(Graph.make("abc", [("a", "b"), ("b", "c")]), cyclic_group(4))
    k = SubGroupGraph(gg, {s: frozenset({0, 2}) for s in gg.stars()})
    rpt = quotient_iso_verify(gg, k)
    assert rpt["bijective"] and rpt["ok"]
    assert len(reads) == 1  # one image size for both bijectivity reads


# --- direct image ------------------------------------------------------------------


def test_direct_image_identity_bijective():
    gg = finite_gg(
        ["a", "b"], [("a", "b")],
        {"a": trivial_group(), "b": trivial_group()},
        {("a", "b"): cyclic_group(3)},
    )
    rpt = direct_image_verify(GraphMorphism.identity(gg.base), gg)
    assert rpt["ok"] and rpt["injective"] and rpt["surjective"]


def test_direct_image_trivial_fibers_bijective():
    # collapse a fully supported segment: fiber H1 trivial, so surjective
    gg = constant_group_graph(Graph.make("abc", [("a", "b"), ("b", "c")]), cyclic_group(2))
    t = Tree(gg.base)
    _, c = contract(t, {"a", "b"})
    rpt = direct_image_verify(c, gg)
    assert rpt["fibers_trivial"] and rpt["surjective"] and rpt["ok"]


def test_direct_image_nontrivial_fiber_blocks_surjectivity():
    # collapse an edge carrying Z/2 between trivial vertices: the fiber H1 has
    # two classes, so the induced map cannot be onto
    gg = finite_gg(
        ["a", "b", "c"], [("a", "b"), ("b", "c")],
        {"a": trivial_group(), "b": trivial_group(), "c": trivial_group()},
        {("a", "b"): cyclic_group(2), ("b", "c"): cyclic_group(2)},
    )
    t = Tree(gg.base)
    _, c = contract(t, {"a", "b"})
    rpt = direct_image_verify(c, gg)
    assert rpt["injective"]
    assert not rpt["fibers_trivial"]
    assert not rpt["surjective"]
    assert rpt["ok"]  # surjectivity is only demanded under trivial fibers


def test_direct_image_random_pairs():
    for seed in range(15):
        phi, g = random_direct_image_pair(random.Random(seed), max_vertices=5)
        rpt = direct_image_verify(phi, g)
        assert rpt["ok"], seed
        assert rpt["injective"], seed


# --- contraction regularity ----------------------------------------------------------


def test_contraction_regularity_single_edge():
    gg = constant_group_graph(Graph.make("abc", [("a", "b"), ("b", "c")]), cyclic_group(3))
    out = contraction_regularity(gg, {"a", "b"})
    assert all(out.obj(s).order in (1, 3) for s in out.stars())


def test_contraction_regularity_whole_tree():
    gg = constant_group_graph(Graph.make("ab", [("a", "b")]), cyclic_group(4))
    out = contraction_regularity(gg, {"a", "b"})
    assert len(out.base.vertices) == 1
    v = next(iter(out.base.vertices))
    assert out.vobj[v].order == 4  # H0 of the segment: the diagonal


def test_contraction_regularity_rejects_unsupported_edge():
    gg = vector_gg(
        ["a", "b"], [("a", "b")], {"a": 1, "b": 1}, {("a", "b"): 0},
    )
    with pytest.raises(GroupGraphError):
        contraction_regularity(gg, {"a", "b"})


def test_iterated_contraction_group_graphs_agree():
    gg = constant_group_graph(
        Graph.make("abcd", [("a", "b"), ("b", "c"), ("c", "d")]), cyclic_group(2)
    )
    t = Tree(gg.base)
    once = contraction_regularity(gg, {"a", "b", "c"})
    stage1 = contraction_regularity(gg, {"a", "b"})
    fresh = next(v for v in stage1.base.vertices if "+" in v)
    stage2 = contraction_regularity(stage1, {fresh, "c"})
    assert sorted(o.order for o in once.vobj.values()) == sorted(
        o.order for o in stage2.vobj.values()
    )
    assert len(once.base.edges) == len(stage2.base.edges)


# --- the active-edge description -------------------------------------------------------


def test_regular_h1_full_support_tree():
    gg = constant_group_graph(Graph.make("ab", [("a", "b")]), cyclic_group(5))
    st, res = regular_h1(gg)
    assert st.a == 0 and not st.a_prime
    assert res.count == 1


def test_regular_h1_segment_010(segment_010):
    st, res = regular_h1(segment_010)
    assert st.a == 1 and st.p == 0  # single-edge component stays in the basis
    assert res.dim == 1


def test_regular_h1_path_11110():
    gg = vector_gg(
        ["a", "b", "c"], [("a", "b"), ("b", "c")],
        {"a": 1, "b": 1, "c": 0},
        {("a", "b"): 1, ("b", "c"): 1},
    )
    st, res = regular_h1(gg)
    assert st.a == 1 and st.p == 1
    assert res.dim == 0


def test_regular_h1_not_regular_raises():
    bad = vector_gg(
        ["a", "b"], [("a", "b")], {"a": 1, "b": 1}, {("a", "b"): 1},
        mats={("a", ("a", "b")): [[0]]},
    )
    with pytest.raises(GroupGraphError):
        regular_h1(bad)


def test_regular_h1_on_a_forest_sums_its_trees():
    # dropping edges from a regular group-graph over a tree leaves a regular
    # one over a forest: H1 is the sum (dims) or the product (counts) over
    # its trees, and the default cross-check passes on the whole forest
    several = {"vector": 0, "finite": 0}
    for seed in range(60):
        rng = random.Random(3100 + seed)
        if seed % 2:
            g = random_regular_vector(rng, max_vertices=9)
        else:
            g = random_regular_finite(rng, max_vertices=6)
        kept = frozenset(e for e in g.base.sorted_edges() if rng.random() < 0.6)
        forest = restrict(g, Graph(g.base.vertices, kept))
        trees = [
            restrict(forest, Graph(frozenset(vs), frozenset(es)))
            for vs, es in connected_components(forest.base)
        ]
        st, res = regular_h1(forest)
        parts = [regular_h1(t) for t in trees]
        assert st.a_prime == sorted(e for part, _ in parts for e in part.a_prime), seed
        if g.carrier == "vector":
            assert res.dim == sum(r.dim for _, r in parts), seed
        else:
            assert res.count == math.prod(r.count for _, r in parts), seed
        several[g.carrier] += len(trees) > 1
    assert min(several.values()) >= 10, several


@pytest.mark.parametrize("obj", [VectorSpace(1), cyclic_group(2)], ids=["vector", "finite"])
def test_regular_h1_on_a_cyclic_base_raises(obj):
    triangle = constant_group_graph(Graph.make("abc", [("a", "b"), ("b", "c"), ("a", "c")]), obj)
    with pytest.raises(GraphError, match="cycle"):
        regular_h1(triangle)


def test_regular_h1_matches_linear_algebra_randomly():
    for seed in range(25):
        g = random_regular_vector(random.Random(seed), max_vertices=8)
        st, res = regular_h1(g)
        assert res.dim == h1_vector(g).dim, seed


def test_regular_h1_matches_bruteforce_randomly():
    for seed in range(15):
        g = random_regular_finite(random.Random(seed), max_vertices=5)
        st, res = regular_h1(g)
        expected = 1
        for e in st.a_prime:
            expected *= g.eobj[e].order
        assert res.count == expected == h1_finite_bruteforce(g).count, seed


def test_delta_images_are_pairwise_non_cohomologous():
    gg = finite_gg(
        ["a", "b", "c"], [("a", "b"), ("b", "c")],
        {"a": trivial_group(), "b": trivial_group(), "c": trivial_group()},
        {("a", "b"): cyclic_group(2), ("b", "c"): cyclic_group(3)},
    )
    st, res = regular_h1(gg)
    ref = h1_finite_bruteforce(gg)
    classes = [h1_class_of(ref, rep) for rep in res.representatives]
    assert len(set(classes)) == len(classes) == res.count


def test_choice_independence_of_dimensions():
    # dropping the largest active edge of each component instead of the
    # smallest leaves the dimension and the class count unchanged
    differs = 0
    for seed in range(200):
        g = random_regular_vector(random.Random(400 + seed), max_vertices=9)
        st, res = regular_h1(g)
        last = reversed_a_prime(g, st)
        assert res.dim == sum(g.eobj[e].dim for e in last), seed
        differs += last != st.a_prime
    for seed in range(200):
        g = random_regular_finite(random.Random(500 + seed), max_vertices=5)
        st, res = regular_h1(g)
        last = reversed_a_prime(g, st)
        assert res.count == math.prod(g.eobj[e].order for e in last), seed
        differs += last != st.a_prime
    assert differs >= 20


def reversed_a_prime(g, st):
    """The reduced active set under the reversed choice, from the oracle."""
    last = per_edge_active_components(g, st.active_edges, prefer_last=True)
    removed = {c["chosen"] for c in last if c["chosen"]}
    return [e for e in st.active_edges if e not in removed]


def per_edge_active_components(g, active_edges, prefer_last):
    """Slow oracle: the component loop as first written, rebuilding the set of
    active edges for every edge it tests."""
    from groupgraph.group_graph import support_components

    pick_one = max if prefer_last else min
    components = []
    for comp in support_components(g):
        comp_edges = [s for s in comp if not isinstance(s, str)]
        actives_here = [e for e in comp_edges if e in set(active_edges)]
        single = len(comp) == 1 and bool(comp_edges)
        chosen = pick_one(actives_here) if actives_here and not single else None
        components.append({"elements": comp, "active": bool(actives_here),
                           "single_edge": single, "chosen": chosen})
    return components


def test_build_active_structure_matches_per_edge_form():
    from groupgraph.foliation import FoliationSpec, build_tf_red, validate
    from groupgraph.generators import random_foliation_spec

    graphs = [random_regular_vector(random.Random(700 + s), max_vertices=9) for s in range(60)]
    graphs += [random_regular_finite(random.Random(800 + s), max_vertices=6) for s in range(40)]
    for s in range(60):
        spec = FoliationSpec.from_json(random_foliation_spec(random.Random(900 + s)))
        if not validate(spec):
            graphs.append(build_tf_red(spec))
    assert len(graphs) > 120
    for g in graphs:
        st = build_active_structure(g)
        assert st.components == per_edge_active_components(g, st.active_edges, prefer_last=False)
        removed = {c["chosen"] for c in st.components if c["chosen"]}
        assert st.a_prime == [e for e in st.active_edges if e not in removed]
        assert st.p == len(removed)
        # the reversed choice drops as many edges
        assert len(reversed_a_prime(g, st)) == len(st.a_prime)


def test_equidimensional_closed_form():
    for seed in range(15):
        rng = random.Random(600 + seed)
        d = rng.choice([1, 2])
        g = random_regular_vector(rng, max_vertices=7, dims=(0, d))
        st, res = regular_h1(g)
        dims = {g.obj(s).dim for s in support(g)}
        if len(dims) != 1:
            continue  # empty or mixed support: no common dimension
        common = dims.pop()
        assert res.dim == (st.a - st.p) * common, seed


def test_active_count_equals_contracted_homology_rank():
    # the identity behind the moduli dimension: requires the off-support part
    # to be a subgraph, so filter the generated instances accordingly
    checked = 0
    for seed in range(60):
        g = random_regular_vector(random.Random(700 + seed), max_vertices=8, dims=(0, 1))
        supp = set(support(g))
        monotone = all(
            e in supp or all(v not in supp for v in e) for e in g.base.sorted_edges()
        )
        if not monotone:
            continue
        st = build_active_structure(g)
        assert st.a - st.p == _contracted_rank(g), seed
        checked += 1
    assert checked >= 10


def test_contracted_rank_with_a_vertex_named_star():
    # "*" is a legal vertex name; the collapsed off-support node must not merge with it
    from groupgraph.foliation import FoliationSpec, build_tf_red

    star_spec = json.loads((Path(__file__).parent / "fixtures" / "star_vertex.json").read_text())
    graphs = [build_tf_red(FoliationSpec.from_json(star_spec))]
    for seed in range(200):
        g = random_regular_vector(random.Random(2700 + seed), max_vertices=8, dims=(0, 1))
        supp = set(support(g))
        monotone = all(
            e in supp or all(v not in supp for v in e) for e in g.base.sorted_edges()
        )
        supp_vs = [v for v in g.base.sorted_vertices() if v in supp]
        if monotone and supp_vs and len(supp_vs) < len(g.base.vertices):
            # rename one support vertex to "*" by pulling back along the relabelling
            rename = {v: "*" if v == supp_vs[-1] else v for v in g.base.vertices}
            star_edges = [(rename[a], rename[b]) for a, b in g.base.edges]
            star_base = Graph.make(rename.values(), star_edges)
            inverse = {w: v for v, w in rename.items()}
            graphs.append(pullback(GraphMorphism.make(star_base, g.base, inverse), g)[0])
    assert len(graphs) >= 20
    for g in graphs:
        assert "*" in g.base.vertices
        st = build_active_structure(g)
        assert st.a - st.p == _contracted_rank(g), g.to_json()


# --- tensor -----------------------------------------------------------------------------


def test_tensor_h1_verify_examples(segment_010):
    assert tensor_h1_verify(segment_010, 1)
    assert tensor_h1_verify(segment_010, 0)
    assert tensor_h1_verify(segment_010, 3)
    tens = h1_vector(segment_010).dim * 3
    from groupgraph.group_graph import tensor

    assert h1_vector(tensor(segment_010, VectorSpace(3))).dim == tens == 3


def test_tensor_h1_verify_random():
    for seed in range(10):
        rng = random.Random(seed)
        t = random_vector_group_graph(rng, random_tree(rng, rng.randint(2, 5)))
        for w in (0, 1, 2, 3):
            assert tensor_h1_verify(t, w), (seed, w)
