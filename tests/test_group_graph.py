import json
import random
import tracemalloc
from fractions import Fraction

import pytest

from conftest import (
    compose_graph_morphisms,
    constant_group_graph,
    finite_gg,
    identity_morphism,
    in_span,
    is_abelian,
    is_trivial_sub,
    value_from_json,
    vector_gg,
)
from groupgraph import cli, group_graph, linalg
from groupgraph.generators import (
    group_pool,
    random_connected_subset,
    random_direct_image_pair,
    random_exact_sequence,
    random_finite_group_graph,
    random_repulsive_instance,
    random_tree,
    random_vector_group_graph,
)
from groupgraph.graph import Graph, GraphMorphism, Tree, contract, incidence_key
from groupgraph.group_graph import (
    CAYLEY_TABLE_CELLS,
    DEFAULT_PRODUCT_ORDER_BUDGET,
    BudgetExceeded,
    FiniteGroup,
    GroupGraph,
    GroupGraphError,
    GroupGraphMorphism,
    GroupHom,
    SubGroupGraph,
    VectorSpace,
    cyclic_group,
    dihedral_group,
    direct_image,
    direct_product_group,
    image_of,
    is_regular,
    kernel_of,
    pullback,
    quotient,
    quotient_with_projection,
    remove_offsupport_edges,
    support,
    support_components,
    tensor,
    trivial_group,
    _h0_basis_vector,
    _h0_subgroup_finite,
)
from groupgraph.cohomology import DEFAULT_ENUM_BUDGET, h0


# --- carriers ----------------------------------------------------------------


def test_cayley_table_validation():
    cyclic_group(5)  # fine
    with pytest.raises(GroupGraphError):
        FiniteGroup(2, ((0, 1), (1, 1)))  # 1 has no inverse
    with pytest.raises(GroupGraphError):
        FiniteGroup(2, ((1, 0), (0, 1)))  # identity not at index 0
    # a non-associative magma with two-sided identity and "inverses"
    table = [
        [0, 1, 2, 3, 4],
        [1, 0, 3, 4, 2],
        [2, 4, 0, 1, 3],
        [3, 2, 4, 0, 1],
        [4, 3, 1, 2, 0],
    ]
    with pytest.raises(GroupGraphError):
        FiniteGroup(5, table)


def _element(rng, obj):
    if isinstance(obj, FiniteGroup):
        return rng.randrange(obj.order)
    return [Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(obj.dim)]


def test_carriers_answer_the_same_element_operations():
    # the group laws and the value JSON round trip, through the shared methods only
    rng = random.Random(11)
    objs = [grp for _, grp in group_pool()] + [VectorSpace(d) for d in range(4)]
    for obj in objs:
        one = obj.identity()
        for _ in range(30):
            x, y, z = (_element(rng, obj) for _ in range(3))
            assert obj.mul(one, x) == x == obj.mul(x, one)
            assert obj.mul(x, obj.inv(x)) == one == obj.mul(obj.inv(x), x)
            assert obj.mul(obj.mul(x, y), z) == obj.mul(x, obj.mul(y, z))
            assert value_from_json(obj, json.loads(json.dumps(obj.value_to_json(x)))) == x
    assert VectorSpace(2).value_to_json([Fraction(3), Fraction(-1, 2)]) == [3, "-1/2"]


def test_group_helpers():
    z6 = cyclic_group(6)
    assert z6.inv(2) == 4
    assert z6.element_order(2) == 3
    assert is_abelian(z6)
    assert z6.is_subgroup({0, 3})
    assert z6.is_normal({0, 3})
    d4 = dihedral_group(4)
    assert d4.order == 8 and not is_abelian(d4)
    assert d4.is_normal({0, 1, 2, 3})  # rotations
    assert not d4.is_normal({0, 4})  # a single reflection


def test_quotient_of_cyclic_group():
    z4 = cyclic_group(4)
    q, proj = z4.quotient({0, 2})
    assert q.order == 2
    assert proj == (0, 1, 0, 1)


def test_quotient_refuses_a_non_subgroup_and_a_non_normal_subgroup():
    d4 = dihedral_group(4)
    with pytest.raises(GroupGraphError, match="not a subgroup"):
        d4.quotient({0, 1})  # a rotation of order 4 without its powers
    with pytest.raises(GroupGraphError, match="not a subgroup"):
        d4.quotient({1, 2, 3})  # no identity
    assert d4.is_subgroup({0, 4})
    with pytest.raises(GroupGraphError, match="subgroup is not normal"):
        d4.quotient({0, 4})  # a single reflection
    q, proj = d4.quotient({0, 2})  # the centre
    assert q.order == 4 and proj == (0, 1, 0, 1, 2, 3, 2, 3)


def test_automorphisms_of_klein_four():
    v4, _ = direct_product_group([cyclic_group(2), cyclic_group(2)])
    assert len(v4.automorphisms()) == 6  # GL(2, F2)


def test_hom_validation_and_kernel_image():
    z4, z2 = cyclic_group(4), cyclic_group(2)
    h = GroupHom(z4, z2, (0, 1, 0, 1))
    assert h.is_surjective() and not h.is_injective() and not h.is_iso()
    assert GroupHom(z2, z2, (0, 1)).is_iso()
    assert h.kernel() == frozenset({0, 2})
    assert h.image() == frozenset({0, 1})
    with pytest.raises(GroupGraphError):
        GroupHom(z4, z2, (0, 1, 1, 0))  # not a homomorphism


def test_vector_hom():
    a, b = VectorSpace(2), VectorSpace(1)
    h = GroupHom(a, b, [[1, -2]])
    assert h.is_surjective() and not h.is_injective()
    assert len(h.kernel()) == 1
    # iso: equal dimensions and one rank; injective alone is not enough
    assert not h.is_iso() and not GroupHom(b, a, [[1], [0]]).is_iso()
    assert GroupHom(b, a, [[1], [0]]).is_injective()
    assert GroupHom(a, a, [[1, 1], [0, 1]]).is_iso()
    assert not GroupHom(a, a, [[1, 2], [2, 4]]).is_iso()
    assert GroupHom(VectorSpace(0), VectorSpace(0), []).is_iso()
    assert h.apply([linalg.frac(2), linalg.frac(1)]) == [linalg.frac(0)]


# --- group-graph construction and serialization -------------------------------


def test_totality_enforced():
    g = Graph.make(["a", "b"], [("a", "b")])
    with pytest.raises(GroupGraphError):
        GroupGraph(g, "vector", {"a": VectorSpace(1)}, {("a", "b"): VectorSpace(1)}, {})


def test_group_graph_json_round_trip():
    gg = finite_gg(
        ["a", "b"], [("a", "b")],
        {"a": cyclic_group(4), "b": cyclic_group(2)},
        {("a", "b"): cyclic_group(2)},
        homs={("a", ("a", "b")): (0, 1, 0, 1)},
    )
    data = gg.to_json()
    back = GroupGraph.from_json(data)
    assert back.to_json() == data

    vv = vector_gg(
        ["a", "b"], [("a", "b")], {"a": 1, "b": 2}, {("a", "b"): 1},
        mats={("b", ("a", "b")): [[1, "1/2"]]},
    )
    assert GroupGraph.from_json(vv.to_json()).to_json() == vv.to_json()


def test_from_json_respects_order_cap(monkeypatch):
    gg = constant_group_graph(Graph.make(["a"], []), cyclic_group(3))
    data = gg.to_json()
    monkeypatch.setattr(group_graph, "GROUP_ORDER_CAP", 2)  # read at call time
    with pytest.raises(BudgetExceeded, match="exceeds the cap 2"):
        GroupGraph.from_json(data)


# --- pullback ------------------------------------------------------------------


def test_pullback_identity_is_identity():
    gg = constant_group_graph(Graph.make("ab", [("a", "b")]), cyclic_group(3))
    pb, canonical = pullback(GraphMorphism.identity(gg.base), gg)
    assert pb.to_json() == gg.to_json()
    assert canonical.is_over_identity()
    assert all(canonical.maps[s].is_iso() for s in pb.stars())


def test_pullback_collapsed_edge_gets_identity_restriction():
    # segment a--b collapsing onto a single vertex x
    seg = Graph.make("ab", [("a", "b")])
    point = Graph.make(["x"], [])
    phi = GraphMorphism.make(seg, point, {"a": "x", "b": "x"})
    gg = constant_group_graph(point, cyclic_group(4))
    pb, _ = pullback(phi, gg)
    e = ("a", "b")
    assert pb.eobj[e] == cyclic_group(4)
    assert pb.restriction("a", e).data == tuple(range(4))


def test_pullback_functoriality():
    # composite pullback equals iterated pullback, componentwise
    a = Graph.make("ab", [("a", "b")])
    b = Graph.make("xy", [("x", "y")])
    c = Graph.make(["p"], [])
    phi1 = GraphMorphism.make(b, c, {"x": "p", "y": "p"})
    phi2 = GraphMorphism.make(a, b, {"a": "x", "b": "y"})
    gg = constant_group_graph(c, cyclic_group(3))
    lhs, _ = pullback(compose_graph_morphisms(phi1, phi2), gg)
    mid, _ = pullback(phi1, gg)
    rhs, _ = pullback(phi2, mid)
    assert lhs.to_json() == rhs.to_json()


# --- direct image ---------------------------------------------------------------


def test_direct_image_identity_is_isomorphic():
    gg = finite_gg(
        ["a", "b"], [("a", "b")],
        {"a": cyclic_group(2), "b": cyclic_group(4)},
        {("a", "b"): cyclic_group(2)},
        homs={("b", ("a", "b")): (0, 1, 0, 1)},
    )
    img, j = direct_image(GraphMorphism.identity(gg.base), gg)
    for s in gg.stars():
        assert img.obj(s).order == gg.obj(s).order
        assert j.maps[s].is_iso()


def test_direct_image_collapse_carries_h0():
    gg = constant_group_graph(Graph.make("ab", [("a", "b")]), cyclic_group(3))
    t = Tree(gg.base)
    out, c = contract(t, {"a", "b"})
    img, _ = direct_image(c, gg)
    v = next(iter(out.vertices))
    h = h0(gg)
    assert img.vobj[v].order == h.order == 3  # diagonal


def test_direct_image_segment_diagonal_dimension():
    # both restrictions the identity into a 1-dim edge: the collapsed vertex
    # carries the kernel of the difference map, dimension 1
    gg = vector_gg(
        ["a", "b"], [("a", "b")], {"a": 1, "b": 1}, {("a", "b"): 1}
    )
    t = Tree(gg.base)
    out, c = contract(t, {"a", "b"})
    img, _ = direct_image(c, gg)
    v = next(iter(out.vertices))
    assert img.vobj[v].dim == 1


def test_direct_image_empty_fiber_is_trivial():
    sub = Graph.make(["a"], [])
    amb = Graph.make("ab", [("a", "b")])
    incl = GraphMorphism.inclusion(sub, amb)
    gg = constant_group_graph(sub, cyclic_group(5))
    img, _ = direct_image(incl, gg)
    assert img.vobj["b"].order == 1
    assert img.vobj["a"].order == 5


def test_cayley_table_budget_checked_before_the_table_is_built():
    # 3^7 = 2,187 compatible families: under the enumeration budgets, but the
    # group table over them would hold 4.8M cells
    names = [f"v{i}" for i in range(7)]
    gg = finite_gg(names, list(zip(names, names[1:])), {v: cyclic_group(3) for v in names},
                   {e: trivial_group() for e in zip(names, names[1:])})
    _, c = contract(Tree(gg.base), set(names))
    with pytest.raises(BudgetExceeded, match="Cayley table of 2187 elements") as exc:
        direct_image(c, gg, budget=DEFAULT_ENUM_BUDGET)
    assert exc.value.sizes == {"cells": 2187 ** 2, "budget": CAYLEY_TABLE_CELLS}
    with pytest.raises(BudgetExceeded, match="Cayley table"):
        direct_product_group([cyclic_group(3)] * 7, budget=DEFAULT_ENUM_BUDGET)
    # 3^13 elements pass an order budget of 10^7; the check must come before
    # the element list, whose 1.6M tuples would take about 240 MB
    factors = [cyclic_group(3)] * 13
    tracemalloc.start()
    try:
        with pytest.raises(BudgetExceeded, match="Cayley table of 1594323 elements"):
            direct_product_group(factors, budget=10**7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20, peak


def oracle_direct_image(phi, g, budget=DEFAULT_PRODUCT_ORDER_BUDGET):
    """The direct image with every restriction and projection filled in by
    hand, element by element (finite) or entry by entry (vector): the
    reference that `direct_image`'s composed homs are checked against."""
    if g.base != phi.source:
        raise GroupGraphError("group-graph does not live on the morphism source")
    tgt = phi.target
    carrier = g.carrier

    fiber_data = {}  # v' -> finite: (group, tuples, vs) | vector: (space, basis, offs)
    for v2 in tgt.sorted_vertices():
        fiber = phi.fiber(v2)
        if carrier == "finite":
            tuples, vs = _h0_subgroup_finite(g, fiber, budget)
            pos = {t: i for i, t in enumerate(tuples)}
            table = [
                [pos[tuple(g.vobj[v].mul(a[i], b[i]) for i, v in enumerate(vs))] for b in tuples]
                for a in tuples
            ]
            fiber_data[v2] = (FiniteGroup(len(tuples), table, validate=False), tuples, vs)
        else:
            basis, offs = _h0_basis_vector(g, fiber)
            fiber_data[v2] = (VectorSpace(len(basis)), basis, offs)

    edge_data = {}  # e' -> finite: (group, tuples, fiber_edges) | vector: (space, fiber_edges, offs)
    for e2 in tgt.sorted_edges():
        fe = phi.edge_fiber(e2)
        if carrier == "finite":
            prod, tuples = direct_product_group([g.eobj[e] for e in fe], budget)
            edge_data[e2] = (prod, tuples, fe)
        else:
            offs, total = {}, 0
            for e in fe:
                offs[e] = total
                total += g.eobj[e].dim
            edge_data[e2] = (VectorSpace(total), fe, offs)

    vobj = {v2: fiber_data[v2][0] for v2 in tgt.vertices}
    eobj = {e2: edge_data[e2][0] for e2 in tgt.edges}

    def fiber_endpoint(e, v2):
        return e[0] if phi.apply(e[0]) == v2 else e[1]

    restrictions = {}
    for v2, e2 in tgt.incidences():
        if carrier == "finite":
            grp, tuples, vs = fiber_data[v2]
            prod, ptuples, fe = edge_data[e2]
            ppos = {t: i for i, t in enumerate(ptuples)}
            vpos = {v: i for i, v in enumerate(vs)}
            mapping = []
            for t in tuples:
                comps = tuple(
                    g.restriction(fiber_endpoint(e, v2), e).apply(t[vpos[fiber_endpoint(e, v2)]])
                    for e in fe
                )
                mapping.append(ppos[comps])
            restrictions[(v2, e2)] = GroupHom(grp, prod, mapping, validate=False)
        else:
            space, basis, offs = fiber_data[v2]
            espace, fe, eoffs = edge_data[e2]
            m = linalg.zeros(espace.dim, space.dim)
            for col, bvec in enumerate(basis):
                for e in fe:
                    x = fiber_endpoint(e, v2)
                    part = bvec[offs[x]: offs[x] + g.vobj[x].dim]
                    img = g.restriction(x, e).apply(part)
                    for i, val in enumerate(img):
                        m[eoffs[e] + i][col] = val
            restrictions[(v2, e2)] = GroupHom(space, espace, m, validate=False)

    out = GroupGraph(tgt, carrier, vobj, eobj, restrictions)

    # canonical projection j: direct image -> g, over phi
    maps = {}
    for v in g.base.sorted_vertices():
        v2 = phi.apply(v)
        if carrier == "finite":
            grp, tuples, vs = fiber_data[v2]
            vpos = vs.index(v)
            maps[v] = GroupHom(grp, g.vobj[v], [t[vpos] for t in tuples], validate=False)
        else:
            space, basis, offs = fiber_data[v2]
            d = g.vobj[v].dim
            m = [[basis[col][offs[v] + i] for col in range(space.dim)] for i in range(d)]
            maps[v] = GroupHom(space, g.vobj[v], m, validate=False)
    for e in g.base.sorted_edges():
        img = phi.apply_edge(e)
        if isinstance(img, str):
            # collapsed edge: common restriction of the compatible family
            x = min(e)
            if carrier == "finite":
                grp, tuples, vs = fiber_data[img]
                vpos = vs.index(x)
                maps[e] = GroupHom(
                    grp, g.eobj[e],
                    [g.restriction(x, e).apply(t[vpos]) for t in tuples], validate=False,
                )
            else:
                space, basis, offs = fiber_data[img]
                d = g.eobj[e].dim
                m = linalg.zeros(d, space.dim)
                for col, bvec in enumerate(basis):
                    part = bvec[offs[x]: offs[x] + g.vobj[x].dim]
                    img_vec = g.restriction(x, e).apply(part)
                    for i, val in enumerate(img_vec):
                        m[i][col] = val
                maps[e] = GroupHom(space, g.eobj[e], m, validate=False)
        else:
            if carrier == "finite":
                prod, ptuples, fe = edge_data[img]
                epos = fe.index(e)
                maps[e] = GroupHom(prod, g.eobj[e], [t[epos] for t in ptuples], validate=False)
            else:
                espace, fe, eoffs = edge_data[img]
                d = g.eobj[e].dim
                m = linalg.zeros(d, espace.dim)
                for i in range(d):
                    m[i][eoffs[e] + i] = Fraction(1)
                maps[e] = GroupHom(espace, g.eobj[e], m, validate=False)

    j = GroupGraphMorphism(phi, out, g, maps)
    return out, j


def test_direct_image_matches_the_hand_filled_oracle():
    # four kinds of morphism: contractions of random pairs; single-edge
    # contractions; inclusions of a subtree, whose outside vertices and edges
    # have empty fibers; and random vertex maps into a complete graph, which
    # fold several edges onto one and may leave vertices with no preimage
    rng = random.Random(2024)
    carriers = {"finite": 0, "vector": 0}
    for k in range(480):
        if k % 4 == 0:
            phi, g = random_direct_image_pair(rng)
        else:
            t = random_tree(rng, rng.randint(2, 5))
            sub = t
            if k % 4 == 1:
                _, phi = contract(t, set(rng.choice(t.graph.sorted_edges())))
            elif k % 4 == 2:
                sub = Tree(t.graph.induced(random_connected_subset(rng, t, rng.randint(1, 3))))
                phi = GraphMorphism.inclusion(sub.graph, t.graph)
            else:
                ws = [f"w{i}" for i in range(rng.randint(1, 3))]
                kn = Graph.make(ws, [(a, b) for a in ws for b in ws if a < b])
                phi = GraphMorphism.make(t.graph, kn, {v: rng.choice(ws) for v in t.vertices})
            if rng.random() < 0.5:
                g = random_finite_group_graph(rng, sub, max_order=3)
            else:
                g = random_vector_group_graph(rng, sub)
        carriers[g.carrier] += 1
        img, j = direct_image(phi, g)
        want, want_j = oracle_direct_image(phi, g)
        assert img.to_json() == want.to_json()
        assert list(j.maps) == list(want_j.maps)
        assert all(j.maps[s].to_json() == want_j.maps[s].to_json() for s in j.maps)
    assert min(carriers.values()) >= 200


# --- quotient --------------------------------------------------------------------


def test_quotient_by_trivial_and_by_full():
    gg = constant_group_graph(Graph.make("ab", [("a", "b")]), cyclic_group(4))
    q1 = quotient(gg, SubGroupGraph(gg, {s: {0} for s in gg.stars()}))
    assert all(q1.obj(s).order == 4 for s in q1.stars())
    q2 = quotient(gg, SubGroupGraph(gg, {s: range(4) for s in gg.stars()}))
    assert all(q2.obj(s).order == 1 for s in q2.stars())


def test_quotient_z4_by_2z4_is_z2_everywhere():
    gg = constant_group_graph(Graph.make("ab", [("a", "b")]), cyclic_group(4))
    k = SubGroupGraph(gg, {s: frozenset({0, 2}) for s in gg.stars()})
    q, proj = quotient_with_projection(gg, k)
    for s in q.stars():
        assert q.obj(s).order == 2
        assert proj.maps[s].data == (0, 1, 0, 1)


def test_quotient_requires_normality():
    d4 = dihedral_group(4)
    gg = constant_group_graph(Graph.make("ab", [("a", "b")]), d4)
    k = SubGroupGraph(gg, {s: frozenset({0, 4}) for s in gg.stars()})
    assert not all(d4.is_normal(k.subs[s]) for s in gg.stars())
    with pytest.raises(GroupGraphError):
        quotient(gg, k)
    with pytest.raises(GroupGraphError, match="^subgroup is not normal$"):
        quotient_with_projection(gg, k)


def test_quotient_checks_each_star_for_normality_once(monkeypatch):
    g, k = random_exact_sequence(cli._rng(0, "quotient", 0), max_vertices=3, good=True)
    calls = []
    is_normal = FiniteGroup.is_normal

    def counted(self, elems):
        calls.append(elems)
        return is_normal(self, elems)

    monkeypatch.setattr(FiniteGroup, "is_normal", counted)
    quotient_with_projection(g, k)
    assert len(calls) == len(list(g.stars())) == 3


def test_vector_quotient_dims_and_maps():
    gg = vector_gg(["a", "b"], [("a", "b")], {"a": 2, "b": 2}, {("a", "b"): 2})
    k = SubGroupGraph(gg, {s: [[1, 0]] for s in gg.stars()})
    q, proj = quotient_with_projection(gg, k)
    assert all(q.obj(s).dim == 1 for s in q.stars())
    # the projection kills exactly the sub
    for s in gg.stars():
        assert proj.maps[s].apply([linalg.frac(1), linalg.frac(0)]) == [linalg.frac(0)]


def oracle_sub_violation(g, subs):
    """The message for the first incidence whose restriction sends a vector
    of the vertex's sub outside the edge's sub, one `in_span` per vector, or
    None when every incidence keeps the sub."""
    for v, e in g.base.incidences():
        rho = g.restriction(v, e)
        for vec in subs[v]:
            if not in_span(subs[e], rho.apply(vec)):
                return f"restriction at {incidence_key(v, e)} leaves the sub"
    return None


def _random_vector_subs(rng, g):
    """Spanning vectors per star, dependent ones included.  An edge's sub
    holds its ends' images, all of them (stable) or all but one, with or
    without an extra vector, or only random vectors."""
    def vec(dim):
        return [Fraction(rng.randint(-2, 2)) if rng.random() < 0.6 else Fraction(0)
                for _ in range(dim)]

    subs = {v: [vec(g.vobj[v].dim) for _ in range(rng.randint(0, g.vobj[v].dim + 1))]
            for v in g.base.vertices}
    for e in g.base.edges:
        images = [g.restriction(v, e).apply(x) for v in e for x in subs[v]]
        kind = rng.random()
        if kind < 0.4:
            subs[e] = images
        elif kind < 0.8:
            subs[e] = images[1:] + [vec(g.eobj[e].dim) for _ in range(rng.randint(0, 1))]
        else:
            subs[e] = [vec(g.eobj[e].dim) for _ in range(rng.randint(0, g.eobj[e].dim))]
    return subs


def test_vector_sub_group_graph_matches_the_in_span_oracle():
    seen = {"accepted": 0, "rejected": 0}
    for seed in range(400):
        rng = random.Random(8000 + seed)
        g = random_vector_group_graph(rng, random_tree(rng, rng.randint(1, 5)), max_dim=3)
        subs = _random_vector_subs(rng, g)
        expected = oracle_sub_violation(g, subs)
        try:
            SubGroupGraph(g, subs)
            got = None
        except GroupGraphError as exc:
            got = str(exc)
        assert got == expected, seed
        seen["rejected" if expected else "accepted"] += 1
    assert min(seen.values()) >= 80, seen


# --- tensor ---------------------------------------------------------------------


def test_tensor_dims_multiply():
    gg = vector_gg(["a", "b"], [("a", "b")], {"a": 1, "b": 1}, {("a", "b"): 1})
    t3 = tensor(gg, VectorSpace(3))
    assert all(t3.obj(s).dim == gg.obj(s).dim * 3 for s in gg.stars())
    t0 = tensor(gg, VectorSpace(0))
    assert all(t0.obj(s).dim == 0 for s in t0.stars())
    t1 = tensor(gg, VectorSpace(1))
    assert t1.to_json() == gg.to_json()


# --- support and regularity -------------------------------------------------------


def test_support_and_components():
    gg = vector_gg(
        ["a", "b", "c"], [("a", "b"), ("b", "c")],
        {"a": 0, "b": 1, "c": 0},
        {("a", "b"): 0, ("b", "c"): 1},
        mats={("b", ("b", "c")): [[1]]},
    )
    supp = support(gg)
    assert supp == ["b", ("b", "c")]
    assert support_components(gg) == [["b", ("b", "c")]]


def test_support_components_match_bfs_over_the_star_incidence_graph():
    from groupgraph.generators import random_regular_finite, random_regular_vector

    graphs = []
    for seed in range(40):
        rng = random.Random(1600 + seed)
        t = random_tree(rng, rng.randint(1, 8))
        graphs += [random_vector_group_graph(rng, t), random_finite_group_graph(rng, t),
                   random_regular_vector(rng, max_vertices=8), random_regular_finite(rng)]
    split = 0
    for g in graphs:
        # one BFS vertex per support star, named by its position in star order
        supp = support(g)
        name = {s: f"s{i:03d}" for i, s in enumerate(supp)}
        links = [(name[v], name[e]) for v, e in g.base.incidences() if v in name and e in name]
        star_graph = Graph.make(name.values(), links)
        want, seen = [], set()
        for s in supp:
            if name[s] not in seen:
                reached = star_graph.bfs([name[s]])
                seen |= reached.keys()
                want.append([x for x in supp if name[x] in reached])
        assert support_components(g) == want, g.to_json()
        split += len(want) > 1
    assert split >= 40


def test_trivial_support_is_empty():
    gg = vector_gg(["a", "b"], [("a", "b")], {"a": 0, "b": 0}, {("a", "b"): 0})
    assert support(gg) == []


def test_is_regular_examples():
    ok, _ = is_regular(vector_gg(["a", "b"], [("a", "b")], {"a": 0, "b": 0}, {("a", "b"): 0}))
    assert ok  # trivially regular
    bad = vector_gg(
        ["a", "b"], [("a", "b")], {"a": 1, "b": 1}, {("a", "b"): 1},
        mats={("a", ("a", "b")): [[0]]},
    )
    ok, violations = is_regular(bad)
    assert not ok and violations == [("a", ("a", "b"))]
    vac = vector_gg(["a", "b"], [("a", "b")], {"a": 0, "b": 1}, {("a", "b"): 1})
    ok, _ = is_regular(vac)
    assert ok  # the zero-dim side is outside the support


def test_remove_offsupport_edges():
    gg = vector_gg(
        ["a", "b", "c"], [("a", "b"), ("b", "c")],
        {"a": 1, "b": 1, "c": 1},
        {("a", "b"): 0, ("b", "c"): 1},
    )
    smaller, incl = remove_offsupport_edges(gg)
    assert sorted(smaller.base.edges) == [("b", "c")]
    assert incl.target == gg.base
    unchanged, _ = remove_offsupport_edges(smaller)
    assert unchanged.to_json() == smaller.to_json()


# --- kernel / image / first isomorphism law ---------------------------------------


def test_kernel_image_of_identity_and_projection():
    gg = constant_group_graph(Graph.make("ab", [("a", "b")]), cyclic_group(4))
    ident = identity_morphism(gg)
    assert is_trivial_sub(kernel_of(ident))
    assert all(len(x) == gg.obj(s).order for s, x in image_of(ident).subs.items())

    k = SubGroupGraph(gg, {s: frozenset({0, 2}) for s in gg.stars()})
    q, proj = quotient_with_projection(gg, k)
    ker = kernel_of(proj)
    assert all(ker.subs[s] == frozenset({0, 2}) for s in gg.stars())
    assert all(len(x) == q.obj(s).order for s, x in image_of(proj).subs.items())


def test_zero_vector_morphism_kernel_and_image():
    gg = vector_gg(["a", "b"], [("a", "b")], {"a": 2, "b": 2}, {("a", "b"): 2})
    zero = GroupGraphMorphism(
        GraphMorphism.identity(gg.base), gg, gg,
        {s: GroupHom.trivial(gg.obj(s), gg.obj(s)) for s in gg.stars()},
    )
    ker = kernel_of(zero)
    assert all(len(ker.subs[s]) == 2 for s in gg.stars())
    assert is_trivial_sub(image_of(zero))


def test_first_isomorphism_law_small():
    # quotient by the kernel of a projection matches the image, componentwise
    gg = constant_group_graph(Graph.make("ab", [("a", "b")]), cyclic_group(6))
    p_maps = {s: GroupHom(cyclic_group(6), cyclic_group(3), (0, 1, 2, 0, 1, 2)) for s in gg.stars()}
    target = constant_group_graph(gg.base, cyclic_group(3))
    p = GroupGraphMorphism(GraphMorphism.identity(gg.base), gg, target, p_maps)
    ker = kernel_of(p)
    quo = quotient(gg, ker)
    img = image_of(p)
    for s in gg.stars():
        assert quo.obj(s).order == len(img.subs[s]) == 3


def test_kernel_restriction_stability_random():
    # restriction maps send kernels into kernels for arbitrary valid morphisms
    rng = random.Random(7)
    for _ in range(10):
        n = rng.randint(2, 4)
        m = rng.choice([2, 3, 4, 6])
        gg = constant_group_graph(
            Graph.make([f"v{i}" for i in range(n)], [(f"v{i}", f"v{i+1}") for i in range(n - 1)]),
            cyclic_group(m),
        )
        c = rng.randrange(m)
        maps = {
            s: GroupHom(cyclic_group(m), cyclic_group(m), tuple((c * x) % m for x in range(m)))
            for s in gg.stars()
        }
        mor = GroupGraphMorphism(GraphMorphism.identity(gg.base), gg, gg, maps)
        SubGroupGraph(gg, {s: mor.maps[s].kernel() for s in gg.stars()})  # validates stability


def test_generated_restrictions_map_the_star_groups():
    """A generated restriction maps between its stars' own group objects, so
    what a group caches (inverses, generators) serves its restrictions too."""
    rng = random.Random(0)
    graphs = [random_finite_group_graph(rng, random_tree(rng, 6))]
    for seed in range(40):
        graphs.append(random_repulsive_instance(random.Random(seed), "finite")[0])
        graphs.append(random_direct_image_pair(random.Random(seed))[1])
    finite = [g for g in graphs if g.carrier == "finite"]
    assert len(finite) > 50
    for g in finite:
        for (v, e), rho in g.restrictions.items():
            assert rho.source is g.vobj[v] and rho.target is g.eobj[e], (v, e)
