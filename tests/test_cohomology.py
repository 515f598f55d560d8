import itertools
import math
import random
import tracemalloc
from fractions import Fraction

import pytest

from conftest import (
    act_tail,
    cochain_from_json,
    cocycle_from_json,
    compose_morphisms,
    constant_group_graph,
    finite_gg,
    greedy_extend_to_basis,
    identity_morphism,
    is_abelian,
    is_trivial_cocycle,
    oracle_h1,
    rank_mod_p,
    solve,
    trivial_cocycle,
    vector_gg,
)
from groupgraph import cohomology, linalg
from groupgraph.cli import _z4_square
from groupgraph.generators import (
    automorphisms_of,
    group_pool,
    random_connected_subset,
    random_exact_sequence,
    random_finite_group_graph,
    random_matrix,
    random_regular_finite,
    random_regular_vector,
    random_tree,
    random_vector_group_graph,
)
from groupgraph.graph import Graph, GraphMorphism, Tree, contract
from groupgraph.group_graph import (
    BudgetExceeded,
    GroupGraphError,
    GroupGraphMorphism,
    GroupHom,
    VectorSpace,
    VerificationError,
    cyclic_group,
    dihedral_group,
    direct_image,
    direct_product_group,
    pullback,
    quotient_with_projection,
    remove_offsupport_edges,
    tensor,
    trivial_group,
)
from groupgraph.cohomology import (
    Cochain0,
    Cocycle1,
    coboundary_action,
    h0,
    h0_finite_count,
    h1_auto,
    h1_class_coordinates,
    h1_class_of,
    h1_finite_bruteforce,
    h1_finite_count,
    h1_map,
    h1_vector,
    push_cocycle,
)
from groupgraph.theorems import regular_h1


def seg_gg_finite(va, vb, e, hom_a=None, hom_b=None):
    homs = {}
    if hom_a is not None:
        homs[("a", ("a", "b"))] = hom_a
    if hom_b is not None:
        homs[("b", ("a", "b"))] = hom_b
    return finite_gg(["a", "b"], [("a", "b")], {"a": va, "b": vb}, {("a", "b"): e}, homs)


# --- H0 -------------------------------------------------------------------------


def test_h0_trivial():
    gg = constant_group_graph(Graph.make("ab", [("a", "b")]), trivial_group())
    assert h0(gg).order == 1


def test_h0_constant_diagonal():
    gg = constant_group_graph(Graph.make("abc", [("a", "b"), ("b", "c")]), cyclic_group(4))
    res = h0(gg)
    assert res.order == 4
    for fam in res.elements:
        vals = set(fam.values.values())
        assert len(vals) == 1  # equality constraints force constancy


def test_h0_scalar_kernel():
    # restrictions x and 2x into a single line: kernel of [1, -2] has dim 1
    gg = vector_gg(
        ["a", "b"], [("a", "b")], {"a": 1, "b": 1}, {("a", "b"): 1},
        mats={("a", ("a", "b")): [[1]], ("b", ("a", "b")): [[2]]},
    )
    res = h0(gg)
    assert res.dim == 1
    fam = res.basis[0]
    assert fam.values["a"][0] == 2 * fam.values["b"][0]


# --- the coboundary action -------------------------------------------------------


def small_finite_instance():
    z4, z2 = cyclic_group(4), cyclic_group(2)
    return seg_gg_finite(z4, z2, z2, hom_a=(0, 1, 0, 1), hom_b=(0, 1))


def test_action_identity_cochain_fixes_cocycles():
    gg = small_finite_instance()
    z = Cocycle1(gg, (1,))
    c = Cochain0(gg, {"a": 0, "b": 0})
    assert coboundary_action(c, z, gg).tail == z.tail


def test_action_on_trivial_cocycle_is_coboundary():
    # abelian carrier: acting on 1 gives the difference family
    gg = vector_gg(
        ["a", "b"], [("a", "b")], {"a": 1, "b": 1}, {("a", "b"): 1},
    )
    c = Cochain0(gg, {"a": [Fraction(1)], "b": [Fraction(3)]})
    out = coboundary_action(c, trivial_cocycle(gg), gg)
    assert out.tail == ([Fraction(2)],)  # g_b - g_a at the tail
    assert out.to_json() == {"a|a#b": [2], "b|a#b": [-2]}


def test_action_law_exhaustive_on_small_instance():
    gg = small_finite_instance()
    families = [
        Cochain0(gg, {"a": a, "b": b}) for a in range(4) for b in range(2)
    ]
    cocycles = [Cocycle1(gg, (t,)) for t in range(2)]
    for c1 in families:
        for c2 in families:
            prod = Cochain0(gg, {
                v: gg.vobj[v].mul(c1.values[v], c2.values[v]) for v in ("a", "b")
            })
            for z in cocycles:
                twice = coboundary_action(c2, coboundary_action(c1, z, gg), gg)
                once = coboundary_action(prod, z, gg)
                assert twice.tail == once.tail


def test_antisymmetry_is_enforced():
    # a cocycle stores its tail; the head value is checked where it is read in
    gg = small_finite_instance()
    with pytest.raises(GroupGraphError, match="antisymmetry fails at a#b"):
        cocycle_from_json(gg, {"a|a#b": 1, "b|a#b": 0})


# --- the tail-only action and push against the two-sided slow oracles ---------------


def incidence_values(z):
    """Both incidence values of a cocycle: the tail value and its inverse."""
    g = z.graph
    out = {}
    for e, x in zip(g.base.sorted_edges(), z.tail):
        out[(e[0], e)] = x
        out[(e[1], e)] = g.eobj[e].inv(x)
    return out


def _assert_antisymmetric(g, values):
    for e in g.base.sorted_edges():
        grp = g.eobj[e]
        assert grp.mul(values[(e[0], e)], values[(e[1], e)]) == grp.identity(), e


def oracle_action(c, values, g):
    """The two-sided action: the value at each incidence (v, e) of an edge
    e = vw is rho_v(c_v)^-1 z_(v,e) rho_w(c_w), built from both ends, and the
    output's antisymmetry is asserted."""
    out = {}
    for e in g.base.sorted_edges():
        grp = g.eobj[e]
        for v, w in (e, e[::-1]):
            rv = g.restriction(v, e).apply(c.values[v])
            rw = g.restriction(w, e).apply(c.values[w])
            out[(v, e)] = grp.mul(grp.mul(grp.inv(rv), values[(v, e)]), rw)
    _assert_antisymmetric(g, out)
    return out


def oracle_push(m, values):
    """Every incidence of the target reads the source incidence it lies over;
    collapsed edges get the identity.  Antisymmetry is asserted."""
    g2 = m.target
    out = {}
    for v, e in g2.base.incidences():
        img_e = m.over.apply_edge(e)
        if isinstance(img_e, str):
            out[(v, e)] = g2.eobj[e].identity()
        else:
            out[(v, e)] = m.maps[e].apply(values[(m.over.apply(v), img_e)])
    _assert_antisymmetric(g2, out)
    return out


def _restriction_to_subtree(rng, g):
    """The canonical morphism from g to its pullback on a random subtree."""
    t = Tree(g.base)
    sub = g.base.induced(random_connected_subset(rng, t, rng.randint(1, len(t.vertices))))
    return pullback(GraphMorphism.inclusion(sub, g.base), g)[1]


def _action_instances():
    """(group-graph, morphisms out of it) in both carriers.  Direct images
    along contractions collapse edges and can reverse an edge's orientation."""
    for seed in range(80):
        rng = random.Random(6000 + seed)
        g = random_regular_finite(rng, max_vertices=5, max_order=6)
        yield g, [_restriction_to_subtree(rng, g)]
    for seed in range(40):
        g, k = random_exact_sequence(random.Random(seed), max_vertices=4, good=seed % 3 > 0)
        quo, proj = quotient_with_projection(g, k)
        yield g, [proj]
        yield quo, [_restriction_to_subtree(random.Random(seed), quo)]
    for seed in range(80):
        rng = random.Random(7000 + seed)
        g = random_vector_group_graph(rng, random_tree(rng, rng.randint(2, 6)))
        yield g, [_restriction_to_subtree(rng, g)]
    for seed in range(120):
        rng = random.Random(8000 + seed)
        t = random_tree(rng, rng.randint(2, 5))
        perm = sorted(t.vertices)
        rng.shuffle(perm)  # relabelled, so a contraction can reverse an edge
        ren = dict(zip(sorted(t.vertices), perm))
        t = Tree.make(perm, [(ren[a], ren[b]) for a, b in t.edges])
        make = random_finite_group_graph if seed % 2 else random_vector_group_graph
        g = make(rng, t)
        _, phi = contract(t, random_connected_subset(rng, t, rng.randint(2, len(perm))))
        img, j = direct_image(phi, g)
        yield img, [j]


def _random_value(rng, obj):
    if isinstance(obj, VectorSpace):
        return [Fraction(rng.randint(-3, 3)) for _ in range(obj.dim)]
    return rng.randrange(obj.order)


def test_tail_action_and_push_match_two_sided_oracles():
    checked = flipped = 0
    for gg, morphisms in _action_instances():
        rng = random.Random(checked)
        for _ in range(3):
            c = Cochain0(gg, {v: _random_value(rng, gg.vobj[v]) for v in gg.base.vertices})
            z = Cocycle1(gg, (_random_value(rng, gg.eobj[e]) for e in gg.base.sorted_edges()))
            values = incidence_values(z)
            assert incidence_values(coboundary_action(c, z, gg)) == oracle_action(c, values, gg)
            for m in morphisms:
                assert incidence_values(push_cocycle(m, z)) == oracle_push(m, values)
        for m in morphisms:
            flipped += any(
                not isinstance(m.over.apply_edge(e), str)
                and m.over.apply(e[0]) != m.over.apply_edge(e)[0]
                for e in m.target.base.edges
            )
        checked += 1
    assert checked >= 350
    assert flipped >= 10  # the head branch of push_cocycle is exercised


# --- H1, vector carrier ------------------------------------------------------------


def test_h1_vector_full_support_tree_is_trivial():
    gg = vector_gg(
        ["a", "b", "c"], [("a", "b"), ("b", "c")],
        {"a": 1, "b": 1, "c": 1},
        {("a", "b"): 1, ("b", "c"): 1},
    )
    assert h1_vector(gg).dim == 0


def test_h1_vector_segment_010(segment_010):
    res = h1_vector(segment_010)
    assert res.dim == 1
    assert len(res.basis) == 1


def test_h1_vector_path_11110():
    gg = vector_gg(
        ["a", "b", "c"], [("a", "b"), ("b", "c")],
        {"a": 1, "b": 1, "c": 0},
        {("a", "b"): 1, ("b", "c"): 1},
    )
    assert h1_vector(gg).dim == 0  # the coboundary is onto the two lines


def test_h1_vector_on_a_cycle():
    # a triangle with constant line and identity restrictions has dim 1
    tri = Graph.make("abc", [("a", "b"), ("b", "c"), ("a", "c")])
    gg = vector_gg(
        "abc", [("a", "b"), ("b", "c"), ("a", "c")],
        {v: 1 for v in "abc"}, {tuple(sorted(e)): 1 for e in tri.edges},
    )
    assert h1_vector(gg).dim == 1


# --- H1, finite brute force ----------------------------------------------------------


def test_h1_finite_all_trivial():
    gg = constant_group_graph(Graph.make("ab", [("a", "b")]), trivial_group())
    res = h1_finite_bruteforce(gg)
    assert res.count == 1
    assert is_trivial_cocycle(res.representatives[0])


def test_h1_finite_segment_edge_z2():
    gg = seg_gg_finite(trivial_group(), trivial_group(), cyclic_group(2))
    assert h1_finite_bruteforce(gg).count == 2


def test_h1_finite_segment_constant_z2():
    gg = constant_group_graph(Graph.make("ab", [("a", "b")]), cyclic_group(2))
    assert h1_finite_bruteforce(gg).count == 1


def test_privileged_class_first():
    gg = seg_gg_finite(trivial_group(), trivial_group(), cyclic_group(3))
    res = h1_finite_bruteforce(gg)
    assert is_trivial_cocycle(res.representatives[0])
    z = Cocycle1(gg, (0,))
    assert h1_class_of(res, z) == 0


def test_budgets_checked_before_any_cocycle_is_enumerated(monkeypatch):
    z8 = cyclic_group(8)
    # only |Z1| is budgeted: the walk never builds C0, so |C0| = 64 > 10 is no refusal
    small_z1 = seg_gg_finite(z8, z8, trivial_group())  # |Z1| = 1
    assert h1_finite_bruteforce(small_z1, budget=10).count == 1

    def no_enumeration(*args):
        raise AssertionError("Z1 enumerated before its budget was checked")

    monkeypatch.setattr(itertools, "product", no_enumeration)
    over = seg_gg_finite(z8, z8, cyclic_group(16))  # |Z1| = 16
    with pytest.raises(BudgetExceeded, match="Z1 enumeration of 16 cocycles") as exc:
        h1_finite_bruteforce(over, budget=10)
    assert exc.value.sizes == {"candidates": 16, "budget": 10}
    with pytest.raises(BudgetExceeded, match="Z1 enumeration of 16 cocycles"):
        cohomology._orbits(over, 10, witnesses=True)


def test_orbit_walk_is_not_refused_for_the_size_of_c0():
    # a Z20 centre with 8 Z20 leaves over Z2 edges, x -> x mod 2 at both ends:
    # |Z1| = 2^8 = 256 but |C0| = 20^9, far over the default budget
    z20, z2 = cyclic_group(20), cyclic_group(2)
    leaves = [f"l{i}" for i in range(8)]
    edges = [("c", leaf) for leaf in leaves]
    mod2 = tuple(x % 2 for x in range(20))
    gg = finite_gg(
        ["c", *leaves], edges, {v: z20 for v in ["c", *leaves]}, {e: z2 for e in edges},
        {(v, e): mod2 for e in edges for v in e},
    )
    assert h1_finite_count(gg) == 1
    res = h1_finite_bruteforce(gg)
    assert res.count == 1 and len(res._class_index) == 256


def _generator_groups():
    yield from group_pool()
    for n in range(3, 7):
        yield f"D{n}", dihedral_group(n)
    pool = [grp for _, grp in group_pool()] + [dihedral_group(n) for n in (5, 6)]
    for k in (2, 3):
        for factors in itertools.combinations_with_replacement(pool, k):
            if math.prod(f.order for f in factors) <= 128:  # far inside the table budget
                yield "product", direct_product_group(list(factors))[0]


def test_generating_sets_generate_with_at_most_log2_elements():
    """The cached generators, and the inverses and conjugacy classes cached
    beside them, against their definitions."""
    checked = 0
    for name, grp in _generator_groups():
        n, inv = grp.order, grp.inverses
        assert len(inv) == n and all(grp.mul(a, inv[a]) == 0 for a in range(n)), name
        label, centralizer = grp.conjugacy
        for p in range(n):
            conjugates = {grp.mul(grp.mul(inv[z], p), z) for z in range(n)}
            assert label[p] == min(conjugates), name
            assert centralizer[p] == sum(grp.mul(z, p) == grp.mul(p, z) for z in range(n)), name
        gens = grp.generators
        assert gens == tuple(sorted(set(gens))) and 0 not in gens, name
        sub, stack = {0}, [0]
        while stack:
            y = stack.pop()
            for s in gens:
                if grp.mul(y, s) not in sub:
                    sub.add(grp.mul(y, s))
                    stack.append(grp.mul(y, s))
        assert len(sub) == grp.order, name
        assert len(gens) <= grp.order.bit_length() - 1, name  # floor(log2 order)
        checked += 1
    assert checked >= 200


def test_abelian_count_is_z1_over_image():
    rng = random.Random(5)
    for _ in range(12):
        n = rng.randint(2, 4)
        names = [f"v{i}" for i in range(n)]
        edges = [(names[rng.randrange(i)], names[i]) for i in range(1, n)]
        g = Graph.make(names, edges)
        m = rng.choice([2, 3, 4])
        grp = cyclic_group(m)
        homs = {}
        for v, e in g.incidences():
            c = rng.randrange(m)
            homs[(v, e)] = tuple((c * x) % m for x in range(m))
        gg = finite_gg(names, edges, {v: grp for v in names},
                       {e: grp for e in g.edges}, homs)
        res = h1_finite_bruteforce(gg)
        z1 = m ** len(g.edges)
        image = set()
        for fam in itertools.product(range(m), repeat=n):
            c = Cochain0(gg, dict(zip(sorted(names), fam)))
            image.add(coboundary_action(c, trivial_cocycle(gg), gg).tail)
        assert res.count == z1 // len(image)


def test_elementary_abelian_matches_mod_p_linear_algebra():
    # (Z/p)^d group-graphs double as vector-space graphs over the p-element
    # field: the class count must be p ** (dim Z1 - rank of the coboundary)
    rng = random.Random(11)
    for p in (2, 3):
        for _ in range(6):
            n = rng.randint(2, 4)
            names = [f"v{i}" for i in range(n)]
            edges = [(names[rng.randrange(i)], names[i]) for i in range(1, n)]
            g = Graph.make(names, edges)
            grp = cyclic_group(p)
            homs = {}
            coeff = {}
            for v, e in g.incidences():
                c = rng.randrange(p)
                coeff[(v, e)] = c
                homs[(v, e)] = tuple((c * x) % p for x in range(p))
            gg = finite_gg(names, edges, {v: grp for v in names},
                           {e: grp for e in g.edges}, homs)
            count = h1_finite_bruteforce(gg).count
            rows = []
            vs = sorted(names)
            for a, b in g.sorted_edges():
                row = [0] * n
                row[vs.index(b)] += coeff[(b, (a, b))]
                row[vs.index(a)] -= coeff[(a, (a, b))]
                rows.append(row)
            dim_h1 = len(g.edges) - rank_mod_p(rows, p)
            assert count == p ** dim_h1


def test_offsupport_edge_removal_preserves_h1():
    rng = random.Random(3)
    for _ in range(8):
        n = rng.randint(2, 5)
        names = [f"v{i}" for i in range(n)]
        edges = [(names[rng.randrange(i)], names[i]) for i in range(1, n)]
        vdims = {v: rng.randint(0, 2) for v in names}
        edims = {tuple(sorted(e)): rng.randint(0, 1) for e in edges}
        mats = {}
        g = Graph.make(names, edges)
        for v, e in g.incidences():
            mats[(v, e)] = [
                [Fraction(rng.randint(-1, 1)) for _ in range(vdims[v])]
                for _ in range(edims[e])
            ]
        gg = vector_gg(names, edges, vdims, edims, mats)
        smaller, _ = remove_offsupport_edges(gg)
        assert h1_vector(gg).dim == h1_vector(smaller).dim


def test_offsupport_edge_removal_preserves_h1_finite():
    rng = random.Random(13)
    for _ in range(8):
        n = rng.randint(2, 5)
        names = [f"v{i}" for i in range(n)]
        edges = [(names[rng.randrange(i)], names[i]) for i in range(1, n)]
        g = Graph.make(names, edges)
        orders_v = {v: rng.choice([1, 2, 3]) for v in names}
        orders_e = {e: rng.choice([1, 2, 3]) for e in g.edges}
        homs = {}
        for v, e in g.incidences():
            m, k = orders_v[v], orders_e[e]
            import math

            c = (k // math.gcd(m, k)) * rng.randrange(math.gcd(m, k))
            homs[(v, e)] = tuple((c * x) % k for x in range(m))
        gg = finite_gg(names, edges, {v: cyclic_group(orders_v[v]) for v in names},
                       {e: cyclic_group(orders_e[e]) for e in g.edges}, homs)
        smaller, _ = remove_offsupport_edges(gg)
        assert h1_finite_bruteforce(gg).count == h1_finite_bruteforce(smaller).count


def test_coboundary_squared_is_zero():
    # the second coboundary (sum of the two incidence values, each built from
    # both ends by the two-sided oracle) kills images of the first one
    rng = random.Random(9)
    gg = vector_gg(
        ["a", "b", "c"], [("a", "b"), ("b", "c")],
        {"a": 2, "b": 1, "c": 1},
        {("a", "b"): 1, ("b", "c"): 2},
        mats={
            ("a", ("a", "b")): [[1, -1]],
            ("b", ("a", "b")): [[2]],
            ("b", ("b", "c")): [[1], [0]],
            ("c", ("b", "c")): [[0], [3]],
        },
    )
    for _ in range(10):
        c = Cochain0(gg, {
            "a": [Fraction(rng.randint(-3, 3)) for _ in range(2)],
            "b": [Fraction(rng.randint(-3, 3))],
            "c": [Fraction(rng.randint(-3, 3))],
        })
        values = oracle_action(c, incidence_values(trivial_cocycle(gg)), gg)
        for e in gg.base.sorted_edges():
            a, b = e
            total = linalg.vec_add(values[(a, e)], values[(b, e)])
            assert all(x == 0 for x in total)


# --- H1, finite: the orbit enumerator against the slow oracle ------------------------


def _dihedral_star(rng):
    """A D3 or D4 centre with leaves over dihedral, sign (Z2) or trivial edges."""
    n = rng.choice([3, 4])
    grp, z2 = dihedral_group(n), cyclic_group(2)
    auts = automorphisms_of(f"D{n}", grp)
    sign = tuple(x // n for x in range(2 * n))
    leaves = [f"l{i}" for i in range(rng.randint(2, 3 if n == 3 else 2))]
    vgroups, egroups, homs = {"c": grp}, {}, {}
    for leaf in leaves:
        e = ("c", leaf)
        kind = rng.choice(["dihedral", "dihedral", "sign", "trivial"])
        if kind == "dihedral":
            egroups[e] = grp
            homs[("c", e)] = rng.choice(auts)
            vgroups[leaf] = rng.choice([grp, trivial_group()])
            if vgroups[leaf] is grp:
                homs[(leaf, e)] = rng.choice(auts)
        elif kind == "sign":
            egroups[e] = z2
            homs[("c", e)] = sign
            vgroups[leaf] = rng.choice([grp, z2, trivial_group()])
            if vgroups[leaf] is grp:
                homs[(leaf, e)] = sign
        else:
            egroups[e] = trivial_group()
            vgroups[leaf] = rng.choice([grp, z2, trivial_group()])
    return finite_gg(["c", *leaves], list(egroups), vgroups, egroups, homs)


def _one_cycle(rng):
    """A triangle or square, one small group everywhere, automorphism or
    trivial restrictions."""
    name, grp = rng.choice([p for p in group_pool() if p[1].order <= 4])
    auts = automorphisms_of(name, grp)
    n = rng.choice([3, 4])
    names = [f"v{i}" for i in range(n)]
    edges = [(names[i], names[(i + 1) % n]) for i in range(n)]
    g = Graph.make(names, edges)
    homs = {
        (v, e): rng.choice(auts) if rng.random() < 0.8 else (0,) * grp.order
        for v, e in g.incidences()
    }
    return finite_gg(names, edges, {v: grp for v in names}, {e: grp for e in g.edges}, homs)


def _oracle_instances():
    for seed in range(100):
        yield random_regular_finite(random.Random(seed), max_vertices=4, max_order=6)
    for seed in range(70):
        g, k = random_exact_sequence(random.Random(seed), max_vertices=3, good=seed % 3 > 0)
        yield g
        if seed % 3 > 0:
            yield quotient_with_projection(g, k)[0]
    for seed in range(50):
        yield _dihedral_star(random.Random(1000 + seed))
    for seed in range(50):
        yield _one_cycle(random.Random(2000 + seed))


def test_orbit_enumerator_matches_slow_oracle():
    checked = 0
    for gg in _oracle_instances():
        reps, class_index = oracle_h1(gg)
        res = h1_finite_bruteforce(gg)
        assert res.count == len(reps)
        assert [r.tail for r in res.representatives] == reps
        # as a mapping: its insertion order is the walk's visit order, which no reader uses
        assert res._class_index == class_index
        w_reps, w_index, fams = cohomology._orbits(gg, 10**6, witnesses=True)
        vs = gg.base.sorted_vertices()
        class_rep = {t: w_reps[c] for t, c in w_index.items()}
        assert class_rep == {t: reps[c] for t, c in class_index.items()}
        # the witness family depends on the moves; each must still send the representative to t
        for t, fam in fams.items():
            assert act_tail(gg, dict(zip(vs, fam)), class_rep[t]) == t
        checked += 1
    assert checked >= 300


# --- the compiled view, against a brute-force scan ---------------------------------


def _closed_into_a_cycle(rng, g):
    """g with one chord added between two non-adjacent vertices, over the
    group of one end or Z2: the identity restriction where the groups
    coincide, else the trivial one.  g itself when it has no such pair."""
    vs = g.base.sorted_vertices()
    chords = [(a, b) for i, a in enumerate(vs) for b in vs[i + 1:] if (a, b) not in g.base.edges]
    if not chords:
        return g
    e = rng.choice(chords)
    homs = {(v, f): h.data for (v, f), h in g.restrictions.items()}
    egroups = {**g.eobj, e: rng.choice([g.vobj[e[0]], g.vobj[e[1]], cyclic_group(2)])}
    return finite_gg(vs, g.base.sorted_edges() + [e], g.vobj, egroups, homs)


def _leaf_star(n):
    """A Z2 centre with n Z2 leaves: three Z2 edges, the rest trivial."""
    z2, one = cyclic_group(2), trivial_group()
    leaves = [f"l{i:05d}" for i in range(n)]
    edges = [("c", leaf) for leaf in leaves]
    egroups = {e: z2 if i < 3 else one for i, e in enumerate(edges)}
    return finite_gg(["c"] + leaves, edges, {v: z2 for v in ["c"] + leaves}, egroups)


def _view_instances():
    for seed in range(40):
        rng = random.Random(seed)
        g = random_finite_group_graph(rng, random_tree(rng, rng.randint(2, 7)))
        yield g
        yield _closed_into_a_cycle(rng, g)
        g = random_regular_finite(rng, max_vertices=6)
        yield g
        yield _closed_into_a_cycle(rng, g)
        g, k = random_exact_sequence(rng, max_vertices=4, good=seed % 3 > 0)
        yield g
        yield _closed_into_a_cycle(rng, g)
        if seed % 3 > 0:
            yield quotient_with_projection(g, k)[0]


def _check_view(g, scanned=None):
    """Every field of `g.view` against a scan of g's own dicts; incidence
    lists by scanning all edges, at every vertex or at those given."""
    fv = g.view
    assert g.view is fv  # built once
    vs, es = sorted(g.vobj), sorted(g.eobj)
    assert fv.vertices == vs and fv.edges == es
    assert fv.vpos == dict(zip(vs, range(len(vs))))
    assert fv.epos == dict(zip(es, range(len(es))))
    assert all(g.vobj[v] is grp for v, grp in zip(vs, fv.vgroups))
    for i, (a, b) in enumerate(es):
        grp = g.eobj[(a, b)]
        assert fv.egroups[i] is grp
        assert vs[fv.ends[i][0]] == a and vs[fv.ends[i][1]] == b
        assert fv.rho[i] == (g.restriction(a, (a, b)).data, g.restriction(b, (a, b)).data)
        assert grp.inverses == tuple(
            next(y for y in range(grp.order) if grp.table[x][y] == 0) for x in range(grp.order)
        )
    for v in vs if scanned is None else scanned:
        want = [(i, e.index(v)) for i, e in enumerate(es) if v in e]
        assert fv.incident[fv.vpos[v]] == want, v


def test_the_compiled_view_matches_a_brute_force_scan():
    checked = cycles = 0
    for g in _view_instances():
        _check_view(g)
        checked += 1
        cycles += len(g.base.edges) >= len(g.base.vertices)
    assert checked >= 250 and cycles >= 60
    star = _leaf_star(4000)
    _check_view(star, scanned=["c", "l00000", "l00002", "l00003", "l01999", "l03999"])
    assert [len(inc) for inc in star.view.incident] == [4000] + [1] * 4000
    assert h1_finite_bruteforce(star).count == 1


# --- finite counts by sum-product, against the enumerations -------------------------


def _two_cycles(rng):
    """A square with a chord (two independent cycles) over one group, D3 or
    a small abelian one; each vertex group is that group or trivial, each
    restriction an automorphism or trivial."""
    name, grp = rng.choice(
        [("D3", dihedral_group(3))] + [p for p in group_pool() if p[1].order <= 4]
    )
    auts = automorphisms_of(name, grp)
    names = ["w", "x", "y", "z"]
    edges = [("w", "x"), ("x", "y"), ("y", "z"), ("w", "z"), ("w", "y")]
    vgroups = {v: grp if rng.random() < 0.8 else trivial_group() for v in names}
    homs = {
        (v, e): rng.choice(auts) if rng.random() < 0.8 else (0,) * grp.order
        for e in edges
        for v in e
        if vgroups[v] is grp
    }
    return finite_gg(names, edges, vgroups, {e: grp for e in edges}, homs)


def _count_instances():
    for seed in range(300):
        yield random_regular_finite(random.Random(seed), max_vertices=5, max_order=8)
    for seed in range(60):
        g, k = random_exact_sequence(random.Random(seed), max_vertices=3, good=seed % 3 > 0)
        yield g
        if seed % 3 > 0:
            yield quotient_with_projection(g, k)[0]
    for seed in range(40):
        yield _dihedral_star(random.Random(1000 + seed))
    for seed in range(40):
        yield _one_cycle(random.Random(3000 + seed))
    for seed in range(40):
        yield _two_cycles(random.Random(4000 + seed))
    yield _z4_square()[0]


def test_sum_product_counts_match_the_enumerations():
    cycles = nonabelian = 0
    for gg in _count_instances():
        assert h1_finite_count(gg) == h1_finite_bruteforce(gg).count, gg.to_json()
        assert h0_finite_count(gg) == h0(gg).order, gg.to_json()
        cycles += len(gg.base.edges) >= len(gg.base.vertices)
        nonabelian += any(not is_abelian(grp) for grp in gg.eobj.values())
    assert cycles >= 81 and nonabelian >= 40


def test_counts_need_the_finite_carrier(segment_010):
    for count in (h0_finite_count, h1_finite_count):
        with pytest.raises(GroupGraphError, match="requires the finite carrier"):
            count(segment_010)


def test_burnside_remainder_raises_verification_error(monkeypatch):
    gg = constant_group_graph(Graph.make("ab", [("a", "b")]), cyclic_group(2))
    assert h1_finite_count(gg) == 1
    real = cohomology._burnside_factor

    def off_by_one(grp, ra, rb):
        return [x + (i == 0) for i, x in enumerate(real(grp, ra, rb))]

    monkeypatch.setattr(cohomology, "_burnside_factor", off_by_one)
    with pytest.raises(VerificationError, match="Burnside sum 5 leaves remainder 1 modulo"):
        h1_finite_count(gg)


def test_count_budget_is_checked_before_a_factor_is_built():
    z16 = cyclic_group(16)
    names = ["a", "b", "c", "d", "e"]
    edges = list(itertools.combinations(names, 2))  # K5
    gg = finite_gg(names, edges, {v: z16 for v in names}, {e: z16 for e in edges})
    # an edge factor has 16^2 cells; summing out "a" (all degrees tie at 4)
    # needs one over b, c, d, e with 16^4 = 65,536 cells, 8 bytes each
    for count, stage in ((h0_finite_count, "H0 count"), (h1_finite_count, "H1 Burnside count")):
        with pytest.raises(BudgetExceeded, match=f"{stage}: a factor over a, b has 256 cells"):
            count(gg, 255)
        tracemalloc.start()
        try:
            with pytest.raises(BudgetExceeded) as exc:
                count(gg, 256)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert f"{stage}: a factor over b, c, d, e has 65536 cells" in str(exc.value)
        assert exc.value.sizes == {"candidates": 65536, "budget": 256}
        assert peak < 65536 * 8 // 4


def test_regular_h1_crosscheck_needs_no_enumeration_budget():
    # a 12-vertex Z2 path: |Z1| = 2^11 and |C0| = 2^12 exceed the budget, and
    # no factor of the count has more than 4 cells
    names = [f"v{i:02d}" for i in range(12)]
    path = Graph.make(names, list(zip(names, names[1:])))
    gg = constant_group_graph(path, cyclic_group(2))
    with pytest.raises(BudgetExceeded):
        h1_finite_bruteforce(gg, budget=100)
    _, res = regular_h1(gg, budget=100)
    assert res.count == h1_finite_count(gg, budget=4) == 1
    assert h0_finite_count(gg, budget=4) == 2


# --- H0 and H1 from the one difference map, against the slow oracles ----------------


def flat(z):
    """A vector-carrier cocycle's tail values concatenated over the sorted edges."""
    return [x for value in z.tail for x in value]


def _vertex_blocks(g):
    offs, total = {}, 0
    for v in g.base.sorted_vertices():
        offs[v] = total
        total += g.vobj[v].dim
    return offs, total


def oracle_h0_vector(g):
    """The kernel of the difference map, its block matrix built inline."""
    offs, total = _vertex_blocks(g)
    rows = []
    for e in g.base.sorted_edges():
        a, b = e
        ra, rb = g.restriction(a, e), g.restriction(b, e)
        for i in range(g.eobj[e].dim):
            row = [Fraction(0)] * total
            for j in range(g.vobj[a].dim):
                row[offs[a] + j] += ra.data[i][j]
            for j in range(g.vobj[b].dim):
                row[offs[b] + j] -= rb.data[i][j]
            rows.append(row)
    basis = linalg.kernel_basis(rows, total)
    return [{v: vec[offs[v]: offs[v] + g.vobj[v].dim] for v in offs} for vec in basis]


def oracle_h0_finite(g):
    """Every vertex family, kept when it is compatible on every edge."""
    vs = g.base.sorted_vertices()
    found = []
    for t in itertools.product(*(range(g.vobj[v].order) for v in vs)):
        fam = dict(zip(vs, t))
        if all(
            g.restriction(e[0], e).apply(fam[e[0]]) == g.restriction(e[1], e).apply(fam[e[1]])
            for e in g.base.sorted_edges()
        ):
            found.append(fam)
    return found


def _coboundary_matrix(g):
    """Matrix of the coboundary into tail coordinates of Z1 (vector carrier)."""
    voffs, vtotal = _vertex_blocks(g)
    eoffs, etotal = {}, 0
    for e in g.base.sorted_edges():
        eoffs[e] = etotal
        etotal += g.eobj[e].dim
    m = linalg.zeros(etotal, vtotal)
    for e in g.base.sorted_edges():
        a, b = e  # tail a: value rho_b(c_b) - rho_a(c_a)
        ra, rb = g.restriction(a, e), g.restriction(b, e)
        for i in range(g.eobj[e].dim):
            for j in range(g.vobj[b].dim):
                m[eoffs[e] + i][voffs[b] + j] += rb.data[i][j]
            for j in range(g.vobj[a].dim):
                m[eoffs[e] + i][voffs[a] + j] -= ra.data[i][j]
    return m, etotal


def oracle_b1_basis(g):
    """A basis of B1 in tail coordinates, from the coboundary matrix, and dim Z1."""
    m, etotal = _coboundary_matrix(g)
    cols = linalg.transpose(m, None) if m else []
    im_basis = linalg.row_space_basis(cols) if cols else []
    return [v for v in im_basis if any(x != 0 for x in v)], etotal


def oracle_h1_vector(g):
    """(dim, basis tail vectors, image basis): the basis is the greedy
    completion of B1 by unit vectors."""
    im_basis, etotal = oracle_b1_basis(g)
    free = greedy_extend_to_basis(im_basis, etotal)
    basis = [[Fraction(1 if j == i else 0) for j in range(etotal)] for i in free]
    return etotal - len(im_basis), basis, im_basis


def _vector_cycle(rng):
    """A cycle of 3 to 5 vertices with random dimensions and matrices."""
    n = rng.randint(3, 5)
    names = [f"v{i}" for i in range(n)]
    edges = [(names[i], names[(i + 1) % n]) for i in range(n)]
    g = Graph.make(names, edges)
    vdims = {v: rng.randint(0, 2) for v in names}
    edims = {e: rng.randint(0, 2) for e in g.edges}
    mats = {(v, e): random_matrix(rng, edims[e], vdims[v]) for v, e in g.incidences()}
    return vector_gg(names, edges, vdims, edims, mats)


def _vector_instances():
    for seed in range(250):
        rng = random.Random(3000 + seed)
        yield random_vector_group_graph(rng, random_tree(rng, rng.randint(1, 6)))
    for seed in range(150):
        yield random_regular_vector(random.Random(4000 + seed), max_vertices=6)
    for seed in range(200):
        yield _vector_cycle(random.Random(5000 + seed))


def test_difference_map_matches_slow_oracles():
    checked = 0
    for gg in _vector_instances():
        assert [c.values for c in h0(gg).basis] == oracle_h0_vector(gg)
        res = h1_vector(gg)
        dim, basis, im_basis = oracle_h1_vector(gg)
        assert res.dim == dim
        assert "_bases" not in vars(res)  # dim comes from the sparse rank alone
        assert [flat(b) for b in res.basis] == basis
        # B1's echelon rows: 1 at t, nothing after t or at another row's t,
        # and the same span as the oracle's B1 basis
        b1 = res._b1_echelon[0]
        ts = {t for t, _ in b1}
        assert all(j < t and j not in ts for t, entries in b1 for j, _ in entries)
        echelon = [[Fraction(0)] * sum(o.dim for o in gg.eobj.values()) for _ in b1]
        for row, (t, entries) in zip(echelon, b1):
            row[t] = Fraction(1)
            for j, x in entries:
                row[j] = x
        assert linalg.rank(echelon) == linalg.rank(echelon + im_basis) == len(im_basis)
        first = h1_vector(gg)  # the bases read before dim
        assert [flat(b) for b in first.basis] == basis and first.dim == dim
        # a combination of basis classes moved by a coboundary keeps its coordinates
        rng = random.Random(checked)
        for _ in range(2):
            coords = [Fraction(rng.randint(-3, 3)) for _ in res.basis]
            tail = [
                [sum((a * b.tail[k][i] for a, b in zip(coords, res.basis)), Fraction(0))
                 for i in range(gg.eobj[e].dim)]
                for k, e in enumerate(gg.base.sorted_edges())
            ]
            c = Cochain0(gg, {
                v: [Fraction(rng.randint(-3, 3)) for _ in range(gg.vobj[v].dim)]
                for v in gg.base.vertices
            })
            z = coboundary_action(c, Cocycle1(gg, tail), gg)
            assert h1_class_coordinates(res, z) == coords
        checked += 1
    assert checked >= 600
    checked = 0
    for gg in _oracle_instances():
        assert [c.values for c in h0(gg).elements] == oracle_h0_finite(gg)
        checked += 1
    assert checked >= 300


def test_lazy_basis_is_checked_against_dim():
    gg = _vector_cycle(random.Random(5001))
    res = h1_vector(gg)
    res.dim += 1  # a rank that disagrees with the dense basis
    with pytest.raises(VerificationError, match="disagrees with dim"):
        res.basis


def oracle_h1_class_coordinates(result, z):
    """Coordinates of a cocycle class by one dense solve against the H1 basis
    and the oracle's B1 basis together (the span solve the echelon reduction
    replaced)."""
    vec = flat(z)
    basis_vecs = [flat(b) for b in result.basis]
    span = basis_vecs + oracle_b1_basis(z.graph)[0]
    if not span:
        return []
    sol = solve(linalg.transpose(span), vec, len(span))
    assert sol is not None, "a cocycle outside the span of H1 and B1"
    return sol[: len(basis_vecs)]


def _tensor_instances():
    for seed in range(60):
        rng = random.Random(6000 + seed)
        t = random_vector_group_graph(rng, random_tree(rng, rng.randint(1, 5)))
        for w in range(4):
            yield tensor(t, VectorSpace(w))


def test_class_coordinates_match_the_span_solve_oracle():
    kinds = {"dim0": 0, "b1_free": 0, "coboundary": 0, "random": 0}
    for gg in itertools.chain(_vector_instances(), _tensor_instances()):
        res = h1_vector(gg)
        rng = random.Random(len(gg.base.edges) * 1000 + res.dim)
        edges = gg.base.sorted_edges()
        coords = [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in res.basis]
        # a combination of basis vectors: its B1 part is zero
        b1_free = Cocycle1(gg, (
            [sum((a * b.tail[k][i] for a, b in zip(coords, res.basis)), Fraction(0))
             for i in range(gg.eobj[e].dim)]
            for k, e in enumerate(edges)
        ))
        c = Cochain0(gg, {
            v: [Fraction(rng.randint(-3, 3)) for _ in range(gg.vobj[v].dim)]
            for v in gg.base.vertices
        })
        coboundary = coboundary_action(c, trivial_cocycle(gg), gg)
        random_z = Cocycle1(gg, (
            [Fraction(rng.randint(-4, 4), rng.randint(1, 2)) for _ in range(gg.eobj[e].dim)]
            for e in edges
        ))
        assert h1_class_coordinates(res, b1_free) == coords == oracle_h1_class_coordinates(
            res, b1_free)
        assert h1_class_coordinates(res, coboundary) == [Fraction(0)] * res.dim
        assert oracle_h1_class_coordinates(res, coboundary) == [Fraction(0)] * res.dim
        assert h1_class_coordinates(res, random_z) == oracle_h1_class_coordinates(res, random_z)
        kinds["dim0"] += res.dim == 0
        kinds["b1_free"] += any(coords)
        kinds["coboundary"] += not is_trivial_cocycle(coboundary)
        kinds["random"] += 1
    assert kinds["random"] >= 800 and min(kinds.values()) >= 50, kinds


def test_class_coordinates_reduce_with_one_rref_per_result(monkeypatch):
    rref_calls = []
    real = linalg.rref
    monkeypatch.setattr(linalg, "rref", lambda m: rref_calls.append(1) or real(m))
    # H1 of dimension 6 and B1 of rank 8
    t = random_vector_group_graph(random.Random(3), random_tree(random.Random(3), 5))
    tens = tensor(t, VectorSpace(2))
    z = Cocycle1(tens, ([Fraction(k + 1)] * tens.eobj[e].dim
                        for k, e in enumerate(tens.base.sorted_edges())))
    # one rref serves the basis and every class coordinate, whichever is read first
    res = h1_vector(tens)
    assert res.basis
    first = h1_class_coordinates(res, z)
    for _ in range(5):
        assert h1_class_coordinates(res, z) == first
    assert len(rref_calls) == 1
    rref_calls.clear()
    res = h1_vector(tens)
    assert h1_class_coordinates(res, z) == first and res.basis
    assert len(rref_calls) == 1


def test_class_coordinates_need_coboundary_data():
    # the active-edge result of regular_h1 carries a basis but no B1 basis
    g = random_regular_vector(random.Random(0))
    _, res = regular_h1(g)
    assert res.basis is not None and res._bases[1] is None
    with pytest.raises(GroupGraphError, match="no coboundary data"):
        h1_class_coordinates(res, trivial_cocycle(g))


# --- induced maps ---------------------------------------------------------------------


def test_h1_map_identity():
    gg = seg_gg_finite(trivial_group(), trivial_group(), cyclic_group(3))
    mp = h1_map(identity_morphism(gg))
    assert mp.is_bijective()
    assert mp.mapping == list(range(mp.source_result.count))


def test_h1_map_budgets_the_vector_bases():
    # 0-dim vertices and a 50-dim edge: each side's H1 basis is 50 x 50
    gg = vector_gg(["a", "b"], [("a", "b")], {"a": 0, "b": 0}, {("a", "b"): 50})
    over = "H1 basis: 2500 dense matrix cells exceed budget 10"
    with pytest.raises(BudgetExceeded, match=over):
        h1_map(identity_morphism(gg), budget=10)
    with pytest.raises(BudgetExceeded, match=over):
        h1_auto(gg, budget=10).basis
    assert h1_map(identity_morphism(gg), budget=2500).is_bijective()
    assert len(h1_auto(gg, budget=2500).basis) == 50


def test_h1_map_to_trivial_target():
    gg = seg_gg_finite(trivial_group(), trivial_group(), cyclic_group(3))
    triv = constant_group_graph(gg.base, trivial_group())
    maps = {s: GroupHom.trivial(gg.obj(s), triv.obj(s)) for s in gg.stars()}
    mor = GroupGraphMorphism(GraphMorphism.identity(gg.base), gg, triv, maps)
    mp = h1_map(mor)
    assert set(mp.mapping) == {0}  # constant at the privileged class


def test_h1_map_functoriality_random():
    rng = random.Random(21)
    for _ in range(6):
        n = rng.randint(2, 4)
        names = [f"v{i}" for i in range(n)]
        edges = [(names[rng.randrange(i)], names[i]) for i in range(1, n)]
        m = rng.choice([2, 3, 4])
        grp = cyclic_group(m)
        g = Graph.make(names, edges)
        gg = finite_gg(names, edges, {v: grp for v in names}, {e: grp for e in g.edges})

        def random_endo():
            # one global multiplier commutes with the identity restrictions
            c = rng.randrange(1, m) if m > 1 else 0
            return GroupGraphMorphism(
                GraphMorphism.identity(g), gg, gg,
                {s: GroupHom(grp, grp, tuple((c * x) % m for x in range(m))) for s in gg.stars()},
            )

        m1, m2 = random_endo(), random_endo()
        composed = compose_morphisms(m2, m1)
        lhs = h1_map(composed)
        step1 = h1_map(m1)
        step2 = h1_map(m2)
        chained = [step2.mapping[c] for c in step1.mapping]
        assert lhs.mapping == chained


def test_h1_map_functoriality_vector():
    rng = random.Random(31)
    for _ in range(6):
        n = rng.randint(2, 4)
        names = [f"v{i}" for i in range(n)]
        edges = [(names[rng.randrange(i)], names[i]) for i in range(1, n)]
        g = Graph.make(names, edges)
        gg = vector_gg(names, edges, {v: 1 for v in names},
                       {e: 1 for e in g.edges})

        def scaling(c):
            return GroupGraphMorphism(
                GraphMorphism.identity(g), gg, gg,
                {s: GroupHom(gg.obj(s), gg.obj(s), [[Fraction(c)]]) for s in gg.stars()},
            )

        m1, m2 = scaling(rng.randint(1, 3)), scaling(rng.randint(1, 3))
        lhs = h1_map(compose_morphisms(m2, m1))
        step1, step2 = h1_map(m1), h1_map(m2)
        assert lhs.matrix == linalg.mat_mul(step2.matrix, step1.matrix)


def test_h1_map_ranks_its_matrix_once(monkeypatch):
    rank_calls = []
    real = linalg.rank
    monkeypatch.setattr(linalg, "rank", lambda m: rank_calls.append(1) or real(m))
    # H1 of dimension 6
    gg = tensor(random_vector_group_graph(random.Random(3), random_tree(random.Random(3), 5)),
                VectorSpace(2))
    zero = GroupGraphMorphism(
        GraphMorphism.identity(gg.base), gg, gg,
        {s: GroupHom.trivial(gg.obj(s), gg.obj(s)) for s in gg.stars()},
    )
    for mor, bijective in ((identity_morphism(gg), True), (zero, False)):
        rank_calls.clear()
        mp = h1_map(mor)
        for _ in range(2):
            assert mp.is_injective() == mp.is_surjective() == mp.is_bijective() == bijective
        assert len(rank_calls) == 1


def test_cocycle_and_cochain_json_round_trip(segment_010):
    res = h1_vector(segment_010)
    z = res.basis[0]
    back = cocycle_from_json(segment_010, z.to_json())
    assert back.tail == z.tail
    gg = small_finite_instance()
    c = Cochain0(gg, {"a": 3, "b": 1})
    assert cochain_from_json(gg, c.to_json()).values == c.values
    zf = Cocycle1(gg, (1,))
    assert zf.to_json() == {"a|a#b": 1, "b|a#b": 1}
    assert cocycle_from_json(gg, zf.to_json()).tail == zf.tail


@pytest.mark.parametrize(
    "bad",
    [7, 2, -1, "x", True, 1.0, None, [0], [1, 2, 3], [True, 0], [0.5, 0], [], ["1/0", 0]],
)
def test_finite_cochain_json_rejects_values_outside_the_group(bad):
    # every value lies outside both Z/2 and Q^2: out of range, not an int or
    # not a list, the wrong length, a bool, float or zero-denominator entry
    seg = Graph.make("ab", [("a", "b")])
    for obj, ok in ((cyclic_group(2), 0), (VectorSpace(2), [0, 0])):
        gg = constant_group_graph(seg, obj)
        with pytest.raises(GroupGraphError, match=" is not a"):
            cochain_from_json(gg, {"a": bad, "b": ok})
        with pytest.raises(GroupGraphError, match=" is not a"):
            cocycle_from_json(gg, {"a|a#b": bad, "b|a#b": ok})
    gg = constant_group_graph(seg, cyclic_group(2))
    assert cochain_from_json(gg, {"a": 1, "b": 0}).values == {"a": 1, "b": 0}
    gg = constant_group_graph(seg, VectorSpace(2))
    got = cochain_from_json(gg, {"a": [1, "1/2"], "b": [0, 0]}).values
    assert got == {"a": [Fraction(1), Fraction(1, 2)], "b": [Fraction(0), Fraction(0)]}


def test_push_cocycle_inserts_identity_on_collapsed_edges():
    seg = Graph.make("ab", [("a", "b")])
    point = Graph.make(["x"], [])
    phi = GraphMorphism.make(seg, point, {"a": "x", "b": "x"})
    gg = constant_group_graph(point, cyclic_group(4))
    pb, canonical = pullback(phi, gg)
    z = trivial_cocycle(gg)
    out = push_cocycle(canonical, z)
    assert out.tail == (0,)
