"""Constructive realizations and checkers for the structural results:
pruning, quotient isomorphism with its inductive lift, direct-image
injectivity and surjectivity, contraction regularity, the active-edge
description of H1 of a regular group-graph, and the tensor isomorphism.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from . import linalg
from .cohomology import (
    Cochain0,
    Cocycle1,
    CohomologyResult,
    DEFAULT_ENUM_BUDGET,
    _check_dense_cells,
    _orbits,
    coboundary_action,
    h1_auto,
    h1_class_coordinates,
    h1_finite_count,
    h1_map,
    h1_vector,
    push_cocycle,
)
from .graph import (
    Edge, Graph, GraphError, GraphMorphism, Tree, connected_components, contract, edge_key,
    outward_incidences, subtree_parents,
)
from .group_graph import (
    BudgetExceeded,
    GroupGraph,
    GroupGraphError,
    GroupGraphMorphism,
    SubGroupGraph,
    VectorSpace,
    VerificationError,
    direct_image,
    is_regular,
    pullback,
    quotient_with_projection,
    support,
    support_components,
    tensor,
)


class HypothesisViolated(ValueError):
    def __init__(self, message: str, violations):
        super().__init__(message)
        self.violations = violations


def restrict(g: GroupGraph, sub: Graph) -> GroupGraph:
    inclusion = GraphMorphism.inclusion(sub, g.base)
    return pullback(inclusion, g)[0]


# ---------------------------------------------------------------------------
# pruning


@dataclass
class RepulsivityReport:
    subtree: list[str]
    violations: list[tuple[str, Edge]]

    def is_repulsive(self) -> bool:
        return not self.violations


def check_repulsive(g: GroupGraph, r) -> RepulsivityReport:
    """Test outward surjectivity along the partial order induced by a subtree."""
    rset = frozenset(r)
    # an edge with both ends in the subtree is incomparable: no condition;
    # across any other edge near precedes far, near being far's parent toward r
    violations = [
        (far, e)
        for far, e in outward_incidences(Tree(g.base), rset)
        if not g.restriction(far, e).is_surjective()
    ]
    return RepulsivityReport(sorted(rset), violations)


def pruning_verify(g: GroupGraph, r, budget: int = DEFAULT_ENUM_BUDGET):
    """Check that restricting cocycle families to a repulsive subtree is a
    bijection on H1 classes; returns (ok, data for both sides)."""
    rep = check_repulsive(g, r)
    if not rep.is_repulsive():
        raise HypothesisViolated("subtree is not repulsive", rep.violations)
    sub = g.base.induced(frozenset(r))
    inclusion = GraphMorphism.inclusion(sub, g.base)
    _, canonical = pullback(inclusion, g)
    mp = h1_map(canonical, budget)
    return mp.is_bijective(), {
        "ambient": mp.source_result,
        "restricted": mp.target_result,
        "map": mp,
    }


# ---------------------------------------------------------------------------
# quotient isomorphism, with the constructive lift from the inductive proof


def _min_preimages(table, domain) -> dict:
    """Each value of table over domain, mapped to its smallest preimage."""
    out = {}
    for x in sorted(domain):
        out.setdefault(table[x], x)
    return out


def _preimage(preimages: dict, value) -> int:
    try:
        return preimages[value]
    except KeyError:
        raise VerificationError("no preimage found where one must exist") from None


class QuotientLift:
    """The constructive lift of the inductive proof, compiled once per
    (g, k, proj, quotient witness), where the witness is the
    (representatives, class index, witness) triple of
    `_orbits(quotient, budget, witnesses=True)`.  Calling it on two cocycles
    whose projections are cohomologous produces a vertex family (k_v) with
    (k_v) acting on z giving exactly h.  The induction runs outward from
    the lexicographically smallest root, each vertex after its parent.  Every
    group operation of a call is a lookup in a Cayley table or an inverse
    tuple.  Stars are addressed by their positions in `g.view`, which holds
    the groups, ends and restriction tables; the lift adds only the parent
    order, the flips, the kernels and the preimages."""

    def __init__(self, g: GroupGraph, k: SubGroupGraph, proj: GroupGraphMorphism, quotient_witness):
        self.g = g
        _, self.class_index, self.witness = quotient_witness
        fv = self.view = g.view
        # per vertex: the quotient group, and the smallest preimage of each
        # quotient value under the projection
        self.qgroups = proj.target.view.vgroups
        self.lifts = [_min_preimages(proj.maps[v].data, range(grp.order))
                      for v, grp in zip(fv.vertices, fv.vgroups)]
        self.proj = proj
        # the induction needs unique parent edges; visit order is parent-first
        parent = subtree_parents(Tree(g.base), {fv.vertices[0]})
        # per edge: the side of its parent end (1 when that is the head), and
        # the kernel k_e
        self.flips = [int(parent[b] != a) for a, b in fv.edges]
        self.kernels = [k.subs[e] for e in fv.edges]
        # per non-root vertex w, in visit order: its position, its parent's,
        # the index of the edge between them, and the smallest preimage in
        # k_w of each rho_w value
        self.steps = []
        for w, par in parent.items():
            if par is not None:
                i = fv.epos[(min(par, w), max(par, w))]
                rho_w = fv.rho[i][1 - self.flips[i]]
                self.steps.append((fv.vpos[w], fv.vpos[par], i, _min_preimages(rho_w, k.subs[w])))

    def __call__(self, z: Cocycle1, h: Cocycle1) -> Cochain0:
        tz, th = push_cocycle(self.proj, z).tail, push_cocycle(self.proj, h).tail
        if self.class_index[tz] != self.class_index[th]:
            raise HypothesisViolated("projected cocycles are not cohomologous", [])
        # combine witnesses: c1 * rep = pz and c2 * rep = ph give (c1^-1 c2) * pz = ph;
        # both are families over the sorted vertices, which quo shares with g;
        # lift that quotient family
        gv = [
            _preimage(lift, q.table[q.inverses[x]][y])
            for q, lift, x, y in zip(self.qgroups, self.lifts, self.witness[tz], self.witness[th])
        ]

        # solve for the edge correction in the kernel, with v the parent end
        # of each edge and w the child end
        fv = self.view
        zv, ge = [], []  # per edge: z at its parent end, and the correction
        for grp, (v, w), (rho_v, rho_w), flip, kern, zx, hx in zip(
            fv.egroups, fv.ends, fv.rho, self.flips, self.kernels, z.tail, h.tail
        ):
            t, inv = grp.table, grp.inverses
            if flip:  # the parent end is the head: take the values there
                zx, hx = inv[zx], inv[hx]
                v, w, rho_v, rho_w = w, v, rho_w, rho_v
            expr = t[t[inv[rho_v[gv[v]]]][zx]][rho_w[gv[w]]]
            zv.append(zx)
            ge.append(t[inv[expr]][hx])
            if ge[-1] not in kern:
                raise VerificationError("edge correction left the kernel sub-group-graph")

        kv = list(gv)  # the root keeps its lift; every other vertex is set below
        fprime = [0] * len(gv)
        for w, par, i, kernel_preimage in self.steps:
            t, inv, p = fv.egroups[i].table, fv.egroups[i].inverses, self.flips[i]
            rho_par, rho_w = fv.rho[i][p], fv.rho[i][1 - p]
            tw = fv.vgroups[w].table
            gprime_w = _preimage(kernel_preimage, ge[i])
            gg = t[t[inv[rho_par[kv[par]]]][zv[i]]][rho_w[tw[gv[w]][gprime_w]]]
            tilde = t[t[inv[gg]][rho_par[fprime[par]]]][gg]
            fprime[w] = tw[gprime_w][_preimage(kernel_preimage, tilde)]
            kv[w] = tw[gv[w]][fprime[w]]

        cochain = Cochain0(self.g, dict(zip(fv.vertices, kv)))
        if coboundary_action(cochain, z, self.g).tail != h.tail:
            raise VerificationError("constructive lift failed to trivialize the pair")
        return cochain


def quotient_iso_verify(
    g: GroupGraph,
    k: SubGroupGraph,
    budget: int = DEFAULT_ENUM_BUDGET,
    require_tree: bool = True,
) -> dict:
    """Verify that the projection onto the quotient induces a bijection on H1
    and exercise the constructive lift on every cohomologous pair."""
    if require_tree:
        Tree(g.base)
    bad = [
        (v, e)
        for v, e in g.base.incidences()
        if frozenset(g.restriction(v, e).apply(x) for x in k.subs[v]) != k.subs[e]
    ]
    if bad:
        raise HypothesisViolated(
            "kernel restrictions are not surjective at: "
            + ", ".join(f"{v}|{edge_key(e)}" for v, e in sorted(bad)),
            bad,
        )
    quo, proj = quotient_with_projection(g, k)
    mp = h1_map(proj, budget)

    lifted = 0
    failures = []
    if require_tree:
        lift = QuotientLift(g, k, proj, _orbits(quo, budget, witnesses=True))
        src = mp.source_result
        # every cocycle against its class representative, class by class
        for t, c in sorted(src._class_index.items(), key=lambda item: (item[1], item[0])):
            try:
                lift(src.representatives[c], Cocycle1(g, t))
                lifted += 1
            except VerificationError as exc:
                failures.append((c, t, str(exc)))
    return {
        "bijective": mp.is_bijective(),
        "source_count": mp.source_result.size(),
        "target_count": mp.target_result.size(),
        "lifted_pairs": lifted,
        "lift_failures": failures,
        "ok": mp.is_bijective() and not failures,
        "map": mp,
    }


# ---------------------------------------------------------------------------
# direct image


def direct_image_verify(
    phi: GraphMorphism, g: GroupGraph, budget: int = DEFAULT_ENUM_BUDGET
) -> dict:
    """Check injectivity of the induced map, the image characterization on
    collapsed edges, and surjectivity under trivial fiber cohomology."""
    img, j = direct_image(phi, g, budget)
    mp = h1_map(j, budget)
    tgt = mp.target_result
    edges = g.base.sorted_edges()
    col_idx = [i for i, e in enumerate(edges) if phi.collapses(e)]

    if g.carrier == "finite":
        image_classes = set(mp.mapping)
        flat_classes = {
            c for t, c in tgt._class_index.items() if all(t[i] == 0 for i in col_idx)
        }
        image_ok = image_classes == flat_classes
    else:
        image_cols = [
            [mp.matrix[i][jcol] for i in range(len(mp.matrix))]
            for jcol in range(mp.source_result.dim)
        ]
        flat_coords = []
        for idx, e in enumerate(edges):
            if phi.collapses(e):
                continue
            for i in range(g.eobj[e].dim):
                tail = [[Fraction(0)] * g.eobj[f].dim for f in edges]
                tail[idx][i] = Fraction(1)
                flat_coords.append(h1_class_coordinates(tgt, Cocycle1(g, tail)))
        r_img = linalg.rank(image_cols)
        r_flat = linalg.rank(flat_coords)
        r_both = linalg.rank(image_cols + flat_coords)
        image_ok = r_img == r_flat == r_both

    fibers_trivial = True
    for v2 in phi.target.sorted_vertices():
        fiber = phi.fiber(v2)
        if not fiber.vertices:
            continue  # empty fiber: trivial cohomology
        res = h1_auto(restrict(g, fiber), budget)
        trivial = res.dim == 0 if res.carrier == "vector" else res.count == 1
        if not trivial:
            fibers_trivial = False
            break

    injective = mp.is_injective()
    surjective = mp.is_surjective()
    ok = injective and image_ok and (surjective or not fibers_trivial)
    return {
        "injective": injective,
        "surjective": surjective,
        "fibers_trivial": fibers_trivial,
        "image_ok": image_ok,
        "ok": ok,
        "map": mp,
    }


# ---------------------------------------------------------------------------
# regular group-graphs: contraction and the active-edge description of H1


def contraction_regularity(g: GroupGraph, sub, budget: int = DEFAULT_ENUM_BUDGET) -> GroupGraph:
    """Direct image along the contraction of a supported subtree; asserts the
    output is again regular."""
    ok, violations = is_regular(g)
    if not ok:
        raise GroupGraphError(f"group-graph is not regular: {violations}")
    t = Tree(g.base)
    supp = set(support(g))
    sub_graph = g.base.induced(frozenset(sub))
    if any(e not in supp for e in sub_graph.sorted_edges()):
        raise GroupGraphError("subtree has an edge outside the support")
    _, c = contract(t, sub)
    img, _ = direct_image(c, g, budget)
    ok2, violations2 = is_regular(img)
    if not ok2:
        raise VerificationError(f"contracted group-graph is not regular: {violations2}")
    return img


@dataclass
class ActiveStructure:
    active_edges: list[Edge]
    active_vertex: dict
    components: list[dict]
    a_prime: list[Edge]

    @property
    def a(self) -> int:
        return len(self.active_edges)

    @property
    def p(self) -> int:
        return sum(1 for comp in self.components if comp["chosen"])

    def to_json(self) -> dict:
        return {
            "active_edges": [edge_key(e) for e in self.active_edges],
            "active_vertex": {edge_key(e): v for e, v in sorted(self.active_vertex.items())},
            "components": [
                {
                    "elements": [
                        s if isinstance(s, str) else edge_key(s) for s in comp["elements"]
                    ],
                    "active": comp["active"],
                    "single_edge": comp["single_edge"],
                    "chosen": edge_key(comp["chosen"]) if comp["chosen"] else None,
                }
                for comp in self.components
            ],
            "a": self.a,
            "p": self.p,
            "a_prime": [edge_key(e) for e in self.a_prime],
        }


def build_active_structure(g: GroupGraph) -> ActiveStructure:
    """Active edges, the selected active vertices, and the reduced edge set.

    An edge is active when its group is nontrivial and some endpoint carries
    the trivial group; per active component not reduced to a single edge, one
    active edge is dropped from the basis set.  Every selection takes the
    lexicographically smallest candidate (dimensions and counts do not depend
    on it).
    """
    supp = set(support(g))
    active_edges = []
    active_vertex = {}
    for e in g.base.sorted_edges():
        if e not in supp:
            continue
        a, b = e
        trivial = [v for v in (a, b) if v not in supp]
        if not trivial:
            continue
        active_edges.append(e)
        nontrivial = [v for v in (a, b) if v in supp]
        active_vertex[e] = nontrivial[0] if nontrivial else min(a, b)

    active_set = set(active_edges)
    components = []
    for comp in support_components(g):
        comp_edges = [s for s in comp if not isinstance(s, str)]
        actives_here = [e for e in comp_edges if e in active_set]
        entry = {
            "elements": comp,
            "active": bool(actives_here),
            "single_edge": len(comp) == 1 and bool(comp_edges),
            "chosen": None,
        }
        if entry["active"] and not entry["single_edge"]:
            entry["chosen"] = min(actives_here)
        components.append(entry)
    removed = {entry["chosen"] for entry in components if entry["chosen"]}
    a_prime = [e for e in active_edges if e not in removed]
    return ActiveStructure(active_edges, active_vertex, components, a_prime)


def _delta_cocycle(g: GroupGraph, st: ActiveStructure, assignment: dict) -> Cocycle1:
    """The basis realization: inverse at the active vertex, the value at the
    other endpoint, trivial elsewhere."""
    tail = []
    for e in g.base.sorted_edges():
        grp = g.eobj[e]
        if e not in assignment:
            tail.append(grp.identity())
        elif st.active_vertex[e] == e[0]:
            tail.append(grp.inv(assignment[e]))
        else:
            tail.append(assignment[e])
    return Cocycle1(g, tail)


def regular_h1(
    g: GroupGraph, budget: int = DEFAULT_ENUM_BUDGET
) -> tuple[ActiveStructure, CohomologyResult]:
    """H1 of a regular group-graph over a forest via the active-edge
    description.  H1 over a forest is the direct sum over its trees, so one
    call covers them all; a base with a cycle raises GraphError, on which
    `cohomology --mode regular` exits 1.

    Vector carrier: dimension is the total dimension over the reduced active
    set; the explicit basis of delta cocycles is built on first read.  Finite
    carrier: the class count is the product of the active-edge group orders.
    Every call cross-checks its result, the dimension against the rank of
    `h1_vector`, the count against the Burnside count of `h1_finite_count`,
    and raises VerificationError when they disagree.
    """
    ok, violations = is_regular(g)
    if not ok:
        raise GroupGraphError(f"group-graph is not regular: {violations}")
    if len(g.base.edges) != len(g.base.vertices) - len(connected_components(g.base)):
        raise GraphError("base graph has a cycle")
    st = build_active_structure(g)

    if g.carrier == "vector":
        dim = sum(g.eobj[e].dim for e in st.a_prime)

        def bases():
            cells = dim * sum(o.dim for o in g.eobj.values())  # dim cocycles of dim C1 entries
            _check_dense_cells("active-edge H1 basis", cells, budget)
            basis = []
            for e in st.a_prime:
                for i in range(g.eobj[e].dim):
                    unit = [Fraction(0)] * g.eobj[e].dim
                    unit[i] = Fraction(1)
                    basis.append(_delta_cocycle(g, st, {e: unit}))
            return basis, None

        result = CohomologyResult("h1", "vector", dim=dim, _build_bases=bases)
        ref = h1_vector(g)
        if ref.dim != dim:
            raise VerificationError(
                f"active-edge dimension {dim} disagrees with linear algebra {ref.dim}"
            )
    else:
        count = 1
        for e in st.a_prime:
            count *= g.eobj[e].order
        if count > budget:
            raise BudgetExceeded(
                f"active-edge class enumeration of size {count} exceeds budget {budget}",
                {"candidates": count, "budget": budget},
            )
        reps = []
        for combo in itertools.product(*(range(g.eobj[e].order) for e in st.a_prime)):
            reps.append(_delta_cocycle(g, st, dict(zip(st.a_prime, combo))))
        result = CohomologyResult("h1", "finite", count=count, representatives=reps)
        ref = h1_finite_count(g, budget)
        if ref != count:
            raise VerificationError(
                f"active-edge count {count} disagrees with the Burnside count {ref}"
            )
    return st, result


# ---------------------------------------------------------------------------
# tensor


def tensor_h1_verify(t: GroupGraph, w_dim: int, budget: int = DEFAULT_ENUM_BUDGET) -> bool:
    """dim H1(T tensor W) must factor as dim H1(T) * dim W, with the basis
    correspondence realized explicitly; both bases are built under `budget`."""
    base_res = h1_vector(t, budget)
    tens = tensor(t, VectorSpace(w_dim))
    tens_res = h1_vector(tens, budget)
    if tens_res.dim != base_res.dim * w_dim:
        return False
    coords = []
    for b in base_res.basis:
        for jcol in range(w_dim):
            tail = []
            for src in b.tail:
                vec = [Fraction(0)] * (len(src) * w_dim)
                for i, x in enumerate(src):
                    vec[i * w_dim + jcol] = x
                tail.append(vec)
            coords.append(h1_class_coordinates(tens_res, Cocycle1(tens, tail)))
    return linalg.rank(coords) == tens_res.dim
