"""Seeded inputs, op schedules and correctness gates for the four workloads.

Every input is written to disk during set-up and reaches the program only
through `groupgraph.cli.main(argv)`.  The expected outcome of each op is
derived from how its input was built, or from an oracle in this file that
shares no code with the program (the finite H0/H1 counts).

A run repeats one pass over the workload's ladder until its time is used,
each pass drawing fresh instances of the same shapes and sizes.  Pass p's
instances depend only on the seed and p, so every run of a seed measures
the same sequence of passes, and a faster program gets through more of it.
"""

from __future__ import annotations

import json
import math
import os
import random
import statistics
from dataclasses import dataclass

from groupgraph import generators
from groupgraph.graph import Graph, edge, edge_key
from groupgraph.group_graph import GroupGraph, GroupHom


@dataclass
class Op:
    name: str
    argv: list
    size: int  # input size for the scaling fit: vertices, |Z1| or --count
    expect_code: int
    check: object = None  # callable(parsed stdout) -> error string or None


def _write(workdir: str, name: str, data: dict) -> str:
    path = os.path.join(workdir, name + ".json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh, sort_keys=True)
    return path


def seeded_rng(seed: int, *parts) -> random.Random:
    return random.Random(":".join(str(p) for p in (seed,) + parts))


# ---------------------------------------------------------------------------
# dual trees


def tree_shape(kind: str, n: int, rng: random.Random) -> tuple[list[int], list[tuple[int, int]]]:
    """Parent edges over construction indices 0..n-1; index 0 is the root."""
    if kind == "path":
        edges = [(i - 1, i) for i in range(1, n)]
    elif kind == "star":
        edges = [(0, i) for i in range(1, n)]
    elif kind == "caterpillar":
        spine = max(2, n // 3)
        edges = [(i - 1, i) for i in range(1, spine)]
        edges += [(rng.randrange(spine), i) for i in range(spine, n)]
    elif kind == "random":
        edges = [(rng.randrange(i), i) for i in range(1, n)]
    else:
        raise ValueError(f"unknown shape {kind!r}")
    return list(range(n)), edges


def _labels(n: int, rng: random.Random, prefix: str) -> list[str]:
    """A seeded relabelling, so lexicographic order is not construction order."""
    perm = list(range(n))
    rng.shuffle(perm)
    return [f"{prefix}{perm[i]}" for i in range(n)]


def red_core_spec(kind: str, n: int, rng: random.Random) -> dict:
    """Every vertex red, every edge a red singular edge of tdim 1, vertex tdim
    alternating along construction order: one cut-component, finite type, and
    a tf_red with C1 dimension n - 1."""
    idx, pedges = tree_shape(kind, n, rng)
    lab = _labels(n, rng, "D")
    spec: dict = {"tree": Graph.make(lab, [(lab[a], lab[b]) for a, b in pedges]).to_json(),
                  "vertices": {}, "edges": {}}
    for i in idx:
        spec["vertices"][lab[i]] = {"kind": "invariant",
                                    "holonomy": {"finite": False, "tdim": 1 - i % 2}}
    for a, b in pedges:
        e = edge(lab[a], lab[b])
        spec["edges"][edge_key(e)] = {
            "kind": "singular", "tdim": 1,
            "holonomy": {e[0]: {"periodic": False}, e[1]: {"periodic": False}},
        }
    return spec


_GREEN_ORDERS = [2, 3, 4, 6, 8, 12]


def _divisors(n: int) -> list[int]:
    return [d for d in range(1, n + 1) if n % d == 0]


class _GreenBuilder:
    """A mostly green spec built over parent edges (child = larger index).

    `toward` is the order at each green vertex's incidence on its edge toward
    the red part; `away` the order at the parent's incidence on that edge.
    The outward condition of a green vertex holds when `toward` equals its
    vertex order.
    """

    def __init__(self, n: int, rng: random.Random, kind: str = "caterpillar"):
        self.rng = rng
        self.n = n
        _, self.pedges = tree_shape(kind, n, rng)
        self.lab = _labels(n, rng, "G")
        self.parent = {b: a for a, b in self.pedges}
        self.kind = ["invariant"] * n
        self.red: set[int] = set()
        self.order = {i: rng.choice(_GREEN_ORDERS) for i in range(n)}
        self.edge_kind = {b: "singular" for _, b in self.pedges}
        self.red_edges: set[int] = set()
        self.fail: dict[int, str] = {}  # child -> "iso-parent" | "scan"

    def depth(self, i: int) -> int:
        d = 0
        while i in self.parent:
            i = self.parent[i]
            d += 1
        return d

    def spec(self) -> dict:
        rng, lab = self.rng, self.lab
        spec: dict = {"tree": Graph.make(lab, [(lab[a], lab[b]) for a, b in self.pedges]).to_json(),
                      "vertices": {}, "edges": {}}
        tdim = {}
        for i in range(self.n):
            if self.kind[i] == "dicritical":
                spec["vertices"][lab[i]] = {"kind": "dicritical"}
            elif i in self.red:
                tdim[i] = rng.choice([0, 1])
                spec["vertices"][lab[i]] = {"kind": "invariant",
                                            "holonomy": {"finite": False, "tdim": tdim[i]}}
            else:
                spec["vertices"][lab[i]] = {"kind": "invariant",
                                            "holonomy": {"finite": True, "order": self.order[i]}}
        for a, b in self.pedges:
            e = edge(lab[a], lab[b])
            kind = self.edge_kind[b]
            entry: dict = {"kind": kind}
            if kind == "singular":
                if b in self.red_edges:
                    entry["tdim"] = max(tdim[a], tdim[b], rng.choice([0, 1]))
                    entry["holonomy"] = {lab[a]: {"periodic": False}, lab[b]: {"periodic": False}}
                else:
                    entry["holonomy"] = {lab[a]: self._away(a, b), lab[b]: self._toward(b)}
            spec["edges"][edge_key(e)] = entry
        return spec

    def _toward(self, b: int) -> dict:
        if b in self.red:
            return {"periodic": True, "order": self.rng.choice([1, 2, 3])}
        n = self.order[b]
        if b in self.fail:
            return {"periodic": True, "order": self.rng.choice([d for d in _divisors(n) if d < n])}
        return {"periodic": True, "order": n}

    def _away(self, a: int, b: int) -> dict:
        if a in self.red:
            return {"periodic": True, "order": self.rng.choice([1, 2, 3])}
        n = self.order[a]
        mode = self.fail.get(b)
        if mode == "iso-parent":
            return {"periodic": True, "order": n}
        if mode == "scan":
            return {"periodic": True, "order": self.rng.choice([d for d in _divisors(n) if d < n])}
        return {"periodic": True, "order": self.rng.choice(_divisors(n))}


SCAN_FAILURES = 3  # failing vertices per type 1/2 spec whose witness needs the global scan


def green_injected_spec(gtype: int, n: int, rng: random.Random) -> dict:
    """One cut-component rooted at a red vertex, with a forbidden geodesic of
    the requested type.  Types 1 and 2 keep the red part connected and fail
    the outward condition at the injected vertex and at SCAN_FAILURES more
    vertices whose own geodesic matches no shape.  Types 3 and 4 add a second
    red vertex joined to the root by green elements only (adjacent for 4)."""
    while True:  # enough vertices at depth >= 2 for the injected failures
        b = _GreenBuilder(n, rng)
        deep = [i for i in range(1, n) if b.depth(i) >= 2]
        if len(deep) > SCAN_FAILURES + 1:
            break
    b.red.add(0)
    children = [c for p, c in b.pedges if p == 0]
    rng.shuffle(deep)
    if gtype == 1:
        b.fail[deep.pop()] = "iso-parent"
    elif gtype == 2:
        b.fail[rng.choice(children)] = "iso-parent"
    elif gtype == 3:
        b.red.add(deep.pop())
    elif gtype == 4:
        b.red.add(rng.choice(children))
    else:
        raise ValueError(f"unknown geodesic type {gtype}")
    if gtype in (1, 2):
        for _ in range(SCAN_FAILURES):
            b.fail[deep.pop()] = "scan"
    # with two red vertices the red part is disconnected, so no outward
    # condition is evaluated and the orders below the second one need no care
    return b.spec()


def green_finite_spec(n: int, rng: random.Random, entirely_green: bool = False) -> dict:
    """Several cut-components separated by dicritical vertices and nodal or
    regular edges; each has one red vertex (sometimes two joined by a red
    edge) and every outward condition holds, so the spec is of finite type.
    With entirely_green, the component holding the root has no red element."""
    b = _GreenBuilder(n, rng)
    cuts = max(1, round(0.08 * n))  # dicritical vertices, and as many nodal or regular edges
    for i in rng.sample(range(1, n), cuts):
        b.kind[i] = "dicritical"
    for _, c in rng.sample(b.pedges, cuts):
        b.edge_kind[c] = rng.choice(["nodal", "regular"])
    for a, c in b.pedges:
        if b.kind[a] == "dicritical" or b.kind[c] == "dicritical":
            b.edge_kind[c] = rng.choice(["nodal", "regular"])
    # cut-components: the topmost invariant vertex of each becomes red
    for i in range(n):
        if b.kind[i] == "dicritical":
            continue
        p = b.parent.get(i)
        top = p is None or b.kind[p] == "dicritical" or b.edge_kind[i] != "singular"
        if not top or (entirely_green and i == 0):
            continue
        b.red.add(i)
        kids = [c for q, c in b.pedges
                if q == i and b.kind[c] != "dicritical" and b.edge_kind[c] == "singular"]
        if kids and rng.random() < 0.5:
            c = rng.choice(kids)
            b.red.add(c)
            b.red_edges.add(c)
    return b.spec()


def witness_types(report: dict) -> set:
    return {w.get("type") for entry in report["components"] for w in entry["witnesses"]}


# ---------------------------------------------------------------------------
# finite group-graphs and the independent H0/H1 count oracle


def _group(name: str):
    return dict(generators.group_pool())[name]


def finite_group_graph(group: str, n_edges: int, cycle: bool, rng: random.Random) -> GroupGraph:
    """One group on every star, random automorphisms as restrictions, over a
    random tree with n_edges edges or a one-cycle graph with n_edges edges."""
    grp = _group(group)
    auts = generators.automorphisms_of(group, grp)
    n_vertices = n_edges if cycle else n_edges + 1
    lab = _labels(n_vertices, rng, "v")
    pairs = [(rng.randrange(i), i) for i in range(1, n_vertices)]
    if cycle:
        tree_adj = set(pairs)
        extra = [(a, b) for a in range(n_vertices) for b in range(a + 1, n_vertices)
                 if (a, b) not in tree_adj]
        pairs.append(rng.choice(extra))
    g = Graph.make(lab, [(lab[a], lab[b]) for a, b in pairs])
    restrictions = {
        (v, e): GroupHom(grp, grp, rng.choice(auts), validate=False) for v, e in g.incidences()
    }
    return GroupGraph(g, "finite", {v: grp for v in g.vertices}, {e: grp for e in g.edges},
                      restrictions)


def _eliminate(order: dict, edges: list, factor) -> int:
    """Sum over all vertex assignments of the product of edge factors
    factor(e, x_a, x_b), by eliminating the leaves of a spanning forest; on a
    graph with one cycle, the value at one endpoint of the extra edge is
    fixed in turn and the extra edge becomes a factor on the other."""
    vs = sorted(order)
    adj = {v: [] for v in vs}
    for e in edges:
        adj[e[0]].append(e)
        adj[e[1]].append(e)
    # a spanning forest by BFS; the one extra edge (if any) is conditioned on
    seen, tree = set(), []
    for root in vs:
        if root in seen:
            continue
        seen.add(root)
        queue = [root]
        while queue:
            cur = queue.pop()
            for e in adj[cur]:
                nxt = e[1] if e[0] == cur else e[0]
                if nxt not in seen:
                    seen.add(nxt)
                    tree.append(e)
                    queue.append(nxt)
    in_tree = set(tree)
    extra = [e for e in edges if e not in in_tree]
    if len(extra) > 1:
        raise ValueError("oracle handles at most one cycle")
    pinned = extra[0][0] if extra else None
    total = 0
    for xp in range(order[pinned]) if pinned else [None]:
        unary = {v: [1] * order[v] for v in vs}
        if pinned:
            unary[pinned] = [1 if x == xp else 0 for x in range(order[pinned])]
            a, b = extra[0]
            unary[b] = [unary[b][y] * factor(extra[0], xp, y) for y in range(order[b])]
        tadj = {v: [] for v in vs}
        for e in tree:
            tadj[e[0]].append(e)
            tadj[e[1]].append(e)
        alive = set(vs)
        result = 1
        while alive:
            v = next(u for u in sorted(alive) if len(tadj[u]) <= 1)
            alive.discard(v)
            if not tadj[v]:
                result *= sum(unary[v])
                continue
            e = tadj[v][0]
            w = e[1] if e[0] == v else e[0]
            msg = []
            for y in range(order[w]):
                s = 0
                for x in range(order[v]):
                    if unary[v][x]:
                        s += unary[v][x] * (factor(e, x, y) if e[0] == v else factor(e, y, x))
                msg.append(s)
            unary[w] = [unary[w][y] * msg[y] for y in range(order[w])]
            tadj[w].remove(e)
            tadj[v] = []
        total += result
    return total


def finite_counts(gg: GroupGraph) -> tuple[int, int]:
    """(|H0|, |H1|) by sum-product elimination, independent of the program's
    enumeration: H0 counts compatible families; H1 counts orbits by
    Burnside's lemma, the fixed points of a family factored per edge."""
    order = {v: gg.vobj[v].order for v in gg.base.vertices}
    edges = sorted(gg.base.edges)
    maps = {(v, e): gg.restrictions[(v, e)].data for e in edges for v in e}
    tables = {e: gg.eobj[e].table for e in edges}

    def compatible(e, xa, xb):
        return int(maps[(e[0], e)][xa] == maps[(e[1], e)][xb])

    def fixed(e, xa, xb):
        # tails t with ra^-1 t rb = t, i.e. t rb = ra t
        t_, ra, rb = tables[e], maps[(e[0], e)][xa], maps[(e[1], e)][xb]
        return sum(1 for t in range(len(t_)) if t_[t][rb] == t_[ra][t])

    c0 = 1
    for v in order:
        c0 *= order[v]
    burnside = _eliminate(order, edges, fixed)
    if burnside % c0:
        raise ValueError("Burnside sum not divisible by |C0|")
    return _eliminate(order, edges, compatible), burnside // c0


# ---------------------------------------------------------------------------
# the workloads


# Instances per pass of the costliest ops, where one pass holds only two of
# them: op_tail_ms is the 11th slowest op, which then falls inside a group of
# like ops rather than at its edge, even in a run of a few passes.
TOP_COPIES = 2


class Workload:
    name = ""

    def build(self, seed: int, p: int, workdir: str) -> list[Op]:
        """The ops of pass p, their inputs written to workdir."""
        raise NotImplementedError


def _check_analyze_finite(out: dict):
    if out["finite_type"] != "finite":
        return f"verdict {out['finite_type']!r}, expected 'finite'"
    if not isinstance(out["moduli_dim"], int):
        return f"moduli_dim {out['moduli_dim']!r} is not an integer"
    if out["characterization"] != {"status": "ok", "consistent": True}:
        return f"characterization {out['characterization']!r}"
    return None


class AnalyzeRed(Workload):
    name = "analyze-red"
    shapes = ("path", "star", "caterpillar", "random")
    # odd length, one op per shape and size: op_p50_ms falls inside the
    # 16-vertex rung, not on the edge between two rungs
    ladder = (6, 8, 11, 16, 23, 32, 45)

    def build(self, seed, p, workdir):
        ops = []
        for n in self.ladder:
            for kind in self.shapes:
                name = f"p{p}-{kind}-{n}"
                spec = red_core_spec(kind, n, seeded_rng(seed, self.name, name))
                ops.append(Op(name, ["analyze", "--input", _write(workdir, name, spec)],
                              n, 0, _check_analyze_finite))
        return ops


def _check_injected(gtype):
    def check(out):
        if out["finite_type"] != "not-finite":
            return f"verdict {out['finite_type']!r}, expected 'not-finite'"
        if gtype not in witness_types(out):
            return f"no type {gtype} witness among {sorted(map(str, witness_types(out)))}"
        if out["characterization"] != {"status": "ok", "consistent": True}:
            return f"characterization {out['characterization']!r}"
        return None
    return check


def _check_entirely_green(out):
    if out["characterization"]["status"] != "hypothesis-violated" or not out["entirely_green"]:
        return "entirely green component not reported"
    return None


class AnalyzeGreen(Workload):
    name = "analyze-green"
    ladder = (12, 17, 24, 34, 48, 68, 96)
    green_rungs = (17, 48)  # one entirely green spec each, exit code 3

    def build(self, seed, p, workdir):
        ops = []
        for n in self.ladder:
            for gtype in (1, 2, 3, 4):
                # types 1 and 2 rescan per failing vertex: the costliest ops
                top = n == self.ladder[-1] and gtype in (1, 2)
                for c in range(TOP_COPIES if top else 1):
                    name = f"p{p}-inject{gtype}-{n}" + (f"-{c}" if c else "")
                    spec = green_injected_spec(gtype, n, seeded_rng(seed, self.name, name))
                    ops.append(Op(name, ["analyze", "--input", _write(workdir, name, spec)],
                                  n, 0, _check_injected(gtype)))
            name = f"p{p}-finite-{n}"
            spec = green_finite_spec(n, seeded_rng(seed, self.name, name))
            ops.append(Op(name, ["analyze", "--input", _write(workdir, name, spec)], n, 0,
                          _check_analyze_finite))
            if n in self.green_rungs:
                name = f"p{p}-green-{n}"
                spec = green_finite_spec(n, seeded_rng(seed, self.name, name), entirely_green=True)
                ops.append(Op(name, ["analyze", "--input", _write(workdir, name, spec)], n, 3,
                              _check_entirely_green))
        return ops


def _check_cohomology(h0_order, h1_count):
    def check(out):
        if out["h0"]["order"] != h0_order:
            return f"|H0| {out['h0']['order']}, oracle {h0_order}"
        if out["h1"]["count"] != h1_count:
            return f"|H1| {out['h1']['count']}, oracle {h1_count}"
        if len(out["h1"]["representatives"]) != h1_count:
            return "representative count differs from the class count"
        return None
    return check


class CohomologyFinite(Workload):
    name = "cohomology-finite"
    # (group, edge counts): |Z1| = |G|^edges, from about 10^2 to 10^4
    ladder = (
        ("Z4", (3, 4, 5)),
        ("V4", (3, 4, 5)),
        ("Z5", (2, 3, 4)),
        ("Z2xZ4", (2, 3, 4)),
        ("D3", (2, 3, 4)),
        ("D4", (2, 3, 4)),
    )

    def build(self, seed, p, workdir):
        orders = {group: _group(group).order for group, _ in self.ladder}
        top_z1 = max(orders[g] ** max(ns) for g, ns in self.ladder)
        ops = []
        for gi, (group, edge_counts) in enumerate(self.ladder):
            for n_edges in edge_counts:
                z1 = orders[group] ** n_edges
                for c in range(TOP_COPIES if z1 == top_z1 else 1):
                    cycle = n_edges >= 3 and (p + gi + n_edges + c) % 2 == 1
                    name = f"p{p}-{group}-{'cycle' if cycle else 'tree'}-{n_edges}"
                    gg = finite_group_graph(group, n_edges, cycle,
                                            seeded_rng(seed, self.name, name))
                    h0_order, h1_count = finite_counts(gg)
                    ops.append(Op(name, ["cohomology", "--mode", "bruteforce", "--input",
                                         _write(workdir, name, gg.to_json())],
                                  z1, 0, _check_cohomology(h0_order, h1_count)))
        return ops


def _check_selfcheck(out):
    if "failing_instance" in out:
        return f"failing instance {out['failing_instance']}"
    bad = [k for k, v in out["families"].items() if v["fail"]]
    return f"families with failures: {bad}" if bad else None


def regular_finite_work(s: int, count: int) -> int:
    """Exact orbit-search work of the regular_finite family of `selfcheck
    --seed s --count count`: sum over its instances of |Z1| * sum(|G_v| - 1).
    It predicts that family's brute-force cost, which dominates the op."""
    from groupgraph import cli

    total = 0
    for i in range(count):
        g = generators.random_regular_finite(cli._rng(s, "regular_finite", i),
                                             max_vertices=5, max_order=8)
        z1 = math.prod(g.eobj[e].order for e in g.base.edges)
        total += z1 * sum(g.vobj[v].order - 1 for v in g.base.vertices)
    return total


class Selfcheck(Workload):
    """Selfcheck ops over a ladder of --count values.

    The regular_finite family has a heavy tail: about 1.4% of its instances
    cost 0.6-1.4 s, the median about 1 ms, and together they take most of a
    selfcheck's time.  Left to chance, how many heavy instances a run draws
    would decide its numbers.  So each op's seed is the candidate of a
    seeded pool whose exact regular_finite work (above) is closest to
    count x the mean work per instance, the mean taken over a fixed reference
    sample: every op carries the family's expected brute-force work, and op
    latency follows --count rather than the luck of the draw.
    """

    name = "selfcheck"
    ladder = (1, 2, 3, 5, 8)  # odd length: the median op sits mid-ladder
    POOL = 32  # candidates per op drawn
    REFERENCE = 4000  # seeds in the fixed sample that sets the mean work
    _mean = None

    def build(self, seed, p, workdir):
        if self._mean is None:
            self._mean = statistics.fmean(regular_finite_work(s, 1) for s in range(self.REFERENCE))
        ops = []
        for count in self.ladder:
            rng = seeded_rng(seed, self.name, count, p)
            pool = [rng.randrange(self.REFERENCE, 10**9) for _ in range(self.POOL)]
            target = math.log(count * self._mean)
            s = min(pool, key=lambda s: (abs(math.log(1 + regular_finite_work(s, count)) - target), s))
            ops.append(Op(f"p{p}-s{s}-c{count}",
                          ["selfcheck", "--seed", str(s), "--count", str(count)],
                          count, 0, _check_selfcheck))
        return ops


WORKLOADS = {w.name: w for w in (AnalyzeRed(), AnalyzeGreen(), CohomologyFinite(), Selfcheck())}
