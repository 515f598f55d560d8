import random
import time
from fractions import Fraction

import pytest

from conftest import (
    dense_rref, greedy_extend_to_basis, in_span, rank_mod_p, solve, vector_gg,
)
from groupgraph import linalg
from groupgraph.cohomology import h1_vector
from groupgraph.generators import random_regular_vector, random_tree, random_vector_group_graph
from groupgraph.group_graph import _difference_map


def F(x):
    return Fraction(x)


def test_rref_and_rank():
    m = linalg.mat([[1, 2], [2, 4]])
    r, pivots = linalg.rref(m)
    assert pivots == [0]
    assert linalg.rank(m) == 1
    assert linalg.rank(linalg.mat([[1, 0], [0, 1]])) == 2
    assert linalg.rank([]) == 0


def test_kernel_basis():
    # kernel of [1, -2] is spanned by (2, 1)
    basis = linalg.kernel_basis(linalg.mat([[1, -2]]), 2)
    assert len(basis) == 1
    v = basis[0]
    assert v[0] - 2 * v[1] == 0


def test_solve():
    m = linalg.mat([[2, 0], [0, 3]])
    assert solve(m, [F(4), F(9)], 2) == [F(2), F(3)]
    assert solve(linalg.mat([[1], [1]]), [F(1), F(2)], 1) is None


def test_in_span():
    assert in_span([[F(1), F(0)]], [F(3), F(0)])
    assert not in_span([[F(1), F(0)]], [F(0), F(1)])
    assert in_span([], [F(0), F(0)])
    assert not in_span([], [F(1), F(0)])


def test_quotient_map_kills_exactly_the_subspace():
    sub = [[F(1), F(1), F(0)]]
    q = linalg.kernel_basis(sub, 3)  # the quotient map's rows
    assert len(q) == 2
    assert all(x == 0 for x in linalg.mat_vec(q, sub[0]))
    # composed with the section it is the identity on the quotient
    s = linalg.quotient_section(sub, 3)
    qs = linalg.mat_mul(q, s)
    assert qs == linalg.identity(2)


def h1_free_positions(vectors, dim):
    """`h1_vector`'s free positions on one edge (a, b) with G_e = Q^dim,
    G_a = Q^len(vectors) and G_b = 0, where rho_a has the vectors as its
    columns, so B1 = span(vectors)."""
    rho_a = [[v[i] for v in vectors] for i in range(dim)]
    g = vector_gg(["a", "b"], [("a", "b")], {"a": len(vectors), "b": 0}, {("a", "b"): dim},
                  {("a", ("a", "b")): rho_a})
    return h1_vector(g)._b1_echelon[1]


def test_h1_free_positions_are_deterministic():
    got = h1_free_positions([[F(1), F(1), F(0)]], 3)
    assert got == [0, 2]  # e0 raises the rank, e1 does not after e0, e2 does


def random_vectors(rng, dim):
    """Sparse rational vectors, with zero vectors and combinations of earlier ones."""
    vectors = []
    for _ in range(rng.randint(0, dim + 2)):
        kind = rng.random()
        if kind < 0.1:
            v = [F(0)] * dim
        elif kind < 0.35 and vectors:
            a, b = rng.choice(vectors), rng.choice(vectors)
            c = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
            v = [x + c * y for x, y in zip(a, b)]
        else:
            v = [Fraction(rng.randint(-3, 3), rng.randint(1, 4)) if rng.random() < 0.4 else F(0)
                 for _ in range(dim)]
        vectors.append(v)
    return vectors


def test_h1_free_positions_match_greedy_oracle():
    rng = random.Random(20211005)
    cases = [([], 0), ([], 1), ([[F(0)]], 1), ([[F(2)]], 1), ([[F(0), F(0)]], 2),
             (linalg.identity(4), 4), ([[F(1), F(2), F(3)], [F(2), F(4), F(6)]], 3)]
    cases += [(random_vectors(rng, dim), dim) for dim in (0, 1) for _ in range(20)]
    cases += [(random_vectors(rng, dim), dim) for _ in range(300)
              for dim in [rng.randint(2, 7)]]
    # full rank: the span is all of Q^dim and nothing is added
    cases += [(linalg.mat([[rng.randint(-2, 2) for _ in range(d)] for _ in range(d)]), d)
              for d in (2, 3, 4) for _ in range(20)]
    full_rank = 0
    for vectors, dim in cases:
        got = h1_free_positions(vectors, dim)
        assert got == greedy_extend_to_basis(vectors, dim), (vectors, dim)
        assert linalg.rank(vectors) + len(got) == dim
        full_rank += dim > 0 and got == []
    assert full_rank > 10


def test_kron_shapes():
    a = linalg.mat([[2]])
    out = linalg.kron(a, (1, 1), linalg.identity(3), (3, 3))
    assert out == linalg.mat([[2, 0, 0], [0, 2, 0], [0, 0, 2]])
    out = linalg.kron([], (0, 1), linalg.identity(2), (2, 2))
    assert out == []


def test_rank_mod_p():
    assert rank_mod_p([[2, 0], [0, 2]], 2) == 0
    assert rank_mod_p([[2, 0], [0, 2]], 3) == 2
    assert rank_mod_p([[1, 1], [1, 1]], 5) == 1


def test_frac_json_round_trip():
    vals = [F(3), Fraction(1, 2), F(-7)]
    encoded = [linalg.frac_to_json(v) for v in vals]
    assert encoded == [3, "1/2", -7]
    assert [linalg.frac(v) for v in encoded] == vals


def test_frac_rejects_bool():
    # JSON true is not the number 1
    for x in (True, False, 0.5):
        with pytest.raises(TypeError):
            linalg.frac(x)


def test_frac_reads_only_the_integer_and_ratio_strings_it_writes():
    # Fraction alone reads "1e10000000" as 10**10000000, which takes seconds
    for x in ("1e10000000", "1.5", " 1", "1/-2", "0x1", "inf"):
        start = time.perf_counter()
        with pytest.raises(ValueError):
            linalg.frac(x)
        assert time.perf_counter() - start < 1
    assert [linalg.frac(x) for x in ("-3", "+4", "6/4")] == [F(-3), F(4), Fraction(3, 2)]


def sparse(m):
    return [{j: x for j, x in enumerate(row) if x} for row in m]


def tree_with_cycles(rng, n, extra):
    """Difference-map shaped rows over a random tree on n vertices plus
    `extra` random edges (cycles), with random nonzero coefficients."""
    edges = [(rng.randrange(i), i) for i in range(1, n)]
    edges += [tuple(rng.sample(range(n), 2)) for _ in range(extra if n > 1 else 0)]
    rows = []
    for a, b in edges:
        row = [F(0)] * n
        row[a] = Fraction(rng.choice([-2, -1, 1, 3]), rng.randint(1, 2))
        row[b] = Fraction(rng.choice([-1, 1, 2]), rng.randint(1, 3))
        rows.append(row)
    return rows


def test_sparse_rank_matches_dense_rank():
    rng = random.Random(20611961)
    cases = [[], [[]], [[], []], [[F(0)] * 4] * 3, linalg.zeros(2, 5), linalg.zeros(0, 3),
             linalg.identity(5), [[F(1), F(2)], [F(2), F(4)]]]
    cases += [linalg.zeros(0, n) for n in range(4)] + [linalg.zeros(n, 0) for n in range(4)]
    # sparse and dependent rows (random_vectors mixes in combinations and zeros)
    cases += [random_vectors(rng, rng.randint(1, 8)) for _ in range(300)]
    cases += [[[Fraction(rng.randint(-2, 2)) for _ in range(c)] for _ in range(r)]
              for _ in range(100) for r, c in [(rng.randint(1, 6), rng.randint(1, 6))]]
    cases += [tree_with_cycles(rng, rng.randint(1, 12), extra)
              for extra in (0, 0, 1, 2, 5) for _ in range(40)]
    positive = 0
    for m in cases:
        want = linalg.rank(m)
        assert linalg.sparse_rank(sparse(m)) == want, m
        # the rank of the transpose is the same number
        ncols = len(m[0]) if m else 0
        assert linalg.sparse_rank(sparse(linalg.transpose(m, ncols))) == want, m
        positive += want > 0
    assert positive > 500


def test_sparse_rank_keeps_its_input_and_densifies_back():
    rows = [{0: F(1), 2: F(-1)}, {1: F(2)}, {}]
    copy = [dict(r) for r in rows]
    assert linalg.sparse_rank(rows) == 2
    assert rows == copy
    assert linalg.dense(rows, 3) == linalg.mat([[1, 0, -1], [0, 2, 0], [0, 0, 0]])
    assert linalg.dense([], 3) == []


def test_sparse_rank_on_a_long_path_is_fast_and_exact():
    # a 20,000-vertex path: leaf-first pivots leave no fill-in
    n = 20000
    rows = [{i: F(1), i + 1: F(-1)} for i in range(n - 1)]
    assert linalg.sparse_rank(rows) == n - 1
    assert linalg.sparse_rank(rows + [{0: F(1), n - 1: F(-1)}]) == n - 1  # closing the cycle


def test_rref_matches_the_dense_oracle():
    rng = random.Random(5141)
    cases = [[], [[]], [[], []], [[F(0)] * 4] * 3, linalg.identity(4),
             [[F(1), F(2)], [F(2), F(4)]]]
    cases += [linalg.zeros(0, n) for n in range(4)] + [linalg.zeros(n, 0) for n in range(4)]
    cases += [linalg.zeros(r, c) for r in range(1, 4) for c in range(1, 4)]
    cases += [random_vectors(rng, rng.randint(1, 8)) for _ in range(200)]  # sparse
    cases += [[[Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(c)]
               for _ in range(r)]
              for _ in range(150) for r, c in [(rng.randint(1, 7), rng.randint(1, 7))]]  # dense
    cases += [tree_with_cycles(rng, rng.randint(1, 10), extra)
              for extra in (0, 2) for _ in range(30)]
    for seed in range(60):  # difference maps of generated group-graphs, and their transposes
        grng = random.Random(seed)
        if seed % 2:
            g = random_vector_group_graph(grng, random_tree(grng, grng.randint(2, 6)))
        else:
            g = random_regular_vector(grng, max_vertices=6)
        rows, _, ncols, _ = _difference_map(g, g.base)
        m = linalg.dense(rows, ncols)
        cases += [m, linalg.transpose(m, ncols)]
    pivoted = 0
    for m in cases:
        before = repr(m)
        got, want = linalg.rref(m), dense_rref(m)
        assert repr(got) == repr(want), m  # the same rationals, of the same types
        assert repr(m) == before  # the input is not modified
        pivoted += bool(got[1])
    assert pivoted > 400
