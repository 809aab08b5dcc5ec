import random
from collections import Counter
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from spinfill.diagram import white_graph
from spinfill.errors import CertificationFailure, Singular
from spinfill.exactalg import (_characteristic_supports, goeritz, hnf_basis,
                               hnf_reduce, signature)
from spinfill.graphs import MarkedGraph

from conftest import (banana_graph, special44_graph, path_hub_graph, refused,
                      two33_graph)
from oracles import (adjugate, det_exact, edge_multiplicity,
                     gen_plane_multigraph, matvec, quadform_q,
                     signature_by_fractions, solve_rational,
                     spanning_tree_count)


def test_det_examples():
    assert det_exact([[-4, 1], [1, -4]]) == 15
    assert det_exact([[1, 0, 0], [0, 1, 0], [0, 0, 1]]) == 1
    # tridiagonal continuant for the (-4,-2,-5,-2) chain
    path = [[-4, 1, 0, 0], [1, -2, 1, 0], [0, 1, -5, 1], [0, 0, 1, -2]]
    assert det_exact(path) == 55


def test_det_continuant_recurrence():
    weights = [-4, -2, -5, -2]
    d_prev, d_cur = 1, weights[0]
    for w in weights[1:]:
        d_prev, d_cur = d_cur, w * d_cur - d_prev
    assert d_cur == 55


def test_det_nonsquare():
    with refused("^matrix is not square$"):
        det_exact([[1, 2, 3], [4, 5, 6]])


def test_signature_examples():
    assert signature([[-4, 1], [1, -4]]) == (0, 2, 0)
    assert signature([[1, 0, 0], [0, 1, 0], [0, 0, 1]]) == (3, 0, 0)
    assert signature([[0, 1], [1, 0]]) == (1, 1, 0)
    assert signature([[0, 0], [0, 0]]) == (0, 0, 2)
    with refused("^matrix is not symmetric$"):
        signature([[0, 1], [2, 0]])


@st.composite
def degenerate_symmetric_matrices(draw):
    """Symmetric integer matrices with n <= 8, with some diagonal entries
    and some whole rows and columns forced to zero."""
    n = draw(st.integers(1, 8))
    m = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            m[i][j] = m[j][i] = draw(st.integers(-4, 4))
    for i in draw(st.sets(st.integers(0, n - 1))):
        m[i][i] = 0
    for i in draw(st.sets(st.integers(0, n - 1), max_size=2)):
        for j in range(n):
            m[i][j] = m[j][i] = 0
    return m


@given(degenerate_symmetric_matrices())
@settings(max_examples=200, deadline=None)
def test_signature_matches_fraction_elimination(m):
    assert signature(m) == signature_by_fractions(m)


def random_unimodular(rng, n):
    """A product of random column additions, swaps and sign changes."""
    u = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(2 * n):
        i, j = rng.sample(range(n), 2) if n > 1 else (0, 0)
        move = rng.randrange(3)
        c = rng.choice((-2, -1, 1, 2))
        for row in u:
            if move == 0 and i != j:
                row[j] += c * row[i]
            elif move == 1:
                row[i], row[j] = row[j], row[i]
            else:
                row[i] = -row[i]
    return u


@given(degenerate_symmetric_matrices(), st.randoms(use_true_random=False))
@settings(max_examples=100, deadline=None)
def test_signature_is_a_congruence_invariant(m, rng):
    n = len(m)
    u = random_unimodular(rng, n)
    mu = [[sum(m[i][k] * u[k][j] for k in range(n)) for j in range(n)]
          for i in range(n)]
    t = [[sum(u[k][i] * mu[k][j] for k in range(n)) for j in range(n)]
         for i in range(n)]
    assert abs(det_exact(u)) == 1
    assert signature(t) == signature(m)


def test_signature_takes_every_repair():
    # swap in a later diagonal entry, add a row and column, drop a zero;
    # the random cases also take them after pivots other than 1
    cases = [[[0, 0], [0, 1]], [[0, 1], [1, 0]], [[0, 0], [0, 0]]]
    rng = random.Random(3)
    for _ in range(300):
        n = rng.randint(2, 7)
        m = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                m[i][j] = m[j][i] = rng.choice((0, 0, 1, -1, 2, -3))
            if rng.random() < 0.5:
                m[i][i] = 0
        cases.append(m)
    repairs = Counter()
    for m in cases[:3]:
        before = sum(repairs.values())
        assert signature(m) == signature_by_fractions(m, repairs)
        assert sum(repairs.values()) > before
    assert set(repairs) == {"swap", "add", "zero"}
    for m in cases[3:]:
        assert signature(m) == signature_by_fractions(m, repairs), m
    assert min(repairs.values()) >= 10, repairs


def test_solve_examples():
    assert solve_rational([[-2, 1], [1, -2]], (0, 0)) == (0, 0)
    assert solve_rational([[-3]], (3,)) == (Fraction(-1),)
    assert solve_rational([[-4, 1], [1, -4]], (1, 1)) == \
        (Fraction(-1, 3), Fraction(-1, 3))
    with pytest.raises(Singular):
        solve_rational([[1, 1], [1, 1]], (1, 0))


def test_quadform_examples():
    assert quadform_q([[-3]], (0,)) == 0
    assert quadform_q([[-3]], (1,)) == Fraction(-1, 3)
    assert quadform_q([[-4, 1], [1, -4]], (2, 0)) == Fraction(-16, 15)


def characteristic_supports_by_search(m, labels):
    """Every y in {0,1}^n with M y = diag(M) mod 2, as the labels where y
    is 1, in the library's order: by size, then by the labels' strings."""
    out = [tuple(v for v, bit in zip(labels, y) if bit)
           for y in product((0, 1), repeat=len(m))
           if all((sum(x * b for x, b in zip(row, y)) - row[i]) % 2 == 0
                  for i, row in enumerate(m))]
    out.sort(key=lambda t: (len(t), tuple(map(str, t))))
    return out


def test_gf2_examples():
    assert _characteristic_supports([[-3]], "a") == [("a",)]
    assert _characteristic_supports([[-2]], "a") == [(), ("a",)]
    assert _characteristic_supports([[0, 0], [0, 0]], "ab") == \
        [(), ("a",), ("b",), ("a", "b")]
    assert _characteristic_supports([[0, 1], [1, 0]], "ab") == [()]
    assert _characteristic_supports([[1, 1], [1, 1]], "ab") == \
        [("a",), ("b",)]
    # all-odd diagonals: with even entries off it, M is the identity
    # mod 2 and y is all ones, its labels kept in matrix order
    m = [[-3, 2, 0], [2, -5, 2], [0, 2, -1]]
    assert _characteristic_supports(m, (2, 0, 1)) == [(2, 0, 1)]
    assert _characteristic_supports([[1] * 3] * 3, "abc") == \
        [("a",), ("b",), ("c",), ("a", "b", "c")]
    # a non-symmetric M can leave the system without a solution
    with pytest.raises(CertificationFailure):
        _characteristic_supports([[1, 0], [1, 0]], "ab")


@st.composite
def labelled_symmetric_matrices(draw):
    n = draw(st.integers(1, 8))
    m = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            m[i][j] = m[j][i] = draw(st.integers(-5, 5))
    labels = draw(st.lists(st.integers(0, 99), min_size=n, max_size=n,
                           unique=True))
    return m, tuple(labels)


@given(labelled_symmetric_matrices())
@settings(max_examples=150, deadline=None)
def test_gf2_solutions_satisfy_system(case):
    m, labels = case
    assert _characteristic_supports(m, labels) == \
        characteristic_supports_by_search(m, labels)


def test_goeritz_examples():
    g = goeritz(special44_graph())
    assert g.matrix == ((-4, 1), (1, -4))
    g = goeritz(two33_graph())
    assert g.matrix == ((-3, 1), (1, -3))
    g = goeritz(banana_graph(3))
    assert g.matrix == ((-3,),)
    g = goeritz(path_hub_graph())
    assert g.diagonal == (-4, -2, -5, -2)


def test_goeritz_counts_parallel_edges():
    """Off the diagonal, the count of edges joining each pair of
    unmarked vertices, wherever the marked vertex sits in the order."""
    rng = random.Random(5)
    for _ in range(60):
        g = gen_plane_multigraph(rng, rng.randint(2, 8), rng.randint(0, 10))
        w = MarkedGraph(g.vertices, g.edges, marked=rng.choice(g.vertices))
        mult = edge_multiplicity(w)
        form = goeritz(w)
        order = tuple(v for v in w.vertices if v != w.marked)
        assert form.vertex_order == order
        assert form.matrix == tuple(
            tuple(-w.degree(u) if u == v else mult[frozenset((u, v))]
                  for v in order) for u in order)


def test_spanning_tree_examples():
    tri = MarkedGraph((0, 1, 2), ((0, 1, 0), (1, 2, 1), (0, 2, 2)))
    assert spanning_tree_count(tri) == 3
    assert spanning_tree_count(banana_graph(3)) == 3
    assert spanning_tree_count(special44_graph()) == 15
    with refused("^spanning trees need a connected graph$"):
        spanning_tree_count(MarkedGraph((0, 1, 2), ((0, 1, 0),)))


def test_tree_count_matches_det(all_diagrams):
    for name, kd in all_diagrams:
        white = white_graph(kd)
        g = goeritz(white)
        assert spanning_tree_count(white) == abs(det_exact(g.matrix)), name


def test_goeritz_negative_definite(all_diagrams):
    for name, kd in all_diagrams:
        white = white_graph(kd)
        g = goeritz(white)
        assert signature(g.matrix) == (0, g.m, 0), name


@given(st.integers(0, 10 ** 6))
@settings(max_examples=100, deadline=None)
def test_laplacian_sum_identity(seed):
    """y^T G y equals minus the sum of squared differences over edges,
    with the marked coordinate pinned to zero."""
    rng = random.Random(seed)
    w = gen_plane_multigraph(rng, rng.randint(2, 7), rng.randint(0, 6))
    g = goeritz(w)
    y = {v: rng.randint(-4, 4) for v in w.vertices}
    y[w.marked] = 0
    vec = [y[v] for v in g.vertex_order]
    lhs = sum(vi * x for vi, x in zip(vec, matvec(g.matrix, vec)))
    rhs = -sum((y[u] - y[v]) ** 2 for (u, v, _) in w.edges)
    assert lhs == rhs


@given(st.integers(0, 10 ** 6))
@settings(max_examples=50, deadline=None)
def test_quadform_negative(seed):
    rng = random.Random(seed)
    w = gen_plane_multigraph(rng, rng.randint(2, 6), rng.randint(0, 5))
    g = goeritz(w)
    v = [rng.randint(-5, 5) for _ in range(g.m)]
    q = quadform_q(g, v)
    if any(v):
        assert q < 0
    else:
        assert q == 0


@given(st.integers(0, 10 ** 6))
@settings(max_examples=50, deadline=None)
def test_hnf_reduction_is_canonical(seed):
    rng = random.Random(seed)
    w = gen_plane_multigraph(rng, rng.randint(2, 6), rng.randint(0, 5))
    g = goeritz(w)
    h = hnf_basis([list(row) for row in g.matrix])
    for i in range(g.m):
        for j in range(i + 1, g.m):
            assert h[j][i] == 0
        assert h[i][i] > 0
    v = tuple(rng.randint(-9, 9) for _ in range(g.m))
    red = hnf_reduce(v, h)
    # reducing twice is stable and shifting by a lattice vector is absorbed
    assert hnf_reduce(red, h) == red
    k = [rng.randint(-2, 2) for _ in range(g.m)]
    shifted = tuple(v[i] + sum(h[i][j] * k[j] for j in range(g.m))
                    for i in range(g.m))
    assert hnf_reduce(shifted, h) == red


def assert_adjugate(m):
    adj, det = adjugate(m)
    n = len(m)
    assert det == det_exact(m)
    for i in range(n):
        for j in range(n):
            assert sum(m[i][k] * adj[k][j] for k in range(n)) == \
                (det if i == j else 0)


def test_adjugate_examples():
    assert adjugate([[-4, 1], [1, -4]]) == (((-4, -1), (-1, -4)), 15)
    assert adjugate([[0, 2], [3, 0]]) == (((0, -2), (-3, 0)), -6)
    with pytest.raises(Singular):
        adjugate([[1, 2], [2, 4]])


@given(st.integers(0, 10 ** 6))
@settings(max_examples=60, deadline=None)
def test_adjugate_of_goeritz_form(seed):
    rng = random.Random(seed)
    w = gen_plane_multigraph(rng, rng.randint(2, 5), rng.randint(0, 4))
    assert_adjugate(goeritz(w).matrix)


@given(st.integers(0, 10 ** 6))
@settings(max_examples=60, deadline=None)
def test_adjugate_with_row_swaps(seed):
    rng = random.Random(seed)
    n = rng.randint(1, 5)
    m = [[rng.choice((0, 0, 1, -1, 2, -3)) for _ in range(n)]
         for _ in range(n)]
    if det_exact(m) == 0:
        with pytest.raises(Singular):
            adjugate(m)
    else:
        assert_adjugate(m)


@given(st.integers(1, 5).flatmap(lambda n: st.lists(
    st.lists(st.integers(-6, 6), min_size=n, max_size=n),
    min_size=n, max_size=n)))
@settings(max_examples=80, deadline=None)
def test_hnf_basis_commutes_with_doubling(m):
    # canonical keys reduce modulo 2 GoeritzForm.hermite on this identity
    assume(det_exact(m) != 0)
    doubled = hnf_basis([[2 * x for x in row] for row in m])
    assert doubled == tuple(tuple(2 * x for x in row) for row in hnf_basis(m))
