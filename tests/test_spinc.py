import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinfill.diagram import (diagram_from_plane_graph, parse_pd,
                              state_covectors, white_graph)
from spinfill.errors import CertificationFailure, Singular
from spinfill.exactalg import GoeritzForm, goeritz, matvec, signature
from spinfill.graphs import parse_graph_doc
from spinfill.plumbing import PlumbingTree, linear_tree
from spinfill.spinc import (characteristic_subgraphs, cut_size, d_invariant,
                            enumerate_spinc, obstruction_report, spin_class)

from conftest import (PD_CODES, banana_graph, brute_force_class_maxima,
                      path_hub_graph, special44_graph, two33_graph,
                      white_data)
from oracles import (ZigzagKernel, box_keys, d_by_search, det_exact,
                     furuta_check, gen_plane_multigraph, mirror, mu_bar,
                     orbit_max_q, quadform_q, same_class)
from test_golden import corpus


def form(graph):
    return goeritz(graph)


def test_enumerate_minus3():
    g = form(banana_graph(3))
    classes = enumerate_spinc(g)
    assert [c.canonical_key for c in classes] == [(1,), (3,), (5,)]
    assert sorted(str(c.d) for c in classes) == ["-1/2", "1/6", "1/6"]
    sc = spin_class(classes)
    assert sc.d == Fraction(-1, 2) and sc.canonical_key == (3,)


def test_enumerate_minus2():
    g = form(banana_graph(2))
    classes = enumerate_spinc(g)
    assert len(classes) == 2
    assert sorted(c.d for c in classes) == [Fraction(-1, 4), Fraction(1, 4)]
    # even determinant: no coker identification
    assert all(c.c1_class is None for c in classes)


def test_enumerate_special44():
    g = form(special44_graph())
    classes = enumerate_spinc(g)
    assert len(classes) == 15
    assert spin_class(classes).d == Fraction(1, 2)  # m/4 with q(0) = 0


def test_class_count_matches_det(all_diagrams):
    for name, kd in all_diagrams:
        white = white_graph(kd)
        g = form(white)
        assert len(enumerate_spinc(g)) == abs(det_exact(g.matrix)), name


def test_same_class_examples():
    g = form(banana_graph(3))
    assert same_class(g, (1,), (7,))       # differ by 6 = 2 * 3
    assert not same_class(g, (1,), (3,))
    assert not same_class(g, (1,), (2,))   # parity mismatch


def test_d_against_box_oracle(all_diagrams):
    checked = 0
    for name, kd in all_diagrams:
        white = white_graph(kd)
        g = form(white)
        if g.m > 2 or abs(det_exact(g.matrix)) > 16:
            continue
        oracle = brute_force_class_maxima(g)
        classes = enumerate_spinc(g)
        assert len(oracle) == len(classes), name
        for c in classes:
            assert oracle[c.canonical_key] == 4 * c.d - g.m, (name, c)
        checked += 1
    assert checked >= 5


def test_greene_max_on_states(all_diagrams):
    for name, kd in all_diagrams:
        if kd.n > 8:
            continue
        white, covs = state_covectors(kd)
        g = form(white)
        classes = enumerate_spinc(g, covectors=covs)
        for c in classes:
            vec = covs[c.state_index]
            assert quadform_q(g, vec) == 4 * c.d - g.m, name


def test_greene_max_on_ten_crossing_chain():
    from spinfill.diagram import diagram_from_plane_graph
    kd = parse_pd(diagram_from_plane_graph(path_hub_graph()))
    assert kd.n == 10
    white, covs = state_covectors(kd)
    g = form(white)
    classes = enumerate_spinc(g, covectors=covs)
    assert len(classes) == 55
    for c in classes:
        assert quadform_q(g, covs[c.state_index]) == 4 * c.d - g.m
    assert {c.canonical_key: c.d for c in classes} == d_by_search(g)


def test_state_table_matches_search_at_every_arc():
    for name, pd in PD_CODES.items():
        for arc in parse_pd({"pd": pd}).arcs:
            white, covs = state_covectors(
                parse_pd({"pd": pd, "marked_arc": arc}))
            g = form(white)
            classes = enumerate_spinc(g, covectors=covs)
            assert {c.canonical_key: c.d for c in classes} \
                == d_by_search(g), (name, arc)


def test_state_attachment_detects_wrong_covectors():
    kd = parse_pd({"pd": PD_CODES["trefoil"]})
    white, covs = state_covectors(kd)
    g = form(white)
    with pytest.raises(CertificationFailure):
        enumerate_spinc(g, covectors=[covs[0]] * len(covs))


def test_certification_failure_names_stage():
    kd = parse_pd({"pd": PD_CODES["trefoil"]})
    white, covs = state_covectors(kd)
    g = form(white)
    a = [[-x for x in row] for row in g.matrix]

    def shifted(si):
        # the state covector moved inside its own orbit, off the maximum
        vec = [x + 2 * y for x, y in zip(covs[si], a[0])]
        assert quadform_q(g, vec) < quadform_q(g, covs[si])
        return covs[:si] + [vec] + covs[si + 1:]

    # state 0 has a conjugate class, whose state keeps the maximum
    with pytest.raises(CertificationFailure) as exc:
        enumerate_spinc(g, covectors=shifted(0))
    assert str(exc.value) == (
        "spinc.enumerate_spinc: states 0 and 2 of conjugate classes give "
        "different d (rank 2, det 3)")
    with pytest.raises(CertificationFailure, match=r"^spinc\.enumerate_spinc: "
                       r"states do not biject .* \(rank 2, det 3\)$"):
        enumerate_spinc(g, covectors=covs[:-1])

    # state 1 belongs to the spin class, its own conjugate: the default
    # path cannot see the fault, the per-class search can
    classes = enumerate_spinc(g, covectors=shifted(1))
    assert spin_class(classes).state_index == 1
    table = {c.canonical_key: c.d for c in classes}
    search = d_by_search(g)
    assert [k for k in search if table[k] != search[k]] \
        == [spin_class(classes).canonical_key]


def test_characteristic_examples():
    assert [c.vertices for c in characteristic_subgraphs(banana_graph(3))] \
        == [(1,)]
    tri_kd = parse_pd({"pd": PD_CODES["trefoil"]})
    white = white_graph(tri_kd)
    assert [c.vertices for c in characteristic_subgraphs(white)] == [()]
    subs = characteristic_subgraphs(two33_graph())
    assert [c.vertices for c in subs] == [("a",), ("b",)]
    assert all(c.cut == 3 for c in subs)


def test_characteristic_counts_random():
    rng = random.Random(11)
    for _ in range(120):
        w = gen_plane_multigraph(rng, rng.randint(2, 8), rng.randint(0, 8))
        g = form(w)
        det = det_exact(g.matrix)
        subs = characteristic_subgraphs(w)
        count = len(subs)
        assert count & (count - 1) == 0  # power of two
        assert (abs(det) % 2 == 1) == (count == 1)
        special = all(d % 2 == 0 for d in w.degrees.values())
        assert special == any(not c.vertices for c in subs)


def test_cut_size_examples():
    assert cut_size(banana_graph(3), ()) == 0
    assert cut_size(banana_graph(3), (1,)) == 3
    ph = path_hub_graph()
    assert cut_size(ph, ("d",)) == 2
    assert cut_size(ph, ("a", "b")) == 3 + 1  # hub edges at a, path edge at b


def test_nonspecial_classes_below_quarter_m(all_diagrams):
    for name, kd in all_diagrams:
        white = white_graph(kd)
        special = all(d % 2 == 0 for d in white.degrees.values())
        if special or kd.n > 8:
            continue
        g = form(white)
        for c in enumerate_spinc(g):
            assert c.d < Fraction(g.m, 4), name


def tait_dual_d_multisets(kd):
    """d-multisets of the white graph and the diagram, and the negated
    ones of the black graph and the mirror diagram.

    Sigma(K) bounds the white Goeritz plumbing and -Sigma(K) the black
    one, so all four agree; the two diagram reports run the Kauffman
    states."""
    def ds(source, sign):
        return sorted(sign * c.d for c in obstruction_report(source).classes)

    white, black = white_data(kd)
    return [ds(white, 1), ds(black, -1), ds(kd, 1), ds(mirror(kd), -1)]


def test_tait_duality_table_knots():
    for name, pd in PD_CODES.items():
        multisets = tait_dual_d_multisets(parse_pd({"pd": pd}))
        assert all(m == multisets[0] for m in multisets), name


@given(st.integers(0, 10 ** 6))
@settings(max_examples=60, deadline=None)
def test_tait_duality_medials(seed):
    rng = random.Random(seed)
    g = gen_plane_multigraph(rng, rng.randint(2, 6), rng.randint(1, 5),
                             bridgeless=True)
    multisets = tait_dual_d_multisets(parse_pd(diagram_from_plane_graph(g)))
    assert all(m == multisets[0] for m in multisets)


def test_mu_bar_examples():
    assert mu_bar(linear_tree([-3]), ("a0",)) == Fraction(1, 4)
    assert mu_bar(linear_tree([-2, -2]), ()) == Fraction(-1, 4)
    t = linear_tree([-2, -2, -2])
    assert mu_bar(t, ()) == Fraction(-3, 8)


def test_mu_bar_cut_identity_random():
    rng = random.Random(5)
    for _ in range(60):
        w = gen_plane_multigraph(rng, rng.randint(2, 7), 0)  # tree + marked
        reduced = w.without_vertex(w.marked)
        if not reduced.vertices or not reduced.is_connected():
            continue
        if len(reduced.edges) != len(reduced.vertices) - 1:
            continue
        tree = PlumbingTree(reduced.vertices,
                            tuple(-w.degree(v) for v in reduced.vertices),
                            tuple((u, v) for (u, v, _) in reduced.edges))
        for c in characteristic_subgraphs(w):
            mu = mu_bar(tree, c.vertices)
            assert 8 * mu == -len(tree.vertices) + c.cut


def test_obstruction_ban9():
    rep = obstruction_report(banana_graph(9))
    assert rep.m == 1 and rep.det == 9 and not rep.special
    assert rep.cutbound.verdict == "OBSTRUCTED"
    assert rep.capbound.verdict == "OBSTRUCTED"
    assert rep.cap_entries[0].cut == 9


def test_obstruction_path_inconclusive():
    rep = obstruction_report(path_hub_graph())
    assert rep.m == 4 and rep.det == 55 and not rep.special
    assert rep.cutbound.applicable and rep.cutbound.value == 2
    assert rep.cutbound.verdict == "inconclusive"
    assert rep.capbound.verdict == "inconclusive"
    assert rep.tree_reduced
    entry = rep.cap_entries[0]
    assert entry.vertices == ("d",) and entry.cut == 2
    assert 8 * entry.mu == -4 + 2


def test_obstruction_accepts_diagram():
    kd = parse_pd({"pd": PD_CODES["trefoil_mirror"]})
    rep = obstruction_report(kd)
    assert rep.m == 1 and rep.det == 3 and not rep.special
    # cut is 3 >= m = 1: obstructed
    assert rep.cutbound.verdict == "OBSTRUCTED"
    assert rep.capbound.verdict == "inconclusive"


def test_obstruction_special():
    rep = obstruction_report(special44_graph())
    assert rep.special and rep.b2_bound == 2
    assert rep.spin_d == Fraction(1, 2) and rep.spin_b2_bound == 2
    assert not rep.cutbound.applicable
    assert not rep.capbound.applicable


def test_capbound_implies_cutbound_random():
    rng = random.Random(23)
    seen_applicable = 0
    for _ in range(150):
        w = gen_plane_multigraph(rng, rng.randint(2, 7), rng.randint(0, 7))
        rep = obstruction_report(w)
        if rep.cutbound.applicable and rep.capbound.applicable:
            seen_applicable += 1
            if rep.capbound.obstructed:
                assert rep.cutbound.obstructed
    assert seen_applicable > 20


def test_orbit_max_examples():
    g = form(banana_graph(3))
    assert orbit_max_q(g, (1,)) == Fraction(-1, 3)
    assert orbit_max_q(g, (3,)) == Fraction(-3)
    g44 = form(special44_graph())
    assert orbit_max_q(g44, (0, 0)) == 0
    assert d_invariant(g44, (0, 0)) == Fraction(1, 2)


def random_goeritz(seed):
    """A negative definite form of rank <= 4 from a random plane graph."""
    rng = random.Random(seed)
    w = gen_plane_multigraph(rng, rng.randint(2, 5), rng.randint(0, 4))
    return rng, goeritz(w)


@given(st.integers(0, 10 ** 6))
@settings(max_examples=40, deadline=None)
def test_kernel_matches_box_oracle(seed):
    _, g = random_goeritz(seed)
    # A class maximum v has |v_i| <= -G_ii, else v -+ 2 G e_i beats it.
    oracle = brute_force_class_maxima(g, bound=max(-x for x in g.diagonal))
    classes = enumerate_spinc(g)
    assert len(oracle) == len(classes) == abs(det_exact(g.matrix))
    for c in classes:
        assert oracle[c.canonical_key] == 4 * c.d - g.m


@given(st.integers(0, 10 ** 6))
@settings(max_examples=40, deadline=None)
def test_d_multiset_ignores_vertex_order(seed):
    rng, g = random_goeritz(seed)
    perm = list(range(g.m))
    rng.shuffle(perm)
    permuted = GoeritzForm(
        tuple(tuple(g.matrix[i][j] for j in perm) for i in perm),
        tuple(g.vertex_order[i] for i in perm))
    assert sorted(c.d for c in enumerate_spinc(permuted)) == \
        sorted(c.d for c in enumerate_spinc(g))


@given(st.integers(0, 10 ** 6))
@settings(max_examples=40, deadline=None)
def test_kernel_quadform_matches_solve(seed):
    rng, g = random_goeritz(seed)
    kernel = g.kernel
    assert g.kernel is kernel
    v = [rng.randint(-9, 9) for _ in range(g.m)]
    assert Fraction(-kernel.adj_norm(v), kernel.det) == quadform_q(g, v)
    assert orbit_max_q(g, v) >= quadform_q(g, v)


@given(st.integers(0, 10 ** 6))
@settings(max_examples=60, deadline=None)
def test_keys_are_the_reduced_box(seed):
    _, g = random_goeritz(seed)
    assert [c.canonical_key for c in enumerate_spinc(g)] == box_keys(g)


@given(st.integers(0, 10 ** 6), st.booleans())
@settings(max_examples=100, deadline=None)
def test_paired_table_matches_search(seed, medial):
    # The medial construction needs a bridgeless graph.  Both kinds often
    # have an even det with 2 to 16 spin structures.
    rng = random.Random(seed)
    w = gen_plane_multigraph(rng, rng.randint(2, 6), rng.randint(0, 3),
                             bridgeless=medial)
    covectors = None
    if medial:
        w, covectors = state_covectors(
            parse_pd(diagram_from_plane_graph(w)))
    g = goeritz(w)
    classes = enumerate_spinc(g, covectors=covectors)
    assert {c.canonical_key: c.d for c in classes} == d_by_search(g)
    # the self-conjugate classes are the spin structures
    spin = [c for c in classes
            if same_class(g, c.canonical_key, [-x for x in c.canonical_key])]
    assert len(spin) == len(characteristic_subgraphs(w, g))


@given(st.integers(0, 10 ** 6))
@settings(max_examples=40, deadline=None)
def test_search_matches_vertex_order_oracle(seed):
    # graph input up to rank 8 and |det| in the hundreds: the library's
    # nearest-first search in elimination order against the oracle's
    # zigzag in vertex order, class by class
    rng = random.Random(seed)
    g = goeritz(gen_plane_multigraph(rng, rng.randint(2, 9),
                                     rng.randint(0, 9)))
    assert {c.canonical_key: c.d for c in enumerate_spinc(g)} == \
        d_by_search(g)


def skewed_form(rng):
    """-B^T B for a random integer basis B of rank 2 to 4, or None when
    B is singular.  Such Gram matrices are far from diagonal, unlike
    Goeritz forms, so the optimum often lies off the nearest-plane path
    and a search that cuts a level short is caught."""
    n = rng.randint(2, 4)
    b = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
    g = GoeritzForm(tuple(tuple(-sum(r[i] * r[j] for r in b)
                                for j in range(n)) for i in range(n)),
                    tuple(range(n)))
    try:
        g.kernel
    except Singular:
        return None
    return g


@given(st.integers(0, 10 ** 6))
@settings(max_examples=150, deadline=None)
def test_min_cost_matches_oracle_on_skewed_forms(seed):
    rng = random.Random(seed)
    g = skewed_form(rng)
    if g is None:
        return
    kernel = g.kernel
    oracle = ZigzagKernel(g)
    for _ in range(5):
        v = [rng.randint(-30, 30) for _ in range(g.m)]
        (cost,) = kernel.min_costs([v])
        assert Fraction(-4 * cost, kernel.denominator) == \
            oracle.orbit_max_q(v)


@given(st.integers(0, 10 ** 6), st.booleans())
@settings(max_examples=60, deadline=None)
def test_batched_search_matches_oracle_per_target(seed, skewed):
    # One min_costs call over shuffled, repeated targets against the
    # oracle's search of each target on its own: state left behind by
    # one target (a shift, an incumbent) would change a later cost.
    rng = random.Random(seed)
    if skewed:
        g = skewed_form(rng)
        if g is None:
            return
    else:
        g = goeritz(gen_plane_multigraph(rng, rng.randint(2, 9),
                                         rng.randint(0, 9)))
    kernel = g.kernel
    oracle = ZigzagKernel(g)
    targets = [[rng.randint(-30, 30) for _ in range(g.m)]
               for _ in range(rng.randint(1, 6))]
    targets += rng.sample(targets, rng.randint(0, len(targets)))
    targets += [list(v) for v in box_keys(g)[:8]]
    rng.shuffle(targets)
    costs = kernel.min_costs(targets)
    assert len(costs) == len(targets)
    for v, cost in zip(targets, costs):
        assert Fraction(cost, kernel.denominator) == Fraction(
            oracle.min_cost(matvec(oracle.adj, v)), oracle.denominator), v


@st.composite
def symmetric_forms(draw):
    """Symmetric integer matrices, shifted down the diagonal so that
    negative definite and indefinite ones both come up."""
    n = draw(st.integers(1, 5))
    g = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            g[i][j] = g[j][i] = draw(st.integers(-3, 3))
    shift = draw(st.integers(0, 12))
    return [[x - (shift if i == j else 0) for j, x in enumerate(row)]
            for i, row in enumerate(g)]


@given(symmetric_forms())
@settings(max_examples=150, deadline=None)
def test_kernel_pivots_certify_definiteness(g):
    n = len(g)
    a = [[-x for x in row] for row in g]
    definite = signature(g) == (0, n, 0)
    try:
        kernel = GoeritzForm(tuple(map(tuple, g)), tuple(range(n))).kernel
    except Singular:
        assert not definite
    else:
        # the leading minors of -G in the kernel's elimination order:
        # by degree, the largest last, ties by index
        order = kernel.order
        assert sorted(order) == list(range(n))
        assert list(order) == sorted(range(n), key=lambda i: (a[i][i], i))
        swept = [[a[i][j] for j in order] for i in order]
        pivots = kernel.pivots
        assert definite and all(p > 0 for p in pivots)
        assert pivots == [det_exact([row[:k] for row in swept[:k]])
                          for k in range(1, n + 1)]
        assert pivots[-1] == kernel.det == det_exact(a)
        assert [[sum(x * y for x, y in zip(row, col))
                 for col in zip(*kernel.adj)] for row in a] == \
            [[kernel.det * (i == j) for j in range(n)] for i in range(n)]


@given(st.integers(0, 10 ** 6))
@settings(max_examples=60, deadline=None)
def test_report_mu_matches_tree_oracle(seed):
    rng = random.Random(seed)
    rep = None
    while rep is None or not (rep.tree_reduced and rep.cap_entries):
        w = gen_plane_multigraph(rng, rng.randint(2, 7), rng.randint(0, 4))
        rep = obstruction_report(w)
    for entry in rep.cap_entries:
        assert entry.mu == mu_bar(rep.tree, entry.vertices)


def test_capbound_is_the_furuta_rule():
    verdicts = []
    for name, doc in corpus().items():
        if name.startswith("pd_"):
            rep = obstruction_report(parse_pd(doc))
        elif name.startswith("graph_"):
            rep = obstruction_report(parse_graph_doc(doc)[0])
        else:
            continue
        if rep.special:
            assert rep.capbound.obstructed is None and not rep.cap_entries
            continue
        assert rep.capbound.obstructed == \
            furuta_check(rep.m, rep.capbound.value).obstructed, name
        for entry in rep.cap_entries:
            assert entry.obstructed == \
                furuta_check(rep.m, entry.cut).obstructed, name
            verdicts.append(entry.obstructed)
    # banana9 (m 1, cut 9) sits on the threshold
    assert True in verdicts and False in verdicts
