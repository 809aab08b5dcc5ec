import math
import random
from fractions import Fraction
from itertools import product
from operator import mul

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from spinfill import diagram, exactalg, spinc
from spinfill.diagram import kauffman_states, parse_pd, white_graph
from spinfill.errors import CertificationFailure, Singular
from spinfill.exactalg import GoeritzForm, goeritz, hnf_reduce, signature
from spinfill.graphs import MarkedGraph, cut_size, parse_graph_doc
from spinfill.plumbing import PlumbingTree, linear_tree, neg_cf
from spinfill.spinc import (_verify_characteristic, characteristic_subgraphs,
                            enumerate_spinc, hermite_box, obstruction_report)

from conftest import (PD_CODES, banana_graph, brute_force_class_maxima,
                      cycle_graph, path_hub_graph, probe_a, special44_graph,
                      two33_graph, white_data)
from oracles import (ZigzagKernel, arc_ids, box_keys, chain_graph,
                     d_by_search, d_invariant, det_exact,
                     diagram_from_plane_graph, furuta_check,
                     gen_plane_multigraph, lens_d, matvec, mirror, mu_bar,
                     orbit_max_q, quadform_q, same_class, search_target,
                     solve_rational, spin_class)
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
        white = white_graph(kd)
        covs = kauffman_states(kd, white)
        g = form(white)
        classes = enumerate_spinc(g, covectors=covs)
        for c in classes:
            vec = covs[c.state_index]
            assert quadform_q(g, vec) == 4 * c.d - g.m, name


def test_greene_max_on_ten_crossing_chain():
    kd = parse_pd(diagram_from_plane_graph(path_hub_graph()))
    assert kd.n == 10
    white = white_graph(kd)
    covs = kauffman_states(kd, white)
    g = form(white)
    classes = enumerate_spinc(g, covectors=covs)
    assert len(classes) == 55
    for c in classes:
        assert quadform_q(g, covs[c.state_index]) == 4 * c.d - g.m
    assert {c.canonical_key: c.d for c in classes} == d_by_search(g)


def test_state_table_matches_search_at_every_arc():
    for name, pd in PD_CODES.items():
        for arc in arc_ids(pd):
            kd = parse_pd({"pd": pd, "marked_arc": arc})
            white = white_graph(kd)
            covs = kauffman_states(kd, white)
            g = form(white)
            classes = enumerate_spinc(g, covectors=covs)
            assert {c.canonical_key: c.d for c in classes} \
                == d_by_search(g), (name, arc)


def test_state_attachment_detects_wrong_covectors():
    kd = parse_pd({"pd": PD_CODES["trefoil"]})
    white = white_graph(kd)
    covs = kauffman_states(kd, white)
    g = form(white)
    with pytest.raises(CertificationFailure):
        enumerate_spinc(g, covectors=[covs[0]] * len(covs))


def test_certification_failure_names_stage():
    kd = parse_pd({"pd": PD_CODES["trefoil"]})
    white = white_graph(kd)
    covs = kauffman_states(kd, white)
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


def test_diagram_pipeline_builds_the_kernel_before_the_walk(monkeypatch):
    # white graph, connectivity, form, kernel, then the state walk: a
    # bound on the class count can stop a run before any state is walked
    order = []

    def record(space, name):
        fn = getattr(space, name)

        def recorded(*args, **kwargs):
            order.append(name)
            return fn(*args, **kwargs)

        monkeypatch.setattr(space, name, recorded)

    # spinc binds the diagram module lazily and looks its functions up
    # there at each call
    for name in ("white_graph", "kauffman_states"):
        record(diagram, name)
    for name in ("goeritz", "enumerate_spinc"):
        record(spinc, name)
    record(MarkedGraph, "is_connected")
    record(exactalg, "_sweep")
    for pd in (PD_CODES["trefoil"], PD_CODES["figure_eight"]):
        order.clear()
        spinc.obstruction_report(parse_pd({"pd": pd}))
        assert list(dict.fromkeys(order)) == [
            "white_graph", "is_connected", "goeritz", "_sweep",
            "kauffman_states", "enumerate_spinc"]
        assert order.count("kauffman_states") == 1

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


def test_parity_recheck_accepts_exactly_the_characteristic_sets():
    """The graph-side re-check of each GF(2) solution, run on every
    subset of the unmarked vertices: it passes the subgraphs that
    characteristic_subgraphs lists and refuses every other set, naming
    the first unmarked vertex, in graph order, whose parity fails."""
    rng = random.Random(17)
    checked = 0
    for _ in range(60):
        w = gen_plane_multigraph(rng, rng.randint(2, 7), rng.randint(0, 7))
        order = [v for v in w.vertices if v != w.marked]
        supports = {c.vertices for c in characteristic_subgraphs(w)}
        for bits in product((0, 1), repeat=len(order)):
            subset = tuple(v for v, b in zip(order, bits) if b)
            inside = set(subset)
            # edges from v into the subset, plus v's degree when v is in
            # it, must match v's degree mod 2
            bad = [v for v in order
                   if (sum((b if a == v else a) in inside
                           for a, b, _ in w.edges if v in (a, b))
                       + w.degree(v) * (v in inside) - w.degree(v)) % 2]
            if subset in supports:
                assert not bad
                _verify_characteristic(w, subset)
            else:
                assert bad
                with pytest.raises(CertificationFailure,
                                   match="at vertex %r$" % (bad[0],)):
                    _verify_characteristic(w, subset)
            checked += 1
    assert checked > 500


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
        reduced, _ = w.without_vertex(w.marked)
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


def test_medial_round_trip_at_probe_a():
    """The graph and its medial PD code, read off the search and off the
    3796 Kauffman states, give one report."""
    g = probe_a()
    graph = obstruction_report(g)
    pd = obstruction_report(parse_pd(diagram_from_plane_graph(g)))

    def summary(rep):
        return (rep.det, rep.m, rep.special, rep.spin_d,
                sorted(c.d for c in rep.classes),
                sorted(c.cut for c in rep.subgraphs))

    assert summary(graph) == summary(pd)
    assert (graph.det, graph.m) == (3796, 6)


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


def wedge_form(seed):
    """The Goeritz form of one to three random plane multigraphs glued at
    their marked vertex, each edge of a part repeated one to three times.
    The form is block diagonal with each block a multiple of a graph
    form, so several Hermite pivots exceed 1, and a part with one
    unmarked vertex gives rank 1.  Parts are dropped from the end until
    |det| <= 2000."""
    rng = random.Random(seed)
    parts = []
    for _ in range(rng.randint(1, 3)):
        w = gen_plane_multigraph(rng, rng.randint(2, 4), rng.randint(0, 2))
        parts.append((w, rng.randint(1, 3)))
    while True:
        edges, offset = [], 0
        for w, times in parts:
            def place(v):
                return 0 if v == w.marked else v + offset
            edges += [(place(u), place(v), (len(edges), t))
                      for u, v, _ in w.edges for t in range(times)]
            offset += len(w.vertices) - 1
        g = goeritz(MarkedGraph(tuple(range(offset + 1)), tuple(edges),
                                marked=0))
        if abs(g.kernel.det) <= 2000 or len(parts) == 1:
            return g
        parts.pop()


def check_box_walk(g):
    """The walk against per-class reductions: each key's conjugate is
    -key reduced modulo 2H, its c1 class the key reduced modulo H, the
    keys are box_keys, and on odd det the spin class, the self-conjugate
    class and the class with c1 = 0 are one class."""
    h = g.hermite
    box = hermite_box(g)
    assert box.keys == box_keys(g)
    for i, key in enumerate(box.keys):
        assert box.keys[box.twin[i]] == hnf_reduce([-x for x in key], h, 2)
    self_conjugate = [key for i, key in enumerate(box.keys)
                      if box.twin[i] == i]
    assert self_conjugate == [key for key in box.keys
                              if same_class(g, key, [-x for x in key])]
    classes = enumerate_spinc(g)
    if g.kernel.det % 2:
        assert box.c1 == [hnf_reduce(key, h) for key in box.keys]
        zero = [key for key, c1 in zip(box.keys, box.c1) if not any(c1)]
        assert [spin_class(classes).canonical_key] == self_conjugate == zero
    else:
        assert box.c1 is None
    return g.m, tuple(i for i in range(g.m) if h[i][i] > 1)


@given(st.integers(0, 10 ** 6))
@settings(max_examples=80, deadline=None)
def test_box_walk_matches_reduction(seed):
    check_box_walk(wedge_form(seed))


def test_box_walk_covers_the_pivot_patterns():
    # rank 1, pivots > 1 at (0, 1, 2, 3) and at (0, 2, 4), as on the bench
    # ladders, and H[0][0] = 1 below a larger pivot, where the outer loop
    # carries every class
    seen = [check_box_walk(wedge_form(seed)) for seed in [*range(40), 824]]
    assert any(m == 1 for m, _ in seen)
    patterns = {pattern for _, pattern in seen}
    assert {(0, 1, 2, 3), (0, 2, 4)} <= patterns
    assert any(pattern and pattern[0] > 0 for pattern in patterns)


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
        kd = parse_pd(diagram_from_plane_graph(w))
        w = white_graph(kd)
        covectors = kauffman_states(kd, w)
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


def characteristic_covector(rng, g):
    """A random covector with v_i = G_ii (mod 2), entries in [-30, 30]:
    the domain of OrbitKernel.min_costs."""
    return [rng.randrange(-30 + x % 2, 31, 2) for x in g.diagonal]


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
        v = characteristic_covector(rng, g)
        (cost,) = kernel.min_costs([search_target(kernel, v)])
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
    targets = [characteristic_covector(rng, g)
               for _ in range(rng.randint(1, 6))]
    targets += rng.sample(targets, rng.randint(0, len(targets)))
    targets += [list(v) for v in box_keys(g)[:8]]
    rng.shuffle(targets)
    costs = kernel.min_costs([search_target(kernel, v) for v in targets])
    assert len(costs) == len(targets)
    for v, cost in zip(targets, costs):
        assert Fraction(cost, kernel.denominator) == Fraction(
            oracle.min_cost(matvec(oracle.adj, v)), oracle.denominator), v


def scaled_cost(g, v, y):
    """W Q^2 (y - t)^T A (y - t) with A = -G and t = A^-1 v / 2, the
    cost OrbitKernel.min_costs minimizes, in exact rationals."""
    a = [[-x for x in row] for row in g.matrix]
    r = [yi - ti / 2 for yi, ti in zip(y, solve_rational(a, v))]
    return g.kernel.denominator * sum(
        ri * sum(map(mul, row, r)) for ri, row in zip(r, a))


@given(st.integers(0, 10 ** 6), st.booleans())
@settings(max_examples=60, deadline=None)
def test_costs_of_a_characteristic_target_agree_mod_2d(seed, skewed):
    # The fact the search prunes by: for characteristic v every lattice
    # point's scaled cost, and so the minimum, lies in one class mod 2D.
    rng = random.Random(seed)
    if skewed:
        g = skewed_form(rng)
        if g is None:
            return
    else:
        g = goeritz(gen_plane_multigraph(rng, rng.randint(2, 7),
                                         rng.randint(0, 6)))
    gap = 2 * g.kernel.denominator
    v = characteristic_covector(rng, g)
    costs = [scaled_cost(g, v, [rng.randint(-9, 9) for _ in range(g.m)])
             for _ in range(3)]
    costs += g.kernel.min_costs([search_target(g.kernel, v)])
    assert all(c.denominator == 1 for c in costs)
    assert all((c - costs[0]) % gap == 0 for c in costs)


def test_costs_of_a_noncharacteristic_target_split_by_d():
    # Off the domain the pruning has no ground: with A = [k] and v of the
    # other parity, y = 0 and y = 1 cost an odd multiple of D apart.
    for k in range(1, 9):
        g = goeritz(banana_graph(k))
        assert g.matrix == ((-k,),)
        d = g.kernel.denominator
        for v in (k - 3, k - 1, k + 1, k + 5):
            gap = scaled_cost(g, [v], [1]) - scaled_cost(g, [v], [0])
            assert gap == d * (k - v) and gap % (2 * d) == d


def test_search_work_at_the_16_cycle_and_probe_a(count_calls):
    """The search makes 997 calls of _nearest for the 16 classes of the
    16-cycle and 11,987 for the 3796 of probe A.  Pruning only candidates
    that cost at least the incumbent, it makes 42,338 and 19,483.  The
    recursion calls _nearest through the module, so the patched function
    counts every call."""
    calls = count_calls(exactalg._nearest)
    work = []
    for w in (cycle_graph(16), probe_a()):
        calls["_nearest"] = 0
        enumerate_spinc(goeritz(w))
        work.append(calls["_nearest"])
    assert work == [997, 11987]
    assert work[0] < 42338 and work[1] < 19483


def assert_d_is_q_plus_m_over_4_mod_2(rep):
    """d - (q(key) + m) / 4 is an even integer on every class of a
    table: q changes by a multiple of 8 across an orbit.  q(key) is
    taken by rational elimination, not by any search."""
    g = rep.form
    for c in rep.classes:
        x = c.d - (quadform_q(g, c.canonical_key) + g.m) / 4
        assert x.denominator == 1 and x % 2 == 0, (c, x)


@given(st.integers(0, 10 ** 6), st.booleans())
@settings(max_examples=60, deadline=None)
def test_d_is_q_plus_m_over_4_mod_2_on_random_inputs(seed, medial):
    rng = random.Random(seed)
    w = gen_plane_multigraph(rng, rng.randint(2, 6), rng.randint(0, 4),
                             bridgeless=medial)
    if medial:
        w = parse_pd(diagram_from_plane_graph(w))
    assert_d_is_q_plus_m_over_4_mod_2(obstruction_report(w))


def test_d_is_q_plus_m_over_4_mod_2_on_golden_inputs():
    seen = 0
    for name, doc in corpus().items():
        if name.startswith("pd_"):
            rep = obstruction_report(parse_pd(doc))
        elif name.startswith("graph_"):
            rep = obstruction_report(parse_graph_doc(doc)[0])
        else:
            continue
        assert_d_is_q_plus_m_over_4_mod_2(rep)
        seen += 1
    assert seen == 14


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
        # the kernel sweeps -G in its elimination order, by degree, the
        # largest last, ties by index; the pivots are the leading minors
        order = kernel.order
        assert sorted(order) == list(range(n))
        assert list(order) == sorted(range(n), key=lambda i: (a[i][i], i))
        swept = [[a[i][j] for j in order] for i in order]
        pivots = exactalg._sweep(swept)[0]
        assert definite and all(p > 0 for p in pivots)
        assert pivots == [det_exact([row[:k] for row in swept[:k]])
                          for k in range(1, n + 1)]
        assert pivots[-1] == kernel.det == det_exact(a)
        assert kernel.p == math.lcm(*pivots)
        # adj(A) in vertex order, from its columns in elimination order
        adj = [[0] * n for _ in range(n)]
        for i, column in enumerate(kernel.target_columns):
            for k, x in zip(order, column):
                adj[k][i] = x
        assert [[sum(x * y for x, y in zip(row, col))
                 for col in zip(*adj)] for row in a] == \
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


def lens_space_d_matches(p, q):
    """The chain graph of p/q has the d multiset of L(p, q), which is the
    negation of Ozsvath-Szabo's multiset for -L(p, q)."""
    g = goeritz(chain_graph(p, q))
    assert det_exact(g.matrix) in (p, -p)
    assert sorted(c.d for c in enumerate_spinc(g)) == \
        sorted(-d for d in lens_d(p, q)), (p, q)


# coprime p/q with p < 40 whose chain has at most 12 vertices
LENS_PAIRS = [(p, q) for p in range(2, 40) for q in range(1, p)
              if math.gcd(p, q) == 1 and len(neg_cf(p, q)) <= 12]


def lens_pd_table(p, q):
    """Spin-c table of the medial PD code of the chain graph of p/q, a
    2-bridge link whose double branched cover is L(p, q); its d values
    are read off the Kauffman states."""
    kd = parse_pd(diagram_from_plane_graph(chain_graph(p, q)))
    w = white_graph(kd)
    covectors = kauffman_states(kd, w)
    return enumerate_spinc(goeritz(w), covectors=covectors)


def test_lens_space_d_small_p():
    assert len(LENS_PAIRS) == 431
    for p, q in LENS_PAIRS:
        lens_space_d_matches(p, q)


def test_lens_space_d_on_pd_input():
    for p, q in LENS_PAIRS:
        table = lens_pd_table(p, q)
        assert len(table) == p
        assert all(c.state_index is not None for c in table)
        assert sorted(c.d for c in table) == \
            sorted(-d for d in lens_d(p, q)), (p, q)


def test_lens_space_spin_class():
    """For odd p the spin class of L(p, q) has d = -lens_d(p, q)[i0],
    with i0 = (q - 1)/2 mod p.

    Ozsvath-Szabo's recursion holds for 0 <= i < p + q, where the labels
    i and i + p name one spin-c structure.  Its leading term
    ((2i + 1 - p - q)^2 - pq) / (4pq) is symmetric under
    i -> p + q - 1 - i.  That map sends the inner index i mod q to
    (r - 1 - i) mod q with r = p mod q, which is the same map one level
    down, for (q, r); at the bottom, d(L(1, q)) = 0 is constant.  So by
    induction d(-L(p, q), i) = d(-L(p, q), (q - 1 - i) mod p).  This
    involution of the labels is the conjugation of spin-c structures,
    which fixes d.  For odd p, 2 is invertible mod p and the involution
    has one fixed point, i0 with 2 i0 = q - 1 (mod p); the spin
    structure is the one self-conjugate class.  The check runs on the
    graph form (lattice search) and on the PD code (Kauffman states).
    """
    odd = [(p, q) for p, q in LENS_PAIRS if p % 2]
    assert len(odd) == 289
    for p, q in odd:
        d = lens_d(p, q)
        assert all(d[i] == d[(q - 1 - i) % p] for i in range(p)), (p, q)
        i0 = (q - 1) * (p + 1) // 2 % p
        assert (2 * i0 - q + 1) % p == 0
        graph_table = enumerate_spinc(goeritz(chain_graph(p, q)))
        for table in (graph_table, lens_pd_table(p, q)):
            assert spin_class(table).d == -d[i0], (p, q)


def test_lens_space_d_on_long_cycles_and_chains():
    """Graph input far past p = 80: the n-cycle is the chain graph of
    n/(n - 1) = [2, ..., 2], rank n - 1, and the chains of 4099/1000 and
    9973/2000 have 12 and 15 vertices."""
    for n in (16, 20, 24):
        g = goeritz(cycle_graph(n))
        assert sorted(c.d for c in enumerate_spinc(g)) == \
            sorted(-d for d in lens_d(n, n - 1)), n
    for p, q in ((4099, 1000), (9973, 2000)):
        assert len(neg_cf(p, q)) <= 15
        lens_space_d_matches(p, q)


@given(st.integers(2, 79).flatmap(
    lambda p: st.tuples(st.just(p), st.integers(1, p - 1))))
@settings(max_examples=150, deadline=None)
def test_lens_space_d_matches_ozsvath_szabo(pq):
    p, q = pq
    assume(math.gcd(p, q) == 1 and len(neg_cf(p, q)) <= 12)
    lens_space_d_matches(p, q)
