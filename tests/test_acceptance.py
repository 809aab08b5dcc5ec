"""Acceptance suite: one test per criterion, exact arithmetic throughout.

Each test prints a single PASS line when its criterion holds; run with
`pytest tests/test_acceptance.py -v -s` to see them.
"""
import random
import time
from fractions import Fraction

from spinfill.chainmail import build_chainmail, kaplan_filling, mk1_run
from spinfill.diagram import kauffman_states, white_graph
from spinfill.exactalg import goeritz, signature
from spinfill.plumbing import (PlumbingTree, berge_ipm, check_normal_form,
                               decide_plumbed, det_tree, linear_tree, neg_cf,
                               reduce_normal_form)
from spinfill.spinc import (characteristic_subgraphs, enumerate_spinc,
                            obstruction_report)

from conftest import (banana_graph, brute_force_class_maxima,
                      chainmail_or_none, path_hub_graph, special44_graph)
from oracles import (canonical_form, d_by_search, det_exact,
                     gen_plane_multigraph, intersection_matrix, matvec, mu_bar,
                     quadform_q, random_excessive_tree, random_tree,
                     shuffled_tree, spanning_tree_count, spin_class)


def _report(num, description):
    import conftest
    line = "[ACCEPTANCE %2d] PASS: %s" % (num, description)
    conftest.ACCEPTANCE_LINES.append(line)
    print(line)


def test_criterion_01_goeritz_reproduction():
    t0 = time.time()
    w = special44_graph()
    g = goeritz(w)
    assert g.matrix == ((-4, 1), (1, -4))
    assert det_exact(g.matrix) == 15
    assert all(d % 2 == 0 for d in w.degrees.values())
    classes = enumerate_spinc(g)
    assert spin_class(classes).d == Fraction(1, 2)
    elapsed = time.time() - t0
    assert elapsed < 1.0
    _report(1, "degree-4 pair graph: form [[-4,1],[1,-4]], det 15, "
               "special, spin d = 1/2 (%.3fs)" % elapsed)


def test_criterion_02_orbit_max_property(all_diagrams):
    # d on PD input is read off the states, so the per-class lattice
    # search is the independent certifier of the orbit maximum
    t0 = time.time()
    diagrams = states = 0
    oracle_checked = 0
    for name, kd in all_diagrams:
        if kd.n > 8:
            continue
        white = white_graph(kd)
        covs = kauffman_states(kd, white)
        g = goeritz(white)
        classes = enumerate_spinc(g, covectors=covs)
        search = d_by_search(g)
        assert {c.canonical_key: c.d for c in classes} == search, name
        for c in classes:
            assert quadform_q(g, covs[c.state_index]) \
                == 4 * search[c.canonical_key] - g.m, name
        states += len(classes)
        diagrams += 1
        if g.m <= 2 and abs(det_exact(g.matrix)) <= 16:
            oracle = brute_force_class_maxima(g)
            for c in classes:
                assert oracle[c.canonical_key] == 4 * c.d - g.m, name
            oracle_checked += 1
    elapsed = time.time() - t0
    assert elapsed < 300
    assert diagrams >= 20 and oracle_checked >= 5
    _report(2, "state covectors attain the orbit maximum of the lattice "
               "search on %d diagrams / %d states; box oracle agreed on %d "
               "forms (%.1fs)" % (diagrams, states, oracle_checked, elapsed))


def test_criterion_03_counting_laws(all_diagrams):
    from spinfill.diagram import kauffman_states
    for name, kd in all_diagrams:
        white = white_graph(kd)
        g = goeritz(white)
        det = abs(det_exact(g.matrix))
        assert len(kauffman_states(kd, white)) == det, name
        assert spanning_tree_count(white) == det, name
        assert len(enumerate_spinc(g)) == det, name
    _report(3, "states = |det| = spanning trees = spin-c classes on "
               "%d inputs" % len(all_diagrams))


def test_criterion_04_characteristic_laws():
    rng = random.Random(2024)
    cases = 0
    while cases < 300:
        w = gen_plane_multigraph(rng, rng.randint(2, 8), rng.randint(0, 10))
        if len(w.edges) > 16:
            continue
        g = goeritz(w)
        det = det_exact(g.matrix)
        subs = characteristic_subgraphs(w)
        count = len(subs)
        assert count & (count - 1) == 0
        assert (abs(det) % 2 == 1) == (count == 1)
        special = all(d % 2 == 0 for d in w.degrees.values())
        assert special == any(not c.vertices for c in subs)
        cases += 1
    _report(4, "characteristic counts are powers of two, unique iff odd "
               "det, empty iff special, on %d generated multigraphs" % cases)


def test_criterion_05_laplacian_identity():
    rng = random.Random(555)
    for _ in range(1000):
        w = gen_plane_multigraph(rng, rng.randint(2, 8), rng.randint(0, 8))
        g = goeritz(w)
        y = {v: rng.randint(-5, 5) for v in w.vertices}
        y[w.marked] = 0
        vec = [y[v] for v in g.vertex_order]
        lhs = sum(vi * x for vi, x in zip(vec, matvec(g.matrix, vec)))
        rhs = -sum((y[u] - y[v]) ** 2 for (u, v, _) in w.edges)
        assert lhs == rhs
    _report(5, "quadratic form equals minus the squared edge differences "
               "on 1000 random pairs")


def test_criterion_06_mk1_framing_theorem():
    t0 = time.time()
    rng = random.Random(4242)
    graphs = slides = 0
    while graphs < 500:
        w = gen_plane_multigraph(rng, rng.randint(3, 9), rng.randint(0, 12))
        link = chainmail_or_none(w)
        if link is None:
            continue
        subs = [c for c in characteristic_subgraphs(w) if c.vertices]
        if not subs:
            continue
        c = subs[rng.randrange(len(subs))]
        log = mk1_run(link, c.vertices)
        assert log.final_framing == -c.cut
        idx = {v: i for i, v in enumerate(log.vertex_order)}
        n = len(log.vertex_order)
        mat = [list(r) for r in log.initial_matrix]
        for step in log.steps:
            p, s = idx[step.slid], idx[step.over]
            e = [[int(i == j) for j in range(n)] for i in range(n)]
            e[s][p] = 1
            et_l = [[sum(e[k][i] * mat[k][j] for k in range(n))
                     for j in range(n)] for i in range(n)]
            mat = [[sum(et_l[i][k] * e[k][j] for k in range(n))
                    for j in range(n)] for i in range(n)]
            assert step.framing_after == mat[p][p]
        assert tuple(tuple(r) for r in mat) == log.final_matrix
        slides += len(log.steps)
        graphs += 1
    elapsed = time.time() - t0
    assert elapsed < 60
    _report(6, "final framing = -cut and every slide is the unimodular "
               "congruence, on 500 graphs / %d slides (%.1fs)"
            % (slides, elapsed))


def test_criterion_07_kaplan_accounting():
    link = build_chainmail(banana_graph(3))
    stats = kaplan_filling(link, mk1_run(link, (1,)))
    assert (stats.b2, stats.sigma) == (2, 2)

    rng = random.Random(77)
    done = 0
    while done < 100:
        w = gen_plane_multigraph(rng, rng.randint(3, 8), rng.randint(0, 8))
        link = chainmail_or_none(w)
        if link is None:
            continue
        m = len(link.vertices)
        for c in characteristic_subgraphs(w):
            stats = kaplan_filling(link, mk1_run(link, c.vertices))
            assert stats.even_form
            if stats.f >= 1:
                assert stats.b2 == m + stats.f - 2
                assert stats.sigma == -m + stats.f
            else:
                assert (stats.b2, stats.sigma) == (m, -m)
            done += 1
    _report(7, "filling statistics obey b2 = m+f-2, sigma = -m+f with an "
               "even diagonal certificate; single -3 component gives (2, 2)")


def test_criterion_08_obstruction_thresholds():
    rep = obstruction_report(banana_graph(9))
    assert rep.cutbound.verdict == "OBSTRUCTED"
    assert rep.capbound.verdict == "OBSTRUCTED"

    rep = obstruction_report(path_hub_graph())
    assert rep.cutbound.applicable and not rep.cutbound.obstructed
    assert rep.cutbound.value == 2 and rep.m == 4
    assert not rep.capbound.obstructed

    rng = random.Random(88)
    applicable = 0
    for _ in range(150):
        w = gen_plane_multigraph(rng, rng.randint(2, 7), rng.randint(0, 7))
        r = obstruction_report(w)
        if r.capbound.applicable and r.cutbound.applicable:
            applicable += 1
            if r.capbound.obstructed:
                assert r.cutbound.obstructed
    assert applicable > 20
    _report(8, "nine-edge twist obstructed by both bounds, the chain "
               "example stays inconclusive (f=2 < m=4), and the strong "
               "bound implies the weak one on %d applicable cases"
            % applicable)


def test_criterion_09_mu_consistency():
    assert mu_bar(linear_tree([-3]), ("a0",)) == Fraction(1, 4)
    rng = random.Random(909)
    done = 0
    while done < 80:
        w = gen_plane_multigraph(rng, rng.randint(2, 8), 0)
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
            done += 1
    _report(9, "8 mu = cut - vertex count on %d tree cases; "
               "single -3 gives mu = 1/4" % done)


def test_criterion_10_reduction_engine():
    t, _ = reduce_normal_form(linear_tree([-1]))
    assert t.empty
    t, _ = reduce_normal_form(linear_tree([1]))
    assert t.empty
    assert check_normal_form(linear_tree([-2, -5, -2])).n2_ok

    rng = random.Random(1010)
    seeds = 0
    while seeds < 100:
        t = random_tree(rng, rng.randint(1, 8))
        if signature(intersection_matrix(t)) != (0, len(t.vertices), 0):
            continue
        ref, _ = reduce_normal_form(t)
        out, _ = reduce_normal_form(shuffled_tree(random.Random(seeds), t))
        assert canonical_form(out) == canonical_form(ref)
        seeds += 1
    _report(10, "unit vertices reduce to the empty tree, the (-2,-5,-2) "
                "chain is normal, and 100 random negative definite trees "
                "reduce confluently")


def test_criterion_11_plumbed_decision():
    assert decide_plumbed(linear_tree([-4, -2, -5, -2])).status == "no"
    assert decide_plumbed(linear_tree([-2, -2])).status == "yes"

    rng = random.Random(1111)
    done = 0
    while done < 200:
        t = random_excessive_tree(rng, rng.randint(1, 7))
        if det_tree(t) % 2 == 0:
            continue
        verdict = decide_plumbed(t)
        parity = all(wt % 2 == 0 for wt in t.weights)
        assert (verdict.status == "yes") == parity
        done += 1
    _report(11, "chain (-4,-2,-5,-2) refused, chain (-2,-2) admitted, and "
                "the decision equals the weight-parity predicate on 200 "
                "random excessive odd-determinant trees")


def test_criterion_12_lens_space_arithmetic():
    assert neg_cf(16, 9) == [2, 5, 2]
    assert berge_ipm(3, 5)[0] == (16, 7)
    assert abs(det_tree(linear_tree([-2, -5, -2]))) == 16
    _report(12, "16/9 = [2,5,2], surgery parameters (16, 7), and the "
                "(-2,-5,-2) chain has determinant of absolute value 16")
