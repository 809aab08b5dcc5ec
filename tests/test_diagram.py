import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinfill.diagram import kauffman_states, parse_pd, white_graph
from spinfill.errors import MalformedInput
from spinfill.exactalg import goeritz
from spinfill.graphs import MarkedGraph
from spinfill.spinc import characteristic_subgraphs, enumerate_spinc

from conftest import PD_CODES, banana_graph, probe_a, refused, white_data
from oracles import (arc_ids, checkerboard_bfs, convention_ok, det_exact,
                     diagram_from_plane_graph, euler_check,
                     gen_plane_multigraph,
                     is_special, kauffman_state_assignments,
                     link_components, mirror, multigraph_isomorphic,
                     state_covector)

TREFOIL = PD_CODES["trefoil"]


def test_parse_counts():
    kd = parse_pd({"pd": TREFOIL})
    assert kd.n == 3
    assert len(kd.regions) == 5
    assert kd.marked_arc == min(arc_ids(TREFOIL)) == 1


@given(st.integers(0, 10 ** 6))
@settings(max_examples=60, deadline=None)
def test_parse_rejects_flipped_crossing(seed):
    # cyclically rotating one tuple keeps the projection but swaps the
    # over-strand at that crossing, breaking alternation
    bad = [[4, 2, 5, 1]] + TREFOIL[1:]
    with refused("^arc 4 fails over/under alternation$"):
        parse_pd({"pd": bad})
    # so does rotating any nonempty proper subset of a connected
    # diagram's crossings; rotating all of them gives the mirror, and
    # every region of it sweeps corners of one parity
    rng = random.Random(seed)
    g = gen_plane_multigraph(rng, rng.randint(2, 7), rng.randint(0, 6),
                             bridgeless=True)
    pd = diagram_from_plane_graph(g)["pd"]
    flipped = set(rng.sample(range(len(pd)), rng.randint(1, len(pd) - 1)))
    with refused(r"^arc \d+ fails over/under alternation$"):
        parse_pd({"pd": [t[1:] + t[:1] if c in flipped else t
                         for c, t in enumerate(pd)]})
    kd = parse_pd({"pd": [t[1:] + t[:1] for t in pd]})
    assert all(len({s % 2 for _, s in corners}) == 1
               for corners in kd.regions)


def test_parse_rejects_empty():
    with pytest.raises(MalformedInput):
        parse_pd({"pd": []})
    with pytest.raises(MalformedInput):
        parse_pd({})
    with pytest.raises(MalformedInput):
        parse_pd("not json at all {")


def test_parse_rejects_bad_arc_multiplicity():
    with pytest.raises(MalformedInput):
        parse_pd({"pd": [[1, 2, 3, 4], [1, 2, 3, 5]]})


def test_parse_rejects_kink():
    # one-crossing unknot: nugatory crossing gives a loop edge
    with refused("^crossing 0 is nugatory$"):
        parse_pd({"pd": [[1, 2, 2, 1]]})


def test_parse_rejects_split():
    two = [[1, 4, 2, 5], [3, 6, 4, 1], [5, 2, 6, 3],
           [7, 10, 8, 11], [9, 12, 10, 7], [11, 8, 12, 9]]
    with refused("^split diagram: projection is disconnected$"):
        parse_pd({"pd": two})


def test_parse_rejects_nonplanar_rotation():
    scrambled = [[1, 4, 5, 2], [3, 6, 4, 1], [5, 2, 6, 3]]
    with refused("^face tracing gives 3 regions, expected 5$"):
        parse_pd({"pd": scrambled})


def test_marked_arc_override():
    kd = parse_pd({"pd": TREFOIL, "marked_arc": 4})
    assert kd.marked_arc == 4
    with pytest.raises(MalformedInput):
        parse_pd({"pd": TREFOIL, "marked_arc": 99})


def test_checkerboard_unique_convention():
    kd = parse_pd({"pd": TREFOIL})
    white = set(white_graph(kd).vertices)
    assert convention_ok(kd, white)
    assert not convention_ok(kd, set(range(len(kd.regions))) - white)
    # adjacent regions across every arc differ in color
    for c in range(kd.n):
        for s in range(4):
            a = kd.corner_region[c][s]
            b = kd.corner_region[c][(s + 1) % 4]
            assert (a in white) != (b in white)


def test_trefoil_tait_shapes():
    kd = parse_pd({"pd": TREFOIL})
    white, black = white_data(kd)
    assert sorted(white.degrees.values()) == [2, 2, 2]
    assert len(white.vertices) == 3 and len(white.edges) == 3
    assert len(black.vertices) == 2 and len(black.edges) == 3
    assert is_special(white, black)


def test_mirror_swaps_shapes():
    kd = parse_pd({"pd": PD_CODES["trefoil_mirror"]})
    white, black = white_data(kd)
    assert len(white.vertices) == 2 and sorted(white.degrees.values()) == [3, 3]
    assert len(black.vertices) == 3
    assert not is_special(white, black)


def test_hopf_reduced_white():
    kd = parse_pd({"pd": PD_CODES["hopf"]})
    g = goeritz(white_graph(kd))
    assert g.matrix == ((-2,),)


def test_counts_all(all_diagrams):
    for name, kd in all_diagrams:
        mirrored = mirror(kd)
        white, black = white_graph(kd), white_graph(mirrored)
        n = kd.n
        assert len(kd.regions) == n + 2, name
        assert len(white.edges) == n and len(black.edges) == n, name
        assert len(white.vertices) + len(black.vertices) == n + 2, name
        # marked vertices flank the marked arc
        assert white.marked in kd.marked_regions
        assert black.marked in mirrored.marked_regions


def test_state_count_equals_det(all_diagrams):
    for name, kd in all_diagrams:
        white = white_graph(kd)
        g = goeritz(white)
        covectors = kauffman_states(kd, white)
        assert len(covectors) == abs(det_exact(g.matrix)), name
        # assignments are bijections onto unmarked regions at corners
        unmarked = set(range(len(kd.regions))) - set(kd.marked_regions)
        assignments = kauffman_state_assignments(kd)
        assert len(assignments) == len(covectors), name
        for assignment in assignments:
            assert set(assignment) <= unmarked
            assert len(set(assignment)) == kd.n
            for c, r in enumerate(assignment):
                assert r in kd.corner_region[c]


def test_covector_parity_and_balance(all_diagrams):
    for name, kd in all_diagrams:
        white = white_graph(kd)
        g = goeritz(white)
        marked_degree = white.degree(white.marked)
        for vec in kauffman_states(kd, white):
            for x, gd in zip(vec, g.diagonal):
                assert (x - gd) % 2 == 0, name
            # the signed degrees sum to 0, so the marked vertex holds
            # -sum(vec): at most its degree, and of the same parity
            assert abs(sum(vec)) <= marked_degree, name
            assert (sum(vec) - marked_degree) % 2 == 0, name


def assert_walk_matches_oracle(kd):
    white = white_graph(kd)
    assert kauffman_states(kd, white) == \
        [state_covector(kd, a, white) for a in kauffman_state_assignments(kd)]


@given(st.integers(0, 10 ** 6))
@settings(max_examples=60, deadline=None)
def test_state_walk_matches_oracle_on_medials(seed):
    rng = random.Random(seed)
    g = gen_plane_multigraph(rng, rng.randint(2, 6), rng.randint(0, 4),
                             bridgeless=True)
    pd = diagram_from_plane_graph(g)["pd"]
    arc = rng.choice(arc_ids(pd))
    assert_walk_matches_oracle(parse_pd({"pd": pd, "marked_arc": arc}))


@pytest.mark.parametrize("seed", range(8))
def test_state_walk_matches_oracle_where_forcing_prunes(seed):
    # medials of 14 to 21 crossings and 280 to 1616 states, where most
    # branches of a walk without forcing die before the last crossing
    rng = random.Random(seed)
    g = gen_plane_multigraph(rng, rng.randint(7, 9), rng.randint(6, 10),
                             bridgeless=True)
    pd = diagram_from_plane_graph(g)["pd"]
    for arc in rng.sample(arc_ids(pd), 2):
        assert_walk_matches_oracle(parse_pd({"pd": pd, "marked_arc": arc}))


def test_forced_walk_work_at_probe_a():
    """The walk enters 271,081 crossings for the 3796 states of probe A;
    without forcing it enters 2,880,753."""
    kd = parse_pd(diagram_from_plane_graph(probe_a()))
    white = white_graph(kd)
    walk, = [c for c in kauffman_states.__code__.co_consts
             if getattr(c, "co_name", None) == "walk"]
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        if event == "call" and frame.f_code is walk:
            calls += 1

    sys.setprofile(count)
    try:
        states = kauffman_states(kd, white)
    finally:
        sys.setprofile(None)
    assert len(states) == 3796
    assert calls == 271081 < 300000


def test_state_walk_matches_oracle_at_every_arc():
    for pd in PD_CODES.values():
        for arc in arc_ids(pd):
            assert_walk_matches_oracle(parse_pd({"pd": pd, "marked_arc": arc}))


def test_special_examples(all_diagrams):
    expected = {"trefoil": True, "trefoil_mirror": False, "hopf": True,
                "figure_eight": False, "special44": True, "path_hub": False}
    got = {}
    for name, kd in all_diagrams:
        white, black = white_data(kd)
        got[name] = is_special(white, black)
    for name, val in expected.items():
        assert got[name] == val, name


def test_states_to_classes_injective(all_diagrams):
    for name, kd in all_diagrams:
        if kd.n > 8:
            continue
        white = white_graph(kd)
        g = goeritz(white)
        # raises unless a bijection
        enumerate_spinc(g, covectors=kauffman_states(kd, white))


def test_marked_arc_independence():
    inputs = [(name, PD_CODES[name])
              for name in ("trefoil", "figure_eight", "hopf", "5_2")]
    rng = random.Random(404)
    while len(inputs) < 44:
        g = gen_plane_multigraph(rng, rng.randint(2, 5), rng.randint(1, 4),
                                 bridgeless=True)
        inputs.append(("medial%d" % len(inputs),
                       diagram_from_plane_graph(g)["pd"]))
    for name, pd in inputs:
        reference = None
        for arc in arc_ids(pd):
            kd = parse_pd({"pd": pd, "marked_arc": arc})
            white = white_graph(kd)
            g = goeritz(white)
            ds = sorted(c.d for c in enumerate_spinc(
                g, covectors=kauffman_states(kd, white)))
            if reference is None:
                reference = ds
            else:
                assert ds == reference, (name, arc)


def test_medial_round_trip():
    rng = random.Random(99)
    for _ in range(25):
        g = gen_plane_multigraph(rng, rng.randint(2, 6), rng.randint(1, 5),
                                 marked=True, bridgeless=True)
        kd = parse_pd(diagram_from_plane_graph(g))
        white = white_graph(kd)
        assert multigraph_isomorphic(white, g, respect_marked=True)


def test_medial_rejects_bridges():
    path = banana_graph(1)  # single edge: a bridge
    with refused("^bridges give nugatory crossings$"):
        diagram_from_plane_graph(path)


@given(st.integers(0, 10 ** 6))
@settings(max_examples=60, deadline=None)
def test_checkerboard_matches_bfs_oracle(seed):
    rng = random.Random(seed)
    g = gen_plane_multigraph(rng, rng.randint(2, 7), rng.randint(0, 6),
                             bridgeless=True)
    kd = parse_pd(diagram_from_plane_graph(g))
    white = white_graph(kd).vertices
    assert checkerboard_bfs(kd) == white
    assert convention_ok(kd, white)


def doubled_cycle_graph(k):
    """The k-cycle with every edge doubled, marked at 0: each copy
    2i + 1 is drawn alongside edge 2i, between i and i + 1."""
    edges = tuple((i // 2, (i // 2 + 1) % k, i) for i in range(2 * k))
    rots = tuple((((2 * v - 1) % (2 * k), 1), ((2 * v - 2) % (2 * k), 1),
                  (2 * v, 0), (2 * v + 1, 0)) for v in range(k))
    return MarkedGraph(tuple(range(k)), edges, marked=0, rotations=rots)


def test_characteristic_subgraphs_count_the_link_components(all_diagrams):
    # spin structures on the double branched cover of a c-component
    # link: 2^(c - 1), one per characteristic subgraph
    def count(w):
        return len(characteristic_subgraphs(w))

    kds = [kd for _, kd in all_diagrams]
    rng = random.Random(31)
    for _ in range(60):
        g = gen_plane_multigraph(rng, rng.randint(2, 7), rng.randint(0, 8),
                                 bridgeless=True)
        kds.append(parse_pd(diagram_from_plane_graph(g)))
    for kd in kds:
        assert count(white_graph(kd)) == 2 ** (link_components(kd) - 1)
    for k in range(2, 11):
        w = doubled_cycle_graph(k)
        euler_check(w)
        kd = parse_pd(diagram_from_plane_graph(w))
        assert link_components(kd) == k
        assert count(w) == count(white_graph(kd)) == 2 ** (k - 1)
