import random
import re

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from spinfill import chainmail, exactalg, graphs
from spinfill.chainmail import (ChainmailLink, build_chainmail,
                                characteristic_subsets, is_characteristic,
                                kaplan_filling, mk1_run)
from spinfill.errors import CertificationFailure, MalformedInput
from spinfill.exactalg import goeritz
from spinfill.graphs import MarkedGraph, graph_to_doc
from spinfill.spinc import characteristic_subgraphs

from conftest import (banana_graph, banana_path_doc, chainmail_or_none,
                      path_hub_graph, refused, special44_graph, two33_graph)
from oracles import (encloses_by_faces, furuta_check, gen_plane_multigraph,
                     kaplan_filling_by_moves)


def filling(link, subset):
    """Kaplan's filling of a sublink, from its one slide log."""
    return kaplan_filling(link, mk1_run(link, subset))


def test_build_from_tait_examples():
    link = build_chainmail(special44_graph())
    assert link.weights == (-4, -4)
    assert len(link.graph.edges) == 1
    assert link.linking_matrix == ((-4, 1), (1, -4))

    link = build_chainmail(banana_graph(3))
    assert link.weights == (-3,) and not link.graph.edges

    link = build_chainmail(path_hub_graph())
    assert [link.linking_matrix[i][i] for i in range(4)] == [-4, -2, -5, -2]


def test_linking_matrix_matches_goeritz():
    for graph in (special44_graph(), path_hub_graph(), two33_graph()):
        link = build_chainmail(graph)
        g = goeritz(graph)
        assert link.linking_matrix == g.matrix


def test_build_document_with_signs():
    doc = {
        "vertices": [{"id": 0, "weight": -1}, {"id": 1, "weight": 2}],
        "edges": [{"u": 0, "v": 1, "sign": -1}, {"u": 0, "v": 1, "sign": 1}],
        "rotations": {"0": [0, 1], "1": [1, 0]},
    }
    link = build_chainmail(doc)
    assert link.signs == (-1, 1)
    assert link.linking_matrix == ((-1, 0), (0, 2))


def test_linking_matrix_is_built_once():
    link = build_chainmail(path_hub_graph())
    mat = link.linking_matrix
    snapshot = tuple(tuple(row) for row in mat)
    for sub in characteristic_subsets(link):
        filling(link, sub)
        assert link.linking_matrix is mat
    assert mat == snapshot


def test_build_needs_weights_or_a_mark():
    with pytest.raises(MalformedInput):
        build_chainmail(banana_graph(3, marked=False))
    with pytest.raises(MalformedInput):
        build_chainmail({"vertices": [{"id": 0}, {"id": 1}],
                         "edges": [[0, 1]]})


def test_build_rejects_disconnected():
    doc = {"vertices": [{"id": 0, "weight": -2}, {"id": 1, "weight": -2}],
           "edges": []}
    with refused("^chainmail graph must be connected$"):
        build_chainmail(doc)


def test_build_traces_the_given_embedding_once(count_calls):
    calls = count_calls(graphs.trace_faces, MarkedGraph.is_connected)
    # a marked graph's own embedding is checked; what is left after its
    # marked vertex is deleted is checked only for connectivity
    for w in (two33_graph(), special44_graph()):
        calls.update(trace_faces=0, is_connected=0)
        build_chainmail(w)
        assert calls == {"trace_faces": 1, "is_connected": 2}
    # an unmarked document is traced once, for its outer face and its
    # genus, and checked once for connectivity
    doc = graph_to_doc(special44_graph())
    del doc["marked"]
    for entry in doc["vertices"]:
        entry["weight"] = -4
    calls.update(trace_faces=0, is_connected=0)
    build_chainmail(doc)
    assert calls == {"trace_faces": 1, "is_connected": 1}


def test_build_refuses_a_disconnected_embedding_before_its_genus():
    # two disjoint digons: V - E + F = 4 - 4 + 4, so the genus check
    # would refuse them too
    doc = {"vertices": [{"id": v, "weight": -2} for v in range(4)],
           "edges": [[0, 1], [0, 1], [2, 3], [2, 3]],
           "rotations": {"0": [0, 1], "1": [1, 0], "2": [2, 3],
                         "3": [3, 2]}}
    with refused("^chainmail graph must be connected$"):
        build_chainmail(doc)


def test_no_signature_call_on_any_tait_link(count_calls):
    calls = count_calls(exactalg.signature)
    for w in (two33_graph(), special44_graph(), path_hub_graph(),
              banana_graph(5)):
        link = build_chainmail(w)
        assert link.from_tait and link.sigma == -len(link.vertices)
    assert calls == {"signature": 0}
    # a weighted document eliminates, once per link
    link = build_chainmail({
        "vertices": [{"id": "a", "weight": -4}, {"id": "b", "weight": -2},
                     {"id": "c", "weight": -5}],
        "edges": [["a", "b"], ["b", "c"]]})
    assert not link.from_tait
    assert (link.sigma, link.sigma) == (-3, -3)
    assert calls == {"signature": 1}


def test_tait_link_certifies_its_hub_counts():
    assert ChainmailLink._fields == ("graph", "weights", "signs",
                                     "outer_dart", "from_tait")
    link = build_chainmail(path_hub_graph())
    g, weights, signs = link.graph, link.weights, link.signs
    # b has no hub edge, so its count is 0; raising its weight makes it -1
    low = tuple(w + (v == "b") for v, w in zip(g.vertices, weights))
    # minus the degrees in the link graph: every count is 0, L singular
    bare = tuple(-g.degree(v) for v in g.vertices)
    clasps = (-1,) + signs[1:]
    for ws, ss, counts in ((low, signs, "'b': -1"), (bare, signs, "'a': 0"),
                           (weights, clasps, "'b': 0")):
        with pytest.raises(CertificationFailure,
                           match="^chainmail.ChainmailLink: a Tait link needs"
                                 " positive clasps .*" + counts):
            ChainmailLink(g, ws, ss, link.outer_dart, from_tait=True)
        # the same link, not claimed to be a Tait link, is built
        ChainmailLink(g, ws, ss, link.outer_dart)


def test_is_characteristic_matrix_rule():
    link = build_chainmail(path_hub_graph())
    assert is_characteristic(link, ("d",))
    assert not is_characteristic(link, ("a",))
    assert not is_characteristic(link, ())
    assert characteristic_subsets(link) == [("d",)]


def test_mk1_single_vertex():
    link = build_chainmail(banana_graph(3))
    log = mk1_run(link, (1,))
    assert log.steps == ()
    assert log.final_framing == -3


def test_mk1_path_example():
    link = build_chainmail(path_hub_graph())
    log = mk1_run(link, ("d",))
    assert log.final_framing == -2


def test_mk1_two33():
    link = build_chainmail(two33_graph())
    log = mk1_run(link, ("a",))
    assert log.final_framing == -3


def test_mk1_errors():
    link = build_chainmail(banana_graph(3))
    with pytest.raises(MalformedInput):
        mk1_run(link, ("nope",))


def test_mk1_framing_random():
    rng = random.Random(17)
    cases = slides = 0
    while cases < 120:
        w = gen_plane_multigraph(rng, rng.randint(3, 10), rng.randint(0, 10))
        link = chainmail_or_none(w)
        if link is None:
            continue
        subs = [c for c in characteristic_subgraphs(w) if c.vertices]
        for c in subs:
            log = mk1_run(link, c.vertices)
            assert log.final_framing == -c.cut
            assert len(log.steps) == len(c.vertices) - 1
            slides += len(log.steps)
            cases += 1
    assert slides > 100


def test_mk1_steps_are_unimodular():
    rng = random.Random(29)
    done = 0
    while done < 25:
        w = gen_plane_multigraph(rng, rng.randint(3, 8), rng.randint(1, 8))
        link = chainmail_or_none(w)
        if link is None:
            continue
        subs = [c for c in characteristic_subgraphs(w)
                if len(c.vertices) >= 2]
        for c in subs:
            log = mk1_run(link, c.vertices)
            idx = {v: i for i, v in enumerate(log.vertex_order)}
            n = len(log.vertex_order)
            mat = [list(r) for r in log.initial_matrix]
            for step in log.steps:
                p, s = idx[step.slid], idx[step.over]
                e = [[int(i == j) for j in range(n)] for i in range(n)]
                e[s][p] = 1
                mat = [[sum(e[a][i] * mat[a][b] * e[b][j]
                            for a in range(n) for b in range(n))
                        for j in range(n)] for i in range(n)]
                assert step.framing_after == mat[p][p]
            assert tuple(tuple(r) for r in mat) == log.final_matrix
            done += 1


def test_kaplan_examples():
    link = build_chainmail(banana_graph(3))
    stats = filling(link, (1,))
    assert (stats.b2, stats.sigma, stats.f) == (2, 2, 3)
    assert stats.even_form

    # the empty sublink slides nothing and keeps the chainmail filling
    link = build_chainmail(special44_graph())
    log = mk1_run(link, ())
    assert (log.subset, log.steps, log.final_vertex, log.final_framing) \
        == ((), (), None, 0)
    assert log.final_matrix == log.initial_matrix == link.linking_matrix
    assert kaplan_filling(link, log) == (len(link.vertices), link.sigma,
                                         True, 0) == (2, -2, True, 0)

    link = build_chainmail(path_hub_graph())
    stats = filling(link, ("d",))
    assert (stats.b2, stats.sigma, stats.f) == (4, -2, 2)


def test_kaplan_rejects_noncharacteristic():
    link = build_chainmail(path_hub_graph())
    with refused("^subset fails the linking parity test$"):
        filling(link, ("a",))


def test_kaplan_rejects_unknown_vertex():
    link = build_chainmail(two33_graph())
    for check in (is_characteristic, filling):
        with pytest.raises(MalformedInput, match="unknown vertex 'zz'"):
            check(link, ("zz",))


def test_kaplan_rejects_a_log_of_another_link():
    link = build_chainmail(two33_graph())
    assert link.vertices == ("a", "b")
    assert link.linking_matrix == ((-3, 1), (1, -3))
    # ("a",) is characteristic in both links below, with other matrices
    # or another vertex order
    others = [
        {"vertices": [{"id": "a", "weight": -5}, {"id": "b", "weight": -1}],
         "edges": [{"u": "a", "v": "b", "sign": 1}]},
        {"vertices": [{"id": "b", "weight": -3}, {"id": "a", "weight": -3}],
         "edges": [{"u": "a", "v": "b", "sign": 1}]},
    ]
    for doc in others:
        log = mk1_run(build_chainmail(doc), ("a",))
        with pytest.raises(CertificationFailure) as info:
            kaplan_filling(link, log)
        assert str(info.value) == ("chainmail.kaplan_filling: the slide log "
                                   "of sublink ['a'] is of another link")
    assert filling(link, ("a",)) == (3, 1, True, 3)
    # a log from a fresh link with an equal matrix is this link's log
    fresh = mk1_run(build_chainmail(two33_graph()), ("a",))
    assert kaplan_filling(link, fresh) == (3, 1, True, 3)


def test_kaplan_accounting_random():
    rng = random.Random(31)
    done = 0
    while done < 60:
        w = gen_plane_multigraph(rng, rng.randint(3, 9), rng.randint(0, 9))
        link = chainmail_or_none(w)
        if link is None:
            continue
        m = len(link.vertices)
        for c in characteristic_subgraphs(w):
            stats = filling(link, c.vertices)
            assert stats.even_form
            if stats.f >= 1:
                assert stats.b2 == m + stats.f - 2
                assert stats.sigma == -m + stats.f
            else:
                assert (stats.b2, stats.sigma) == (m, -m)
            done += 1


def random_chainmail_doc(rng):
    """Unmarked embedded document with random weights and clasp signs."""
    g = gen_plane_multigraph(rng, rng.randint(2, 7), rng.randint(0, 6),
                             marked=False)
    doc = graph_to_doc(g)
    for entry in doc["vertices"]:
        entry["weight"] = rng.randint(-6, 2)
    doc["edges"] = [{"u": u, "v": v, "sign": rng.choice((1, -1))}
                    for u, v in doc["edges"]]
    return doc


def kaplan_matches_moves(link):
    """The closed form against the explicit blow-ups and blow-down, on
    every characteristic sublink; returns the slid framings met."""
    framings = []
    for sub in characteristic_subsets(link):
        log = mk1_run(link, sub)
        if not sub:
            assert kaplan_filling(link, log) == \
                kaplan_filling_by_moves(link, log)
            continue
        framings.append(log.final_framing)
        if log.final_framing >= 0:
            for fill in (kaplan_filling, kaplan_filling_by_moves):
                with refused(r"^sublink \[.*\] slides to framing \d+; the "
                             "Kaplan filling needs a negative framing$"):
                    fill(link, log)
        else:
            assert kaplan_filling(link, log) == \
                kaplan_filling_by_moves(link, log), sub
    return framings


@given(st.integers(0, 10 ** 6))
@settings(max_examples=60, deadline=None)
def test_kaplan_matches_moves_random(seed):
    kaplan_matches_moves(build_chainmail(random_chainmail_doc(
        random.Random(seed))))


def test_kaplan_matches_moves_covers_every_framing():
    # f = 1 needs no blow-up, f >= 2 needs some, framing >= 0 is refused
    single = build_chainmail({"vertices": [{"id": 0, "weight": -1}],
                              "edges": []})
    assert kaplan_matches_moves(single) == [-1]
    rng = random.Random(8)
    framings = []
    for _ in range(40):
        framings += kaplan_matches_moves(
            build_chainmail(random_chainmail_doc(rng)))
    assert -1 in framings and min(framings) < -1 and max(framings) >= 0


def test_warm_link_replays_fresh_slide_logs():
    # contraction plans are kept on the link: once every characteristic
    # sublink has been slid, sliding them again in shuffled order builds
    # no plan and gives each sublink the log of a fresh link
    rng = random.Random(23)
    done = planned = 0
    while done < 100:
        w = gen_plane_multigraph(rng, rng.randint(4, 10), rng.randint(2, 10))
        warm = chainmail_or_none(w)
        if warm is None:
            continue
        subs = [sub for sub in characteristic_subsets(warm) if sub]
        for sub in subs:
            mk1_run(warm, sub)
        plans = dict(warm.plans)
        rng.shuffle(subs)
        for sub in subs:
            assert mk1_run(warm, sub) == mk1_run(build_chainmail(w), sub), sub
        assert warm.plans.keys() == plans.keys()
        assert all(warm.plans[key] is plan for key, plan in plans.items())
        planned += bool(plans)
        done += 1
    assert planned > 50


def test_failed_plan_is_not_kept(monkeypatch):
    # the piece (1, 2) lies in the sublinks {1, 2} and {1, 2, 4}
    link = build_chainmail(banana_path_doc(4))
    assert [1, 2] in map(list, characteristic_subsets(link))
    with monkeypatch.context() as patch:
        patch.setattr(chainmail._PlaneWork, "encloses",
                      lambda work, u, v: True)
        for sub in ((1, 2), (1, 2, 4), (1, 2)):
            with pytest.raises(CertificationFailure,
                               match=r"no slidable pair left in sublink %s$"
                               % re.escape(str(list(sub)))):
                mk1_run(link, sub)
        assert link.plans == {}
    assert mk1_run(link, (1, 2, 4)) == \
        mk1_run(build_chainmail(banana_path_doc(4)), (1, 2, 4))
    assert list(link.plans) == [frozenset((1, 2))]


def _nested_lens_doc(outer_dart):
    # a =(2 edges)= b =(2 edges)= c, with c's lens drawn inside the a-b
    # bigon; which pair slides first depends on the unbounded face.
    return {
        "vertices": [{"id": "a", "weight": -2}, {"id": "b", "weight": -2},
                     {"id": "c", "weight": -2}],
        "edges": [["a", "b"], ["a", "b"], ["b", "c"], ["b", "c"]],
        "rotations": {"a": [0, 1], "b": [0, 2, 3, 1], "c": [2, 3]},
        "outer": outer_dart,
    }


def _face_with_edges(link, edge_ids):
    from spinfill.graphs import trace_faces
    for face in trace_faces(link.graph):
        if {e for (e, _) in face} == set(edge_ids) and len(face) == 2:
            return face[0]
    raise AssertionError("expected bigon face not found")


def test_mk1_pair_selection_respects_enclosed_regions():
    probe = build_chainmail(_nested_lens_doc([0, 0]))
    outer_ab = _face_with_edges(probe, {0, 1})
    outer_bc = _face_with_edges(probe, {2, 3})

    # unbounded face outside the big bigon: c blocks the (a, b) family,
    # so the inner lens must slide first
    link = build_chainmail(_nested_lens_doc(list(outer_ab)))
    log = mk1_run(link, ("a", "b", "c"))
    assert [(s.slid, s.over) for s in log.steps] == [("b", "c"), ("a", "b")]

    # unbounded face inside c's lens: the sphere is redrawn, nothing is
    # enclosed by the (a, b) family, and lexicographic order wins
    link2 = build_chainmail(_nested_lens_doc(list(outer_bc)))
    log2 = mk1_run(link2, ("a", "b", "c"))
    assert [(s.slid, s.over) for s in log2.steps] == [("a", "b"), ("a", "c")]

    # slide order never changes the final framing
    assert log.final_framing == log2.final_framing == 2


def encloses_agreement(rng):
    """mk1 on a random unmarked link, over characteristic and random
    sublinks and several outer darts, with the rotation-based pair test
    checked against the face-tracing oracle at every call.  Returns the
    number of calls, of enclosing answers and of calls on a family of
    two or more edges with no tracked outer face."""
    g = gen_plane_multigraph(rng, rng.randint(2, 12), rng.randint(0, 12),
                             marked=False)
    weights = tuple(rng.randint(-6, 2) for _ in g.vertices)
    signs = tuple(rng.choice((1, -1)) for _ in g.edges)
    counts = {"calls": 0, "enclosed": 0, "untracked": 0}
    real = chainmail._PlaneWork.encloses

    def checked(work, u, v):
        got = real(work, u, v)
        assert got == encloses_by_faces(work, u, v), (u, v, work.rot,
                                                      work.outer)
        counts["calls"] += 1
        counts["enclosed"] += got
        counts["untracked"] += (work.outer is None
                                and len(work.family(u, v)) > 1)
        return got

    probe = ChainmailLink(g, weights, signs, None)
    subsets = [sub for sub in characteristic_subsets(probe) if sub][:6]
    subsets += [tuple(v for v in g.vertices if rng.random() < 0.7)
                for _ in range(4)]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(chainmail._PlaneWork, "encloses", checked)
        for sub in filter(None, subsets):
            inner = [(e, end) for e, (a, b, _) in enumerate(g.edges)
                     if a in sub and b in sub for end in (0, 1)]
            for outer in (None, rng.choice(inner) if inner else None):
                mk1_run(ChainmailLink(g, weights, signs, outer), sub)
    return counts


@given(st.integers(0, 10 ** 6))
@settings(max_examples=60, deadline=None)
def test_encloses_matches_face_tracing(seed):
    encloses_agreement(random.Random(seed))


def test_encloses_agreement_covers_both_answers():
    rng = random.Random(13)
    total = {"calls": 0, "enclosed": 0, "untracked": 0}
    for _ in range(30):
        for key, count in encloses_agreement(rng).items():
            total[key] += count
    assert total["calls"] > 500
    assert 0 < total["enclosed"] < total["calls"]
    assert total["untracked"] > 0, total


def test_mk1_disconnected_sublink_merges():
    from conftest import cycle_graph
    w = cycle_graph(4)
    subs = [c for c in characteristic_subgraphs(w) if c.vertices]
    assert subs and subs[0].vertices == (1, 3)
    link = build_chainmail(w)
    log = mk1_run(link, (1, 3))
    # two singleton components merged by one star slide
    assert len(log.steps) == 1 and log.steps[0].kind == "merge"
    assert log.final_framing == -4


def test_build_rejects_marked_cut_vertex():
    # two parallel families sharing only the marked vertex
    edges = tuple(("h", "a", k) for k in range(3)) + \
        tuple(("h", "b", 3 + k) for k in range(3))
    w = MarkedGraph(("h", "a", "b"), edges, marked="h")
    with refused("^chainmail graph must be connected$"):
        build_chainmail(w)


def test_furuta_examples():
    assert furuta_check(1, 9).obstructed
    assert not furuta_check(4, 2).obstructed
    v = furuta_check(1, 9, b2=0)
    assert v.b2_feasible is False
    assert furuta_check(4, 2, b2=2).b2_feasible is True
    with pytest.raises(MalformedInput):
        furuta_check(0, 1)


@given(st.integers(0, 10 ** 6))
@settings(max_examples=40, deadline=None)
def test_characteristic_subsets_match_subgraphs(seed):
    rng = random.Random(seed)
    w = gen_plane_multigraph(rng, rng.randint(2, 7), rng.randint(0, 6))
    assume(w.without_vertex(w.marked)[0].is_connected())
    assert characteristic_subsets(build_chainmail(w)) == \
        [c.vertices for c in characteristic_subgraphs(w)]
