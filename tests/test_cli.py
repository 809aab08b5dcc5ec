import gc
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import spinfill
from spinfill import chainmail, diagram, exactalg, graphs, spinc
from spinfill.cli import build_parser, main
from spinfill.graphs import MarkedGraph, graph_to_doc

from conftest import (PD_CODES, banana_graph, banana_path_doc, path_hub_graph,
                      two33_graph)
from oracles import diagram_from_plane_graph


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_doc(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.fixture
def trefoil_file(tmp_path):
    return write_doc(tmp_path, "trefoil.json", {"pd": PD_CODES["trefoil"]})


@pytest.fixture
def ban9_file(tmp_path):
    return write_doc(tmp_path, "ban9.json", {
        "vertices": [{"id": 0}, {"id": 1}],
        "edges": [[0, 1]] * 9,
        "marked": 0,
    })


@pytest.fixture
def path_tree_file(tmp_path):
    return write_doc(tmp_path, "path.json", {
        "vertices": [{"id": "a", "weight": -4}, {"id": "b", "weight": -2},
                     {"id": "c", "weight": -5}, {"id": "d", "weight": -2}],
        "edges": [["a", "b"], ["b", "c"], ["c", "d"]],
    })


def test_analyze_trefoil(trefoil_file, capsys):
    code, out, _ = run_cli(["analyze", trefoil_file], capsys)
    assert code == 0
    assert "det = 3" in out
    assert "special = yes" in out
    assert "spin-c classes (3)" in out
    assert "d=1/2" in out


def test_analyze_json_round_trip(trefoil_file, capsys):
    code, out, _ = run_cli(["--json", "analyze", trefoil_file], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["invariants"] == {"m": 2, "det": 3, "special": True}
    assert doc["goeritz"]["matrix"] == [[-2, 1], [1, -2]]
    assert len(doc["spinc"]) == 3


def test_json_reparse_revalidates(tmp_path, capsys):
    first = write_doc(tmp_path, "in.json", {"pd": PD_CODES["figure_eight"]})
    code, out, _ = run_cli(["--json", "analyze", first], capsys)
    assert code == 0
    doc = json.loads(out)
    echoed = write_doc(tmp_path, "echo.json", doc["input"])
    code2, out2, _ = run_cli(["--json", "analyze", echoed], capsys)
    assert code2 == 0
    assert json.loads(out2) == doc


def test_json_reparse_graph_input(ban9_file, capsys):
    code, out, _ = run_cli(["--json", "analyze", ban9_file], capsys)
    assert code == 0
    doc = json.loads(out)
    import tempfile, os
    fd, path = tempfile.mkstemp(suffix=".json")
    try:
        with os.fdopen(fd, "w") as fh:
            json.dump(doc["input"], fh)
        code2, out2, _ = run_cli(["--json", "analyze", path], capsys)
    finally:
        os.unlink(path)
    assert code2 == 0
    assert json.loads(out2) == doc


def test_analyze_deterministic(trefoil_file, capsys):
    outs = set()
    for _ in range(3):
        code, out, _ = run_cli(["analyze", trefoil_file], capsys)
        assert code == 0
        outs.add(out)
    assert len(outs) == 1


def test_threads_flag_is_gone(trefoil_file, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["analyze", trefoil_file, "--threads", "2"])
    assert exc.value.code == 2
    assert "--threads" in capsys.readouterr().err


def test_analyze_mark_override(trefoil_file, capsys):
    code, out, _ = run_cli(["analyze", trefoil_file, "--mark", "4"], capsys)
    assert code == 0
    assert "marked arc 4" in out


def unmarked_doc(graph):
    doc = graph_to_doc(graph)
    del doc["marked"]
    return doc


def test_analyze_mark_on_graph_input(tmp_path, capsys, monkeypatch):
    # a string id picks that vertex, as "marked" in the document would
    bare = write_doc(tmp_path, "two33.json", unmarked_doc(two33_graph()))
    marked = write_doc(tmp_path, "two33m.json", graph_to_doc(two33_graph()))
    for command in ("analyze", "obstruct"):
        code, out, _ = run_cli(["--json", command, bare, "--mark", "h"],
                               capsys)
        assert code == 0
        assert out == run_cli(["--json", command, marked], capsys)[1]
    # --mark overrides the document's mark
    code, out, _ = run_cli(["--json", "analyze", marked, "--mark", "a"],
                           capsys)
    assert code == 0
    report = json.loads(out)
    assert report["input"]["marked"] == "a"
    assert report["goeritz"]["vertex_order"] == ["h", "b"]

    # an int id given as text reads as the int vertex
    doc = unmarked_doc(banana_graph(3))
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(doc)))
    code, out, _ = run_cli(["--json", "analyze", "-", "--mark", "1"], capsys)
    assert code == 0
    assert json.loads(out)["input"]["marked"] == 1
    with_mark = write_doc(tmp_path, "ban3.json", dict(doc, marked=1))
    assert out == run_cli(["--json", "analyze", with_mark], capsys)[1]

    # an unknown id is malformed input, named in the message
    for path, mark in ((bare, "zz"), (with_mark, "7"), (bare, "1")):
        code, out, err = run_cli(["analyze", path, "--mark", mark], capsys)
        assert code == 2 and out == ""
        assert err == "error: unknown vertex %r\n" % mark


def test_mk1_set_with_int_ids(capsys, monkeypatch):
    # characteristic sublinks of banana_path_doc(3): the sets holding 1
    doc = json.dumps(banana_path_doc(3))
    monkeypatch.setattr(sys, "stdin", io.StringIO(doc))
    code, out, _ = run_cli(["--json", "mk1", "-", "--all"], capsys)
    assert code == 0
    runs = {tuple(r["subset"]): r for r in json.loads(out)["runs"]}
    assert sorted(runs) == [(1,), (1, 2), (1, 2, 3), (1, 3)]
    for subset in ("1,2", "1,3", "1,2,3"):
        monkeypatch.setattr(sys, "stdin", io.StringIO(doc))
        code, out, _ = run_cli(["--json", "mk1", "-", "--set", subset],
                               capsys)
        assert code == 0
        (run,) = json.loads(out)["runs"]
        assert run == runs[tuple(map(int, subset.split(",")))]


def test_bare_pd_list_reads_as_a_pd_document(tmp_path, capsys):
    bare = write_doc(tmp_path, "bare.json", PD_CODES["figure_eight"])
    doc = write_doc(tmp_path, "doc.json", {"pd": PD_CODES["figure_eight"]})
    for argv in (["--json", "analyze"], ["analyze"], ["--json", "obstruct"],
                 ["--json", "mk1"]):
        expected = run_cli(argv + [doc], capsys)
        assert expected[0] == 0, argv
        assert run_cli(argv + [bare], capsys) == expected, argv


def test_document_of_neither_kind_exits_2(tmp_path, capsys):
    for k, doc in enumerate(({"edges": [[0, 1]], "marked": 0}, {}, 42,
                             "pd")):
        path = write_doc(tmp_path, "other%d.json" % k, doc)
        for command in ("analyze", "obstruct", "mk1"):
            code, out, err = run_cli([command, path], capsys)
            assert code == 2 and out == "", (doc, command)
            assert err == ("error: document is neither a PD code nor a "
                           "graph\n"), (doc, command)


def test_exit_codes(tmp_path, capsys, monkeypatch):
    garbage = tmp_path / "garbage.json"
    garbage.write_text("{ not json")
    code, _, err = run_cli(["analyze", str(garbage)], capsys)
    assert code == 2

    nonalt = write_doc(tmp_path, "nonalt.json",
                       {"pd": [[4, 2, 5, 1]] + PD_CODES["trefoil"][1:]})
    code, _, _ = run_cli(["analyze", nonalt], capsys)
    assert code == 3

    missing = run_cli(["analyze", str(tmp_path / "nope.json")], capsys)
    assert missing[0] == 2

    # The second component misses the mark: a topology error, not a bug.
    split = write_doc(tmp_path, "split.json", {
        "vertices": [{"id": 0}, {"id": 1}, {"id": 2}, {"id": 3}],
        "edges": [[0, 1], [0, 1], [2, 3], [2, 3], [2, 3]], "marked": 0})
    code, _, err = run_cli(["obstruct", split], capsys)
    assert code == 3
    assert "connected" in err

    # A +1-framed unknot is characteristic and slides to framing 1: the
    # Kaplan filling does not apply, a precondition, not a bug.
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(
        {"vertices": [{"id": 0, "weight": 1}], "edges": []})))
    code, _, err = run_cli(["--json", "mk1", "-", "--all"], capsys)
    assert code == 3
    assert "[0]" in err and "framing 1" in err

    # --set names each vertex at most once, an empty --set slides
    # nothing, and --set excludes --all.
    hub = write_doc(tmp_path, "hub.json", graph_to_doc(path_hub_graph()))
    code, out, err = run_cli(["--json", "mk1", hub, "--set", "d,d"], capsys)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "'d'" in err and "repeated" in err
    code, out, err = run_cli(["mk1", hub, "--set", ""], capsys)
    assert code == 3 and out == "" and "nothing to slide" in err
    with pytest.raises(SystemExit) as exc:
        main(["mk1", hub, "--set", "d", "--all"])
    assert exc.value.code == 2
    assert "not allowed with argument" in capsys.readouterr().err

    # A diagram's marked arc is an integer arc id.
    trefoil = write_doc(tmp_path, "trefoil.json", {"pd": PD_CODES["trefoil"]})
    for command in ("analyze", "obstruct"):
        for mark in ("abc", "1.5"):
            code, _, err = run_cli([command, trefoil, "--mark", mark], capsys)
            assert code == 2, (command, mark)
            assert err.startswith("error: ") and mark in err


UNREADABLE = {
    "utf16_bom": b"\xff\xfe" + json.dumps({"pd": PD_CODES["trefoil"]})
    .encode("utf-16-le"),
    "deep_nesting": b"[" * 100000,
    "huge_arc_id": json.dumps({"pd": PD_CODES["trefoil"]})
    .replace("1", "1" * 5000, 1).encode(),
}


@pytest.mark.parametrize("name", sorted(UNREADABLE))
@pytest.mark.parametrize("source", ["file", "stdin"])
def test_unreadable_input_exits_2(name, source, tmp_path, capsys,
                                  monkeypatch):
    data = UNREADABLE[name]
    if source == "file":
        path = tmp_path / "input.json"
        path.write_bytes(data)
        arg = str(path)
    else:
        monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(
            io.BytesIO(data), encoding="utf-8"))
        arg = "-"
    code, out, err = run_cli(["analyze", arg], capsys)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "Traceback" not in err


def test_obstruct_graph(ban9_file, capsys):
    code, out, _ = run_cli(["obstruct", ban9_file], capsys)
    assert code == 0
    assert "OBSTRUCTED" in out


def test_obstruct_needs_mark(tmp_path, capsys):
    nomark = write_doc(tmp_path, "nomark.json", {
        "vertices": [{"id": 0}, {"id": 1}], "edges": [[0, 1]]})
    code, _, err = run_cli(["obstruct", nomark], capsys)
    assert code == 2


def test_mk1_command(ban9_file, capsys):
    code, out, _ = run_cli(["mk1", ban9_file], capsys)
    assert code == 0
    assert "final framing -9" in out
    assert "b2=8 sigma=8" in out


def test_mk1_diagram_input(trefoil_file, capsys):
    # special: only the empty sublink exists, a failed precondition
    code, out, err = run_cli(["mk1", trefoil_file], capsys)
    assert code == 3 and out == ""
    assert "only the empty characteristic sublink exists" in err


def test_analyze_mk1_on_diagram(tmp_path, capsys):
    mirror = write_doc(tmp_path, "mirror.json",
                       {"pd": PD_CODES["trefoil_mirror"]})
    code, out, _ = run_cli(["analyze", mirror, "--mk1"], capsys)
    assert code == 0
    assert "final framing -3" in out
    assert "b2=2 sigma=2" in out


def test_analyze_graph_cut_vertex(tmp_path, capsys):
    doc = write_doc(tmp_path, "cut.json", {
        "vertices": [{"id": "h"}, {"id": "a"}, {"id": "b"}],
        "edges": [["h", "a"], ["h", "a"], ["h", "a"],
                  ["h", "b"], ["h", "b"], ["h", "b"]],
        "marked": "h",
    })
    code, out, _ = run_cli(["--json", "analyze", doc, "--mk1"], capsys)
    assert code == 0
    parsed = json.loads(out)
    assert parsed["invariants"]["det"] == 9
    # slide log unavailable: the reduced graph splits
    assert parsed["mk1"]["applicable"] is False


def test_plumb_commands(path_tree_file, tmp_path, capsys):
    code, out, _ = run_cli(["plumb", "decide", path_tree_file], capsys)
    assert code == 0 and "NO" in out

    even = write_doc(tmp_path, "even.json", {
        "vertices": [{"id": 0, "weight": -2}, {"id": 1, "weight": -2}],
        "edges": [[0, 1]]})
    code, out, _ = run_cli(["plumb", "decide", even], capsys)
    assert code == 0 and "YES" in out

    code, out, _ = run_cli(["plumb", "check", path_tree_file], capsys)
    assert code == 0 and "n2: ok" in out

    blow = write_doc(tmp_path, "blow.json", {
        "vertices": [{"id": "x", "weight": -1}], "edges": []})
    code, out, _ = run_cli(["plumb", "reduce", blow], capsys)
    assert code == 0 and "0 vertices" in out

    star = write_doc(tmp_path, "star.json", {
        "vertices": [{"id": "c", "weight": -2}, {"id": "x", "weight": -2},
                     {"id": "y", "weight": -2}, {"id": "z", "weight": -2}],
        "edges": [["c", "x"], ["c", "y"], ["c", "z"]]})
    code, _, _ = run_cli(["plumb", "decide", star], capsys)
    assert code == 3


def abc_tree(ids=("a", "b", "c"), weights=(-2, -2, -2), edges=None):
    """A tree document on three vertices, the path a - b - c by default."""
    return {"vertices": [{"id": v, "weight": w} for v, w in zip(ids, weights)],
            "edges": [["a", "b"], ["b", "c"]] if edges is None else edges}


# name -> (tree document, exit code, stderr); the first fault wins
TREE_REFUSALS = {
    "duplicate_ids": (abc_tree(ids=("a", "b", "a")), 2,
                      "duplicate vertex ids (compared as strings)"),
    "duplicate_as_strings": (abc_tree(ids=(1, "1", 2),
                                      edges=[[1, 2], ["1", 2]]), 2,
                             "duplicate vertex ids (compared as strings)"),
    "endpoint_outside": (abc_tree(edges=[["a", "b"], ["b", "z"]]), 3,
                         "edge endpoint not in vertex set"),
    "loop": (abc_tree(edges=[["a", "b"], ["b", "b"]]), 3,
             "loop edge in tree"),
    "parallel": (abc_tree(edges=[["a", "b"], ["b", "a"]]), 3,
                 "parallel edges in tree"),
    "edge_count": (abc_tree(edges=[["a", "b"]]), 3,
                   "edge count must be vertex count minus one"),
    "disconnected": (abc_tree(ids="abcd", weights=(-2,) * 4,
                              edges=[["a", "b"], ["b", "c"], ["c", "a"]]), 3,
                     "tree must be connected"),
    "bool_id": (abc_tree(ids=(True, "b", "c")), 2,
                "id True is neither an integer nor a string"),
    "float_id": (abc_tree(ids=("a", "b", 1.5)), 2,
                 "id 1.5 is neither an integer nor a string"),
    "float_endpoint": (abc_tree(edges=[["a", "b"], ["b", 2.0]]), 2,
                       "id 2.0 is neither an integer nor a string"),
    "bool_weight": (abc_tree(weights=(-2, False, -2)), 2,
                    "weight False is not an integer"),
    "float_weight": (abc_tree(weights=(-2, -2, -2.0)), 2,
                     "weight -2.0 is not an integer"),
    "missing_weight": (dict(abc_tree(), vertices=[{"id": "a"}]), 2,
                       "bad tree document: 'weight'"),
    "bad_weight_before_missing": (
        dict(abc_tree(), vertices=[{"id": "a", "weight": "x"},
                                   {"id": "b"}]), 2,
        "weight 'x' is not an integer"),
    "non_pair_edge": (abc_tree(edges=[["a", "b"], ["b", "c", "a"]]), 2,
                      "tree edges must be [u, v] pairs"),
    "parallel_and_count": (abc_tree(edges=[["a", "b"], ["a", "b"],
                                           ["b", "c"]]), 3,
                           "parallel edges in tree"),
}


@pytest.mark.parametrize("name", sorted(TREE_REFUSALS))
def test_tree_document_refusals(name, tmp_path, capsys):
    doc, code, message = TREE_REFUSALS[name]
    path = write_doc(tmp_path, "tree.json", doc)
    for action in ("check", "reduce", "decide"):
        assert run_cli(["plumb", action, path], capsys) == (
            code, "", "error: %s\n" % message), action


def test_cf_command(capsys):
    code, out, _ = run_cli(["cf", "16", "9"], capsys)
    assert code == 0
    assert "[2, 5, 2]" in out
    code, _, _ = run_cli(["cf", "9", "16"], capsys)
    assert code == 3


def test_berge_command(capsys):
    code, out, _ = run_cli(["berge", "3", "5"], capsys)
    assert code == 0
    assert "(16, 7)" in out
    code, _, _ = run_cli(["berge", "2", "4"], capsys)
    assert code == 3


def test_witness_command(path_tree_file, capsys):
    code, out, _ = run_cli(["witness", path_tree_file], capsys)
    assert code == 0
    assert out.startswith(
        "hub multiplicities: {'a': 3, 'b': 0, 'c': 3, 'd': 1}\n")
    code, out, _ = run_cli(["--json", "witness", path_tree_file], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["hub_edges"] == {"a": 3, "b": 0, "c": 3, "d": 1}
    # the hub edges follow the path's three edges
    hub = [e for e in report["augmented"]["edges"] if "hub" in e]
    assert report["augmented"]["edges"][:3] == [["a", "b"], ["b", "c"],
                                                ["c", "d"]]
    assert len(hub) == 7 == len(report["augmented"]["edges"]) - 3


def test_witness_rejects_shallow_weights(tmp_path, capsys):
    doc = write_doc(tmp_path, "bad.json", {
        "vertices": [{"id": "a", "weight": -1}], "edges": []})
    code, _, _ = run_cli(["witness", doc], capsys)
    assert code == 3


def weighted_pair_doc(other):
    """Marked 0 plus vertices 1 and other; Goeritz [[-4, 2], [2, -5]]."""
    return {"vertices": [{"id": 0}, {"id": 1}, {"id": other}],
            "edges": [[0, 1], [0, 1], [1, other], [1, other],
                      [0, other], [0, other], [0, other]],
            "marked": 0}


def test_vertex_ids_must_differ_as_strings(tmp_path, capsys):
    fine = write_doc(tmp_path, "fine.json", weighted_pair_doc(2))
    code, out, _ = run_cli(["--json", "analyze", fine], capsys)
    assert code == 0
    assert json.loads(out)["invariants"]["det"] == 16
    clash = write_doc(tmp_path, "clash.json", weighted_pair_doc("1"))
    code, _, err = run_cli(["analyze", clash], capsys)
    assert code == 2
    assert "duplicate vertex ids" in err


def test_non_scalar_ids_are_malformed(tmp_path, capsys):
    graph = write_doc(tmp_path, "graph.json", weighted_pair_doc([2]))
    assert run_cli(["analyze", graph], capsys)[0] == 2
    flag = write_doc(tmp_path, "flag.json", dict(weighted_pair_doc(2),
                                                 marked=False))
    assert run_cli(["analyze", flag], capsys)[0] == 2
    tree = write_doc(tmp_path, "tree.json", {
        "vertices": [{"id": [0], "weight": -2}, {"id": 1, "weight": -2}],
        "edges": [[[0], 1]]})
    assert run_cli(["plumb", "check", tree], capsys)[0] == 2


# vertex list -> stderr; the fault is the entry's, not Python's
VERTEX_LIST_REFUSALS = [
    (["a", "b"], 'error: vertex entry 0 must be an object with an "id"\n'),
    ([1, True], 'error: vertex entry 0 must be an object with an "id"\n'),
    ([{"id": 0}, {"weight": -2}],
     'error: vertex entry 1 must be an object with an "id"\n'),
    ({"id": 0}, "error: 'vertices' must be a list, got {'id': 0}\n"),
]


@pytest.mark.parametrize("vertices, message", VERTEX_LIST_REFUSALS)
def test_vertex_list_refusals(vertices, message, tmp_path, capsys):
    path = write_doc(tmp_path, "doc.json",
                     {"vertices": vertices, "edges": [], "marked": 0})
    for command in (["analyze"], ["--json", "mk1"], ["witness"],
                    ["plumb", "check"]):
        assert run_cli(command + [path], capsys) == (2, "", message), command


def test_ids_must_be_unicode_text(tmp_path, capsys):
    # JSON spells a lone surrogate as "\ud800"; text output can't write it
    message = "error: id '\\ud800' is not valid Unicode text\n"
    graph = write_doc(tmp_path, "graph.json", weighted_pair_doc("\ud800"))
    assert run_cli(["analyze", graph], capsys) == (2, "", message)
    marked = write_doc(tmp_path, "marked.json",
                       dict(weighted_pair_doc(2), marked="\ud800"))
    assert run_cli(["analyze", marked], capsys) == (2, "", message)
    tree = write_doc(tmp_path, "tree.json", {
        "vertices": [{"id": "\ud800", "weight": 1},
                     {"id": "b", "weight": -2}],
        "edges": [["\ud800", "b"]]})
    assert run_cli(["plumb", "reduce", tree], capsys) == (2, "", message)
    fine = write_doc(tmp_path, "fine.json", weighted_pair_doc("\U0001f600"))
    code, out, _ = run_cli(["analyze", fine], capsys)
    assert code == 0 and "\U0001f600" in out


def test_pd_rejects_bool_arc_ids(tmp_path, capsys):
    pd = [[True, 4, 2, 5]] + PD_CODES["trefoil"][1:]
    path = write_doc(tmp_path, "bool.json", {"pd": pd})
    code, _, err = run_cli(["analyze", path], capsys)
    assert code == 2
    assert "arc ids must be integers" in err


def test_graph_doc_indices_must_be_integers(tmp_path, capsys):
    base = {"vertices": [{"id": 0, "weight": -2}, {"id": 1, "weight": -2}],
            "edges": [[0, 1], [0, 1]],
            "rotations": {"0": [0, 1], "1": [1, 0]}}
    fine = write_doc(tmp_path, "fine.json", dict(base, outer=[0, 1]))
    assert run_cli(["mk1", fine], capsys)[0] == 0
    bad = [dict(base, outer=5), dict(base, outer=[0, 5]),
           dict(base, outer=[True, 0]), dict(base, outer=[2, 0]),
           dict(base, rotations={"0": [True, 1], "1": [1, 0]}),
           dict(base, rotations=[[0, 1], [1, 0]])]
    for k, doc in enumerate(bad):
        path = write_doc(tmp_path, "bad%d.json" % k, doc)
        code, _, err = run_cli(["mk1", path], capsys)
        assert code == 2, (doc, err)


def test_weights_and_signs_must_be_integers(tmp_path, capsys):
    graph = {"vertices": [{"id": 0, "weight": -3}, {"id": 1, "weight": -3}],
             "edges": [{"u": 0, "v": 1, "sign": -1}]}
    fine = write_doc(tmp_path, "fine.json", graph)
    assert run_cli(["--json", "mk1", fine], capsys)[0] == 0
    bad = [-2.9, "-3", True, None]
    docs = [dict(graph, vertices=[{"id": 0, "weight": w},
                                  {"id": 1, "weight": -3}]) for w in bad]
    docs += [dict(graph, edges=[{"u": 0, "v": 1, "sign": s}])
             for s in ("x", "-1", True, 1.0, 2)]
    docs.append(dict(graph, edges=5))
    for k, doc in enumerate(docs):
        path = write_doc(tmp_path, "graph%d.json" % k, doc)
        for command in (["mk1"], ["witness"]):
            code, _, err = run_cli(command + [path], capsys)
            assert code == 2, (command, doc, err)
            assert err.startswith("error: ")

    tree = {"vertices": [{"id": "a", "weight": -2}, {"id": "b", "weight": -3}],
            "edges": [["a", "b"]]}
    fine = write_doc(tmp_path, "tree.json", tree)
    assert run_cli(["plumb", "check", fine], capsys)[0] == 0
    docs = [dict(tree, vertices=[{"id": "a", "weight": w},
                                 {"id": "b", "weight": -3}]) for w in bad]
    docs += [dict(tree, edges=5), dict(tree, edges=["ab"]),
             dict(tree, edges=[{"u": "a", "v": "b"}])]
    for k, doc in enumerate(docs):
        path = write_doc(tmp_path, "tree%d.json" % k, doc)
        code, _, err = run_cli(["plumb", "check", path], capsys)
        assert code == 2, (doc, err)
        assert err.startswith("error: ")


def json_commands(trefoil_file, ban9_file, path_tree_file):
    """One --json command line per command and input kind."""
    commands = [["analyze", trefoil_file], ["analyze", ban9_file, "--mk1"],
                ["obstruct", ban9_file], ["mk1", ban9_file, "--all"],
                ["plumb", "check", path_tree_file],
                ["plumb", "reduce", path_tree_file],
                ["plumb", "decide", path_tree_file], ["cf", "16", "9"],
                ["berge", "3", "5"], ["witness", path_tree_file]]
    return [["--json"] + argv for argv in commands]


def test_json_commands_do_not_indent_with_json_dumps(
        trefoil_file, ban9_file, path_tree_file, capsys, monkeypatch):
    """json.dumps with an indent is the pure-Python encoder; --json
    reports come from cli.encode_json, which tests/test_emit.py holds
    to json.dumps."""
    plain_dumps = json.dumps

    def dumps(obj, *args, **kwargs):
        assert kwargs.get("indent") is None, "indented json.dumps"
        return plain_dumps(obj, *args, **kwargs)

    monkeypatch.setattr(json, "dumps", dumps)
    for argv in json_commands(trefoil_file, ban9_file, path_tree_file):
        code, out, _ = run_cli(argv, capsys)
        assert code == 0 and out.endswith("}\n") and json.loads(out), argv


def test_json_commands_leave_no_cyclic_garbage(
        trefoil_file, ban9_file, path_tree_file, capsys):
    """Every object an op makes is freed by reference counting when the
    op ends, so no op leaves work to the cyclic collector."""
    # argparse's help formatters hold cycles; the parser is built once
    build_parser()
    gc.collect()
    gc.disable()
    try:
        for argv in json_commands(trefoil_file, ban9_file, path_tree_file):
            code, _, _ = run_cli(argv, capsys)
            assert code == 0, argv
            assert gc.collect() == 0, argv
    finally:
        gc.enable()


def test_main_calls_are_independent(capsys):
    assert build_parser() is build_parser()
    code, out, _ = run_cli(["--json", "cf", "16", "9"], capsys)
    assert code == 0 and json.loads(out)["terms"] == [2, 5, 2]
    code, out, _ = run_cli(["cf", "16", "9"], capsys)
    assert code == 0 and out.startswith("16/9 = [2, 5, 2]\n")


def test_analyze_builds_each_artifact_once(tmp_path, capsys, count_calls):
    calls = count_calls(exactalg.goeritz, spinc.canonical_key,
                        exactalg.signature, exactalg.hnf_basis,
                        exactalg.hnf_reduce,
                        diagram.white_graph, diagram.kauffman_states,
                        MarkedGraph.without_vertex)
    inputs = {
        "diagram": write_doc(tmp_path, "fig8.json",
                             {"pd": PD_CODES["figure_eight"]}),
        "graph": write_doc(tmp_path, "two33.json", graph_to_doc(two33_graph())),
    }
    # odd det 5: the graph's c1 classes come from the walk too
    fig8_white = write_doc(tmp_path, "fig8white.json", graph_to_doc(
        diagram.white_graph(diagram.parse_pd(PD_CODES["figure_eight"]))))
    for kind, path in [*inputs.items(), ("graph", fig8_white)]:
        for extra in ([], ["--mk1"]):
            calls.update(dict.fromkeys(calls, 0))
            code, out, _ = run_cli(["--json", "analyze", path] + extra,
                                   capsys)
            assert code == 0
            assert json.loads(out)["kind"] == kind
            states = 1 if kind == "diagram" else 0
            assert calls["goeritz"] == calls["hnf_basis"] == 1, kind
            # the class keys, conjugates and c1 classes come from one walk
            # over the Hermite box; only states are reduced, once each
            reduced = len(json.loads(out)["spinc"]) if states else 0
            assert calls["canonical_key"] == calls["hnf_reduce"] \
                == reduced, kind
            assert calls["white_graph"] == calls["kauffman_states"] \
                == states, kind
            # the tree is read off the form; only the link deletes a vertex
            assert calls["without_vertex"] == len(extra), (kind, extra)
            if not extra:
                assert calls["signature"] == 0, kind
    # mk1 on a diagram slides on its one white graph
    calls.update(dict.fromkeys(calls, 0))
    code, _, _ = run_cli(["--json", "mk1", inputs["diagram"]], capsys)
    assert code == 0 and calls["white_graph"] == 1


def test_certificates_fail_with_exit_4(tmp_path, capsys, monkeypatch):
    path = write_doc(tmp_path, "trefoil.json", {"pd": PD_CODES["trefoil"]})
    real = exactalg._sweep
    with monkeypatch.context() as patch:
        # the sweep factors -A = G instead: its first pivot is negative
        patch.setattr(exactalg, "_sweep",
                      lambda a: real([[-x for x in row] for row in a]))
        code, _, err = run_cli(["analyze", path], capsys)
    assert code == 4
    assert "spinc.obstruction_report: Goeritz form must be negative" in err
    assert "leading minor 1 of -G is -" in err

    # the class count is held to the kernel's determinant, not the box's
    def doubled_det(a):
        pivots, low, adj = real(a)
        return pivots[:-1] + [2 * pivots[-1]], low, adj

    monkeypatch.setattr(exactalg, "_sweep", doubled_det)
    code, _, err = run_cli(["analyze", path], capsys)
    assert code == 4
    assert "spinc.enumerate_spinc: found 3 classes, expected 6" in err


def test_one_search_per_conjugate_pair(tmp_path, capsys, monkeypatch):
    # the targets handed to the batched search, one list per call
    batches = []
    batched = exactalg.OrbitKernel.min_costs

    def counted(kernel, targets):
        batches.append(list(targets))
        return batched(kernel, batches[-1])

    monkeypatch.setattr(exactalg.OrbitKernel, "min_costs", counted)
    inputs = {
        # det 6 with 2 spin structures; the states carry every d
        "diagram": write_doc(tmp_path, "ban6pd.json",
                             diagram_from_plane_graph(banana_graph(6))),
        # the same white graph as marked graph input is searched
        "banana": write_doc(tmp_path, "ban6.json",
                            graph_to_doc(banana_graph(6))),
        # Goeritz [[-6, 2], [2, -6]]: det 32, even mod 2, 4 spin structures
        "graph": write_doc(tmp_path, "two33x2.json", {
            "vertices": [{"id": "h"}, {"id": "a"}, {"id": "b"}],
            "edges": [["h", "a"]] * 4 + [["a", "b"]] * 2 + [["h", "b"]] * 4,
            "marked": "h",
        }),
    }
    seen = {}
    for kind, path in inputs.items():
        batches.clear()
        code, out, _ = run_cli(["--json", "analyze", path], capsys)
        assert code == 0
        report = json.loads(out)
        det = report["invariants"]["det"]
        spin = len(report["char_subgraphs"])
        assert len(report["spinc"]) == det
        targets = sum(map(len, batches))
        if kind == "diagram":
            assert not batches
        else:
            # one batched search per form; a spin structure is searched
            # as itself, any other class with its conjugate, and one
            # search per class would make det targets
            assert len(batches) == 1, kind
            assert targets == (det + spin) // 2 < det, kind
            assert len(set(map(tuple, batches[0]))) == targets, kind
        seen[kind] = (det, spin, targets)
    assert seen == {"diagram": (6, 2, 0), "banana": (6, 2, 4),
                    "graph": (32, 4, 18)}


def test_conjugation_certificate_fails_with_exit_4(tmp_path, capsys,
                                                   monkeypatch):
    real = spinc.hermite_box
    graph = write_doc(tmp_path, "two33.json", graph_to_doc(two33_graph()))
    trefoil = write_doc(tmp_path, "trefoil.json", {"pd": PD_CODES["trefoil"]})

    def rotated(xs):
        return xs[1:] + xs[:1]

    faults = [
        # a conjugate index past the last key leaves the box
        (graph, "twin", lambda t: [len(t)] + t[1:], "is not a class key"),
        # every key's conjugate is the next key
        (graph, "twin", lambda t: rotated(list(range(len(t)))),
         "conjugation is not an involution at class (1, 1)"),
        # every key conjugate to the first one
        (graph, "twin", lambda t: [0] * len(t),
         "conjugation pairs class (1, 1) twice"),
        # every class self-conjugate, 3 spin structures at odd det
        (trefoil, "twin", lambda t: list(range(len(t))),
         "found 3 self-conjugate classes (rank 2, det 3)"),
        # c1 = 0 moved off the one self-conjugate class
        (trefoil, "c1", rotated,
         "self-conjugate class (0, 0) has c1 (2, 0); c1 = 0 on 1 of 3"),
    ]
    for path, field, fault, message in faults:
        def faulty(g, field=field, fault=fault):
            box = real(g)
            return box._replace(**{field: fault(getattr(box, field))})

        with monkeypatch.context() as patch:
            patch.setattr(spinc, "hermite_box", faulty)
            code, out, err = run_cli(["analyze", path], capsys)
        assert code == 4 and out == ""
        assert err.startswith("internal error: spinc.enumerate_spinc: ")
        assert message in err


def test_wrong_state_covector_fails_with_exit_4(trefoil_file, capsys,
                                                monkeypatch):
    walk = diagram.kauffman_states

    def off_by_one(kd, white):
        covectors = walk(kd, white)
        covectors[0] = (covectors[0][0] + 1,) + covectors[0][1:]
        return covectors

    monkeypatch.setattr(spinc, "kauffman_states", off_by_one)
    code, out, err = run_cli(["analyze", trefoil_file], capsys)
    assert code == 4 and out == ""
    assert err.startswith(
        "internal error: spinc.enumerate_spinc: states do not biject")


def test_mk1_all_slides_each_sublink_once(tmp_path, capsys, count_calls):
    calls = count_calls(chainmail.mk1_run, chainmail.kaplan_filling,
                        exactalg.signature)
    path = write_doc(tmp_path, "two33.json", graph_to_doc(two33_graph()))
    code, out, _ = run_cli(["--json", "mk1", path, "--all"], capsys)
    assert code == 0
    runs = len(json.loads(out)["runs"])
    assert calls == {"mk1_run": runs, "kaplan_filling": runs,
                     "signature": 1}
    assert runs > 1
    # the filling reads the log it is given and slides nothing itself
    for args, section in ((["analyze", "--mk1"], "mk1"),
                          (["mk1", "--set", "a"], "runs")):
        calls.update(mk1_run=0, kaplan_filling=0)
        code, out, _ = run_cli(["--json", args[0], path] + args[1:], capsys)
        assert code == 0
        runs = json.loads(out)[section]
        assert [run["subset"] for run in runs] == [["a"]]
        assert calls["mk1_run"] == calls["kaplan_filling"] == len(runs)
    # an empty --set is refused before any slide
    calls.update(mk1_run=0, kaplan_filling=0)
    for empty in ("", ","):
        code, out, err = run_cli(["mk1", path, "--set", empty], capsys)
        assert (code, out, err) == (3, "", "error: nothing to slide\n")
    assert calls["mk1_run"] == calls["kaplan_filling"] == 0


def path_pieces(subset):
    """The connected pieces of a sublink of banana_path_doc's path: its
    runs of consecutive vertices."""
    pieces = []
    for v in sorted(subset):
        if pieces and pieces[-1][-1] == v - 1:
            pieces[-1].append(v)
        else:
            pieces.append([v])
    return [tuple(piece) for piece in pieces]


def test_mk1_all_plans_each_piece_once(capsys, monkeypatch, count_calls):
    calls = count_calls(chainmail._PlaneWork)
    for m in (2, 3, 4, 5):
        calls["_PlaneWork"] = 0
        monkeypatch.setattr(sys, "stdin", io.StringIO(
            json.dumps(banana_path_doc(m))))
        code, out, _ = run_cli(["--json", "mk1", "-", "--all"], capsys)
        assert code == 0
        pieces = [piece for run in json.loads(out)["runs"]
                  for piece in path_pieces(run["subset"]) if len(piece) > 1]
        assert calls["_PlaneWork"] == len(set(pieces)) >= 1
        # from m = 4 on, a piece such as (1, 2) recurs in several sublinks
        assert len(pieces) > len(set(pieces)) or m < 4


def test_mk1_checks_connectivity_once(capsys, monkeypatch, count_calls):
    calls = count_calls(MarkedGraph.is_connected)
    seen = {}
    for m in (1, 2, 3, 4):
        calls["is_connected"] = 0
        monkeypatch.setattr(sys, "stdin", io.StringIO(
            json.dumps(banana_path_doc(m))))
        code, out, _ = run_cli(["--json", "mk1", "-", "--all"], capsys)
        assert code == 0
        seen[len(json.loads(out)["runs"])] = calls["is_connected"]
    assert sorted(seen) == [1, 2, 4, 8]
    # the link checks itself when built, not once per sublink
    assert len(set(seen.values())) == 1, seen


def test_mk1_traces_no_faces(capsys, monkeypatch, count_calls):
    calls = count_calls(graphs._dart_orbits)
    run, traced = chainmail.mk1_run, []

    def counted(link, subset):
        before = calls["_dart_orbits"]
        log = run(link, subset)
        traced.append(calls["_dart_orbits"] - before)
        return log

    monkeypatch.setattr(chainmail, "mk1_run", counted)
    monkeypatch.setattr(sys, "stdin", io.StringIO(
        json.dumps(banana_path_doc(4))))
    code, out, _ = run_cli(["--json", "mk1", "-", "--all"], capsys)
    assert code == 0
    runs = json.loads(out)["runs"]
    # sublinks such as {1, 2} contract a doubled family
    assert any(len(r["subset"]) > 1 for r in runs)
    # the pair rule reads only the rotations at the pair's two ends
    assert traced == [0] * len(runs) == [0] * 8


def test_too_deep_input_exits_3(tmp_path, capsys):
    # 1100 crossings: the Kauffman state walk recurses once per crossing
    path = write_doc(tmp_path, "ban1100.json",
                     diagram_from_plane_graph(banana_graph(1100)))
    code, out, err = run_cli(["analyze", path], capsys)
    assert code == 3 and out == ""
    assert err.startswith("error: input too large")
    assert err.count("\n") == 1 and "Traceback" not in err


def run_module(args, **env):
    """python -m spinfill args in a subprocess, on this checkout's code."""
    src = str(Path(spinfill.__file__).resolve().parent.parent)
    env = dict(os.environ, **env)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, "-m", "spinfill"] + args,
                          capture_output=True, text=True, env=env,
                          timeout=60)


def test_python_dash_m_runs_the_cli():
    proc = run_module(["cf", "16", "9"])
    assert proc.returncode == 0
    assert "[2, 5, 2]" in proc.stdout
    assert proc.stderr == ""
    proc = run_module(["cf", "9", "16"])
    assert proc.returncode == 3


def test_text_output_escapes_what_stdout_cannot_encode(tmp_path):
    # the whole report is written, with e-acute as its escape
    path = write_doc(tmp_path, "accent.json", weighted_pair_doc("\u00e9"))
    proc = run_module(["analyze", path], PYTHONIOENCODING="ascii")
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    assert "\\xe9" in proc.stdout
    assert proc.stdout.endswith("\n")
