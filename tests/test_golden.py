"""Golden outputs of the CLI, compared byte for byte.

The corpus is the table PD codes, six marked plane graphs, eight
plumbing trees and two weighted cacti.  Each mode names a golden file
suffix and the command line that produces it: `--json analyze`,
`--json obstruct` and `--json mk1 --all`, plus the text renderings of
`obstruct`, `mk1 --all` and `analyze --mk1`, for diagrams and graphs;
`plumb check|reduce|decide`, as JSON and as text, for trees; `witness`,
as JSON and as text, for cacti.  `mk1` exits 3 on the special inputs
(only the empty sublink is characteristic) and `plumb decide` exits 3
on trees that are not excessive, so those have no files.  `cf` and
`berge` read no file: ARGV_CASES holds their command lines, each run
as JSON and as text.  To regenerate the files after an intended output
change:

    PYTHONPATH=src:tests python tests/test_golden.py
"""
import io
import json
import random
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from spinfill import chainmail
from spinfill.cli import build_parser, main
from spinfill.diagram import parse_pd, white_graph
from spinfill.exactalg import signature
from spinfill.graphs import graph_to_doc

from conftest import (PD_CODES, banana_graph, cycle_graph, path_hub_graph,
                      pendant_graph, special44_graph, two33_graph)

GOLDEN = Path(__file__).resolve().parent / "golden"
# mode -> (file extension, arguments before the input path, after it)
JSON_MODES = {
    "analyze": ("json", ["--json", "analyze"], []),
    "obstruct": ("json", ["--json", "obstruct"], []),
    "mk1": ("json", ["--json", "mk1"], ["--all"]),
}
TEXT_MODES = {
    "obstruct": ("txt", ["obstruct"], []),
    "mk1": ("txt", ["mk1"], ["--all"]),
    "analyze-mk1": ("txt", ["analyze"], ["--mk1"]),
}
for _action in ("check", "reduce", "decide"):
    JSON_MODES["plumb-" + _action] = ("json", ["--json", "plumb", _action], [])
    TEXT_MODES["plumb-" + _action] = ("txt", ["plumb", _action], [])
JSON_MODES["witness"] = ("json", ["--json", "witness"], [])
TEXT_MODES["witness"] = ("txt", ["witness"], [])
# commands that read no file: case name -> their arguments
ARGV_CASES = {
    "cf_16_9": ["cf", "16", "9"],
    "cf_1000003_999999": ["cf", "1000003", "999999"],
    "berge_3_5": ["berge", "3", "5"],
    # p = i k - 1 = 0 is dropped, so the minus side is None
    "berge_1_1": ["berge", "1", "1"],
}
# golden file extension -> arguments before the command
ARGV_FORMATS = {"json": ["--json"], "txt": []}
SPECIAL = {"pd_trefoil", "pd_5_2", "graph_special44"}
NOT_EXCESSIVE = {"tree_singular20", "tree_moves12", "tree_mixed160"}
# weights of the slides-plumb trees that plumb check and reduce see
MIXED_WEIGHTS = (-5, -4, -3, -3, -2, -2, -2, -1, -1, 0, 1)


def random_tree_doc(seed, n, weight, ints=False):
    """Tree on n vertices, each hung from a uniform earlier one, with
    weight(rng, degree) per vertex."""
    rng = random.Random(seed)
    ids = [i if ints else "v%d" % i for i in range(n)]
    parent = [rng.randrange(v) for v in range(1, n)]
    degree = [0] * n
    for v, p in enumerate(parent, 1):
        degree[p] += 1
        degree[v] += 1
    return {"vertices": [{"id": ids[v], "weight": weight(rng, degree[v])}
                         for v in range(n)],
            "edges": [[ids[p], ids[v]] for v, p in enumerate(parent, 1)]}


def tree_doc(weights, edges):
    return {"vertices": [{"id": v, "weight": w} for v, w in weights.items()],
            "edges": [list(e) for e in edges]}


def odd_excessive(rng, degree):
    w = min(-2, -degree) - rng.randrange(3)
    return w - 1 + w % 2


def tree_corpus():
    return {
        "tree_chain4252": tree_doc({"a": -4, "b": -2, "c": -5, "d": -2},
                                   [("a", "b"), ("b", "c"), ("c", "d")]),
        # even weights, odd determinant: the plumbing is a spin filling
        "tree_even_chain": tree_doc({"a": -2, "b": -6, "c": -2, "d": -4},
                                    [("a", "b"), ("b", "c"), ("c", "d")]),
        # twin -2 leaves at the end of a chain: the allowed exception
        "tree_d5": tree_doc({"a": -2, "b": -4, "p": -4, "l1": -2, "l2": -2},
                            [("a", "b"), ("b", "p"), ("p", "l1"), ("p", "l2")]),
        # twin -2 leaves on a parent inside a chain: an n3 violation
        "tree_twins_inner": tree_doc(
            {"z1": -2, "p": -4, "z2": -2, "l1": -2, "l2": -2},
            [("z1", "p"), ("p", "z2"), ("p", "l1"), ("p", "l2")]),
        # determinant 0
        "tree_singular20": random_tree_doc(
            0, 20, lambda rng, d: rng.choice((-3, -2, -1, 0, 1))),
        # reduces to nothing through all three move kinds
        "tree_moves12": random_tree_doc(
            248, 12, lambda rng, d: rng.choice((-3, -2, -2, -1, 0, 1))),
        "tree_mixed160": random_tree_doc(
            0, 160, lambda rng, d: rng.choice(MIXED_WEIGHTS), ints=True),
        # odd determinant, so decide reaches a verdict
        "tree_excessive160": random_tree_doc(12, 160, odd_excessive,
                                             ints=True),
    }


def cactus_corpus():
    """Weighted cacti for witness, each weight at most -max(2, degree)."""
    return {
        # a triangle, a digon on c and a pendant e on a
        "witness_cactus_str": tree_doc(
            {"a": -4, "b": -3, "c": -5, "d": -2, "e": -3},
            [("a", "b"), ("b", "c"), ("c", "a"), ("c", "d"), ("c", "d"),
             ("a", "e")]),
        # a square and a triangle sharing 3, and a pendant 6 on 1
        "witness_cactus_int": tree_doc(
            {0: -2, 1: -4, 2: -3, 3: -4, 4: -2, 5: -3, 6: -2},
            [(0, 1), (1, 2), (2, 3), (3, 0), (3, 4), (4, 5), (5, 3),
             (1, 6)]),
    }


def applies(name, mode):
    if name.startswith("tree_"):
        return mode.startswith("plumb-") and not (
            mode == "plumb-decide" and name in NOT_EXCESSIVE)
    if name.startswith("witness_"):
        return mode == "witness"
    return not mode.startswith("plumb-") and mode != "witness" and not (
        mode == "mk1" and name in SPECIAL)


def corpus():
    docs = {"pd_" + name: {"pd": pd} for name, pd in PD_CODES.items()}
    docs["graph_banana9"] = graph_to_doc(banana_graph(9))
    docs["graph_cycle6"] = graph_to_doc(cycle_graph(6))
    docs["graph_special44"] = graph_to_doc(special44_graph())
    docs["graph_path_hub"] = graph_to_doc(path_hub_graph())
    docs["graph_two33"] = graph_to_doc(two33_graph())
    # analyze's plumbing decision is an error: the tree is not excessive
    docs["graph_pendant"] = graph_to_doc(pendant_graph())
    docs.update(tree_corpus())
    docs.update(cactus_corpus())
    return docs


def cases(modes):
    return [(name, mode) for name in corpus() for mode in modes
            if applies(name, mode)]


JSON_CASES = cases(JSON_MODES)
TEXT_CASES = cases(TEXT_MODES)
ARGV_GOLDENS = [(name, ext) for name in ARGV_CASES for ext in ARGV_FORMATS]


def main_output(argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(argv)
    assert code == 0
    return buf.getvalue()


def cli_output(doc, mode, tmp_dir):
    _, before, after = mode
    path = Path(tmp_dir) / "input.json"
    path.write_text(json.dumps(doc))
    return main_output(before + [str(path)] + after)


def argv_output(name, ext):
    return main_output(ARGV_FORMATS[ext] + ARGV_CASES[name])


def golden_path(name, mode_name, mode):
    return GOLDEN / ("%s.%s.%s" % (name, mode_name, mode[0]))


def argv_golden_path(name, ext):
    return GOLDEN / ("%s.%s" % (name, ext))


@pytest.mark.parametrize("name,command", JSON_CASES)
def test_json_output_matches_golden(name, command, tmp_path):
    mode = JSON_MODES[command]
    out = cli_output(corpus()[name], mode, tmp_path)
    assert out == golden_path(name, command, mode).read_text(encoding="utf-8")


@pytest.mark.parametrize("name,command", TEXT_CASES)
def test_text_output_matches_golden(name, command, tmp_path):
    mode = TEXT_MODES[command]
    out = cli_output(corpus()[name], mode, tmp_path)
    assert out == golden_path(name, command, mode).read_text(encoding="utf-8")


@pytest.mark.parametrize("name,ext", ARGV_GOLDENS)
def test_argv_output_matches_golden(name, ext):
    out = argv_output(name, ext)
    assert out == argv_golden_path(name, ext).read_text(encoding="utf-8")


def test_commands_build_reports_and_write_nothing(tmp_path, capsys):
    # main is the one writer of stdout: a command returns its report
    argvs = [ARGV_FORMATS[ext] + ARGV_CASES[name]
             for name, ext in ARGV_GOLDENS]
    docs = corpus()
    for modes, case_list in ((JSON_MODES, JSON_CASES),
                             (TEXT_MODES, TEXT_CASES)):
        for name, command in case_list:
            _, before, after = modes[command]
            path = tmp_path / ("%s.%s.json" % (name, command))
            path.write_text(json.dumps(docs[name]))
            argvs.append(before + [str(path)] + after)
    for argv in argvs:
        args = build_parser().parse_args(argv)
        report = args.func(args)
        assert capsys.readouterr() == ("", ""), argv
        assert type(report) is dict and "kind" in report, argv


def test_analyze_mk1_slides_as_mk1_set_does(tmp_path, monkeypatch):
    # every graph golden, every PD golden and its white graph as a
    # marked graph: both commands build one link and slide the sublink
    # analyze picks alike
    links = []
    build = chainmail.build_chainmail

    def recorded(source):
        links.append(build(source))
        return links[-1]

    monkeypatch.setattr(chainmail, "build_chainmail", recorded)
    docs = []
    for name, doc in corpus().items():
        if name.startswith("graph_"):
            docs.append((name, doc))
        elif name.startswith("pd_"):
            white = white_graph(parse_pd(doc))
            docs += [(name, doc), (name, graph_to_doc(white))]
    compared = 0
    for k, (name, doc) in enumerate(docs):
        path = tmp_path / ("%d.json" % k)
        path.write_text(json.dumps(doc))
        section = json.loads(main_output(
            ["--json", "analyze", str(path), "--mk1"]))["mk1"]
        if name in SPECIAL:
            assert section == {"applicable": False,
                               "reason": "only the empty sublink exists"}
            continue
        subset = ",".join(map(str, section[0]["subset"]))
        runs = json.loads(main_output(
            ["--json", "mk1", str(path), "--set", subset]))["runs"]
        assert runs == section, name
        compared += 1
    # all but pd_trefoil and pd_5_2, twice each, and graph_special44
    assert compared == len(docs) - 5 and len(links) == len(docs) + compared
    # each Tait link reads sigma = -m off its hub counts; an elimination
    # finds the same signature
    for link in links:
        assert link.from_tait
        assert signature(link.linking_matrix) == (0, len(link.vertices), 0)
        assert link.sigma == -len(link.vertices)


if __name__ == "__main__":
    import tempfile
    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for modes, case_list in ((JSON_MODES, JSON_CASES),
                                 (TEXT_MODES, TEXT_CASES)):
            for name, command in case_list:
                out = cli_output(corpus()[name], modes[command], tmp)
                path = golden_path(name, command, modes[command])
                path.write_text(out, encoding="utf-8")
                print("wrote", path.name, file=sys.stderr)
    for name, ext in ARGV_GOLDENS:
        path = argv_golden_path(name, ext)
        path.write_text(argv_output(name, ext), encoding="utf-8")
        print("wrote", path.name, file=sys.stderr)
