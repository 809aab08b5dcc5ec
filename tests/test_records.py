"""The library's records: immutable, with pinned equality, built without
dataclass code generation; and certifications that survive python -O."""
import ast
import json
import subprocess
import sys
from pathlib import Path

import pytest

import spinfill
from spinfill import chainmail, diagram, plumbing, spinc

from conftest import PD_CODES, banana_graph, path_hub_graph
from test_cli import run_module
from test_golden import GOLDEN, corpus

SRC = Path(spinfill.__file__).resolve().parent


def build_records():
    """One instance of every record type, each from a fresh build."""
    rep = spinc.obstruction_report(path_hub_graph())
    link = chainmail.build_chainmail(path_hub_graph())
    log = chainmail.mk1_run(link, ("a", "b", "c"))
    kd = diagram.parse_pd({"pd": PD_CODES["trefoil"]})
    tree = plumbing.PlumbingTree(("a", "b"), (-2, -2), (("a", "b"),))
    return {
        "MarkedGraph": rep.graph,
        "GoeritzForm": rep.form,
        "PlumbingTree": rep.tree,
        "SpinCClass": rep.classes[0],
        "CharSubgraph": rep.subgraphs[0],
        "BoundVerdict": rep.cutbound,
        "CapEntry": rep.cap_entries[0],
        "ObstructionReport": rep,
        "ChainmailLink": link,
        "SlideLog": log,
        "SlideStep": log.steps[0],
        "FillingStats": chainmail.kaplan_filling(
            link, chainmail.mk1_run(link, ("d",))),
        "KnotDiagram": kd,
        "NormalFormReport": plumbing.check_normal_form(tree),
        "PlumbedVerdict": plumbing.decide_plumbed(tree),
    }


def modules_after(statement):
    """Names in sys.modules after running statement in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys; sys.path.insert(0, %r); %s; print(*sys.modules)"
         % (str(SRC.parent), statement)],
        capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.split())


def test_cli_import_generates_no_dataclass_code():
    loaded = modules_after("import spinfill.cli")
    assert not {"dataclasses", "inspect"} & loaded
    # the front end still loads the whole library up front
    assert {"spinfill." + p.stem for p in SRC.glob("[!_]*.py")} <= loaded


def test_library_import_leaves_the_cli_out():
    loaded = modules_after("import spinfill.graphs")
    assert "spinfill.graphs" in loaded
    assert not {"argparse", "spinfill.cli"} & loaded


@pytest.mark.parametrize("name", sorted(build_records()))
def test_records_are_immutable(name):
    record = build_records()[name]
    assert type(record).__name__ == name
    field = type(record)._fields[0]
    with pytest.raises(AttributeError):
        setattr(record, field, None)
    with pytest.raises(AttributeError):
        delattr(record, field)
    with pytest.raises(AttributeError):
        record.extra = None


@pytest.mark.parametrize("name", ["MarkedGraph", "ChainmailLink",
                                  "KnotDiagram"])
def test_identity_equality(name):
    a, b = build_records()[name], build_records()[name]
    assert a == a and a != b


@pytest.mark.parametrize("name", ["GoeritzForm", "PlumbingTree",
                                  "SpinCClass", "CharSubgraph"])
def test_value_equality(name):
    a, b = build_records()[name], build_records()[name]
    assert a is not b and a == b and hash(a) == hash(b)
    rep = spinc.obstruction_report(banana_graph(9))
    other = {"GoeritzForm": rep.form, "PlumbingTree": rep.tree,
             "SpinCClass": rep.classes[0], "CharSubgraph": rep.subgraphs[0]}
    assert a != other[name]


def test_library_has_no_assert_statements():
    # python -O drops assert statements; certifications raise instead
    found = [(path.name, node.lineno)
             for path in sorted(SRC.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Assert)]
    assert found == []


@pytest.mark.parametrize("before, after, golden", [
    (["--json", "analyze"], [], "graph_banana9.analyze.json"),
    (["analyze"], ["--mk1"], "graph_banana9.analyze-mk1.txt"),
])
def test_optimized_interpreter_output_matches_golden(before, after, golden,
                                                     tmp_path):
    # PYTHONOPTIMIZE=1 is python -O
    path = tmp_path / "input.json"
    path.write_text(json.dumps(corpus()["graph_banana9"]))
    proc = run_module(before + [str(path)] + after, PYTHONOPTIMIZE="1")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == (GOLDEN / golden).read_text(encoding="utf-8")
