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
LAZY = {"spinfill.chainmail", "spinfill.diagram"}


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


def modules_after(statement, registered=False):
    """Names of the modules that have run after running statement in a
    fresh interpreter, written on the last line of its output.  A module
    bound lazily and never used yet is in sys.modules but has not run:
    its type is a subclass of the module type until its first attribute
    access.  registered=True names every module in sys.modules."""
    names = ("sys.modules" if registered else
             "(n for n, m in sys.modules.items() if type(m) is type(sys))")
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys; sys.path.insert(0, %r); %s; print(*%s)"
         % (str(SRC.parent), statement, names)],
        capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.splitlines()[-1].split())


def modules_after_command(argv):
    """Names of the modules that have run after a successful
    spinfill.cli.main(argv) in a fresh interpreter."""
    return modules_after("from spinfill.cli import main; "
                         "main(%r) == 0 or sys.exit('command failed')"
                         % (argv,))


def test_cli_import_generates_no_dataclass_code():
    loaded = modules_after("import spinfill.cli")
    assert not {"dataclasses", "inspect"} & loaded
    # the front end runs the library up front, but for the two modules
    # that only the commands using them run; those are registered, so a
    # tracer that wraps every layer module finds them
    library = {"spinfill." + p.stem for p in SRC.glob("[!_]*.py")}
    assert library & loaded == library - LAZY
    assert library <= modules_after("import spinfill.cli", registered=True)


def test_library_import_leaves_the_cli_out():
    loaded = modules_after("import spinfill.graphs")
    assert "spinfill.graphs" in loaded
    assert not {"argparse", "spinfill.cli"} & loaded


def test_each_command_loads_only_the_modules_it_runs(tmp_path):
    docs = {"graph": corpus()["graph_two33"],
            "pd": {"pd": PD_CODES["trefoil"]},
            "tree": {"vertices": [{"id": "a", "weight": -2},
                                  {"id": "b", "weight": -5}],
                     "edges": [["a", "b"]]}}
    path = {}
    for name, doc in docs.items():
        path[name] = tmp_path / (name + ".json")
        path[name].write_text(json.dumps(doc))
    expected = [
        (["--json", "analyze", path["graph"]], set()),
        (["--json", "analyze", path["pd"]], {"spinfill.diagram"}),
        (["mk1", path["graph"], "--all"], {"spinfill.chainmail"}),
        (["plumb", "check", path["tree"]], set()),
        (["cf", "16", "9"], set()),
    ]
    for argv, loaded in expected:
        argv = [str(a) for a in argv]
        assert modules_after_command(argv) & LAZY == loaded, argv


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


FROZEN = ["MarkedGraph", "GoeritzForm", "PlumbingTree", "ChainmailLink",
          "KnotDiagram"]


@pytest.mark.parametrize("name", FROZEN)
def test_records_refuse_a_wrong_number_of_fields(name):
    cls = type(build_records()[name])
    for count in (0, len(cls._fields) + 1):
        with pytest.raises(TypeError, match=name):
            cls(*[None] * count)


# record name -> per field, a value that differs from build_records'
VALUE_VARIANTS = {
    "GoeritzForm": lambda form: (
        ((-9,) + form.matrix[0][1:],) + form.matrix[1:],
        form.vertex_order[::-1]),
    "PlumbingTree": lambda tree: (
        tree.vertices[::-1], (tree.weights[0] - 1,) + tree.weights[1:],
        tuple((v, u) for u, v in tree.edges)),
}


@pytest.mark.parametrize("name", sorted(VALUE_VARIANTS))
def test_value_equality_reads_every_field(name):
    record = build_records()[name]
    fields = [getattr(record, f) for f in record._fields]
    assert type(record)(*fields) == record
    for k, value in enumerate(VALUE_VARIANTS[name](record)):
        assert value != fields[k]
        other = type(record)(*fields[:k], value, *fields[k + 1:])
        assert other != record and record != other, record._fields[k]


def test_library_has_no_assert_statements():
    # python -O drops assert statements; certifications raise instead
    found = [(path.name, node.lineno)
             for path in sorted(SRC.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Assert)]
    assert found == []


def test_every_error_class_sets_an_exit_code_or_is_caught():
    # the command line tells these three apart by exit code; any other
    # class is worth its name only where the library catches it
    exit_codes = {"SpinfillError", "MalformedInput", "CertificationFailure"}
    errors = ast.parse((SRC / "errors.py").read_text(encoding="utf-8"))
    classes = {node.name for node in errors.body
               if isinstance(node, ast.ClassDef)}
    caught = set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ExceptHandler) and node.type:
                names = (node.type.elts if isinstance(node.type, ast.Tuple)
                         else [node.type])
                caught |= {ast.unparse(n).rpartition(".")[2] for n in names}
    assert exit_codes <= classes
    assert classes - exit_codes - caught == set()


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
