"""Golden --json outputs of `analyze` and `obstruct`, compared byte for byte.

The corpus is the table PD codes plus five marked plane graphs.  To
regenerate the files after an intended output change:

    PYTHONPATH=src:tests python tests/test_golden.py
"""
import io
import json
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from spinfill.cli import main
from spinfill.graphs import graph_to_doc

from conftest import (PD_CODES, banana_graph, cycle_graph, path_hub_graph,
                      special44_graph, two33_graph)

GOLDEN = Path(__file__).resolve().parent / "golden"
COMMANDS = ("analyze", "obstruct")


def corpus():
    docs = {"pd_" + name: {"pd": pd} for name, pd in PD_CODES.items()}
    docs["graph_banana9"] = graph_to_doc(banana_graph(9))
    docs["graph_cycle6"] = graph_to_doc(cycle_graph(6))
    docs["graph_special44"] = graph_to_doc(special44_graph())
    docs["graph_path_hub"] = graph_to_doc(path_hub_graph())
    docs["graph_two33"] = graph_to_doc(two33_graph())
    return docs


CASES = [(name, cmd) for name in corpus() for cmd in COMMANDS]


def json_output(doc, command, tmp_dir):
    path = Path(tmp_dir) / "input.json"
    path.write_text(json.dumps(doc))
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(["--json", command, str(path)])
    assert code == 0
    return buf.getvalue()


def golden_path(name, command):
    return GOLDEN / ("%s.%s.json" % (name, command))


@pytest.mark.parametrize("name,command", CASES)
def test_json_output_matches_golden(name, command, tmp_path):
    out = json_output(corpus()[name], command, tmp_path)
    assert out == golden_path(name, command).read_text(encoding="utf-8")


if __name__ == "__main__":
    import tempfile
    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for name, command in CASES:
            out = json_output(corpus()[name], command, tmp)
            golden_path(name, command).write_text(out, encoding="utf-8")
            print("wrote", golden_path(name, command).name, file=sys.stderr)
