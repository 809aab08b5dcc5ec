"""Golden outputs of the CLI, compared byte for byte.

The corpus is the table PD codes plus five marked plane graphs.  Each
mode names a golden file suffix and the command line that produces it:
`--json analyze`, `--json obstruct` and `--json mk1 --all`, plus the
text renderings of `mk1 --all` and `analyze --mk1`.  `mk1` exits 2 on
the special inputs (only the empty sublink is characteristic), so they
have no mk1 files.  To regenerate the files after an intended output
change:

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
# mode -> (file extension, arguments before the input path, after it)
JSON_MODES = {
    "analyze": ("json", ["--json", "analyze"], []),
    "obstruct": ("json", ["--json", "obstruct"], []),
    "mk1": ("json", ["--json", "mk1"], ["--all"]),
}
TEXT_MODES = {
    "mk1": ("txt", ["mk1"], ["--all"]),
    "analyze-mk1": ("txt", ["analyze"], ["--mk1"]),
}
SPECIAL = {"pd_trefoil", "pd_5_2", "graph_special44"}


def corpus():
    docs = {"pd_" + name: {"pd": pd} for name, pd in PD_CODES.items()}
    docs["graph_banana9"] = graph_to_doc(banana_graph(9))
    docs["graph_cycle6"] = graph_to_doc(cycle_graph(6))
    docs["graph_special44"] = graph_to_doc(special44_graph())
    docs["graph_path_hub"] = graph_to_doc(path_hub_graph())
    docs["graph_two33"] = graph_to_doc(two33_graph())
    return docs


def cases(modes):
    return [(name, mode) for name in corpus() for mode in modes
            if not (mode == "mk1" and name in SPECIAL)]


JSON_CASES = cases(JSON_MODES)
TEXT_CASES = cases(TEXT_MODES)


def cli_output(doc, mode, tmp_dir):
    _, before, after = mode
    path = Path(tmp_dir) / "input.json"
    path.write_text(json.dumps(doc))
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(before + [str(path)] + after)
    assert code == 0
    return buf.getvalue()


def golden_path(name, mode_name, mode):
    return GOLDEN / ("%s.%s.%s" % (name, mode_name, mode[0]))


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
