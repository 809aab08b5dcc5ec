"""The example scripts print what their golden files hold.

The scripts call the library directly, so a change to its API shows here
even when the CLI goldens hold.  To regenerate after an intended change:

    PYTHONPATH=src python scripts/NAME.py > tests/golden/script_NAME.txt
"""
import os
import subprocess
import sys
from pathlib import Path

import pytest

import spinfill

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"


@pytest.mark.parametrize("name", ["twist_scan", "chain_example"])
def test_script_output_matches_golden(name):
    src = str(Path(spinfill.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / (name + ".py"))],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    expected = (GOLDEN / ("script_%s.txt" % name)).read_text(encoding="utf-8")
    assert proc.stdout == expected
