"""The benchmark's traced CLI runs on the current sources.

bench/spans.py wraps cosetlab entry points by name and reads some of their
arguments by name, so renaming or deleting one of them breaks only traced
runs.  Each command here runs under bench/traced_cli.py and must print what
the untraced CLI prints.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("argv", [
    ["bounds", "--n", "2", "--k", "2", "--trials", "1"],
    ["verify", "--lemma", "multiregister", "--group", "wreath:2", "--k", "1",
     "--trials", "1"],
    ["sample", "--group", "wreath:2", "--strong", "--label", "([1,1],+)"],
    ["sample", "--group", "wreath:2", "--k", "1", "--basis", "haar"],
], ids=lambda argv: argv[0] + ("-k" if "--k" in argv and argv[0] == "sample" else ""))
def test_traced_cli_prints_the_untraced_report(tmp_path, argv):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    spans_out = tmp_path / "spans.json"
    traced = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "traced_cli.py"), str(spans_out), *argv],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
    plain = subprocess.run([sys.executable, "-m", "cosetlab.cli", *argv],
                           cwd=ROOT, env=env, capture_output=True, text=True,
                           timeout=120)
    assert traced.returncode == 0, traced.stderr
    assert plain.returncode == 0, plain.stderr
    assert traced.stdout == plain.stdout
    assert json.loads(spans_out.read_text())["spans"]
