"""The suite's `time_limit` helper: a block that overruns fails its test.

The alarm fires inside `isf` code, where rendering a traceback once crashed
pytest itself, so the check runs a small test file in a pytest subprocess.
"""

import os
import subprocess
import sys
from pathlib import Path

import isf

TESTS = str(Path(__file__).resolve().parent)
SRC = str(Path(isf.__file__).resolve().parent.parent)

OVERRUN = """
from conftest import time_limit
from isf import complete_graph, movable_edge_search


def test_overrun():
    with time_limit(0.3):
        movable_edge_search(complete_graph(7))  # tens of seconds
"""


def test_time_limit_reports_a_plain_failure(tmp_path):
    (tmp_path / "test_overrun.py").write_text(OVERRUN)
    path = os.pathsep.join(
        filter(None, [TESTS, SRC, os.environ.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "test_overrun.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=path, PYTHONDONTWRITEBYTECODE="1"),
    )
    assert "INTERNALERROR" not in out.stdout + out.stderr, out.stdout
    assert "1 failed" in out.stdout, out.stdout
    # a plain failure: pytest's own outcome, with no traceback
    assert ("FAILED test_overrun.py::test_overrun - Failed: still running "
            "after 0.3 s") in out.stdout, out.stdout
    assert "conftest.py:" not in out.stdout, out.stdout
