"""The process entry point `isf.cli.run` and the assumption behind it.

`run()` calls `main()` with the cyclic collector off and freezes what
survives, so the collector never runs in an `isf` process.  That is only
free if commands build no reference cycles; the first test checks it on
the golden corpus.  The others replay the corpus through a real
`python -m isf.cli` process, check that `main()` itself leaves a library
caller's GC settings alone, and keep the start-up imports small.
"""

import contextlib
import gc
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import isf
from isf import cli

GOLDEN = Path(__file__).parent / "golden"
CASES = json.loads((GOLDEN / "cases.json").read_text())
ROOT = Path(__file__).resolve().parent.parent
SRC = str(Path(isf.__file__).resolve().parent.parent)
ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(
    filter(None, [SRC, os.environ.get("PYTHONPATH")])))


@contextlib.contextmanager
def collector_disabled():
    was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


@pytest.mark.parametrize("case", sorted(CASES))
def test_commands_leave_no_cyclic_garbage(case, monkeypatch):
    monkeypatch.chdir(GOLDEN)
    with collector_disabled():
        cli.build_parser()
        parser_garbage = gc.collect()  # argparse's own cycles
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(CASES[case]) == 0
        garbage = gc.collect()
    assert garbage <= parser_garbage


@pytest.mark.parametrize("case", sorted(CASES))
def test_golden_stdout_through_the_process_entry_point(case):
    proc = subprocess.run(
        [sys.executable, "-m", "isf.cli", *CASES[case]],
        cwd=GOLDEN, env=ENV, capture_output=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stdout == (GOLDEN / f"{case}.stdout").read_bytes()


def test_malformed_input_through_the_process_entry_point(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"n": 3, "edges": [[1, 2], [2]]}')
    proc = subprocess.run(
        [sys.executable, "-m", "isf.cli", "chromatic", "--graph", str(bad)],
        env=ENV, capture_output=True, timeout=120,
    )
    assert proc.returncode == 2
    assert b"Traceback" not in proc.stderr
    report = json.loads(proc.stdout)
    assert report["command"] == "chromatic" and not report["ok"]
    assert report["payload"] is None and report["diagnostics"]


def test_reader_closing_stdout_early_is_a_quiet_exit():
    # the report is megabytes long, so writing it outlasts the pipe buffer
    proc = subprocess.Popen(
        [sys.executable, "-m", "isf.cli", "stirling", "row", "--n", "1500"],
        env=ENV, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    assert proc.stdout.read(10) == b'{"command"'
    proc.stdout.close()
    stderr = proc.stderr.read()
    assert proc.wait(timeout=120) == 0
    assert stderr == b""


def test_console_script_goes_through_run():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    assert project["scripts"] == {"isf": "isf.cli:run"}


def _modules_loaded_by(code: str, names) -> set:
    # -S: no site hook (a .pth file, say) imports anything before the code
    script = f"import sys\n{code}\nprint(*set({names!r}) & set(sys.modules))"
    proc = subprocess.run([sys.executable, "-S", "-c", script], env=ENV,
                          capture_output=True, text=True, timeout=120, check=True)
    return set(proc.stdout.split())


def test_import_loads_neither_dataclasses_nor_inspect():
    # each process start pays for what `import isf.cli` imports; these
    # (and inspect's ast, dis and tokenize) are needed by nothing in isf
    names = ("dataclasses", "inspect", "typing")
    preloaded = _modules_loaded_by("pass", names)
    assert _modules_loaded_by("import isf.cli", names) - preloaded == set()


def test_run_disables_the_collector_and_freezes_survivors(monkeypatch):
    seen = []

    def fake_main():
        seen.append(gc.isenabled())
        return 1

    monkeypatch.setattr(cli, "main", fake_main)
    was_enabled = gc.isenabled()
    try:
        with pytest.raises(SystemExit) as exc:
            cli.run()
        assert gc.get_freeze_count() > 0
    finally:
        gc.unfreeze()
        if was_enabled:
            gc.enable()
    assert exc.value.code == 1
    assert seen == [False]


@pytest.mark.parametrize("enabled", [True, False])
def test_main_keeps_the_callers_gc_setting(enabled, capsys):
    was_enabled = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        assert cli.main(["phi", "--ground", "1,2,3", "--subset", "1"]) == 0
        assert cli.main(["no-such-command"]) == 2
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was_enabled else gc.disable)()
