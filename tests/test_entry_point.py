"""The process entry point `isf.cli.run` and the assumption behind it.

`run()` calls `main()` with the cyclic collector off and freezes what
survives, so the collector never runs in an `isf` process.  That is only
free if commands build no reference cycles; the first test checks it on
the golden corpus.  The others replay the corpus through a real
`python -m isf.cli` process, check that `main()` itself leaves a library
caller's GC settings alone, keep the start-up imports small, pin which
`isf` submodules each command form loads, and bound the peak memory of
commands whose inputs and outputs are of polynomial size.
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
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(CASES[case]) == 0
        garbage = gc.collect()
    assert garbage == 0


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


@pytest.mark.parametrize("argv, files", [
    (["stirling", "row", "--n", "1500"], {}),
    # 13,068 forests, encoded a slice at a time before the first write
    (["enumerate", "--graph", "k8.json", "--components", "2"],
     {"k8.json": json.dumps(isf.complete_graph(8).to_json())}),
], ids=["stirling-row", "enumerate-k8-c2"])
def test_reader_closing_stdout_early_is_a_quiet_exit(argv, files, tmp_path):
    # the report is far longer than the pipe buffer, so writing it outlasts it
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    with subprocess.Popen(
        [sys.executable, "-m", "isf.cli", *argv], cwd=tmp_path,
        env=ENV, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    ) as proc:  # closes both pipes on the way out, even when a check fails
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
    # (and inspect's ast, dis and tokenize) are needed by nothing in isf,
    # and the CLI reads its command line from its own table
    names = ("dataclasses", "inspect", "typing", "argparse", "gettext", "locale")
    preloaded = _modules_loaded_by("pass", names)
    assert _modules_loaded_by("import isf.cli", names) - preloaded == set()


# The submodules are registered lazily (see isf/__init__.py), so a module
# that is in sys.modules but was never used is still a `_LazyModule`;
# only a loaded one is a plain module.
LOADED = """
import contextlib, io, sys, types
{code}
print(*(name for name, module in sys.modules.items() if name.startswith("isf.")
        and name != "isf.cli" and type(module) is types.ModuleType))
"""


def _isf_modules_loaded_by(code: str, argv=(), cwd=None) -> set:
    proc = subprocess.run([sys.executable, "-S", "-c", LOADED.format(code=code),
                           *argv], cwd=cwd, env=ENV, capture_output=True,
                          text=True, timeout=120, check=True)
    return {name[len("isf."):] for name in proc.stdout.split()}


def test_import_loads_no_submodule():
    assert _isf_modules_loaded_by("import isf") == set()


_NOT_PHI = {"chromatic", "enumeration", "graphs", "injection", "polynomials",
            "stirling"}
_NOT_PSI = {"injection", "brackets", "stirling"}
# one golden case of each command form -> the submodules it must not load
UNLOADED = {
    "phi-invert-6": _NOT_PHI,
    "subset-map-6": _NOT_PHI,
    "enumerate-k4-c2": {"chromatic", *_NOT_PSI},
    "poly-k3-k2": {"chromatic", *_NOT_PSI},
    "poly-k4": {"chromatic", *_NOT_PSI},
    "check-factorization-k3": {"chromatic", *_NOT_PSI},
    "check-logconcavity-empty3-p1-q1": {"chromatic", *_NOT_PSI},
    "chromatic-c5": _NOT_PSI,
    "nbc-k4-min": _NOT_PSI,
    "admissible-g33-fork": _NOT_PSI,
    "search-movable-g33-relabel": _NOT_PSI,
    "check-whitney-petersen-min": _NOT_PSI,
    "check-peo-c4": _NOT_PSI,
    "psi-k3-path": {"chromatic", "stirling"},
    "verify-psi-k4-k1-l2": {"chromatic", "stirling"},
    "stirling-row-8": {"chromatic"},
    "stirling-to-perm-f9": {"chromatic"},
    "stirling-to-forest-f9": {"chromatic"},
    "stirling-psi-n6": {"chromatic"},
}


@pytest.mark.parametrize("case", sorted(UNLOADED))
def test_a_command_loads_only_its_own_modules(case):
    code = ("from isf.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    assert main(sys.argv[1:]) == 0")
    loaded = _isf_modules_loaded_by(code, CASES[case], cwd=GOLDEN)
    assert "errors" in loaded and loaded & UNLOADED[case] == set()


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


# A child's peak-RSS count starts at the resident size of the process that
# spawned it, so a small launcher spawns the command and reports its usage
# through `os.wait4` on the command's own pid.
LAUNCHER = """
import os, signal, sys
out, seconds, *argv = sys.argv[1:]
flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
pid = os.posix_spawn(sys.executable, [sys.executable, *argv], os.environ,
                     file_actions=[(os.POSIX_SPAWN_OPEN, 1, out, flags, 0o644)])
signal.signal(signal.SIGALRM, lambda *_: os.kill(pid, signal.SIGKILL))
signal.alarm(int(seconds))
_, status, usage = os.wait4(pid, 0)
print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)
"""


def _cycles_json(n, cycles):
    return json.dumps({"n": n, "cycles": [list(c) for c in cycles]})


def _path_json(n):
    return json.dumps({"n": n, "edges": [[i, i + 1] for i in range(1, n)]})


# seconds: the launcher kills the command after this long, so a
# super-linear regression on the newer cases fails instead of stalling
@pytest.mark.parametrize("argv, files, seconds", [
    (["stirling", "row", "--n", "1000"], {}, 300),
    (["stirling", "psi", "--sigma", "sigma.json", "--tau", "tau.json"], {
        "sigma.json": _cycles_json(1000, [[1, *range(1000, 1, -1)]]),
        "tau.json": _cycles_json(1000, [range(1, 1001, 2), range(2, 1001, 2)]),
    }, 300),
    (["check", "whitney", "--graph", "path.json"], {
        "path.json": _path_json(3000)}, 300),
    (["nbc", "--graph", "path.json", "--convention", "min"], {
        "path.json": _path_json(3000)}, 10),
    (["nbc", "--graph", "path.json", "--convention", "max"], {
        "path.json": _path_json(3000)}, 10),
    (["stirling", "to-forest", "--perm", "perm.json"], {
        "perm.json": _cycles_json(60_000, [[1, *range(60_000, 1, -1)]])}, 10),
], ids=["stirling-row", "stirling-psi", "check-whitney", "nbc-min", "nbc-max",
        "stirling-to-forest"])
def test_polynomial_inputs_stay_under_60_mb(argv, files, seconds, tmp_path):
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    out = tmp_path / "stdout.json"
    proc = subprocess.run(
        [sys.executable, "-S", "-c", LAUNCHER, str(out), str(seconds),
         "-m", "isf.cli", *argv],
        cwd=tmp_path, env=ENV, capture_output=True, text=True, timeout=600,
        check=True,
    )
    status, maxrss_kb = map(int, proc.stdout.split())
    assert status == 0 and json.loads(out.read_text())["ok"]
    assert maxrss_kb / 1024 < 60, f"peak RSS {maxrss_kb / 1024:.1f} MB"


def test_permutation_far_longer_than_its_cycles_is_refused_unbuilt():
    # n = 10**12 with one 1-cycle: the sizes differ, so no range(1, n + 1) is
    # built; under a 1 GB address-space limit that would be a MemoryError
    script = ("import resource, sys; resource.setrlimit(resource.RLIMIT_AS, "
              "(2**30, 2**30)); from isf.cli import run; run()")
    proc = subprocess.run(
        [sys.executable, "-c", script, "stirling", "to-forest", "--perm", "-"],
        input=_cycles_json(10**12, [[1]]), env=ENV, capture_output=True,
        text=True, timeout=120,
    )
    assert proc.returncode == 2 and proc.stderr == ""
    report = json.loads(proc.stdout)
    assert not report["ok"] and report["payload"] is None
    assert report["diagnostics"] == [
        "cycles ((1,),) do not partition 1..1000000000000"]
