import contextlib
import io
import json
import os
import sys
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from isf import (
    Forest, complete_graph, enumerate_if, isf_tpoly, psi, stirling_row,
    verify_psi,
)
import isf.enumeration
from isf import cli
from isf.cli import _SLICE, _emit, _to_json, main
from conftest import max_outside
from test_golden import GOLDEN, _command_forms


@pytest.fixture
def k3(tmp_path):
    path = tmp_path / "k3.json"
    path.write_text(json.dumps({"n": 3, "edges": [[1, 2], [1, 3], [2, 3]]}))
    return str(path)


@pytest.fixture
def g33(tmp_path):
    path = tmp_path / "g33.json"
    path.write_text(json.dumps({"n": 4, "edges": [[1, 4], [2, 3], [2, 4], [3, 4]]}))
    return str(path)


def run(capsys, *argv):
    status = main(list(argv))
    out = capsys.readouterr().out
    return status, json.loads(out)


def test_enumerate(capsys, k3):
    status, rep = run(capsys, "enumerate", "--graph", k3, "--components", "1")
    assert status == 0 and rep["ok"]
    assert rep["payload"]["forests"] == [
        {"n": 3, "edges": [[1, 2], [1, 3]]},
        {"n": 3, "edges": [[1, 2], [2, 3]]},
    ]


def test_poly(capsys, k3):
    status, rep = run(capsys, "poly", "--graph", k3, "--k", "2")
    assert status == 0
    assert rep["payload"]["poly"]["terms"] == [
        {"vars": [[1, 2]], "coef": "1"},
        {"vars": [[1, 3]], "coef": "1"},
        {"vars": [[2, 3]], "coef": "1"},
    ]


def test_phi(capsys):
    status, rep = run(capsys, "phi", "--ground", "1,2,3", "--subset", "1")
    assert status == 0 and rep["payload"]["image"] == [1, 3]


def test_subset_map(capsys):
    status, rep = run(capsys, "subset-map", "--n", "3", "--x", "1", "--y", "2,3")
    assert status == 0
    assert rep["payload"] == {"x_new": [1, 3], "y_new": [2], "moved": 3}


def test_subset_map_never_builds_its_universe(capsys):
    # [n] for this n would not fit in memory; only X and Y are checked
    status, rep = run(capsys, "subset-map", "--n", "1000000000000",
                      "--x", "1", "--y", "2,3")
    assert status == 0
    assert rep["payload"] == {"x_new": [1, 3], "y_new": [2], "moved": 3}
    status, rep = run(capsys, "subset-map", "--n", "1000000000000",
                      "--x", "1", "--y", "2,1000000000001")
    assert status == 2 and rep["payload"] is None
    assert rep["diagnostics"] == [
        "[2, 1000000000001] is not a subset of 1..1000000000000"]


def test_psi_and_precondition_exit_code(capsys, k3, tmp_path):
    a = tmp_path / "a.json"
    a.write_text(json.dumps({"n": 3, "edges": [[1, 2], [1, 3]]}))
    b = tmp_path / "b.json"
    b.write_text(json.dumps({"n": 3, "edges": []}))
    status, rep = run(capsys, "psi", "--graph", k3, "--forest-a", str(a),
                      "--forest-b", str(b))
    assert status == 0
    assert rep["payload"]["trace"]["j"] == 3
    assert rep["payload"]["trace"]["e"] == [1, 3]

    # k >= l is an input error: exit 2, still valid JSON
    status, rep = run(capsys, "psi", "--graph", k3, "--forest-a", str(b),
                      "--forest-b", str(b))
    assert status == 2 and not rep["ok"]
    assert rep["diagnostics"]


def test_verify_psi(capsys, k3):
    status, rep = run(capsys, "verify", "psi", "--graph", k3, "--k", "1", "--l", "2")
    assert status == 0
    assert rep["payload"]["report"]["injective"]


def test_stirling_row(capsys):
    status, rep = run(capsys, "stirling", "row", "--n", "4")
    assert status == 0
    assert rep["payload"]["unsigned"] == [0, 6, 11, 6, 1]


def test_stirling_round_trip(capsys, tmp_path):
    f = tmp_path / "f.json"
    f.write_text(json.dumps(
        {"n": 9, "edges": [[1, 2], [1, 4], [3, 5], [3, 6], [4, 7], [4, 9], [6, 8]]}
    ))
    status, rep = run(capsys, "stirling", "to-perm", "--forest", str(f))
    assert status == 0
    assert rep["payload"]["perm"]["cycles"] == [[1, 4, 9, 7, 2], [3, 6, 8, 5]]

    p = tmp_path / "p.json"
    p.write_text(json.dumps(rep["payload"]["perm"]))
    status, rep = run(capsys, "stirling", "to-forest", "--perm", str(p))
    assert status == 0
    assert rep["payload"]["forest"] == json.loads(f.read_text())


def test_chromatic_and_checks(capsys, k3, g33):
    status, rep = run(capsys, "chromatic", "--graph", g33)
    assert status == 0
    assert rep["payload"]["poly"]["coeffs"] == [0, -2, 5, -4, 1]

    status, rep = run(capsys, "check", "factorization", "--graph", k3)
    assert status == 0 and rep["payload"]["equal"]

    status, rep = run(capsys, "check", "logconcavity", "--graph", k3,
                      "--p", "2", "--q", "2")
    assert status == 0 and rep["payload"]["is_nonneg"]

    status, rep = run(capsys, "check", "whitney", "--graph", g33,
                      "--convention", "max")
    assert status == 0 and rep["payload"]["equal"]

    status, rep = run(capsys, "check", "peo", "--graph", k3)
    assert status == 0 and rep["payload"]["holds"]


def test_negative_logconcavity_class_exits_1(capsys, monkeypatch, tmp_path):
    # no class is negative for 0 < p <= q < n, so force the class (2, 2) of
    # this graph's p = q = 2 difference below zero
    coefficient = isf.enumeration._class_coefficient
    monkeypatch.setattr(
        isf.enumeration, "_class_coefficient",
        lambda r, a, b: -1 if (a, b) == (2, 2) else coefficient(r, a, b),
    )
    path = tmp_path / "g5.json"
    path.write_text(json.dumps({"n": 5, "edges": [
        [1, 2], [1, 3], [2, 3], [2, 4], [3, 4], [3, 5], [4, 5]]}))
    status, rep = run(capsys, "check", "logconcavity", "--graph", str(path),
                      "--p", "2", "--q", "2")
    assert status == 1 and rep["ok"] is False and rep["payload"] is None
    assert rep["diagnostics"] == ["class a=2, b=2 has coefficient -1"]


def test_nbc_and_admissible(capsys, g33, tmp_path):
    status, rep = run(capsys, "nbc", "--graph", g33, "--convention", "min")
    assert status == 0
    assert rep["payload"]["broken_circuits"] == [[[2, 4], [3, 4]]]

    f = tmp_path / "a.json"
    f.write_text(json.dumps({"n": 4, "edges": [[1, 4], [2, 4], [3, 4]]}))
    status, rep = run(capsys, "admissible", "--graph", g33, "--forest", str(f))
    assert status == 0 and rep["payload"]["admissible"]


def test_search_movable(capsys, g33):
    status, rep = run(capsys, "search-movable", "--graph", g33)
    assert status == 0  # a movable-edge gap is a finding, not a failure
    assert rep["payload"]["all_pairs_ok"] is False

    status, rep = run(capsys, "search-movable", "--graph", g33,
                      "--relabel", "1,3,4,2")
    assert status == 0 and rep["payload"]["all_pairs_ok"]


def test_search_movable_rejects_empty_relabeling(capsys, k3):
    status, rep = run(capsys, "search-movable", "--graph", k3, "--relabel", "")
    assert status == 2 and not rep["ok"] and rep["payload"] is None
    assert rep["diagnostics"] == ["relabeling [] is not a permutation of 1..3"]


def _write_forests(tmp_path):
    files = {
        "k3": {"n": 3, "edges": [[1, 2], [1, 3], [2, 3]]},
        "p2": {"n": 3, "edges": [[1, 2]]},
        "a4": {"n": 4, "edges": [[1, 2], [1, 3]]},
        "a13": {"n": 3, "edges": [[1, 3]]},
        "e3": {"n": 3, "edges": []},
        "nonincr": {"n": 3, "edges": [[1, 3], [2, 3]]},
    }
    for name, obj in files.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(obj))


@pytest.mark.parametrize("argv, stdout", [
    ("psi --graph k3.json --forest-a a4.json --forest-b e3.json",
     '{"command": "psi", "diagnostics": ["forest A has n=4, graph has n=3"], '
     '"ok": false, "payload": null}\n'),
    ("psi --graph k3.json --forest-a e3.json --forest-b a4.json",
     '{"command": "psi", "diagnostics": ["forest B has n=4, graph has n=3"], '
     '"ok": false, "payload": null}\n'),
    ("psi --graph p2.json --forest-a a13.json --forest-b e3.json",
     '{"command": "psi", "diagnostics": ["forest A uses non-graph edges '
     '[(1, 3)]"], "ok": false, "payload": null}\n'),
    ("psi --graph p2.json --forest-a p2.json --forest-b a13.json",
     '{"command": "psi", "diagnostics": ["forest B uses non-graph edges '
     '[(1, 3)]"], "ok": false, "payload": null}\n'),
    ("psi --graph k3.json --forest-a nonincr.json --forest-b e3.json",
     '{"command": "psi", "diagnostics": ["forest A is not increasing"], '
     '"ok": false, "payload": null}\n'),
    ("admissible --graph k3.json --forest a4.json",
     '{"command": "admissible", "diagnostics": ["forest has n=4, graph has '
     'n=3"], "ok": false, "payload": null}\n'),
    ("admissible --graph p2.json --forest a13.json",
     '{"command": "admissible", "diagnostics": ["forest uses non-graph edges '
     '[(1, 3)]"], "ok": false, "payload": null}\n'),
])
def test_forest_in_graph_diagnostics(capsys, monkeypatch, tmp_path, argv, stdout):
    _write_forests(tmp_path)
    monkeypatch.chdir(tmp_path)
    assert main(argv.split()) == 2
    assert capsys.readouterr().out == stdout


def test_cyclic_forest_diagnostic(capsys, monkeypatch, tmp_path):
    # the triangle's larger endpoint 3 repeats, so the relabeling scan decides
    _write_forests(tmp_path)
    monkeypatch.chdir(tmp_path)
    assert main("admissible --graph k3.json --forest k3.json".split()) == 2
    assert capsys.readouterr().out == (
        '{"command": "admissible", "diagnostics": ["edge (2,3) closes a '
        'circuit"], "ok": false, "payload": null}\n')


def test_negative_permutation_size_exit_code(capsys, tmp_path):
    path = tmp_path / "p.json"
    path.write_text(json.dumps({"n": -1, "cycles": []}))
    assert main(["stirling", "to-forest", "--perm", str(path)]) == 2
    assert capsys.readouterr().out == (
        '{"command": "stirling", "diagnostics": ["vertex count must be >= 0, '
        'got -1"], "ok": false, "payload": null}\n'
    )


def test_bad_input_exit_code(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"n": 3, "edges": [[2, 5]]}))
    status, rep = run(capsys, "chromatic", "--graph", str(bad))
    assert status == 2 and not rep["ok"]
    assert any("(2,5)" in d for d in rep["diagnostics"])


def test_usage_error_exit_code(capsys):
    assert main(["no-such-command"]) == 2


def test_global_jobs_and_output_flags_are_gone(capsys):
    assert main(["--jobs", "2", "phi", "--ground", "1,2,3", "--subset", "1"]) == 2
    assert main(["--output", "json", "phi", "--ground", "1,2,3", "--subset", "1"]) == 2
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("argv", [
    [],
    ["no-such-command"],
    ["stirling"],
    ["stirling", "rows", "--n", "3"],
    ["--graph", "k3.json", "chromatic"],
    ["enumerate", "--graph", "k3.json"],
    ["chromatic", "--graph", "k3.json", "--bogus", "1"],
    ["chromatic", "--graph", "k3.json", "k3.json"],
    ["chromatic", "-g", "k3.json"],
    ["chromatic", "--", "--graph", "k3.json"],
    ["psi", "--graph", "k3.json", "--forest", "a.json"],
    ["chromatic", "--graph"],
    ["enumerate", "--graph", "--components", "1"],
    ["subset-map", "--n", "4", "--x", "1", "--y", "-1,2"],
    ["subset-map", "--n", "-x", "--x", "1", "--y", "2"],
    ["enumerate", "--graph", "k3.json", "--components", "two"],
    ["enumerate", "--graph", "k3.json", "--components=1.0"],
    ["nbc", "--graph", "k3.json", "--convention", "mid"],
    ["check", "whitney", "--graph", "k3.json", "--convention=MIN"],
    ["phi", "--ground", "1,2", "--subset", "1", "--invert=yes"],
], ids=["no-command", "unknown-word", "missing-word", "unknown-subword",
        "option-before-command", "missing-option", "unknown-option",
        "extra-argument", "single-dash", "double-dash", "ambiguous-prefix",
        "no-value-at-end", "no-value-before-option", "dash-value",
        "dash-int-value", "bad-int", "float-int", "bad-choice",
        "choice-case", "flag-with-value"])
def test_malformed_command_line_prints_usage_and_no_report(capsys, argv):
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    usage, error = err.splitlines()[0], err.splitlines()[-1]
    assert usage.startswith("usage: isf") and error.startswith("isf: error: ")


@pytest.mark.parametrize("case, argv", [
    ("enumerate-k4-c2", "enumerate --comp 2 --graph k4.json"),
    ("enumerate-k4-c2", "enumerate --graph=k4.json --components=2"),
    ("enumerate-k4-c2", "enumerate --graph k6.json --components 3 "
                        "--components 2 --graph k4.json"),
    ("check-whitney-petersen-max", "check whitney --g=petersen.json --conv max"),
    ("psi-k3-path", "psi --graph k3.json --forest-b empty3.json "
                    "--forest-a=k3-path.json"),
    ("phi-invert-6", "phi --inv --ground 1,2,3,4,5,6 --sub 2,4,5"),
    ("stirling-row-8", "stirling row --n 1 --n=8"),
], ids=["prefix", "equals", "repeated", "prefix-equals", "equals-forest-a",
        "flag-prefix", "repeated-equals"])
def test_option_spellings_print_the_canonical_stdout(capsys, monkeypatch, case,
                                                     argv):
    monkeypatch.chdir(GOLDEN)
    assert main(argv.split()) == 0
    assert capsys.readouterr().out.encode() == (
        GOLDEN / f"{case}.stdout").read_bytes()


def test_negative_integer_and_dash_are_values(capsys, monkeypatch):
    # a negative int is read as the option's value, so the handler rejects it
    monkeypatch.chdir(GOLDEN)
    status, rep = run(capsys, "poly", "--graph", "k3.json", "--k", "-1")
    assert status == 2 and rep["diagnostics"] == ["need 0 <= k <= n=3, got k=-1"]
    monkeypatch.setattr("sys.stdin", io.StringIO((GOLDEN / "k4.json").read_text()))
    assert main(["enumerate", "--components", "2", "--graph", "-"]) == 0
    assert capsys.readouterr().out.encode() == (
        GOLDEN / "enumerate-k4-c2.stdout").read_bytes()


@pytest.mark.parametrize("argv, forms", [
    (["-h"], _command_forms()),
    (["--help", "enumerate"], _command_forms()),
    (["check", "-h"], [f for f in _command_forms() if f[0] == "check"]),
    (["check", "whitney", "-h"], [("check", "whitney")]),
    (["check", "whitney", "--graph", "k3.json", "--help"], [("check", "whitney")]),
    (["enumerate", "--components", "-h"], [("enumerate",)]),
], ids=["top", "top-long", "check", "check-whitney", "check-whitney-long",
        "as-a-value"])
def test_help_lists_one_usage_line_per_form_under_the_words(capsys, argv, forms):
    assert main(argv) == 0
    out, err = capsys.readouterr()
    assert err == ""
    lines = out.splitlines()
    assert lines[0].startswith("usage: ") and len(lines) == len(forms)
    listed = [tuple(line.split("isf ", 1)[1].split(" --")[0].split()) for line in lines]
    assert listed == forms


def test_the_argparse_parser_is_gone():
    assert not hasattr(cli, "build_parser")


def test_deterministic_output(capsys, k3):
    main(["poly", "--graph", k3])
    first = capsys.readouterr().out
    main(["poly", "--graph", k3])
    second = capsys.readouterr().out
    assert first == second  # byte-identical


def test_stdin_input(capsys, monkeypatch):
    import io

    monkeypatch.setattr("sys.stdin", io.StringIO(
        json.dumps({"n": 3, "edges": [[1, 2], [1, 3], [2, 3]]})
    ))
    status, rep = run(capsys, "chromatic", "--graph", "-")
    assert status == 0
    assert rep["payload"]["poly"]["coeffs"] == [0, 2, -3, 1]


@pytest.mark.parametrize("data, reason", [
    (b"\xff\xfe\x7b", "can't decode byte 0xff"),
    (b"[" * 100_000 + b"]" * 100_000, "maximum recursion depth exceeded"),
    (b'{"n": ' + b"9" * 5000 + b', "edges": []}', "for integer string conversion"),
], ids=["not-utf8", "too-deep", "int-over-digit-limit"])
def test_unreadable_json_exit_code(capsys, monkeypatch, tmp_path, data, reason):
    path = tmp_path / "g.json"
    path.write_bytes(data)
    stdin = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8")
    monkeypatch.setattr("sys.stdin", stdin)
    for source in (str(path), "-"):
        status, rep = run(capsys, "chromatic", "--graph", source)
        assert status == 2 and not rep["ok"] and rep["payload"] is None
        (message,) = rep["diagnostics"]
        assert message.startswith(f"cannot read JSON from {source}: ")
        assert reason in message


def test_exact_results_print_past_the_digit_limit(capsys):
    # c(400, 1) = 399! has 867 digits
    previous = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        status = main(["stirling", "row", "--n", "400"])
        limit = sys.get_int_max_str_digits()
    finally:
        sys.set_int_max_str_digits(previous)
    assert limit == 640  # lifted for the output only
    rep = json.loads(capsys.readouterr().out)
    row = stirling_row(400)
    assert status == 0 and rep["ok"] and len(str(row.unsigned[1])) > 640
    assert rep["payload"]["unsigned"] == list(row.unsigned)
    assert rep["payload"]["signed"] == list(row.signed)


def test_emit_encodes_only_objects_with_to_json(capsys):
    # handlers hand _emit their result objects, such as enumerate's Forests;
    # a value without to_json still fails as json.dumps fails without the
    # hook, and the digit limit comes back
    _emit("enumerate", True, {"forests": [Forest(2, [(1, 2)])]}, [])
    assert json.loads(capsys.readouterr().out)["payload"] == {
        "forests": [{"n": 2, "edges": [[1, 2]]}]
    }
    previous = sys.get_int_max_str_digits()
    message = "^Object of type object is not JSON serializable$"
    with pytest.raises(TypeError, match=message):
        _emit("enumerate", True, {"forests": [object()]}, [])
    assert sys.get_int_max_str_digits() == previous
    assert capsys.readouterr().out == ""


def _one_shot(payload) -> str:
    report = {"command": "enumerate", "ok": True, "payload": payload,
              "diagnostics": []}
    previous = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return json.dumps(report, sort_keys=True, default=_to_json) + "\n"
    finally:
        sys.set_int_max_str_digits(previous)


def _k8_forests():
    # enumerate's largest perfbench report: 13,068 forests, 52 slices
    return enumerate_if(complete_graph(8), 2)


def _traces():
    # 300 distinct traces, more than one slice
    k5 = complete_graph(5)
    traces = [psi(k5, a, b) for a in enumerate_if(k5, 1)
              for b in enumerate_if(k5, 3)][:300]
    assert len(set(traces)) == 300 > _SLICE
    return traces


PAYLOADS = {
    **{f"list-{n}": lambda n=n: {"forests": [
        Forest(2, [(1, 2)]) if i % 2 else i for i in range(n)]}
       for n in (0, 1, _SLICE, _SLICE + 1, 2 * _SLICE, 2 * _SLICE + 1)},
    "empty-containers": lambda: {"a": {}, "b": [], "c": [{}, [[]], {"d": {}}]},
    # sort_keys orders int keys as ints (2 before 10), then writes them as str
    "int-keys": lambda: {"counts": {10: "ten", 2: [{3: {}}]}},
    "k8-c2": lambda: {"forests": _k8_forests()},
    "records-3": lambda: {"forests": [
        Forest(2, [(1, 2)]), Forest(3, [(1, 3), (2, 3)]), Forest(1, [])]},
    "tpoly-k6": lambda: {"tpoly": isf_tpoly(complete_graph(6))},
    "stirling-row-1700": lambda: stirling_row(1700),
    # six collisions, pinned in test_injection
    "psi-collisions": lambda: {"report": verify_psi(
        complete_graph(4), 2, 3, successor=max_outside)},
    # a trace is its to_json at any depth: in every slice of a long list, in
    # short lists and in a tuple
    "traces-300": lambda: {"traces": _traces()},
    "trace-in-lists": lambda: {"x": [[_traces()[0]]]},
    "trace-lists-300": lambda: {"x": [[t] for t in _traces()]},
    "trace-in-tuple": lambda: {"x": ({"y": (_traces()[1],)}, 2)},
}


@pytest.mark.parametrize("name", PAYLOADS)
def test_sliced_report_is_the_one_shot_text(name, capsys):
    payload = PAYLOADS[name]()
    _emit("enumerate", True, payload, [])
    assert capsys.readouterr().out == _one_shot(payload)


def _emit_peak(payload) -> float:
    """tracemalloc peak of `_emit(payload)` over its start, as a multiple of
    the report's length."""
    length = len(_one_shot(payload))
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            _emit("enumerate", True, payload, [])
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
    return peak / length


def test_emit_peak_memory_is_under_twice_the_reports_length():
    # the encoder holds one slice's tokens at a time; one json.dumps of the
    # whole report peaked at 2.0x (CPython 3.12, 3.13) to 3.7x (3.10, 3.11)
    ratio = _emit_peak({"forests": _k8_forests()})
    assert ratio < 1.8, f"peak {ratio:.2f}x the report's length"


def test_tpoly_peak_memory_is_under_eight_times_the_reports_length():
    # K7's 8 polynomials sit in a list shorter than a slice; opened one by
    # one, each polynomial's term list is sliced (whole, they peaked at 13.8x)
    ratio = _emit_peak({"tpoly": isf_tpoly(complete_graph(7))})
    assert ratio < 8, f"peak {ratio:.2f}x the report's length"


def test_encoding_error_in_a_late_slice_prints_nothing(capsys):
    forests = [Forest(2, [(1, 2)])] * (2 * _SLICE) + [object()]
    previous = sys.get_int_max_str_digits()
    message = "^Object of type object is not JSON serializable$"
    with pytest.raises(TypeError, match=message):
        _emit("enumerate", True, {"forests": forests}, [])
    assert sys.get_int_max_str_digits() == previous
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("argv", [
    ["phi", "--ground", "1,2,3,4,5", "--subset", "1,1"],
    ["phi", "--ground", "1,2,3,4,5", "--subset", "2,2", "--invert"],
    ["subset-map", "--n", "4", "--x", "1,1", "--y", "2,3,4"],
    ["subset-map", "--n", "4", "--x", "1", "--y", "2,3,3"],
], ids=["phi", "phi-invert", "subset-map-x", "subset-map-y"])
def test_repeated_subset_element_is_rejected(capsys, argv):
    status, rep = run(capsys, *argv)
    assert status == 2 and not rep["ok"] and rep["payload"] is None
    (message,) = rep["diagnostics"]
    assert message.startswith("subset has repeated elements")


def test_repeated_edge_is_rejected(capsys, k3, tmp_path):
    path = tmp_path / "twice.json"
    path.write_text(json.dumps({"n": 3, "edges": [[1, 2], [2, 3], [1, 2]]}))
    for argv in (["chromatic", "--graph", str(path)],
                 ["admissible", "--graph", k3, "--forest", str(path)]):
        status, rep = run(capsys, *argv)
        assert status == 2 and not rep["ok"] and rep["payload"] is None
        assert rep["diagnostics"] == ["edge (1,2) is repeated"]


@pytest.mark.parametrize("graph", [
    {"n": "3", "edges": []},
    {"n": 3, "edges": [1]},
    {"n": 3, "edges": "12"},
    [3, []],
])
def test_malformed_graph_json_exit_code(capsys, tmp_path, graph):
    path = tmp_path / "g.json"
    path.write_text(json.dumps(graph))
    status, rep = run(capsys, "chromatic", "--graph", str(path))
    assert status == 2 and not rep["ok"] and rep["payload"] is None
    assert rep["diagnostics"]


def test_bool_vertex_count_is_rejected(capsys, tmp_path):
    path = tmp_path / "g.json"
    path.write_text(json.dumps({"n": True, "edges": []}))
    status, rep = run(capsys, "chromatic", "--graph", str(path))
    assert status == 2 and not rep["ok"] and rep["payload"] is None
    assert rep["diagnostics"] == ["vertex count must be an integer, got True"]


def test_bool_edge_endpoint_is_rejected(capsys, tmp_path):
    path = tmp_path / "g.json"
    path.write_text(json.dumps({"n": 3, "edges": [[True, 2], [2, 3]]}))
    status, rep = run(capsys, "enumerate", "--graph", str(path),
                      "--components", "1")
    assert status == 2 and not rep["ok"] and rep["payload"] is None
    assert rep["diagnostics"] == ["malformed edge (True, 2)"]


def test_bool_forest_edge_is_rejected(capsys, g33, tmp_path):
    path = tmp_path / "f.json"
    path.write_text(json.dumps({"n": 4, "edges": [[True, 2]]}))
    status, rep = run(capsys, "admissible", "--graph", g33, "--forest", str(path))
    assert status == 2 and not rep["ok"] and rep["payload"] is None
    assert rep["diagnostics"] == ["malformed edge (True, 2)"]


def test_unhashable_edge_endpoint_is_rejected(capsys, tmp_path):
    path = tmp_path / "g.json"
    path.write_text(json.dumps({"n": 3, "edges": [[[1], 2]]}))
    status, rep = run(capsys, "chromatic", "--graph", str(path))
    assert status == 2 and not rep["ok"] and rep["payload"] is None
    assert rep["diagnostics"] == ["malformed edge ([1], 2)"]


@pytest.mark.parametrize("perm", [
    {"n": True, "cycles": [[1]]},
    {"n": 2, "cycles": [[True], [2]]},
    {"n": 3},
    {"cycles": [[1], [2], [3]]},
    {"n": "3", "cycles": [[1], [2], [3]]},
    {"n": 3, "cycles": [[1], [], [2, 3]]},
    {"n": 3, "cycles": [[1, "2"], [3]]},
])
def test_malformed_permutation_json_exit_code(capsys, tmp_path, perm):
    path = tmp_path / "p.json"
    path.write_text(json.dumps(perm))
    status, rep = run(capsys, "stirling", "to-forest", "--perm", str(path))
    assert status == 2 and not rep["ok"] and rep["payload"] is None
    assert rep["diagnostics"]


def test_invariant_violation_exit_code(capsys, monkeypatch, k3):
    from isf import InvariantViolation

    def broken(*args):
        raise InvariantViolation("psi bookkeeping failed: test")

    monkeypatch.setattr("isf.cli.verify_psi", broken)
    status, rep = run(capsys, "verify", "psi", "--graph", k3, "--k", "1", "--l", "2")
    assert status == 1 and not rep["ok"] and rep["payload"] is None
    assert rep["diagnostics"] == ["psi bookkeeping failed: test"]


# --- fuzzing: any JSON document must give one report and exit 0, 1 or 2 ---

_scalars = st.one_of(
    st.none(), st.booleans(), st.integers(-1, 6),
    st.floats(allow_nan=False, allow_infinity=False), st.text(max_size=2),
)
_junk = st.recursive(
    _scalars,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(
        st.sampled_from(["n", "edges", "cycles"]), inner, max_size=2),
    max_leaves=8,
)


def _graph_on(n):
    pairs = [[i, j] for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    edges = st.lists(st.sampled_from(pairs), unique_by=tuple) if pairs else (
        st.just([]))
    return edges.map(lambda es: {"n": n, "edges": es})


_documents = st.one_of(
    st.integers(0, 6).flatmap(_graph_on),
    st.fixed_dictionaries({
        "n": _scalars,
        "edges": st.lists(st.lists(_junk, max_size=3) | _junk, max_size=4),
    }),
    _junk,
)


def _run_in_process(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        status = main(argv)
    return status, out.getvalue()


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_fuzzed_documents_give_one_json_report(tmp_path_factory, data):
    tmp = tmp_path_factory.mktemp("fuzz")
    graph = data.draw(_documents, label="graph")
    edges = graph.get("edges") if isinstance(graph, dict) else None
    if isinstance(edges, list) and edges and data.draw(st.booleans()):
        # a sub-forest candidate of the graph, so admissible also gets to run
        forest = {"n": graph.get("n"),
                  "edges": data.draw(st.lists(st.sampled_from(edges), max_size=5))}
    else:
        forest = data.draw(_documents, label="forest")
    (tmp / "g.json").write_text(json.dumps(graph))
    (tmp / "f.json").write_text(json.dumps(forest))
    g, f = str(tmp / "g.json"), str(tmp / "f.json")
    convention = data.draw(st.sampled_from(["min", "max"]))
    for argv in (
        ["chromatic", "--graph", g],
        ["check", "whitney", "--graph", g, "--convention", convention],
        ["admissible", "--graph", g, "--forest", f],
    ):
        status, out = _run_in_process(argv)
        assert status in (0, 1, 2), argv
        assert out.endswith("\n") and out.count("\n") == 1, out
        rep = json.loads(out)
        assert sorted(rep) == ["command", "diagnostics", "ok", "payload"]
        assert rep["ok"] == (status == 0)
        if status == 2:
            assert rep["payload"] is None and rep["diagnostics"]
