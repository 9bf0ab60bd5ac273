import contextlib
import io
import json
import sys
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from isf import Forest, MultiPoly, complete_graph, stirling_row
from isf.cli import _emit, main
from conftest import y_substituted


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


def test_logconcavity_witness_is_the_first_lifted_term(capsys, monkeypatch,
                                                      tmp_path):
    # no class is negative for 0 < p <= q < n, so force every class to -1:
    # the y-difference is then minus every y-monomial of degree r + s
    monkeypatch.setattr("isf.enumeration._class_coefficient", lambda r, a, b: -1)
    g = complete_graph(4)
    path = tmp_path / "k4.json"
    path.write_text(json.dumps(g.to_json()))
    status, rep = run(capsys, "check", "logconcavity", "--graph", str(path),
                      "--p", "2", "--q", "2")
    js = sorted({j for _, j in g.edges})
    ypoly = MultiPoly({
        tuple(j for j, k in zip(js, beta) for _ in range(k)): -1
        for beta in product((0, 1, 2), repeat=len(js)) if sum(beta) == 4
    })
    first = y_substituted(g, ypoly).to_json()["terms"][0]
    assert status == 1 and not rep["ok"]
    assert rep["payload"] == {"is_nonneg": False, "witness": first}
    assert first == {"vars": [[1, 2], [1, 2], [1, 3], [1, 3]], "coef": "-1"}


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
