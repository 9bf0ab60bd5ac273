import json

import pytest

from isf.cli import main


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


@pytest.mark.parametrize("perm", [
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
