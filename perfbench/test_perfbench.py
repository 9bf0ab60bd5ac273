"""Tests of the benchmark itself: python -m pytest perfbench"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import layers
import oracles as o
from workloads import WORKLOADS, build_emit, build_psi_verify

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
BENCH = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _inputs(jobs, inputs: Path):
    """Job arguments with the input directory cut off, and the input files."""
    argv = [tuple(a.replace(str(inputs), "") for a in j.argv) for j in jobs]
    files = {p.name: p.read_bytes() for p in sorted(inputs.iterdir())}
    return argv, files


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_one_seed_always_gives_the_same_graphs(name, tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    a.mkdir()
    b.mkdir()
    jobs_a = WORKLOADS[name].build(7, a)
    jobs_b = WORKLOADS[name].build(7, b)
    assert _inputs(jobs_a, a) == _inputs(jobs_b, b)


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_seeds_change_the_inputs_but_not_the_work(name, tmp_path):
    files, work = set(), set()
    for seed in range(6):
        inputs = tmp_path / str(seed)
        inputs.mkdir()
        jobs = WORKLOADS[name].build(seed, inputs)
        files.add(json.dumps(_inputs(jobs, inputs)[1], default=bytes.hex))
        work.add(tuple((j.label, j.work, j.pairs) for j in jobs))
    assert len(work) == 1
    assert len(files) > 1


def test_declared_sizes_match_the_product_formula(tmp_path):
    psi = build_psi_verify(3, tmp_path)
    assert [j.pairs for j in psi] == [23290, 8704]
    emit = build_emit(3, tmp_path)
    assert [j.work for j in emit] == [13068, 6534, 5040]


def test_oracles_on_known_values():
    assert o.stirling_row(4) == [0, 6, 11, 6, 1]
    assert o.isf_counts(range(5)) == o.stirling_row(5)
    assert o.chordal_band_chromatic(3, 2) == [0, 2, -3, 1]
    assert [abs(c) for c in o.PETERSEN_CHROMATIC] == [
        0, 704, 2606, 4305, 4275, 2861, 1353, 455, 105, 15, 1]
    assert o.bracket_successor([1, 2, 3], {1}) == [1, 3]
    assert o.is_peo(o.complete_graph(4))
    assert not o.is_peo({"n": 3, "edges": [[1, 3], [2, 3]]})


def test_oracles_reject_wrong_forest_lists():
    k3 = o.complete_graph(3)
    good = [{"n": 3, "edges": [[1, 2]]}, {"n": 3, "edges": [[1, 3]]},
            {"n": 3, "edges": [[2, 3]]}]
    assert o.check_forest_list(k3, good, 2) is None
    assert o.check_forest_list(k3, good[:2] + good[:1], 2)
    assert o.check_forest_list(k3, good[:2], 2)
    bad = good[:2] + [{"n": 3, "edges": [[1, 3], [2, 3]]}]
    assert o.check_forest_list(k3, bad, 2)


def test_tracer_sees_every_psi_and_phi_call(tmp_path):
    graph = tmp_path / "k4.json"
    graph.write_text(json.dumps(o.complete_graph(4)))
    prefix = str(tmp_path / "job")
    done = subprocess.run(
        [sys.executable, str(HERE / "tracer.py"), prefix, "k4", "--",
         "verify", "psi", "--graph", str(graph), "--k", "1", "--l", "2"],
        env=dict(os.environ, PYTHONPATH=str(SRC)), capture_output=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    found = layers.Layers()
    found.add_job(*layers.load(prefix))
    counts = o.isf_counts(range(4))
    pairs = counts[1] * counts[2]
    assert found.identity_failures(pairs) == []
    names = [m["name"] for m in BENCH["per_layer"]]
    metrics = found.metrics(names, len(done.stdout))
    assert set(metrics) == set(names) - {"trace.overhead_s"}
    assert metrics["injection.psi.calls"] == pairs
    assert metrics["injection.verify_psi.images"] == pairs
    assert metrics["enumeration.forests_built"] == 24
    # Each (graph, k) group counts once, though verify_psi asks for the
    # l-group once per forest of the k-group.
    assert metrics["enumeration.yield_ratio"] == (counts[1] + counts[2]) / 24
    unused = found.not_measured(names)
    assert "chromatic.circuits.s" in unused
    assert "injection.psi.calls" not in unused
    assert found.identity_failures(pairs + 1)
