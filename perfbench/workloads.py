"""The four benchmark workloads and their seeded inputs.

A workload is a fixed list of `isf` CLI jobs.  Its seeded graphs are drawn
by lower-degree sequence: vertex j picks d_j distinct smaller neighbours at
random.  By the product formula ISF(G; t) = prod_j (t + d_j) the forest and
pair counts depend only on (d_j), so every seed does the same amount of
work; `seeded_graph` callers check that against the size the workload
declares before anything runs.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

import oracles as o


@dataclass(frozen=True)
class Job:
    """One `isf` invocation, its oracle and the work it stands for."""

    label: str
    argv: tuple                              # arguments after `isf`
    check: Callable[[dict], Optional[str]]   # payload -> failure reason
    work: int                                # in the workload's unit
    pairs: int = 0                           # psi applications it must make


@dataclass(frozen=True)
class Workload:
    name: str
    unit: str                                # what Job.work counts
    build: Callable[[int, Path], list]       # (seed, input dir) -> jobs


# Start-up probe: the cheapest command, so its time is interpreter start,
# `import isf` and argparse.
PROBE_ARGV = ("phi", "--ground", "1,2,3", "--subset", "1")


def check_probe(payload: dict):
    want = o.bracket_successor([1, 2, 3], {1})
    return None if payload == {"image": want} else f"phi image {payload}, want {want}"


def seeded_graph(rng: random.Random, degrees) -> dict:
    """Vertex j gets degrees[j-1] smaller neighbours drawn from rng."""
    edges = []
    for j, d in enumerate(degrees, start=1):
        edges += [[i, j] for i in sorted(rng.sample(range(1, j), d))]
    graph = {"n": len(degrees), "edges": sorted(edges)}
    if o.lower_degrees(graph) != list(degrees):
        raise RuntimeError(f"generated graph has degrees {o.lower_degrees(graph)}")
    return graph


def _fixed_size(what: str, got: int, want: int) -> int:
    if got != want:
        raise RuntimeError(f"{what}: formula gives {got}, workload fixes {want}")
    return got


def _write(inputs: Path, name: str, graph: dict) -> str:
    path = inputs / f"{name}.json"
    path.write_text(json.dumps(graph, sort_keys=True))
    return str(path)


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}/{seed}")


# --- psi-verify -----------------------------------------------------------

PSI_DEGREES = (0, 1, 1, 2, 2, 2, 2, 2)


def _check_verify(pairs: int, payload: dict):
    r = payload["report"]
    want = {"total_pairs": pairs, "injective": True, "local": True,
            "weight_preserving": True, "collisions": []}
    return None if r == want else f"verify report {r}, want {want}"


def build_psi_verify(seed: int, inputs: Path) -> list:
    rng = _rng("psi-verify", seed)
    jobs = []
    for label, graph, k, l, size in (
        ("verify-psi-K6-k2-l4", o.complete_graph(6), 2, 4, 23290),
        ("verify-psi-seeded-n8-k1-l3", seeded_graph(rng, PSI_DEGREES), 1, 3, 8704),
    ):
        counts = o.isf_counts(o.lower_degrees(graph))
        pairs = _fixed_size(label, counts[k] * counts[l], size)
        argv = ("verify", "psi", "--graph", _write(inputs, label, graph),
                "--k", str(k), "--l", str(l))
        jobs.append(Job(label, argv, lambda p, n=pairs: _check_verify(n, p),
                        work=pairs, pairs=pairs))
    return jobs


# --- count ----------------------------------------------------------------

PEO_DEGREES = (0, 1, 2, 3, 3, 3, 3)


def _check_stirling(n: int, payload: dict):
    row = o.stirling_row(n)
    want = {"n": n, "unsigned": row,
            "signed": [(-1) ** (n - k) * c for k, c in enumerate(row)]}
    return None if payload == want else f"stirling row {payload}, want {want}"


def _check_logconcavity(payload: dict):
    want = {"is_nonneg": True, "witness": None}
    return None if payload == want else f"log-concavity {payload}, want {want}"


def _check_factorization(graph: dict, payload: dict):
    if not payload["equal"] or payload["lhs"] != payload["rhs"]:
        return "factorization reported unequal sides"
    return o.check_tpoly(graph, payload["lhs"])


def _check_peo(graph: dict, payload: dict):
    if payload["holds"] != o.is_peo(graph):
        return f"peo holds={payload['holds']}, oracle says {o.is_peo(graph)}"
    counts = o.isf_counts(o.lower_degrees(graph))
    if payload["lhs"]["coeffs"] != counts:
        return f"ISF(1, t) = {payload['lhs']['coeffs']}, formula gives {counts}"
    if (payload["rhs"] == payload["lhs"]) != payload["holds"]:
        return "peo verdict disagrees with its own two sides"
    return None


def build_count(seed: int, inputs: Path) -> list:
    rng = _rng("count", seed)
    k6 = o.complete_graph(6)
    k6_path = _write(inputs, "K6", k6)
    peo = seeded_graph(rng, PEO_DEGREES)
    peo_work = _fixed_size("peo", o.forests_built(PEO_DEGREES), 1536)
    k6_work = o.forests_built(o.lower_degrees(k6))
    return [
        Job("stirling-row-8", ("stirling", "row", "--n", "8"),
            lambda p: _check_stirling(8, p), work=o.forests_built(range(8))),
        Job("logconcavity-K6-2-3",
            ("check", "logconcavity", "--graph", k6_path, "--p", "2", "--q", "3"),
            _check_logconcavity, work=k6_work),
        Job("logconcavity-K6-3-4",
            ("check", "logconcavity", "--graph", k6_path, "--p", "3", "--q", "4"),
            _check_logconcavity, work=k6_work),
        Job("factorization-K6", ("check", "factorization", "--graph", k6_path),
            lambda p: _check_factorization(k6, p), work=k6_work),
        Job("peo-seeded-n7",
            ("check", "peo", "--graph", _write(inputs, "peo-n7", peo)),
            lambda p: _check_peo(peo, p), work=peo_work),
    ]


# --- emit -----------------------------------------------------------------

EMIT_DEGREES = (0, 1, 1, 2, 2, 2, 3, 3, 3, 3)


def build_emit(seed: int, inputs: Path) -> list:
    rng = _rng("emit", seed)
    k8, k7 = o.complete_graph(8), o.complete_graph(7)
    seeded = seeded_graph(rng, EMIT_DEGREES)
    jobs = []
    for label, graph, k, size in (
        ("enumerate-K8-c2", k8, 2, 13068),
        ("enumerate-seeded-n10-c3", seeded, 3, 6534),
    ):
        count = _fixed_size(label, o.isf_counts(o.lower_degrees(graph))[k], size)
        argv = ("enumerate", "--graph", _write(inputs, label, graph),
                "--components", str(k))
        jobs.append(Job(
            label, argv,
            lambda p, g=graph, k=k: o.check_forest_list(g, p["forests"], k),
            work=count,
        ))
    jobs.append(Job("poly-K7", ("poly", "--graph", _write(inputs, "K7", k7)),
                    lambda p: o.check_tpoly(k7, p["tpoly"]),
                    work=o.forests_built(o.lower_degrees(k7))))
    return jobs


# --- chromatic ------------------------------------------------------------

G33 = {"n": 4, "edges": [[1, 4], [2, 3], [2, 4], [3, 4]]}
# The paper's pair of admissible forests of G33 with no movable edge.
G33_PAPER_PAIR = [{"n": 4, "edges": [[1, 4], [2, 4], [3, 4]]},
                  {"n": 4, "edges": [[2, 3], [3, 4]]}]


def _check_chromatic(coeffs: list, payload: dict):
    got = payload["poly"]["coeffs"]
    return None if got == coeffs else f"P(t) = {got}, want {coeffs}"


def _check_whitney(coeffs: list, payload: dict):
    want = [abs(c) for c in coeffs]
    if not payload["equal"] or payload["counts"] != want or payload["coeffs"] != want:
        return f"whitney {payload}, want counts = coeffs = {want}"
    return None


def _check_movable(all_ok: bool, payload: dict, must_fail=None):
    if payload["all_pairs_ok"] != all_ok or (not payload["failures"]) != all_ok:
        return f"all_pairs_ok={payload['all_pairs_ok']}, want {all_ok}"
    if must_fail is not None and must_fail not in payload["failures"]:
        return "the paper's pair is missing from the failures"
    return None


def build_chromatic(seed: int, inputs: Path) -> list:
    rng = _rng("chromatic", seed)
    band22 = o.band_graph(22, 2)
    band8 = o.band_graph(8, 3)
    # Relabeling changes deletion-contraction's pivots, not the counts.
    petersen = o.relabel(o.petersen_graph(), rng.sample(range(1, 11), 10))
    g33 = _write(inputs, "G33", G33)
    return [
        Job("chromatic-band22-w2",
            ("chromatic", "--graph", _write(inputs, "band22", band22)),
            lambda p: _check_chromatic(o.chordal_band_chromatic(22, 2), p), work=1),
        Job("whitney-petersen-seeded",
            ("check", "whitney", "--graph", _write(inputs, "petersen", petersen)),
            lambda p: _check_whitney(o.PETERSEN_CHROMATIC, p), work=1),
        Job("whitney-max-band8-w3",
            ("check", "whitney", "--graph", _write(inputs, "band8", band8),
             "--convention", "max"),
            lambda p: _check_whitney(o.chordal_band_chromatic(8, 3), p), work=1),
        # Pinned verdict: every admissible pair of K5 has a movable edge.
        Job("movable-K5",
            ("search-movable", "--graph", _write(inputs, "K5", o.complete_graph(5))),
            lambda p: _check_movable(True, p), work=1),
        Job("movable-G33", ("search-movable", "--graph", g33),
            lambda p: _check_movable(False, p, G33_PAPER_PAIR), work=1),
        Job("movable-G33-relabeled",
            ("search-movable", "--graph", g33, "--relabel", "1,3,4,2"),
            lambda p: _check_movable(True, p), work=1),
    ]


WORKLOADS = {
    w.name: w for w in (
        Workload("psi-verify", "pairs", build_psi_verify),
        Workload("count", "forests", build_count),
        Workload("emit", "forests", build_emit),
        Workload("chromatic", "jobs", build_chromatic),
    )
}
