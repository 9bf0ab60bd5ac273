import os
import re
import subprocess
import sys
from dataclasses import fields
from pathlib import Path
from random import Random

import pytest

import isf
from isf import (
    Forest,
    InputError,
    InvariantViolation,
    NotIncreasing,
    NotInGraph,
    OrderedGraph,
    SizeViolation,
    complete_graph,
    component_minima,
    enumerate_if,
    is_increasing,
    phi,
    phi_reversed,
    psi,
    select_j,
    verify_psi,
)
from conftest import edge_set_psi, random_graph, reference_parent

K2 = complete_graph(2)
K3 = complete_graph(3)
K4 = complete_graph(4)


def test_select_j_examples():
    assert select_j({1}, {1, 2, 3}) == 3
    assert select_j({1, 4}, {1, 2, 3}) == 3
    assert select_j(set(), {1}) == 1
    with pytest.raises(SizeViolation):
        select_j({1, 2}, {1, 2})


def test_psi_k3_hand_traces():
    a = Forest(3, frozenset({(1, 2), (1, 3)}))
    tr = psi(K3, a, Forest(3))
    assert tr.j == 3 and tr.e == (1, 3)
    assert tr.A_out.edges == frozenset({(1, 2)})
    assert tr.B_out.edges == frozenset({(1, 3)})

    a = Forest(3, frozenset({(1, 2), (2, 3)}))
    tr = psi(K3, a, Forest(3))
    assert tr.j == 3 and tr.e == (2, 3)
    assert tr.A_out.edges == frozenset({(1, 2)})
    assert tr.B_out.edges == frozenset({(2, 3)})


def test_psi_bijective_swap_case():
    tr = psi(K2, Forest(2, frozenset({(1, 2)})), Forest(2))
    assert tr.j == 2 and tr.e == (1, 2)
    assert tr.A_out.edges == frozenset()
    assert tr.B_out.edges == frozenset({(1, 2)})


def test_psi_trace_fields():
    a = Forest(3, frozenset({(1, 2), (1, 3)}))
    tr = psi(K3, a, Forest(3))
    assert tr.mA == frozenset({1}) and tr.mB == frozenset({1, 2, 3})
    assert tr.sym_diff == frozenset({2, 3})
    assert tr.A_comp == frozenset({1, 2, 3})
    assert tr.B_comp == frozenset({3})
    assert tr.i0 == 1


def test_psi_preconditions():
    with pytest.raises(SizeViolation):
        psi(K3, Forest(3), Forest(3))
    with pytest.raises(NotIncreasing):
        psi(
            complete_graph(4),
            Forest(4, frozenset({(1, 4), (2, 4), (3, 4)})),
            Forest(4),
        )
    with pytest.raises(NotInGraph):
        psi(
            OrderedGraph(3, frozenset({(1, 2)})),
            Forest(3, frozenset({(1, 3)})),
            Forest(3),
        )


def test_psi_last_edge_matches_path_oracle():
    # trace.e must be the last edge on the path from i0 to j inside A
    for k in range(1, 4):
        for l in range(k + 1, 5):
            for a in enumerate_if(K4, k):
                for b in enumerate_if(K4, l):
                    tr = psi(K4, a, b)
                    parent = reference_parent(a)
                    path = [tr.j]
                    while path[-1] != tr.i0:
                        path.append(parent[path[-1]])
                    assert tr.e == (path[1], path[0])


def test_minima_bookkeeping():
    for a in enumerate_if(K4, 1):
        for b in enumerate_if(K4, 3):
            tr = psi(K4, a, b)
            ma, mb = component_minima(a), component_minima(b)
            assert component_minima(tr.A_out) == ma | {tr.j}
            assert component_minima(tr.B_out) == mb - {tr.j}
            # unions / intersections / symmetric differences preserved
            assert (ma | {tr.j}) | (mb - {tr.j}) == ma | mb
            assert (ma | {tr.j}) & (mb - {tr.j}) == ma & mb
            assert (ma | {tr.j}) ^ (mb - {tr.j}) == ma ^ mb


def test_verify_psi_k4():
    rep = verify_psi(K4, 1, 2)
    assert rep.total_pairs == 66
    assert rep.injective and rep.local and rep.weight_preserving
    assert rep.collisions == []


def test_verify_psi_silly_bijective_case():
    rep = verify_psi(K3, 2, 3)
    assert rep.total_pairs == 3
    assert rep.injective


def test_verify_psi_rejects_equal_counts():
    with pytest.raises(SizeViolation):
        verify_psi(K3, 2, 2)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_verify_psi_complete_graphs(n):
    g = complete_graph(n)
    for k in range(n):
        for l in range(k + 1, n + 1):
            rep = verify_psi(g, k, l)
            assert rep.injective and rep.local and rep.weight_preserving


def test_verify_psi_random_graphs():
    rng = Random(20260826)
    for _ in range(8):
        g = random_graph(rng, rng.randint(3, 6))
        for k in range(g.n):
            for l in range(k + 1, g.n + 1):
                rep = verify_psi(g, k, l)
                assert rep.injective and rep.local and rep.weight_preserving


def test_phi_independence_alternative_injection():
    # the same verdicts must hold when psi runs on the reversed-order
    # bracketing, certifying that only the injection axioms matter
    for n in [3, 4]:
        g = complete_graph(n)
        for k in range(n):
            for l in range(k + 1, n + 1):
                rep = verify_psi(g, k, l, successor=phi_reversed)
                assert rep.injective and rep.local and rep.weight_preserving


def test_outputs_increasing_and_counts_shift():
    for a in enumerate_if(K4, 2):
        for b in enumerate_if(K4, 4):
            tr = psi(K4, a, b)
            assert is_increasing(tr.A_out) and is_increasing(tr.B_out)
            assert tr.A_out.component_count() == 3
            assert tr.B_out.component_count() == 3


def _random_graphs():
    # the same seeded graphs as test_verify_psi_random_graphs
    rng = Random(20260826)
    return [random_graph(rng, rng.randint(3, 6)) for _ in range(8)]


@pytest.mark.parametrize("successor", [phi, phi_reversed])
def test_psi_matches_edge_set_oracle(successor):
    for g in [K4, *_random_graphs()]:
        for k in range(g.n):
            for l in range(k + 1, g.n + 1):
                for a in enumerate_if(g, k):
                    for b in enumerate_if(g, l):
                        tr = psi(g, a, b, successor=successor)
                        want = edge_set_psi(a, b, successor)
                        for f in fields(tr):
                            assert getattr(tr, f.name) == want[f.name], f.name
                        assert tr.A_out.parent == reference_parent(want["A_out"])
                        assert tr.B_out.parent == reference_parent(want["B_out"])


def _outside_successor(ground, subset):
    # violates the successor axioms: adds an element outside the ground set
    return frozenset(subset) | {max(ground) + 1}


def test_invariant_violation_on_bad_successor():
    a = Forest(3, frozenset({(1, 2), (1, 3)}))
    with pytest.raises(InvariantViolation, match="j in m"):
        psi(K3, a, Forest(3), successor=_outside_successor)
    with pytest.raises(InvariantViolation):
        psi(K3, a, Forest(3), successor=lambda ground, subset: frozenset(ground))
    assert not issubclass(InvariantViolation, InputError)


@pytest.mark.parametrize("claim, b_edges, a_cache, b_cache", [
    ("j = min of its component in B", (), {},
     {"components": (frozenset(),) + (frozenset({1, 2, 3}),) * 3}),
    ("e in A and e not in B", ((1, 3),), {},
     {"parent": (0, 0, 0, 0), "minima": frozenset({1, 2, 3})}),
    ("m(A') = m(A) + j", (), {"minima": frozenset({1, 2})}, {}),
    ("m(B') = m(B) - j", (), {},
     {"parent": (0, 0, 1, 0), "minima": frozenset({1, 2, 3})}),
])
def test_each_bookkeeping_check_fires(claim, b_edges, a_cache, b_cache):
    # With consistent forests these claims are theorems, so each is reached
    # by planting wrong rooted data in a forest's cache.
    a = Forest(3, frozenset({(1, 2), (1, 3)}))
    b = Forest(3, frozenset(b_edges))
    vars(a).update(a_cache)
    vars(b).update(b_cache)
    with pytest.raises(InvariantViolation, match=re.escape(claim)):
        psi(K3, a, b)


def test_invariant_violation_survives_optimize_flag():
    script = """
import sys
from isf import Forest, InvariantViolation, complete_graph, psi
if __debug__:
    sys.exit("asserts are still on")
a = Forest(3, frozenset({(1, 2), (1, 3)}))
try:
    psi(complete_graph(3), a, Forest(3),
        successor=lambda g, s: frozenset(s) | {max(g) + 1})
except InvariantViolation:
    print("raised")
"""
    src = str(Path(isf.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-O", "-c", script], capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=path), timeout=60,
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout == "raised\n"
