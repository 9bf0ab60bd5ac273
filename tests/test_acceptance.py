"""Acceptance criteria, one test per criterion.

Each test prints a single `[criterion N] ...: PASS/FAIL` line so the
verdicts can be read off a `pytest -s` run.  All checks are exact.
"""

import functools
from itertools import combinations
from math import factorial
from random import Random

import pytest

from isf import (
    Forest,
    OrderedGraph,
    Permutation,
    TPoly,
    complete_graph,
    forest_to_permutation,
    isf_factorization_check,
    movable_edge_search,
    peo_isf_check,
    permutation_to_forest,
    phi,
    phi_inverse,
    phi_reversed,
    stirling_row,
    strong_logconcavity_check,
    verify_psi,
    whitney_check,
)
from conftest import (
    all_edge_subsets,
    brute_force_cycle_counts,
    is_connected,
    random_graph,
)

F1 = Forest(9, frozenset({(1, 2), (1, 4), (4, 7), (4, 9), (3, 5), (3, 6), (6, 8)}))
RNG_SEED = 20260826


def _report(num, name):
    def decorator(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"[criterion {num}] {name}: FAIL")
                raise
            print(f"[criterion {num}] {name}: PASS")

        return wrapper

    return decorator


@_report(1, "worked-example fidelity")
def test_criterion_1_worked_example():
    perm = forest_to_permutation(F1)
    assert perm == Permutation(9, ((1, 4, 9, 7, 2), (3, 6, 8, 5)))
    assert permutation_to_forest(perm) == F1


def _random_graphs():
    rng = Random(RNG_SEED)
    return [random_graph(rng, rng.randint(2, 6)) for _ in range(20)]


def _verify_everywhere(successor):
    for n in (2, 3, 4, 5):
        g = complete_graph(n)
        for k in range(n):
            for l in range(k + 1, n + 1):
                rep = verify_psi(g, k, l, successor=successor)
                assert rep.injective and rep.local and rep.weight_preserving, (
                    n, k, l,
                )
    for g in _random_graphs():
        for k in range(g.n):
            for l in range(k + 1, g.n + 1):
                rep = verify_psi(g, k, l, successor=successor)
                assert rep.injective and rep.local and rep.weight_preserving, (
                    g.sort_key(), k, l,
                )


@_report(2, "edge-move injectivity and locality")
def test_criterion_2_psi_verification():
    _verify_everywhere(phi)


@_report(3, "factorization identity on all graphs with 5 vertices")
def test_criterion_3_factorization(graphs_on_5):
    for g in graphs_on_5:
        assert isf_factorization_check(g).equal, g.sort_key()


@_report(4, "strong coefficientwise log-concavity")
def test_criterion_4_logconcavity(graphs_on_5):
    for g in graphs_on_5:
        for p in range(1, g.n):
            for q in range(p, g.n):
                rep = strong_logconcavity_check(g, p, q)
                assert rep.is_nonneg, (g.sort_key(), p, q, rep.witness)


@_report(5, "Stirling rows against the factorial oracle")
def test_criterion_5_stirling_rows():
    assert stirling_row(0).unsigned == (1,)
    for n in range(1, 8):
        assert list(stirling_row(n).unsigned) == brute_force_cycle_counts(n)
    assert stirling_row(4).unsigned == (0, 6, 11, 6, 1)


@_report(6, "subset-injection axioms and inversion")
def test_criterion_6_phi_axioms():
    for m in range(0, 11):  # exhaustive
        ground = tuple(range(1, m + 1))
        for k in range((m + 1) // 2):
            images = set()
            for sub in combinations(ground, k):
                image = phi(ground, frozenset(sub))
                assert set(sub) < image and len(image) == k + 1
                assert image not in images
                images.add(image)
                assert phi_inverse(ground, image) == frozenset(sub)
    rng = Random(RNG_SEED)
    for m in (11, 12, 13, 14):  # sampled
        ground = tuple(range(1, m + 1))
        for _ in range(500):
            k = rng.randrange((m + 1) // 2)
            sub = frozenset(rng.sample(ground, k))
            image = phi(ground, sub)
            assert sub < image and len(image) == k + 1
            assert phi_inverse(ground, image) == sub


@_report(7, "movable-edge counterexample and relabeling")
def test_criterion_7_movable_search():
    g = OrderedGraph(4, frozenset({(1, 4), (2, 4), (2, 3), (3, 4)}))
    rep = movable_edge_search(g)
    assert not rep.all_pairs_ok
    pair = (
        Forest(4, frozenset({(1, 4), (2, 4), (3, 4)})),
        Forest(4, frozenset({(2, 3), (3, 4)})),
    )
    assert pair in rep.failures
    relabeled = OrderedGraph(4, frozenset({(1, 2), (2, 3), (2, 4), (3, 4)}))
    assert movable_edge_search(relabeled).all_pairs_ok


@_report(8, "Whitney coefficient counts")
def test_criterion_8_whitney(graphs_on_5):
    connected = [g for g in graphs_on_5 if is_connected(g)]
    for n in range(1, 5):
        connected.extend(g for g in all_edge_subsets(n) if is_connected(g))
    for g in connected:
        assert whitney_check(g, "min").equal, g.sort_key()
        assert whitney_check(g, "max").equal, g.sort_key()
    g33 = OrderedGraph(4, frozenset({(1, 4), (2, 4), (2, 3), (3, 4)}))
    assert whitney_check(g33, "min").counts == [0, 2, 5, 4, 1]


def _all_labeled_trees(n):
    """Every labeled tree on [n], decoded from Prufer sequences."""
    import heapq
    from itertools import product

    if n == 1:
        yield OrderedGraph(1)
        return
    if n == 2:
        yield OrderedGraph(2, frozenset({(1, 2)}))
        return
    for seq in product(range(1, n + 1), repeat=n - 2):
        deg = [1] * (n + 1)
        for v in seq:
            deg[v] += 1
        leaves = [u for u in range(1, n + 1) if deg[u] == 1]
        heapq.heapify(leaves)
        edges = []
        for v in seq:
            leaf = heapq.heappop(leaves)
            edges.append((min(leaf, v), max(leaf, v)))
            deg[v] -= 1
            if deg[v] == 1:
                heapq.heappush(leaves, v)
        u = heapq.heappop(leaves)
        w = heapq.heappop(leaves)
        edges.append((min(u, w), max(u, w)))
        yield OrderedGraph(n, frozenset(edges))


@_report(9, "perfect-elimination identity")
def test_criterion_9_peo():
    for n in range(2, 7):
        assert peo_isf_check(complete_graph(n)).holds
    c4 = OrderedGraph(4, frozenset({(1, 2), (2, 3), (3, 4), (1, 4)}))
    c5 = OrderedGraph(5, frozenset({(1, 2), (2, 3), (3, 4), (4, 5), (1, 5)}))
    assert not peo_isf_check(c4).holds
    assert not peo_isf_check(c5).holds
    # trees: ISF(T; 1, t) = prod_j (t + d_j), d_j = #smaller neighbours of j,
    # sum d_j = n - 1 and d_1 = 0, while (-1)^n P_T(-t) = t(t + 1)^(n - 1); so
    # the identity holds iff every j >= 2 has d_j = 1 (a recursive tree), and
    # (n - 1)! of the n^(n - 2) labeled trees do.
    for n in range(1, 7):
        trees = list(_all_labeled_trees(n))
        assert len({tree.edges for tree in trees}) == len(trees) == n ** (n - 2)
        holding = 0
        for tree in trees:
            smaller = [0] * (n + 1)
            for _, j in tree.edges:
                smaller[j] += 1
            recursive = all(smaller[j] == 1 for j in range(2, n + 1))
            assert peo_isf_check(tree).holds == recursive, tree.sort_key()
            holding += recursive
        assert holding == factorial(n - 1)
    rep = peo_isf_check(OrderedGraph(3, frozenset({(1, 3), (2, 3)})))
    assert not rep.holds
    assert rep.lhs == TPoly((0, 0, 2, 1))
    assert rep.rhs == TPoly((0, 1, 2, 1))


@_report(10, "independence from the subset-injection instantiation")
def test_criterion_10_phi_independence():
    _verify_everywhere(phi_reversed)
