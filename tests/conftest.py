"""Shared oracles and graph generators for the test suite.

The oracles here deliberately take the slow road (generate-and-filter,
full factorial enumeration) so the fast implementations are checked
against genuinely independent computations.
"""

from collections import deque
from itertools import combinations, permutations

import pytest

from isf import (
    Forest, MultiPoly, OrderedGraph, a_poly, enumerate_if, is_increasing,
)
from isf.graphs import UnionFind


def all_edge_subsets(n):
    """Every simple graph on 1..n, as OrderedGraph values."""
    all_edges = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    for r in range(len(all_edges) + 1):
        for sub in combinations(all_edges, r):
            yield OrderedGraph(n, frozenset(sub))


def acyclic_subsets(g):
    """All spanning forests of g by brute force over edge subsets."""
    edges = sorted(g.edges)
    out = []
    for r in range(len(edges) + 1):
        for sub in combinations(edges, r):
            uf = UnionFind(g.n)
            if all(uf.union(i, j) for (i, j) in sub):
                out.append(Forest(g.n, frozenset(sub)))
    return out


def brute_force_increasing_forests(g, k):
    """Generate-and-filter oracle for the increasing forest enumeration."""
    return sorted(
        (
            f for f in acyclic_subsets(g)
            if f.component_count() == k and is_increasing(f)
        ),
        key=Forest.sort_key,
    )


def enumerative_counts(g):
    """|IF_k| for k = 0..n, by building every increasing forest."""
    return tuple(len(enumerate_if(g, k)) for k in range(g.n + 1))


def x_logconcavity_difference(g, p, q):
    """a_p*a_q - a_{p-1}*a_{q+1} in the edge variables, from enumeration."""
    return a_poly(g, p) * a_poly(g, q) - a_poly(g, p - 1) * a_poly(g, q + 1)


def y_substituted(g, ypoly):
    """ypoly with every y_j replaced by the sum of x_(i,j) over i < j in g."""
    y = {
        j: MultiPoly({((i, j),): 1 for i in g.smaller_neighbors(j)})
        for j in range(1, g.n + 1)
    }
    out = MultiPoly.zero()
    for m, c in ypoly.terms.items():
        term = MultiPoly.const(c)
        for j in m:
            term = term * y[j]
        out = out + term
    return out


def reference_component(f, v):
    """The vertex set of v's component, by BFS over f's edge list."""
    seen, queue = {v}, deque([v])
    while queue:
        u = queue.popleft()
        for i, j in f.edges:
            w = j if i == u else i if j == u else None
            if w is not None and w not in seen:
                seen.add(w)
                queue.append(w)
    return frozenset(seen)


def reference_parent(f):
    """Parent vector with every component rooted at its minimum (0 = root).

    Finds each component by BFS over the edge list, then walks outwards
    from its minimum, again by BFS over the edge list.
    """
    parent = [0] * (f.n + 1)
    for v in range(1, f.n + 1):
        root = min(reference_component(f, v))
        if root != v:
            continue
        seen, queue = {root}, deque([root])
        while queue:
            u = queue.popleft()
            for i, j in f.edges:
                w = j if i == u else i if j == u else None
                if w is not None and w not in seen:
                    seen.add(w)
                    parent[w] = u
                    queue.append(w)
    return tuple(parent)


def edge_set_psi(a, b, successor):
    """The edge-moving map computed on edge sets, as a dict of trace fields.

    Minima, components and the moved edge come from the BFS references
    above; the outputs are A minus e and B plus e, validated as Forests.
    """
    pa = reference_parent(a)
    m_a = frozenset(v for v in range(1, a.n + 1) if not pa[v])
    m_b = frozenset(v for v in range(1, b.n + 1) if not reference_parent(b)[v])
    (j,) = successor(m_a ^ m_b, m_a - m_b) - (m_a - m_b)
    a_comp = reference_component(a, j)
    e = (pa[j], j)
    return {
        "mA": m_a, "mB": m_b, "sym_diff": m_a ^ m_b, "j": j,
        "A_comp": a_comp, "B_comp": reference_component(b, j),
        "i0": min(a_comp), "e": e,
        "A_out": Forest(a.n, a.edges - {e}), "B_out": Forest(b.n, b.edges | {e}),
    }


def brute_force_cycle_counts(n):
    """counts[k] = number of permutations of [n] with k cycles."""
    counts = [0] * (n + 1)
    for perm in permutations(range(1, n + 1)):
        mapping = {i + 1: v for i, v in enumerate(perm)}
        seen, cycles = set(), 0
        for start in mapping:
            if start in seen:
                continue
            cycles += 1
            v = start
            while v not in seen:
                seen.add(v)
                v = mapping[v]
        counts[cycles] += 1
    return counts


def is_connected(g):
    uf = UnionFind(g.n)
    for i, j in g.edges:
        uf.union(i, j)
    return len({uf.find(v) for v in range(1, g.n + 1)}) <= 1


def random_graph(rng, n):
    all_edges = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    return OrderedGraph(
        n, frozenset(e for e in all_edges if rng.random() < 0.5)
    )


@pytest.fixture(scope="session")
def graphs_on_5():
    """All 1024 edge subsets of the complete graph on 5 vertices."""
    return list(all_edge_subsets(5))
