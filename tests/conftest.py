"""Shared oracles and graph generators for the test suite.

The oracles here deliberately take the slow road (generate-and-filter,
full factorial enumeration) so the fast implementations are checked
against genuinely independent computations.
"""

import signal
from collections import deque
from contextlib import contextmanager
from functools import lru_cache
from itertools import combinations, permutations

import pytest

from isf import (
    CyclicInput, Forest, InputError, MultiPoly, OrderedGraph,
    Permutation, TPoly, a_poly, broken_circuits, enumerate_if, spanning_forests,
)
from isf.chromatic import MovableSearchReport, WhitneyReport


@contextmanager
def time_limit(seconds):
    """Fail the test once the block has run for seconds, so a regression
    to a hang fails instead of stalling the suite.  The failure carries no
    traceback: rendering one from inside the interrupted frame can crash
    pytest with an INTERNALERROR."""
    def expire(signum, frame):
        pytest.fail(f"still running after {seconds} s", pytrace=False)
    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


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
            if reference_circuit_edge(g.n, sub) is None:
                out.append(Forest(g.n, frozenset(sub)))
    return out


def reference_circuit_edge(n, edges):
    """The first edge in sorted order that closes a circuit with the edges
    before it, or None if edges is a forest.  Components are tracked by
    relabeling a list here, with nothing from isf."""
    label = list(range(n + 1))
    for i, j in sorted(edges):
        if label[i] == label[j]:
            return (i, j)
        old = label[j]
        label = [label[i] if x == old else x for x in label]
    return None


def reference_validated_edges(n, edges, acyclic):
    """edges as a sorted tuple without repeats, each checked to be a pair
    of ints with 1 <= i < j <= n, with the classes and messages that
    OrderedGraph raises; if acyclic, the sorted list is also scanned for a
    circuit by `reference_circuit_edge`, whatever its larger endpoints.
    This is the two-pass validator that graphs and forests once used."""
    out = set()
    for e in edges:
        try:
            i, j = e
        except ValueError:
            raise InputError(f"malformed edge {tuple(e)!r}") from None
        except TypeError:  # not iterable at all
            raise InputError(f"malformed edge {e!r}") from None
        if type(i) is not int or type(j) is not int:
            raise InputError(f"malformed edge {(i, j)!r}")
        if not (1 <= i < j <= n):
            raise InputError(
                f"edge ({i},{j}) violates 1 <= i < j <= n with n={n}"
            )
        out.add((i, j))
    ordered = tuple(sorted(out))
    if acyclic and (e := reference_circuit_edge(n, ordered)) is not None:
        raise CyclicInput("edge ({},{}) closes a circuit".format(*e))
    return ordered


def brute_force_increasing_forests(g, k):
    """Generate-and-filter oracle for the increasing forest enumeration."""
    return sorted(
        (
            f for f in acyclic_subsets(g)
            if f.component_count() == k and f.increasing
        ),
        key=Forest.sort_key,
    )


def enumerative_counts(g):
    """|IF_k| for k = 0..n, by building every increasing forest."""
    return tuple(len(enumerate_if(g, k)) for k in range(g.n + 1))


def variable(v):
    """The polynomial x_v, for an index v or an edge (i, j)."""
    return MultiPoly({(v,): 1})


def elementary_symmetric(variables, r):
    """e_r in the given index variables: every r-subset's product, 0 if
    there is none."""
    return MultiPoly(dict.fromkeys(combinations(variables, r), 1))


def x_logconcavity_difference(g, p, q):
    """a_p*a_q - a_{p-1}*a_{q+1} in the edge variables, from enumeration."""
    return (a_poly(g, p) * a_poly(g, q)
            + MultiPoly.const(-1) * a_poly(g, p - 1) * a_poly(g, q + 1))


def _y_difference(g, p, q):
    """e_{n-p}*e_{n-q} - e_{n-p+1}*e_{n-q-1} in the index variables y_j, by
    multiplying out every monomial of each e_r over the j with d_j >= 1."""
    js = sorted({j for _, j in g.edges})
    e = lambda r: elementary_symmetric(js, r)
    n = g.n
    return (e(n - p) * e(n - q)
            + MultiPoly.const(-1) * e(n - p + 1) * e(n - q - 1))


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


def union_find_components(n, edges):
    """components[v] is the vertex set of v's component among 1..n, joined
    by union-find over the edge pairs; index 0 is empty."""
    leader = list(range(n + 1))

    def find(v):
        while leader[v] != v:
            leader[v] = leader[leader[v]]
            v = leader[v]
        return v

    for i, j in edges:
        leader[find(i)] = find(j)
    groups = {}
    for v in range(1, n + 1):
        groups.setdefault(find(v), set()).add(v)
    return (frozenset(),) + tuple(frozenset(groups[find(v)])
                                  for v in range(1, n + 1))


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


def reference_branch(parent, w):
    """B(w): every vertex whose walk up the parent vector meets w."""
    out = set()
    for u in range(1, len(parent)):
        v = u
        while v and v != w:
            v = parent[v]
        if v == w:
            out.add(u)
    return frozenset(out)


def max_outside(ground, subset):
    """A successor that is not injective: it always adds the largest element
    outside the subset, so verify_psi finds collisions."""
    return frozenset(subset) | {max(frozenset(ground) - frozenset(subset))}


def edge_set_psi(a, b, successor):
    """The edge-moving map computed on edge sets, as a dict of trace fields.

    Minima, components and the moved edge come from the BFS references
    above; the outputs are A minus e and B plus e, validated as Forests,
    and their parent vectors come from the BFS rooting of those Forests.
    """
    pa = reference_parent(a)
    m_a = frozenset(v for v in range(1, a.n + 1) if not pa[v])
    m_b = frozenset(v for v in range(1, b.n + 1) if not reference_parent(b)[v])
    (j,) = successor(m_a ^ m_b, m_a - m_b) - (m_a - m_b)
    a_comp = reference_component(a, j)
    e = (pa[j], j)
    a_out, b_out = Forest(a.n, a.edges - {e}), Forest(b.n, b.edges | {e})
    return {
        "mA": m_a, "mB": m_b, "sym_diff": m_a ^ m_b, "j": j,
        "A_comp": a_comp, "B_comp": reference_component(b, j),
        "i0": min(a_comp), "e": e, "A_out": a_out, "B_out": b_out,
        "A_out_parent": reference_parent(a_out),
        "B_out_parent": reference_parent(b_out),
    }


def edge_set_verdicts(a, b, tr):
    """(local, weight_preserving) of one psi trace for the pair (a, b), on
    edge sets: e leaves A and joins B, and the sorted edge lists of the
    pair agree before and after."""
    e = tr.e
    local = (
        e in a.edges and e not in b.edges
        and tr.A_out.edges == a.edges - {e} and tr.B_out.edges == b.edges | {e}
    )
    before = sorted([*a.edges, *b.edges])
    after = sorted([*tr.A_out.edges, *tr.B_out.edges])
    return local, before == after


def _subtract(p, q):
    """p - q for int TPolys, coefficientwise on zero-padded tuples."""
    size = max(len(p.coeffs), len(q.coeffs))
    pad = lambda c: c + (0,) * (size - len(c))
    return TPoly(tuple(a - b for a, b in zip(pad(p.coeffs), pad(q.coeffs))))


@lru_cache(maxsize=None)
def reference_chromatic_polynomial(g, pivot="first"):
    """Deletion-contraction that builds a validated OrderedGraph at every
    node and memoizes across calls."""
    if not g.edges:
        return TPoly((0,) * g.n + (1,))
    order = g.sort_key()
    e = order[0] if pivot == "first" else order[-1]
    i, j = e
    deleted = OrderedGraph(g.n, g.edges - {e})
    # contract j into i, relabel vertices above j down by one
    relabel = lambda v: i if v == j else (v - 1 if v > j else v)
    contracted_edges = set()
    for a, b in g.edges - {e}:
        a2, b2 = relabel(a), relabel(b)
        if a2 != b2:
            contracted_edges.add((min(a2, b2), max(a2, b2)))
    contracted = OrderedGraph(g.n - 1, frozenset(contracted_edges))
    return _subtract(
        reference_chromatic_polynomial(deleted, pivot),
        reference_chromatic_polynomial(contracted, pivot),
    )


def reference_circuits(g):
    """All circuits of g as edge sets, sorted by (size, edge list).

    For each edge (u, v), every simple path from u to v avoiding that edge
    closes a circuit; duplicates are removed.  Intended for desk-scale
    graphs only.
    """
    adj = {v: set() for v in range(1, g.n + 1)}
    for i, j in g.edges:
        adj[i].add(j)
        adj[j].add(i)
    found = set()
    for u, v in sorted(g.edges):
        # simple paths u -> v not using edge (u, v)
        stack = [(u, (u,), frozenset())]
        while stack:
            cur, path, used = stack.pop()
            for w in adj[cur]:
                if {cur, w} == {u, v}:
                    continue
                if w == v:
                    found.add(used | {(min(cur, w), max(cur, w)), (u, v)})
                elif w not in path:
                    stack.append(
                        (w, path + (w,), used | {(min(cur, w), max(cur, w))})
                    )
    return sorted(found, key=lambda c: (len(c), sorted(c)))


def reference_broken_circuits(g, convention):
    """Each circuit of `reference_circuits` minus its least ("min") or
    greatest ("max") edge, deduplicated and sorted by (size, edge list)."""
    extremal = {"min": min, "max": max}[convention]
    out = {c - {extremal(c)} for c in reference_circuits(g)}
    return sorted(out, key=lambda c: (len(c), sorted(c)))


def is_nbc(g, f, convention):
    """True iff f contains no broken circuit of g under the convention."""
    return not any(bc <= f.edges for bc in broken_circuits(g, convention))


def has_perfect_elimination_order(g):
    """True iff for every vertex its smaller neighbors form a clique."""
    return all(
        (x, y) in g.edges
        for j in range(1, g.n + 1)
        for x, y in combinations(g.smaller_neighbors(j), 2)
    )


def enumerative_whitney(g, convention):
    """Whitney report by testing every spanning forest against every
    broken circuit of the all-paths reference."""
    counts = [0] * (g.n + 1)
    bcs = reference_broken_circuits(g, convention)
    for f in spanning_forests(g):
        if not any(bc <= f.edges for bc in bcs):
            counts[f.component_count()] += 1
    p = reference_chromatic_polynomial(g)
    coeffs = [abs(p.coefficient(k)) for k in range(g.n + 1)]
    return WhitneyReport(counts, coeffs, counts == coeffs)


def orient_goodvertex(g, f):
    """Good-vertex admissibility from the BFS rooting and explicit branches:
    each child w is the smallest vertex of B(w) adjacent to its parent."""
    parent = reference_parent(f)
    for w in range(1, f.n + 1):
        v = parent[w]
        if not v:
            continue
        candidates = [
            u for u in reference_branch(parent, w)
            if (min(u, v), max(u, v)) in g.edges
        ]
        if min(candidates) != w:
            return False
    return True


def per_edge_movable_search(g):
    """Movable-edge search that rescans B plus each candidate edge for a
    circuit and validates both moved forests before testing them."""
    admissible = [f for f in spanning_forests(g) if orient_goodvertex(g, f)]

    def has_movable_edge(a, b):
        for e in sorted(a.edges - b.edges):
            if reference_circuit_edge(g.n, b.edges | {e}) is not None:
                continue
            a_out = Forest(g.n, a.edges - {e})
            b_out = Forest(g.n, b.edges | {e})
            if orient_goodvertex(g, a_out) and orient_goodvertex(g, b_out):
                return True
        return False

    failures = [
        (a, b) for a in admissible for b in admissible
        if a.component_count() < b.component_count()
        and not has_movable_edge(a, b)
    ]
    return MovableSearchReport(not failures, failures)


def band_graph(n, width):
    """Edges (i, j) with 0 < j - i <= width."""
    return OrderedGraph(n, frozenset(
        (i, j) for i in range(1, n + 1)
        for j in range(i + 1, min(n, i + width) + 1)
    ))


def petersen_graph():
    """Outer 5-cycle 1..5, spokes i -- i + 5, inner pentagram 6..10."""
    outer = [(i, i % 5 + 1) for i in range(1, 6)]
    spokes = [(i, i + 5) for i in range(1, 6)]
    inner = [(5 + i, 5 + (i + 1) % 5 + 1) for i in range(1, 6)]
    return OrderedGraph(10, frozenset(
        (min(e), max(e)) for e in outer + spokes + inner
    ))


def identity_permutation(n):
    """The permutation of [n] with n fixed points."""
    return Permutation(n, tuple((v,) for v in range(1, n + 1)))


def permutation_from_word(word):
    """The permutation i -> word[i - 1] of [n], n = len(word), in canonical
    cycle form: each cycle read from its minimum, cycles by minima."""
    cycles, seen = [], set()
    for start in range(1, len(word) + 1):  # each new start is its cycle's min
        cycle, v = [], start
        while v not in seen:
            seen.add(v)
            cycle.append(v)
            v = word[v - 1]
        if cycle:
            cycles.append(tuple(cycle))
    return Permutation(len(word), tuple(cycles))


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
    """True iff BFS over g's edge list from vertex 1 meets every vertex."""
    return not g.n or len(reference_component(g, 1)) == g.n


def random_graph(rng, n):
    all_edges = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    return OrderedGraph(
        n, frozenset(e for e in all_edges if rng.random() < 0.5)
    )


@pytest.fixture(scope="session")
def graphs_on_5():
    """All 1024 edge subsets of the complete graph on 5 vertices."""
    return list(all_edge_subsets(5))
