"""Chromatic polynomials, broken circuits, and good-vertex admissibility.

Edges (i, j) with i < j are ordered lexicographically.  A broken circuit
is a circuit minus its extremal edge in that order; both the remove-min
convention (the classical one) and remove-max are implemented because the
two disagree on individual forests while producing the same per-component
counts.  The good-vertex predicate is the rooted-forest reformulation of
admissibility, and is the notion used by the movable-edge search.

Everything here is exact and sized for exhaustive checks on small graphs.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from typing import NamedTuple

from .errors import InputError, NotInGraph
from .graphs import Forest, OrderedGraph, UnionFind, orient
from .enumeration import isf_counts


class BrokenCircuitConvention(Enum):
    REMOVE_MIN = "remove_min"
    REMOVE_MAX = "remove_max"

    @classmethod
    def parse(cls, value) -> "BrokenCircuitConvention":
        if isinstance(value, cls):
            return value
        aliases = {
            "min": cls.REMOVE_MIN, "remove_min": cls.REMOVE_MIN,
            "max": cls.REMOVE_MAX, "remove_max": cls.REMOVE_MAX,
        }
        try:
            return aliases[value]
        except KeyError:
            raise InputError(f"unknown convention {value!r}") from None


@dataclass(frozen=True)
class IntPoly:
    """Univariate integer polynomial in t, coeffs[k] = coefficient of t^k."""

    coeffs: tuple = ()

    def __post_init__(self):
        coeffs = tuple(self.coeffs)
        while coeffs and coeffs[-1] == 0:
            coeffs = coeffs[:-1]
        object.__setattr__(self, "coeffs", coeffs)

    @classmethod
    def t_power(cls, m: int) -> "IntPoly":
        return cls((0,) * m + (1,))

    def __add__(self, other: "IntPoly") -> "IntPoly":
        size = max(len(self.coeffs), len(other.coeffs))
        return IntPoly(
            tuple(
                (self.coeffs[i] if i < len(self.coeffs) else 0)
                + (other.coeffs[i] if i < len(other.coeffs) else 0)
                for i in range(size)
            )
        )

    def __neg__(self) -> "IntPoly":
        return IntPoly(tuple(-c for c in self.coeffs))

    def __sub__(self, other: "IntPoly") -> "IntPoly":
        return self + (-other)

    def coefficient(self, k: int) -> int:
        return self.coeffs[k] if k < len(self.coeffs) else 0

    def reflected(self, n: int) -> "IntPoly":
        """(-1)^n * P(-t)."""
        return IntPoly(
            tuple((-1) ** (n + k) * c for k, c in enumerate(self.coeffs))
        )

    def to_json(self) -> dict:
        return {"coeffs": list(self.coeffs)}


def circuits(g: OrderedGraph) -> list:
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


def broken_circuits(g: OrderedGraph, convention) -> list:
    """Each circuit minus its extremal edge under the lexicographic order."""
    convention = BrokenCircuitConvention.parse(convention)
    out = set()
    for circuit in circuits(g):
        edge = (
            min(circuit) if convention is BrokenCircuitConvention.REMOVE_MIN
            else max(circuit)
        )
        out.add(circuit - {edge})
    return sorted(out, key=lambda c: (len(c), sorted(c)))


def is_nbc(g: OrderedGraph, f: Forest, convention) -> bool:
    """True iff f contains no broken circuit of g under the convention."""
    _check_in_graph(g, f)
    return not any(bc <= f.edges for bc in broken_circuits(g, convention))


def _check_in_graph(g: OrderedGraph, f: Forest):
    if f.n != g.n:
        raise NotInGraph(f"forest has n={f.n}, graph has n={g.n}")
    extra = f.edges - g.edges
    if extra:
        raise NotInGraph(f"forest uses non-graph edges {sorted(extra)}")


def is_admissible_goodvertex(g: OrderedGraph, f: Forest) -> bool:
    """All vertices good: each child w is the smallest element of its
    branch B(w) adjacent to its parent in g."""
    _check_in_graph(g, f)
    o = orient(f)
    for v in range(1, g.n + 1):
        nbrs = g.neighbors(v)
        for w in o.children.get(v, ()):
            candidates = [u for u in o.branch(w) if u in nbrs]
            if min(candidates) != w:
                return False
    return True


def spanning_forests(g: OrderedGraph) -> list:
    """All acyclic edge subsets of g, spanning by convention."""
    edges = sorted(g.edges)
    out = []

    def extend(idx: int, chosen: tuple, uf_state: list):
        if idx == len(edges):
            out.append(Forest(g.n, frozenset(chosen)))
            return
        extend(idx + 1, chosen, uf_state)
        uf = UnionFind(g.n)
        uf.parent = list(uf_state)
        i, j = edges[idx]
        if uf.union(i, j):
            extend(idx + 1, chosen + (edges[idx],), uf.parent)

    uf0 = UnionFind(g.n)
    extend(0, (), uf0.parent)
    return sorted(out, key=Forest.sort_key)


@lru_cache(maxsize=None)
def chromatic_polynomial(g: OrderedGraph, pivot: str = "first") -> IntPoly:
    """Exact chromatic polynomial by deletion-contraction.

    pivot selects the first or last edge in lexicographic order; the result
    must not depend on this choice.
    """
    if not g.edges:
        return IntPoly.t_power(g.n)
    order = g.sorted_edges
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
    return (
        chromatic_polynomial(deleted, pivot)
        - chromatic_polynomial(contracted, pivot)
    )


class WhitneyReport(NamedTuple):
    counts: list
    coeffs: list
    equal: bool


def whitney_check(g: OrderedGraph, convention) -> WhitneyReport:
    """Compare NBC forest counts per component number against the absolute
    values of the chromatic polynomial coefficients."""
    convention = BrokenCircuitConvention.parse(convention)
    counts = [0] * (g.n + 1)
    bcs = broken_circuits(g, convention)
    for f in spanning_forests(g):
        if not any(bc <= f.edges for bc in bcs):
            counts[f.component_count()] += 1
    p = chromatic_polynomial(g)
    coeffs = [abs(p.coefficient(k)) for k in range(g.n + 1)]
    return WhitneyReport(counts, coeffs, counts == coeffs)


class MovableSearchReport(NamedTuple):
    all_pairs_ok: bool
    failures: list  # (A, B) pairs with no movable edge

    def to_json(self) -> dict:
        return {
            "all_pairs_ok": self.all_pairs_ok,
            "failures": [
                [a.to_json(), b.to_json()] for (a, b) in self.failures
            ],
        }


def apply_relabeling(g: OrderedGraph, perm) -> OrderedGraph:
    """Relabel vertices: perm[v-1] is the new label of vertex v."""
    perm = list(perm)
    if sorted(perm) != list(range(1, g.n + 1)):
        raise InputError(f"relabeling {perm!r} is not a permutation of 1..{g.n}")
    mapped = frozenset(
        (min(perm[i - 1], perm[j - 1]), max(perm[i - 1], perm[j - 1]))
        for (i, j) in g.edges
    )
    return OrderedGraph(g.n, mapped)


def movable_edge_search(g: OrderedGraph, relabeling=None) -> MovableSearchReport:
    """Search every admissible pair (A, B), components(A) < components(B),
    for an edge of A \\ B whose move keeps both forests admissible."""
    if relabeling is not None:
        g = apply_relabeling(g, relabeling)
    admissible = [
        f for f in spanning_forests(g) if is_admissible_goodvertex(g, f)
    ]
    failures = []
    for a in admissible:
        for b in admissible:
            if a.component_count() >= b.component_count():
                continue
            if not _has_movable_edge(g, a, b):
                failures.append((a, b))
    return MovableSearchReport(not failures, failures)


def _has_movable_edge(g: OrderedGraph, a: Forest, b: Forest) -> bool:
    for e in sorted(a.edges - b.edges):
        uf = UnionFind(g.n)
        for edge in b.edges:
            uf.union(*edge)
        if not uf.union(*e):
            continue  # adding e to B closes a circuit
        a_out = Forest(g.n, a.edges - {e})
        b_out = Forest(g.n, b.edges | {e})
        if is_admissible_goodvertex(g, a_out) and is_admissible_goodvertex(g, b_out):
            return True
    return False


class PeoReport(NamedTuple):
    holds: bool
    lhs: IntPoly
    rhs: IntPoly


def peo_isf_check(g: OrderedGraph) -> PeoReport:
    """Compare the increasing-forest polynomial at x = 1 with the sign-
    corrected chromatic polynomial (-1)^n P(-t).

    The two are equal iff the natural vertex order is a perfect
    elimination order of g.  For a tree this means every j >= 2 has
    exactly one smaller neighbour.  The left side is counted through the
    factorization, prod_j (t + d_j); the right side is deletion-contraction,
    which knows nothing of it, so the two sides stay independent.
    """
    lhs = IntPoly(isf_counts(g))
    rhs = chromatic_polynomial(g).reflected(g.n)
    return PeoReport(lhs == rhs, lhs, rhs)


def has_perfect_elimination_order(g: OrderedGraph) -> bool:
    """True iff for every vertex its smaller neighbors form a clique."""
    for j in range(1, g.n + 1):
        smaller = g.smaller_neighbors(j)
        for x in range(len(smaller)):
            for y in range(x + 1, len(smaller)):
                if (smaller[x], smaller[y]) not in g.edges:
                    return False
    return True
