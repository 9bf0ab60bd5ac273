"""Chromatic polynomials, broken circuits, and good-vertex admissibility.

Edges (i, j) with i < j are ordered lexicographically.  A broken circuit
is a circuit minus its extremal edge in that order; both the remove-min
convention (the classical one) and remove-max are implemented because the
two disagree on individual forests while producing the same per-component
counts.  The good-vertex predicate is the rooted-forest reformulation of
admissibility, and is the notion used by the movable-edge search.

The hot paths work on raw edge sets and parent vectors; validated graphs
and forests appear only at their inputs and outputs.  The chromatic
polynomial is a frontier DP over the vertex order (Noble, CPC 1998, for
bounded tree-width): it reads only adjacency and never recurses.
Whitney's NBC forests are counted in one pass over the ordered edges, on
the component labels of the forests so far: an edge whose ends are already
joined is externally active, so those forests hold a broken circuit and
are dropped, and no circuit is ever listed.  Spanning forests are grown on
the same labels.  Admissibility is read off the minima-rooted parent vector.

Everything here is exact and sized for exhaustive checks on small graphs.
"""

from __future__ import annotations

from enum import Enum
from functools import lru_cache
from operator import add

from .errors import InputError
from .graphs import Forest, OrderedGraph, Record, _check_forest_in_graph, _joined
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
        except (KeyError, TypeError):  # TypeError: unhashable, e.g. a list
            raise InputError(f"unknown convention {value!r}") from None


class IntPoly(Record):
    """Univariate integer polynomial in t, coeffs[k] = coefficient of t^k."""

    _fields = ("coeffs",)

    def __init__(self, coeffs=()):
        coeffs = tuple(coeffs)
        while coeffs and coeffs[-1] == 0:
            coeffs = coeffs[:-1]
        object.__setattr__(self, "coeffs", coeffs)

    def coefficient(self, k: int) -> int:
        return self.coeffs[k] if k < len(self.coeffs) else 0

    def reflected(self, n: int) -> "IntPoly":
        """(-1)^n * P(-t)."""
        return IntPoly(
            tuple((-1) ** (n + k) * c for k, c in enumerate(self.coeffs))
        )


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


def is_admissible_goodvertex(g: OrderedGraph, f: Forest) -> bool:
    """All vertices good: each child w is the smallest element of its
    branch B(w) adjacent to its parent in g."""
    _check_forest_in_graph(g, f, "forest")
    return _all_vertices_good(f.parent, _neighbor_sets(g))


def _neighbor_sets(g: OrderedGraph) -> list:
    nbrs = [set() for _ in range(g.n + 1)]
    for i, j in g.edges:
        nbrs[i].add(j)
        nbrs[j].add(i)
    return nbrs


def _all_vertices_good(parent: tuple, nbrs: list) -> bool:
    """No u < w in a branch B(w) is adjacent to parent(w).

    parent is the minima-rooted parent vector of a forest inside the graph
    whose neighbor sets are nbrs, so w itself is adjacent to parent(w), and
    u lies in B(w) exactly when w is u or one of its non-root ancestors.
    """
    for u in range(1, len(parent)):
        w = u
        while parent[w]:
            if u < w and parent[w] in nbrs[u]:
                return False
            w = parent[w]
    return True


def spanning_forests(g: OrderedGraph) -> list:
    """All acyclic edge subsets of g, spanning by convention, grown edge
    by edge with the chosen edges' component labels, as `_joined` keeps them."""
    grown = [((), tuple(range(g.n + 1)))]
    for e in g.sorted_edges:
        grown += [(chosen + (e,), joined) for chosen, label in grown
                  if (joined := _joined(label, *e)) is not None]
    return sorted((Forest(g.n, c) for c, _ in grown), key=Forest.sort_key)


@lru_cache(maxsize=64)
def chromatic_polynomial(g: OrderedGraph) -> IntPoly:
    """Exact chromatic polynomial by one pass over the vertex order.

    A state partitions the placed vertices with a later neighbour into
    colour classes; its coefficients (t^0 first, padded to one more than
    the placed vertices) count the colourings of those that induce it.
    Vertex v joins a class with no neighbour of v, or takes one of the
    t - (number of classes) colours that no class has.
    """
    last = [0] * (g.n + 1)  # last[u] = u's largest neighbour, 0 if none
    earlier = [set() for _ in range(g.n + 1)]
    for i, j in g.edges:
        last[i] = max(last[i], j)
        earlier[j].add(i)
    isolated, states = 0, {frozenset(): (1,)}
    for v in range(1, g.n + 1):
        if not last[v] and not earlier[v]:
            isolated += 1  # a factor t, kept out of every state's weight
            continue
        leaving = {u for u in earlier[v] | {v} if last[u] <= v}
        grown = {}
        for classes, coeffs in states.items():
            k = len(classes)
            joined = (*coeffs, 0)
            opened = tuple(s - k * c for s, c in zip((0, *coeffs), joined))
            options = [(c, joined) for c in classes if not c & earlier[v]]
            for c, weight in [(frozenset(), opened), *options]:
                new = classes - {c} | {c | {v}}
                key = frozenset(d - leaving for d in new) - {frozenset()}
                if key in grown:
                    weight = tuple(map(add, grown[key], weight))
                grown[key] = weight
        states = grown
    return IntPoly((0,) * isolated + states[frozenset()])


class WhitneyReport(Record):
    _fields = ("counts", "coeffs", "equal")


def whitney_check(g: OrderedGraph, convention) -> WhitneyReport:
    """Compare NBC forest counts per component number against the absolute
    values of the chromatic polynomial coefficients.

    A forest holds a broken circuit iff an edge outside it is externally
    active: its ends are joined by the forest's edges before it (Bjorner
    1992).  The edges go decreasing for remove-min and increasing for
    remove-max, so each broken circuit's omitted edge comes after the rest
    of its circuit.  A state is a `_joined` label tuple, 0 on vertices with
    no later edge and other blocks renumbered by first vertex; it maps to
    its NBC counts by number of edges chosen.  A state whose labels join
    an edge's ends dies there; any other skips or takes the edge.
    """
    convention = BrokenCircuitConvention.parse(convention)
    edges = g.sorted_edges
    if convention is BrokenCircuitConvention.REMOVE_MIN:
        edges = edges[::-1]
    last = {v: idx for idx, e in enumerate(edges) for v in e}
    states = {tuple(range(g.n + 1)): (1,)}
    for idx, (u, v) in enumerate(edges):
        gone = [w for w in (u, v) if last[w] == idx]
        grown = {}
        for label, by_edges in states.items():
            if label[u] == label[v]:
                continue  # (u, v) is externally active for every completion
            for new, weight in ((label, by_edges + (0,)),
                                (_joined(label, u, v), (0, *by_edges))):
                new = list(new)
                for w in gone:
                    new[w] = 0
                first = {}
                key = tuple([first.setdefault(x, w) for w, x in enumerate(new)])
                if key in grown:
                    weight = tuple(map(add, grown[key], weight))
                grown[key] = weight
        states = grown
    (by_edges,) = states.values()
    counts = list((by_edges + (0,) * g.n)[g.n::-1])
    p = chromatic_polynomial(g)
    coeffs = [abs(p.coefficient(k)) for k in range(g.n + 1)]
    return WhitneyReport(counts, coeffs, counts == coeffs)


class MovableSearchReport(Record):
    _fields = ("all_pairs_ok",
               "failures")  # (A, B) pairs with no movable edge


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
    for an edge of A \\ B whose move keeps both forests admissible.

    A - e is a spanning forest of g, and so is B + e when e joins two
    components of B.  So admissibility is decided once per spanning forest,
    on its parent vector, and each candidate move is two look-ups.  Pairs
    are visited, and failures listed, in the sorted order of the forests.
    """
    if relabeling is not None:
        g = apply_relabeling(g, relabeling)
    nbrs = _neighbor_sets(g)
    forests = spanning_forests(g)
    good = {f.edges: _all_vertices_good(f.parent, nbrs) for f in forests}
    admissible = [f for f in forests if good[f.edges]]
    failures = []
    for a in admissible:
        for b in admissible:
            if a.component_count() >= b.component_count():
                continue
            if not _has_movable_edge(a, b, good):
                failures.append((a, b))
    return MovableSearchReport(not failures, failures)


def _has_movable_edge(a: Forest, b: Forest, good: dict) -> bool:
    for e in sorted(a.edges - b.edges):
        if e[1] in b.components[e[0]]:
            continue  # adding e to B closes a circuit
        if good[a.edges - {e}] and good[b.edges | {e}]:
            return True
    return False


class PeoReport(Record):
    _fields = ("holds", "lhs", "rhs")


def peo_isf_check(g: OrderedGraph) -> PeoReport:
    """Compare the increasing-forest polynomial at x = 1 with the sign-
    corrected chromatic polynomial (-1)^n P(-t).

    The two are equal iff the natural vertex order is a perfect
    elimination order of g.  For a tree this means every j >= 2 has
    exactly one smaller neighbour.  The left side is counted through the
    factorization, prod_j (t + d_j); the right side is the colouring DP of
    `chromatic_polynomial`, which reads only the edges and knows nothing
    of d_j, so the two sides stay independent.
    """
    lhs = IntPoly(isf_counts(g))
    rhs = chromatic_polynomial(g).reflected(g.n)
    return PeoReport(lhs == rhs, lhs, rhs)

