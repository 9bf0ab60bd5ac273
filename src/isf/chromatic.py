"""Chromatic polynomials, broken circuits, and good-vertex admissibility.

Edges (i, j) with i < j are ordered lexicographically.  A broken circuit
is a circuit minus its extremal edge in that order; the remove-min
convention (the classical one) and remove-max disagree on individual
forests but give the same per-component counts.  A convention is an edge
order, decreasing for remove-min, in which the omitted edge of a circuit
comes last: its ends are the first the earlier edges join (Bjorner 1992),
so each circuit is listed once, as a path that edge closes, and a path
grows only while it can still close.  The good-vertex predicate (read off
the minima-rooted parent vector) is the rooted-forest form of admissibility;
the movable-edge search keeps only the admissible forests, then uses bitsets.

The hot paths work on raw edge sets, parent vectors and bitsets; validated
graphs and forests appear only at their inputs and outputs.  The chromatic
polynomial is a frontier DP over the vertex order (Noble, CPC 1998, for
bounded tree-width): it reads only adjacency and never recurses.
Whitney's NBC forests are counted in one pass over the ordered edges, on
the blocks that the forests so far join among the vertices with a later
edge, so a state costs the frontier, not n: an edge whose ends are already
joined is externally active, so those forests hold a broken circuit and
are dropped, and no circuit is ever listed.  Spanning forests are grown on
component labels over all vertices, last edge first, so they come out sorted.

Everything here is exact and sized for exhaustive checks on small graphs.
"""

from __future__ import annotations

from functools import lru_cache
from operator import add

from .errors import InputError
from .graphs import Forest, OrderedGraph, Record, _check_forest_in_graph, _joined
from .enumeration import isf_counts
from .polynomials import TPoly


def _edge_order(g: OrderedGraph, convention) -> list:
    """g's edges, each circuit's omitted edge last: decreasing for "min"."""
    if convention not in ("min", "max"):
        raise InputError(f"unknown convention {convention!r}")
    return g.sorted_edges[::-1] if convention == "min" else g.sorted_edges


def _circuit_paths(n: int, order) -> list:
    """C - e for each circuit C, e its last edge in order: each simple u-v
    path through the edges before e = (u, v) is one, so no C repeats.  A path
    grows only to a vertex that still reaches v around it (Read-Tarjan)."""
    adj = [[] for _ in range(n + 1)]
    label, found = tuple(range(n + 1)), []
    for e in order:
        u, v = e
        if (joined := _joined(label, u, v)) is not None:
            label = joined
        else:
            stack = [(u,)]  # paths from u, as vertex tuples
            while stack:
                path = stack.pop()
                live = _reach(adj, v, path)
                for w in adj[path[-1]]:
                    if w == v:
                        steps = zip(path, (*path[1:], v))
                        found.append(frozenset((min(s), max(s)) for s in steps))
                    elif w in live:
                        stack.append((*path, w))
        adj[u].append(v)
        adj[v].append(u)
    return found


def _reach(adj: list, v: int, avoid: tuple) -> set:
    """The vertices that reach v in adj without entering avoid."""
    seen, stack = {v, *avoid}, [v]
    while stack:
        new = set(adj[stack.pop()]) - seen
        seen |= new
        stack += new
    return seen.difference(avoid)


def broken_circuits(g: OrderedGraph, convention) -> list:
    """Each circuit minus its last edge in the convention's order."""
    found = _circuit_paths(g.n, _edge_order(g, convention))
    return sorted(found, key=lambda c: (len(c), sorted(c)))


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
    """All acyclic edge subsets of g, spanning by convention, in sort_key
    order: grown last edge first on component labels (`_joined`), each edge's
    new forests go right after (), ahead of the later edges' own, in order."""
    grown = [((), tuple(range(g.n + 1)))]
    for e in reversed(g.sorted_edges):
        grown[1:1] = [((e, *chosen), joined) for chosen, label in grown
                      if (joined := _joined(label, *e)) is not None]
    return [Forest(g.n, c) for c, _ in grown]


@lru_cache(maxsize=64)
def chromatic_polynomial(g: OrderedGraph) -> TPoly:
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
    return TPoly((0,) * isolated + states[frozenset()])


class WhitneyReport(Record):
    _fields = ("counts", "coeffs", "equal")


def whitney_check(g: OrderedGraph, convention) -> WhitneyReport:
    """Compare NBC forest counts per component number against the absolute
    values of the chromatic polynomial coefficients.

    A forest holds a broken circuit iff an edge outside it is externally
    active: its ends are joined by the forest's edges before it (Bjorner
    1992), in the convention's edge order.  A state is the set of blocks,
    of two or more live vertices (vertices with a later edge), that the
    chosen edges join; it maps to its NBC counts by number of edges chosen.
    A state with u and v in one block dies at (u, v); any other skips or
    takes the edge.
    """
    edges = _edge_order(g, convention)
    last = {v: idx for idx, e in enumerate(edges) for v in e}
    states = {frozenset(): (1,)}
    for idx, (u, v) in enumerate(edges):
        gone = {w for w in (u, v) if last[w] == idx}
        alone = frozenset((u,)), frozenset((v,))
        grown = {}
        for blocks, by_edges in states.items():
            bu, bv = alone  # a vertex in no block is a block by itself
            for block in blocks:
                if u in block:
                    bu = block
                if v in block:
                    bv = block
            if bu is bv:
                continue  # (u, v) is externally active for every completion
            rest = blocks - {bu, bv}
            for new, weight in (((bu, bv), by_edges + (0,)),
                                ((bu | bv,), (0, *by_edges))):
                key = rest | {b for b in (c - gone for c in new) if len(b) > 1}
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
    if set(map(type, perm)) - {int} or sorted(perm) != list(range(1, g.n + 1)):
        raise InputError(f"relabeling {perm!r} is not a permutation of 1..{g.n}")
    return OrderedGraph(g.n, (sorted((perm[i - 1], perm[j - 1])) for i, j in g.edges))


def movable_edge_search(g: OrderedGraph, relabeling=None) -> MovableSearchReport:
    """Search every admissible pair (A, B), components(A) < components(B),
    for an edge of A \\ B whose move keeps both forests admissible.

    Only admissible forests are kept, and `good` holds their edge sets.  Bit
    b of joinable[e] marks the b-th, B, if e is not in B and B + e is in
    `good`; more[k] holds the B with more than k components.  Each A clears
    joinable[e] if A - e is in `good`; its failures are the bits left, in order.
    """
    if relabeling is not None:
        g = apply_relabeling(g, relabeling)
    nbrs = _neighbor_sets(g)
    admissible = [f for f in spanning_forests(g)
                  if _all_vertices_good(f.parent, nbrs)]
    good = {f.edges for f in admissible}
    joinable, more = dict.fromkeys(g.edges, 0), [0] * (g.n + 1)
    for bit, b in enumerate(admissible):
        for e in g.edges - b.edges:
            if b.edges | {e} in good:
                joinable[e] |= 1 << bit
        for k in range(b.component_count()):
            more[k] |= 1 << bit
    failures = []
    for a in admissible:
        left = more[a.component_count()]
        for e in a.edges:
            if a.edges - {e} in good:
                left &= ~joinable[e]
        while left:
            failures.append((a, admissible[(left & -left).bit_length() - 1]))
            left &= left - 1
    return MovableSearchReport(not failures, failures)


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
    lhs = TPoly(isf_counts(g))
    rhs = chromatic_polynomial(g).reflected(g.n)
    return PeoReport(lhs == rhs, lhs, rhs)

