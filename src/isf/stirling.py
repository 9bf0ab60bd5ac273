"""Increasing forests on the complete graph vs permutations by cycles.

Each tree of an increasing forest, rooted at its minimum, is traversed in
preorder visiting children in decreasing label order; the visit sequence
is one cycle.  This reproduces the counterclockwise contour reading of the
planar drawing with children listed top to bottom by increasing label.
The children are read off the forest's parent vector.  The inverse reads
each cycle word left to right: the nearest smaller element on the left of
an element is its parent, so the words give the parent vector directly.

Conjugating the edge-moving injection through this bijection breaks one
cycle of the first permutation in two and glues two cycles of the second,
leaving all spectator cycles untouched.
"""

from __future__ import annotations

from .errors import InputError, NonCanonicalCycle, NotIncreasing, SizeViolation
from .graphs import Forest, OrderedGraph, Record, _check_vertex_count
from .enumeration import _product_counts
from .injection import psi


class Permutation(Record):
    """Permutation of [n] in canonical cycle form.

    Every cycle starts at its minimum and cycles are sorted by minima.
    """

    _fields = ("n", "cycles")

    def __init__(self, n: int, cycles: tuple):
        _check_vertex_count(n)
        cycles = tuple(tuple(c) for c in cycles)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "cycles", cycles)
        flat = [v for c in cycles for v in c]
        # sizes first: a huge n must not build its range; no block is empty
        if (len(flat) != n or not all(cycles)
                or sorted(flat) != list(range(1, n + 1))):
            raise NonCanonicalCycle(
                f"cycles {cycles!r} do not partition 1..{n}"
            )
        for c in cycles:
            if c[0] != min(c):
                raise NonCanonicalCycle(f"cycle {c!r} does not start at its minimum")
        if list(cycles) != sorted(cycles, key=lambda c: c[0]):
            raise NonCanonicalCycle("cycles are not sorted by their minima")

    @classmethod
    def from_json(cls, obj: dict) -> "Permutation":
        if not (
            isinstance(obj, dict) and type(obj.get("n")) is int
            and isinstance(obj.get("cycles"), list)
            and all(
                isinstance(c, list) and c and all(type(v) is int for v in c)
                for c in obj["cycles"]
            )
        ):
            raise InputError(
                "permutation JSON must be {'n': int, 'cycles': [[int,...],...]}"
            )
        return cls(obj["n"], tuple(tuple(c) for c in obj["cycles"]))


def forest_to_permutation(f: Forest) -> Permutation:
    """One cycle per tree: preorder from the root, children largest first."""
    if not f.increasing:
        raise NotIncreasing("bijection is only defined on increasing forests")
    children = [[] for _ in range(f.n + 1)]  # children[0] lists the roots
    for v in range(1, f.n + 1):
        children[f.parent[v]].append(v)  # v increases, so lists come sorted
    cycles = []
    for root in children[0]:
        word = []
        stack = [root]
        while stack:
            v = stack.pop()
            word.append(v)
            stack.extend(children[v])  # sorted ascending: popped descending
        cycles.append(tuple(word))
    return Permutation(f.n, tuple(cycles))


def permutation_to_forest(p: Permutation) -> Forest:
    """Attach each cycle element to the nearest smaller element on its left."""
    parent = [0] * (p.n + 1)
    for cycle in p.cycles:
        stack = [0]  # 0, then the elements so far with no smaller one after
        for v in cycle:  # cycle[0] is the minimum: it finds 0, a root
            while stack[-1] > v:
                stack.pop()
            parent[v] = stack[-1]
            stack.append(v)
    return Forest.from_parent(parent)


class StirlingRow(Record):
    """Row n of the Stirling numbers of the first kind, both signs."""

    _fields = ("n", "unsigned", "signed")


def stirling_row(n: int) -> StirlingRow:
    """c(n, k) as the number of increasing forests of K_n with k components.

    They are counted through the factorization, as the coefficients of
    t(t + 1)...(t + n - 1): in K_n vertex j has j - 1 smaller neighbors,
    so neither K_n nor any forest is built.
    """
    _check_vertex_count(n)
    unsigned = _product_counts(range(n))
    signed = tuple(
        (-1) ** (n - k) * unsigned[k] for k in range(n + 1)
    )
    return StirlingRow(n, unsigned, signed)


class PermutationMove(Record):
    """Result of psi conjugated through the forest bijection."""

    _fields = ("sigma_p", "tau_p",
               "broken_cycle",  # the cycle of sigma that was split in two
               "glued_pair",    # the two cycles of tau that merged
               "spectators_unchanged")


def _multiset_diff(left, right) -> list:
    """The cycles of left not in right: one permutation's are distinct."""
    right = set(right)
    return [c for c in left if c not in right]


def permutation_psi(sigma: Permutation, tau: Permutation) -> PermutationMove:
    """Break one cycle of sigma, glue two cycles of tau."""
    if sigma.n != tau.n:
        raise SizeViolation(f"mismatched sizes {sigma.n} != {tau.n}")
    if len(sigma.cycles) >= len(tau.cycles):
        raise SizeViolation(
            "need cycles(sigma) < cycles(tau), got "
            f"{len(sigma.cycles)} >= {len(tau.cycles)}"
        )
    # psi reads K_n only to check the forests lie in it; their union will do
    a, b = permutation_to_forest(sigma), permutation_to_forest(tau)
    tr = psi(OrderedGraph(sigma.n, a.edges | b.edges), a, b)
    sigma_p = forest_to_permutation(tr.A_out)
    tau_p = forest_to_permutation(tr.B_out)

    broken = _multiset_diff(sigma.cycles, sigma_p.cycles)
    new_halves = _multiset_diff(sigma_p.cycles, sigma.cycles)
    glued = _multiset_diff(tau.cycles, tau_p.cycles)
    merged = _multiset_diff(tau_p.cycles, tau.cycles)
    spectators = (
        len(broken) == 1 and len(new_halves) == 2
        and len(glued) == 2 and len(merged) == 1
    )
    return PermutationMove(
        sigma_p=sigma_p,
        tau_p=tau_p,
        broken_cycle=broken[0] if broken else (),
        glued_pair=tuple(glued),
        spectators_unchanged=spectators,
    )
