"""Increasing forests on the complete graph vs permutations by cycles.

Each tree of an increasing forest, rooted at its minimum, is traversed in
preorder visiting children in decreasing label order; the visit sequence
is one cycle.  This reproduces the counterclockwise contour reading of the
planar drawing with children listed top to bottom by increasing label.
The inverse reads each cycle word left to right and attaches every element
to the nearest smaller element on its left.

Conjugating the edge-moving injection through this bijection breaks one
cycle of the first permutation in two and glues two cycles of the second,
leaving all spectator cycles untouched.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InputError, NonCanonicalCycle, NotIncreasing, SizeViolation
from .graphs import Forest, complete_graph, is_increasing, orient
from .enumeration import isf_counts
from .injection import psi


@dataclass(frozen=True)
class Permutation:
    """Permutation of [n] in canonical cycle form.

    Every cycle starts at its minimum and cycles are sorted by minima.
    """

    n: int
    cycles: tuple

    def __post_init__(self):
        cycles = tuple(tuple(c) for c in self.cycles)
        object.__setattr__(self, "cycles", cycles)
        flat = [v for c in cycles for v in c]
        if sorted(flat) != list(range(1, self.n + 1)):
            raise NonCanonicalCycle(
                f"cycles {cycles!r} do not partition 1..{self.n}"
            )
        for c in cycles:
            if c[0] != min(c):
                raise NonCanonicalCycle(f"cycle {c!r} does not start at its minimum")
        if list(cycles) != sorted(cycles, key=lambda c: c[0]):
            raise NonCanonicalCycle("cycles are not sorted by their minima")

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        return cls(n, tuple((v,) for v in range(1, n + 1)))

    @classmethod
    def from_mapping(cls, mapping: dict) -> "Permutation":
        """Canonicalize a vertex->image mapping of 1..n into cycle form."""
        n = len(mapping)
        seen = set()
        cycles = []
        for start in range(1, n + 1):
            if start in seen:
                continue
            cyc = [start]
            seen.add(start)
            v = mapping[start]
            while v != start:
                cyc.append(v)
                seen.add(v)
                v = mapping[v]
            m = cyc.index(min(cyc))
            cycles.append(tuple(cyc[m:] + cyc[:m]))
        cycles.sort(key=lambda c: c[0])
        return cls(n, tuple(cycles))

    def cycle_count(self) -> int:
        return len(self.cycles)

    def to_json(self) -> dict:
        return {"n": self.n, "cycles": [list(c) for c in self.cycles]}

    @classmethod
    def from_json(cls, obj: dict) -> "Permutation":
        if not (
            isinstance(obj, dict) and isinstance(obj.get("n"), int)
            and isinstance(obj.get("cycles"), list)
            and all(
                isinstance(c, list) and c and all(isinstance(v, int) for v in c)
                for c in obj["cycles"]
            )
        ):
            raise InputError(
                "permutation JSON must be {'n': int, 'cycles': [[int,...],...]}"
            )
        return cls(obj["n"], tuple(tuple(c) for c in obj["cycles"]))


def forest_to_permutation(f: Forest) -> Permutation:
    """One cycle per tree: preorder from the root, children largest first."""
    if not is_increasing(f):
        raise NotIncreasing("bijection is only defined on increasing forests")
    o = orient(f)
    cycles = []
    for root in sorted(o.roots):
        word = []
        stack = [root]
        while stack:
            v = stack.pop()
            word.append(v)
            stack.extend(o.children[v])  # sorted ascending: popped descending
        cycles.append(tuple(word))
    return Permutation(f.n, tuple(cycles))


def permutation_to_forest(p: Permutation) -> Forest:
    """Attach each cycle element to the nearest smaller element on its left."""
    edges = set()
    for cycle in p.cycles:
        for idx in range(1, len(cycle)):
            v = cycle[idx]
            parent = next(u for u in reversed(cycle[:idx]) if u < v)
            edges.add((parent, v))
    return Forest(p.n, frozenset(edges))


@dataclass(frozen=True)
class StirlingRow:
    """Row n of the Stirling numbers of the first kind, both signs."""

    n: int
    unsigned: tuple
    signed: tuple


def stirling_row(n: int) -> StirlingRow:
    """c(n, k) as the number of increasing forests of K_n with k components.

    They are counted through the factorization, as the coefficients of
    t(t + 1)...(t + n - 1); no forest is built.
    """
    unsigned = isf_counts(complete_graph(n))
    signed = tuple(
        (-1) ** (n - k) * unsigned[k] for k in range(n + 1)
    )
    return StirlingRow(n, unsigned, signed)


@dataclass(frozen=True)
class PermutationMove:
    """Result of psi conjugated through the forest bijection."""

    sigma_p: Permutation
    tau_p: Permutation
    broken_cycle: tuple        # the cycle of sigma that was split in two
    glued_pair: tuple          # the two cycles of tau that merged
    spectators_unchanged: bool

    def to_json(self) -> dict:
        return {
            "sigma_p": self.sigma_p.to_json(),
            "tau_p": self.tau_p.to_json(),
            "broken_cycle": list(self.broken_cycle),
            "glued_pair": [list(c) for c in self.glued_pair],
            "spectators_unchanged": self.spectators_unchanged,
        }


def _multiset_diff(left, right) -> list:
    out = list(left)
    for c in right:
        if c in out:
            out.remove(c)
    return out


def permutation_psi(sigma: Permutation, tau: Permutation) -> PermutationMove:
    """Break one cycle of sigma, glue two cycles of tau."""
    if sigma.n != tau.n:
        raise SizeViolation(f"mismatched sizes {sigma.n} != {tau.n}")
    if sigma.cycle_count() >= tau.cycle_count():
        raise SizeViolation(
            "need cycles(sigma) < cycles(tau), got "
            f"{sigma.cycle_count()} >= {tau.cycle_count()}"
        )
    g = complete_graph(sigma.n)
    tr = psi(g, permutation_to_forest(sigma), permutation_to_forest(tau))
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
