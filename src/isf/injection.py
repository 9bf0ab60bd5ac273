"""The local injection on pairs of increasing spanning forests.

Given increasing spanning forests (A, B) with component counts k < l, a
vertex j is selected from the symmetric difference of the component-minima
sets through the subset injection, and the last edge on the path (inside
A) from the minimum of j's component to j is moved from A to B.  Both
outputs are again increasing, component counts shift by (+1, -1), and the
map is injective.  The full trace of intermediate quantities is returned
so tests and the CLI can expose each step.

On parent vectors (see graphs) the move is one coordinate swap: the moved
edge is (A[j], j), and the outputs are A with A[j] = 0 and B with
B[j] = A[j].  Everything else psi needs of an input forest is cached on it.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import NamedTuple

from .brackets import phi
from .errors import InvariantViolation, NotIncreasing, SizeViolation
from .graphs import Forest, OrderedGraph, _check_forest_in_graph
from .enumeration import enumerate_if


def select_j(m_a, m_b, successor=phi) -> int:
    """The vertex singled out by phi inside m(A) symmetric-difference m(B)."""
    m_a, m_b = frozenset(m_a), frozenset(m_b)
    if len(m_a) >= len(m_b):
        raise SizeViolation(
            f"need |m(A)| < |m(B)|, got {len(m_a)} >= {len(m_b)}"
        )
    added = successor(m_a ^ m_b, m_a - m_b) - (m_a - m_b)
    if len(added) != 1:
        raise InvariantViolation(
            f"successor added {sorted(added)}, not exactly one element"
        )
    (j,) = added
    return j


@dataclass(frozen=True)
class PsiTrace:
    """Everything produced by one application of the edge-moving map."""

    mA: frozenset
    mB: frozenset
    sym_diff: frozenset
    j: int
    A_comp: frozenset
    B_comp: frozenset
    i0: int
    e: tuple
    A_out: Forest
    B_out: Forest

    def to_json(self) -> dict:
        return {
            "mA": sorted(self.mA),
            "mB": sorted(self.mB),
            "sym_diff": sorted(self.sym_diff),
            "j": self.j,
            "A_comp": sorted(self.A_comp),
            "B_comp": sorted(self.B_comp),
            "i0": self.i0,
            "e": list(self.e),
            "A_out": self.A_out.to_json(),
            "B_out": self.B_out.to_json(),
        }


def _check(holds: bool, claim: str) -> None:
    if not holds:
        raise InvariantViolation(f"psi bookkeeping failed: {claim}")


def psi(g: OrderedGraph, a: Forest, b: Forest, successor=phi) -> PsiTrace:
    """Move one edge of A to B; requires components(A) < components(B)."""
    for f, name in ((a, "A"), (b, "B")):
        _check_forest_in_graph(g, f, f"forest {name}")
        if not f.increasing:
            raise NotIncreasing(f"forest {name} is not increasing")
    m_a, m_b = a.minima, b.minima
    if len(m_a) >= len(m_b):
        raise SizeViolation(
            f"need components(A) < components(B), got {len(m_a)} >= {len(m_b)}"
        )
    j = select_j(m_a, m_b, successor=successor)
    # bookkeeping the injectivity proof relies on; cheap, so always checked
    _check(j in m_b and j not in m_a, "j in m(B) - m(A)")
    pa, pb = a.parent, b.parent
    a_comp, b_comp = a.components[j], b.components[j]
    e = (pa[j], j)
    # the swap B[j] = A[j], A[j] = 0; from_parent checks both stay increasing
    a_out = Forest.from_parent(pa[:j] + (0,) + pa[j + 1:])
    b_out = Forest.from_parent(pb[:j] + (pa[j],) + pb[j + 1:])
    _check(j == min(b_comp), "j = min of its component in B")
    _check(e in a.edges and e not in b.edges, "e in A and e not in B")
    _check(a_out.minima == m_a | {j}, "m(A') = m(A) + j")
    _check(b_out.minima == m_b - {j}, "m(B') = m(B) - j")
    return PsiTrace(
        mA=m_a, mB=m_b, sym_diff=m_a ^ m_b, j=j, A_comp=a_comp,
        B_comp=b_comp, i0=min(a_comp), e=e, A_out=a_out, B_out=b_out,
    )


class PsiReport(NamedTuple):
    total_pairs: int
    injective: bool
    local: bool
    weight_preserving: bool
    collisions: list

    def to_json(self) -> dict:
        return {
            "total_pairs": self.total_pairs,
            "injective": self.injective,
            "local": self.local,
            "weight_preserving": self.weight_preserving,
            "collisions": [
                [a.to_json(), b.to_json()] for pairs in self.collisions
                for (a, b) in pairs
            ],
        }


def verify_psi(g: OrderedGraph, k: int, l: int, successor=phi) -> PsiReport:
    """Exhaustively apply psi to IF_k x IF_l and check all its contracts."""
    if not 0 <= k < l <= g.n:
        raise SizeViolation(f"need 0 <= k < l <= n={g.n}, got k={k}, l={l}")
    images: dict = {}
    collisions = []
    local = True
    weight_preserving = True
    total = 0
    for a, b in product(enumerate_if(g, k), enumerate_if(g, l)):
        total += 1
        tr = psi(g, a, b, successor=successor)
        e = tr.e
        if not (
            e in a.edges
            and e not in b.edges
            and tr.A_out.edges == a.edges - {e}
            and tr.B_out.edges == b.edges | {e}
        ):
            local = False
        before = sorted(list(a.edges) + list(b.edges))
        after = sorted(list(tr.A_out.edges) + list(tr.B_out.edges))
        if before != after:
            weight_preserving = False
        key = (tr.A_out.parent, tr.B_out.parent)
        if key in images:
            collisions.append([images[key], (a, b)])
        else:
            images[key] = (a, b)
    return PsiReport(total, not collisions, local, weight_preserving, collisions)
