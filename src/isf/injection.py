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
B[j] = A[j].  psi checks its bookkeeping on these two vectors and builds
no Forest; all else it needs of an input forest is cached on it.  Its
root checks read a vector and build no root set: the zeros past index 0
are exactly the expected minima (vertices in 1..n) iff index 0 is 0,
every expected position is 0 and there are |expected| + 1 zeros.  j
depends only on (m(A), m(B)), so phi's memo (see brackets) answers most
pairs; psi memoises nothing and calls its successor once per pair.
verify_psi checks locality on the vectors, and weight only where locality
fails: a local move turns (A[j], B[j]) = (i, 0) into (0, i) and keeps
every other coordinate.
"""

from __future__ import annotations

from functools import cached_property
from itertools import product
from operator import add, mul

from .brackets import phi
from .errors import InvariantViolation, NotIncreasing, SizeViolation
from .graphs import Forest, OrderedGraph, Record, _check_forest_in_graph
from .enumeration import enumerate_if


def _select(only_a: frozenset, sym_diff: frozenset, successor) -> int:
    added = successor(sym_diff, only_a) - only_a
    if len(added) != 1:
        raise InvariantViolation(
            f"successor added {sorted(added)}, not exactly one element"
        )
    (j,) = added
    return j


class PsiTrace(Record):
    """Everything produced by one application of the edge-moving map."""

    _fields = ("mA", "mB", "sym_diff", "j", "A_comp", "B_comp", "i0", "e",
               "A_out_parent", "B_out_parent")
    # the output Forests, built from the vectors on first access
    A_out = cached_property(lambda self: Forest.from_parent(self.A_out_parent))
    B_out = cached_property(lambda self: Forest.from_parent(self.B_out_parent))

    def to_json(self) -> dict:
        return {
            "mA": sorted(self.mA),
            "mB": sorted(self.mB),
            "sym_diff": sorted(self.sym_diff),
            "j": self.j,
            "A_comp": sorted(self.A_comp),
            "B_comp": sorted(self.B_comp),
            "i0": self.i0,
            "e": self.e,
            "A_out": self.A_out,
            "B_out": self.B_out,
        }


def _fail(claim: str):
    raise InvariantViolation(f"psi bookkeeping failed: {claim}")


def _check_roots(parent: tuple, expected: frozenset, claim: str) -> None:
    # the zero entries past index 0 must be exactly the expected positions
    if parent[0] or parent.count(0) != len(expected) + 1:
        _fail(claim)
    for v in expected:
        if parent[v]:
            _fail(claim)


def psi(g: OrderedGraph, a: Forest, b: Forest, successor=phi) -> PsiTrace:
    """Move one edge of A to B; requires components(A) < components(B)."""
    _check_forest_in_graph(g, a, "forest A")
    if not a.increasing:
        raise NotIncreasing("forest A is not increasing")
    _check_forest_in_graph(g, b, "forest B")
    if not b.increasing:
        raise NotIncreasing("forest B is not increasing")
    m_a, m_b = a.minima, b.minima
    if len(m_a) >= len(m_b):
        raise SizeViolation(
            f"need components(A) < components(B), got {len(m_a)} >= {len(m_b)}"
        )
    sym_diff = m_a ^ m_b
    j = _select(m_a - m_b, sym_diff, successor)
    # bookkeeping the injectivity proof relies on; cheap, so always checked
    if j not in m_b or j in m_a:
        _fail("j in m(B) - m(A)")
    pa, pb = a.parent, b.parent
    a_comp, b_comp = a.components[j], b.components[j]
    e = (pa[j], j)
    # the swap B[j] = A[j], A[j] = 0; both outputs stay increasing vectors
    a_out = pa[:j] + (0,) + pa[j + 1:]
    b_out = pb[:j] + (pa[j],) + pb[j + 1:]
    if j != min(b_comp):
        _fail("j = min of its component in B")
    if e not in a.edges or e in b.edges:
        _fail("e in A and e not in B")
    _check_roots(a_out, m_a | {j}, "m(A') = m(A) + j")
    _check_roots(b_out, m_b - {j}, "m(B') = m(B) - j")
    tr = object.__new__(PsiTrace)  # frozen: fill __dict__, skip __init__
    tr.__dict__.update(
        mA=m_a, mB=m_b, sym_diff=sym_diff, j=j, A_comp=a_comp, B_comp=b_comp,
        i0=min(a_comp), e=e, A_out_parent=a_out, B_out_parent=b_out,
    )
    return tr


class PsiReport(Record):
    _fields = ("total_pairs", "injective", "local", "weight_preserving",
               "collisions")  # [first pair, later pair] per shared image

    def to_json(self) -> dict:
        # each collision's two pairs are written one after the other
        return dict(super().to_json(), collisions=[
            [a.to_json(), b.to_json()] for pairs in self.collisions
            for (a, b) in pairs
        ])


def verify_psi(g: OrderedGraph, k: int, l: int, successor=phi) -> PsiReport:
    """Exhaustively apply psi to IF_k x IF_l and check all its contracts."""
    if not 0 <= k < l <= g.n:
        raise SizeViolation(f"need 0 <= k < l <= n={g.n}, got k={k}, l={l}")
    images: dict = {}
    collisions = []
    local = weight_preserving = True
    forests_k, forests_l = enumerate_if(g, k), enumerate_if(g, l)
    for a, b in product(forests_k, forests_l):
        tr = psi(g, a, b, successor=successor)
        pa, pb = a.parent, b.parent
        key = a_out, b_out = tr.A_out_parent, tr.B_out_parent
        # local: A' is A less its edge e = (i, j), and B' is B plus e
        i, j = tr.e
        if not (0 < i < j and pa[j] == i and not pb[j]
                and a_out == pa[:j] + (0,) + pa[j + 1:]
                and b_out == pb[:j] + (i,) + pb[j + 1:]):
            local = False
            # weight: {A[v], B[v]} = {A'[v], B'[v]}, by sums and products
            if (list(map(add, pa, pb)) != list(map(add, a_out, b_out))
                    or list(map(mul, pa, pb)) != list(map(mul, a_out, b_out))):
                weight_preserving = False
        if key in images:
            collisions.append([images[key], (a, b)])
        else:
            images[key] = (a, b)
    total = len(forests_k) * len(forests_l)
    return PsiReport(total, not collisions, local, weight_preserving, collisions)
