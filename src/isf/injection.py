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
B[j] = A[j].  So A's half of the move (e, A', j's component, read off the
vector in one forward pass, its bookkeeping) depends on (A, j) alone and
B's half on (B, e) alone: psi works each out once and memoises it on its
forest (_cuts by j, _joins by e), beside _in_graph, the
graph object it last passed psi's input checks in; another graph object
checks it again and empties both memos.  A failed check stores nothing.
j depends only on (m(A) ^ m(B), m(A) - m(B)): _split caches that pair per
minima pair, so its frozensets, hashes cached, come back for phi's memo
(see brackets) to answer most pairs; psi still calls its successor once
per pair.  psi builds no Forest; its trace is one tuple.  verify_psi checks
on the vectors that A' is A less e, expected once per (A, e) in A's row,
and then that B' is B plus e, once per (B, e); weight only where that
fails, as a local move turns (A[j], B[j]) = (i, 0) into (0, i).  `images`
maps each image to its first A, set once per pair; a collision replays
that A's row for its first pair.
"""

from __future__ import annotations

from collections import namedtuple
from functools import cached_property, lru_cache
from operator import add, mul

from .brackets import phi
from .errors import InvariantViolation, NotIncreasing, SizeViolation
from .graphs import Forest, OrderedGraph, Record, _check_forest_in_graph
from .enumeration import enumerate_if


class PsiTrace(namedtuple("PsiTrace", (
        "mA", "mB", "sym_diff", "j", "A_comp", "B_comp", "i0", "e",
        "A_out_parent", "B_out_parent"))):
    """Everything produced by one application of the edge-moving map: a
    frozen tuple of the fields, equal only to a trace, never a plain tuple."""

    def __eq__(self, other):
        return other.__class__ is self.__class__ and tuple.__eq__(self, other)

    def __ne__(self, other):
        return not self.__eq__(other)

    __hash__ = tuple.__hash__
    __setattr__, __delattr__ = Record.__setattr__, Record.__delattr__
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


def _component(parent: tuple, j: int) -> tuple:
    """(j's component, its root) in the increasing forest with this parent
    vector, in one forward pass: each vertex takes its parent's root."""
    root = [0] * len(parent)
    for v in range(1, len(parent)):
        root[v] = root[parent[v]] or v
    return frozenset([v for v, r in enumerate(root) if r == root[j]]), root[j]


def _cut(a: Forest, j: int) -> tuple:
    """A's half of the move at j, memoised in a._cuts by j: (e, A', A's
    component of j, i0), with e = (A[j], j) and A' = A with [j] set to 0."""
    pa = a.parent
    e = (pa[j], j)
    if e not in a.edges:
        _fail("e in A and e not in B")
    a_out = pa[:j] + (0,) + pa[j + 1:]
    if {v for v, p in enumerate(a_out) if not p} != {0, j, *a.minima}:
        _fail("m(A') = m(A) + j")
    a._cuts[j] = half = (e, a_out, *_component(pa, j))
    return half


def _join(b: Forest, e: tuple) -> tuple:
    """B's half of the move of e = (i, j), memoised in b._joins by e:
    (B', B's component of j), with B' = B with [j] set to i."""
    i, j = e
    pb = b.parent
    b_comp, root = _component(pb, j)
    if j != root:  # = min(b_comp), as root[v] <= v for every v
        _fail("j = min of its component in B")
    if e in b.edges:
        _fail("e in A and e not in B")
    b_out = pb[:j] + (i,) + pb[j + 1:]
    if {v for v, p in enumerate(b_out) if not p} != {0, *b.minima} - {j}:
        _fail("m(B') = m(B) - j")
    b._joins[e] = half = (b_out, b_comp)
    return half


@lru_cache(maxsize=1024)
def _split(m_a: frozenset, m_b: frozenset) -> tuple:
    """(m(A) ^ m(B), m(A) - m(B)), the same two sets for each minima pair."""
    return m_a ^ m_b, m_a - m_b


def _admit(g: OrderedGraph, a: Forest, b: Forest) -> None:
    """Check each forest not marked as checked in g, A first; mark it."""
    for f, label in (a, "forest A"), (b, "forest B"):
        if getattr(f, "_in_graph", None) is not g:
            _check_forest_in_graph(g, f, label)
            if not f.increasing:
                raise NotIncreasing(f"{label} is not increasing")
            vars(f).update(_in_graph=g, _cuts={}, _joins={})


def psi(g: OrderedGraph, a: Forest, b: Forest, successor=phi) -> PsiTrace:
    """Move one edge of A to B; requires components(A) < components(B)."""
    try:
        checked = a._in_graph is g and b._in_graph is g
    except AttributeError:  # a forest psi has not checked yet
        checked = False
    if not checked:
        _admit(g, a, b)
    m_a, m_b = a.minima, b.minima
    if len(m_a) >= len(m_b):
        raise SizeViolation(
            f"need components(A) < components(B), got {len(m_a)} >= {len(m_b)}"
        )
    sym_diff, only_a = _split(m_a, m_b)
    added = successor(sym_diff, only_a) - only_a
    if len(added) != 1:
        raise InvariantViolation(
            f"successor added {sorted(added)}, not exactly one element"
        )
    (j,) = added
    # bookkeeping the injectivity proof relies on; cheap, so always checked
    if j not in m_b or j in m_a:
        _fail("j in m(B) - m(A)")
    e, a_out, a_comp, i0 = a._cuts.get(j) or _cut(a, j)
    b_out, b_comp = b._joins.get(e) or _join(b, e)
    return tuple.__new__(PsiTrace, (m_a, m_b, sym_diff, j, a_comp, b_comp, i0,
                                    e, a_out, b_out))


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
    if {type(k), type(l)} != {int} or not 0 <= k < l <= g.n:
        raise SizeViolation(f"need 0 <= k < l <= n={g.n}, got k={k!r}, l={l!r}")
    images: dict = {}  # each image -> the A of its first preimage
    later = []  # (image, its first A, pair) for each image seen before
    local = weight_preserving = True
    forests_k, forests_l = enumerate_if(g, k), enumerate_if(g, l)
    column = [(b, b.parent, {}) for b in forests_l]  # {e: B plus e} per B
    for a in forests_k:
        pa = a.parent
        cuts = {}  # {e: A less e}, for A's row
        for b, pb, joins in column:
            tr = psi(g, a, b, successor=successor)
            key = a_out, b_out = tr.A_out_parent, tr.B_out_parent
            i, j = e = tr.e
            if (cut := cuts.get(e)) is None and 0 < i < j and pa[j] == i:
                cut = cuts[e] = pa[:j] + (0,) + pa[j + 1:]
            join = cut is not None and a_out == cut and joins.get(e)
            if (join is None and not pb[j]
                    and b_out == pb[:j] + (i,) + pb[j + 1:]):
                join = joins[e] = b_out  # psi's own vector, once it matched
            if not join or b_out != join:
                local = False
                # weight: {A[v], B[v]} = {A'[v], B'[v]}, by sums and products
                if (list(map(add, pa, pb)) != list(map(add, a_out, b_out))
                        or list(map(mul, pa, pb)) != list(map(mul, a_out, b_out))):
                    weight_preserving = False
            size = len(images)  # a collision adds no key, even within A's row
            first = images.setdefault(key, a)
            if len(images) == size:
                later.append((key, first, (a, b)))
    collisions = []
    for key, a, pair in later:  # the first preimage: first hit in A's row
        for b in forests_l:
            tr = psi(g, a, b, successor=successor)
            if (tr.A_out_parent, tr.B_out_parent) == key:
                break
        else:
            raise InvariantViolation(f"replaying A's row missed image {key}")
        collisions.append([(a, b), pair])
    total = len(forests_k) * len(forests_l)
    return PsiReport(total, not collisions, local, weight_preserving, collisions)
