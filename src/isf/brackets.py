"""Subset injection by parenthesis matching.

For a ground set Y (sorted increasingly) and X a subset of Y with
|X| < |Y|/2, read an open bracket at each position whose element lies in
X and a close bracket elsewhere, match brackets left to right with a
stack, and flip the rightmost unmatched close bracket to obtain a superset
X' of X with one more element.  This is the successor step of a
symmetric chain decomposition of the Boolean lattice, so it is injective
for every fixed (|Y|, |X|).  One scan does the matching; it keeps only
the unmatched positions, never the bracket string or the matched pairs.

A second instantiation running the same algorithm over the reversed
ground order is provided; the edge-moving injection must work with either,
since it may rely only on injectivity and X being contained in its image.

phi memoises its answer per frozenset pair (Y, X) in one bounded cache,
after checking and converting other arguments.  That is sound: the answer
depends on (Y, X) alone, and no error is cached: bad input raises each time.
"""

from __future__ import annotations

from functools import lru_cache

from .errors import InvariantViolation, NotASubset, NotInImage, SizeViolation


def _unmatched(elements: tuple, members) -> tuple:
    """(unmatched close positions, unmatched open positions), 1-based and
    increasing, after matching the brackets of (Y, X) left to right."""
    closes, opens = [], []
    for pos, e in enumerate(elements, start=1):
        if e in members:
            opens.append(pos)
        elif opens:
            opens.pop()
        else:
            closes.append(pos)
    # chain invariant: closes before opens among unmatched positions
    if closes and opens and closes[-1] > opens[0]:
        raise InvariantViolation(
            f"unmatched close at {closes[-1]} follows "
            f"unmatched open at {opens[0]}"
        )
    return closes, opens


def _as_ground(ground) -> tuple:
    # (Y sorted, Y as a set); a frozenset Y is its own, repeat-free set
    elems = tuple(sorted(ground))
    members = ground if type(ground) is frozenset else frozenset(elems)
    if len(members) != len(elems):
        raise NotASubset(f"ground set has repeated elements: {ground!r}")
    if not all(type(v) is int for v in elems):  # as members, True == 1.0 == 1
        raise NotASubset(f"ground set has non-integer elements: {ground!r}")
    return elems, members


def _as_set(subset) -> frozenset:
    # a frozenset X is its own, repeat-free set
    items = subset if type(subset) is frozenset else tuple(subset)
    sub = frozenset(items)
    if len(sub) != len(items):
        raise NotASubset(f"subset has repeated elements: {subset!r}")
    return sub


def _check_subset(ground: tuple, members, subset) -> frozenset:
    sub = _as_set(subset)
    if not sub <= members or not all(type(v) is int for v in sub):
        raise NotASubset(f"{sorted(sub)} is not a subset of {list(ground)}")
    return sub


def _in_range(n: int, subset) -> frozenset:
    # each element is checked against 1..n; [n] itself is never built
    sub = _as_set(subset)
    if not all(type(v) is int and 1 <= v <= n for v in sub):
        raise NotASubset(f"{sorted(sub)} is not a subset of 1..{n}")
    return sub


def _bracket_successor(elements: tuple, sub: frozenset) -> frozenset:
    if 2 * len(sub) >= len(elements):
        raise SizeViolation(
            f"need |X| < |Y|/2, got |X|={len(sub)}, |Y|={len(elements)}"
        )
    closes, _ = _unmatched(elements, sub)
    return sub | {elements[closes[-1] - 1]}


def _bracket_predecessor(elements: tuple, sub: frozenset) -> frozenset:
    _, opens = _unmatched(elements, sub)
    if not opens:
        raise NotInImage(f"{sorted(sub)} has no unmatched open bracket")
    return sub - {elements[opens[0] - 1]}


def phi(ground, subset) -> frozenset:
    """The canonical injection X -> X' with X a proper subset of X'."""
    if type(ground) is not frozenset or type(subset) is not frozenset:
        elements, ground = _as_ground(ground)
        subset = _check_subset(elements, ground, subset)
    return _phi(ground, subset)


@lru_cache(maxsize=1024)
def _phi(ground: frozenset, subset: frozenset) -> frozenset:
    elements, members = _as_ground(ground)
    return _bracket_successor(elements, _check_subset(elements, members, subset))


def phi_inverse(ground, subset) -> frozenset:
    """Invert phi by flipping the leftmost unmatched open bracket.

    Raises NotInImage when the candidate preimage does not map back.
    """
    elements, members = _as_ground(ground)
    sub = _check_subset(elements, members, subset)
    pre = _bracket_predecessor(elements, sub)
    try:
        image = _bracket_successor(elements, pre)
    except SizeViolation:
        raise NotInImage(f"{sorted(sub)} is not in the image of phi") from None
    if image != sub:
        raise NotInImage(f"{sorted(sub)} is not in the image of phi")
    return pre


def phi_reversed(ground, subset) -> frozenset:
    """Alternative valid injection: same matching over the reversed order."""
    elements, members = _as_ground(ground)
    elements = elements[::-1]
    return _bracket_successor(elements, _check_subset(elements, members, subset))


def subset_pair_map(n: int, x, y) -> tuple:
    """Move one element of Y\\X into X, injectively over pairs.

    Returns (x_new, y_new, i) with x_new = X u {i}, y_new = Y \\ {i} and i
    chosen by phi applied to X\\Y inside the symmetric difference.  Sizes
    shift by (+1, -1) and the multiset union of the pair is preserved.
    """
    xs, ys = _in_range(n, x), _in_range(n, y)
    if len(xs) >= len(ys):
        raise SizeViolation(f"need |X| < |Y|, got {len(xs)} >= {len(ys)}")
    delta = xs ^ ys
    (i,) = phi(delta, xs - ys) - (xs - ys)
    return (xs | {i}, ys - {i}, i)
