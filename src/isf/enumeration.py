"""Increasing spanning forests: enumeration, generating polynomials, checks.

The generating polynomial factors as ISF(G; t) = prod_j (t + y_j), where
y_j is the sum of x_(i,j) over the smaller neighbors i of j (Hallam-Sagan).
So the k-component forests number the t^k coefficient of prod_j (t + d_j),
d_j = |{i < j : (i, j) in E}|, and `isf_counts` reads them off in O(n^2)
integer arithmetic.  Strong log-concavity is checked in the y_j too:
a_k = e_{n-k}(y), and each x-coefficient of a difference is its y-image's
coefficient times a positive multinomial.  In e_r*e_s - e_{r+1}*e_{s-1},
r = n-p >= s = n-q, a y-monomial with a squares and b single factors has
coefficient C(b, r-a) - C(b, r+1-a), and r - a >= b/2 keeps it >= 0.  The
x-level content of the weighted statement is the edge-moving injection
psi's: the pairs outside its image weigh a_p*a_q - a_{p-1}*a_{q+1}.
Neither path builds a forest; the enumerative versions are test oracles.

Enumeration, for `enumerate_if`, `a_poly` and the factorization check,
follows the same structure: each vertex j independently either becomes a
root or picks one edge (i, j) to a smaller neighbor i.  The picks of one
choice vector are its forest's edge set, with every larger endpoint
distinct, so `Forest` accepts it without a cycle scan.  Every increasing
forest arises exactly once; the brute-force filter over all acyclic edge
subsets is the test suite's independent oracle.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product
from math import comb

from .errors import IndexViolation, InputError, InvariantViolation
from .graphs import Forest, OrderedGraph, Record
from .polynomials import MultiPoly, NonnegReport, TPoly


@lru_cache(maxsize=4)
def _forests_by_components(g: OrderedGraph) -> dict:
    """All increasing spanning forests of g, grouped by component count.

    Each group is in build order: only `enumerate_if` sorts its group.  The
    small cache spares calls for several k on one graph a second pass.
    """
    n = g.n
    choices = [[None] + [(i, j) for i in g.smaller_neighbors(j)]
               for j in range(1, n + 1)]
    groups: dict = {k: [] for k in range(n + 1)}
    for picks in product(*choices):
        edges = tuple(filter(None, picks))
        groups[n - len(edges)].append(Forest(n, edges))
    return groups


def _forests(g: OrderedGraph, k: int) -> list:
    """The k-component group of g, in build order; k is checked."""
    if type(k) is not int or not 0 <= k <= g.n:
        raise InputError(f"need 0 <= k <= n={g.n}, got k={k!r}")
    return _forests_by_components(g)[k]


def enumerate_if(g: OrderedGraph, k: int) -> list:
    """Increasing spanning forests of g with exactly k components."""
    return sorted(_forests(g, k), key=Forest.sort_key)


def a_poly(g: OrderedGraph, k: int) -> MultiPoly:
    """Generating polynomial of the k-component increasing forests."""
    return MultiPoly({f.sort_key(): 1 for f in _forests(g, k)})


def isf_counts(g: OrderedGraph) -> tuple:
    """Increasing spanning forest counts by component number, t^0 first.

    These are the coefficients of prod_j (t + d_j), d_j the number of
    smaller neighbors of j: ISF(G; t) at every x_(i,j) = 1.
    """
    degrees = [0] * (g.n + 1)
    for _, j in g.edges:
        degrees[j] += 1
    return _product_counts(degrees[1:])


def _product_counts(factors, one=1, zero=0) -> tuple:
    """Coefficients of prod_j (t + f_j) over the sequence f, t^0 first:
    ints by default, or MultiPolys with their own one and zero."""
    coeffs = (one,)
    for f in factors:
        coeffs = tuple(f * a + b for a, b in zip(coeffs + (zero,), (zero,) + coeffs))
    return coeffs


def isf_tpoly(g: OrderedGraph) -> TPoly:
    """The full generating polynomial in t, coefficient k = a_poly(g, k)."""
    return TPoly([a_poly(g, k) for k in range(g.n + 1)])


class FactorizationReport(Record):
    _fields = ("equal", "lhs", "rhs")


def isf_factorization_check(g: OrderedGraph) -> FactorizationReport:
    """Compare the enumerated t-polynomial against the product formula.

    The right-hand side, prod_j (t + sum_{i<j, (i,j) in E} x_(i,j))
    expanded, must coincide with the enumeration for every input.
    """
    lhs = isf_tpoly(g)
    y = [MultiPoly({((i, j),): 1 for i in g.smaller_neighbors(j)})
         for j in range(1, g.n + 1)]
    rhs = TPoly(_product_counts(y, MultiPoly.const(1), MultiPoly()))
    return FactorizationReport(lhs == rhs, lhs, rhs)


def strong_logconcavity_check(g: OrderedGraph, p: int, q: int) -> NonnegReport:
    """Nonnegativity of a_p*a_q - a_{p-1}*a_{q+1} (coefficientwise).

    Visits the classes (a, b), a squares and b single y_j with d_j >= 1, of
    e_r*e_s - e_{r+1}*e_{s-1}: C(b, r-a) - C(b, r+1-a) >= 0 as r - a >= b/2,
    and each x-coefficient is a positive multiple of its class's.  So the
    result is proved, or a negative class raises InvariantViolation.
    """
    if {type(p), type(q)} != {int} or not 0 < p <= q < g.n:
        raise IndexViolation(f"need 0 < p <= q < n={g.n}, got p={p!r}, q={q!r}")
    size = len({j for _, j in g.edges})
    r, s = g.n - p, g.n - q
    for a in range(min(s, size) + 1):
        b = r + s - 2 * a
        if a + b <= size and (c := _class_coefficient(r, a, b)) < 0:
            raise InvariantViolation(f"class a={a}, b={b} has coefficient {c}")
    return NonnegReport(True, None)


def _class_coefficient(r: int, a: int, b: int) -> int:
    """Of y^beta with a twos and b ones: r - a of the ones go to e_r."""
    return comb(b, r - a) - comb(b, r + 1 - a)
