"""Increasing spanning forests: enumeration, generating polynomials, checks.

The generating polynomial factors as ISF(G; t) = prod_j (t + y_j), where
y_j is the sum of x_(i,j) over the smaller neighbors i of j (Hallam-Sagan).
So the k-component forests number the t^k coefficient of prod_j (t + d_j),
d_j = |{i < j : (i, j) in E}|, and `isf_counts` reads them off in O(n^2)
integer arithmetic.  Strong log-concavity is checked in the variables y_j
too: a_k = e_{n-k}(y_1, ..., y_n), and since every x_(i,j) lies in exactly
one y_j, each x-coefficient of a difference is the coefficient of its
y-image times a positive multinomial, so the two have the same signs.
Neither path builds a forest; the enumerative versions are their oracles
in the test suite.

Enumeration, for `enumerate_if`, `a_poly` and the factorization check,
follows the same structure: each vertex j independently either becomes a
root or picks one smaller neighbor as its parent.  Every choice vector
yields an increasing forest and every increasing forest arises exactly
once, so there is no generate-and-filter blowup.  The brute-force filter
over all acyclic edge subsets is kept in the test suite as an independent
oracle.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product
from typing import NamedTuple

from .errors import IndexViolation, InputError
from .graphs import Forest, OrderedGraph
from .polynomials import MultiPoly, NonnegReport, TPoly, elementary_symmetric


@lru_cache(maxsize=None)
def _forests_by_components(g: OrderedGraph) -> dict:
    """All increasing spanning forests of g, grouped by component count.

    Each group is sorted lexicographically on its sorted edge list.
    """
    choices = [[None] + g.smaller_neighbors(j) for j in range(1, g.n + 1)]
    groups: dict = {k: [] for k in range(g.n + 1)}
    for parents in product(*choices):
        edges = frozenset(
            (i, j) for j, i in enumerate(parents, start=1) if i is not None
        )
        k = g.n - len(edges)
        groups[k].append(Forest(g.n, edges))
    return {
        k: tuple(sorted(fs, key=Forest.sort_key)) for k, fs in groups.items()
    }


def enumerate_if(g: OrderedGraph, k: int) -> list:
    """Increasing spanning forests of g with exactly k components."""
    if not 0 <= k <= g.n:
        raise InputError(f"need 0 <= k <= n={g.n}, got k={k}")
    return list(_forests_by_components(g)[k])


def a_poly(g: OrderedGraph, k: int) -> MultiPoly:
    """Generating polynomial of the k-component increasing forests."""
    if not 0 <= k <= g.n:
        raise InputError(f"need 0 <= k <= n={g.n}, got k={k}")
    return MultiPoly({f.sort_key(): 1 for f in _forests_by_components(g)[k]})


def isf_counts(g: OrderedGraph) -> tuple:
    """Increasing spanning forest counts by component number, t^0 first.

    These are the coefficients of prod_j (t + d_j), d_j the number of
    smaller neighbors of j: ISF(G; t) at every x_(i,j) = 1.
    """
    degrees = [0] * (g.n + 1)
    for _, j in g.edges:
        degrees[j] += 1
    coeffs = (1,)
    for d in degrees[1:]:
        coeffs = tuple(d * a + b for a, b in zip(coeffs + (0,), (0,) + coeffs))
    return coeffs


def isf_tpoly(g: OrderedGraph) -> TPoly:
    """The full generating polynomial in t, coefficient k = a_poly(g, k)."""
    return TPoly([a_poly(g, k) for k in range(g.n + 1)])


class FactorizationReport(NamedTuple):
    equal: bool
    lhs: TPoly
    rhs: TPoly


def isf_factorization_check(g: OrderedGraph) -> FactorizationReport:
    """Compare the enumerated t-polynomial against the product formula.

    The right-hand side is the expansion of
        prod_{j=1..n} ( t + sum_{i<j, (i,j) in E} x_(i,j) ),
    which must coincide with the enumeration for every input.
    """
    lhs = isf_tpoly(g)
    coeffs = [MultiPoly.one()]
    for j in range(1, g.n + 1):
        const = MultiPoly({((i, j),): 1 for i in g.smaller_neighbors(j)})
        nxt = [MultiPoly.zero()] * (len(coeffs) + 1)
        for d, c in enumerate(coeffs):
            nxt[d + 1] = nxt[d + 1] + c
            nxt[d] = nxt[d] + c * const
        coeffs = nxt
    rhs = TPoly(coeffs)
    return FactorizationReport(lhs == rhs, lhs, rhs)


def strong_logconcavity_check(g: OrderedGraph, p: int, q: int) -> NonnegReport:
    """Nonnegativity of a_p*a_q - a_{p-1}*a_{q+1} (coefficientwise).

    Decided on e_{n-p}*e_{n-q} - e_{n-p+1}*e_{n-q-1} in the y_j with
    d_j >= 1, whose size does not depend on |E|.  A negative term is
    reported as its x-lift: the graded-lex-first negative x-monomial of
    a_p*a_q - a_{p-1}*a_{q+1}, with its coefficient there.
    """
    if not 0 < p <= q < g.n:
        raise IndexViolation(f"need 0 < p <= q < n={g.n}, got p={p}, q={q}")
    return _lift_report(g, _y_difference(g, p, q))


def _y_difference(g: OrderedGraph, p: int, q: int) -> MultiPoly:
    """e_{n-p}*e_{n-q} - e_{n-p+1}*e_{n-q-1} in the index variables y_j.

    Only the j with a smaller neighbor carry a nonzero y_j, so the e_r are
    taken over those, with index i of `elementary_symmetric` renamed to the
    i-th of them.
    """
    js = sorted({j for _, j in g.edges})

    def e(r: int) -> MultiPoly:
        if not 0 <= r <= len(js):
            return MultiPoly.zero()
        return MultiPoly({
            tuple(js[i - 1] for i in m): c
            for m, c in elementary_symmetric(len(js), r).terms.items()
        })

    n = g.n
    return e(n - p) * e(n - q) - e(n - p + 1) * e(n - q - 1)


def _lift_report(g: OrderedGraph, ypoly: MultiPoly) -> NonnegReport:
    """nonneg_report of ypoly with y_j = sum of x_(i,j) over i < j in g.

    Every x-lift of a y-term carries its sign.  Of the lifts of y^beta the
    graded-lex-first takes the edge (min smaller neighbor of j, j) for each
    factor y_j, and its x-coefficient is the y-coefficient (multinomial 1).
    Distinct y-monomials have distinct lifts, so the first negative term
    of the lifted polynomial is the first negative x-term.
    """
    lowest = {}
    for i, j in g.edges:
        lowest[j] = min(i, lowest.get(j, i))
    return MultiPoly({
        tuple((lowest[j], j) for j in m): c for m, c in ypoly.terms.items()
    }).nonneg_report()
