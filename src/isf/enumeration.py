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
from itertools import combinations, product
from math import comb

from .errors import IndexViolation, InputError
from .graphs import Forest, OrderedGraph, Record
from .polynomials import MultiPoly, NonnegReport, TPoly


@lru_cache(maxsize=4)
def _forests_by_components(g: OrderedGraph) -> dict:
    """All increasing spanning forests of g, grouped by component count.

    Each group is sorted on its sorted edge lists.  The small cache spares
    `enumerate_if`/`a_poly` calls for several k on one graph a second pass.
    """
    n = g.n
    choices = [
        [None] + [(i, j) for i in g.smaller_neighbors(j)] for j in range(1, n + 1)
    ]
    groups: dict = {k: [] for k in range(n + 1)}
    for picks in product(*choices):
        edges = tuple(filter(None, picks))
        groups[n - len(edges)].append(Forest(n, edges))
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


class FactorizationReport(Record):
    _fields = ("equal", "lhs", "rhs")


def isf_factorization_check(g: OrderedGraph) -> FactorizationReport:
    """Compare the enumerated t-polynomial against the product formula.

    The right-hand side, prod_j (t + sum_{i<j, (i,j) in E} x_(i,j))
    expanded, must coincide with the enumeration for every input.
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

    Visits the classes (a, b), a squares and b single y_j with d_j >= 1, of
    e_r*e_s - e_{r+1}*e_{s-1}: C(b, r-a) - C(b, r+1-a) >= 0 as r - a >= b/2.
    A negative class would list its monomials and report their x-lift: the
    graded-lex-first negative x-monomial, with its coefficient there.
    """
    if not 0 < p <= q < g.n:
        raise IndexViolation(f"need 0 < p <= q < n={g.n}, got p={p}, q={q}")
    js = sorted({j for _, j in g.edges})
    r, s = g.n - p, g.n - q
    negative = {}
    for a in range(min(s, len(js)) + 1):
        b = r + s - 2 * a
        if a + b <= len(js) and (c := _class_coefficient(r, a, b)) < 0:
            for twos in combinations(js, a):
                for ones in combinations([j for j in js if j not in twos], b):
                    negative[twos * 2 + ones] = c
    return _lift_report(g, MultiPoly(negative))


def _class_coefficient(r: int, a: int, b: int) -> int:
    """Of y^beta with a twos and b ones: r - a of the ones go to e_r."""
    return comb(b, r - a) - comb(b, r + 1 - a)


def _lift_report(g: OrderedGraph, ypoly: MultiPoly) -> NonnegReport:
    """nonneg_report of ypoly with y_j = sum of x_(i,j) over i < j in g.

    Every x-lift of a y-term carries its sign.  The graded-lex-first lift
    of y^beta takes (min smaller neighbor of j, j) for each factor y_j, with
    multinomial 1, and distinct y-monomials have distinct lifts, so the
    first negative lifted term is the first negative x-term.
    """
    lowest = {}
    for i, j in g.edges:
        lowest[j] = min(i, lowest.get(j, i))
    return MultiPoly({
        tuple((lowest[j], j) for j in m): c for m, c in ypoly.terms.items()
    }).nonneg_report()
