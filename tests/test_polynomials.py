from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from isf import InputError, MultiPoly, TPoly
from isf.polynomials import NonnegReport
from conftest import elementary_symmetric, variable

minus_one = MultiPoly.const(-1)

x1 = variable(1)
x2 = variable(2)
e12 = variable((1, 2))
e13 = variable((1, 3))


def test_multiply_edge_vars():
    assert e12 * e13 == MultiPoly({((1, 2), (1, 3)): 1})


def test_square_of_sum():
    assert (x1 + x2) * (x1 + x2) == MultiPoly(
        {(1, 1): 1, (1, 2): 2, (2, 2): 1}
    )


def test_zero_annihilates():
    assert MultiPoly() * (x1 + x2) == MultiPoly()
    assert MultiPoly() * (e12 + e13) == MultiPoly()


@pytest.mark.parametrize("build", [
    lambda: MultiPoly({(1,): 1, ((1, 2),): 1}),
    lambda: MultiPoly({(1, (1, 2)): 1}),
    lambda: x1 + e12,
    lambda: e12 + x1,
    lambda: x1 * e12,
    lambda: (minus_one + x1) * (minus_one + e12),
], ids=["terms", "monomial", "add", "radd", "mul", "mul-with-constants"])
def test_mixed_variable_kinds_are_refused(build):
    with pytest.raises(InputError,
                       match="^MultiPoly mixes edge and index variables$"):
        build()


def test_subtract():
    # p - q is written p + (-1) * q
    p = (x1 + x2) * (x1 + x2)
    assert p + minus_one * p == MultiPoly()
    assert p + minus_one * x1 * x2 == MultiPoly({(1, 1): 1, (1, 2): 1, (2, 2): 1})
    assert MultiPoly() + minus_one * x1 == MultiPoly({(1,): -1})


def test_nonneg_report():
    assert (x1 * x1 + x1 * x2).nonneg_report().is_nonneg
    rep = (x1 * x1 + minus_one * x1 * x2).nonneg_report()
    assert not rep.is_nonneg
    assert rep.witness == ((1, 2), -1)
    assert MultiPoly().nonneg_report() == NonnegReport(True, None)


def test_elementary_symmetric():
    # the e_r builder of the strong log-concavity oracle (conftest)
    assert elementary_symmetric(range(1, 4), 0) == MultiPoly.const(1)
    assert elementary_symmetric(range(1, 4), 2) == MultiPoly(
        {(1, 2): 1, (1, 3): 1, (2, 3): 1}
    )
    assert len(elementary_symmetric(range(1, 7), 3).terms) == comb(6, 3)
    assert not elementary_symmetric(range(1, 4), 4)


def test_elementary_symmetric_strong_logconcavity():
    # e_p * e_q - e_{p-1} * e_{q+1} is coefficientwise nonnegative
    for n in range(2, 7):
        e = lambda r: elementary_symmetric(range(1, n + 1), r)
        for p in range(1, n):
            for q in range(p, n):
                diff = e(p) * e(q) + minus_one * e(p - 1) * e(q + 1)
                assert diff.nonneg_report().is_nonneg, (n, p, q)


def polys_over(var):
    monomials = st.lists(var, max_size=3).map(tuple)
    return st.dictionaries(
        monomials, st.integers(min_value=-5, max_value=5), max_size=4
    ).map(MultiPoly)


# a polynomial holds index variables or edge variables, never both
poly_triples = st.sampled_from([
    st.integers(min_value=1, max_value=4),
    st.tuples(st.integers(1, 3), st.integers(4, 5)),
]).flatmap(lambda var: st.tuples(*[polys_over(var)] * 3))


@settings(max_examples=200, deadline=None)
@given(poly_triples)
def test_ring_axioms(triple):
    p, q, r = triple
    assert p * q == q * p
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r
    assert p + q == q + p
    assert (p + minus_one * q) + q == p


def test_json_round_trip_and_canonical_order():
    p = e12 * e12 + minus_one * e12 * e13 + MultiPoly.const(7)
    obj = p.to_json()
    read = lambda v: v if isinstance(v, int) else tuple(v)
    assert MultiPoly({
        tuple(map(read, t["vars"])): int(t["coef"]) for t in obj["terms"]
    }) == p
    degrees = [len(t["vars"]) for t in obj["terms"]]
    assert degrees == sorted(degrees)  # graded order
    assert all(isinstance(t["coef"], str) for t in obj["terms"])


def test_tpoly_invariants():
    zero = MultiPoly()
    tp = TPoly([zero, x1, MultiPoly.const(1)])
    assert len(tp.coeffs) == 3
    assert TPoly([]).coeffs == () == TPoly([zero]).coeffs  # the zero polynomial
    with pytest.raises(ValueError):
        TPoly([MultiPoly.const(1), x1])
    # a MultiPoly is false exactly when it is zero, as TPoly's checks read it
    assert not zero and not x1 + MultiPoly({(1,): -1}) and MultiPoly({(1,): -1})
