from collections import Counter
from math import factorial, prod

import pytest

from isf import (
    Forest,
    IndexViolation,
    InputError,
    MultiPoly,
    OrderedGraph,
    a_poly,
    complete_graph,
    enumerate_if,
    isf_counts,
    isf_factorization_check,
    isf_tpoly,
    strong_logconcavity_check,
)
from isf.enumeration import _lift_report, _y_difference
from conftest import (
    all_edge_subsets,
    brute_force_increasing_forests,
    enumerative_counts,
    x_logconcavity_difference,
    y_substituted,
)

K3 = complete_graph(3)
K4 = complete_graph(4)
PATH3 = OrderedGraph(3, frozenset({(1, 2), (2, 3)}))


def test_enumerate_k3():
    assert [f.sorted_edges for f in enumerate_if(K3, 1)] == [
        [(1, 2), (1, 3)],
        [(1, 2), (2, 3)],
    ]
    assert [f.edges for f in enumerate_if(K3, 3)] == [frozenset()]
    assert enumerate_if(K3, 0) == []


def test_enumerate_counts_k4():
    assert [len(enumerate_if(K4, k)) for k in range(1, 5)] == [6, 11, 6, 1]


def test_enumerate_rejects_bad_k():
    with pytest.raises(InputError):
        enumerate_if(K3, 4)
    with pytest.raises(InputError):
        enumerate_if(K3, -1)


def test_enumeration_matches_brute_force_oracle():
    for g in all_edge_subsets(4):
        for k in range(g.n + 1):
            assert enumerate_if(g, k) == brute_force_increasing_forests(g, k)


def test_a_poly_k3():
    assert a_poly(K3, 2) == MultiPoly(
        {((1, 2),): 1, ((1, 3),): 1, ((2, 3),): 1}
    )
    assert a_poly(K3, 1) == MultiPoly(
        {((1, 2), (1, 3)): 1, ((1, 2), (2, 3)): 1}
    )
    assert a_poly(K3, 3) == MultiPoly.one()
    assert a_poly(PATH3, 3) == MultiPoly.one()


def test_factorization_examples():
    rep = isf_factorization_check(K3)
    assert rep.equal
    # rhs = t * (t + x12) * (t + x13 + x23), hand-expanded
    x12 = MultiPoly.variable((1, 2))
    x13 = MultiPoly.variable((1, 3))
    x23 = MultiPoly.variable((2, 3))
    assert rep.rhs.coeffs[3] == MultiPoly.one()
    assert rep.rhs.coeffs[2] == x12 + x13 + x23
    assert rep.rhs.coeffs[1] == x12 * x13 + x12 * x23

    edgeless = OrderedGraph(3)
    rep = isf_factorization_check(edgeless)
    assert rep.equal
    assert rep.lhs.coeffs[3] == MultiPoly.one()
    assert all(rep.lhs.coeffs[k].is_zero() for k in range(3))

    rep = isf_factorization_check(PATH3)
    assert rep.equal


def test_factorization_all_graphs_on_4():
    for g in all_edge_subsets(4):
        assert isf_factorization_check(g).equal


def test_total_count_product_formula():
    for g in all_edge_subsets(4):
        total = sum(len(enumerate_if(g, k)) for k in range(g.n + 1))
        assert total == prod(
            1 + len(g.smaller_neighbors(j)) for j in range(1, g.n + 1)
        )


def test_isf_counts_match_enumeration(graphs_on_5):
    assert isf_counts(OrderedGraph(0)) == enumerative_counts(OrderedGraph(0)) == (1,)
    for g in graphs_on_5:
        assert isf_counts(g) == enumerative_counts(g)


def _y_image(x_monomial):
    """The y-monomial of an x-monomial, and prod_j multinomial(beta_j; alpha_.j)."""
    beta = Counter(j for _, j in x_monomial)
    multinomial = prod(factorial(b) for b in beta.values()) // prod(
        factorial(a) for a in Counter(x_monomial).values()
    )
    return tuple(sorted(beta.elements())), multinomial


def _check_logconcavity_against_x_expansion(g):
    """Same report as the enumerative x-expansion, for every 0 < p <= q < n,
    and every x-coefficient is its y-coefficient times the multinomials."""
    for p in range(1, g.n):
        for q in range(p, g.n):
            x_diff = x_logconcavity_difference(g, p, q)
            assert strong_logconcavity_check(g, p, q) == x_diff.nonneg_report()
            y_terms = _y_difference(g, p, q).terms
            images = set()
            for m, c in x_diff.terms.items():
                y_mono, multinomial = _y_image(m)
                assert c == y_terms[y_mono] * multinomial
                images.add(y_mono)
            assert images == set(y_terms)


def test_logconcavity_matches_x_expansion_all_graphs_on_5(graphs_on_5):
    for g in graphs_on_5:
        _check_logconcavity_against_x_expansion(g)


def test_logconcavity_matches_x_expansion_k6():
    _check_logconcavity_against_x_expansion(complete_graph(6))


def test_lift_report_witness_against_every_lift():
    # smaller neighbours: 2 -> {1}, 3 -> {1, 2}, 4 -> {2, 3}
    g = OrderedGraph(4, frozenset({(1, 2), (1, 3), (2, 3), (2, 4), (3, 4)}))
    y = MultiPoly.variable
    ypoly = (
        MultiPoly.const(5) * y(2) * y(3)
        - MultiPoly.const(2) * y(4) * y(4)
        - MultiPoly.const(3) * y(3) * y(4)
        + y(3) * y(3)
        - y(2) * y(4)
    )
    report = _lift_report(g, ypoly)
    assert report == y_substituted(g, ypoly).nonneg_report()
    # (1,2)(2,4) beats the lifts (1,3)(2,4), (1,3)(3,4), ... of -3*y3*y4
    assert report.witness == (((1, 2), (2, 4)), -1)
    nonneg = y(2) * y(3) + y(4) * y(4)
    assert _lift_report(g, nonneg) == y_substituted(g, nonneg).nonneg_report()
    assert _lift_report(g, nonneg).is_nonneg


def test_logconcavity_examples():
    assert strong_logconcavity_check(K3, 2, 2).is_nonneg
    assert strong_logconcavity_check(K3, 1, 1).is_nonneg
    assert strong_logconcavity_check(K4, 2, 3).is_nonneg
    with pytest.raises(IndexViolation):
        strong_logconcavity_check(K3, 0, 1)
    with pytest.raises(IndexViolation):
        strong_logconcavity_check(K3, 2, 1)
    with pytest.raises(IndexViolation):
        strong_logconcavity_check(K3, 1, 3)


def test_logconcavity_all_graphs_on_4():
    for g in all_edge_subsets(4):
        for p in range(1, g.n):
            for q in range(p, g.n):
                assert strong_logconcavity_check(g, p, q).is_nonneg


def test_tpoly_structure():
    tp = isf_tpoly(K4)
    assert tp.n == 4
    assert tp.coeffs[0].is_zero()
    assert tp.coeffs[4] == MultiPoly.one()
