from collections import Counter
from itertools import product
from math import comb, factorial, prod

import pytest

from isf import (
    Forest,
    IndexViolation,
    InputError,
    InvariantViolation,
    MultiPoly,
    OrderedGraph,
    SizeViolation,
    a_poly,
    complete_graph,
    enumerate_if,
    isf_counts,
    isf_factorization_check,
    isf_tpoly,
    strong_logconcavity_check,
    subset_pair_map,
)
import isf.graphs
import isf.enumeration
from isf.enumeration import _class_coefficient, _forests_by_components
from isf.injection import verify_psi
from isf.polynomials import NonnegReport
from conftest import (
    _y_difference,
    all_edge_subsets,
    brute_force_increasing_forests,
    enumerative_counts,
    variable,
    x_logconcavity_difference,
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


def test_a_poly_rejects_bad_k():
    for k in 4, -1:
        with pytest.raises(InputError, match=f"need 0 <= k <= n=3, got k={k}"):
            a_poly(K3, k)


NON_INT_INDICES = [
    (enumerate_if, (K3, True), InputError),
    (enumerate_if, (K3, 1.0), InputError),
    (enumerate_if, (K3, 1.5), InputError),
    (a_poly, (K3, 1.5), InputError),
    (a_poly, (K3, False), InputError),
    (verify_psi, (K3, 0.5, 2), SizeViolation),
    (verify_psi, (K3, False, True), SizeViolation),
    (verify_psi, (K3, 1, 2.0), SizeViolation),
    (strong_logconcavity_check, (K3, 1.5, 2), IndexViolation),
    (strong_logconcavity_check, (K3, True, 2), IndexViolation),
    (strong_logconcavity_check, (K3, 1, 2.0), IndexViolation),
    (subset_pair_map, (2.5, [1], [1, 2]), InputError),
    (subset_pair_map, (True, [], [1]), InputError),
    (subset_pair_map, (2.0, [], [1]), InputError),
    (subset_pair_map, (-1, [], [1]), InputError),
]


@pytest.mark.parametrize(
    "func, args, error", NON_INT_INDICES,
    ids=[f"{f.__name__}{tuple(a for a in args if a is not K3)}"
         for f, args, _ in NON_INT_INDICES],
)
def test_index_arguments_must_be_ints(func, args, error):
    # True == 1 and 2.0 == 2, so only a type test refuses them; a
    # non-integral float used to surface as a bare KeyError or TypeError
    with pytest.raises(error) as caught:
        func(*args)
    assert type(caught.value) is error


def test_only_enumerate_if_sorts_its_group(monkeypatch):
    # the cached groups keep build order: enumerate_if sorts the one group
    # it returns, and a_poly only reads each forest's key for its monomial
    real_key, keyed = Forest.sort_key, []

    def counting_key(f):
        keyed.append(f)
        return real_key(f)

    monkeypatch.setattr(Forest, "sort_key", counting_key)
    k6 = complete_graph(6)
    _forests_by_components.cache_clear()
    forests = enumerate_if(k6, 2)
    assert len(keyed) == len(forests) == 274
    assert [f.sorted_edges for f in forests] == sorted(
        f.sorted_edges for f in forests)
    keyed.clear()
    _forests_by_components.cache_clear()
    tpoly = isf_tpoly(k6)
    assert len(keyed) == 720
    assert tpoly.coeffs[2] == MultiPoly({tuple(f.edges): 1 for f in forests})


def test_enumeration_matches_brute_force_oracle():
    for g in all_edge_subsets(4):
        for k in range(g.n + 1):
            assert enumerate_if(g, k) == brute_force_increasing_forests(g, k)


def test_enumeration_and_psi_never_scan_for_circuits(monkeypatch):
    # every enumerated forest has distinct larger endpoints, so Forest
    # accepts it without the relabeling scan for a circuit
    def refuse(label, i, j):
        raise RuntimeError("cycle scan reached")

    monkeypatch.setattr(isf.graphs, "_joined", refuse)
    with pytest.raises(RuntimeError, match="cycle scan reached"):
        Forest(3, frozenset({(1, 3), (2, 3)}))
    _forests_by_components.cache_clear()
    k6 = complete_graph(6)
    assert tuple(len(enumerate_if(k6, k)) for k in range(7)) == isf_counts(k6)
    report = verify_psi(complete_graph(5), 2, 3)
    assert report.injective and report.total_pairs == 50 * 35


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
    x12, x13, x23 = variable((1, 2)), variable((1, 3)), variable((2, 3))
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


def _class_mismatches(coefficient, graphs):
    """Every (g, p, q, y-monomial) on which coefficient(r, a, b) differs from
    the oracle, over all beta in {0, 1, 2}^J of degree r + s."""
    out = []
    for g in graphs:
        js = sorted({j for _, j in g.edges})
        for p in range(1, g.n):
            for q in range(p, g.n):
                r, s = g.n - p, g.n - q
                terms = _y_difference(g, p, q).terms
                for beta in product((0, 1, 2), repeat=len(js)):
                    if sum(beta) != r + s:
                        continue
                    mono = tuple(j for j, k in zip(js, beta) for _ in range(k))
                    c = coefficient(r, beta.count(2), beta.count(1))
                    if c != terms.pop(mono, 0):
                        out.append((g, p, q, mono))
                assert not terms  # the oracle has no term outside {0, 1, 2}^J
    return out


def test_class_coefficient_matches_oracle_all_graphs_on_5(graphs_on_5):
    assert _class_mismatches(_class_coefficient, graphs_on_5) == []


def test_off_by_one_class_coefficient_fails_the_oracle(graphs_on_5):
    def shifted(r, a, b):
        return comb(b, r - a) - comb(b, r + 2 - a)

    assert _class_mismatches(shifted, graphs_on_5)


def test_negative_class_raises_and_names_it(monkeypatch):
    # smaller neighbours: 2 -> {1}, 3 -> {1, 2}, 4 -> {2, 3}, 5 -> {3, 4};
    # at p = q = 2 the classes (a, b) are (2, 2) and (3, 0)
    g = OrderedGraph(5, frozenset(
        {(1, 2), (1, 3), (2, 3), (2, 4), (3, 4), (3, 5), (4, 5)}
    ))

    def negate_one_class(r, a, b):
        return -1 if (a, b) == (2, 2) else _class_coefficient(r, a, b)

    monkeypatch.setattr(isf.enumeration, "_class_coefficient", negate_one_class)
    with pytest.raises(InvariantViolation) as err:
        strong_logconcavity_check(g, 2, 2)
    assert str(err.value) == "class a=2, b=2 has coefficient -1"
    # a class with no monomial in the graph is never read: (2, 2) needs |J| >= 4
    small = OrderedGraph(5, frozenset({(1, 2), (1, 3), (2, 3)}))
    assert strong_logconcavity_check(small, 2, 2) == NonnegReport(True, None)


def test_logconcavity_multiplies_no_polynomials(monkeypatch):
    def refuse(self, other):
        raise RuntimeError("MultiPoly product reached")

    monkeypatch.setattr(MultiPoly, "__mul__", refuse)
    report = strong_logconcavity_check(complete_graph(40), 20, 20)
    assert report == NonnegReport(True, None)


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
