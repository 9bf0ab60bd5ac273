import pytest

from isf import (
    Forest,
    InputError,
    IntPoly,
    NotInGraph,
    OrderedGraph,
    broken_circuits,
    chromatic_polynomial,
    circuits,
    complete_graph,
    has_perfect_elimination_order,
    is_admissible_goodvertex,
    is_nbc,
    movable_edge_search,
    peo_isf_check,
    spanning_forests,
    whitney_check,
)
from conftest import (
    acyclic_subsets, all_edge_subsets, enumerative_counts, is_connected,
)

# triangle on {2,3,4} plus the pendant edge (1,4)
G33 = OrderedGraph(4, frozenset({(1, 4), (2, 4), (2, 3), (3, 4)}))
G33_RELABELED = OrderedGraph(4, frozenset({(1, 2), (2, 3), (2, 4), (3, 4)}))
K3 = complete_graph(3)
C4 = OrderedGraph(4, frozenset({(1, 2), (2, 3), (3, 4), (1, 4)}))
C5 = OrderedGraph(5, frozenset({(1, 2), (2, 3), (3, 4), (4, 5), (1, 5)}))


def test_circuits():
    assert circuits(G33) == [frozenset({(2, 3), (2, 4), (3, 4)})]
    assert circuits(K3) == [frozenset({(1, 2), (1, 3), (2, 3)})]
    assert circuits(OrderedGraph(4, frozenset({(1, 2), (3, 4)}))) == []
    assert len(circuits(complete_graph(4))) == 7  # four triangles, three 4-cycles


def test_broken_circuits_conventions():
    assert broken_circuits(G33, "min") == [frozenset({(2, 4), (3, 4)})]
    assert broken_circuits(G33, "max") == [frozenset({(2, 3), (2, 4)})]
    assert broken_circuits(OrderedGraph(3, frozenset({(1, 2)})), "min") == []
    with pytest.raises(InputError):
        broken_circuits(G33, "median")


def test_good_vertex_examples():
    assert is_admissible_goodvertex(G33, Forest(4, frozenset({(1, 4), (2, 4), (3, 4)})))
    assert is_admissible_goodvertex(G33, Forest(4, frozenset({(2, 3), (3, 4)})))
    assert not is_admissible_goodvertex(G33, Forest(4, frozenset({(2, 4), (3, 4)})))
    with pytest.raises(NotInGraph):
        is_admissible_goodvertex(G33, Forest(4, frozenset({(1, 2)})))


def test_is_nbc_examples():
    a = Forest(4, frozenset({(1, 4), (2, 4), (3, 4)}))
    assert is_nbc(G33, a, "max")
    assert not is_nbc(G33, a, "min")
    assert is_nbc(G33, Forest(4), "min")


def test_chromatic_polynomials():
    assert chromatic_polynomial(K3) == IntPoly((0, 2, -3, 1))
    assert chromatic_polynomial(G33) == IntPoly((0, -2, 5, -4, 1))
    assert chromatic_polynomial(OrderedGraph(2)) == IntPoly((0, 0, 1))


def test_chromatic_pivot_independence():
    for g in all_edge_subsets(4):
        assert chromatic_polynomial(g, "first") == chromatic_polynomial(g, "last")


def test_whitney_examples():
    rep = whitney_check(G33, "min")
    assert rep.counts == [0, 2, 5, 4, 1] and rep.equal
    rep = whitney_check(K3, "min")
    assert rep.counts == [0, 2, 3, 1] and rep.equal
    rep = whitney_check(OrderedGraph(3), "min")
    assert rep.counts == [0, 0, 0, 1] and rep.equal


def test_whitney_both_conventions_all_connected_graphs_on_le_4():
    for n in range(1, 5):
        for g in all_edge_subsets(n):
            if not is_connected(g):
                continue
            assert whitney_check(g, "min").equal
            assert whitney_check(g, "max").equal


def test_goodvertex_counts_match_whitney_coeffs():
    # the branch-minimality reformulation counts the same families sizewise
    for n in range(1, 5):
        for g in all_edge_subsets(n):
            counts = [0] * (n + 1)
            for f in spanning_forests(g):
                if is_admissible_goodvertex(g, f):
                    counts[f.component_count()] += 1
            assert counts == whitney_check(g, "min").coeffs


def test_nbc_downward_closed():
    for g in all_edge_subsets(4):
        for conv in ("min", "max"):
            for f in spanning_forests(g):
                if not is_nbc(g, f, conv):
                    continue
                for e in f.edges:
                    assert is_nbc(g, Forest(f.n, f.edges - {e}), conv)


def test_spanning_forests_matches_brute_force():
    for g in all_edge_subsets(4):
        assert spanning_forests(g) == sorted(
            acyclic_subsets(g), key=Forest.sort_key
        )


def test_movable_edge_search_counterexample():
    rep = movable_edge_search(G33)
    assert not rep.all_pairs_ok
    paper_pair = (
        Forest(4, frozenset({(1, 4), (2, 4), (3, 4)})),
        Forest(4, frozenset({(2, 3), (3, 4)})),
    )
    assert paper_pair in rep.failures


def test_movable_edge_search_relabeled():
    assert movable_edge_search(G33_RELABELED).all_pairs_ok
    # same result via the relabeling argument: 1->4? find the permutation
    # mapping G33 onto G33_RELABELED: 1->1, 2->3, 3->4, 4->2
    rep = movable_edge_search(G33, relabeling=[1, 3, 4, 2])
    assert rep.all_pairs_ok


def test_movable_edge_search_trees():
    assert movable_edge_search(
        OrderedGraph(4, frozenset({(1, 4), (2, 4), (3, 4)}))
    ).all_pairs_ok
    assert movable_edge_search(
        OrderedGraph(4, frozenset({(1, 2), (2, 3), (3, 4)}))
    ).all_pairs_ok


def test_relabeling_rejects_non_permutation():
    with pytest.raises(InputError):
        movable_edge_search(G33, relabeling=[1, 1, 2, 3])


def test_peo_examples():
    rep = peo_isf_check(K3)
    assert rep.holds and rep.lhs == IntPoly((0, 2, 3, 1)) == rep.rhs
    assert not peo_isf_check(C4).holds
    assert not peo_isf_check(C5).holds
    assert peo_isf_check(OrderedGraph(3)).holds


def test_peo_lhs_matches_enumeration(graphs_on_5):
    for g in graphs_on_5:
        assert peo_isf_check(g).lhs == IntPoly(enumerative_counts(g))


def test_peo_iff_smaller_neighbors_form_cliques():
    # the identity holds exactly when the natural order eliminates
    # perfectly; checked wholesale on all graphs with up to 4 vertices
    for n in range(1, 5):
        for g in all_edge_subsets(n):
            assert peo_isf_check(g).holds == has_perfect_elimination_order(g)
