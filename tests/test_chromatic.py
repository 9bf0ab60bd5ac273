import json
import tracemalloc
from math import comb
from random import Random

import pytest

import isf.chromatic
from isf import (
    Forest,
    InputError,
    NotInGraph,
    OrderedGraph,
    TPoly,
    broken_circuits,
    chromatic_polynomial,
    complete_graph,
    is_admissible_goodvertex,
    movable_edge_search,
    peo_isf_check,
    spanning_forests,
    stirling_row,
    whitney_check,
)
from isf.chromatic import apply_relabeling
from isf.cli import main
from conftest import (
    acyclic_subsets, all_edge_subsets, band_graph, enumerative_counts,
    enumerative_whitney, has_perfect_elimination_order, is_connected, is_nbc,
    orient_goodvertex, per_edge_movable_search, petersen_graph, random_graph,
    reference_broken_circuits, reference_chromatic_polynomial,
    reference_circuits, time_limit,
)

# triangle on {2,3,4} plus the pendant edge (1,4)
G33 = OrderedGraph(4, frozenset({(1, 4), (2, 4), (2, 3), (3, 4)}))
G33_RELABELED = OrderedGraph(4, frozenset({(1, 2), (2, 3), (2, 4), (3, 4)}))
K3 = complete_graph(3)
C4 = OrderedGraph(4, frozenset({(1, 2), (2, 3), (3, 4), (1, 4)}))
C5 = OrderedGraph(5, frozenset({(1, 2), (2, 3), (3, 4), (4, 5), (1, 5)}))


def test_circuits():
    # the all-paths oracle behind reference_broken_circuits
    assert reference_circuits(G33) == [frozenset({(2, 3), (2, 4), (3, 4)})]
    assert reference_circuits(K3) == [frozenset({(1, 2), (1, 3), (2, 3)})]
    assert reference_circuits(OrderedGraph(4, frozenset({(1, 2), (3, 4)}))) == []
    # four triangles, three 4-cycles
    assert len(reference_circuits(complete_graph(4))) == 7


def test_broken_circuits_conventions():
    assert broken_circuits(G33, "min") == [frozenset({(2, 4), (3, 4)})]
    assert broken_circuits(G33, "max") == [frozenset({(2, 3), (2, 4)})]
    assert broken_circuits(OrderedGraph(3, frozenset({(1, 2)})), "min") == []
    with pytest.raises(InputError):
        broken_circuits(G33, "median")
    # unhashable values are unknown conventions too, not a TypeError; the
    # CLI's choices are the only names
    for bad in (["min"], {}, None, "remove_min"):
        with pytest.raises(InputError, match="unknown convention"):
            broken_circuits(K3, bad)
        with pytest.raises(InputError, match="unknown convention"):
            whitney_check(G33, bad)


def test_circuits_match_all_paths_reference(graphs_on_5):
    # each circuit is found once, from its omitted edge; the reference
    # finds it once per edge and deduplicates
    rng = Random(23)
    sample = [random_graph(rng, n) for n in (6, 7, 8) for _ in range(20)]
    for g in [*graphs_on_5, *sample]:
        for convention in ("min", "max"):
            assert broken_circuits(g, convention) == (
                reference_broken_circuits(g, convention)
            ), (g, convention)


@pytest.mark.parametrize("convention", ["min", "max"])
def test_broken_circuits_on_long_path_search_no_edge(convention):
    # no edge of a tree closes a circuit, so no path search starts
    with time_limit(1.0):
        assert broken_circuits(_path(1500), convention) == []


@pytest.mark.parametrize("convention", ["min", "max"])
def test_broken_circuits_band_30_2_cost_per_circuit(convention):
    # a search that explores every simple path, also those that can no
    # longer close, takes minutes here; band (n, 2) has C(n - 1, 2) circuits
    g = band_graph(30, 2)
    with time_limit(1):
        found = broken_circuits(g, convention)
    assert len(found) == len(set(found)) == comb(29, 2) == 406
    extremal = min if convention == "min" else max
    for path in found:  # a tree with two leaves, closed by its extremal edge
        Forest(30, path)
        touched = [v for e in path for v in e]
        ends = tuple(sorted(v for v in touched if touched.count(v) == 1))
        assert len(set(touched)) == len(path) + 1 and len(ends) == 2, path
        assert ends in g.edges and extremal(path | {ends}) == ends, path


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
    assert chromatic_polynomial(K3) == TPoly((0, 2, -3, 1))
    assert chromatic_polynomial(G33) == TPoly((0, -2, 5, -4, 1))
    assert chromatic_polynomial(OrderedGraph(2)) == TPoly((0, 0, 1))


def _relabelings(g):
    """g reversed and under two seeded relabelings.  The seeded orders give
    the frontier DP frontiers of up to 7 vertices, against 5 for Petersen
    and 2 for the band graphs in their natural order."""
    yield apply_relabeling(g, range(g.n, 0, -1))
    for seed in (1, 2):
        yield apply_relabeling(g, Random(seed).sample(range(1, g.n + 1), g.n))


def _oracle_graphs(graphs_on_5):
    return [
        *graphs_on_5, petersen_graph(), band_graph(8, 3), band_graph(10, 2),
        *_relabelings(petersen_graph()), *_relabelings(band_graph(10, 2)),
    ]


def test_chromatic_matches_per_node_oracle(graphs_on_5):
    for g in _oracle_graphs(graphs_on_5):
        for pivot in ("first", "last"):
            assert chromatic_polynomial(g) == (
                reference_chromatic_polynomial(g, pivot)
            ), (g, pivot)


def _times_power(head, a, m):
    """Coefficients (t^0 first) of head(t) * (t - a)^m, by the binomial
    theorem; head is a coefficient tuple."""
    power = [comb(m, k) * (-a) ** (m - k) for k in range(m + 1)]
    out = [0] * (len(head) + m)
    for i, h in enumerate(head):
        for k, c in enumerate(power):
            out[i + k] += h * c
    return tuple(out)


def _path(n):
    return OrderedGraph(n, frozenset((i, i + 1) for i in range(1, n)))


def test_chromatic_band_40_2_is_fast():
    # chordal, natural order a PEO: t (t - 1) (t - 2)^38
    with time_limit(10):
        assert chromatic_polynomial(band_graph(40, 2)).coeffs == (
            _times_power((0, -1, 1), 2, 38)
        )


def test_chromatic_long_path_does_not_recurse():
    # a tree on 3000 vertices: t (t - 1)^2999
    chromatic_polynomial.cache_clear()
    with time_limit(60):
        assert chromatic_polynomial(_path(3000)).coeffs == (
            _times_power((0, 1), 1, 2999)
        )


def test_chromatic_cli_on_long_path_prints_one_report(tmp_path, capsys):
    graph = tmp_path / "path.json"
    graph.write_text(json.dumps(_path(3000).to_json()))
    chromatic_polynomial.cache_clear()
    with time_limit(60):
        status = main(["chromatic", "--graph", str(graph)])
    lines = capsys.readouterr().out.splitlines()
    assert status == 0 and len(lines) == 1
    report = json.loads(lines[0])
    assert report["ok"] and report["diagnostics"] == []
    assert tuple(report["payload"]["poly"]["coeffs"]) == (
        _times_power((0, 1), 1, 2999)
    )


def test_chromatic_edgeless_graph_is_a_power_of_t():
    n = 100_000
    with time_limit(10):
        assert chromatic_polynomial(OrderedGraph(n)).coeffs == (0,) * n + (1,)


def test_chromatic_reads_nothing_from_the_isf_side(monkeypatch):
    # check peo compares the two sides, so the chromatic side must not be
    # computed from d_j or an ISF count (the PEO test is a tests-only oracle)
    graphs = [complete_graph(5), C5, petersen_graph()]
    want = [reference_chromatic_polynomial(g) for g in graphs]

    def forbidden(*args, **kwargs):
        raise AssertionError("chromatic_polynomial read the ISF side")

    monkeypatch.setattr(isf.chromatic, "isf_counts", forbidden)
    monkeypatch.setattr(OrderedGraph, "smaller_neighbors", forbidden)
    chromatic_polynomial.cache_clear()
    assert [chromatic_polynomial(g) for g in graphs] == want


def test_whitney_matches_enumerative_oracle(graphs_on_5):
    for g in _oracle_graphs(graphs_on_5):
        for convention in ("min", "max"):
            assert whitney_check(g, convention) == (
                enumerative_whitney(g, convention)
            ), (g, convention)


def _whitney_without(monkeypatch, names, message):
    # whitney_check agrees with the oracle while each name raises message
    graphs = [petersen_graph(), band_graph(8, 3)]
    want = [
        (g, c, enumerative_whitney(g, c)) for g in graphs for c in ("min", "max")
    ]

    def forbidden(*args, **kwargs):
        raise AssertionError(message)

    for name in names:
        monkeypatch.setattr(isf.chromatic, name, forbidden)
    for g, convention, report in want:
        assert whitney_check(g, convention) == report, (g, convention)


def test_whitney_lists_no_circuit(monkeypatch):
    _whitney_without(monkeypatch,
                     ["broken_circuits", "_circuit_paths"],
                     "whitney_check listed circuits")


def test_whitney_reads_no_label_tuple(monkeypatch):
    # its states are blocks of live vertices, not labels over all of 1..n
    _whitney_without(monkeypatch, ["_joined"], "whitney_check read a label tuple")


@pytest.mark.parametrize("convention", ["min", "max"])
def test_whitney_nbc_pass_on_long_path_costs_the_frontier(monkeypatch,
                                                          convention):
    # on a path at most two vertices are live, so a step costs its count
    # vector, not n; the chromatic side, t (t - 1)^(n - 1), is stubbed
    n = 1500
    path = _path(n)
    coeffs = [0] + [(-1) ** (n - k) * comb(n - 1, k - 1) for k in range(1, n + 1)]
    monkeypatch.setattr(isf.chromatic, "chromatic_polynomial",
                        lambda g: TPoly(coeffs))
    with time_limit(0.5):
        rep = whitney_check(path, convention)
    assert rep.equal and rep.counts == [abs(c) for c in coeffs]


def test_whitney_k8_is_the_stirling_row():
    # unsigned Stirling numbers of the first kind c(8, k), k = 0..8
    row = [0, 5040, 13068, 13132, 6769, 1960, 322, 28, 1]
    with time_limit(2):
        rep = whitney_check(complete_graph(8), "min")
    assert rep.counts == row and rep.equal


def test_whitney_k9_is_the_stirling_row():
    row = list(stirling_row(9).unsigned)
    for convention in ("min", "max"):
        with time_limit(10):
            rep = whitney_check(complete_graph(9), convention)
        assert rep.counts == row and rep.equal, convention


def test_whitney_cli_on_long_path_prints_one_report(tmp_path, capsys):
    # a tree: every forest is NBC, C(n - 1, n - k) of them with k components
    n = 1100
    graph = tmp_path / "path.json"
    graph.write_text(json.dumps(_path(n).to_json()))
    with time_limit(60):
        status = main(["check", "whitney", "--graph", str(graph)])
    lines = capsys.readouterr().out.splitlines()
    assert status == 0 and len(lines) == 1
    report = json.loads(lines[0])
    assert report["ok"] and report["diagnostics"] == []
    want = [comb(n - 1, n - k) for k in range(n + 1)]
    assert report["payload"]["counts"] == report["payload"]["coeffs"] == want


def test_admissible_matches_orient_oracle():
    for g in [*all_edge_subsets(4), complete_graph(5)]:
        for f in spanning_forests(g):
            assert is_admissible_goodvertex(g, f) == orient_goodvertex(g, f), (
                g, f,
            )


def test_movable_search_matches_per_edge_oracle(graphs_on_5):
    sample = Random(14).sample(graphs_on_5, 64)
    for g in [*all_edge_subsets(4), complete_graph(5), *sample]:
        assert movable_edge_search(g) == per_edge_movable_search(g), g
    for perm in ([1, 3, 4, 2], [4, 3, 2, 1]):
        assert movable_edge_search(G33, perm) == (
            per_edge_movable_search(G33, perm)
        )


def test_movable_search_matches_oracle_on_sparse_6_vertex_graphs():
    # 822 failures in all: they must come out in the forests' sorted order,
    # and only for an edge e of A with A - e admissible may B + e serve
    edges = complete_graph(6).sorted_edges
    rng = Random(29)
    for _ in range(12):
        g = OrderedGraph(6, frozenset(rng.sample(edges, 8)))
        assert movable_edge_search(g) == per_edge_movable_search(g), g


def test_movable_search_k7_is_fast():
    # 5,040 admissible forests: visiting their 9.3 M pairs takes ~40 s
    with time_limit(5):
        assert movable_edge_search(complete_graph(7)).all_pairs_ok


def test_movable_search_k6_keeps_only_admissible_forests():
    # K6 has 2,932 spanning forests and 720 admissible ones; an edge set
    # kept for every spanning forest takes the peak to about 3.1 MB
    tracemalloc.start()
    try:
        rep = movable_edge_search(complete_graph(6))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.all_pairs_ok
    assert peak < 2e6


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


def test_spanning_forests_matches_brute_force(graphs_on_5):
    for g in [*all_edge_subsets(4), *graphs_on_5]:
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


@pytest.mark.parametrize("perm", [[True, 2, 3], [1, 2, 3.0], [2.0, 1, 3]])
@pytest.mark.parametrize("edges", [{(1, 2), (2, 3)}, set()])
def test_relabeling_rejects_labels_that_are_not_ints(perm, edges):
    # True == 1 and 3.0 == 3, so they sort like a permutation of 1..3
    g = OrderedGraph(3, frozenset(edges))
    for relabel in (apply_relabeling, movable_edge_search):
        with pytest.raises(InputError, match="is not a permutation of 1..3"):
            relabel(g, perm)


def test_peo_examples():
    rep = peo_isf_check(K3)
    assert rep.holds and rep.lhs == TPoly((0, 2, 3, 1)) == rep.rhs
    assert not peo_isf_check(C4).holds
    assert not peo_isf_check(C5).holds
    assert peo_isf_check(OrderedGraph(3)).holds


def test_peo_lhs_matches_enumeration(graphs_on_5):
    for g in graphs_on_5:
        assert peo_isf_check(g).lhs == TPoly(enumerative_counts(g))


def test_peo_iff_smaller_neighbors_form_cliques():
    # the identity holds exactly when the natural order eliminates
    # perfectly; checked wholesale on all graphs with up to 4 vertices
    for n in range(1, 5):
        for g in all_edge_subsets(n):
            assert peo_isf_check(g).holds == has_perfect_elimination_order(g)
