import re
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from isf import (
    CyclicInput,
    Forest,
    InputError,
    OrderedGraph,
    complete_graph,
    enumerate_if,
    psi,
    spanning_forests,
)
from isf.enumeration import _forests_by_components
from conftest import (
    acyclic_subsets, random_graph, reference_branch, reference_circuit_edge,
    reference_parent, reference_validated_edges,
    time_limit, union_find_components,
)

F1 = Forest(9, frozenset({(1, 2), (1, 4), (4, 7), (4, 9), (3, 5), (3, 6), (6, 8)}))
F2_EDGES = {(1, 2), (1, 8), (7, 8), (8, 9), (3, 5), (3, 6), (4, 6)}


def test_graph_rejects_bad_edges():
    with pytest.raises(InputError, match=r"\(3,2\)"):
        OrderedGraph(3, frozenset({(3, 2)}))
    with pytest.raises(InputError, match=r"\(1,4\)"):
        OrderedGraph(3, frozenset({(1, 4)}))
    with pytest.raises(InputError):
        OrderedGraph(2, frozenset({(1, 1)}))


@pytest.mark.parametrize("cls, edge, shown", [
    (Forest, 5, "5"),
    (OrderedGraph, None, "None"),
    (Forest, None, "None"),
    (OrderedGraph, 5, "5"),
    (Forest, (1, 2, 3), "(1, 2, 3)"),
])
def test_non_edge_is_a_malformed_edge(cls, edge, shown):
    # a non-iterable edge is reported like a wrong-length one
    with pytest.raises(InputError, match=re.escape(f"malformed edge {shown}")):
        cls(3, [edge])


def test_forest_rejects_circuit():
    with pytest.raises(CyclicInput):
        Forest(3, frozenset({(1, 2), (1, 3), (2, 3)}))


@st.composite
def edge_sets(draw):
    """(n, edges) with up to n + 1 edges: forests, increasing or not, and
    sets with circuits."""
    n = draw(st.integers(0, 7))
    pairs = [(i, j) for j in range(2, n + 1) for i in range(1, j)]
    if not pairs:
        return n, frozenset()
    return n, draw(st.frozensets(st.sampled_from(pairs), max_size=n + 1))


@settings(max_examples=400, deadline=None)
@given(edge_sets())
def test_forest_matches_union_find_oracle(case):
    n, edges = case
    as_json = {"n": n, "edges": [list(e) for e in edges]}
    circuit = reference_circuit_edge(n, edges)
    if circuit is not None:
        message = "edge ({},{}) closes a circuit".format(*circuit)
        for build in (lambda: Forest(n, edges), lambda: Forest.from_json(as_json)):
            with pytest.raises(CyclicInput) as exc:
                build()
            assert str(exc.value) == message
        return
    f = Forest(n, edges)
    assert Forest.from_json(as_json) == f
    assert f.sort_key() == tuple(sorted(edges))
    parent = reference_parent(f)
    if all(parent[v] < v for v in range(1, n + 1)):
        choice = [0] * (n + 1)
        for i, j in edges:
            choice[j] = i
        built = Forest.from_parent(choice)
        assert built == f and f.parent == built.parent


def test_orient_star():
    f = Forest(3, frozenset({(1, 2), (1, 3)}))
    assert f.parent == reference_parent(f) == (0, 0, 1, 1)
    assert f.minima == frozenset({1})


def test_orient_empty():
    f = Forest(3)
    assert f.parent == reference_parent(f) == (0, 0, 0, 0)
    assert f.minima == frozenset({1, 2, 3})


def test_orient_worked_forest():
    assert F1.parent == reference_parent(F1)
    assert F1.minima == frozenset({1, 3})
    assert F1.parent[7] == 4 and F1.parent[9] == 4 and F1.parent[8] == 6


def test_is_increasing():
    assert F1.increasing
    assert not Forest(9, frozenset(F2_EDGES)).increasing
    assert Forest(3).increasing


def test_component_minima():
    assert F1.minima == frozenset({1, 3})
    assert Forest(4).minima == frozenset({1, 2, 3, 4})
    assert Forest(3, frozenset({(2, 3)})).minima == frozenset({1, 2})


def test_minima_plus_edges_is_n():
    # over all forests of K_4
    for f in acyclic_subsets(complete_graph(4)):
        assert len(f.minima) + len(f.edges) == f.n


def test_edge_removal_preserves_increasing():
    for f in acyclic_subsets(complete_graph(5)):
        if not f.increasing:
            continue
        for e in f.edges:
            assert Forest(f.n, f.edges - {e}).increasing


def test_orient_deterministic():
    a = Forest(F1.n, F1.edges)  # a separate copy, rooted afresh
    assert a.parent == F1.parent == reference_parent(a)


def test_branch():
    assert reference_branch(F1.parent, 4) == frozenset({4, 7, 9})
    assert reference_branch(F1.parent, 3) == frozenset({3, 5, 6, 8})
    assert reference_branch(reference_parent(F1), 4) == frozenset({4, 7, 9})


def test_json_round_trip():
    g = OrderedGraph(4, frozenset({(1, 4), (2, 3)}))
    assert OrderedGraph.from_json(g.to_json()) == g
    assert Forest.from_json(F1.to_json()) == F1
    # to_json writes fresh lists: editing its output leaves the forest as it was
    f = Forest(4, frozenset({(2, 3), (1, 2), (1, 4)}))
    g = enumerate_if(complete_graph(4), 1)[0]
    h = Forest.from_parent([0, 0, 1, 1, 3])
    for forest in (f, g, h):
        key = forest.sort_key()
        first = forest.to_json()
        js = forest.to_json()
        js["edges"].append([3, 4])
        js["edges"][0].append(9)
        js["edges"].reverse()
        assert forest.sort_key() == key == tuple(sorted(forest.edges))
        assert forest.to_json() == first
        assert first["edges"] == [list(e) for e in key]


def test_json_rejects_with_diagnostic():
    with pytest.raises(InputError, match=r"\(2,5\)"):
        OrderedGraph.from_json({"n": 4, "edges": [[2, 5]]})
    for cls in (OrderedGraph, Forest):
        with pytest.raises(InputError, match=r"^edge \(2,3\) is repeated$"):
            cls.from_json({"n": 3, "edges": [[2, 3], [1, 2], [2, 3]]})


def test_parent_matches_bfs_reference_on_k5():
    forests = acyclic_subsets(complete_graph(5))
    assert len(forests) == 291
    assert any(not f.increasing for f in forests)
    for f in forests:
        assert f.parent == reference_parent(f), sorted(f.edges)


def test_parent_worked_forests():
    assert F1.parent == (0, 0, 1, 0, 1, 3, 3, 4, 6, 4)
    # non-increasing: 8 hangs below 1 and 7, 9 hang below 8
    assert Forest(9, frozenset(F2_EDGES)).parent == (0, 0, 1, 0, 6, 3, 3, 8, 1, 8)
    assert Forest(0).parent == (0,)


def test_from_parent_round_trip():
    # every ISF of K5 and of one seeded graph, against a freshly validated
    # Forest whose rooted data is computed from its edges
    for g in [complete_graph(5), random_graph(Random(20261018), 7)]:
        for k in range(g.n + 1):
            for f in enumerate_if(g, k):
                built = Forest.from_parent(f.parent)
                fresh = Forest(f.n, f.edges)
                assert built == fresh and hash(built) == hash(fresh)
                assert built.parent == fresh.parent
                assert built.minima == fresh.minima
                assert built.increasing and fresh.increasing


def test_from_parent_rejects_non_increasing_vectors():
    # each edge (parent[v], v) goes through Forest's loop, which rejects it
    for bad, edge in [((0, 1), "(1,1)"), ((0, 0, 2), "(2,2)"),
                      ((0, 0, 3, 0), "(3,2)"), ((0, -1), "(-1,1)")]:
        with pytest.raises(InputError, match=re.escape(f"edge {edge} violates")):
            Forest.from_parent(bad)


def test_from_parent_rejects_malformed_vectors():
    # (5, 0, 1) would otherwise read as a 2-vertex forest with edge (5, 0)
    for bad in [(5, 0, 1), (), [1, 0], (None,)]:
        with pytest.raises(InputError, match="must be ints from 0"):
            Forest.from_parent(bad)
    f = Forest.from_parent([0, 0, 1])
    assert type(f.parent) is tuple and f.parent == (0, 0, 1)
    assert f == Forest(2, frozenset({(1, 2)}))
    # every entry must be an int, as every edge endpoint of Forest(...) is:
    # True == 1 would build the edge (True, 2), 1.5 the edge (1.5, 3)
    with pytest.raises(InputError, match="malformed edge"):
        Forest(2, [(True, 2)])
    # (0, False) would otherwise read False as 0, a root
    for bad in [[False, 0, 1], (0.0, 0, 1), [0, 0, True], (0, 0, 1, 1.5),
                [0, 0, 1, "a"], (0, False)]:
        with pytest.raises(InputError, match="must be ints from 0"):
            Forest.from_parent(bad)


def test_cached_rooted_data_matches_bfs_reference_on_k5():
    forests = acyclic_subsets(complete_graph(5))
    assert len(forests) == 291
    for f in forests:
        parent = reference_parent(f)
        assert f.minima == frozenset(v for v in range(1, 6) if not parent[v])
        assert f.increasing == all(parent[v] < v for v in range(1, 6))
        assert {"minima", "increasing"} <= set(vars(f))


def test_components_match_union_find_oracle():
    # psi reads j's component in A and in B, and i0, off the parent vectors;
    # on random increasing forests, from vectors and from edges, each
    # trace's A_comp, B_comp and i0 agree with union-find over the edges
    rng = Random(2026)
    traces = 0
    for n in range(2, 13):
        kn = complete_graph(n)
        vectors = [[0, *(rng.randrange(v) for v in range(1, n + 1))]
                   for _ in range(8)]
        forests = [Forest.from_parent(p) for p in vectors]
        forests += [Forest(n, f.edges) for f in forests]
        for a in forests:
            for b in forests:
                if a.component_count() >= b.component_count():
                    continue
                tr = psi(kn, a, b)
                comp_a = union_find_components(n, a.edges)[tr.j]
                assert tr.A_comp == comp_a and tr.i0 == min(comp_a), (a, b)
                assert tr.B_comp == union_find_components(n, b.edges)[tr.j]
                traces += 1
    assert traces > 800


def test_components_are_linear_in_n():
    # a long path is the deepest rooted tree, and n singletons the most
    # components; walking each vertex to its root, or scanning all
    # vertices once per component, takes many seconds on either, where
    # psi's one forward pass over each vector takes milliseconds
    n = 20000
    path = [(v, v + 1) for v in range(1, n)]
    g, a, b = OrderedGraph(n, path), Forest(n, path), Forest(n)
    with time_limit(1):
        tr = psi(g, a, b)
    assert tr.A_comp == frozenset(range(1, n + 1)) and tr.i0 == 1
    assert tr.B_comp == {tr.j} and tr.e == (tr.j - 1, tr.j)


def test_parent_is_lazy_and_outside_equality():
    _forests_by_components.cache_clear()  # other tests may have used them
    for f in enumerate_if(complete_graph(4), 2):
        assert "parent" not in vars(f)
    f = Forest(3, frozenset({(1, 3)}))
    g = Forest(3, frozenset({(1, 3)}))
    assert f.parent == (0, 0, 0, 1)
    assert "parent" in vars(f) and "parent" not in vars(g)
    assert f == g and hash(f) == hash(g)


def test_from_parent_rejects_non_iterables():
    for bad in [5, None]:
        with pytest.raises(InputError, match=f"^parent vector {bad} is not iterable$"):
            Forest.from_parent(bad)


def test_edges_frozenset_is_built_on_first_read():
    _forests_by_components.cache_clear()  # other tests may have read edges
    forests = [
        *enumerate_if(complete_graph(4), 2),
        Forest.from_parent((0, 0, 1, 1, 3)),
        Forest(4, ((1, 3), (1, 2), (3, 4))),
    ]
    for f in forests:
        assert "edges" not in vars(f) and list(vars(f))[:2] == ["n", "_sorted_edges"]
        assert f.edges == frozenset(f.sort_key()) and "edges" in vars(f)


def test_every_input_form_gives_one_forest():
    edges = [(3, 4), (1, 2), (2, 5), (1, 3)]
    forests = [
        Forest(5, frozenset(edges)),
        Forest(5, edges + [[1, 2]]),
        Forest(5, (e for e in edges)),
        Forest.from_parent([0, 0, 1, 1, 3, 2]),
    ]
    for f in forests:
        assert f.sort_key() == ((1, 2), (1, 3), (2, 5), (3, 4))
        assert f == forests[0] and hash(f) == hash(forests[0])
        assert repr(f) == repr(forests[0])


@pytest.mark.parametrize("edges, error, message", [
    ([(1, 2), (1, 2, 3)], InputError, "malformed edge (1, 2, 3)"),
    ([(1, 2), (2, 5)], InputError, "edge (2,5) violates 1 <= i < j <= n with n=4"),
    ([(True, 2)], InputError, "malformed edge (True, 2)"),
    ([(1, 2), (1, 3.0)], InputError, "malformed edge (1, 3.0)"),
    ([(1, 2), (2, 3), (1, 3), (3, 4)], CyclicInput, "edge (2,3) closes a circuit"),
], ids=["malformed", "out-of-range", "bool", "float", "circuit"])
def test_forest_errors_keep_type_and_message(edges, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        Forest(4, edges)


@st.composite
def edge_lists(draw):
    """(n, edges) with valid, repeated and reversed pairs, circuits,
    increasing and non-increasing forests, and some malformed items."""
    n = draw(st.integers(0, 6))
    end = st.integers(-1, n + 1)
    shape = draw(st.sampled_from(["pairs", "mixed", "increasing", "path"]))
    if shape == "increasing":  # from a parent vector, so no larger end repeats
        picks = [draw(st.integers(0, v - 1)) for v in range(1, n + 1)]
        return n, [(p, v) for v, p in enumerate(picks, 1) if p]
    if shape == "path":  # a path through a vertex order, maybe closed
        order = draw(st.permutations(range(1, n + 1)))
        path = list(zip(order, order[1:]))
        if draw(st.booleans()) and n >= 3:
            path.append((order[-1], order[0]))
        return n, [(min(e), max(e)) for e in path]
    pair = st.tuples(st.integers(1, max(n, 1)), st.integers(1, max(n, 1)))
    ordered = pair.map(lambda e: (min(e), max(e)))
    items = [ordered, ordered.map(list)]
    if shape == "mixed":
        items += [
            pair, st.tuples(end, end), st.tuples(end, end, end),
            st.integers(), st.none(), st.text(max_size=3),
            st.tuples(st.booleans(), end),
            st.tuples(end, st.sampled_from([2.0, 0.5])),
        ]
    return n, draw(st.lists(st.one_of(items), max_size=8))


def _outcome(build):
    try:
        return build()
    except InputError as exc:  # CyclicInput included
        return type(exc), str(exc)


@settings(max_examples=400, deadline=None)
@given(edge_lists())
def test_one_loop_validator_matches_two_pass_oracle(case):
    n, edges = case
    for cls, acyclic in ((OrderedGraph, False), (Forest, True)):
        got = _outcome(lambda: cls(n, edges).sort_key())
        assert got == _outcome(lambda: reference_validated_edges(n, edges, acyclic))


def test_increasing_is_distinct_larger_endpoints_on_k6():
    forests = spanning_forests(complete_graph(6))
    assert len(forests) == 2932
    for f in forests:
        larger = [j for _, j in f.sort_key()]
        assert f.increasing == (len(set(larger)) == len(larger))
    assert sum(f.increasing for f in forests) == 720
