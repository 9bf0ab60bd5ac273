import json
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path
from random import Random

import pytest

import isf
from isf import (
    Forest,
    InputError,
    InvariantViolation,
    NotIncreasing,
    NotInGraph,
    OrderedGraph,
    SizeViolation,
    complete_graph,
    enumerate_if,
    phi,
    phi_reversed,
    psi,
    verify_psi,
)
from isf.brackets import _phi
from conftest import (
    all_edge_subsets, edge_set_psi, edge_set_verdicts, max_outside, random_graph,
    reference_parent,
)

K2 = complete_graph(2)
K3 = complete_graph(3)
K4 = complete_graph(4)


def replace(tr, **changes):
    """A new trace: tr's fields, with the given ones changed."""
    return type(tr)(**{name: getattr(tr, name) for name in tr._fields} | changes)


def test_psi_selects_j_examples():
    # m(A) = {1}, m(B) = {1, 2, 3}
    a = Forest(3, frozenset({(1, 2), (2, 3)}))
    assert psi(K3, a, Forest(3)).j == 3
    # m(A) = {1, 4}, m(B) = {1, 2, 3}
    a = Forest(4, frozenset({(1, 2), (1, 3)}))
    assert psi(K4, a, Forest(4, frozenset({(1, 4)}))).j == 3
    # m(A) - m(B) empty and m(A) ^ m(B) one vertex, which is j; every
    # forest on n >= 1 vertices has the root 1, so m(A) = {} cannot occur
    assert psi(K2, Forest(2, frozenset({(1, 2)})), Forest(2)).j == 2
    # |m(A)| = |m(B)| = 2
    a, b = Forest(3, frozenset({(1, 3)})), Forest(3, frozenset({(2, 3)}))
    with pytest.raises(SizeViolation, match="got 2 >= 2"):
        psi(K3, a, b)


def test_psi_k3_hand_traces():
    a = Forest(3, frozenset({(1, 2), (1, 3)}))
    tr = psi(K3, a, Forest(3))
    assert tr.j == 3 and tr.e == (1, 3)
    assert tr.A_out.edges == frozenset({(1, 2)})
    assert tr.B_out.edges == frozenset({(1, 3)})

    a = Forest(3, frozenset({(1, 2), (2, 3)}))
    tr = psi(K3, a, Forest(3))
    assert tr.j == 3 and tr.e == (2, 3)
    assert tr.A_out.edges == frozenset({(1, 2)})
    assert tr.B_out.edges == frozenset({(2, 3)})


def test_psi_bijective_swap_case():
    tr = psi(K2, Forest(2, frozenset({(1, 2)})), Forest(2))
    assert tr.j == 2 and tr.e == (1, 2)
    assert tr.A_out.edges == frozenset()
    assert tr.B_out.edges == frozenset({(1, 2)})


def test_psi_trace_fields():
    a = Forest(3, frozenset({(1, 2), (1, 3)}))
    tr = psi(K3, a, Forest(3))
    assert tr.mA == frozenset({1}) and tr.mB == frozenset({1, 2, 3})
    assert tr.sym_diff == frozenset({2, 3})
    assert tr.A_comp == frozenset({1, 2, 3})
    assert tr.B_comp == frozenset({3})
    assert tr.i0 == 1


def test_psi_preconditions():
    with pytest.raises(SizeViolation):
        psi(K3, Forest(3), Forest(3))
    with pytest.raises(NotIncreasing):
        psi(
            complete_graph(4),
            Forest(4, frozenset({(1, 4), (2, 4), (3, 4)})),
            Forest(4),
        )
    with pytest.raises(NotInGraph):
        psi(
            OrderedGraph(3, frozenset({(1, 2)})),
            Forest(3, frozenset({(1, 3)})),
            Forest(3),
        )


def test_psi_input_checks_order_and_messages():
    # A in graph, A increasing, B in graph, B increasing, then the sizes;
    # g lacks only (2, 3)
    g = OrderedGraph(4, frozenset({(1, 2), (1, 3), (1, 4), (2, 4), (3, 4)}))
    good_k1 = Forest(4, frozenset({(1, 2), (1, 3), (1, 4)}))
    good_k4 = Forest(4)
    off = Forest(4, frozenset({(2, 3)}))                    # increasing
    decreasing = Forest(4, frozenset({(1, 4), (2, 4), (3, 4)}))
    off_decreasing = Forest(4, frozenset({(1, 4), (2, 4), (2, 3)}))
    wrong_n = Forest(3)
    cases = [
        (off_decreasing, off_decreasing, NotInGraph,
         "forest A uses non-graph edges [(2, 3)]"),
        (wrong_n, off, NotInGraph, "forest A has n=3, graph has n=4"),
        (decreasing, off, NotIncreasing, "forest A is not increasing"),
        (decreasing, good_k1, NotIncreasing, "forest A is not increasing"),
        (good_k1, off_decreasing, NotInGraph,
         "forest B uses non-graph edges [(2, 3)]"),
        (good_k1, wrong_n, NotInGraph, "forest B has n=3, graph has n=4"),
        (good_k1, decreasing, NotIncreasing, "forest B is not increasing"),
        (good_k4, decreasing, NotIncreasing, "forest B is not increasing"),
        (good_k4, good_k1, SizeViolation,
         "need components(A) < components(B), got 4 >= 1"),
    ]
    for a, b, error, message in cases:
        with pytest.raises(error) as info:
            psi(g, a, b)
        assert str(info.value) == message, (a, b)
    assert psi(g, good_k1, good_k4).j == 4


def _lower_degree_graph(degrees, seed):
    # vertex j joined to degrees[j - 1] smaller vertices drawn from seed
    rng = Random(seed)
    edges = {(i, j) for j, d in enumerate(degrees, start=1)
             for i in rng.sample(range(1, j), d)}
    return OrderedGraph(len(degrees), frozenset(edges))


def test_verify_psi_calls_psi_and_successor_once_per_pair(monkeypatch):
    # perfbench's traced identity psi calls = phi calls = pairs rests on this
    real_psi = isf.injection.psi
    calls = {"psi": 0, "successor": 0}

    def counting_psi(g, a, b, successor=phi):
        calls["psi"] += 1
        return real_psi(g, a, b, successor=successor)

    def counting_phi(ground, subset):
        calls["successor"] += 1
        return phi(ground, subset)

    monkeypatch.setattr(isf.injection, "psi", counting_psi)
    k5 = complete_graph(5)
    jobs = [(k5, k, l) for k in range(5) for l in range(k + 1, 6)]
    jobs.append((_lower_degree_graph((0, 1, 1, 2, 2, 2, 2, 2), 12), 1, 3))
    for g, k, l in jobs:
        calls.update(psi=0, successor=0)
        rep = verify_psi(g, k, l, successor=counting_phi)
        assert rep.injective and rep.local and rep.weight_preserving
        assert calls == {"psi": rep.total_pairs,
                         "successor": rep.total_pairs}, (g, k, l)
    assert rep.total_pairs == 32 * 272

    # and the pair loop builds its traces without PsiTrace.__init__
    def refuse(*args, **kwargs):
        raise RuntimeError("PsiTrace.__init__ ran")

    monkeypatch.setattr(isf.injection.PsiTrace, "__init__", refuse)
    for k in range(5):
        for l in range(k + 1, 6):
            assert verify_psi(k5, k, l).injective


def test_psi_works_out_each_half_once_per_key(monkeypatch):
    # A's half of a move depends on (A, j) alone and B's on (B, e), so each
    # is filled once per key; each forest is checked against g once per
    # verify_psi call (every graph below is a new object)
    inj = isf.injection
    real_psi, real_check = inj.psi, inj._check_forest_in_graph
    fills, keys, checked = {"A": [], "B": []}, {"A": set(), "B": set()}, []

    def recording_psi(g, a, b, successor=phi):
        tr = real_psi(g, a, b, successor=successor)
        keys["A"].add((a, tr.j))
        keys["B"].add((b, tr.e))
        return tr

    def counting(side, half):
        def fill(f, key):
            fills[side].append((f, key))
            return half(f, key)
        return fill

    def counting_check(g, f, label):
        checked.append(f)
        return real_check(g, f, label)

    monkeypatch.setattr(inj, "psi", recording_psi)
    monkeypatch.setattr(inj, "_cut", counting("A", inj._cut))
    monkeypatch.setattr(inj, "_join", counting("B", inj._join))
    monkeypatch.setattr(inj, "_check_forest_in_graph", counting_check)
    seeded = (0, 1, 1, 2, 2, 2, 2, 2)
    jobs = [(lambda: complete_graph(5), k, l)
            for k in range(5) for l in range(k + 1, 6)]
    jobs.append((lambda: _lower_degree_graph(seeded, 12), 1, 3))
    for new_graph, k, l in jobs:
        for record in (*fills.values(), *keys.values(), checked):
            record.clear()
        rep = verify_psi(new_graph(), k, l)
        assert rep.injective and rep.local and rep.weight_preserving
        for side in "AB":
            assert len(fills[side]) == len(keys[side]), (side, k, l)
            assert set(fills[side]) == keys[side], (side, k, l)
        paired = {a for a, _ in keys["A"]} | {b for b, _ in keys["B"]}
        assert len(checked) == len(paired) and set(checked) == paired, (k, l)
    assert rep.total_pairs == 32 * 272
    # the seeded job: 192 A fills and 512 B fills for its 8,704 pairs
    assert (len(fills["A"]), len(fills["B"])) == (192, 512)


def test_forest_that_passed_is_checked_in_each_new_graph():
    a = Forest(3, frozenset({(1, 2), (1, 3)}))
    b = Forest(3, frozenset({(1, 3)}))
    path_a = Forest(3, frozenset({(1, 2), (2, 3)}))
    assert psi(K3, a, Forest(3)).j == 3 and psi(K3, path_a, b).j == 2
    lacks_13 = OrderedGraph(3, frozenset({(1, 2), (2, 3)}))
    with pytest.raises(NotInGraph, match=re.escape(
            "forest A uses non-graph edges [(1, 3)]")):
        psi(lacks_13, a, Forest(3))
    with pytest.raises(NotInGraph, match=re.escape(
            "forest B uses non-graph edges [(1, 3)]")):
        psi(lacks_13, path_a, b)
    with pytest.raises(NotInGraph, match="forest A has n=3, graph has n=4"):
        psi(K4, a, Forest(3))
    # an equal graph that is another object checks again, and passes
    assert psi(complete_graph(3), a, Forest(3)).j == 3


def test_phi_memo_misses_at_most_once_per_minima_pair():
    # psi's j depends on (m(A), m(B)) only through (D, X) = (m(A) ^ m(B),
    # m(A) - m(B)), so phi's memo computes each such pair at most once
    k6 = complete_graph(6)
    forests_2, forests_4 = enumerate_if(k6, 2), enumerate_if(k6, 4)
    distinct = {(a.minima ^ b.minima, a.minima - b.minima)
                for a in forests_2 for b in forests_4}
    _phi.cache_clear()
    rep = verify_psi(k6, 2, 4)
    info = _phi.cache_info()
    assert rep.injective and rep.total_pairs == 23290
    assert info.hits + info.misses == rep.total_pairs
    assert info.misses <= len(distinct) == 30


def test_psi_last_edge_matches_path_oracle():
    # trace.e must be the last edge on the path from i0 to j inside A
    for k in range(1, 4):
        for l in range(k + 1, 5):
            for a in enumerate_if(K4, k):
                for b in enumerate_if(K4, l):
                    tr = psi(K4, a, b)
                    parent = reference_parent(a)
                    path = [tr.j]
                    while path[-1] != tr.i0:
                        path.append(parent[path[-1]])
                    assert tr.e == (path[1], path[0])


def test_minima_bookkeeping():
    for a in enumerate_if(K4, 1):
        for b in enumerate_if(K4, 3):
            tr = psi(K4, a, b)
            ma, mb = a.minima, b.minima
            assert tr.A_out.minima == ma | {tr.j}
            assert tr.B_out.minima == mb - {tr.j}
            # unions / intersections / symmetric differences preserved
            assert (ma | {tr.j}) | (mb - {tr.j}) == ma | mb
            assert (ma | {tr.j}) & (mb - {tr.j}) == ma & mb
            assert (ma | {tr.j}) ^ (mb - {tr.j}) == ma ^ mb


def test_verify_psi_k4():
    rep = verify_psi(K4, 1, 2)
    assert rep.total_pairs == 66
    assert rep.injective and rep.local and rep.weight_preserving
    assert rep.collisions == []


def test_verify_psi_silly_bijective_case():
    rep = verify_psi(K3, 2, 3)
    assert rep.total_pairs == 3
    assert rep.injective


def test_verify_psi_rejects_equal_counts():
    with pytest.raises(SizeViolation):
        verify_psi(K3, 2, 2)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_verify_psi_complete_graphs(n):
    g = complete_graph(n)
    for k in range(n):
        for l in range(k + 1, n + 1):
            rep = verify_psi(g, k, l)
            assert rep.injective and rep.local and rep.weight_preserving


def test_verify_psi_random_graphs():
    rng = Random(20260826)
    for _ in range(8):
        g = random_graph(rng, rng.randint(3, 6))
        for k in range(g.n):
            for l in range(k + 1, g.n + 1):
                rep = verify_psi(g, k, l)
                assert rep.injective and rep.local and rep.weight_preserving


def test_phi_independence_alternative_injection():
    # the same verdicts must hold when psi runs on the reversed-order
    # bracketing, certifying that only the injection axioms matter
    for n in [3, 4]:
        g = complete_graph(n)
        for k in range(n):
            for l in range(k + 1, n + 1):
                rep = verify_psi(g, k, l, successor=phi_reversed)
                assert rep.injective and rep.local and rep.weight_preserving


def test_outputs_increasing_and_counts_shift():
    for a in enumerate_if(K4, 2):
        for b in enumerate_if(K4, 4):
            tr = psi(K4, a, b)
            assert tr.A_out.increasing and tr.B_out.increasing
            assert tr.A_out.component_count() == 3
            assert tr.B_out.component_count() == 3


def _random_graphs():
    # the same seeded graphs as test_verify_psi_random_graphs
    rng = Random(20260826)
    return [random_graph(rng, rng.randint(3, 6)) for _ in range(8)]


@pytest.mark.parametrize("successor", [phi, phi_reversed])
def test_psi_matches_edge_set_oracle(successor):
    for g in [*all_edge_subsets(4), *_random_graphs()]:
        for k in range(g.n):
            for l in range(k + 1, g.n + 1):
                for a in enumerate_if(g, k):
                    for b in enumerate_if(g, l):
                        tr = psi(g, a, b, successor=successor)
                        want = edge_set_psi(a, b, successor)
                        for name in tr._fields:
                            assert getattr(tr, name) == want[name], name
                        # the output Forests, built from the vectors on demand
                        assert tr.A_out == want["A_out"]
                        assert tr.B_out == want["B_out"]
                        assert tr.A_out.parent == want["A_out_parent"]
                        assert tr.B_out.parent == want["B_out_parent"]


def test_split_cache_keeps_only_the_set_algebra():
    # psi takes (m(A) ^ m(B), m(A) - m(B)) from a cache keyed on the two
    # minima; on the same Forest objects each successor in turn, phi again
    # last, must get its own j, so the cache may hold no successor's answer
    g = complete_graph(5)
    pairs = [(a, b) for k in range(5) for l in range(k + 1, 6)
             for a in enumerate_if(g, k) for b in enumerate_if(g, l)]
    isf.injection._split.cache_clear()
    js = []
    for successor in (phi, phi_reversed, max_outside, phi):
        js.append([])
        for a, b in pairs:
            tr = psi(g, a, b, successor=successor)
            want = edge_set_psi(a, b, successor)
            for name in tr._fields:
                assert getattr(tr, name) == want[name], (successor, name)
            js[-1].append(tr.j)
    assert js[0] == js[3] and js[0] != js[1] and js[0] != js[2] != js[1]
    assert isf.injection._split.cache_info().hits >= 3 * len(pairs)


GOLDEN = Path(__file__).parent / "golden"


def test_collision_report_is_pinned():
    # recorded from verify_psi when it still built and compared edge sets
    rep = verify_psi(K4, 2, 3, successor=max_outside)
    assert not rep.injective and len(rep.collisions) == 6
    assert rep.local and rep.weight_preserving
    want = (GOLDEN / "verify-psi-k4-k2-l3-collisions.json").read_text()
    assert json.dumps(rep.to_json(), sort_keys=True) + "\n" == want


def test_collision_replay_that_misses_raises(monkeypatch):
    # images keeps only each image's first A, so a collision's first pair is
    # rebuilt after the loop by replaying that A's row; a psi that answers
    # differently from then on leaves the image unfound
    rep = verify_psi(K4, 2, 3, successor=max_outside)
    first_a, first_b = rep.collisions[0][0]
    tr = psi(K4, first_a, first_b, successor=max_outside)
    image = (tr.A_out_parent, tr.B_out_parent)
    total = len(enumerate_if(K4, 2)) * len(enumerate_if(K4, 3))
    real, calls = isf.injection.psi, [0]

    def changing_psi(g, a, b, successor=phi):
        calls[0] += 1
        tr = real(g, a, b, successor=successor)
        # A' with A's component count matches no image of IF_2 x IF_3
        return tr if calls[0] <= total else replace(tr, A_out_parent=a.parent)

    monkeypatch.setattr(isf.injection, "psi", changing_psi)
    with pytest.raises(InvariantViolation, match=re.escape(
            f"replaying A's row missed image {image}")):
        verify_psi(K4, 2, 3, successor=max_outside)
    assert calls[0] == total + len(enumerate_if(K4, 3))


def test_collision_within_one_row_is_reported(monkeypatch):
    # images keeps each image's first A, so an image that comes back in its
    # own A's row finds that same A stored; it is still a collision
    a, (b1, b2) = enumerate_if(K4, 1)[0], enumerate_if(K4, 2)[:2]
    real = isf.injection.psi

    def repeating_psi(g, x, y, successor=phi):
        return real(g, x, b1 if (x, y) == (a, b2) else y, successor=successor)

    monkeypatch.setattr(isf.injection, "psi", repeating_psi)
    rep = verify_psi(K4, 1, 2)
    assert not rep.injective and not rep.local
    assert rep.collisions == [[(a, b1), (a, b2)]]


def test_verify_psi_keeps_one_forest_per_image():
    # images maps each image to its first A, not to the pair (A, B); after a
    # warm-up call has filled the forests' halves and phi's memo, a second
    # call's peak is mostly that dict and its keys (about 108 B per pair)
    k6 = complete_graph(6)
    verify_psi(k6, 2, 4)
    tracemalloc.start()
    try:
        rep = verify_psi(k6, 2, 4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.injective and rep.total_pairs == 23290
    assert peak < 3.6e6


def _set_at(tr, v, a_v, b_v, **changes):
    """tr with A'[v] = a_v, B'[v] = b_v and the given fields changed."""
    a_out, b_out = list(tr.A_out_parent), list(tr.B_out_parent)
    a_out[v], b_out[v] = a_v, b_v
    return replace(tr, A_out_parent=tuple(a_out), B_out_parent=tuple(b_out),
                   **changes)


def _broken_traces(a, b, tr, other):
    """Traces psi never returns for (a, b), mostly wrong in one way.

    At each vertex v: the outputs exchanged at v; A's edge into v moved
    instead of e (onto a root of B, over B's own edge into v, or a root's
    'edge' (0, v)); and, where they differ with an even sum, both outputs
    replaced by their mean.  Then B' left as B, another edge of A or a root
    named as e, e with j written as the negative index of the same entry,
    and the outputs of another pair.
    """
    pa, pb = a.parent, b.parent
    a_out, b_out = tr.A_out_parent, tr.B_out_parent
    unmoved = replace(tr, A_out_parent=pa, B_out_parent=pb)
    out = []
    for v in range(1, a.n + 1):
        out.append(_set_at(tr, v, b_out[v], a_out[v]))
        out.append(_set_at(unmoved, v, 0, pa[v], e=(pa[v], v)))
        total = a_out[v] + b_out[v]
        if a_out[v] != b_out[v] and total % 2 == 0:
            out.append(_set_at(tr, v, total // 2, total // 2))
    out.append(replace(tr, B_out_parent=pb))
    out += [replace(tr, e=e) for e in sorted(a.edges - {tr.e})]
    out.append(replace(tr, e=(0, tr.j)))
    out.append(replace(tr, e=(tr.e[0], tr.j - a.n - 1)))
    out.append(replace(tr, A_out_parent=other.A_out_parent,
                       B_out_parent=other.B_out_parent))
    return out


def _verdicts_of(g, k, l, a, b, trace):
    """verify_psi's (local, weight_preserving) for the single pair (a, b),
    with psi answering trace."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(isf.injection, "enumerate_if",
                   lambda graph, c: [a] if c == k else [b])
        mp.setattr(isf.injection, "psi", lambda *args, **kwargs: trace)
        rep = verify_psi(g, k, l)
    return rep.local, rep.weight_preserving


def test_vector_verdicts_match_edge_sets():
    # every pair of the complete and seeded random graphs on <= 5 vertices,
    # with psi's own trace and with traces broken in each way above
    graphs = [complete_graph(n) for n in range(2, 6)]
    graphs += [g for g in _random_graphs() if g.n <= 5]
    seen = set()
    for g in graphs:
        for k in range(g.n):
            for l in range(k + 1, g.n + 1):
                other = None
                for a in enumerate_if(g, k):
                    for b in enumerate_if(g, l):
                        tr = psi(g, a, b)
                        for t in [tr, *_broken_traces(a, b, tr, other or tr)]:
                            want = edge_set_verdicts(a, b, t)
                            seen.add(want)
                            got = _verdicts_of(g, k, l, a, b, t)
                            assert got == want, (g, a, b, t)
                        other = tr
    # local implies weight-preserving; every other combination occurs
    assert seen == {(True, True), (False, True), (False, False)}


def _pair_breaks(forests_k, forests_l, traces):
    """Ways to break a few of psi's traces on IF_k x IF_l, each a dict
    pair -> broken trace.  A row's pair is broken after its j, and so its
    e, came up earlier in the row; a column's after its j came up with
    another e earlier in the column."""
    for a in forests_k:  # the last pair whose j >= 3 came up in its row
        js = set()
        for b in forests_l:
            if traces[a, b].j in js and traces[a, b].j >= 3:
                row_pair = a, b
            js.add(traces[a, b].j)
    for b in forests_l:  # the last pair whose j came with another e
        es = {}
        for a in forests_k:
            i, j = traces[a, b].e
            if es.setdefault(j, i) != i:
                column_pair, earlier_i = (a, b), es[j]
    column, moved = column_pair[1], traces[column_pair]
    tr, (pa, pb) = traces[row_pair], (f.parent for f in row_pair)
    other_i = min({1, 2} - {tr.e[0]})  # another edge into j, not A's
    unmoved = replace(tr, A_out_parent=pa, B_out_parent=pb)
    return {
        "one pair of a row, unmoved": {row_pair: unmoved},
        "one pair of a row, B' left as B": {
            row_pair: replace(tr, B_out_parent=pb)},
        "one B in every row, unmoved": {
            (x, column): replace(traces[x, column], A_out_parent=x.parent,
                                 B_out_parent=column.parent)
            for x in forests_k},
        "one B in every row, B' left as B": {
            (x, column): replace(traces[x, column], B_out_parent=column.parent)
            for x in forests_k},
        "another e on a j repeated in its row": {
            row_pair: _set_at(tr, tr.j, 0, other_i, e=(other_i, tr.j))},
        "an earlier row's e in B' on a j repeated in its column": {
            column_pair: _set_at(moved, moved.j, 0, earlier_i)},
    }


@pytest.mark.parametrize("g, k, l", [(K4, 1, 2), (complete_graph(5), 2, 3)])
def test_verdicts_over_many_pairs_are_each_pairs_own(monkeypatch, g, k, l):
    # verify_psi works out A's expected output once per (A, e) along a row
    # and B's once per (B, e) down a column; with a few pairs broken, its
    # verdicts must still be the AND of every pair's own
    forests_k, forests_l = enumerate_if(g, k), enumerate_if(g, l)
    traces = {(a, b): psi(g, a, b) for a in forests_k for b in forests_l}
    seen = set()
    for name, broken in _pair_breaks(forests_k, forests_l, traces).items():
        answers = {**traces, **broken}
        monkeypatch.setattr(isf.injection, "psi",
                            lambda g, a, b, successor: answers[a, b])
        verdicts = [edge_set_verdicts(a, b, tr)
                    for (a, b), tr in answers.items()]
        want = tuple(all(v) for v in zip(*verdicts))
        rep = verify_psi(g, k, l)
        assert (rep.local, rep.weight_preserving) == want, name
        seen.add(want)
    assert seen == {(False, True), (False, False)}


@pytest.mark.parametrize("break_trace, verdict", [
    (lambda a, b, tr: _set_at(tr, a.n, tr.B_out_parent[a.n],
                              tr.A_out_parent[a.n]), (False, True)),
    (lambda a, b, tr: replace(tr, e=(0, tr.j)), (False, True)),
    (lambda a, b, tr: replace(tr, B_out_parent=b.parent), (False, False)),
    (lambda a, b, tr: replace(tr, A_out_parent=a.parent), (False, False)),
])
def test_verify_psi_reports_broken_traces(monkeypatch, break_trace, verdict):
    # psi made to return outputs that break locality (first two) or the
    # edge multiset (last two)
    real = isf.injection.psi
    monkeypatch.setattr(isf.injection, "psi", lambda g, a, b, successor=phi:
                        break_trace(a, b, real(g, a, b, successor=successor)))
    rep = verify_psi(K4, 1, 2)
    assert (rep.local, rep.weight_preserving) == verdict
    assert rep.total_pairs == 66


def test_verify_psi_builds_no_forest(monkeypatch):
    # with the forests enumerated, the pair loop works on parent vectors
    # alone: no output Forest and no validated edge set
    k5 = complete_graph(5)
    for k in range(6):
        enumerate_if(k5, k)

    def refuse(*args, **kwargs):
        raise RuntimeError("a Forest was built")

    monkeypatch.setattr(Forest, "from_parent", refuse)
    monkeypatch.setattr(Forest, "__init__", refuse)
    for k in range(5):
        for l in range(k + 1, 6):
            rep = verify_psi(k5, k, l)
            assert rep.injective and rep.local and rep.weight_preserving


def _outside_successor(ground, subset):
    # violates the successor axioms: adds an element outside the ground set
    return frozenset(subset) | {max(ground) + 1}


def test_invariant_violation_on_bad_successor():
    a = Forest(3, frozenset({(1, 2), (1, 3)}))
    with pytest.raises(InvariantViolation, match="j in m"):
        psi(K3, a, Forest(3), successor=_outside_successor)
    with pytest.raises(InvariantViolation):
        psi(K3, a, Forest(3), successor=lambda ground, subset: frozenset(ground))
    assert not issubclass(InvariantViolation, InputError)


A_ROOTED = {"increasing": True, "minima": frozenset({1})}
# B's true minima, with a vector that hangs j = 3 below 1
B_BELOW_1 = {"parent": (0, 0, 0, 1), "minima": frozenset({1, 2, 3})}


@pytest.mark.parametrize("claim, b_edges, a_cache, b_cache", [
    ("j = min of its component in B", (), {}, B_BELOW_1),
    ("e in A and e not in B", ((1, 3),), {},
     {"parent": (0, 0, 0, 0), "minima": frozenset({1, 2, 3})}),
    ("m(A') = m(A) + j", (), {"minima": frozenset({1, 2})}, {}),
    ("m(B') = m(B) - j", (), {},
     {"parent": (0, 0, 1, 0), "minima": frozenset({1, 2, 3})}),
    # A's true rooted data, with a wrong vector: an extra zero at 2, so too
    # many zeros; vertex 1, a root of A', nonzero; index 0 nonzero
    ("m(A') = m(A) + j", (), {**A_ROOTED, "parent": (0, 0, 0, 1)}, {}),
    ("m(A') = m(A) + j", (), {**A_ROOTED, "parent": (0, 2, 0, 1)}, {}),
    ("m(A') = m(A) + j", (), {**A_ROOTED, "parent": (5, 0, 0, 1)}, {}),
    # a vector with j = 3 a root of A, so A's half finds no edge (A[j], j)
    ("e in A and e not in B", (), {**A_ROOTED, "parent": (0, 0, 1, 0)}, {}),
])
def test_each_bookkeeping_check_fires(claim, b_edges, a_cache, b_cache):
    # With consistent forests these claims are theorems, so each is reached
    # by planting wrong rooted data in a forest's cache.
    a = Forest(3, frozenset({(1, 2), (1, 3)}))
    b = Forest(3, frozenset(b_edges))
    vars(a).update(a_cache)
    vars(b).update(b_cache)
    with pytest.raises(InvariantViolation, match=re.escape(claim)):
        psi(K3, a, b)


@pytest.mark.parametrize("claim, b_edges, a_cache, b_cache", [
    ("m(A') = m(A) + j", (), {**A_ROOTED, "parent": (0, 0, 0, 1)}, {}),
    ("j = min of its component in B", (), {}, B_BELOW_1),
    ("e in A and e not in B", ((1, 3),), {},
     {"parent": (0, 0, 0, 0), "minima": frozenset({1, 2, 3})}),
    ("m(B') = m(B) - j", (), {},
     {"parent": (0, 0, 1, 0), "minima": frozenset({1, 2, 3})}),
])
def test_failed_half_is_not_memoised(claim, b_edges, a_cache, b_cache):
    # planted bad rooted data fails the same way on every call
    a = Forest(3, frozenset({(1, 2), (1, 3)}))
    b = Forest(3, frozenset(b_edges))
    vars(a).update(a_cache)
    vars(b).update(b_cache)
    for _ in range(2):
        with pytest.raises(InvariantViolation, match=re.escape(claim)):
            psi(K3, a, b)


def test_invariant_violation_survives_optimize_flag():
    script = """
import sys
from isf import Forest, InvariantViolation, complete_graph, psi
if __debug__:
    sys.exit("asserts are still on")
a = Forest(3, frozenset({(1, 2), (1, 3)}))
try:
    psi(complete_graph(3), a, Forest(3),
        successor=lambda g, s: frozenset(s) | {max(g) + 1})
except InvariantViolation:
    print("raised")
"""
    src = str(Path(isf.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-O", "-c", script], capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=path), timeout=60,
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout == "raised\n"
