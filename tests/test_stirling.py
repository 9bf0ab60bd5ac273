from itertools import permutations as iter_permutations
from math import factorial

import pytest

from isf import (
    Forest,
    InputError,
    NonCanonicalCycle,
    NotIncreasing,
    OrderedGraph,
    Permutation,
    SizeViolation,
    complete_graph,
    enumerate_if,
    forest_to_permutation,
    permutation_psi,
    permutation_to_forest,
    stirling_row,
)
from conftest import (
    brute_force_cycle_counts, enumerative_counts, identity_permutation,
    permutation_from_word, time_limit,
)

F1 = Forest(9, frozenset({(1, 2), (1, 4), (4, 7), (4, 9), (3, 5), (3, 6), (6, 8)}))


def test_worked_forest_maps_to_worked_permutation():
    assert forest_to_permutation(F1).cycles == ((1, 4, 9, 7, 2), (3, 6, 8, 5))
    assert permutation_to_forest(Permutation(9, ((1, 4, 9, 7, 2), (3, 6, 8, 5)))) == F1


def test_empty_forest_is_identity():
    assert forest_to_permutation(Forest(3)) == identity_permutation(3)
    assert permutation_to_forest(identity_permutation(4)) == Forest(4)
    assert permutation_to_forest(Permutation(0, ())) == Forest(0)


def test_small_trees():
    assert forest_to_permutation(
        Forest(3, frozenset({(1, 2), (1, 3)}))
    ).cycles == ((1, 3, 2),)
    assert forest_to_permutation(
        Forest(3, frozenset({(1, 2), (2, 3)}))
    ).cycles == ((1, 2, 3),)
    assert permutation_to_forest(Permutation(3, ((1, 2, 3),))).edges == frozenset(
        {(1, 2), (2, 3)}
    )


def test_rejects_non_increasing():
    with pytest.raises(NotIncreasing):
        forest_to_permutation(Forest(4, frozenset({(1, 4), (2, 4), (3, 4)})))


def test_canonical_form_enforced():
    with pytest.raises(NonCanonicalCycle):
        Permutation(3, ((2, 1, 3),))  # cycle not starting at its minimum
    with pytest.raises(NonCanonicalCycle):
        Permutation(3, ((2, 3), (1,)))  # cycles not sorted by minima
    with pytest.raises(NonCanonicalCycle):
        Permutation(3, ((1, 2),))  # not a partition of 1..3


@pytest.mark.parametrize("cycles", [((1, 2), ()), ((), (1, 2)), ((1,), (), (2,))])
def test_empty_cycle_is_refused(cycles):
    # a partition has no empty block; c[0] of one raised a bare IndexError
    with pytest.raises(NonCanonicalCycle, match="do not partition 1..2"):
        Permutation(2, cycles)


@pytest.mark.parametrize("n, message", [
    (-1, "vertex count must be >= 0, got -1"),
    (2.0, "vertex count must be an integer, got 2.0"),
    (True, "vertex count must be an integer, got True"),
])
def test_permutation_validates_vertex_count(n, message):
    with pytest.raises(InputError) as err:
        Permutation(n, ())
    assert str(err.value) == message


@pytest.mark.parametrize("n", range(0, 7))
def test_round_trip_both_ways(n):
    g = complete_graph(n)
    for k in range(n + 1):
        for f in enumerate_if(g, k):
            assert permutation_to_forest(forest_to_permutation(f)) == f
    for word in iter_permutations(range(1, n + 1)):
        p = permutation_from_word(word)
        assert forest_to_permutation(permutation_to_forest(p)) == p


def test_long_cycle_maps_to_a_forest_in_one_pass():
    # in [1, n, n - 1, ..., 2] each element's nearest smaller one on its
    # left is 1, the farthest back a backward scan can look
    n = 40_000
    p = Permutation(n, ((1, *range(n, 1, -1)),))
    with time_limit(2):
        f = permutation_to_forest(p)
        assert forest_to_permutation(f) == p
    assert f.parent == (0, 0, *[1] * (n - 1))


def test_stirling_rows():
    assert stirling_row(0).unsigned == (1,)
    assert stirling_row(3).unsigned == (0, 2, 3, 1)
    assert stirling_row(4).unsigned == (0, 6, 11, 6, 1)
    assert stirling_row(4).signed == (0, -6, 11, -6, 1)


@pytest.mark.parametrize("n", range(1, 7))
def test_stirling_row_against_permutation_oracle(n):
    assert list(stirling_row(n).unsigned) == brute_force_cycle_counts(n)


@pytest.mark.parametrize("n", range(8))
def test_stirling_row_against_enumeration(n):
    assert stirling_row(n).unsigned == enumerative_counts(complete_graph(n))


def test_row_sums_and_boundary():
    import math

    for n in range(1, 8):
        row = stirling_row(n)
        assert sum(row.unsigned) == math.factorial(n)
        assert row.unsigned[0] == 0
        assert row.unsigned[n] == 1


def test_permutation_psi_worked_example():
    move = permutation_psi(Permutation(3, ((1, 3, 2),)), identity_permutation(3))
    assert move.sigma_p.cycles == ((1, 2), (3,))
    assert move.tau_p.cycles == ((1, 3), (2,))
    assert move.broken_cycle == (1, 3, 2)
    assert move.spectators_unchanged


def test_permutation_psi_bijective_case():
    move = permutation_psi(Permutation(2, ((1, 2),)), identity_permutation(2))
    assert move.sigma_p == identity_permutation(2)
    assert move.tau_p == Permutation(2, ((1, 2),))
    assert move.spectators_unchanged


def test_stirling_commands_build_no_complete_graph(monkeypatch):
    # stirling_row reads only d_j = j - 1 of K_n, and psi reads its graph
    # only to check that both forests lie in it; the forests that
    # Forest.from_parent builds pass the same __init__, and are not counted
    built = []
    init = OrderedGraph.__init__

    def counting_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        if not isinstance(self, Forest):
            built.append(len(self.edges))

    monkeypatch.setattr(OrderedGraph, "__init__", counting_init)
    assert sum(stirling_row(50).unsigned) == factorial(50)
    assert built == []
    n = 8
    sigma = Permutation(n, ((1, 5, 2, 8, 3, 7, 4, 6),))
    tau = Permutation(n, ((1, 3, 5, 7), (2, 4, 6, 8)))
    assert permutation_psi(sigma, tau).spectators_unchanged
    assert len(built) == 1 and built[0] <= 2 * (n - 1)


def test_permutation_psi_preconditions():
    with pytest.raises(SizeViolation):
        permutation_psi(identity_permutation(3), Permutation(3, ((1, 2, 3),)))
    with pytest.raises(SizeViolation):
        permutation_psi(identity_permutation(2), identity_permutation(3))


def _all_perms(n):
    return [permutation_from_word(w) for w in iter_permutations(range(1, n + 1))]


def _has_factor(word, factor, rest):
    """True iff word is rest with factor inserted after its first letter."""
    return any(
        word[i:i + len(factor)] == factor
        and word[:i] + word[i + len(factor):] == rest
        for i in range(1, len(word))
    )


@pytest.mark.parametrize("n", [3, 4, 5])
def test_permutation_psi_spectators_exhaustive(n):
    perms = _all_perms(n)
    images = []
    for sigma in perms:
        for tau in perms:
            if len(sigma.cycles) >= len(tau.cycles):
                continue
            move = permutation_psi(sigma, tau)
            assert move.spectators_unchanged
            assert len(move.sigma_p.cycles) == len(sigma.cycles) + 1
            assert len(move.tau_p.cycles) == len(tau.cycles) - 1
            assert move.broken_cycle in sigma.cycles
            assert all(c in tau.cycles for c in move.glued_pair)
            # break: one new cycle is a factor of the broken word after its
            # first letter, the other the rest; glue: the merged word is one
            # glued word with the other inserted as a factor
            h1, h2 = [c for c in move.sigma_p.cycles if c not in sigma.cycles]
            broken = move.broken_cycle
            assert _has_factor(broken, h1, h2) or _has_factor(broken, h2, h1)
            (merged,) = [c for c in move.tau_p.cycles if c not in tau.cycles]
            x, y = move.glued_pair
            assert _has_factor(merged, y, x) or _has_factor(merged, x, y)
            images.append((move.sigma_p, move.tau_p))
    # injective: no two pairs (sigma, tau) share an image (sigma', tau')
    assert len(images) == len(set(images)) == {3: 11, 4: 191, 5: 4999}[n]


def test_unsigned_stirling_logconcavity():
    for n in range(2, 9):
        row = stirling_row(n).unsigned
        for k in range(1, n):
            assert row[k] * row[k] >= row[k - 1] * row[k + 1]
