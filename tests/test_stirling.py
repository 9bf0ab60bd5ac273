from itertools import permutations as iter_permutations

import pytest

from isf import (
    Forest,
    NonCanonicalCycle,
    NotIncreasing,
    Permutation,
    SizeViolation,
    complete_graph,
    enumerate_if,
    forest_to_permutation,
    permutation_psi,
    permutation_to_forest,
    stirling_row,
)
from conftest import brute_force_cycle_counts, enumerative_counts

F1 = Forest(9, frozenset({(1, 2), (1, 4), (4, 7), (4, 9), (3, 5), (3, 6), (6, 8)}))


def test_worked_forest_maps_to_worked_permutation():
    assert forest_to_permutation(F1).cycles == ((1, 4, 9, 7, 2), (3, 6, 8, 5))
    assert permutation_to_forest(Permutation(9, ((1, 4, 9, 7, 2), (3, 6, 8, 5)))) == F1


def test_empty_forest_is_identity():
    assert forest_to_permutation(Forest(3)) == Permutation.identity(3)
    assert permutation_to_forest(Permutation.identity(4)) == Forest(4)


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


@pytest.mark.parametrize("n", range(0, 7))
def test_round_trip_both_ways(n):
    g = complete_graph(n)
    for k in range(n + 1):
        for f in enumerate_if(g, k):
            assert permutation_to_forest(forest_to_permutation(f)) == f
    for word in iter_permutations(range(1, n + 1)):
        mapping = {i + 1: v for i, v in enumerate(word)}
        p = Permutation.from_mapping(mapping)
        assert forest_to_permutation(permutation_to_forest(p)) == p


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
    move = permutation_psi(Permutation(3, ((1, 3, 2),)), Permutation.identity(3))
    assert move.sigma_p.cycles == ((1, 2), (3,))
    assert move.tau_p.cycles == ((1, 3), (2,))
    assert move.broken_cycle == (1, 3, 2)
    assert move.spectators_unchanged


def test_permutation_psi_bijective_case():
    move = permutation_psi(Permutation(2, ((1, 2),)), Permutation.identity(2))
    assert move.sigma_p == Permutation.identity(2)
    assert move.tau_p == Permutation(2, ((1, 2),))
    assert move.spectators_unchanged


def test_permutation_psi_preconditions():
    with pytest.raises(SizeViolation):
        permutation_psi(Permutation.identity(3), Permutation(3, ((1, 2, 3),)))
    with pytest.raises(SizeViolation):
        permutation_psi(Permutation.identity(2), Permutation.identity(3))


def _all_perms(n):
    out = []
    for word in iter_permutations(range(1, n + 1)):
        out.append(Permutation.from_mapping({i + 1: v for i, v in enumerate(word)}))
    return out


@pytest.mark.parametrize("n", [3, 4, 5])
def test_permutation_psi_spectators_exhaustive(n):
    perms = _all_perms(n)
    for sigma in perms:
        for tau in perms:
            if sigma.cycle_count() >= tau.cycle_count():
                continue
            move = permutation_psi(sigma, tau)
            assert move.spectators_unchanged
            assert move.sigma_p.cycle_count() == sigma.cycle_count() + 1
            assert move.tau_p.cycle_count() == tau.cycle_count() - 1
            assert move.broken_cycle in sigma.cycles
            assert all(c in tau.cycles for c in move.glued_pair)


def test_unsigned_stirling_logconcavity():
    for n in range(2, 9):
        row = stirling_row(n).unsigned
        for k in range(1, n):
            assert row[k] * row[k] >= row[k - 1] * row[k + 1]
