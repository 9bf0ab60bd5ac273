from itertools import combinations
from math import comb
from random import Random

import pytest

from isf import (
    NotASubset,
    NotInImage,
    SizeViolation,
    phi,
    phi_inverse,
    phi_reversed,
    subset_pair_map,
)
from isf.brackets import _phi, _unmatched


def test_phi_hand_traces():
    assert phi({1, 2, 3}, {1}) == {1, 3}
    assert phi({1, 2, 3}, {2}) == {1, 2}
    assert phi({1, 2, 3}, {3}) == {2, 3}
    assert phi({2, 3}, set()) == {3}
    assert phi({1}, set()) == {1}


def test_phi_errors():
    with pytest.raises(SizeViolation):
        phi({1, 2, 3}, {1, 2})
    with pytest.raises(NotASubset):
        phi({1, 2, 3}, {4})


@pytest.mark.parametrize("fn", [phi, phi_inverse, phi_reversed])
def test_frozenset_and_list_callers_agree(fn):
    # frozensets skip the repeated-element check and the set rebuild; the
    # answers and the error messages must not depend on that
    def outcome(ground, subset):
        try:
            return fn(ground, subset)
        except (NotASubset, NotInImage, SizeViolation) as exc:
            return type(exc), str(exc)

    for m in range(6):
        ground = [2 * i + 1 for i in range(m)]
        for subset in [*map(list, combinations(ground, m // 2)), [0], [3, 99]]:
            want = outcome(ground, subset)
            assert outcome(frozenset(ground), frozenset(subset)) == want
            assert outcome(set(ground), subset) == want
        assert outcome(frozenset(ground), frozenset({0}))[0] is NotASubset
    with pytest.raises(NotASubset, match="repeated"):
        fn([1, 1, 2], [1])
    with pytest.raises(NotASubset, match="repeated"):
        fn([1, 2, 3, 4, 5], [1, 1])


def _valid_pairs_on_8():
    # every (Y, X): Y a subset of {1..8}, X a subset of Y with |X| < |Y|/2
    for m in range(9):
        for ground in combinations(range(1, 9), m):
            for k in range((m + 1) // 2):
                yield from ((ground, sub) for sub in combinations(ground, k))


def test_phi_memo_agrees_with_uncached_core():
    uncached = _phi.__wrapped__
    for list_first in (True, False):
        _phi.cache_clear()
        for ground, sub in _valid_pairs_on_8():
            want = uncached(frozenset(ground), frozenset(sub))
            calls = [(list(ground), list(sub)), (frozenset(ground), frozenset(sub))]
            for args in calls if list_first else calls[::-1]:
                assert phi(*args) == want, (ground, sub)
    assert _phi.cache_info().hits > 0


@pytest.mark.parametrize("ground, subset, error", [
    ({1, 2, 3}, {1, 2}, SizeViolation),
    ({1, 2, 3}, {4}, NotASubset),
    (set(), set(), SizeViolation),
])
def test_phi_memo_caches_no_error(ground, subset, error):
    ground, subset = frozenset(ground), frozenset(subset)
    _phi.cache_clear()
    messages = []
    for _ in range(2):
        with pytest.raises(error) as info:
            phi(ground, subset)
        messages.append(str(info.value))
    assert messages[0] == messages[1]
    assert _phi.cache_info().misses == 2 and _phi.cache_info().currsize == 0


def test_phi_memo_stays_within_its_bound():
    bound = _phi.cache_info().maxsize
    assert bound is not None
    ground = frozenset(range(1, 13))
    _phi.cache_clear()
    for sub in (frozenset(x) for m in range(13) for x in combinations(ground, m)):
        try:
            phi(ground, sub)
        except SizeViolation:
            assert 2 * len(sub) >= len(ground)
    # 1,586 subsets are valid; past the bound, the oldest answers go
    info = _phi.cache_info()
    assert info.misses == 4096 and info.currsize == min(bound, 1586)


def test_phi_inverse_round_trips():
    assert phi_inverse({1, 2, 3}, {1, 3}) == {1}
    assert phi_inverse({1}, {1}) == set()
    pre = phi_inverse({1, 2, 3, 4}, {2, 4})
    assert phi({1, 2, 3, 4}, pre) == {2, 4}


def test_phi_inverse_not_in_image():
    with pytest.raises(NotInImage):
        phi_inverse({1, 2, 3, 4}, set())
    # no 1-subset of {1,2,3,4} maps onto {1,2}: the images are
    # {1,4}, {2,4}, {2,3}, {3,4}
    with pytest.raises(NotInImage):
        phi_inverse({1, 2, 3, 4}, {1, 2})


def _exhaustive_axioms(successor, ground):
    ground = tuple(sorted(ground))
    m = len(ground)
    for k in range((m + 1) // 2):
        images = set()
        for sub in combinations(ground, k):
            image = successor(ground, frozenset(sub))
            assert set(sub) < image and len(image) == k + 1
            assert frozenset(image) not in images
            images.add(frozenset(image))


@pytest.mark.parametrize("m", range(0, 11))
def test_phi_axioms_exhaustive(m):
    _exhaustive_axioms(phi, range(1, m + 1))
    # also over a non-contiguous ground set
    _exhaustive_axioms(phi, [2 * i + 1 for i in range(m)])


@pytest.mark.parametrize("m", range(1, 11))
def test_phi_reversed_axioms_exhaustive(m):
    _exhaustive_axioms(phi_reversed, range(1, m + 1))


@pytest.mark.parametrize("m", [11, 12, 13, 14])
def test_phi_axioms_sampled_large(m):
    rng = Random(1729 + m)
    ground = tuple(range(1, m + 1))
    for k in range(m // 2 + (m % 2) - 1, -1, -1):
        if k < 0:
            break
        seen = {}
        for _ in range(300):
            sub = frozenset(rng.sample(ground, k))
            image = phi(ground, sub)
            assert sub < image and len(image) == k + 1
            if image in seen:
                assert seen[image] == sub  # same preimage, else collision
            seen[image] = sub


def test_phi_inverse_is_left_inverse_exhaustive():
    for m in range(0, 9):
        ground = tuple(range(1, m + 1))
        for k in range((m + 1) // 2):
            for sub in combinations(ground, k):
                image = phi(ground, frozenset(sub))
                assert phi_inverse(ground, image) == frozenset(sub)


def test_binomial_monotonicity_corollary():
    for n in range(1, 15):
        for k in range(n // 2 + (1 if n % 2 else 0)):
            if k < n / 2:
                assert comb(n, k) <= comb(n, k + 1)


def test_bracket_state_chain_invariant():
    # ")()()" over 1..5 with X = {2, 5}: 2 matches 3, so 1 and 4 stay closes
    closes, opens = _unmatched((1, 2, 3, 4, 5), {2, 5})
    assert closes == [1, 4]
    assert opens == [5]
    for m in range(9):
        ground = tuple(range(1, m + 1))
        for k in range(m + 1):
            for sub in combinations(ground, k):
                closes, opens = _unmatched(ground, frozenset(sub))
                assert all(c < o for c in closes for o in opens)
                # each match removes one open and one close bracket
                assert len(opens) - len(closes) == 2 * k - m


def test_subset_pair_map_examples():
    assert subset_pair_map(3, {1}, {2, 3}) == ({1, 3}, {2}, 3)
    for x, y in (([1, 1], [2, 3, 4]), ([1], [2, 3, 3, 4])):
        with pytest.raises(NotASubset, match="repeated"):
            subset_pair_map(4, x, y)
    assert subset_pair_map(1, set(), {1}) == ({1}, set(), 1)
    assert subset_pair_map(2, set(), {1, 2}) == ({2}, {1}, 2)
    with pytest.raises(SizeViolation):
        subset_pair_map(3, {1, 2}, {3})
    # elements are checked against 1..n one by one, as ints
    assert subset_pair_map(10**12, {1}, {2, 10**12}) == (
        {1, 10**12}, {2}, 10**12)
    for x in ({0}, {5}, {True}, {2.0}):
        with pytest.raises(NotASubset, match=r"is not a subset of 1\.\.4$"):
            subset_pair_map(4, x, {2, 3})


def test_subset_pair_map_contracts_and_injectivity():
    for n in range(1, 9):
        universe = tuple(range(1, n + 1))
        for k in range(n + 1):
            for l in range(k + 1, n + 1):
                images = set()
                for x in combinations(universe, k):
                    for y in combinations(universe, l):
                        xp, yp, i = subset_pair_map(n, x, y)
                        assert i in set(y) - set(x)
                        assert len(xp) == k + 1 and len(yp) == l - 1
                        assert sorted(list(xp) + list(yp)) == sorted(x + y)
                        assert (xp, yp) not in images
                        images.add((xp, yp))
