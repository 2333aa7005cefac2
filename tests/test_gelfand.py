import itertools

import numpy as np
import pytest

from mskit.gelfand import (enumerate_patterns, index_of, is_valid_pattern,
                           pattern_at, pattern_weight, pattern_weights, subduce,
                           subduce_offsets)
from mskit.staircase import dim, is_valid

from test_staircase import all_staircases


def brute_patterns(gamma):
    """Row-by-row enumeration independent of the library's recursion."""
    d = len(gamma)
    rows_by_level = {d: [gamma]}
    out = []

    def extend(partial):
        top = partial[-1]
        if len(top) == 1:
            out.append(tuple(partial))
            return
        k = len(top)
        for cand in itertools.product(
                *(range(top[i + 1], top[i] + 1) for i in range(k - 1))):
            if all(cand[i] >= cand[i + 1] for i in range(k - 2)):
                extend(partial + [cand])

    extend([gamma])
    return out


@pytest.mark.parametrize("gamma,middles", [
    ((2, -1), {-1, 0, 1, 2}),
    ((1, 0), {0, 1}),
])
def test_qubit_patterns(gamma, middles):
    pats = enumerate_patterns(gamma)
    assert len(pats) == dim(gamma)
    assert {p[1][0] for p in pats} == middles


def test_single_row():
    assert enumerate_patterns((0,)) == (((0,),),)


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_pattern_count_is_dim(d):
    for gamma in all_staircases(d, -3, 3):
        assert len(enumerate_patterns(gamma)) == dim(gamma)


@pytest.mark.parametrize("d", [2, 3])
def test_matches_brute_enumeration(d):
    for gamma in all_staircases(d, -2, 2):
        assert set(enumerate_patterns(gamma)) == set(brute_patterns(gamma))


def test_weights():
    assert pattern_weight(((2, -1), (0,))) == (0, 1)
    assert pattern_weight(((1, 0), (1,))) == (1, 0)
    assert pattern_weight(((0, 0), (0,))) == (0, 0)


@pytest.mark.parametrize("gammas", [
    [g for d in range(1, 5) for g in all_staircases(d, -3, 3)],
    [(2,) + (0,) * 14 + (-1,)]], ids=["d<=4", "d=16"])
def test_pattern_weights_match_per_pattern(gammas):
    for gamma in gammas:
        table = pattern_weights(gamma)
        want = np.array([pattern_weight(p) for p in enumerate_patterns(gamma)])
        assert table.dtype == np.int64 and table.shape == (dim(gamma), len(gamma))
        assert np.array_equal(table, want), gamma
        assert not table.flags.writeable
        assert pattern_weights(gamma) is table


def test_weight_sum_is_box_count():
    for gamma in all_staircases(3, -2, 2)[::4]:
        for p in enumerate_patterns(gamma):
            assert sum(pattern_weight(p)) == sum(gamma)


def test_weight_multiset_shift():
    for gamma in all_staircases(3, -1, 1):
        shifted = tuple(x + 2 for x in gamma)
        ws = sorted(pattern_weight(p) for p in enumerate_patterns(gamma))
        ws_shift = sorted(tuple(w - 2 for w in pattern_weight(p))
                          for p in enumerate_patterns(shifted))
        assert ws == ws_shift


def test_index_round_trip():
    for gamma in [(2, -1), (1, 0, -1), (2, 1, 0, -1)]:
        for k in range(dim(gamma)):
            assert index_of(pattern_at(gamma, k)) == k
    with pytest.raises(ValueError):
        pattern_at((1, 0), 5)


def test_canonical_order_weights_descend_on_middle():
    # weight of the indexed vector tracks the pattern rows: for (2,-1) the
    # first pattern carries weight (2,-1), the last (-1,2)
    pats = enumerate_patterns((2, -1))
    assert [p[1][0] for p in pats] == [2, 1, 0, -1]
    assert pattern_weight(pats[0]) == (2, -1)
    assert pattern_weight(pats[-1]) == (-1, 2)


def test_subduce_blocks():
    blocks = subduce((2, -1))
    assert [(mu, size) for mu, _, size in blocks] == \
        [((2,), 1), ((1,), 1), ((0,), 1), ((-1,), 1)]

    blocks = subduce((1, 0, 0))
    assert [(mu, size) for mu, _, size in blocks] == [((1, 0), 2), ((0, 0), 1)]
    assert sum(size for _, _, size in blocks) == dim((1, 0, 0)) == 3

    with pytest.raises(ValueError):
        subduce((1,))


def test_subduce_offsets_is_one_read_only_mapping():
    offsets = subduce_offsets((2, 0, -1))
    assert dict(offsets) == {mu: off for mu, off, _ in subduce((2, 0, -1))}
    assert subduce_offsets((2, 0, -1)) is offsets
    with pytest.raises(TypeError):
        offsets[(9, 9)] = 0


@pytest.mark.parametrize("d", [2, 3, 4])
def test_subduce_partitions_canonical_order(d):
    for gamma in all_staircases(d, -2, 2)[::3]:
        pats = enumerate_patterns(gamma)
        expected = 0
        for mu, off, size in subduce(gamma):
            assert off == expected
            assert is_valid(mu)
            for k in range(off, off + size):
                assert pats[k][1] == mu
            expected = off + size
        assert expected == dim(gamma)


def pattern_to_json(pattern):
    """JSON encoding: list of rows, top row first, e.g. [[2,-1],[0]]."""
    return [list(row) for row in pattern]


def pattern_from_json(data):
    pattern = tuple(tuple(int(x) for x in row) for row in data)
    if not is_valid_pattern(pattern):
        raise ValueError(f"invalid GT pattern: {data}")
    return pattern


def test_json_round_trip():
    p = ((2, -1), (0,))
    assert pattern_to_json(p) == [[2, -1], [0]]
    assert pattern_from_json([[2, -1], [0]]) == p
    with pytest.raises(ValueError):
        pattern_from_json([[2, -1], [3]])
