import itertools
import math

import pytest

from mskit.bratteli import (CapExceeded, build, build_tower, census,
                            census_to_json, count_paths_reordered, decode_path,
                            encode_path, path_counts, paths_to, standard_types,
                            to_dot)
from mskit.staircase import dim, to_pair

from refdata import CENSUS_212, CENSUS_223, CENSUS_403


def test_build_top_levels():
    assert len(build(2, 2, 3).top_level()) == 5
    assert set(build(2, 1, 2).top_level()) == {(1, 0), (2, -1)}
    assert build(0, 0, 4).levels == [[(0, 0, 0, 0)]]


def test_level_growth_and_cutoff():
    diag = build(2, 2, 2)
    assert diag.levels[1] == [(1, 0)]
    assert diag.levels[2] == [(1, 1), (2, 0)]
    # no vertex would need a longer tuple: all are valid length-d staircases
    for level in diag.levels:
        for g in level:
            assert len(g) == 2 and g[0] >= g[1]


def test_paths_multiplicities():
    assert len(paths_to(build(2, 2, 2), (1, -1))) == 3
    assert len(paths_to(build(2, 2, 3), (1, 0, -1))) == 4
    paths = paths_to(build(2, 1, 2), (1, 0))
    assert len(paths) == 2
    assert {p.vertices for p in paths} == {
        ((0, 0), (1, 0), (2, 0), (1, 0)),
        ((0, 0), (1, 0), (1, 1), (1, 0)),
    }
    with pytest.raises(ValueError):
        paths_to(build(2, 1, 2), (3, -2))


def test_census_reference_values():
    got = {g: (dg, mg) for g, dg, mg in census(2, 2, 3)}
    assert got == CENSUS_223
    got = {g: (dg, mg) for g, dg, mg in census(4, 0, 3)}
    assert got == CENSUS_403
    got = {g: (dg, mg) for g, dg, mg in census(2, 1, 2)}
    assert got == CENSUS_212
    assert [g for g, _, _ in census(2, 1, 2)] == [(1, 0), (2, -1)]


def test_census_cap():
    with pytest.raises(CapExceeded):
        census(10, 10, 3, cap=4096)


def test_cap_bounds_the_legs_at_d1():
    # d^(n+m) is 1 at d = 1, so the cap bounds the legs as it does for d = 2
    assert len(census(12, 0, 1, cap=4096)) == 1
    for n, m in ((13, 0), (6, 7), (100000000, 0)):
        with pytest.raises(CapExceeded, match="legs exceeds cap"):
            census(n, m, 1, cap=4096)
    assert len(census(13, 0, 1, cap=8192)) == 1


@pytest.mark.parametrize("n,m,d", [
    (n, m, d) for d in (2, 3, 4) for n in range(4) for m in range(4)
    if d ** (n + m) <= 4096
])
def test_census_identity(n, m, d):
    entries = census(n, m, d)
    assert sum(dg * mg for _, dg, mg in entries) == d ** (n + m)


def test_multiplicity_depends_on_d():
    c2 = {g: mg for g, _, mg in census(2, 2, 2)}
    c3 = {g: mg for g, _, mg in census(2, 2, 3)}
    assert c2[(1, -1)] == 3
    assert c3[(1, 0, -1)] == 4


def test_reordered_counts_match():
    for d in (2, 3):
        base = {g: c for g, c in count_paths_reordered(2, 2, d, (1, 1, -1, -1)).items()}
        inter = {g: c for g, c in count_paths_reordered(2, 2, d, (1, -1, 1, -1)).items()}
        assert base == inter
    with pytest.raises(ValueError):
        count_paths_reordered(2, 2, 2, (1, 1, 1, -1))


def test_reordered_exhaustive_small():
    for d in (2, 3):
        for total in range(1, 6):
            for n in range(total + 1):
                m = total - n
                base = count_paths_reordered(n, m, d, standard_types(n, m))
                for perm in set(itertools.permutations(standard_types(n, m))):
                    assert count_paths_reordered(n, m, d, perm) == base


def test_reordered_admits_mixed_path():
    # a length-5 walk with types (-1,+1,+1,+1,-1) exists down to [ (1,1), (1) ]
    diag = build_tower((-1, 1, 1, 1, -1), d=4)
    target = (1, 1, 0, -1)
    walk = [(0, 0, 0, 0), (0, 0, 0, -1), (1, 0, 0, -1), (1, 1, 0, -1),
            (1, 1, 1, -1), (1, 1, 0, -1)]
    paths = paths_to(diag, target)
    assert tuple(walk) in {p.vertices for p in paths}


def test_pure_tensor_reduces_to_syt_counts():
    counts = path_counts(build(4, 0, 4))
    for g, c in counts.items():
        lam = tuple(x for x in g if x)
        assert c == hook_length_count(lam)


def test_path_encoding_round_trip():
    diag = build(2, 1, 2)
    p0 = next(p for p in paths_to(diag, (2, -1)))
    assert p0.steps == (1, 1, 2)
    assert encode_path(p0) == "001"
    for g in diag.top_level():
        for p in paths_to(diag, g):
            assert decode_path(2, 1, 2, encode_path(p)) == p
    diag = build(2, 2, 2)
    for g in diag.top_level():
        for p in paths_to(diag, g):
            assert decode_path(2, 2, 2, encode_path(p)) == p


def test_path_decode_errors():
    with pytest.raises(ValueError):
        decode_path(2, 1, 2, "0011")  # wrong length
    with pytest.raises(ValueError):
        decode_path(2, 1, 2, "010")   # second step breaks weak decrease
    bad = encode_path(paths_to(build(1, 1, 3), (0, 0, 0))[0])
    assert decode_path(1, 1, 3, bad).shape == (0, 0, 0)
    with pytest.raises(ValueError):
        decode_path(1, 1, 3, "1111")  # step index 4 out of range for d=3


# -- oracles: the hook length formula and the multiplicity bound --------------

def hook_length_count(lam: tuple[int, ...]) -> int:
    """Number of standard Young tableaux of partition shape lam."""
    lam = tuple(x for x in lam if x)
    if any(x <= 0 for x in lam) or any(lam[i] < lam[i + 1] for i in range(len(lam) - 1)):
        raise ValueError(f"not a partition: {lam}")
    n = sum(lam)
    if n == 0:
        return 1
    cols = [sum(1 for r in lam if r > c) for c in range(lam[0])]
    hooks = 1
    for i, row in enumerate(lam):
        for j in range(row):
            hooks *= row - j + cols[j] - i - 1
    return math.factorial(n) // hooks


def multiplicity_bound(gamma, n: int, m: int) -> int:
    """Combinatorial upper bound on the multiplicity of gamma = [alpha, beta]."""
    alpha, beta = to_pair(gamma)
    k = n - sum(alpha)
    if k != m - sum(beta) or k < 0:
        raise ValueError(f"{gamma} cannot occur at (n, m) = ({n}, {m})")
    return (math.comb(n, k) * math.comb(m, k) * math.factorial(k)
            * hook_length_count(alpha) * hook_length_count(beta))


def test_hook_lengths():
    assert hook_length_count(()) == 1
    assert hook_length_count((1,)) == 1
    assert hook_length_count((2, 1)) == 2
    assert hook_length_count((3, 1)) == 3
    assert hook_length_count((2, 2)) == 2
    with pytest.raises(ValueError):
        hook_length_count((1, 2))


@pytest.mark.parametrize("n,m,d", [(2, 2, 2), (2, 2, 3), (3, 1, 2), (2, 1, 4), (3, 2, 2)])
def test_multiplicity_bound_holds(n, m, d):
    for g, _, mg in census(n, m, d):
        assert mg <= multiplicity_bound(g, n, m)


def test_dot_export():
    dot = to_dot(build(1, 1, 2))
    assert dot.startswith("digraph")
    assert '[label="[1,-1]"]' in dot
    assert "rank=same" in dot


def test_census_json():
    out = census_to_json(census(0, 0, 5))
    assert '"staircase": "[0,0,0,0,0]"' in out
    assert '"dim": 1' in out


def test_path_order_matches_vertex_sort():
    diag = build(2, 2, 2)
    for g in diag.top_level():
        ps = paths_to(diag, g)
        assert [p.vertices for p in ps] == sorted(p.vertices for p in ps)


def test_census_is_sorted_by_staircase():
    entries = census(2, 2, 3)
    gs = [g for g, _, _ in entries]
    assert gs == sorted(gs)
    assert all(dim(g) == dg for g, dg, _ in entries)


@pytest.mark.parametrize("n,m,d", [(2, 1, 2), (2, 2, 3), (3, 3, 2), (0, 0, 3), (2, 1, 1)])
def test_row_layout_places_every_label(n, m, d):
    from mskit.bratteli import row_labels, row_layout

    layout = row_layout(n, m, d)
    assert layout is row_layout(n, m, d)
    assert [(g, dg, mg) for g, _, dg, mg in layout] == census(n, m, d)
    labels = row_labels(n, m, d)
    assert len(labels) == d ** (n + m)
    for row, (g, q, p) in enumerate(labels):
        _, start, dg, mg = next(b for b in layout if b[0] == g)
        assert row == start + p * dg + q and 0 <= q < dg and 0 <= p < mg
