"""Property tests of the combinatorics under the transform, on random
shapes: the number of GT patterns of a staircase is its Weyl dimension,
a Bratteli path survives its bit encoding, and the census of a mixed
tensor power adds up to its dimension.  The index arithmetic the layers
share (ranges laid end to end, groups by key) is checked against plain
loops."""

from fractions import Fraction

import numpy as np
from hypothesis import example, given, settings, strategies as st

from mskit._arrays import group, ranges, spans
from mskit.bratteli import census, decode_path, encode_path, standard_types, BratteliPath
from mskit.gelfand import enumerate_patterns, pattern_weights
from mskit.staircase import add_box_set, remove_box_set

PROPERTY = settings(derandomize=True, database=None, max_examples=60, deadline=None)


def weyl_dimension(gamma):
    """prod_{i<j} (g_i - g_j + j - i) / (j - i), in exact arithmetic."""
    out = Fraction(1)
    for i in range(len(gamma)):
        for j in range(i + 1, len(gamma)):
            out *= Fraction(gamma[i] - gamma[j] + j - i, j - i)
    assert out.denominator == 1
    return int(out)


@st.composite
def staircases(draw):
    d = draw(st.integers(1, 4))
    gaps = draw(st.lists(st.integers(0, 3), min_size=d - 1, max_size=d - 1))
    top = draw(st.integers(-3, 3))
    return tuple(top - sum(gaps[:k]) for k in range(d))


@st.composite
def shapes(draw):
    """(n, m, d) with d^(n+m) <= 4096 and at most 8 legs."""
    d = draw(st.integers(1, 5))
    legs = draw(st.integers(0, 8 if d < 3 else 5 if d == 3 else 4))
    n = draw(st.integers(0, legs))
    return n, legs - n, d


@given(staircases())
@PROPERTY
def test_gt_pattern_count_is_the_weyl_dimension(gamma):
    assert len(enumerate_patterns(gamma)) == weyl_dimension(gamma)
    assert len(pattern_weights(gamma)) == weyl_dimension(gamma)


@given(shapes(), st.data())
@PROPERTY
def test_a_path_survives_its_encoding(shape, data):
    n, m, d = shape
    vertices = [(0,) * d]
    for t in standard_types(n, m):
        steps = add_box_set(vertices[-1]) if t > 0 else remove_box_set(vertices[-1])
        vertices.append(data.draw(st.sampled_from(steps)))
    path = BratteliPath(vertices=tuple(vertices), types=standard_types(n, m))
    bits = encode_path(path)
    assert len(bits) == (max(1, (d - 1).bit_length()) if d > 1 else 0) * (n + m)
    assert decode_path(n, m, d, bits) == path


@given(shapes())
@PROPERTY
def test_the_census_adds_up_to_the_dimension(shape):
    n, m, d = shape
    entries = census(n, m, d)
    assert all(dg == weyl_dimension(g) and mg >= 1 for g, dg, mg in entries)
    assert sum(dg * mg for _, dg, mg in entries) == d ** (n + m)


@st.composite
def runs(draw):
    """(lengths, starts): lengths with zeros among them, starts a scalar or
    one per length."""
    lengths = draw(st.lists(st.integers(0, 4), max_size=8))
    starts = draw(st.integers(-5, 20) | st.lists(st.integers(-5, 20), min_size=len(lengths),
                                                 max_size=len(lengths)))
    return lengths, starts


@given(runs())
@example(([], 0))
@example(([], []))
@example(([0, 3, 0], 7))
@PROPERTY
def test_ranges_and_spans_match_a_loop(case):
    lengths, starts = case
    owner, at = [], []
    for i, n in enumerate(lengths):
        s = starts if isinstance(starts, int) else starts[i]
        owner += [i] * n
        at += range(s, s + n)
    starts = starts if isinstance(starts, int) else np.array(starts, dtype=np.intp)
    lengths = np.array(lengths, dtype=np.intp)
    got_owner, got_at = ranges(lengths, starts)
    assert got_owner.tolist() == owner and got_at.tolist() == at
    assert spans(starts, lengths).tolist() == at
    if isinstance(starts, int) and starts == 0:
        assert ranges(lengths)[1].tolist() == at


@given(st.lists(st.integers(0, 5), max_size=20), st.integers(0, 8))
@example([], 0)
@example([], 3)
@PROPERTY
def test_group_matches_a_loop(key, groups):
    order, first, count, rank = group(np.array(key, dtype=np.intp), groups)
    members = [[i for i, k in enumerate(key) if k == g]
               for g in range(max(groups, max(key, default=-1) + 1))]
    assert count.tolist() == [len(x) for x in members]
    assert first.tolist() == [sum(map(len, members[:g])) for g in range(len(members))]
    assert order.tolist() == [i for x in members for i in x]
    assert rank.tolist() == [members[k].index(i) for i, k in enumerate(key)]
