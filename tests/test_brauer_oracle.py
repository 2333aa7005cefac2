"""brauer.represent against the loop over all d^N index tuples.

The oracle enumerates the column digits i, keeps those that satisfy the
top-top pairs, copies them through the top-bottom pairs and runs over the
free values of the bottom-bottom pairs, exactly as the definition of the
diagram action reads.
"""

import itertools

import numpy as np
import pytest
import scipy.sparse as sp

from mskit.brauer import all_diagrams, from_permutation, represent
from mskit.rand import rng_from_seed


def loop_represent(sigma, d):
    N = sigma.size
    dim = d ** N
    top_top, top_bot, bot_bot = [], {}, []
    for x in range(2 * N):
        y = sigma.pairing[x]
        if x > y:
            continue
        if x < N and y < N:
            top_top.append((x, y))
        elif x < N <= y:
            top_bot[x] = y - N
        else:
            bot_bot.append((x - N, y - N))
    rows, cols = [], []
    strides = [d ** (N - 1 - k) for k in range(N)]
    for i in itertools.product(range(d), repeat=N):
        if any(i[a] != i[b] for a, b in top_top):
            continue
        col = sum(v * s for v, s in zip(i, strides))
        base = [0] * N
        for a, c in top_bot.items():
            base[c] = i[a]
        for vals in itertools.product(range(d), repeat=len(bot_bot)):
            j = list(base)
            for (a, b), v in zip(bot_bot, vals):
                j[a] = j[b] = v
            rows.append(sum(v * s for v, s in zip(j, strides)))
            cols.append(col)
    data = np.ones(len(rows), dtype=np.int64)
    return sp.coo_matrix((data, (rows, cols)), shape=(dim, dim))


def assert_same(sigma, d):
    got, want = represent(sigma, d, cap=1 << 12), loop_represent(sigma, d)
    assert got.shape == want.shape and got.dtype == want.dtype
    assert np.array_equal(got.toarray(), want.toarray())
    # same entries in the same order, not only the same matrix
    assert np.array_equal(got.row, want.row) and np.array_equal(got.col, want.col)


SMALL = [(n, N - n) for N in range(5) for n in range(N + 1)]


@pytest.mark.parametrize("n,m", SMALL)
@pytest.mark.parametrize("d", [1, 2, 3])
def test_every_small_diagram(n, m, d):
    for sigma in all_diagrams(n, m):
        assert_same(sigma, d)


@pytest.mark.parametrize("n,m,d", [(5, 5, 2), (3, 2, 4), (2, 3, 4), (3, 3, 3),
                                   (4, 1, 4), (1, 4, 4), (2, 2, 5)])
def test_seeded_random_diagrams(n, m, d):
    rng = rng_from_seed(31 + n + 7 * m + 11 * d)
    for _ in range(4):
        perm = tuple(int(x) for x in rng.permutation(n + m))
        assert_same(from_permutation(perm, n, m), d)
