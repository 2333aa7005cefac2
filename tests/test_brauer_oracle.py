"""brauer.represent against the loop over all d^N index tuples.

The oracle enumerates the column digits i, keeps those that satisfy the
top-top pairs, copies them through the top-bottom pairs and runs over the
free values of the bottom-bottom pairs, exactly as the definition of the
diagram action reads.  For a factor order other than all '+' then all '-',
the oracle conjugates that matrix by the tensor permutation that moves
diagram column k onto the k-th leg of its kind.
"""

import itertools

import numpy as np
import pytest
import scipy.sparse as sp

from mskit.brauer import all_diagrams, from_permutation, identity, represent
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


def permuted_represent(sigma, d, order):
    """P A P^T, P sending leg k of diagram order to leg perm[k] of order."""
    N = sigma.size
    perm = ([k for k, c in enumerate(order) if c == "+"]
            + [k for k, c in enumerate(order) if c == "-"])
    size = d ** N
    src = np.arange(size)
    dst = np.zeros(size, dtype=np.int64)
    for k in range(N):
        dst += ((src // d ** (N - 1 - k)) % d) * d ** (N - 1 - perm[k])
    P = sp.csr_matrix((np.ones(size, dtype=np.int64), (dst, src)), shape=(size, size))
    return P @ loop_represent(sigma, d).tocsr() @ P.T


@pytest.mark.parametrize("n,m", SMALL)
@pytest.mark.parametrize("d", [1, 2, 3])
def test_factor_order_matches_permuted_oracle(n, m, d):
    orders = sorted({"".join(p) for p in itertools.permutations("+" * n + "-" * m)})
    for sigma in all_diagrams(n, m):
        for order in orders:
            got = represent(sigma, d, cap=1 << 12, order=order)
            want = permuted_represent(sigma, d, order)
            assert got.dtype == want.dtype
            assert np.array_equal(got.toarray(), want.toarray()), order
    if n and m:
        with pytest.raises(ValueError):
            represent(identity(n, m), d, order="+" * (n + m))
