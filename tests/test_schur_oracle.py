"""The sector-wise build and checks of the Schur transform against dense oracles.

The oracles are the straightforward formulas: the cascade as one einsum per
(leg, staircase), the random-phase weight check over all D x D entries, and
max |W Wt - I| from the full product.  They share no code with
mskit.schur beyond the CG transforms and the GT pattern weights.
"""

import dataclasses

import numpy as np
import pytest

from mskit.cg import cg_transform
from mskit.gelfand import enumerate_patterns, pattern_weight
from mskit.rand import rng_from_seed
from mskit.schur import build_mixed_schur, weight_check
from mskit.staircase import dim

# D <= 1024, with mixed factor orders
SHAPES = [(1, 1, 2, "-+"), (2, 1, 2, "-++"), (3, 2, 2, "+-+-+"), (2, 2, 2, "-+-+"),
          (1, 2, 3, "-+-"), (2, 2, 3, "+--+"), (4, 0, 3, None), (0, 3, 5, None),
          (2, 1, 4, "-++"), (2, 2, 4, "-++-"), (1, 2, 8, "-+-"), (5, 5, 2, None),
          (3, 2, 4, "+-+-+")]


def einsum_cascade(n, m, d, order):
    """Rows and labels of the transform, one einsum per (leg, staircase)."""
    order = order or "+" * n + "-" * m
    segments = [(((0,) * d,), np.ones((1, 1)))]
    for kind in order:
        grouped = {}
        for idx, (path, _) in enumerate(segments):
            grouped.setdefault(path[-1], []).append(idx)
        new_segments = []
        for g, idxs in grouped.items():
            t = cg_transform("defining" if kind == "+" else "dual", g)
            stack = np.stack([segments[i][1] for i in idxs])
            cube = t.matrix.reshape(t.matrix.shape[0], dim(g), d)
            out = np.einsum("rqi,sqn->srni", cube, stack)
            out = out.reshape(len(idxs), t.matrix.shape[0], -1)
            for target, off, sz in t.output_blocks:
                for a, i in enumerate(idxs):
                    new_segments.append((segments[i][0] + (target,), out[a, off:off + sz]))
        segments = new_segments
    segments.sort(key=lambda s: (s[0][-1], s[0]))
    basis, rows, mult = [], [], {}
    for path, block in segments:
        g = path[-1]
        p = mult.get(g, 0)
        mult[g] = p + 1
        basis.extend((g, q, p) for q in range(block.shape[0]))
        rows.append(block)
    return np.vstack(rows), basis


def dense_weights(W):
    """(row weights, column weights) as float arrays of shape (D, d)."""
    rows = np.array([pattern_weight(enumerate_patterns(g)[q]) for g, q, _ in W.basis])
    cols = np.zeros((W.size, W.d))
    reps = W.size
    for kind in W.factor_order:
        reps //= W.d
        idx = (np.arange(W.size) // reps) % W.d
        cols[np.arange(W.size), idx] += 1.0 if kind == "+" else -1.0
    return rows, cols


def dense_weight_check(W, seed=7, trials=5):
    rng = rng_from_seed(seed)
    weights, comp_w = dense_weights(W)
    W2 = np.abs(W.matrix.T) ** 2
    worst = 0.0
    for _ in range(trials):
        theta = rng.uniform(-np.pi, np.pi, size=W.d)
        tvec = np.exp(1j * (comp_w @ theta))
        phases = np.exp(1j * (weights @ theta))
        gap = np.abs(tvec[:, None] - phases[None, :]) ** 2
        worst = max(worst, float(np.sqrt((W2 * gap).sum())))
    return worst


def dense_unitarity(M):
    return float(np.abs(M @ M.T - np.eye(M.shape[0])).max())


def off_weight_copy(W, seed):
    """W with one entry between different weights moved by 1e-6."""
    rows, cols = dense_weights(W)
    a_idx, c_idx = np.nonzero((rows[:, None, :] != cols[None, :, :]).any(axis=2))
    k = rng_from_seed(seed).integers(len(a_idx))
    M = W.matrix.copy()
    M[a_idx[k], c_idx[k]] += 1e-6
    return dataclasses.replace(W, matrix=M)


@pytest.fixture(scope="module", params=SHAPES, ids=lambda s: "-".join(map(str, s)))
def built(request):
    n, m, d, order = request.param
    return build_mixed_schur(n, m, d, order), einsum_cascade(n, m, d, order)


def test_build_matches_einsum_cascade(built):
    W, (oracle, basis) = built
    assert W.basis == basis
    assert np.abs(W.matrix - oracle).max() <= 1e-15


@pytest.mark.parametrize("seed", [7, 2024])
def test_weight_check_matches_dense(built, seed):
    W, _ = built
    assert weight_check(W, seed=seed) == dense_weight_check(W, seed=seed) == 0.0
    Wp = off_weight_copy(W, seed)
    got, want = weight_check(Wp, seed=seed), dense_weight_check(Wp, seed=seed)
    assert got > 1e-7 and want > 1e-7
    assert abs(got - want) <= 1e-12 * want


def test_unitarity_residual_matches_dense(built):
    W, _ = built
    assert abs(W.unitarity_residual() - dense_unitarity(W.matrix)) <= 1e-14
    Wp = off_weight_copy(W, 0)
    assert Wp.unitarity_residual() >= dense_unitarity(Wp.matrix)
