"""The sector-wise build and checks of the Schur transform against dense oracles.

The oracles are the straightforward formulas: the cascade as one einsum per
(leg, staircase), the random-phase weight check over all D x D entries,
max |W Wt - I| from the full product, and the verification residuals read
from the dense M = W A W^dagger.  They share no code with mskit.schur beyond
the CG transforms and the GT pattern weights.
"""

import math

import numpy as np
import pytest

from mskit import schur
from mskit.bratteli import row_labels
from mskit.brauer import all_diagrams, from_permutation
from mskit.cg import cg_transform
from mskit.gelfand import enumerate_patterns, pattern_weight
from mskit.rand import haar_unitary, rng_from_seed
from mskit.schur import (SchurTransform, build_mixed_schur, verify_blockdiag, verify_brauer,
                         weight_check)
from mskit.staircase import dim

from test_brauer_oracle import permuted_represent
from test_schur import block_phased

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
            cube = t.matrix.toarray().reshape(t.matrix.shape[0], dim(g), d)
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
    rows = np.array([pattern_weight(enumerate_patterns(g)[q])
                     for g, q, _ in row_labels(W.n, W.m, W.d)])
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
    return SchurTransform.from_matrix(W.n, W.m, W.d, W.factor_order, M)


@pytest.fixture(scope="module", params=SHAPES, ids=lambda s: "-".join(map(str, s)))
def built(request):
    n, m, d, order = request.param
    return build_mixed_schur(n, m, d, order), einsum_cascade(n, m, d, order)


def test_build_matches_einsum_cascade(built):
    W, (oracle, basis) = built
    assert row_labels(W.n, W.m, W.d) == basis
    assert np.abs(W.matrix - oracle).max() <= 1e-15


@pytest.mark.parametrize("seed", [7, 2024])
def test_weight_check_matches_dense(built, seed):
    W, _ = built
    assert weight_check(W, seed=seed) == dense_weight_check(W, seed=seed) == 0.0
    Wp = off_weight_copy(W, seed)
    got, want = weight_check(Wp, seed=seed), dense_weight_check(Wp, seed=seed)
    assert got > 1e-7 and want > 1e-7
    assert abs(got - want) <= 1e-12 * want


def dense_unitarity_bound(W):
    """unitarity_residual's formula from dense masks: the exact residual of
    each weight sector's diagonal block B plus 2 max ||B_a|| max ||E_a|| +
    max ||E_a||^2, E_a the entries of row a outside its sector's columns."""
    rows, cols = dense_weights(W)
    M = W.matrix  # assembled once
    exact = b_max = e_max = 0.0
    for w in np.unique(rows, axis=0):
        r, c = (rows == w).all(axis=1), (cols == w).all(axis=1)
        B, E = M[np.ix_(r, c)], M[np.ix_(r, ~c)]
        exact = max(exact, np.abs(B @ B.conj().T - np.eye(len(B))).max())
        b_max = max(b_max, np.linalg.norm(B, axis=1).max())
        e_max = max(e_max, np.linalg.norm(E, axis=1).max())
    return exact + 2 * b_max * e_max + e_max ** 2


@pytest.mark.parametrize("phased", [False, True])
def test_checks_with_many_off_sector_entries_match_dense(built, phased):
    """Several off-sector entries, some sharing a row, real and complex W."""
    W, _ = built
    if phased:
        W = block_phased(W, 44)
    rows, cols = dense_weights(W)
    a_idx, c_idx = np.nonzero((rows[:, None, :] != cols[None, :, :]).any(axis=2))
    rng = np.random.default_rng(45)
    pick = rng.choice(len(a_idx), size=min(12, len(a_idx)), replace=False)
    row = a_idx[pick[0]]  # and every off-sector entry of one row
    pick = np.union1d(pick, np.flatnonzero(a_idx == row))
    M = W.matrix.copy()
    M[a_idx[pick], c_idx[pick]] += 1e-4 * rng.standard_normal(len(pick))
    Wp = SchurTransform.from_matrix(W.n, W.m, W.d, W.factor_order, M)
    got, want = Wp.unitarity_residual(), dense_unitarity_bound(Wp)
    assert want > 1e-5 and abs(got - want) <= 1e-12 * want
    got, want = weight_check(Wp, seed=3), dense_weight_check(Wp, seed=3)
    assert want > 1e-5 and abs(got - want) <= 1e-12 * want


def test_unitarity_residual_matches_dense(built):
    W, _ = built
    assert abs(W.unitarity_residual() - dense_unitarity(W.matrix)) <= 1e-14
    Wp = off_weight_copy(W, 0)
    assert Wp.unitarity_residual() >= dense_unitarity(Wp.matrix)


def test_unitarity_residual_in_row_chunks_matches_dense(built, monkeypatch):
    # chunks of at most 3 rows, so that most sectors span several
    W, _ = built
    monkeypatch.setattr(schur, "_COLUMN_ENTRIES", 3 * max(map(len, W.rows)))
    assert abs(W.unitarity_residual() - dense_unitarity(W.matrix)) <= 1e-14
    Wp = off_weight_copy(W, 0)
    assert Wp.unitarity_residual() >= dense_unitarity(Wp.matrix)
    # a NaN in the last row of the widest sector, which only the last chunk reads
    k = max(range(len(W.rows)), key=lambda k: len(W.rows[k]))
    M = W.matrix.copy()
    M[W.rows[k][-1], W.cols[k][0]] = np.nan
    assert np.isnan(SchurTransform.from_matrix(W.n, W.m, W.d, W.factor_order,
                                               M).unitarity_residual())


def dense_block_residuals(W, A, extract):
    """(off-block, structure, blocks) read from the dense M = W A W^dagger.

    Each label block is gathered by its (gamma, q, p) labels as a
    (p, q, p', q') array and fitted as Id (x) X ("irrep", X the mean of the
    diagonal p blocks) or X (x) Id ("mult", X the mean of the diagonal q
    entries).
    """
    M = W.matrix @ A @ W.matrix.conj().T
    basis = row_labels(W.n, W.m, W.d)
    gammas = sorted({g for g, _, _ in basis})
    gid = np.array([gammas.index(g) for g, _, _ in basis])
    off = float(np.abs(M[gid[:, None] != gid[None, :]]).max(initial=0.0))
    struct, blocks = 0.0, {}
    for g in gammas:
        labels = [(q, p, k) for k, (gg, q, p) in enumerate(basis) if gg == g]
        dg = 1 + max(q for q, _, _ in labels)
        mg = 1 + max(p for _, p, _ in labels)
        idx = np.empty((mg, dg), dtype=int)
        for q, p, k in labels:
            idx[p, q] = k
        T = M[np.ix_(idx.ravel(), idx.ravel())].reshape(mg, dg, mg, dg)
        if extract == "irrep":
            X = sum(T[p, :, p, :] for p in range(mg)) / mg
            fit = np.kron(np.eye(mg), X)
        else:
            X = sum(T[:, q, :, q] for q in range(dg)) / dg
            fit = np.kron(X, np.eye(dg))
        blocks[g] = X
        struct = max(struct, float(np.abs(T.reshape(dg * mg, -1) - fit).max()))
    return off, struct, blocks


def assert_report_matches(rep, want):
    off, struct, blocks = want
    assert abs(rep.off_block_residual - off) <= 1e-13
    assert abs(rep.structure_residual - struct) <= 1e-13
    assert rep.blocks.keys() == blocks.keys()
    for g, X in blocks.items():
        assert np.abs(rep.blocks[g] - X).max() <= 1e-13


def leaky_copy(W):
    """W plus 1e-6 in every entry, so its off-sector part touches every row."""
    V = SchurTransform.from_matrix(W.n, W.m, W.d, W.factor_order, W.matrix + 1e-6)
    assert len(np.unique(V.off.nonzero()[0])) == W.size
    return V


def shape_diagrams(W, rng):
    """Every diagram of W's shape, or three seeded ones where the dense
    oracle would check more than 24 * 1024 rows of M in all."""
    N = W.n + W.m
    if math.factorial(N) * W.size <= 24 * 1024:
        return all_diagrams(W.n, W.m)
    return [from_permutation(tuple(int(x) for x in rng.permutation(N)), W.n, W.m)
            for _ in range(3)]


@pytest.mark.parametrize("variant", ["built", "off-sector entry", "complex", "leaky"])
def test_verification_matches_dense_conjugation(built, variant, monkeypatch):
    W, _ = built
    if variant == "off-sector entry":
        W = off_weight_copy(W, 1)
    elif variant == "complex":
        W = block_phased(W, 41)
    elif variant == "leaky":
        W = leaky_copy(W)
    rng = rng_from_seed(40 + W.size)
    U = haar_unitary(W.d, rng)
    A = np.ones((1, 1))
    for kind in W.factor_order:
        A = np.kron(A, U if kind == "+" else U.conj())
    haar = dense_block_residuals(W, A, "irrep")
    diagrams = [(sigma, dense_block_residuals(
        W, permuted_represent(sigma, W.d, W.factor_order).toarray(), "mult"))
        for sigma in shape_diagrams(W, rng)]
    # whole label blocks, then chunks of max(3, D/16) columns, so that every
    # label block wider than that spans several
    for entries in (schur._COLUMN_ENTRIES, max(3, W.size // 16) * W.size):
        monkeypatch.setattr(schur, "_COLUMN_ENTRIES", entries)
        assert_report_matches(verify_blockdiag(W, U), haar)
        for sigma, want in diagrams:
            assert_report_matches(verify_brauer(W, sigma), want)
