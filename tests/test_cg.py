import dataclasses

import numpy as np
import pytest

from mskit import cg
from mskit.bratteli import CapExceeded
from mskit.cg import (CGTransform, bend, cg_transform, clear_cache, defining_cg, dual_cg,
                      weight_sparsity_residual)
from mskit.gelfand import enumerate_patterns, index_of, pattern_weight
from mskit.staircase import add_box_set, dim, remove_box_set

from test_staircase import all_staircases


def test_dual_base_case():
    t = dual_cg((3,))
    assert t.matrix.shape == (1, 1) and t.matrix[0, 0] == 1.0
    assert t.output_blocks == (((2,), 0, 1),)


def test_dual_qubit_structure():
    t = dual_cg((1, 0))
    assert t.matrix.shape == (4, 4)
    assert t.output_blocks == (((0, 0), 0, 1), ((1, -1), 1, 3))
    assert t.unitarity_residual() < 1e-14


def test_defining_trivial_is_identity():
    for d in (2, 3, 4):
        t = defining_cg((0,) * d)
        assert t.output_blocks == (((1,) + (0,) * (d - 1), 0, d),)
        assert np.allclose(t.matrix.toarray(), np.eye(d))


def test_defining_qubit_blocks():
    t = defining_cg((1, 0))
    assert [(g, s) for g, _, s in t.output_blocks] == [((1, 1), 1), ((2, 0), 3)]
    assert t.unitarity_residual() < 1e-14
    # the one-dimensional block is the singlet: support on |01>, |10> with
    # amplitudes of equal magnitude 1/sqrt(2) and opposite signs
    row = t.block((1, 1))[0]
    # columns are (pattern q, leg i) with q the patterns of (1,0)
    q_top = index_of(((1, 0), (1,)))   # weight (1,0), the |0> state
    q_bot = index_of(((1, 0), (0,)))   # weight (0,1), the |1> state
    amp01 = row[q_top * 2 + 1]
    amp10 = row[q_bot * 2 + 0]
    assert abs(abs(amp01) - 1 / np.sqrt(2)) < 1e-14
    assert abs(amp01 + amp10) < 1e-14
    assert abs(row[q_top * 2 + 0]) < 1e-14 and abs(row[q_bot * 2 + 1]) < 1e-14


@pytest.mark.parametrize("d", [1, 2, 3])
def test_unitarity_exhaustive(d):
    for g in all_staircases(d, -2, 2):
        assert dual_cg(g).unitarity_residual() < 1e-10
        assert defining_cg(g).unitarity_residual() < 1e-10


def test_unitarity_d4_sample():
    for g in [(0, 0, 0, 0), (1, 0, 0, -1), (2, 1, -1, -2), (3, 1, 0, 0)]:
        assert dual_cg(g).unitarity_residual() < 1e-10
        assert defining_cg(g).unitarity_residual() < 1e-10


@pytest.mark.parametrize("d", [2, 3])
def test_block_targets_and_sizes(d):
    for g in all_staircases(d, -2, 2)[::2]:
        t = dual_cg(g)
        assert [b[0] for b in t.output_blocks] == remove_box_set(g)
        assert sum(b[2] for b in t.output_blocks) == d * dim(g)
        t = defining_cg(g)
        assert [b[0] for b in t.output_blocks] == add_box_set(g)
        assert sum(b[2] for b in t.output_blocks) == d * dim(g)
        assert all(b[2] == dim(b[0]) for b in t.output_blocks)


@pytest.mark.parametrize("gamma", [(1, 0), (2, -1), (1, 0, -1), (2, 0, 0)])
def test_weight_conservation(gamma):
    assert weight_sparsity_residual(dual_cg(gamma)) == 0.0
    assert weight_sparsity_residual(defining_cg(gamma)) == 0.0


def loop_weight_residual(t):
    """weight_sparsity_residual as a double loop over every dense entry."""
    d = t.d
    w = t.matrix.toarray()
    in_pats = enumerate_patterns(t.input_irrep)
    worst = 0.0
    for g, off, size in t.output_blocks:
        out_pats = enumerate_patterns(g)
        for r in range(size):
            w_out = np.array(pattern_weight(out_pats[r]))
            for c in range(w.shape[1]):
                q, i = divmod(c, d)
                w_in = np.array(pattern_weight(in_pats[q]))
                w_in[i] += 1 if t.kind == "defining" else -1
                if not np.array_equal(w_out, w_in):
                    worst = max(worst, abs(w[off + r, c]))
    return worst


@pytest.mark.parametrize("d", [1, 2, 3])
def test_weight_residual_matches_loop_oracle(d):
    for g in all_staircases(d, -2, 2):
        for t in (dual_cg(g), defining_cg(g)):
            assert weight_sparsity_residual(t) == loop_weight_residual(t) == 0.0, (t.kind, g)


@pytest.mark.parametrize("kind", ["dual", "defining"])
def test_weight_residual_fails_a_mutated_entry(kind):
    t = cg_transform(kind, (2, 0, -1))
    w, d = t.matrix, t.d
    # a column row 0 does not store, whose (q, i) cannot reach row 0's weight
    step = 1 if kind == "defining" else -1
    row0 = np.array(pattern_weight(enumerate_patterns(t.output_blocks[0][0])[0]))
    in_pats = enumerate_patterns(t.input_irrep)
    c = next(c for c in range(w.shape[1]) if w[0, c] == 0 and not np.array_equal(
        np.array(pattern_weight(in_pats[c // d])) + step * np.eye(d, dtype=int)[c % d], row0))
    bad = cg._csr(np.append(w.entry_rows(), 0), np.append(w.indices, c),
                  np.append(w.data, 0.25), w.shape[0])
    mutated = CGTransform(t.input_irrep, d, kind, bad, t.output_blocks)
    assert loop_weight_residual(mutated) == weight_sparsity_residual(mutated) == 0.25


def test_bend_block_norms():
    # rows of the defining transform that land in block nu carry total
    # Frobenius weight dim(nu) (they are dim(nu) orthonormal rows)
    for lam in [(0, 0), (1, 0), (1, 1, 0)]:
        t = defining_cg(lam)
        for nu, off, size in t.output_blocks:
            blk = t.matrix[off:off + size].toarray()
            assert np.linalg.norm(blk) ** 2 == pytest.approx(dim(nu), abs=1e-10)


def test_bend_shape_validation():
    t = dual_cg((1, 0))
    blk = t.block((0, 0))
    with pytest.raises(ValueError):
        bend(blk, 3, 5, 2)


def test_recursion_consistency():
    # applying the assembled transform to a vector supported on a single
    # second-row sector agrees with the two-stage computation: the U(d-1)
    # transform on the tail followed by the reduced Wigner mixing
    from mskit.gelfand import subduce_offsets
    from mskit.wigner import dual_reduced_wigner

    mu = (2, 0, -1)
    d = 3
    t = dual_cg(mu)
    pats = enumerate_patterns(mu)
    in_off = subduce_offsets(mu)
    rng = np.random.default_rng(0)
    for mup, off0 in in_off.items():
        dmup = dim(mup)
        vec = np.zeros(t.matrix.shape[1])
        amps = rng.standard_normal(dmup * d)
        for k in range(dmup):
            for i in range(d):
                vec[(off0 + k) * d + i] = amps[k * d + i]
        got = t.matrix @ vec
        # stage 1: U(d-1) transform of the (content, leg) tail for i < d
        sub = dual_cg(mup)
        tail = np.zeros(sub.matrix.shape[1])
        for k in range(dmup):
            tail[k * (d - 1):(k + 1) * (d - 1)] = amps[k * d:k * d + d - 1]
        staged = sub.matrix @ tail
        # stage 2: reduced Wigner coefficients splice the staged amplitudes
        # (and the untouched i = d amplitudes) into the U(d) targets
        expected = np.zeros_like(got)
        for target, t_off, _ in t.output_blocks:
            j = 1 + next(k for k in range(d) if target[k] != mu[k])
            out_off = subduce_offsets(target)
            if mup in out_off:
                c = dual_reduced_wigner(mu, j, mup, 0)
                for k in range(dmup):
                    expected[t_off + out_off[mup] + k] += c * amps[k * d + d - 1]
            for nup, s_off, s_size in sub.output_blocks:
                if nup not in out_off:
                    continue
                jp = 1 + next(k for k in range(d - 1) if nup[k] != mup[k])
                c = dual_reduced_wigner(mu, j, mup, jp)
                for k in range(s_size):
                    expected[t_off + out_off[nup] + k] += c * staged[s_off + k]
        assert np.allclose(got, expected, atol=1e-12)


def test_memo_transparency():
    a = dual_cg((1, 0, -1)).matrix
    b = dual_cg((1, 0, -1)).matrix
    assert a is b  # cached object
    clear_cache()
    c = dual_cg((1, 0, -1)).matrix
    assert a is not c
    assert np.array_equal(a.toarray(), c.toarray())  # bit-identical rebuild


def test_transforms_compare_and_hash_by_identity():
    t = dual_cg((1, 0, -1))
    u = dataclasses.replace(t)
    assert (t == u) is False and (t != u) is True and (t == t) is True
    assert hash(t) == hash(dual_cg((1, 0, -1))) and len({t, u, t}) == 2


def test_cap():
    with pytest.raises(CapExceeded):
        dual_cg((30, 20, 10, 0, -10), cap=1000)
    with pytest.raises(ValueError):
        cg_transform("other", (1, 0))


def test_memoized_matrices_are_read_only():
    for t in (dual_cg((1, 0, -1)), defining_cg((1, 0, 0))):
        assert cg_transform(t.kind, t.input_irrep) is t
        with pytest.raises(ValueError):
            t.matrix[0, 0] = 2.0
        with pytest.raises(ValueError):
            t.block(t.output_blocks[0][0])[0] = 0.0


def test_sparse_memo_is_immutable():
    clear_cache()
    t = dual_cg((2, 1, 0, -1))
    m = t.matrix
    first = [x.copy() for x in (m.data, m.indices, m.indptr)]
    target = t.output_blocks[1][0]
    with pytest.raises(ValueError):
        t.matrix *= 2
    with pytest.raises(ValueError):
        m *= 2
    with pytest.raises(ValueError):
        t.matrix.data[0] = 0
    with pytest.raises(ValueError):
        t.matrix[0, 0] = 0.0
    with pytest.raises(ValueError):
        t.matrix[0, int(np.flatnonzero(m[[0]].toarray()[0] == 0)[0])] = 1.0  # not stored
    with pytest.raises(ValueError):
        t.block(target)[0, 0] = 0.0
    with pytest.raises(ValueError):
        t.matrix.T[0, 0] = 1.0  # the transpose shares the frozen arrays
    # copies are the caller's to edit
    tt = t.matrix.T.copy()
    tt.data[:] = 7.0
    dense = t.matrix.toarray()
    dense[:] = 7.0
    blk = t.block(target)
    blk.data[:] = 7.0
    assert dual_cg((2, 1, 0, -1)) is t and t.matrix is m
    for x, y in zip(first, (m.data, m.indices, m.indptr)):
        assert np.array_equal(x, y)
    assert t.unitarity_residual() < 1e-13
    clear_cache()
    again = dual_cg((2, 1, 0, -1)).matrix
    assert again is not m
    for x, y in zip(first, (again.data, again.indices, again.indptr)):
        assert x.dtype == y.dtype and np.array_equal(x, y)


def test_matrix_nbytes_counts_the_stored_arrays():
    for t in (dual_cg((2, 1, 0, -1)), defining_cg((1, 1, 0, -1))):
        m = t.matrix
        assert m.nbytes == m.data.nbytes + m.indices.nbytes + m.indptr.nbytes
        assert m.nbytes < 8 * m.shape[0] * m.shape[1] / 4
