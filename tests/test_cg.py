import numpy as np
import pytest

from mskit.bratteli import CapExceeded
from mskit.cg import (bend, cg_transform, clear_cache, defining_cg, dual_cg,
                      weight_sparsity_residual)
from mskit.gelfand import enumerate_patterns, index_of
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
        assert np.allclose(t.matrix, np.eye(d))


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


def test_bend_block_norms():
    # rows of the defining transform that land in block nu carry total
    # Frobenius weight dim(nu) (they are dim(nu) orthonormal rows)
    for lam in [(0, 0), (1, 0), (1, 1, 0)]:
        t = defining_cg(lam)
        for nu, off, size in t.output_blocks:
            blk = t.matrix[off:off + size]
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
    assert np.array_equal(a, c)  # bit-identical rebuild


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
