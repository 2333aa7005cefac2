import dataclasses
import itertools

import numpy as np
import pytest
import scipy.linalg

from mskit import bratteli, brauer, schur
from mskit.bratteli import CapExceeded
from mskit.channels import choi_to_schur, random_cptp_choi, twirl
from mskit.rand import haar_unitary, rng_from_seed
from mskit.schur import (build_mixed_schur, mixed_tensor_factors,
                         parse_factor_order, ptpqp_amplitude, verify_blockdiag,
                         verify_brauer, weight_check)

from refdata import W212, W212_ORDER, row_sign_vector


def kron_all(mats):
    out = np.eye(1)
    for m in mats:
        out = np.kron(out, m)
    return out


def test_one_dimensional_qudits():
    # d = 1: every irrep is a determinant power; the transform is trivial
    W = build_mixed_schur(2, 1, 1)
    assert W.basis == [((1,), 0, 0)]
    assert W.matrix.shape == (1, 1) and W.matrix[0, 0] == 1.0
    rep = verify_blockdiag(W, haar_unitary(1, rng_from_seed(0)))
    assert rep.off_block_residual < 1e-14
    assert weight_check(W) < 1e-14


def test_single_leg_transforms():
    W = build_mixed_schur(1, 0, 3)
    assert np.allclose(W.matrix, np.eye(3))
    assert W.basis == [((1, 0, 0), q, 0) for q in range(3)]

    W = build_mixed_schur(0, 1, 3)
    assert W.basis == [((0, 0, -1), q, 0) for q in range(3)]
    # a single dual leg maps |i> to the weight -e_{i+1} label, up to sign
    assert np.allclose(np.abs(W.matrix), np.eye(3)[:, ::-1])
    rep = verify_blockdiag(W, haar_unitary(3, rng_from_seed(1)))
    assert rep.off_block_residual < 1e-12


def test_reference_matrix_up_to_row_signs():
    W = build_mixed_schur(2, 1, 2, W212_ORDER)
    signs = row_sign_vector(W.matrix, W212)
    assert signs is not None


def test_factor_order_validation():
    with pytest.raises(ValueError):
        parse_factor_order("++", 2, 1)
    with pytest.raises(ValueError):
        build_mixed_schur(2, 1, 2, "+++")
    with pytest.raises(CapExceeded):
        build_mixed_schur(7, 0, 7)


def test_labels_match_census():
    for n, m, d in [(2, 1, 2), (2, 2, 2), (2, 2, 3), (1, 1, 4), (3, 0, 2)]:
        W = build_mixed_schur(n, m, d)
        assert W.census() == bratteli.census(n, m, d)


def test_census_is_order_independent():
    for order in set(itertools.permutations("++--")):
        W = build_mixed_schur(2, 2, 2, "".join(order))
        assert W.census() == bratteli.census(2, 2, 2)


def test_paths_match_bratteli_order():
    for n, m, d in [(2, 1, 2), (2, 2, 2), (2, 2, 3)]:
        W = build_mixed_schur(n, m, d)
        diag = bratteli.build(n, m, d)
        for g, dg, mg in W.census():
            expected = [p.vertices for p in bratteli.paths_to(diag, g)]
            got = [W.path_of[(g, p)] for p in range(mg)]
            assert got == expected


def test_row_index_lookup():
    W = build_mixed_schur(2, 1, 2)
    assert W.row_index((1, 0), 0, 0) == 0
    assert W.row_index((2, -1), 3, 0) == 7
    with pytest.raises(ValueError):
        W.row_index((1, 0), 0, 5)


GRID = [(1, 1, 2), (2, 1, 2), (1, 2, 2), (2, 2, 2), (3, 1, 2),
        (1, 1, 3), (2, 1, 3), (1, 2, 3), (1, 1, 4), (2, 0, 5), (0, 2, 4)]


@pytest.mark.parametrize("n,m,d", GRID)
def test_blockdiag_random_unitaries(n, m, d):
    W = build_mixed_schur(n, m, d)
    assert W.unitarity_residual() < 1e-12
    rng = rng_from_seed(42)
    for _ in range(5):
        rep = verify_blockdiag(W, haar_unitary(d, rng))
        assert rep.off_block_residual < 1e-11
        assert rep.structure_residual < 1e-11


def test_blockdiag_identity():
    W = build_mixed_schur(2, 1, 2)
    rep = verify_blockdiag(W, np.eye(2))
    assert rep.off_block_residual < 1e-14
    for g, Q in rep.blocks.items():
        assert np.allclose(Q, np.eye(Q.shape[0]))


def test_extracted_blocks_are_multiplicative():
    W = build_mixed_schur(2, 1, 2)
    rng = rng_from_seed(9)
    U, V = haar_unitary(2, rng), haar_unitary(2, rng)
    bU = verify_blockdiag(W, U).blocks
    bV = verify_blockdiag(W, V).blocks
    bUV = verify_blockdiag(W, U @ V).blocks
    for g in bU:
        assert np.abs(bU[g] @ bV[g] - bUV[g]).max() < 1e-9


def test_blockdiag_mixed_order():
    rng = rng_from_seed(4)
    for order in ["-++", "+-+", "-+-+", "+--+"]:
        n, m = order.count("+"), order.count("-")
        W = build_mixed_schur(n, m, 2, order)
        rep = verify_blockdiag(W, haar_unitary(2, rng))
        assert rep.off_block_residual < 1e-11
        assert rep.structure_residual < 1e-11


@pytest.mark.parametrize("n,m,d", [(1, 1, 2), (2, 1, 2), (1, 2, 2), (2, 2, 2), (2, 1, 3)])
def test_brauer_blockdiag(n, m, d):
    W = build_mixed_schur(n, m, d)
    for sigma in brauer.all_diagrams(n, m):
        rep = verify_brauer(W, sigma)
        assert rep.off_block_residual < 1e-10
        assert rep.structure_residual < 1e-10


def test_brauer_identity_blocks():
    W = build_mixed_schur(2, 1, 2)
    rep = verify_brauer(W, brauer.identity(2, 1))
    for g, P in rep.blocks.items():
        assert np.allclose(P, np.eye(P.shape[0]), atol=1e-12)


def test_brauer_trace_identity():
    from mskit.staircase import dim

    for n, m, d in [(2, 1, 2), (2, 2, 2), (1, 2, 3)]:
        W = build_mixed_schur(n, m, d)
        for sigma in brauer.all_diagrams(n, m):
            rep = verify_brauer(W, sigma)
            total = sum(dim(g) * np.trace(P).real for g, P in rep.blocks.items())
            direct = brauer.represent(sigma, d).toarray().trace()
            assert total == pytest.approx(direct, abs=1e-9)


def test_extracted_diagram_blocks_respect_loops():
    d = 2
    W = build_mixed_schur(1, 1, d)
    diagrams = brauer.all_diagrams(1, 1)
    reps = {s: verify_brauer(W, s).blocks for s in diagrams}
    for s1 in diagrams:
        for s2 in diagrams:
            s, loops = brauer.compose(s1, s2)
            for g in reps[s1]:
                got = reps[s1][g] @ reps[s2][g]
                expected = d ** loops * reps[s][g]
                assert np.abs(got - expected).max() < 1e-10


def test_multiplicity_blocks_depend_on_d():
    W2 = build_mixed_schur(2, 2, 2)
    W3 = build_mixed_schur(2, 2, 3)
    sigma = brauer.identity(2, 2)
    b2 = verify_brauer(W2, sigma).blocks
    b3 = verify_brauer(W3, sigma).blocks
    assert b2[(1, -1)].shape == (3, 3)
    assert b3[(1, 0, -1)].shape == (4, 4)


@pytest.mark.parametrize("n,m,d", GRID)
def test_weight_check(n, m, d):
    W = build_mixed_schur(n, m, d)
    assert weight_check(W) < 1e-11


def test_weight_phase_example():
    # the top-weight vector of the (2,-1) sector picks up exp(i(2 t1 - t2))
    W = build_mixed_schur(2, 1, 2, W212_ORDER)
    t1, t2 = 0.31, -1.12
    U = np.diag(np.exp([1j * t1, 1j * t2]))
    M = W.matrix @ kron_all(mixed_tensor_factors(U, W.factor_order)) @ W.matrix.conj().T
    r = W.row_index((2, -1), 0, 0)
    assert abs(M[r, r] - np.exp(1j * (2 * t1 - t2))) < 1e-12


def hermitian_terms(diagrams, coeffs):
    terms = []
    for s, c in zip(diagrams, coeffs):
        terms.append((c / 2, s))
        terms.append((c / 2, brauer.dagger(s)))
    return terms


@pytest.mark.parametrize("n,m,d", [(1, 1, 2), (2, 1, 2)])
def test_ptpqp_matches_expm(n, m, d):
    rng = rng_from_seed(12)
    diagrams = brauer.all_diagrams(n, m)
    W = build_mixed_schur(n, m, d)
    for _ in range(3):
        picks = rng.choice(len(diagrams), size=2, replace=False)
        coeffs = rng.standard_normal(2)
        terms = hermitian_terms([diagrams[k] for k in picks], coeffs)
        H = sum(c * brauer.represent(s, d).toarray() for c, s in terms)
        t = 0.7
        expH = scipy.linalg.expm(-1j * t * H)
        M = W.matrix @ expH @ W.matrix.conj().T
        for frm in [W.basis[0], W.basis[-1]]:
            for to in [W.basis[0], W.basis[len(W.basis) // 2]]:
                got = ptpqp_amplitude(n, m, d, terms, t, frm, to)
                want = abs(M[W.row_index(*to), W.row_index(*frm)]) ** 2
                assert got == pytest.approx(want, abs=1e-10)


def test_ptpqp_trivial_cases():
    W = build_mixed_schur(1, 1, 2)
    lab0, lab1 = W.basis[0], W.basis[1]
    e = brauer.identity(1, 1)
    assert ptpqp_amplitude(1, 1, 2, [(1.0, e)], 0.0, lab0, lab0) == pytest.approx(1.0)
    assert ptpqp_amplitude(1, 1, 2, [(1.0, e)], 0.0, lab0, lab1) == pytest.approx(0.0)
    # identity diagram evolution is a global phase
    assert ptpqp_amplitude(1, 1, 2, [(1.0, e)], 1.3, lab0, lab0) == pytest.approx(1.0)


def test_ptpqp_cupcap_against_direct():
    cc = brauer.parse_diagram("t1-t2,b1-b2", 1, 1)
    W = build_mixed_schur(1, 1, 2)
    t = np.pi / 4
    H = brauer.represent(cc, 2).toarray().astype(float)
    expH = scipy.linalg.expm(-1j * t * H)
    M = W.matrix @ expH @ W.matrix.conj().T
    for frm in W.basis:
        for to in W.basis:
            got = ptpqp_amplitude(1, 1, 2, [(1.0, cc)], t, frm, to)
            want = abs(M[W.row_index(*to), W.row_index(*frm)]) ** 2
            assert got == pytest.approx(want, abs=1e-10)


def test_ptpqp_rejects_nonhermitian():
    perm = brauer.from_permutation((1, 0, 2), 2, 1)
    with pytest.raises(ValueError):
        ptpqp_amplitude(2, 1, 2, [(1.0j, perm)], 0.5,
                        ((1, 0), 0, 0), ((1, 0), 0, 0))


def block_phased(W, seed, per="gamma, p"):
    """W with each (gamma, p) label block, or each (gamma, q) set of rows,
    times its own phase: still a mixed Schur transform, now complex, with
    W W^dagger = I.  Conjugating with W^T instead of W^dagger squares the
    phases, which the Q (x) Id form shows in the first case and the
    Id (x) P form in the second."""
    rng = rng_from_seed(seed)
    theta = {}
    key = (lambda g, q, p: (g, p)) if per == "gamma, p" else (lambda g, q, p: (g, q))
    phases = np.array([np.exp(1j * theta.setdefault(key(*lab), rng.uniform(-np.pi, np.pi)))
                       for lab in W.basis])
    return dataclasses.replace(W, matrix=phases[:, None] * W.matrix)


@pytest.mark.parametrize("per", ["gamma, p", "gamma, q"])
@pytest.mark.parametrize("n,m,d", [(2, 1, 2), (1, 2, 3), (2, 2, 2)])
def test_complex_transform_is_verified_with_its_adjoint(n, m, d, per):
    V = block_phased(build_mixed_schur(n, m, d), 31, per)
    assert np.iscomplexobj(V.matrix)
    assert V.unitarity_residual() < 1e-14
    assert weight_check(V) == 0.0
    U = haar_unitary(d, rng_from_seed(32))
    rep = verify_blockdiag(V, U)
    assert max(rep.off_block_residual, rep.structure_residual) < 1e-12
    for sigma in brauer.all_diagrams(n, m):
        rep = verify_brauer(V, sigma)
        assert max(rep.off_block_residual, rep.structure_residual) < 1e-12


def test_phase_varying_inside_a_block_fails_verification():
    V = block_phased(build_mixed_schur(2, 1, 2), 33)
    bad = V.matrix.copy()
    bad[V.row_index((1, 0), 1, 0)] *= np.exp(0.7j)  # only q = 1 of ((1,0), p=0)
    B = dataclasses.replace(V, matrix=bad)
    assert B.unitarity_residual() < 1e-14  # still unitary
    U = haar_unitary(2, rng_from_seed(34))
    assert verify_blockdiag(B, U).structure_residual > 1e-3


def test_built_matrix_is_read_only():
    W = build_mixed_schur(2, 1, 2)
    with pytest.raises(ValueError):
        W.matrix[0, 0] = 1.0
    with pytest.raises(ValueError):
        W.matrix *= -1


def test_reassigned_or_replaced_matrix_gets_its_own_split():
    W = build_mixed_schur(2, 1, 2)
    X = rng_from_seed(41).standard_normal((W.size, 3))
    split = W.split
    assert W.split is split
    with pytest.raises(dataclasses.FrozenInstanceError):
        W.matrix = -W.matrix
    flipped = -W.matrix
    V = dataclasses.replace(W, matrix=flipped)
    assert V.matrix is flipped and not flipped.flags.writeable  # owned, not copied
    assert V.split is not split and V.split is V.split
    assert np.allclose(V.split.matmul(X), flipped @ X, atol=1e-15)
    assert W.split is split
    assert np.allclose(W.split.matmul(X), W.matrix @ X, atol=1e-15)


def test_transforms_compare_and_hash_by_identity():
    W = build_mixed_schur(1, 1, 2)
    V = dataclasses.replace(W, matrix=W.matrix.copy())
    assert (W == V) is False and (W != V) is True and (W == W) is True
    assert hash(W) == hash(W) and len({W, V, W}) == 2


def test_editing_the_array_behind_a_view_leaves_the_transform():
    W = build_mixed_schur(2, 1, 2)
    X = rng_from_seed(46).standard_normal((W.size, 3))
    base = W.matrix.copy()
    V = dataclasses.replace(W, matrix=base[:])
    split = V.split
    base *= 2.0
    assert base.flags.writeable and not V.matrix.flags.writeable
    assert np.array_equal(V.matrix, W.matrix)
    assert V.split is split
    assert np.allclose(split.matmul(X), W.matrix @ X, atol=1e-15)
    assert V.unitarity_residual() < 1e-14


@pytest.fixture
def splits_made(monkeypatch):
    """The transforms each new _SectorSplit was made for, in order."""
    made = []

    class Counting(schur._SectorSplit):
        def __init__(self, W):
            made.append(W)
            super().__init__(W)

    monkeypatch.setattr(schur, "_SectorSplit", Counting)
    return made


def test_one_sector_split_per_transform(splits_made):
    W = build_mixed_schur(2, 2, 2)
    assert W.unitarity_residual() < 1e-14
    rng = rng_from_seed(42)
    for _ in range(20):
        rep = verify_blockdiag(W, haar_unitary(2, rng))
        assert max(rep.off_block_residual, rep.structure_residual) < 1e-13
    for sigma in brauer.all_diagrams(2, 2):
        rep = verify_brauer(W, sigma)
        assert max(rep.off_block_residual, rep.structure_residual) < 1e-13
    assert weight_check(W) == 0.0
    W.split.matmul(np.eye(W.size), adjoint=True)
    assert len(splits_made) == 1 and splits_made[0] is W


def test_channel_products_share_the_split(splits_made):
    W = build_mixed_schur(2, 1, 2, "-++")
    J = twirl(random_cptp_choi(1, 2, 2, rng_from_seed(43)), W)
    rep = choi_to_schur(J, W)
    assert max(rep.off_block_residual, rep.structure_residual) < 1e-13
    assert len(splits_made) == 1 and splits_made[0] is W


def test_labels_come_from_the_row_layout():
    from mskit.bratteli import row_labels

    for order in ("++--", "+-+-", "--++"):
        W = build_mixed_schur(2, 2, 2, order)
        assert W.basis == row_labels(2, 2, 2)
        assert [W.row_index(*lab) for lab in W.basis] == list(range(W.size))
    with pytest.raises(TypeError):
        schur.SchurTransform(n=1, m=1, d=2, factor_order="+-", matrix=np.eye(4),
                             basis=W.basis)
    with pytest.raises(ValueError, match="does not fit"):
        schur.SchurTransform(n=1, m=1, d=2, factor_order="+-", matrix=np.eye(3))


def test_build_rejects_segments_off_the_layout(monkeypatch):
    # a layout whose blocks come in another order than the cascade's segments
    layout = bratteli.row_layout(2, 1, 2)
    monkeypatch.setattr(schur, "row_layout", lambda n, m, d: layout[::-1])
    with pytest.raises(RuntimeError, match="row_layout"):
        build_mixed_schur(2, 1, 2)


@pytest.mark.parametrize("coeff,t", [(float("nan"), 1.0), (float("inf"), 1.0),
                                     (1.0, float("nan")), (1.0, float("inf"))])
def test_ptpqp_rejects_non_finite_input(coeff, t):
    label = ((1, -1), 0, 0)
    with pytest.raises(ValueError, match="not hermitian|not finite"):
        ptpqp_amplitude(1, 1, 2, [(coeff, brauer.identity(1, 1))], t, label, label)


def test_parse_factor_order_is_shared():
    assert parse_factor_order is bratteli.parse_factor_order
    sigma = brauer.from_permutation((1, 0, 2), 2, 1)
    want = brauer.represent(sigma, 2, order="+-+").toarray()
    assert np.array_equal(brauer.represent(sigma, 2, order="+−+").toarray(), want)
    with pytest.raises(ValueError, match="factor order"):
        brauer.represent(sigma, 2, order="++-+")
