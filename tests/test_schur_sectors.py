"""The weight-sector form of SchurTransform against its dense matrix.

A transform holds only its sector blocks and the sparse part outside them;
W.matrix assembles the dense W on each access.  These tests check every row
read and product of the sector form against that dense oracle, for built,
phased and off-sector-perturbed transforms, that no verification,
channel or ptpqp path ever assembles it, and that the diagram side of
verify works inside the weight sectors alone.
"""

import dataclasses
import itertools
import tracemalloc

import numpy as np
import pytest
import scipy.sparse

from mskit import brauer, cg, schur
from mskit.gelfand import pattern_weights
from mskit import io as mio
from mskit.channels import choi_to_schur, random_cptp_choi, twirl
from mskit.cli import main
from mskit.rand import haar_unitary, rng_from_seed
from mskit.schur import (SchurTransform, build_mixed_schur, ptpqp_amplitude,
                         verify_blockdiag, verify_brauer, weight_check)

from test_schur import GRID, block_phased
from test_schur_oracle import off_weight_copy


def bits(a):
    """The bit patterns of a float or complex array, so -0.0 != 0.0."""
    return np.ascontiguousarray(a).view(np.uint64)


def variants(W, seed):
    V = block_phased(W, seed)
    return {"built": W, "off-sector": off_weight_copy(W, seed + 1),
            "phased": V, "phased, off-sector": off_weight_copy(V, seed + 2)}


def row_sets(W, rng):
    """Label blocks, strided (gamma, q, .) rows, every row, a shuffled subset."""
    sets = [slice(start, start + dg * mg) for _, start, dg, mg in W.layout]
    sets += [slice(start + dg - 1, start + dg * mg, dg) for _, start, dg, mg in W.layout]
    return sets + [slice(None), rng.permutation(W.size)[:max(1, W.size // 3)]]


def check_row_reads(name, V, rng, M=None):
    """Row reads of V against M, V.matrix unless given."""
    M = V.matrix if M is None else M
    for index in row_sets(V, rng):
        got = V.take_rows(index)
        assert got.dtype == M.dtype, name
        assert np.array_equal(bits(got), bits(M[index])), (name, index)
        # conj turns the +0.0 imaginary part of a zero entry into -0.0,
        # so the adjoint is compared by value, exactly
        want = M[index].conj().T
        assert np.array_equal(V.take_rows(index, adjoint=True), want), name


@pytest.mark.parametrize("n,m,d", GRID)
def test_sector_form_matches_the_dense_oracle(n, m, d):
    W = build_mixed_schur(n, m, d)
    rng = rng_from_seed(70 + W.size)
    X = rng.standard_normal((W.size, 4)) + 1j * rng.standard_normal((W.size, 4))
    for name, V in variants(W, 71).items():
        assert (V.off is None) == (name in ("built", "phased")), name
        check_row_reads(name, V, rng)
        M = V.matrix
        for Y in (X.real, X, X[:, 0]):
            assert np.abs(V.matmul(Y) - M @ Y).max() <= 1e-15, name
            assert np.abs(V.matmul(Y, adjoint=True) - M.conj().T @ Y).max() <= 1e-15, name
    # a split matrix reads back bit for bit, the signed zeros that a row
    # phase or a sign leaves outside the sectors included
    phases = np.exp(1j * rng.uniform(-np.pi, np.pi, W.size))
    for M in (-W.matrix, phases[:, None] * W.matrix):
        V = SchurTransform.from_matrix(n, m, d, W.factor_order, M)
        assert np.array_equal(bits(V.matrix), bits(M))
        check_row_reads("split", V, rng, M)


def test_row_reads_span_several_chunks():
    # D = 243: take_rows reads 64 rows at a time
    W = build_mixed_schur(3, 2, 3)
    for name, V in variants(W, 74).items():
        check_row_reads(name, V, rng_from_seed(75))


def entry_variants(W, seed):
    """variants(W, seed), plus every other row negated (signed zeros outside the
    sectors), noise on every entry, and a NaN outside a sector."""
    M = W.matrix
    signs = np.where(np.arange(W.size) % 2, 1.0, -1.0)
    noise = 1e-9 * rng_from_seed(seed).standard_normal(M.shape)
    nan = M.copy()
    nan[tuple(np.argwhere(W.sectors[1][:, None] != W.sectors[2][None, :])[0])] = np.nan
    split = {name: SchurTransform.from_matrix(W.n, W.m, W.d, W.factor_order, X)
             for name, X in (("negated rows", signs[:, None] * M), ("noisy", M + noise),
                             ("nan outside", nan))}
    return {**variants(W, seed), **split}


def entry_chunks(V, step):
    """The entries of every row of V, step rows at a time, as from_entries takes them."""
    for a in range(0, V.size, step):
        rows = np.arange(a, min(a + step, V.size))
        j, c, v = V.entries(rows)
        yield rows[j], c, v


@pytest.mark.parametrize("step", [50, 243])
def test_entries_give_from_entries_the_same_transform(step):
    W = build_mixed_schur(3, 2, 3)  # D = 243
    for name, V in entry_variants(W, 80).items():
        R = SchurTransform.from_entries(V.n, V.m, V.d, V.factor_order, entry_chunks(V, step))
        assert R.dtype == V.dtype, name
        assert np.array_equal(bits(R.data), bits(V.data)), name
        assert (R.off is None) == (V.off is None), name
        if V.off is not None:
            assert np.array_equal(R.off.indptr, V.off.indptr), name
            assert np.array_equal(R.off.indices, V.off.indices), name
            assert np.array_equal(bits(R.off.data), bits(V.off.data)), name
        assert (R._zeros is None) == (V._zeros is None), name
        # each variant holds what it is named for
        assert name != "negated rows" or V._zeros is not None
        assert name != "nan outside" or np.isnan(V.off.data).any()
        if V._zeros is not None:
            assert all(map(np.array_equal, R._zeros, V._zeros)), name


def test_from_matrix_equals_every_entry_through_from_entries():
    # from_matrix hands over only the entries with a set bit; handing over
    # every entry, each +0.0 included, must give the same transform bit for bit
    W = build_mixed_schur(3, 2, 3)  # D = 243
    for name, V in entry_variants(W, 83).items():
        M = V.matrix
        R = SchurTransform.from_matrix(V.n, V.m, V.d, V.factor_order, M)
        r, c = np.indices(M.shape).reshape(2, -1)
        E = SchurTransform.from_entries(V.n, V.m, V.d, V.factor_order, [(r, c, M.ravel())],
                                        M.dtype)
        assert R.dtype == E.dtype == M.dtype, name
        assert np.array_equal(bits(R.data), bits(E.data)), name
        assert (R.off is None) == (E.off is None), name
        if E.off is not None:
            for x in ("indptr", "indices"):
                assert np.array_equal(getattr(R.off, x), getattr(E.off, x)), name
            assert np.array_equal(bits(R.off.data), bits(E.off.data)), name
        assert (R._zeros is None) == (E._zeros is None), name
        if E._zeros is not None:
            assert all(map(np.array_equal, R._zeros, E._zeros)), name
        assert np.array_equal(bits(R.matrix), bits(M)), name


def test_take_rows_is_the_scatter_of_entries():
    W = build_mixed_schur(3, 2, 3)  # D = 243, so take_rows reads several chunks
    for name, V in entry_variants(W, 81).items():
        for index in (slice(None), slice(5, 200), slice(3, None, 7), slice(None, None, -2),
                      rng_from_seed(82).permutation(V.size)[:100]):
            rows = np.arange(V.size)[index]
            j, c, v = V.entries(rows)
            want = np.zeros((len(rows), V.size), V.dtype)
            want[j, c] = v
            assert np.array_equal(bits(V.take_rows(index)), bits(want)), (name, index)
            want = np.zeros((V.size, len(rows)), V.dtype)
            want[c, j] = v.conj()
            assert np.array_equal(bits(V.take_rows(index, adjoint=True)), bits(want)), (name, index)


def test_built_transform_holds_no_dense_array():
    W = build_mixed_schur(5, 5, 2)
    verify_blockdiag(W, haar_unitary(2, rng_from_seed(72)))
    assert W.off is None
    inside = sum(len(r) * len(c) for r, c in zip(W.rows, W.cols))
    assert sum(B.size for B in W.blocks) == inside < W.size ** 2 // 4
    held = [a for a in vars(W).values() if isinstance(a, np.ndarray)]
    held += [a for v in vars(W).values() if isinstance(v, tuple)
             for a in v if isinstance(a, np.ndarray)]
    assert held and max(a.size for a in held) < W.size ** 2 // 4
    assert not any(a.flags.writeable for a in held)


@pytest.fixture
def dense_reads(monkeypatch):
    """The transforms whose dense W.matrix was assembled, in order."""
    reads = []
    dense = schur.SchurTransform.matrix

    def counting(W):
        reads.append(W)
        return dense.fget(W)

    monkeypatch.setattr(schur.SchurTransform, "matrix", property(counting))
    return reads


def test_verification_never_assembles_the_dense_matrix(dense_reads, tmp_path, capsys):
    W = build_mixed_schur(2, 2, 2)
    W.matrix
    assert dense_reads == [W]  # the fixture sees every read
    f = tmp_path / "w"
    f.write_text(mio.dumps(mio.write_schur, W))
    dense_reads.clear()

    rng = rng_from_seed(73)
    assert W.unitarity_residual() < 1e-14
    rep = verify_blockdiag(W, haar_unitary(2, rng))
    assert max(rep.off_block_residual, rep.structure_residual) < 1e-13
    for sigma in brauer.all_diagrams(2, 2):
        rep = verify_brauer(W, sigma)
        assert max(rep.off_block_residual, rep.structure_residual) < 1e-13
    assert weight_check(W) == 0.0

    Wc = build_mixed_schur(2, 1, 2, "-++")
    J = twirl(random_cptp_choi(1, 2, 2, rng), Wc)
    rep = choi_to_schur(J, Wc)
    assert max(rep.off_block_residual, rep.structure_residual) < 1e-13
    cc = brauer.from_permutation((1, 0, 2), 2, 1)
    p = ptpqp_amplitude(2, 1, 2, [(0.5, cc), (0.5, brauer.dagger(cc))], 0.7,
                        ((1, 0), 0, 0), ((1, 0), 0, 1))
    assert 0.0 <= p <= 1.0 + 1e-12

    assert main(["verify", "2", "2", "2", "--trials", "2"]) == 0
    assert main(["verify", "--file", str(f), "--trials", "2"]) == 0
    assert "FAIL" not in capsys.readouterr().out
    assert dense_reads == []


@pytest.fixture
def products(monkeypatch):
    """(name, transform) of every W.matmul and W.take_rows call, in order."""
    calls = []

    def counting(name):
        method = getattr(schur.SchurTransform, name)

        def counted(W, *args, **kw):
            calls.append((name, W))
            return method(W, *args, **kw)
        return counted

    for name in ("matmul", "take_rows"):
        monkeypatch.setattr(schur.SchurTransform, name, counting(name))
    return calls


def test_the_diagram_side_stays_inside_the_sectors(products):
    W = build_mixed_schur(2, 2, 3)
    V = off_weight_copy(W, 76)
    products.clear()
    rep = verify_brauer(V, brauer.identity(2, 2))
    assert rep.off_block_residual > 1e-8  # the row V.off touches, from the general product
    assert {name for name, _ in products} == {"matmul", "take_rows"}
    products.clear()
    for sigma in brauer.all_diagrams(2, 2):
        rep = verify_brauer(W, sigma)
        assert max(rep.off_block_residual, rep.structure_residual) < 1e-13
    assert products == []


def test_the_haar_side_reads_bounded_column_chunks(monkeypatch):
    W = build_mixed_schur(3, 2, 3)  # D = 243, label blocks up to 75 columns wide
    monkeypatch.setattr(schur, "_COLUMN_ENTRIES", 7 * W.size + 5)
    take_rows, widths = schur.SchurTransform.take_rows, []

    def counted(V, index, *args, **kw):
        widths.append(len(np.arange(V.size)[index]))
        return take_rows(V, index, *args, **kw)

    monkeypatch.setattr(schur.SchurTransform, "take_rows", counted)
    rep = verify_blockdiag(W, haar_unitary(3, rng_from_seed(77)))
    assert max(rep.off_block_residual, rep.structure_residual) < 1e-13
    assert max(widths) <= schur._COLUMN_ENTRIES // W.size == 7
    assert sum(widths) == W.size  # every column once


def traced_peak(run):
    """(result, the bytes run allocated at its peak above what was held before)."""
    tracemalloc.start()
    try:
        held = tracemalloc.get_traced_memory()[0]
        result = run()
        return result, tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()


def test_the_build_holds_little_more_than_its_sector_data():
    build_mixed_schur(5, 5, 2)  # the couplings, memoized, are not the build's
    W, peak = traced_peak(lambda: build_mixed_schur(5, 5, 2))
    assert peak <= 2 * W.data.nbytes + 4 * 2 ** 20, (peak, W.data.nbytes)


def test_the_haar_side_holds_one_label_block_and_a_few_chunks(monkeypatch):
    W = build_mixed_schur(5, 5, 2)
    U = haar_unitary(2, rng_from_seed(78))
    # 64 columns a chunk, so the widest label blocks (375 columns) span several
    monkeypatch.setattr(schur, "_COLUMN_ENTRIES", 64 * W.size)
    rep, peak = traced_peak(lambda: verify_blockdiag(W, U))
    assert max(rep.off_block_residual, rep.structure_residual) < 1e-13
    widest = max(dg * mg for _, _, dg, mg in W.layout)
    assert peak <= 16 * (widest ** 2 + 4 * schur._COLUMN_ENTRIES), peak


def test_unitarity_residual_holds_a_few_row_chunks(monkeypatch):
    W = build_mixed_schur(5, 5, 2)
    widest = max(map(len, W.rows))  # 252 rows: a 508 KB real B B^dagger
    monkeypatch.setattr(schur, "_COLUMN_ENTRIES", 8 * widest)
    u, peak = traced_peak(W.unitarity_residual)
    assert u < 1e-14
    assert peak <= 4 * 16 * schur._COLUMN_ENTRIES, peak


def test_a_diagram_operator_that_joins_two_weights_is_refused(monkeypatch, capsys):
    represent = brauer.represent

    def joining(sigma, d, **kw):  # adds |0><1|: |000> and |001> differ in weight
        A = represent(sigma, d, **kw).tocoo()
        return scipy.sparse.coo_matrix((np.append(A.data, 1), (np.append(A.row, 0),
                                        np.append(A.col, 1))), shape=A.shape)

    monkeypatch.setattr(brauer, "represent", joining)
    W = build_mixed_schur(2, 1, 2)
    with pytest.raises(RuntimeError, match="joins two weights"):
        verify_brauer(W, brauer.identity(2, 1))
    capsys.readouterr()
    assert main(["verify", "2", "1", "2"]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and "joins two weights" in err[0]


def test_a_coupling_that_joins_two_weights_is_refused(monkeypatch, capsys):
    # the first stored entry of the coupling of (1, 0) moves to a row of
    # another weight, so the cascade can no longer run inside the sectors
    couplings = schur.cg_transforms

    def join(t):
        if (t.kind, t.input_irrep) != ("defining", (1, 0)):
            return t
        row_weights = np.concatenate([pattern_weights(g) for g, _, _ in t.output_blocks])
        A = t.matrix.toarray()
        r, c = np.argwhere(A)[0]
        r2 = np.flatnonzero(np.any(row_weights != row_weights[r], axis=1))[0]
        A[r2, c], A[r, c] = A[r, c], 0.0
        return dataclasses.replace(t, matrix=cg.CouplingMatrix(A))

    def joining(kind, gammas, *args):
        return [join(t) for t in couplings(kind, gammas, *args)]

    monkeypatch.setattr(schur, "cg_transforms", joining)
    with pytest.raises(RuntimeError, match="joins two weights"):
        build_mixed_schur(2, 2, 2)
    capsys.readouterr()
    assert main(["verify", "2", "2", "2", "--trials", "1"]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and "joins two weights" in err[0]


def test_a_cascade_wrong_inside_its_sectors_fails_verify(monkeypatch, capsys):
    # the first block of a coupling that has the shape of another block of
    # it gathers that block's entries, those of the wrong source weight: every
    # product stays inside the sectors, so the weight check passes and the
    # Haar checks must fail
    W = build_mixed_schur(2, 2, 2)
    cut_, swapped = cg._cut, []

    def swapping(t):
        cut = cut_(t)
        if swapped:
            return cut
        for u, v in itertools.combinations(range(len(cut.AT)), 2):
            if cut.AT[u].shape == cut.AT[v].shape and not np.array_equal(cut.AT[u], cut.AT[v]):
                AT = list(cut.AT)
                AT[u], AT[v] = AT[v], AT[u]
                swapped.append((t.input_irrep, cut.weights[u], cut.weights[v]))
                return cut._replace(AT=AT)
        return cut

    # a coupling keeps its cut once made, so the swapped cuts are made on
    # couplings built afresh, and dropped with them afterwards
    cg.clear_cache()
    monkeypatch.setattr(cg, "_cut", swapping)
    try:
        V = build_mixed_schur(2, 2, 2)
        assert swapped == [((1, 0), (0, 1), (1, 0))]
        assert V.off is None and weight_check(V) == 0.0
        assert np.abs(V.data - W.data).max() > 0.1
        assert main(["verify", "2", "2", "2", "--trials", "1"]) == 1
    finally:
        cg.clear_cache()
    lines = dict(line.rsplit(": ", 1) for line in capsys.readouterr().out.splitlines())
    for haar in ("block off-diagonal", "multiplicity structure"):
        assert lines[haar].endswith("FAIL"), lines
    assert lines["diagonal weights"].endswith("ok")


def test_weight_check_keeps_a_nan_outside_the_sectors():
    V = off_weight_copy(build_mixed_schur(2, 1, 2), 5)
    M = V.matrix.copy()
    M[tuple(x[0] for x in V.off.nonzero())] = np.nan
    V = SchurTransform.from_matrix(V.n, V.m, V.d, V.factor_order, M)
    assert np.isnan(weight_check(V))


def test_replace_keeps_the_sector_data_it_is_given(dense_reads):
    W = build_mixed_schur(2, 1, 2)
    V = dataclasses.replace(W, data=-W.data)
    P = dataclasses.replace(W, path_of={})
    assert dense_reads == []  # neither assembled W
    assert np.array_equal(V.matrix, -W.matrix) and P.data is W.data
