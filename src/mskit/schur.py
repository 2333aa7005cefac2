"""The mixed Schur transform: cascade assembly, verification, and sampling demos.

build_mixed_schur(n, m, d) produces the unitary W of size d^(n+m) that maps
the computational basis of the mixed tensor power to the labeled basis
|staircase, GT index, path index>.  One Clebsch-Gordan transform is applied
per tensor leg, defining or dual according to factor_order; the sequence of
intermediate staircases seen by each output block is a path in the box
add/remove tower, which fixes the multiplicity label.  The labels of the
rows are a function of (n, m, d) alone, bratteli.row_layout, and io
rejects a transform file whose labels differ from it.

The GT basis conserves weight, so W is block diagonal once rows are grouped
by pattern weight and columns by computational weight (weight_sectors), and
so is every partial transform of the cascade.  The cascade runs inside
those sectors: each leg keeps, per staircase reached and per weight, the
blocks of all paths ending there, and a coupling, which conserves weight
too, takes the block of target weight w' from the blocks of weight
w' - e_i at leg value i on a '+' leg (w' + e_i on a '-' leg), with one GEMM
per (staircase, source weight) over all of its paths.  No entry outside a
sector is ever computed, and the last leg writes straight into the sector
data, so a build holds its sector data and about one level of the cascade.
A SchurTransform is held in that one form: the dense block of each weight
sector, plus the sparse part of W outside every sector (W.off), which only
a matrix read from a file can have.  Every product against W (W.matmul)
and every read of its rows (W.take_rows) works on the blocks; W.matrix is
a dense, read-only copy assembled on each access, for tests and small
examples; io writes a transform 64 rows at a time.  weight_check
returns the exact random-phase Frobenius deviation from a table of squared
entries per pair of weights, and SchurTransform.unitarity_residual is exact
inside each sector and adds a Cauchy-Schwarz bound for the entries between
sectors.

A SchurTransform is an immutable value: every array it holds is read-only,
and the arrays it is given are taken over.  A transform with another matrix
is a new value, made from its entries by SchurTransform.from_entries, the
one splitter of rows into sectors: each chunk of rows goes straight into the
sector data, the nonzero entries outside every sector into W.off, and the
signed zeros there into a small table, so no dense W is held.  io.read_schur
feeds it the rows of a file as they are parsed, and from_matrix the rows of
a dense matrix, a chunk at a time.

Conjugating the mixed tensor operator U^{(x)legs} by W must produce, for every
unitary U, a block-diagonal matrix with one block per staircase of the form
Q(U) (x) Id over (GT, path) indices; conjugating a walled-Brauer-diagram
operator must produce Id (x) P(diagram) blocks.  The verify_* functions
measure the largest entry that departs from this structure, at every size,
and no D x D complex matrix is held.  verify_blockdiag forms M = W A W^dagger
in column chunks M[:, cols] of at most _COLUMN_ENTRIES entries, since a Haar
U does not conserve weight.  A diagram operator does, so for a W that
conserves weight too, as every built transform does, verify_brauer forms
only the block of M inside each weight sector, B_k psi_k B_k^dagger; any
other W (a tampered file, say) takes the column chunks, as on the Haar side.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np
import scipy.sparse

from . import brauer
from ._arrays import group, ranges, readonly
from .bratteli import DEFAULT_CAP, check_cap, parse_factor_order, row_layout
from .cg import cg_transform
from .gelfand import _by_weight, pattern_weights
from .staircase import Staircase


class _SectorIndex(NamedTuple):
    """Where each weight sector and each row of a transform sits in its data.

    rows[k] and cols[k] are the rows and columns of sector k in increasing
    order, and block k is data[bounds[k]:bounds[k + 1]] in C order.  The
    entries of row a there are data[row_start[a]:row_start[a] + row_count[a]],
    in the columns col_order[row_first[a]:row_first[a] + row_count[a]];
    col_rank[c] is the place of column c among its sector's columns, so
    W[a, c] is data[row_start[a] + col_rank[c]] when a and c share a sector.
    """

    rows: tuple[np.ndarray, ...]
    cols: tuple[np.ndarray, ...]
    bounds: np.ndarray
    col_order: np.ndarray
    row_start: np.ndarray
    row_count: np.ndarray
    row_first: np.ndarray
    col_rank: np.ndarray


class _DiagramIndex(NamedTuple):
    """Where verify_brauer holds the sector blocks M_k of W psi W^dagger.

    The r_k x r_k block of sector k, r_k = size[k], starts at start[k] of one
    flat array, entry (i, i') at start[k] + i r_k + i' for the i-th and i'-th
    rows of the sector in increasing order; psi_k is laid out the same way
    by columns, col_rank[c] the place of column c among its sector's
    columns.  The sectors are taken in order of size: groups holds
    (r, lo, hi, at) for each size r, the blocks of that size one after
    another in flat[lo:hi], and at the positions of their entries in
    W.data.  off_at are the flat entries whose two rows lie in different
    label blocks, fit_at those whose rows share one, and fit_to the slot of
    each of those in the concatenated X_gamma, whose blocks x_blocks lists
    as (gamma, offset, mult).  fit_to is the last slot, of scale 0, for two
    rows with different GT indices; scale holds 1 / dim(gamma) elsewhere.
    """

    groups: tuple[tuple[int, int, int, np.ndarray], ...]
    size: np.ndarray
    start: np.ndarray
    col_rank: np.ndarray
    off_at: np.ndarray
    fit_at: np.ndarray
    fit_to: np.ndarray
    scale: np.ndarray
    x_blocks: tuple[tuple[Staircase, int, int], ...]


# the entries of M = W A W^dagger that the checks form at a time: 16 MB of complex data
_COLUMN_ENTRIES = 1 << 20

# the zero of each sign code: bit 0 is the sign of the real part, bit 1 of the imaginary part
_SIGNED_ZEROS = np.array([[0.0, 0.0], [-0.0, 0.0], [0.0, -0.0], [-0.0, -0.0]]).view(complex)[:, 0]


@dataclass(frozen=True, eq=False)
class SchurTransform:
    """The unitary W with one (staircase, GT index, path index) label per row.

    W is held by weight sector k of W.sectors: rows[k] and cols[k] are its
    rows and columns in increasing order, and blocks[k] is the dense block
    W[rows[k], cols[k]], a view of data, which holds the blocks one after
    another.  off is the sparse part of W outside every sector, None when
    that part is zero.  build_mixed_schur gives data; from_entries splits
    the entries of W as they come, and from_matrix a dense W.  The arrays
    given are taken over and made read-only, data copied when it is a view
    of another array, so no caller can change W.
    Transforms compare and hash by identity.
    """

    n: int
    m: int
    d: int
    factor_order: str
    data: np.ndarray = field(repr=False)
    # vertex sequence of the tower path behind each multiplicity label
    path_of: dict[tuple[Staircase, int], tuple[Staircase, ...]] = field(
        default=None, repr=False)
    off: scipy.sparse.csr_matrix | None = field(default=None, repr=False)
    # (indptr, keys) of the zeros outside every sector that carry a sign bit,
    # key = column * 4 + sign code; see from_entries
    _zeros: tuple[np.ndarray, np.ndarray] | None = field(default=None, repr=False)
    sectors: tuple[np.ndarray, np.ndarray, np.ndarray] = field(init=False, repr=False)
    rows: tuple[np.ndarray, ...] = field(init=False, repr=False)
    cols: tuple[np.ndarray, ...] = field(init=False, repr=False)
    blocks: tuple[np.ndarray, ...] = field(init=False, repr=False)
    _index: _SectorIndex = field(init=False, repr=False)

    def __post_init__(self):
        sectors, index = _sector_layout(self.n, self.m, self.d, self.factor_order)
        data, off = self.data, self.off
        if data.shape != (index.bounds[-1],):
            raise ValueError(f"data of shape {data.shape} does not fit the weight sectors")
        if data.base is not None:
            data = data.copy()
        readonly(data)
        if off is not None and not off.nnz:
            off = None
        if off is not None:
            if off.shape != (self.size,) * 2:
                raise ValueError(f"off of shape {off.shape} does not fit W")
            off = scipy.sparse.csr_matrix(off)  # taken over, as data is
            readonly(off.data, off.indices, off.indptr)
        bounds = index.bounds.tolist()
        blocks = tuple(data[a:b].reshape(len(r), len(c)) for a, b, r, c in zip(
            bounds[:-1], bounds[1:], index.rows, index.cols))
        for name, value in (("sectors", sectors), ("rows", index.rows), ("cols", index.cols),
                            ("data", data), ("off", off), ("blocks", blocks), ("_index", index)):
            object.__setattr__(self, name, value)

    @classmethod
    def from_matrix(cls, n: int, m: int, d: int, factor_order: str, matrix: np.ndarray,
                    path_of=None) -> SchurTransform:
        """The transform of a dense W, split into its sectors once.

        The rows go through from_entries, a chunk of at most _COLUMN_ENTRIES
        entries at a time, and W keeps the matrix's float or complex dtype.
        """
        matrix = np.asarray(matrix)
        dtype = np.result_type(matrix, float)
        size = d ** (n + m)
        if matrix.shape != (size, size):
            raise ValueError(f"a {matrix.shape} matrix does not fit {(n, m, d)}")

        def entries(step=max(1, _COLUMN_ENTRIES // size)):
            for a in range(0, size, step):
                M = np.ascontiguousarray(matrix[a:a + step], dtype=dtype)
                r, c = np.nonzero(M.view(np.uint64).reshape(len(M), size, -1).any(axis=2))
                yield r + a, c, M[r, c]

        return cls.from_entries(n, m, d, factor_order, entries(), dtype, path_of)

    @classmethod
    def from_entries(cls, n: int, m: int, d: int, factor_order: str, entries,
                     dtype=None, path_of=None) -> SchurTransform:
        """The transform whose entries come in chunks, split into the sectors as they come.

        entries yields (r, c, v), W[r[s], c[s]] = v[s], in row-major order;
        every entry it leaves out is +0.0.  An entry inside its row's sector
        goes into data, a nonzero one outside every sector into off.  The
        zeros there that carry a sign bit (-0.0 in either part, as a row
        phase leaves them) take part in no product but are kept, a small
        integer each, so that W.matrix and W.take_rows give every entry back
        bit for bit.  W has the given dtype; with None it is real when no
        imaginary part of any entry has a set bit, and complex otherwise: data
        is filled real and widened at the first chunk with such a bit.
        Besides data, off and the signed zeros, one chunk is held at a time,
        never a dense W.
        """
        size = d ** (n + m)
        (_, row_sector, col_sector), index = _sector_layout(n, m, d, factor_order)
        data = np.zeros(index.bounds[-1], dtype=dtype or float)
        key_type = np.min_scalar_type(4 * size)
        none = np.empty(0, dtype=np.intp)
        off, keys = [(none, none, data[:0])], [none.astype(key_type)]
        per_row = np.zeros(size, dtype=np.intp)  # the signed zeros of each row
        for r, c, v in entries:
            if dtype is None and data.dtype != complex:
                if v.imag.view(np.uint64).any():
                    data = data.astype(complex)
                else:
                    v = v.real
            inside = row_sector[r] == col_sector[c]
            data[index.row_start[r[inside]] + index.col_rank[c[inside]]] = v[inside]
            r, c, v = r[~inside], c[~inside], v[~inside]
            nonzero = v != 0
            off.append((r[nonzero], c[nonzero], v[nonzero]))
            code = np.signbit(v.real) + np.signbit(v.imag) * np.uint8(2)
            signed = ~nonzero & (code > 0)
            per_row += np.bincount(r[signed], minlength=size)
            keys.append((c[signed] * 4 + code[signed]).astype(key_type))
        r, c, v = (np.concatenate(a) for a in zip(*off))
        keys = np.concatenate(keys)
        off = scipy.sparse.csr_matrix((v, (r, c)), shape=(size, size))
        zeros = None
        if len(keys):
            zeros = readonly(np.concatenate([[0], np.cumsum(per_row)]), keys)
        return cls(n, m, d, factor_order, data, path_of, off, zeros)

    @property
    def dtype(self) -> np.dtype:
        return self.data.dtype

    @property
    def size(self) -> int:
        return self.d ** (self.n + self.m)

    @property
    def matrix(self) -> np.ndarray:
        """W as a dense, read-only D x D array, assembled on each access."""
        return readonly(self.take_rows(slice(None)))[0]

    @property
    def layout(self) -> tuple[tuple[Staircase, int, int, int], ...]:
        """(gamma, start, dim, mult) of each label block: row_layout(n, m, d)."""
        return row_layout(self.n, self.m, self.d)

    def row_index(self, gamma: Staircase, q: int, p: int) -> int:
        for g, start, dg, mg in self.layout:
            if g == tuple(gamma) and q in range(dg) and p in range(mg):
                return start + p * dg + q
        raise ValueError(f"no basis label ({gamma}, q={q}, p={p})")

    @cached_property
    def _diagram_index(self) -> _DiagramIndex:
        """The tables of _DiagramIndex for this transform's shape, read-only."""
        index, row_sector = self._index, self.sectors[1]
        size = np.array([len(r) for r in index.rows])
        order, by_size, count, rank = group(size)  # the sectors of one size lie end to end
        area, width = count * np.arange(len(count)) ** 2, count * np.arange(len(count))
        lo, row_lo = np.cumsum(area) - area, np.cumsum(width) - width
        start, first = lo[size] + rank * size ** 2, row_lo[size] + rank * size
        rows = np.concatenate([index.rows[k] for k in order])
        groups = [(r, int(lo[r]), int(lo[r] + area[r]),
                   (index.bounds[order[by_size[r]:by_size[r] + count[r]]][:, None]
                    + np.arange(r * r)).ravel()) for r in np.flatnonzero(count).tolist() if r]

        # the rows (a, b) of every flat entry, and their labels
        s = row_sector[rows]
        j, at = ranges(size[s], first[s])
        a, b = rows[j], rows[at]
        dims, mults = (np.array([x[i] for x in self.layout]) for i in (2, 3))
        label_block, local = ranges(dims * mults)  # the label blocks lie end to end
        p, q = np.divmod(local, dims[label_block])  # row start + p dim + q
        same = label_block[a] == label_block[b]
        fit_at = np.flatnonzero(same)
        a, b = a[fit_at], b[fit_at]
        x_start = np.cumsum(mults ** 2) - mults ** 2
        scale = np.append(np.repeat(1 / dims, mults ** 2), 0.0)
        fit_to = np.where(q[a] == q[b], x_start[label_block[a]] + p[a] * mults[label_block[a]]
                          + p[b], len(scale) - 1)
        x_blocks = tuple((g, int(x), mg) for (g, _, _, mg), x in zip(self.layout, x_start))
        tables = _DiagramIndex(tuple(groups), size, start, index.col_rank, np.flatnonzero(~same),
                               fit_at, fit_to, scale, x_blocks)
        readonly(*(t for t in tables if isinstance(t, np.ndarray)), *(g[-1] for g in groups))
        return tables

    def take_rows(self, index, adjoint: bool = False) -> np.ndarray:
        """W[index], or W[index]^dagger with adjoint=True, read from data.

        index is a slice or an array of row indices.  Each row is one run of
        data, read with the runs of the other rows through one flat index,
        whatever the number of sectors they meet.  The result equals
        W.matrix[index] bit for bit.
        """
        rows = np.arange(self.size)[index]
        shape = (self.size, len(rows)) if adjoint else (len(rows), self.size)
        out = np.zeros(shape, dtype=self.dtype)
        flat, width = out.reshape(-1), out.shape[1]
        zeros = _SIGNED_ZEROS if self.dtype.kind == "c" else _SIGNED_ZEROS.real

        def put(j, cols, values):  # W[rows[j], cols] = values
            j, cols = j.astype(np.intp, copy=False), cols.astype(np.intp, copy=False)
            if adjoint:
                flat[cols * width + j] = values.conj()
            else:
                flat[j * width + cols] = values

        # 64 rows at a time: the index arrays stay small, and the writes of
        # the adjoint stay within a strip of 64 columns of out
        for a in range(0, len(rows), 64):
            chunk = rows[a:a + 64]
            at, cols, j = _row_runs(self._index, chunk)
            put(j + a, cols, self.data[at])
            if self._zeros is not None:
                indptr, keys = self._zeros
                j, at = ranges(indptr[chunk + 1] - indptr[chunk], indptr[chunk])
                put(j + a, keys[at] >> 2, zeros[keys[at] & 3])
        if self.off is not None:
            E = self.off[rows].tocoo()
            put(E.row, E.col, E.data)
        return out

    def matmul(self, X: np.ndarray, adjoint: bool = False) -> np.ndarray:
        """W X, or W^dagger X with adjoint=True, one GEMM per weight sector.

        A product costs the sum of |rows_k| |cols_k| over sectors per column
        of X, not D^2, and equals the dense product for any W.  A real block
        meets a complex X through the float view of X, so the GEMM stays
        real.
        """
        X = np.ascontiguousarray(X)
        shape = X.shape
        X = X.reshape(shape[0], -1)
        out = np.empty(shape, dtype=np.result_type(self.dtype, X))
        flat = out.reshape(out.shape[0], -1)
        Xv, outv = X, flat
        if not np.issubdtype(self.dtype, np.complexfloating) and np.iscomplexobj(X):
            Xv, outv = X.view(float), flat.view(float)
        for rows, cols, B in zip(self.rows, self.cols, self.blocks):
            if adjoint:
                outv[cols] = B.conj().T @ Xv[rows]
            else:
                outv[rows] = B @ Xv[cols]
        if self.off is not None:
            flat += (self.off.conj().T if adjoint else self.off) @ X
        return out

    def unitarity_residual(self) -> float:
        """Upper bound on max |W W^dagger - I|, exact when W conserves weight.

        For every weight sector, max |B B^dagger - I| over its block B is
        computed exactly.  The entries E of each row outside its sector's
        columns (the off part) add the Cauchy-Schwarz bound
        2 max_a ||B_a|| max_a ||E_a|| + max_a ||E_a||^2 (norms of row a of B
        and of E), which covers every other contribution to W W^dagger.  For
        a correct W, E is exactly zero and the result is the true max entry.
        """
        exact = b_max = e_max = 0.0
        for B in self.blocks:
            # B B^dagger - I is Hermitian, so its upper triangle holds its largest
            # entry (and any NaN, on the diagonal); a chunk of rows at a time,
            # each at most _COLUMN_ENTRIES entries
            Bh, step = B.conj().T, max(1, _COLUMN_ENTRIES // max(1, len(B)))
            for a in range(0, len(B), step):
                G = B[a:a + step] @ Bh[:, a:]
                G[np.arange(len(G)), np.arange(len(G))] -= 1
                exact = np.maximum(exact, np.abs(G).max())
                b_max = np.maximum(b_max, np.linalg.norm(B[a:a + step], axis=1).max())
        if self.off is not None:
            e_max = np.sqrt(abs(self.off).power(2).sum(axis=1).max())
        return float(exact + 2 * b_max * e_max + e_max ** 2)


@functools.cache
def _sector_layout(n: int, m: int, d: int,
                   factor_order: str) -> tuple[tuple[np.ndarray, ...], _SectorIndex]:
    """(weight_sectors, _SectorIndex) of one shape; every array is read-only."""
    sectors = weights, row_sector, col_sector = weight_sectors(n, m, d, factor_order)

    def by_sector(s):
        order, first, count, rank = group(s, len(weights))
        readonly(order)
        return order, first, count, rank, tuple(
            order[a:a + c] for a, c in zip(first.tolist(), count.tolist()))

    _, _, n_rows, row_rank, rows = by_sector(row_sector)
    col_order, col_firsts, n_cols, col_rank, cols = by_sector(col_sector)
    bounds = np.concatenate([[0], np.cumsum(n_rows * n_cols)])
    row_count = n_cols[row_sector]
    index = _SectorIndex(rows, cols, bounds, col_order,
                         bounds[row_sector] + row_rank * row_count, row_count,
                         col_firsts[row_sector], col_rank)
    readonly(*index[2:])
    return sectors, index


def _row_runs(index: _SectorIndex, rows: np.ndarray):
    """(at, cols, j): row rows[j[s]] of W has the entry data[at[s]] in column
    cols[s], the runs of the rows one after another."""
    start = index.row_start[rows]
    j, at = ranges(index.row_count[rows], start)
    return at, index.col_order[at + (index.row_first[rows] - start)[j]], j


def _leg_states(states: dict, sign: int, d: int):
    """(states, at) after one more leg, of sign +1 ('+') or -1 ('-').

    states maps each weight of the basis states of the legs so far to their
    columns, in colex order: by the value of the latest leg first.  So the
    states of weight w after the leg are those of weight w - sign e_i with
    the value i appended, one run for each i in increasing order, and
    at[w, i] is where the run of value i starts.
    """
    runs: dict[tuple[int, ...], list] = {}
    for w, cols in states.items():
        for i in range(d):
            w2 = w[:i] + (w[i] + sign,) + w[i + 1:]
            runs.setdefault(w2, []).append((i, cols * d + i))
    new, at = {}, {}
    for w, parts in runs.items():
        parts.sort(key=lambda part: part[0])
        new[w] = np.concatenate([cols for _, cols in parts])
        start = 0
        for i, cols in parts:
            at[w, i] = start
            start += len(cols)
    return new, at


def build_mixed_schur(n: int, m: int, d: int, factor_order: str | None = None,
                      cap: int = DEFAULT_CAP) -> SchurTransform:
    """Cascade CG transforms into the full mixed Schur transform.

    factor_order is a string over '+' (defining leg) and '-' (dual leg) giving
    the kind of each tensor factor in order; default is all '+' then all '-'.
    """
    if n < 0 or m < 0 or d < 1:
        raise ValueError("need n, m >= 0 and d >= 1")
    check_cap(d, n + m, cap)
    order = "+" * n + "-" * m if factor_order is None else parse_factor_order(factor_order, n, m)
    zero = (0,) * d
    if not order:
        return SchurTransform(n=n, m=m, d=d, factor_order=order, data=np.ones(1),
                              path_of={(zero, 0): (zero,)})

    # A segment is one path of the tower so far; its block of the partial
    # transform maps the basis states of the legs so far to the GT patterns
    # of the path's end, and only its entries inside a weight are kept.
    # paths[g] lists the paths ending at g, and blocks[g][w] stacks their
    # blocks from the states of weight w (states[w]) to the patterns of
    # weight w, transposed: (paths, states, patterns).
    paths = {zero: [(zero,)]}
    blocks = {zero: {zero: np.ones((1, 1, 1))}}
    states = {zero: np.zeros(1, dtype=np.intp)}
    for leg, kind in enumerate(order, 1):
        sign = 1 if kind == "+" else -1
        couplings = {g: cg_transform("defining" if sign > 0 else "dual", g) for g in paths}
        ends, seg = {}, {}  # seg[g, target]: where g's paths start among the target's
        for g, t in couplings.items():
            for target, _, _ in t.output_blocks:
                found = ends.setdefault(target, [])
                seg[g, target] = len(found)
                found += [path + (target,) for path in paths[g]]
        last = leg == len(order)
        if last:
            path_of, data, col_rank, row_start = _last_leg(n, m, d, order, ends, seg)
        else:
            new_states, at = _leg_states(states, sign, d)
            new_blocks = {}
            for target, found in ends.items():
                x = _by_weight(target)
                new_blocks[target] = {w: np.zeros((len(found), len(new_states[w]), c)) for w, c in
                                      zip(map(tuple, x.weights.tolist()), x.count.tolist())}
        # one GEMM per (staircase, weight), over all of its paths at once
        for g, t in couplings.items():
            if last:
                starts = row_start(g, t, len(paths[g]))
            for w, AT, rows, value, parts in zip(*t.legs):
                S = blocks[g][w]
                s, c = S.shape[:2]
                G = (S.reshape(s * c, -1) @ AT).reshape(s, c, -1)
                if last:  # straight into the sector data
                    data[starts[:, None, rows] + col_rank[states[w][:, None] * d + value]] = G
                    continue
                for i, target, w2, lo, hi in parts:  # into the target's run of value i
                    a, b = seg[g, target], at[w2, i]
                    new_blocks[target][w2][a:a + s, b:b + c] = G[:, :, lo:hi]
            del blocks[g]  # before the next staircase, so about one level and a half are held
        if not last:
            paths, blocks, states = ends, new_blocks, new_states
    return SchurTransform(n=n, m=m, d=d, factor_order=order, data=data, path_of=path_of)


def _last_leg(n, m, d, order, ends, seg):
    """(path_of, data, col_rank, row_start) for the last leg of build_mixed_schur.

    The paths ending at each gamma, sorted, are its label blocks (gamma, p),
    as path_of records.  data is the zeroed sector data, col_rank the place
    of each column among its sector's columns, and row_start(g, t, s)[a, r]
    is where in data the row of W starts that row r of the coupling t
    reaches from the a-th of the s paths ending at g.
    """
    layout = row_layout(n, m, d)
    if [(g, mg) for g, _, _, mg in layout] != [(g, len(ends[g])) for g in sorted(ends)]:
        raise RuntimeError(f"cascade segments do not follow row_layout{(n, m, d)}")
    path_of, first_row = {}, {}  # first_row[gamma][a]: the row (gamma, 0, p) of its a-th path
    block = {g: (start, dg) for g, start, dg, _ in layout}
    for g, found in ends.items():
        rank = sorted(range(len(found)), key=found.__getitem__)
        path_of.update(((g, p), found[a]) for p, a in enumerate(rank))
        start, dg = block[g]
        first_row[g] = np.empty(len(found), dtype=np.intp)
        first_row[g][rank] = start + dg * np.arange(len(found))

    index = _sector_layout(n, m, d, order)[1]

    def row_start(g, t, s):
        rows = [first_row[target][seg[g, target]:seg[g, target] + s, None] + np.arange(size)
                for target, _, size in t.output_blocks]
        return index.row_start[np.concatenate(rows, axis=1)]

    return path_of, np.zeros(index.bounds[-1]), index.col_rank, row_start


# -- applying mixed tensor operators ------------------------------------------

def _factor_groups(factors: list[np.ndarray], target: int = 16) -> list[np.ndarray]:
    """Kron together runs of legs; small groups keep the apply flop-optimal."""
    groups = []
    cur = None
    for f in factors:
        nxt = f if cur is None else np.kron(cur, f)
        if nxt.shape[0] > target and cur is not None:
            groups.append(cur)
            cur = f
        else:
            cur = nxt
    if cur is not None:
        groups.append(cur)
    return groups


def apply_legs(X: np.ndarray, factors: list[np.ndarray]) -> np.ndarray:
    """Compute (factor_1 (x) ... (x) factor_k) @ X without forming the kron.

    Legs are fused into groups of at most 16 rows (_factor_groups), and each
    group is applied as one broadcast GEMM over the legs before it, on a
    complex copy of X and one buffer of its size, so no transposed copy is
    made and X is not modified.
    """
    Y = np.array(X, dtype=complex, order="C")
    del X  # a temporary the caller passed is freed here
    buf = np.empty_like(Y)
    lead = 1
    for g in _factor_groups(factors):
        a = g.shape[0]
        tail = Y.size // (lead * a)
        np.matmul(g, Y.reshape(lead, a, tail), out=buf.reshape(lead, a, tail))
        Y, buf = buf, Y
        lead *= a
    return Y


def mixed_tensor_factors(U: np.ndarray, order: str) -> list[np.ndarray]:
    return [U if k == "+" else U.conj() for k in order]


@dataclass
class BlockDiagReport:
    off_block_residual: float
    structure_residual: float
    blocks: dict[Staircase, np.ndarray]


def _structured_residuals(W: SchurTransform, columns, extract: str) -> BlockDiagReport:
    """Exact max-entry residuals of M = W A W^dagger against its block form.

    columns(cols) returns the columns M[:, cols] for a slice cols.  The
    columns of each label block sl are requested in chunks of at most
    max(1, _COLUMN_ENTRIES // D) columns, and each chunk is let go before
    the next is requested, so one chunk of M is held at a time, next to the
    copy B of M[sl, sl] that the chunks fill.  The block form is fitted on
    B: with extract="irrep" as Id_mult (x) X over (path, GT) indices, X the
    average of the diagonal path blocks; with extract="mult" as X (x) Id_dim,
    X the partial trace over GT indices divided by dim.  The fit is
    subtracted from B in place, where it is nonzero, and the structure
    residual is the largest entry left, read in chunks of at most
    _COLUMN_ENTRIES entries.  The off-block residual is the largest entry of
    M[:, sl] outside rows sl.  Both are maximized over the label blocks.
    The caller's chunks are not modified.
    """
    step = max(1, _COLUMN_ENTRIES // W.size)
    blocks: dict[Staircase, np.ndarray] = {}
    off_res = struct_res = 0.0
    for g, start, dg, mg in W.layout:
        w = dg * mg
        B = None
        for a in range(0, w, step):
            C = columns(slice(start + a, start + min(a + step, w)))
            if B is None:
                B = np.empty((w, w), dtype=C.dtype)
            B[:, a:a + step] = C[start:start + w]
            off_res = np.maximum(off_res, np.abs(C[:start]).max(initial=0.0))
            off_res = np.maximum(off_res, np.abs(C[start + w:]).max(initial=0.0))
            del C  # before the next chunk is formed
        cube = B.reshape(mg, dg, mg, dg)
        if extract == "irrep":
            fit = np.einsum("pqpr->pqr", cube)  # a view: the diagonal path blocks
            blocks[g] = X = fit.sum(axis=0) / mg
        else:
            fit = np.einsum("pqrq->prq", cube)  # a view: the GT diagonal of each path pair
            blocks[g] = X = fit.sum(axis=2) / dg
            X = X[:, :, None]
        fit -= X
        rows = max(1, _COLUMN_ENTRIES // w)
        for a in range(0, w, rows):
            struct_res = np.maximum(struct_res, np.abs(B[a:a + rows]).max())
        del B, cube, fit  # before the next label block's copy
    return BlockDiagReport(float(off_res), float(struct_res), blocks)


def verify_blockdiag(W: SchurTransform, U: np.ndarray) -> BlockDiagReport:
    """Residuals of W (mixed tensor of U) W^dagger against the Q (x) Id block form.

    Each column chunk of M is W times the legs of U applied to the rows of
    W^dagger for those columns, taken as _structured_residuals requests it.
    """
    factors = mixed_tensor_factors(np.asarray(U, dtype=complex), W.factor_order)
    return _structured_residuals(
        W, lambda cols: W.matmul(apply_legs(W.take_rows(cols, adjoint=True), factors)), "irrep")


def verify_brauer(W: SchurTransform, sigma: brauer.WalledBrauerDiagram) -> BlockDiagReport:
    """Residuals of M = W psi(sigma) W^dagger against the Id (x) P block form.

    The diagram action is taken in the same leg order as W.factor_order: the
    diagram's first n columns act on the '+' legs left to right, the last m
    columns on the '-' legs.

    psi(sigma) commutes with U (x) conj(U), diagonal U included, so it
    conserves weight; a psi(sigma) with an entry between two weights raises
    RuntimeError.  A W with entries outside its sectors (W.off) takes the
    column chunks of _structured_residuals, as verify_blockdiag does.
    A W that conserves weight, as every built transform does, makes M zero
    between two weight sectors.  Inside sector k, M_k = B_k psi_k B_k^dagger,
    with B_k the sector block of W and psi_k = psi[cols_k, cols_k]; the
    blocks of one size are multiplied as one stack, so no entry of M between
    two sectors is formed.  Both residuals and the X_gamma are read from the
    M_k (_DiagramIndex): the fit X_gamma[p, p'] sums entries whose rows
    share a GT pattern, hence a sector, and an entry between two sectors is
    zero, as is its fit.
    """
    if (sigma.n, sigma.m) != (W.n, W.m):
        raise ValueError("diagram size does not match the transform")
    # a cap that admits W's own shape, d = 1 included
    A = brauer.represent(sigma, W.d, cap=max(DEFAULT_CAP, 2 ** (W.n + W.m), W.size),
                         order=W.factor_order).tocoo()
    col_sector = W.sectors[2]
    k = col_sector[A.row]
    if np.any(k != col_sector[A.col]):
        raise RuntimeError("the diagram operator joins two weights: "
                           "it does not commute with diagonal unitaries")
    if W.off is not None:
        return _structured_residuals(
            W, lambda sl: W.matmul(A @ W.take_rows(sl, adjoint=True)), "mult")
    t = W._diagram_index
    psi = np.zeros(t.groups[-1][2])  # psi(sigma) is a 0/1 matrix
    np.add.at(psi, t.start[k] + t.col_rank[A.row] * t.size[k] + t.col_rank[A.col], A.data)
    M = np.empty(len(psi), dtype=W.dtype)
    for r, lo, hi, at in t.groups:
        B = W.data[at].reshape(-1, r, r)
        np.matmul(B @ psi[lo:hi].reshape(-1, r, r), B.conj().transpose(0, 2, 1),
                  out=M[lo:hi].reshape(-1, r, r))

    off_res = float(np.abs(M[t.off_at]).max(initial=0.0))
    inside = M[t.fit_at]
    X = np.bincount(t.fit_to, inside.real, len(t.scale))
    if np.iscomplexobj(inside):
        X = X + 1j * np.bincount(t.fit_to, inside.imag, len(t.scale))
    X *= t.scale
    struct_res = float(np.abs(inside - X[t.fit_to]).max(initial=0.0))
    blocks = {g: X[x:x + mg * mg].reshape(mg, mg) for g, x, mg in t.x_blocks}
    return BlockDiagReport(off_res, struct_res, blocks)


def computational_weights(d: int, factor_order: str) -> np.ndarray:
    """The (d^N, d) weights of the computational basis states of N legs.

    Basis state c gains +e_i for value i on a '+' leg and -e_i on a '-' leg,
    the legs read as the base-d digits of c, most significant first.
    """
    size = d ** len(factor_order)
    out = np.zeros((size, d), dtype=np.int64)
    cols = np.arange(size)
    reps = size
    for kind in factor_order:
        reps //= d
        out[cols, (cols // reps) % d] += 1 if kind == "+" else -1
    return out


def weight_sectors(n: int, m: int, d: int,
                   factor_order: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Group the rows of W by GT label weight and its columns by computational weight.

    Returns (weights, row_sector, col_sector): weights is the (K, d) array of
    the distinct weights found on either side, row_sector[a] is the index in
    weights of the weight of row a's GT pattern, and col_sector[c] that of
    basis state c (computational_weights).  A correct W is zero wherever
    row_sector[a] != col_sector[c].
    The arrays are read-only; W.sectors keeps them on the transform.
    """
    size = d ** (n + m)
    row_w = np.concatenate([np.tile(pattern_weights(g), (mg, 1))
                            for g, _, _, mg in row_layout(n, m, d)])
    col_w = computational_weights(d, factor_order)
    weights, sector = np.unique(np.vstack([row_w, col_w]), axis=0, return_inverse=True)
    sector = sector.reshape(-1)
    readonly(weights, sector)
    return weights, sector[:size], sector[size:]


def weight_check(W: SchurTransform, seed: int = 7, trials: int = 5) -> float:
    """GT adaptation test: diagonal unitaries must act by the pattern weights.

    For U = diag(e^{i theta}) the mixed tensor operator is itself diagonal, so
    W U_mixed Wt == diag(label phases) is checked as an elementwise identity
    on Wt.  The returned value is the exact Frobenius norm of the deviation,
    maximized over `trials` random theta; it bounds every entry of the
    deviation and is exactly 0.0 for a W that conserves weight.  The entry
    (a, c) deviates by |W[a, c]| |e^{i w_c theta} - e^{i w_a theta}|, which
    depends on the row and column only through their weights, so the squared
    entries are summed once per (row weight, column weight) pair and each
    trial works on that K x K table.  Entries inside their sector deviate by
    exactly 0, so only the off-sector part W.off is summed.
    """
    from .rand import rng_from_seed

    off = W.off
    if off is None:
        return 0.0
    rng = rng_from_seed(seed)
    weights, row_sector, col_sector = W.sectors
    K = len(weights)
    off = off.tocoo()
    mass = np.bincount(row_sector[off.row] * K + col_sector[off.col],
                       weights=np.abs(off.data) ** 2, minlength=K * K).reshape(K, K)
    worst = 0.0
    for _ in range(trials):
        theta = rng.uniform(-np.pi, np.pi, size=W.d)
        phases = np.exp(1j * (weights @ theta))
        gap = np.abs(phases[:, None] - phases[None, :]) ** 2
        worst = np.maximum(worst, np.sqrt((mass * gap).sum()))
    return float(worst)


def ptpqp_amplitude(n: int, m: int, d: int,
                    hamiltonian: list[tuple[float, brauer.WalledBrauerDiagram]],
                    t: float,
                    from_label: tuple[Staircase, int, int],
                    to_label: tuple[Staircase, int, int],
                    factor_order: str | None = None,
                    cap: int = DEFAULT_CAP) -> float:
    """|<to| W e^{-iHt} Wt |from>|^2 for H a combination of diagram operators.

    The Hamiltonian must come out Hermitian (diagram terms closed under
    vertical flip with conjugate coefficients) and t finite; otherwise this raises.

    H lies in the walled Brauer algebra, so by mixed Schur-Weyl duality
    W H Wt = (+)_gamma Id_dim(gamma) (x) P_gamma(H), and e^{-iHt} acts the
    same way.  The amplitude is therefore 0 unless both labels share gamma
    and the GT index q; otherwise it is an entry of exp(-it P_gamma(H)), the
    m_gamma x m_gamma multiplicity block read from the rows (gamma, q, .) of
    W against the sparse H.  No D x D dense matrix is formed.
    """
    if not np.isfinite(t):
        raise ValueError(f"time t = {t} is not finite")
    W = build_mixed_schur(n, m, d, factor_order, cap=cap)
    H = scipy.sparse.csr_matrix((W.size, W.size), dtype=complex)
    for coeff, sigma in hamiltonian:
        H = H + coeff * brauer.represent(sigma, d, cap=cap, order=W.factor_order).tocsr()
    herm_defect = float(abs(H - H.conj().T).max())
    if not herm_defect <= 1e-12:  # NaN-safe
        raise ValueError(f"hamiltonian is not hermitian (defect {herm_defect:.2e}); "
                         "include the flipped diagram with the conjugate coefficient")
    for label in (from_label, to_label):
        W.row_index(*label)  # an unknown label raises ValueError
    (g, q, p_from), (g_to, q_to, p_to) = from_label, to_label
    if (tuple(g), q) != (tuple(g_to), q_to):
        return 0.0
    _, start, dg, mg = next(b for b in W.layout if b[0] == tuple(g))
    R = W.take_rows(slice(start + q, start + dg * mg, dg))  # the rows (g, q, p), p < mg
    P_g = R @ (H @ R.T)
    evals, v = np.linalg.eigh((P_g + P_g.conj().T) / 2)
    amp = (v[p_to] * np.exp(-1j * t * evals)) @ v[p_from].conj()
    return float(abs(amp) ** 2)
