"""Dual and defining Clebsch-Gordan transforms as explicit block-labeled unitaries.

dual_cg(mu) realizes the multiplicity-free decomposition

    Q_mu (x) Q_dualbox  ~=  direct sum over targets nu in mu - box of Q_nu,

as a real unitary of size dim(mu) * d.  Columns are indexed (pattern of mu,
tensor leg i) with i minor; rows run over the targets in canonical staircase
order, each block indexed by the target's canonical GT patterns.

The coupling is built recursively, as sparse (row, column, value) triplets:
the leg value i < d is handled by the U(d-1) coupling acting inside the
second pattern row, i = d leaves the U(d-1) content alone, and the reduced
Wigner coefficients splice the two cases into the U(d) targets.  Each
output block of a content mu' (a block of its U(d-1) coupling) lands in a
target mu - e_j with a row shift and one coefficient T(mu, j, mu', j'), its
column (q', i') moving to (q_mu' + q', i') in the U(d) numbering; the leg
i = d adds a diagonal scaled by T(mu, j, mu', 0).  The base case d = 1 maps
the integer c to c - 1 with coefficient 1.

The triplets are shift invariant: those of mu + c (1, ..., 1) equal those of
mu, entry for entry, and only the block labels shift by c, so the memo keeps
one set per mu - mu_d (1, ..., 1).  A request first plans the staircases it
needs and the memo lacks, by length from d down to 1: the contents of all
the staircases of one length (a level) are enumerated at once, as the rows
of an integer array, and their keys looked up in the memo.  Each level is
then built in one vectorized pass, shortest first, from arrays alone.  The
dim of a content and the blocks of its coupling (offset, size, entries) are
read off the level below, with one gather per level read; one
reduced_wigner_values call gives every coefficient of the level; the offset
of a U(d-1) label inside a target is the sum of the dims of the target's
labels above it in descending lex order, and the target's size is the sum
of them all; and one segmented remap moves every block into its targets.
So no subduction, interlacing set or Weyl dimension is computed per
staircase.  A built level is one set of read-only arrays, and its memo
entries view slices of it.  A single coupling is a level with one
staircase.  Weight conservation keeps the
triplets a small fraction of the dense size (about 2% at d = 4, 0.2% at
d = 8), and no coupling is ever dense: each public call packs its triplets
once into a read-only CSR matrix (CouplingMatrix), which it returns.

defining_cg(lam) realizes Q_lam (x) Q_box ~= direct sum over lam + box.  It is
produced by bending the dual transform: the one-dimensionality of equivariant
map spaces makes

    C_def[q_lam, i -> q_nu] = sqrt(dim nu / dim lam) * C_dual[q_nu, i -> q_lam]

an exact identity up to a global phase per block, and with the real dual
coefficients the bent map assembles into a real unitary.  The bend moves the
triplets of the lam block of each target's dual coupling.  Unitarity is
asserted as the exact max |S S^T - I|, from a sparse Gram product of the
CSR matrix; a failure would signal a convention bug, not a numerical issue.

The triplets and the public transforms are memoized (``clear_cache`` empties
both); cached and fresh results are the same arrays, which are read-only so
that no caller can corrupt later transforms: the stored arrays of a
CouplingMatrix are frozen, and item assignment on it or on a slice of it
raises ValueError.  CGTransform.legs, the coupling cut into its blocks
between weights for the Schur cascade, is made on first use and kept with
the coupling, read-only too.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np
import scipy.sparse

from ._arrays import ranges, readonly, spans
from .gelfand import _by_weight, _row_keys, pattern_weights
from .staircase import Staircase, add_box_set, dim, validate
from .wigner import reduced_wigner_values
from .bratteli import CapExceeded

CG_DIM_CAP = 65536

_memo: dict[tuple[str, Staircase], "CGTransform"] = {}
_triplet_memo: dict[Staircase, "_Triplets"] = {}
_memo_lock = threading.Lock()


class CouplingMatrix(scipy.sparse.csr_array):
    """A coupling unitary as a read-only CSR array.

    Its data, indices and indptr arrays are frozen, so in-place arithmetic
    raises ValueError, and so does item assignment on it or on a slice of
    it.  A transpose shares the frozen arrays; copy() and toarray() give
    arrays the caller may edit.
    """

    @property
    def nbytes(self) -> int:
        """Bytes of the stored arrays: data, indices and indptr."""
        return self.data.nbytes + self.indices.nbytes + self.indptr.nbytes

    def __setitem__(self, key, value):
        raise ValueError("coupling matrices are read-only")

    def entry_rows(self) -> np.ndarray:
        """The row of each stored entry, in storage order."""
        return np.repeat(np.arange(self.shape[0]), np.diff(self.indptr))


@dataclass(frozen=True, eq=False)
class CGTransform:
    """One coupling unitary with its labeled output blocks; compared and
    hashed by identity.

    matrix rows are grouped by output_blocks: (target staircase, row offset,
    block size == dim(target)), listed in canonical staircase order.
    """

    input_irrep: Staircase
    d: int
    kind: str  # "defining" | "dual"
    matrix: CouplingMatrix
    output_blocks: tuple[tuple[Staircase, int, int], ...]

    def block(self, target: Staircase) -> CouplingMatrix:
        for g, off, size in self.output_blocks:
            if g == target:
                return self.matrix[off:off + size]
        raise KeyError(f"{target} is not an output block")

    def unitarity_residual(self) -> float:
        return _gram_residual(self.matrix)

    @cached_property
    def legs(self) -> _LegBlocks:
        """This coupling cut into its blocks between weights, for its leg of
        a cascade.  A coupling is memoized and immutable, so it is cut once,
        on first use."""
        return _cut(self)


def _gram_residual(w) -> float:
    """Exact max |W W^T - I| of a square real W; NaN if W carries a NaN.

    W is a CSR matrix (used as it is) or a dense array.  The product is
    sparse, so its cost grows with the nonzeros of W.
    """
    s = scipy.sparse.csr_array(w)
    g = (s @ s.T).tocoo()
    off = g.row != g.col
    dev = np.concatenate([g.data[off], g.diagonal() - 1.0])
    return float(np.abs(dev).max(initial=0.0))


class _LegBlocks(NamedTuple):
    """One coupling t cut into its blocks between weights, for its leg.

    Block u reads the patterns of the source weight weights[u].  AT[u] is
    the dense transpose of t on the columns (q, i) with q of that weight,
    for every leg value i, and on the rows of weight weights[u] + sign e_i,
    sign +1 for a defining coupling and -1 for a dual one: the rows of value
    i follow those of smaller values, in row order.  A coupling conserves
    weight, so these are all the rows those columns reach.  Column j of
    AT[u] is row rows[u][j] of t, reached at the value value[u][j];
    parts[u] lists (i, target, target weight, lo, hi) for each target with
    rows of weight weights[u] + sign e_i: they are the columns lo:hi, in
    pattern order.
    """

    weights: tuple[tuple[int, ...], ...]
    AT: tuple[np.ndarray, ...]
    rows: tuple[np.ndarray, ...]
    value: tuple[np.ndarray, ...]
    parts: tuple[tuple[tuple, ...], ...]


def _cut(t: CGTransform) -> _LegBlocks:
    """The _LegBlocks of the coupling t; every array is read-only.

    An entry of t that joins two weights no leg value joins raises
    RuntimeError.
    """
    sign, d = (1 if t.kind == "defining" else -1), t.d
    src = _by_weight(t.input_irrep)
    targets = [g for g, _, _ in t.output_blocks]
    tgt = [_by_weight(g) for g in targets]
    off = [o for _, o, _ in t.output_blocks]
    # the weights of the targets, numbered one target after another, and
    # which of them each source weight reaches at each value
    K = np.cumsum([0] + [len(x.count) for x in tgt])
    weights = np.concatenate([x.weights for x in tgt])
    count = np.concatenate([x.count for x in tgt])
    shifted = src.weights[:, None, :] + sign * np.eye(d, dtype=np.int64)
    _, key = np.unique(_row_keys(np.concatenate([weights, shifted.reshape(-1, d)])),
                       return_inverse=True)
    key = key.reshape(-1)
    lookup = np.full((key.max() + 1, len(tgt)), -1)
    lookup[key[:K[-1]], np.repeat(np.arange(len(tgt)), np.diff(K))] = np.arange(K[-1])
    reached = lookup[key[K[-1]:]].reshape(len(src.count), d, len(tgt))
    u, i, b = np.nonzero(reached >= 0)  # the parts, in column order
    k = reached[u, i, b]
    width = np.bincount(u, count[k], len(src.count)).astype(np.intp)
    lo = np.zeros(reached.shape, dtype=np.intp)  # where each part starts in its block
    lo[u, i, b] = np.cumsum(count[k]) - count[k] - (np.cumsum(width) - width)[u]

    # every entry of t into its block
    sizes = src.count * width
    base = np.cumsum(sizes) - sizes
    r = t.matrix.entry_rows()
    q, iv = np.divmod(t.matrix.indices, d)
    rb = np.repeat(np.arange(len(tgt)), [len(x.of) for x in tgt])[r]
    ru = src.of[q]
    row_k = np.concatenate([x.of + k0 for x, k0 in zip(tgt, K.tolist())])
    if np.any(row_k[r] != reached[ru, iv, rb]):
        raise RuntimeError(f"the coupling of {t.input_irrep} joins two weights")
    row_rank = np.concatenate([x.rank for x in tgt])
    flat = np.zeros(int(sizes.sum()))
    flat[base[ru] + src.rank[q] * width[ru] + lo[ru, iv, rb] + row_rank[r]] = t.matrix.data

    # the row and value of every column, block after block
    order = np.concatenate([x.order + o for x, o in zip(tgt, off)])
    first = np.concatenate([x.first + o for x, o in zip(tgt, off)])
    j, at = ranges(count[k], first[k])
    rows, value, _ = readonly(order[at], i[j], flat)
    names = [tuple(w) for w in weights.tolist()]
    parts = [[] for _ in width]
    for u_, i_, b_, k_, lo_, c_ in zip(u.tolist(), i.tolist(), b.tolist(), k.tolist(),
                                       lo[u, i, b].tolist(), count[k].tolist()):
        parts[u_].append((i_, targets[b_], names[k_], lo_, lo_ + c_))
    ends = np.cumsum(width).tolist()
    return _LegBlocks(tuple(map(tuple, src.weights.tolist())),
                      tuple(flat[a:a + s].reshape(-1, w) for a, s, w in zip(
                          base.tolist(), sizes.tolist(), width.tolist())),
                      tuple(rows[e - w:e] for e, w in zip(ends, width.tolist())),
                      tuple(value[e - w:e] for e, w in zip(ends, width.tolist())),
                      tuple(map(tuple, parts)))


class _Level(NamedTuple):
    """The dual couplings of one recursion level, built together, as one set
    of read-only arrays; the memo entries of the level view its slices.

    Coupling k (of the level's k-th staircase mu) owns blocks
    first[k]:first[k + 1], and dim[k] is dim(mu).  Block b holds entries
    ptr[b]:ptr[b + 1], is the target mu - e_j with j = jb[b] + 1, and takes
    rows off[b]:off[b] + size[b] of its coupling.
    """

    rows: np.ndarray
    cols: np.ndarray
    vals: np.ndarray
    ptr: np.ndarray
    first: np.ndarray
    jb: np.ndarray
    off: np.ndarray
    size: np.ndarray
    dim: np.ndarray


class _Triplets(NamedTuple):
    """A coupling as unique (row, col, val) entries, read-only.

    Columns index (input pattern q, leg i) as q * d + i.  Entries are grouped
    by output block: block b holds entries ptr[b]:ptr[b + 1].  rows, cols
    and vals view those of coupling `at` of `level`.
    """

    rows: np.ndarray
    cols: np.ndarray
    vals: np.ndarray
    ptr: np.ndarray
    blocks: tuple[tuple[Staircase, int, int], ...]
    level: _Level
    at: int


def clear_cache() -> None:
    with _memo_lock:
        _memo.clear()
        _triplet_memo.clear()


def _csr(rows, cols, vals, n: int) -> CouplingMatrix:
    """The n x n read-only CSR matrix with the given unique entries."""
    W = CouplingMatrix((vals, (rows, cols)), shape=(n, n))
    readonly(W.data, W.indices, W.indptr)
    return W


def dual_cg(mu: Staircase, cap: int = CG_DIM_CAP) -> CGTransform:
    """Coupling of the irrep mu with the dual defining irrep (d = len(mu))."""
    mu = validate(mu)
    key = ("dual", mu)
    hit = _memo.get(key)
    if hit is not None:
        return hit
    n = dim(mu) * len(mu)
    if n > cap:
        raise CapExceeded(f"dim(mu) * d = {n} exceeds cap {cap}")
    t = _sparse_dual(mu)
    out = CGTransform(mu, len(mu), "dual", _csr(t.rows, t.cols, t.vals, n), t.blocks)
    with _memo_lock:
        return _memo.setdefault(key, out)


def _canonical(mu: Staircase) -> Staircase:
    """mu - mu_d (1, ..., 1), the memo key of its triplets."""
    return tuple(x - mu[-1] for x in mu)


def _sparse_dual(mu: Staircase) -> _Triplets:
    """Triplets of dual_cg(mu)."""
    return _sparse_duals([mu])[0]


def _sparse_duals(mus) -> list[_Triplets]:
    """Triplets of dual_cg(mu) for each mu in mus, all of one length.

    The keys the memo lacks are planned by length, from the requests down
    through their contents, and each length is built in one pass, shortest
    first; a shifted request gets the triplets of its key, relabeled.
    """
    keys = [_canonical(mu) for mu in mus]
    have = {}
    plans = []
    todo = list(dict.fromkeys(keys))
    while todo:
        need = []
        for key in todo:
            hit = _triplet_memo.get(key)
            if hit is None:
                need.append(key)
            else:
                have[key] = hit
        if not need:
            break
        plans.append(_plan(need))
        todo = plans[-1].contents
    for plan in reversed(plans):
        have.update(_build_level(plan, have))
    with _memo_lock:
        for plan in plans:
            for key in plan.keys:
                have[key] = _triplet_memo.setdefault(key, have[key])
    out = []
    for mu, key in zip(mus, keys):
        t = have[key]
        if mu[-1]:
            t = t._replace(blocks=tuple((tuple(x + mu[-1] for x in g), off, size)
                                        for g, off, size in t.blocks))
        out.append(t)
    return out


class _Plan(NamedTuple):
    """One level to build: its keys (staircases of one length d, last entry
    0), as the rows of mus too, and every (key, content) pair, key by key and
    each key's contents in descending lex order (count of them per key): the
    row of its key (owner), its content (a row of pairs) and the position of
    the content's key in contents, the distinct keys of the U(d-1) couplings
    the level reads."""

    keys: list[Staircase]
    mus: np.ndarray
    count: np.ndarray
    owner: np.ndarray
    pairs: np.ndarray
    sub: np.ndarray
    contents: list[Staircase]


def _plan(keys: list[Staircase]) -> _Plan:
    """The contents of every key at once.  Entry i of a content ranges over
    mu_i, ..., mu_{i+1} whatever the other entries are, so the contents of mu,
    in descending lex order, count down a mixed-radix number with digits
    mu_i - mu_{i+1} + 1, its last entry least significant."""
    mus = np.array(keys)
    if mus.shape[1] == 1:
        return _Plan(keys, mus, None, None, None, None, [])
    width = mus[:, :-1] - mus[:, 1:] + 1
    count = width.prod(axis=1)
    owner, p = ranges(count)
    pairs = np.empty((len(owner), width.shape[1]), dtype=mus.dtype)
    for i in range(width.shape[1] - 1, -1, -1):
        p, r = np.divmod(p, width[owner, i])
        pairs[:, i] = mus[owner, i] - r
    index = {}
    sub = np.fromiter((index.setdefault(k, len(index))
                       for k in map(tuple, (pairs - pairs[:, -1:]).tolist())),
                      dtype=np.intp, count=len(pairs))
    return _Plan(keys, mus, count, owner, pairs, sub, list(index))


def _gather(subs: list[_Triplets]):
    """The blocks and entries of the couplings subs, with one fancy index per
    level they view: per coupling its dim, block count and first block; per
    block its jb, off and size, entry count and first entry; the entries.
    The blocks and entries come level by level, each coupling's together."""
    by_level = {}
    for i, t in enumerate(subs):
        by_level.setdefault(id(t.level), (t.level, []))[1].append(i)
    perm = np.empty(len(subs), dtype=np.intp)  # where each coupling comes
    parts, placed = [], 0
    for lv, idx in by_level.values():
        at = np.array([subs[i].at for i in idx])
        perm[idx] = placed + np.arange(len(idx))
        placed += len(idx)
        nb = lv.first[at + 1] - lv.first[at]
        b = spans(lv.first[at], nb)
        ne = lv.ptr[b + 1] - lv.ptr[b]
        e = spans(lv.ptr[b], ne)
        parts.append((lv.dim[at], nb, lv.jb[b], lv.off[b], lv.size[b], ne,
                      lv.rows[e], lv.cols[e], lv.vals[e]))
    dims, nb, jb, off, size, ne, rows, cols, vals = (
        x[0] if len(x) == 1 else np.concatenate(x) for x in zip(*parts))
    return (dims[perm], nb[perm], (np.cumsum(nb) - nb)[perm],
            jb, off, size, ne, np.cumsum(ne) - ne, rows, cols, vals)


def _label_offsets(g: np.ndarray, label: np.ndarray, dims: np.ndarray,
                   n_targets: int) -> tuple[np.ndarray, np.ndarray]:
    """(offset of each label in its target g, size of each target).

    The labels of the pairs of a target are its contents, with their dims,
    each as often as pairs carry it: sorted by target, then label
    descending, each run of one label is one content, so its offset is the
    sum of the dims of the runs before it in its target.
    """
    by = np.lexsort(np.column_stack([g, -label])[:, ::-1].T)
    gs, ls = g[by], label[by]
    new = np.ones(len(by), dtype=bool)
    new[1:] = (gs[1:] != gs[:-1]) | (ls[1:] != ls[:-1]).any(axis=1)
    run_dim, run_g = dims[by][new], gs[new]
    first = np.searchsorted(run_g, np.arange(n_targets))
    at = np.cumsum(run_dim) - run_dim
    offset = np.empty(len(by), dtype=np.intp)
    offset[by] = (at - at[first][run_g])[np.cumsum(new) - 1]
    return offset, np.add.reduceat(run_dim, first)


def _build_level(plan: _Plan, have: dict) -> dict[Staircase, _Triplets]:
    """Triplets of dual_cg(mu) for every key mu of the plan, all of one
    length d and with last entry 0, from the triplets in `have` of their
    U(d-1) contents.

    A segment is one output block of a content's coupling (its entries; leg
    values below d) or the diagonal of one content (its patterns, at leg
    value d), labeled by the U(d-1) staircase nu of its rows.  Each segment
    lands in each target block mu - e_j of its mu with one coefficient
    T(mu, j, mu', j'), j' = 0 for the diagonal, and one row shift; the
    (target, segment) pairs whose coefficient is 0 are dropped.  The labels
    of the pairs kept in a target are its contents, so a label's offset in
    the target is the sum of the dims of the labels above it in descending
    lex order, and the target's size is the sum of them all.
    """
    mus, owner, pairs, sub = plan.mus, plan.owner, plan.pairs, plan.sub
    n_mu, d = mus.shape
    if d == 1:  # (0,): the integer 0 maps to -1 with coefficient 1
        zero, one = np.zeros(1, dtype=np.intp), np.ones(1, dtype=np.intp)
        level = _Level(*readonly(zero, zero, np.ones(1), np.arange(2), np.arange(2),
                                 zero, zero, one, one))
        return {(0,): _Triplets(*level[:4], (((-1,), 0, 1),), level, 0)}
    (dims, nb, b0, jb, boff, bsize, ne, e0,
     rows, cols, vals) = _gather([have[k] for k in plan.contents])
    # the entries of every content's coupling, then every content's
    # diagonal; column (q', i') of a content becomes (q', i') in the U(d)
    # numbering, (q', d) on the diagonal, and the content's offset in its mu
    # is added per pair
    diag = spans(0, dims)
    q, i = np.divmod(cols, d - 1)
    src_rows = np.concatenate([rows, diag])
    src_cols = np.concatenate([q * d + i, diag * d + d - 1])
    src_vals = np.concatenate([vals, np.ones(len(diag))])
    diag0 = len(rows) + np.cumsum(dims) - dims

    pdim = dims[sub]
    pfirst = np.cumsum(plan.count) - plan.count
    at = np.cumsum(pdim) - pdim
    in_off = at - at[pfirst][owner]
    # every segment of every pair: the content's blocks, then its diagonal;
    # seg orders them mu by mu, a mu's sub segments before its diagonals
    so, blk = ranges(nb[sub], b0[sub])
    n_pair = len(sub)
    seg_pair = np.concatenate([so, np.arange(n_pair)])
    seg_jp = np.concatenate([jb[blk] + 1, np.zeros(n_pair, dtype=np.intp)])
    seg_dim = np.concatenate([bsize[blk], pdim])
    seg_off = np.concatenate([boff[blk], np.zeros(n_pair, dtype=np.intp)])
    seg_len = np.concatenate([ne[blk], pdim])
    seg_start = np.concatenate([e0[blk], diag0[sub]])
    seg_mu = owner[seg_pair]
    seg = np.argsort(seg_mu, kind="stable")
    n_seg = np.bincount(seg_mu, minlength=n_mu)

    # the targets mu - e_j of every mu, then every (target, segment) pair of
    # each mu, targets major
    open_ = np.ones((n_mu, d), dtype=bool)
    open_[:, :-1] = mus[:, :-1] > mus[:, 1:]
    tmu, tj = np.nonzero(open_)
    n_tgt = open_.sum(axis=1)
    tfirst = np.cumsum(n_tgt) - n_tgt
    o, at = ranges(n_tgt * n_seg)
    t_at, s_at = np.divmod(at, n_seg[o])
    g = tfirst[o] + t_at
    sig = seg[(np.cumsum(n_seg) - n_seg)[o] + s_at]
    coef = reduced_wigner_values(mus[o], pairs[seg_pair[sig]], tj[g] + 1, seg_jp[sig])
    keep = np.flatnonzero(coef)
    g, sig, coef = g[keep], sig[keep], coef[keep]

    pr = seg_pair[sig]
    label = pairs[pr] - np.eye(d, d - 1, -1, dtype=pairs.dtype)[seg_jp[sig]]
    label_off, size = _label_offsets(g, label, seg_dim[sig], len(tj))
    at = np.cumsum(size) - size
    row0 = at - at[tfirst][tmu]

    # a segment labeled nu moves to the target's row offset plus the offset
    # of nu in the target, less its own offset in the sub coupling
    length = seg_len[sig]
    idx = spans(seg_start[sig], length)
    rows = src_rows[idx] + np.repeat(row0[g] + label_off - seg_off[sig], length)
    cols = src_cols[idx] + np.repeat(in_off[pr] * d, length)
    vals = src_vals[idx] * np.repeat(coef, length)
    ends = np.concatenate([[0], np.cumsum(length)])
    ptr = ends[np.searchsorted(g, np.arange(len(tj) + 1))]
    first = np.append(tfirst, len(tj))
    # each coupling's own block pointers, laid end to end: n_tgt + 1 each
    o, at = ranges(n_tgt + 1, tfirst)
    local = ptr[at] - ptr[tfirst[o]]
    level = _Level(*readonly(rows, cols, vals, ptr, first, tj, row0, size,
                             np.add.reduceat(pdim, pfirst)))
    readonly(local)
    targets = (mus[tmu] - np.eye(d, dtype=mus.dtype)[tj]).tolist()
    blocks = list(zip(map(tuple, targets), row0.tolist(), size.tolist()))
    first, ptr = first.tolist(), ptr.tolist()
    out = {}
    for k, key in enumerate(plan.keys):
        b, b1 = first[k], first[k + 1]
        e = slice(ptr[b], ptr[b1])
        out[key] = _Triplets(rows[e], cols[e], vals[e], local[b + k:b1 + k + 1],
                             tuple(blocks[b:b1]), level, k)
    return out


def bend(dual_block: np.ndarray, dim_nu: int, dim_lam: int, d: int) -> np.ndarray:
    """Turn the (nu -> lam) block of dual_cg(nu) into the (lam -> nu) defining block.

    dual_block has shape (dim_lam, dim_nu * d); the result has shape
    (dim_nu, dim_lam * d) with C_def[q_nu, (q_lam, i)] =
    sqrt(dim_nu / dim_lam) * conj(C_dual[q_lam, (q_nu, i)]).
    """
    if dual_block.shape != (dim_lam, dim_nu * d):
        raise ValueError(f"dual block has shape {dual_block.shape}, "
                         f"expected {(dim_lam, dim_nu * d)}")
    scale = np.sqrt(dim_nu / dim_lam)
    cube = dual_block.reshape(dim_lam, dim_nu, d)
    return scale * np.conj(cube).transpose(1, 0, 2).reshape(dim_nu, dim_lam * d)


def defining_cg(lam: Staircase, cap: int = CG_DIM_CAP) -> CGTransform:
    """Coupling of the irrep lam with the defining irrep, built by bending."""
    lam = validate(lam)
    key = ("defining", lam)
    hit = _memo.get(key)
    if hit is not None:
        return hit
    d = len(lam)
    dlam = dim(lam)
    if dlam * d > cap:
        raise CapExceeded(f"dim(lam) * d = {dlam * d} exceeds cap {cap}")
    targets = add_box_set(lam)
    blocks, pieces, off = [], [], 0
    for nu, t in zip(targets, _sparse_duals(targets)):
        # the real dual block C_dual[q_lam, (q_nu, i)] moves to
        # C_def[q_nu, (q_lam, i)], scaled; the swap is on triplets
        dn = int(t.level.dim[t.at])
        b = next(k for k, (g, _, _) in enumerate(t.blocks) if g == lam)
        sl = slice(t.ptr[b], t.ptr[b + 1])
        q_nu, i = np.divmod(t.cols[sl], d)
        q_lam = t.rows[sl] - t.blocks[b][1]
        pieces.append((off + q_nu, q_lam * d + i, np.sqrt(dn / dlam) * t.vals[sl]))
        blocks.append((nu, off, dn))
        off += dn
    rows, cols, vals = (np.concatenate(x) for x in zip(*pieces))
    W = _csr(rows, cols, vals, dlam * d)
    resid = _gram_residual(W)
    if not resid <= 1e-8:
        raise RuntimeError(
            f"bent defining CG for {lam} failed unitarity ({resid:.2e}); "
            "coupling conventions are inconsistent")
    out = CGTransform(lam, d, "defining", W, tuple(blocks))
    with _memo_lock:
        return _memo.setdefault(key, out)


def cg_transform(kind: str, gamma: Staircase, cap: int = CG_DIM_CAP) -> CGTransform:
    if kind == "dual":
        return dual_cg(gamma, cap)
    if kind == "defining":
        return defining_cg(gamma, cap)
    raise ValueError(f"unknown CG kind {kind!r}")


def weight_sparsity_residual(t: CGTransform) -> float:
    """Largest entry violating weight conservation; 0 for a correct transform.

    A defining (dual) coupling can only connect an input of weight w on leg i
    to outputs of weight w + e_i (w - e_i).  Only the stored entries are
    read, against the weight of their row and the weight their column
    (q, i) must reach.
    """
    step = 1 if t.kind == "defining" else -1
    reach = (pattern_weights(t.input_irrep)[:, None, :]
             + step * np.eye(t.d, dtype=np.int64)).reshape(-1, t.d)
    row_weight = np.concatenate([pattern_weights(g) for g, _, _ in t.output_blocks])
    w = t.matrix
    bad = (row_weight[w.entry_rows()] != reach[w.indices]).any(axis=1)
    return float(np.abs(w.data[bad]).max(initial=0.0))
