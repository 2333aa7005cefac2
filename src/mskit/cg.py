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
one set per mu - mu_d (1, ..., 1).  A request first collects the staircases
it needs and the memo lacks, by length from d down to 1, and then builds
each length (a level) in one vectorized pass, shortest first: one
reduced_wigner_table over all (mu, content) pairs of the level, and one
segmented remap of all sub-coupling blocks into their targets.  A single
coupling is a level with one staircase.  Weight conservation keeps the
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
raises ValueError.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
import scipy.sparse

from .gelfand import interlacing_set, pattern_weights, subduce_offsets
from .staircase import Staircase, add_box_set, dim, validate
from .wigner import reduced_wigner_table
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


class _Triplets(NamedTuple):
    """A coupling as unique (row, col, val) entries, read-only.

    Columns index (input pattern q, leg i) as q * d + i.  Entries are grouped
    by output block: block b holds entries ptr[b]:ptr[b + 1].
    """

    rows: np.ndarray
    cols: np.ndarray
    vals: np.ndarray
    ptr: np.ndarray
    blocks: tuple[tuple[Staircase, int, int], ...]


def clear_cache() -> None:
    with _memo_lock:
        _memo.clear()
        _triplet_memo.clear()


def _readonly(*arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    for x in arrays:
        x.setflags(write=False)
    return arrays


def _csr(rows, cols, vals, n: int) -> CouplingMatrix:
    """The n x n read-only CSR matrix with the given unique entries."""
    W = CouplingMatrix((vals, (rows, cols)), shape=(n, n))
    _readonly(W.data, W.indices, W.indptr)
    return W


def dual_cg(mu: Staircase, cap: int = CG_DIM_CAP) -> CGTransform:
    """Coupling of the irrep mu with the dual defining irrep (d = len(mu))."""
    mu = validate(mu)
    key = ("dual", mu)
    hit = _memo.get(key)
    if hit is not None:
        return hit
    d = len(mu)
    if dim(mu) * d > cap:
        raise CapExceeded(f"dim(mu) * d = {dim(mu) * d} exceeds cap {cap}")
    t = _sparse_dual(mu)
    W = _csr(t.rows, t.cols, t.vals, dim(mu) * d)
    out = CGTransform(mu, d, "dual", W, t.blocks)
    with _memo_lock:
        return _memo.setdefault(key, out)


def _target_blocks(targets: list[Staircase]) -> tuple[tuple[Staircase, int, int], ...]:
    blocks = []
    off = 0
    for t in targets:
        blocks.append((t, off, dim(t)))
        off += dim(t)
    return tuple(blocks)


def _canonical(mu: Staircase) -> Staircase:
    """mu - mu_d (1, ..., 1), the memo key of its triplets."""
    return tuple(x - mu[-1] for x in mu)


def _sparse_dual(mu: Staircase) -> _Triplets:
    """Triplets of dual_cg(mu)."""
    return _sparse_duals([mu])[0]


def _sparse_duals(mus) -> list[_Triplets]:
    """Triplets of dual_cg(mu) for each mu in mus, all of one length.

    The keys the memo lacks are collected by length, from the requests down
    through their contents, and each length is built in one pass, shortest
    first; a shifted request gets the triplets of its key, relabeled.
    """
    keys = [_canonical(mu) for mu in mus]
    have = {}
    levels = []
    todo = dict.fromkeys(keys)
    while todo:
        need = []
        for key in todo:
            hit = _triplet_memo.get(key)
            if hit is None:
                need.append(key)
            else:
                have[key] = hit
        if need:
            levels.append(need)
        todo = dict.fromkeys(k for mu in need for k in map(_canonical, interlacing_set(mu))
                             if k not in have)
    for level in reversed(levels):
        have.update(_build_level(level, have))
    with _memo_lock:
        for level in levels:
            for key in level:
                have[key] = _triplet_memo.setdefault(key, have[key])
    out = []
    for mu, key in zip(mus, keys):
        t = have[key]
        if mu[-1]:
            t = t._replace(blocks=tuple((tuple(x + mu[-1] for x in g), off, size)
                                        for g, off, size in t.blocks))
        out.append(t)
    return out


def _ranges(lengths: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Owner and position of every element of the ranges arange(n), n in
    lengths, laid end to end."""
    owner = np.repeat(np.arange(len(lengths)), lengths)
    return owner, np.arange(len(owner)) - (np.cumsum(lengths) - lengths)[owner]


def _build_level(level: list[Staircase], have: dict) -> dict[Staircase, _Triplets]:
    """Triplets of dual_cg(mu) for every mu in level, all of one length d and
    with last entry 0, from the triplets in `have` of their U(d-1) contents.

    A segment is one output block of a content's coupling (its entries; leg
    values below d) or the diagonal of one content (its patterns, at leg
    value d).  Each segment lands in each target block of its mu with one
    coefficient T(mu, j, mu', j'), j' = 0 for the diagonal, and one row
    shift; the (target, segment) pairs whose coefficient is 0 are dropped.
    """
    d = len(level[0])
    if d == 1:  # (0,): the integer 0 maps to -1 with coefficient 1
        base = _readonly(np.zeros(1, np.intp), np.zeros(1, np.intp), np.ones(1), np.arange(2))
        return {(0,): _Triplets(*base, (((-1,), 0, 1),))}
    pair_mu, contents, subs, in_off, dims = [], [], [], [], []
    # per sub segment: its pair, j', row offset in the sub coupling, label
    seg_pair, seg_jp, seg_off, seg_label = [], [], [], []
    # per target block: j - 1, row offset, second row -> row offset
    tj, row0, offs, blocks = [], [], [], []
    for l, mu in enumerate(level):
        off = 0
        for c in interlacing_set(mu):
            sub = have[_canonical(c)]
            js = [j for j in range(d - 1) if j == d - 2 or c[j] > c[j + 1]]  # blocks c - e_j
            seg_pair += [len(contents)] * len(js)
            seg_jp += [j + 1 for j in js]
            seg_off += [o for _, o, _ in sub.blocks]
            seg_label += [c[:j] + (c[j] - 1,) + c[j + 1:] for j in js]
            pair_mu.append(l)
            contents.append(c)
            subs.append(sub)
            in_off.append(off)
            dims.append(dim(c))
            off += dims[-1]
        js = [j for j in range(d) if j == d - 1 or mu[j] > mu[j + 1]]
        blocks.append(_target_blocks([mu[:j] + (mu[j] - 1,) + mu[j + 1:] for j in js]))
        tj += js
        row0 += [r0 for _, r0, _ in blocks[-1]]
        offs += [subduce_offsets(t) for t, _, _ in blocks[-1]]
    # the diagonal segments of all contents follow the sub segments
    n = len(contents)
    seg_pair = np.array(seg_pair + list(range(n)))
    seg_jp = np.array(seg_jp + [0] * n)
    seg_off = np.array(seg_off + [0] * n)
    seg_label += contents
    pair_mu, in_off, dims = np.array(pair_mu), np.array(in_off), np.array(dims)

    # the entries of every content's coupling, then every diagonal, tiled by
    # the segments in order; column (q', i') of content mu' becomes
    # (q_mu' + q', i'), and its pattern q' on the diagonal (q_mu' + q', d)
    n_ent = np.array([len(t.vals) for t in subs])
    ends = (np.concatenate([t.ptr[1:] for t in subs])
            + np.repeat(np.cumsum(n_ent) - n_ent, [len(t.blocks) for t in subs]))
    length = np.concatenate([np.diff(ends, prepend=0), dims])
    start = np.cumsum(length) - length
    owner, q = _ranges(dims)
    rows = np.concatenate([t.rows for t in subs] + [q])
    cols = np.concatenate([t.cols for t in subs] + [(in_off[owner] + q) * d + d - 1])
    vals = np.concatenate([t.vals for t in subs] + [np.ones(len(q))])
    E = ends[-1]
    sub_q, sub_i = np.divmod(cols[:E], d - 1)
    cols[:E] = (np.repeat(in_off, n_ent) + sub_q) * d + sub_i

    # every (target, segment) pair of each mu, targets major; a mu's
    # segments are its sub segments, then its diagonals
    seg_mu = pair_mu[seg_pair]
    n_seg = np.bincount(seg_mu, minlength=len(level))
    n_tgt = np.array([len(b) for b in blocks])
    owner, at = _ranges(n_tgt * n_seg)
    t_at, s_at = np.divmod(at, n_seg[owner])
    g = (np.cumsum(n_tgt) - n_tgt)[owner] + t_at
    sig = np.argsort(seg_mu, kind="stable")[(np.cumsum(n_seg) - n_seg)[owner] + s_at]
    table = reduced_wigner_table(np.array(level)[pair_mu], contents)  # [pair, j - 1, j']
    coef = table[seg_pair[sig], np.array(tj)[g], seg_jp[sig]]
    keep = np.flatnonzero(coef)
    g, sig, coef = g[keep], sig[keep], coef[keep]
    # a segment labeled nu moves to the target's row offset plus the offset
    # of nu in the target, less its own offset in the sub coupling
    shift = (np.array(row0)[g] - seg_off[sig]
             + np.array([offs[a][seg_label[b]] for a, b in zip(g.tolist(), sig.tolist())],
                        dtype=np.intp))
    owner, at = _ranges(length[sig])
    idx = start[sig][owner] + at
    rows, cols, vals = _readonly(rows[idx] + shift[owner], cols[idx], vals[idx] * coef[owner])
    ptr = np.searchsorted(g[owner], np.arange(len(tj) + 1))
    out = {}
    g0 = 0
    for mu, b in zip(level, blocks):
        p = ptr[g0:g0 + len(b) + 1]
        at = slice(p[0], p[-1])
        out[mu] = _Triplets(rows[at], cols[at], vals[at], *_readonly(p - p[0]), b)
        g0 += len(b)
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
    blocks = _target_blocks(add_box_set(lam))
    pieces = []
    for (nu, off, dn), t in zip(blocks, _sparse_duals([nu for nu, _, _ in blocks])):
        # the real dual block C_dual[q_lam, (q_nu, i)] moves to
        # C_def[q_nu, (q_lam, i)], scaled; the swap is on triplets
        b = next(k for k, (g, _, _) in enumerate(t.blocks) if g == lam)
        sl = slice(t.ptr[b], t.ptr[b + 1])
        q_nu, i = np.divmod(t.cols[sl], d)
        q_lam = t.rows[sl] - t.blocks[b][1]
        pieces.append((off + q_nu, q_lam * d + i, np.sqrt(dn / dlam) * t.vals[sl]))
    rows, cols, vals = (np.concatenate(x) for x in zip(*pieces))
    W = _csr(rows, cols, vals, dlam * d)
    resid = _gram_residual(W)
    if not resid <= 1e-8:
        raise RuntimeError(
            f"bent defining CG for {lam} failed unitarity ({resid:.2e}); "
            "coupling conventions are inconsistent")
    out = CGTransform(lam, d, "defining", W, blocks)
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
