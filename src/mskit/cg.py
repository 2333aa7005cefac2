"""Dual and defining Clebsch-Gordan transforms as explicit block-labeled unitaries.

dual_cg(mu) realizes the multiplicity-free decomposition

    Q_mu (x) Q_dualbox  ~=  direct sum over targets nu in mu - box of Q_nu,

as a real unitary of size dim(mu) * d.  Columns are indexed (pattern of mu,
tensor leg i) with i minor; rows run over the targets in canonical staircase
order, each block indexed by the target's canonical GT patterns.

The coupling is built recursively, as sparse (row, column, value) triplets:
the leg value i < d is handled by the U(d-1) coupling acting inside the
second pattern row, i = d leaves the U(d-1) content alone, and the reduced
Wigner coefficients splice the two cases into the U(d) targets.  One
vectorized step per mu remaps the entries of every content mu' (its U(d-1)
coupling) into every target mu - e_j: each output block of the content's
coupling gets a row shift and one coefficient T(mu, j, mu', j'), and its
column (q', i') moves to (q_mu' + q', i') in the U(d) numbering; the leg
i = d adds a diagonal scaled by T(mu, j, mu', 0).  The base case d = 1 maps
the integer c to c - 1 with coefficient 1.  Weight conservation keeps the
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
from .staircase import (Staircase, add_box_set, dim, remove_box_set, validate)
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


@dataclass(frozen=True)
class CGTransform:
    """One coupling unitary with its labeled output blocks.

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


def _csr(rows, cols, vals, n: int) -> CouplingMatrix:
    """The n x n read-only CSR matrix with the given unique entries."""
    W = CouplingMatrix((vals, (rows, cols)), shape=(n, n))
    for x in (W.data, W.indices, W.indptr):
        x.setflags(write=False)
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


def _changed(a: Staircase, b: Staircase) -> int:
    """Index of the one entry where a and b differ."""
    return next(k for k in range(len(b)) if a[k] != b[k])


def _sparse_dual(mu: Staircase) -> _Triplets:
    """Triplets of dual_cg(mu), built from those of the U(d-1) couplings."""
    hit = _triplet_memo.get(mu)
    if hit is not None:
        return hit
    blocks = _target_blocks(remove_box_set(mu))
    if len(mu) == 1:
        rows, cols, vals, ptr = (np.zeros(1, np.intp), np.zeros(1, np.intp),
                                 np.ones(1), np.arange(2))
    else:
        rows, cols, vals, ptr = _remap_subcouplings(mu, blocks)
    for x in (rows, cols, vals, ptr):
        x.setflags(write=False)
    out = _Triplets(rows, cols, vals, ptr, blocks)
    with _memo_lock:
        return _triplet_memo.setdefault(mu, out)


def _remap_subcouplings(mu: Staircase, blocks) -> tuple[np.ndarray, ...]:
    """rows, cols, vals and block pointer of dual_cg(mu), d >= 2.

    Every target block gets one line of candidate entries: the entries of
    each content's U(d-1) coupling (leg values below d), then one diagonal
    entry per pattern of mu (leg value d).  The coefficients zero out the
    candidates that do not reach the target.
    """
    d = len(mu)
    contents = interlacing_set(mu)  # the order of subduce(mu)
    table = reduced_wigner_table(mu, contents)  # [mu', j - 1, j']
    subs = [_sparse_dual(m) for m in contents]
    dims = [dim(m) for m in contents]
    in_off = np.cumsum([0] + dims[:-1])
    # every sub-coupling output block k, over all contents
    kb = [(a, nup, s_off, 1 + _changed(nup, m))
          for a, (m, s) in enumerate(zip(contents, subs)) for nup, s_off, _ in s.blocks]
    k_a = np.array([a for a, _, _, _ in kb])
    k_jp = np.array([jp for _, _, _, jp in kb])
    k_of = np.repeat(np.arange(len(kb)), np.concatenate([np.diff(s.ptr) for s in subs]))
    q_a = np.repeat(np.arange(len(contents)), dims)  # content of each pattern q of mu
    q = np.arange(len(q_a))
    # column (q', i') of the content's coupling -> (q_mu' + q', i'); the leg
    # value d keeps the pattern: (q, d)
    sub_q, sub_i = np.divmod(np.concatenate([s.cols for s in subs]), d - 1)
    cols = np.concatenate([(in_off[k_a][k_of] + sub_q) * d + sub_i, q * d + d - 1])
    vals = np.concatenate([np.concatenate([s.vals for s in subs]), np.ones(len(q))])

    tj = np.array([_changed(t, mu) for t, _, _ in blocks])
    offs = [(row0, subduce_offsets(t)) for t, row0, _ in blocks]
    # coefficient T(mu, j, mu', j') of sub-coupling block k in target j, and
    # T(mu, j, mu', 0) of the pattern q; each lands on the target's content
    coef = np.concatenate([table[k_a[None, :], tj[:, None], k_jp[None, :]][:, k_of],
                           table[q_a[None, :], tj[:, None], 0]], axis=1)
    shift = np.array([[row0 + out.get(nup, 0) - s_off for _, nup, s_off, _ in kb]
                      for row0, out in offs], dtype=np.intp)
    base = np.array([[row0 + out.get(m, 0) for m in contents] for row0, out in offs],
                    dtype=np.intp) - in_off
    rows = np.concatenate([np.concatenate([s.rows for s in subs]) + shift[:, k_of],
                           base[:, q_a] + q], axis=1)
    keep = np.flatnonzero(coef)
    line = keep % coef.shape[1]
    ptr = np.concatenate([[0], np.cumsum(np.bincount(keep // coef.shape[1],
                                                     minlength=len(blocks)))])
    return rows.ravel()[keep], cols[line], coef.ravel()[keep] * vals[line], ptr


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
    for nu, off, dn in blocks:
        # the real dual block C_dual[q_lam, (q_nu, i)] moves to
        # C_def[q_nu, (q_lam, i)], scaled; the swap is on triplets
        t = _sparse_dual(nu)
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
