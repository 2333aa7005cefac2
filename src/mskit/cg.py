"""Dual and defining Clebsch-Gordan transforms as explicit block-labeled unitaries.

dual_cg(mu) realizes the multiplicity-free decomposition

    Q_mu (x) Q_dualbox  ~=  direct sum over targets nu in mu - box of Q_nu,

as a real unitary of size dim(mu) * d.  Columns are indexed (pattern of mu,
tensor leg i) with i minor; rows run over the targets in canonical staircase
order, each block indexed by the target's canonical GT patterns.  The matrix
is built recursively: the leg value i < d is handled by the U(d-1) transform
acting inside the second pattern row, i = d leaves the U(d-1) content alone,
and the reduced Wigner coefficients splice the two cases into the U(d)
targets.  The base case d = 1 maps the integer c to c - 1 with coefficient 1.

defining_cg(lam) realizes Q_lam (x) Q_box ~= direct sum over lam + box.  It is
produced by bending the dual transform: the one-dimensionality of equivariant
map spaces makes

    C_def[q_lam, i -> q_nu] = sqrt(dim nu / dim lam) * C_dual[q_nu, i -> q_lam]

an exact identity up to a global phase per block, and with the real dual
coefficients the bent map assembles into a real unitary.  Unitarity is
asserted; a failure would signal a convention bug, not a numerical issue.

Both constructions are memoized; cached and fresh results are the same arrays,
which are read-only so that no caller can corrupt later transforms.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

import numpy as np

from .gelfand import enumerate_patterns, interlacing_set, subduce_offsets
from .staircase import (Staircase, add_box_set, dim, remove_box_set, validate)
from .wigner import dual_reduced_wigner
from .bratteli import CapExceeded

CG_DIM_CAP = 65536

_memo: dict[tuple[str, Staircase], "CGTransform"] = {}
_memo_lock = threading.Lock()


@dataclass(frozen=True)
class CGTransform:
    """One coupling unitary with its labeled output blocks.

    matrix rows are grouped by output_blocks: (target staircase, row offset,
    block size == dim(target)), listed in canonical staircase order.
    """

    input_irrep: Staircase
    d: int
    kind: str  # "defining" | "dual"
    matrix: np.ndarray
    output_blocks: tuple[tuple[Staircase, int, int], ...]

    def block(self, target: Staircase) -> np.ndarray:
        for g, off, size in self.output_blocks:
            if g == target:
                return self.matrix[off:off + size]
        raise KeyError(f"{target} is not an output block")

    def unitarity_residual(self) -> float:
        w = self.matrix
        return float(np.abs(w @ w.T - np.eye(w.shape[0])).max())


def clear_cache() -> None:
    with _memo_lock:
        _memo.clear()


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
    out = _build_dual(mu)
    out.matrix.setflags(write=False)
    with _memo_lock:
        return _memo.setdefault(key, out)


def _target_blocks(targets: list[Staircase]) -> tuple[tuple[Staircase, int, int], ...]:
    blocks = []
    off = 0
    for t in targets:
        blocks.append((t, off, dim(t)))
        off += dim(t)
    return tuple(blocks)


def _build_dual(mu: Staircase) -> CGTransform:
    d = len(mu)
    targets = remove_box_set(mu)
    blocks = _target_blocks(targets)
    n_rows = sum(s for _, _, s in blocks)
    dmu = dim(mu)
    W = np.zeros((n_rows, dmu * d))

    if d == 1:
        W[0, 0] = 1.0
        return CGTransform(mu, d, "dual", W, blocks)

    in_off = subduce_offsets(mu)
    W3 = W.reshape(n_rows, dmu, d)  # (row, input pattern, tensor leg)
    for target, t_off, _ in blocks:
        j = 1 + next(k for k in range(d) if target[k] != mu[k])
        out_off = subduce_offsets(target)
        for mup in interlacing_set(mu):
            dmup = dim(mup)
            # leg value d: U(d-1) content rides through unchanged
            if mup in out_off:
                t0 = dual_reduced_wigner(mu, j, mup, 0)
                if t0 != 0.0:
                    rows = t_off + out_off[mup] + np.arange(dmup)
                    W3[rows, in_off[mup] + np.arange(dmup), d - 1] = t0
            # leg values below d: delegate to the U(d-1) transform
            sub = dual_cg(mup)
            for nup, s_off, s_size in sub.output_blocks:
                if nup not in out_off:
                    continue
                jp = 1 + next(k for k in range(d - 1) if nup[k] != mup[k])
                t = dual_reduced_wigner(mu, j, mup, jp)
                if t == 0.0:
                    continue
                sb = sub.matrix[s_off:s_off + s_size].reshape(s_size, dmup, d - 1)
                r0 = t_off + out_off[nup]
                c0 = in_off[mup]
                W3[r0:r0 + s_size, c0:c0 + dmup, :d - 1] += t * sb
    return CGTransform(mu, d, "dual", W, blocks)


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
    blocks = _target_blocks(targets)
    n_rows = sum(s for _, _, s in blocks)
    W = np.zeros((n_rows, dlam * d))
    for nu, off, dn in blocks:
        W[off:off + dn] = bend(dual_cg(nu).block(lam), dn, dlam, d)
    resid = np.abs(W @ W.T - np.eye(n_rows)).max()
    if resid > 1e-8:
        raise RuntimeError(
            f"bent defining CG for {lam} failed unitarity ({resid:.2e}); "
            "coupling conventions are inconsistent")
    W.setflags(write=False)
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
    to outputs of weight w + e_i (w - e_i).
    """
    from .gelfand import pattern_weight

    d = t.d
    in_pats = enumerate_patterns(t.input_irrep)
    worst = 0.0
    for g, off, size in t.output_blocks:
        out_pats = enumerate_patterns(g)
        for r in range(size):
            w_out = np.array(pattern_weight(out_pats[r]))
            for c in range(t.matrix.shape[1]):
                q, i = divmod(c, d)
                w_in = np.array(pattern_weight(in_pats[q]))
                w_in[i] += 1 if t.kind == "defining" else -1
                if not np.array_equal(w_out, w_in):
                    worst = max(worst, abs(t.matrix[off + r, c]))
    return worst
