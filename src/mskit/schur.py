"""The mixed Schur transform: cascade assembly, verification, and sampling demos.

build_mixed_schur(n, m, d) produces the unitary W of size d^(n+m) that maps
the computational basis of the mixed tensor power to the labeled basis
|staircase, GT index, path index>.  One Clebsch-Gordan transform is applied
per tensor leg, defining or dual according to factor_order; the sequence of
intermediate staircases seen by each output block is a path in the box
add/remove tower, which fixes the multiplicity label.  Each leg costs one
GEMM per staircase reached so far, over all segments ending there at once,
and makes no transposed copy of its output.  The labels of the rows are a
function of (n, m, d) alone, bratteli.row_layout, and io rejects a
transform file whose labels differ from it.

The GT basis conserves weight, so W is block diagonal once rows are grouped
by pattern weight and columns by computational weight (weight_sectors).  Both
checks of W itself work sector by sector: weight_check returns the exact
random-phase Frobenius deviation from a table of squared entries per pair of
weights, and SchurTransform.unitarity_residual is exact inside each sector
and adds a Cauchy-Schwarz bound for entries between sectors, which is zero
for a correct W.

A SchurTransform is an immutable value: it owns its matrix, which is
read-only, and derives its row index, weight sectors (W.sectors) and the
split of W into weight sector blocks (W.split) once, on first use.  Every
product against W and every check of it reads that one split.  A transform
with another matrix is a new value, made with dataclasses.replace.

Conjugating the mixed tensor operator U^{(x)legs} by W must produce, for every
unitary U, a block-diagonal matrix with one block per staircase of the form
Q(U) (x) Id over (GT, path) indices; conjugating a walled-Brauer-diagram
operator must produce Id (x) P(diagram) blocks.  The verify_* functions
measure the largest entry that departs from this structure, at every size:
M = W A W^dagger is formed one label column block M[:, block] at a time, so
no D x D complex matrix is held.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import scipy.sparse

from . import brauer
from .bratteli import DEFAULT_CAP, check_cap, parse_factor_order, row_labels, row_layout
from .cg import cg_transform
from .gelfand import pattern_weights
from .staircase import Staircase, dim


@dataclass(frozen=True, eq=False)
class SchurTransform:
    """The unitary W with one (staircase, GT index, path index) label per row.

    The transform owns matrix and makes it read-only; a view of another
    array is copied first, so no other array can change W.  The values
    derived from W are cached properties, computed once per transform.
    Transforms compare and hash by identity.
    """

    n: int
    m: int
    d: int
    factor_order: str
    matrix: np.ndarray
    # vertex sequence of the tower path behind each multiplicity label
    path_of: dict[tuple[Staircase, int], tuple[Staircase, ...]] = field(
        default=None, repr=False)

    def __post_init__(self):
        matrix = self.matrix
        if matrix.shape != (self.d ** (self.n + self.m),) * 2:
            raise ValueError(f"a {matrix.shape} matrix does not fit {(self.n, self.m, self.d)}")
        if matrix.base is not None:
            matrix = matrix.copy()
            object.__setattr__(self, "matrix", matrix)
        matrix.setflags(write=False)

    @property
    def size(self) -> int:
        return self.matrix.shape[0]

    @property
    def layout(self) -> tuple[tuple[Staircase, int, int, int], ...]:
        """(gamma, start, dim, mult) of each label block: row_layout(n, m, d)."""
        return row_layout(self.n, self.m, self.d)

    @cached_property
    def basis(self) -> list[tuple[Staircase, int, int]]:
        """(staircase, GT index, path index) of every row, in row order."""
        return row_labels(self.n, self.m, self.d)

    @cached_property
    def sectors(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        return weight_sectors(self)

    @cached_property
    def split(self) -> _SectorSplit:
        """matrix split into its weight sector blocks, for products against W."""
        return _SectorSplit(self)

    def row_index(self, gamma: Staircase, q: int, p: int) -> int:
        for g, start, dg, mg in self.layout:
            if g == tuple(gamma) and q in range(dg) and p in range(mg):
                return start + p * dg + q
        raise ValueError(f"no basis label ({gamma}, q={q}, p={p})")

    def census(self) -> list[tuple[Staircase, int, int]]:
        """(gamma, dim, mult) of each label block, in row order."""
        return [(g, dg, mg) for g, _, dg, mg in self.layout]

    def unitarity_residual(self) -> float:
        """Upper bound on max |W W^dagger - I|, exact when W conserves weight.

        For every weight sector, max |B B^dagger - I| over its diagonal block B
        (rows and columns of that weight) is computed exactly.  The entries E
        of each row outside its sector's columns add the Cauchy-Schwarz bound
        2 max_a ||B_a|| max_a ||E_a|| + max_a ||E_a||^2 (norms of row a of B
        and of E), which covers every other contribution to W W^dagger.  For a
        correct W, E is exactly zero and the result is the true max entry.
        B and E are the blocks and the off-sector part of W.split.
        """
        split = self.split
        exact = b_max = e_max = 0.0
        for rows, B in zip(split.rows, split.blocks):
            if len(rows):
                exact = max(exact, float(np.abs(B @ B.conj().T - np.eye(len(rows))).max()))
                b_max = max(b_max, float(np.linalg.norm(B, axis=1).max()))
        if split.off is not None:
            e_max = float(np.sqrt(abs(split.off).power(2).sum(axis=1).max()))
        return exact + 2 * b_max * e_max + e_max ** 2


def build_mixed_schur(n: int, m: int, d: int, factor_order: str | None = None,
                      cap: int = DEFAULT_CAP) -> SchurTransform:
    """Cascade CG transforms into the full mixed Schur transform.

    factor_order is a string over '+' (defining leg) and '-' (dual leg) giving
    the kind of each tensor factor in order; default is all '+' then all '-'.
    """
    if n < 0 or m < 0 or d < 1:
        raise ValueError("need n, m >= 0 and d >= 1")
    check_cap(d, n + m, cap)
    size = d ** (n + m)
    order = "+" * n + "-" * m if factor_order is None else parse_factor_order(factor_order, n, m)

    # segments: vertex path -> transposed block of W, one column per GT pattern
    # of the endpoint.  Transposed, the blocks of a leg come out of one GEMM in
    # place, and W is transposed back once at the end instead of once per leg.
    zero = (0,) * d
    segments: list[tuple[tuple[Staircase, ...], np.ndarray]] = [
        ((zero,), np.ones((1, 1)))]
    for kind in order:
        grouped: dict[Staircase, list[int]] = {}
        for idx, (path, _) in enumerate(segments):
            grouped.setdefault(path[-1], []).append(idx)
        new_segments = []
        for g, idxs in grouped.items():
            t = cg_transform("defining" if kind == "+" else "dual", g)
            cg, r = t.matrix, t.matrix.shape[0]
            # one GEMM over all segments: ((s, n), q) @ (q, (i, r)) -> (s, (n, i), r);
            # stored entry (row, q * d + i) lands at flat index (q * d + i) * r + row
            cg_q_ir = np.zeros((dim(g), d * r))
            cg_q_ir.ravel()[cg.indices * r + cg.entry_rows()] = cg.data
            stack = np.concatenate([segments[i][1] for i in idxs])
            out = (stack @ cg_q_ir).reshape(len(idxs), -1, r)
            for target, off, sz in t.output_blocks:
                for a, i in enumerate(idxs):
                    path = segments[i][0]
                    new_segments.append((path + (target,), out[a, :, off:off + sz]))
        segments = new_segments

    # sorted, the segments are the (gamma, p) label blocks, p in path order
    segments.sort(key=lambda s: (s[0][-1], s[0]))
    slots = [(g, p, start + p * dg) for g, start, dg, mg in row_layout(n, m, d) for p in range(mg)]
    if [g for g, _, _ in slots] != [path[-1] for path, _ in segments]:
        raise RuntimeError(f"cascade segments do not follow row_layout{(n, m, d)}")
    # filled block by block: np.vstack of the transposed views would return
    # W in Fortran order, which slows every row-wise consumer
    W = np.empty((size, size))
    path_of: dict[tuple[Staircase, int], tuple[Staircase, ...]] = {}
    for (g, p, row), (path, block) in zip(slots, segments):
        path_of[(g, p)] = path
        W[row:row + block.shape[1]] = block.T
    return SchurTransform(n=n, m=m, d=d, factor_order=order, matrix=W, path_of=path_of)


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


def apply_legs(X: np.ndarray, factors: list[np.ndarray], *,
               work: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """Compute (factor_1 (x) ... (x) factor_k) @ X without forming the kron.

    Legs are fused into groups of roughly sqrt(row-count) and each group is
    applied slab by slab as contiguous GEMMs, so no transposed copies of the
    big array are ever made.  work is two flat complex arrays of at least
    X.size entries each; the result is a view of one of them.
    """
    if not factors:
        return X.copy()
    rows = int(np.prod([f.shape[0] for f in factors]))
    groups = _factor_groups(factors, target=max(16, int(np.sqrt(rows))))
    ncols = X.shape[1]
    Y, buf = (w[:rows * ncols] for w in work)
    # X is cast to complex and laid out in C order 32 columns at a time: a
    # transposed view, the usual X, is then read in cache-sized strips, which
    # takes a third of the time of one whole-array assignment at D = 4096
    Yv = Y.reshape(rows, ncols)
    for c in range(0, ncols, 32):
        Yv[:, c:c + 32] = X[:, c:c + 32]
    lead = 1
    for g in groups:
        a = g.shape[0]
        tail = rows // (lead * a) * ncols
        src = Y.reshape(lead, a, tail)
        dst = buf.reshape(lead, a, tail)
        for i in range(lead):
            np.matmul(g, src[i], out=dst[i])
        Y, buf = buf, Y
        lead *= a
    return Y.reshape(X.shape[0], ncols)


def mixed_tensor_factors(U: np.ndarray, order: str) -> list[np.ndarray]:
    return [U if k == "+" else U.conj() for k in order]


@dataclass
class BlockDiagReport:
    off_block_residual: float
    structure_residual: float
    blocks: dict[Staircase, np.ndarray]


def _fit_block(B: np.ndarray, dg: int, mg: int, extract: str):
    """(X, fit) for one diagonal label block B, see block_fits."""
    cube = B.reshape(mg, dg, mg, dg)
    if extract == "irrep":
        X = np.einsum("pqpr->qr", cube) / mg
        fit = np.einsum("pr,qs->pqrs", np.eye(mg), X)
    else:
        X = np.einsum("pqrq->pr", cube) / dg
        fit = np.einsum("pr,qs->pqrs", X, np.eye(dg))
    return X, fit.reshape(dg * mg, dg * mg)


def block_fits(W: SchurTransform, M: np.ndarray, extract: str):
    """Yield (gamma, slice, X, fit) for each label block of M = W A W^dagger.

    With extract="irrep" the block is fitted as Id_mult (x) X over (path, GT)
    indices, X the average of its diagonal path blocks; with extract="mult"
    as X (x) Id_dim, X the partial trace over GT indices divided by dim.
    fit is that block form, of the same shape as M[slice, slice].
    """
    for g, start, dg, mg in W.layout:
        sl = slice(start, start + dg * mg)
        yield (g, sl) + _fit_block(M[sl, sl], dg, mg, extract)


def _structured_residuals(W: SchurTransform, column_block, extract: str) -> BlockDiagReport:
    """Exact max-entry residuals of M = W A W^dagger against its block form.

    column_block(sl) returns the columns M[:, sl] of one label block.  The
    block form is fitted on M[sl, sl] as in block_fits; the structure
    residual is the largest entry of M[sl, sl] minus its fit, and the
    off-block residual the largest entry of M[:, sl] outside rows sl, both
    maximized over the label blocks.  Only one column block of M is held at
    a time, and the caller's block is not modified.
    """
    blocks: dict[Staircase, np.ndarray] = {}
    off_res = struct_res = 0.0
    for g, start, dg, mg in W.layout:
        sl = slice(start, start + dg * mg)
        C = column_block(sl)
        blocks[g], fit = _fit_block(C[sl], dg, mg, extract)
        struct_res = max(struct_res, float(np.abs(C[sl] - fit).max()))
        for rest in (C[:sl.start], C[sl.stop:]):
            if rest.size:
                off_res = max(off_res, float(np.abs(rest).max()))
    return BlockDiagReport(off_res, struct_res, blocks)


def verify_blockdiag(W: SchurTransform, U: np.ndarray) -> BlockDiagReport:
    """Residuals of W (mixed tensor of U) W^dagger against the Q (x) Id block form.

    Column block sl is W times the legs of U applied to W^dagger[:, sl].  One
    pair of buffers, sized for the largest label block, serves every block:
    the legs run in both, and the product goes to the one they leave free.
    """
    factors = mixed_tensor_factors(np.asarray(U, dtype=complex), W.factor_order)
    split = W.split
    entries = W.size * max(dg * mg for _, _, dg, mg in W.layout)
    work = (np.empty(entries, dtype=complex), np.empty(entries, dtype=complex))

    def column_block(sl):
        Y = apply_legs(W.matrix[sl].conj().T, factors, work=work)
        out = work[1] if np.may_share_memory(Y, work[0]) else work[0]
        return split.matmul(Y, out=out[:Y.size].reshape(Y.shape))

    return _structured_residuals(W, column_block, "irrep")


def verify_brauer(W: SchurTransform, sigma: brauer.WalledBrauerDiagram) -> BlockDiagReport:
    """Residuals of W psi(sigma) W^dagger against the Id (x) P block form.

    The diagram action is taken in the same leg order as W.factor_order: the
    diagram's first n columns act on the '+' legs left to right, the last m
    columns on the '-' legs.
    """
    if (sigma.n, sigma.m) != (W.n, W.m):
        raise ValueError("diagram size does not match the transform")
    # a cap that admits W's own shape, d = 1 included
    A = brauer.represent(sigma, W.d, cap=max(DEFAULT_CAP, 2 ** (W.n + W.m), W.size),
                         order=W.factor_order).tocsr()
    split = W.split
    return _structured_residuals(
        W, lambda sl: split.matmul(A @ W.matrix[sl].conj().T), "mult")


def weight_sectors(W: SchurTransform) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Group the rows of W by GT label weight and its columns by computational weight.

    Returns (weights, row_sector, col_sector): weights is the (K, d) array of
    the distinct weights found on either side, row_sector[a] is the index in
    weights of the weight of row a's GT pattern, and col_sector[c] that of
    basis state c, which gains +e_i for value i on a '+' leg and -e_i on a
    '-' leg.  A correct W is zero wherever row_sector[a] != col_sector[c].
    The arrays are read-only; W.sectors keeps them on the transform.
    """
    row_w = np.concatenate([np.tile(pattern_weights(g), (mg, 1))
                            for g, _, _, mg in W.layout])
    col_w = np.zeros((W.size, W.d), dtype=np.int64)
    cols = np.arange(W.size)
    reps = W.size
    for kind in W.factor_order:
        reps //= W.d
        col_w[cols, (cols // reps) % W.d] += 1 if kind == "+" else -1
    weights, sector = np.unique(np.vstack([row_w, col_w]), axis=0, return_inverse=True)
    sector = sector.reshape(-1)
    for a in (weights, sector):
        a.setflags(write=False)
    return weights, sector[:W.size], sector[W.size:]


class _SectorSplit:
    """W.matrix split into its weight sector blocks, for many products against W.

    Sector k holds the dense block W[rows_k, cols_k].  Entries of W outside
    their sector, zero for a built transform, are kept as one sparse matrix,
    so every product equals the dense product for any W.  The split and the
    scan for those entries are made once, here; a product then costs the sum
    of |rows_k| |cols_k| over sectors per column of X, not D^2.  W.split
    keeps the one split of each transform.
    """

    def __init__(self, W: SchurTransform):
        self.matrix = Wm = W.matrix
        weights, row_sector, col_sector = W.sectors
        self.rows, self.cols = (
            np.split(np.argsort(s, kind="stable"),
                     np.cumsum(np.bincount(s, minlength=len(weights)))[:-1])
            for s in (row_sector, col_sector))
        self.blocks = [Wm[np.ix_(r, c)] for r, c in zip(self.rows, self.cols)]
        self.off = None
        # counting is cheaper than locating: scan for off-sector entries only
        # when there are some
        if np.count_nonzero(Wm) > sum(np.count_nonzero(B) for B in self.blocks):
            r, c = np.nonzero(Wm)
            off = row_sector[r] != col_sector[c]
            r, c = r[off], c[off]
            self.off = scipy.sparse.csr_matrix((Wm[r, c], (r, c)), shape=Wm.shape)

    def matmul(self, X: np.ndarray, adjoint: bool = False,
               out: np.ndarray | None = None) -> np.ndarray:
        """W X, or W^dagger X with adjoint=True.

        A real block meets a complex X through the float view of X, so the
        GEMM stays real.  out, a C-contiguous array of the product's shape and
        type, receives the product in place of a new array.
        """
        X = np.ascontiguousarray(X)
        shape = X.shape
        X = X.reshape(shape[0], -1)
        Wm = self.matrix
        if out is None:
            out = np.empty((Wm.shape[1] if adjoint else Wm.shape[0],) + shape[1:],
                           dtype=np.result_type(Wm, X))
        flat = out.reshape(out.shape[0], -1)
        Xv, outv = X, flat
        if not np.iscomplexobj(Wm) and np.iscomplexobj(X):
            Xv, outv = X.view(float), flat.view(float)
        for rows, cols, B in zip(self.rows, self.cols, self.blocks):
            if adjoint:
                outv[cols] = B.conj().T @ Xv[rows]
            else:
                outv[rows] = B @ Xv[cols]
        if self.off is not None:
            flat += (self.off.conj().T if adjoint else self.off) @ X
        return out


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
    exactly 0, so only the off-sector part of W.split is summed.
    """
    from .rand import rng_from_seed

    off = W.split.off
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
        worst = max(worst, float(np.sqrt((mass * gap).sum())))
    return worst


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
    R = W.matrix[start + q:start + dg * mg:dg]  # the rows (g, q, p), p = 0 .. mg - 1
    P_g = R @ (H @ R.T)
    evals, v = np.linalg.eigh((P_g + P_g.conj().T) / 2)
    amp = (v[p_to] * np.exp(-1j * t * evals)) @ v[p_from].conj()
    return float(abs(amp) ** 2)
