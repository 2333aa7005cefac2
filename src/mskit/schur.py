"""The mixed Schur transform: cascade assembly, verification, and sampling demos.

build_mixed_schur(n, m, d) produces the unitary W of size d^(n+m) that maps
the computational basis of the mixed tensor power to the labeled basis
|staircase, GT index, path index>.  One Clebsch-Gordan transform is applied
per tensor leg, defining or dual according to factor_order; the sequence of
intermediate staircases seen by each output block is a path in the box
add/remove tower, which fixes the multiplicity label.  Each leg costs one
GEMM per staircase reached so far, over all segments ending there at once,
and makes no transposed copy of its output.

The GT basis conserves weight, so W is block diagonal once rows are grouped
by pattern weight and columns by computational weight (weight_sectors).  Both
checks of W itself work sector by sector: weight_check returns the exact
random-phase Frobenius deviation from a table of squared entries per pair of
weights, and SchurTransform.unitarity_residual is exact inside each sector
and adds a Cauchy-Schwarz bound for entries between sectors, which is zero
for a correct W.

Conjugating the mixed tensor operator U^{(x)legs} by W must produce, for every
unitary U, a block-diagonal matrix with one block per staircase of the form
Q(U) (x) Id over (GT, path) indices; conjugating a walled-Brauer-diagram
operator must produce Id (x) P(diagram) blocks.  The verify_* functions
measure deviations from this structure; for dimensions beyond
DENSE_VERIFY_CUTOFF they return a Frobenius-norm upper bound on the same
max-entry residuals instead of forming the full conjugated matrix.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse

from . import brauer
from .bratteli import DEFAULT_CAP, CapExceeded
from .cg import cg_transform
from .gelfand import enumerate_patterns, pattern_weight
from .staircase import Staircase, dim

DENSE_VERIFY_CUTOFF = 1024


def parse_factor_order(order: str, n: int, m: int) -> str:
    order = order.replace("−", "-")  # tolerate unicode minus
    if sorted(order) != sorted("+" * n + "-" * m):
        raise ValueError(f"factor order {order!r} must contain {n} '+' and {m} '-'")
    return order


@dataclass
class SchurTransform:
    n: int
    m: int
    d: int
    factor_order: str
    matrix: np.ndarray
    basis: list[tuple[Staircase, int, int]]  # (staircase, GT index, path index)
    # vertex sequence of the tower path behind each multiplicity label
    path_of: dict[tuple[Staircase, int], tuple[Staircase, ...]] = field(
        default=None, repr=False)
    _row_of: dict[tuple[Staircase, int, int], int] = field(default=None, repr=False)

    def __post_init__(self):
        if self._row_of is None:
            self._row_of = {lab: k for k, lab in enumerate(self.basis)}

    @property
    def size(self) -> int:
        return self.matrix.shape[0]

    def row_index(self, gamma: Staircase, q: int, p: int) -> int:
        try:
            return self._row_of[(tuple(gamma), q, p)]
        except KeyError:
            raise ValueError(f"no basis label ({gamma}, q={q}, p={p})") from None

    def census(self) -> list[tuple[Staircase, int, int]]:
        """(gamma, dim, mult) pairs recovered from the basis labels."""
        mult: dict[Staircase, int] = {}
        for g, q, p in self.basis:
            mult[g] = max(mult.get(g, 0), p + 1)
        return [(g, dim(g), mult[g]) for g in sorted(mult)]

    def unitarity_residual(self) -> float:
        """Upper bound on max |W Wt - I|, exact when W conserves weight.

        For every weight sector, max |B Bt - I| over its diagonal block B
        (rows and columns of that weight) is computed exactly.  The entries E
        of each row outside its sector's columns add the Cauchy-Schwarz bound
        2 max_a ||B_a|| max_a ||E_a|| + max_a ||E_a||^2 (norms of row a of B
        and of E), which covers every other contribution to W Wt.  For a
        correct W, E is exactly zero and the result is the true max entry.
        """
        W = self.matrix
        _, row_sector, col_sector = weight_sectors(self)
        exact = b_max = e_max = 0.0
        for k in np.unique(row_sector):
            rows = np.flatnonzero(row_sector == k)
            in_k = col_sector == k
            B = W[np.ix_(rows, np.flatnonzero(in_k))]
            E = W[np.ix_(rows, np.flatnonzero(~in_k))]
            exact = max(exact, float(np.abs(B @ B.T - np.eye(len(rows))).max()))
            b_max = max(b_max, float(np.linalg.norm(B, axis=1).max()))
            e_max = max(e_max, float(np.linalg.norm(E, axis=1).max()))
        return exact + 2 * b_max * e_max + e_max ** 2


def build_mixed_schur(n: int, m: int, d: int, factor_order: str | None = None,
                      cap: int = DEFAULT_CAP) -> SchurTransform:
    """Cascade CG transforms into the full mixed Schur transform.

    factor_order is a string over '+' (defining leg) and '-' (dual leg) giving
    the kind of each tensor factor in order; default is all '+' then all '-'.
    """
    if n < 0 or m < 0 or d < 1:
        raise ValueError("need n, m >= 0 and d >= 1")
    size = d ** (n + m)
    if size > cap:
        raise CapExceeded(f"d^(n+m) = {size} exceeds cap {cap}")
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
            r, dg = t.matrix.shape[0], dim(g)
            # one GEMM over all segments: ((s, n), q) @ (q, (i, r)) -> (s, (n, i), r)
            cg_q_ir = t.matrix.reshape(r, dg, d).transpose(1, 2, 0).reshape(dg, d * r)
            stack = np.concatenate([segments[i][1] for i in idxs])
            out = (stack @ cg_q_ir).reshape(len(idxs), -1, r)
            for target, off, sz in t.output_blocks:
                for a, i in enumerate(idxs):
                    path = segments[i][0]
                    new_segments.append((path + (target,), out[a, :, off:off + sz]))
        segments = new_segments

    segments.sort(key=lambda s: (s[0][-1], s[0]))
    basis = []
    # filled block by block: np.vstack of the transposed views would return
    # W in Fortran order, which slows every row-wise consumer
    W = np.empty((size, size))
    path_of: dict[tuple[Staircase, int], tuple[Staircase, ...]] = {}
    mult_seen: dict[Staircase, int] = {}
    for path, block in segments:
        g = path[-1]
        p = mult_seen.get(g, 0)
        mult_seen[g] = p + 1
        path_of[(g, p)] = path
        W[len(basis):len(basis) + block.shape[1]] = block.T
        basis.extend((g, q, p) for q in range(block.shape[1]))
    return SchurTransform(n=n, m=m, d=d, factor_order=order, matrix=W,
                          basis=basis, path_of=path_of)


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

    Legs are fused into groups of roughly sqrt(row-count) and each group is
    applied slab by slab as contiguous GEMMs, so no transposed copies of the
    big array are ever made.
    """
    if not factors:
        return X.copy()
    rows = int(np.prod([f.shape[0] for f in factors]))
    groups = _factor_groups(factors, target=max(16, int(np.sqrt(rows))))
    ncols = X.shape[1]
    Y = X.astype(complex, copy=True).reshape(rows * ncols)
    buf = np.empty_like(Y)
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
    exact: bool  # False when residuals are Frobenius upper bounds


def block_layout(W: SchurTransform) -> list[tuple[Staircase, int, int, int]]:
    """(gamma, offset, dim, mult) for the contiguous label blocks of W."""
    out = []
    start = 0
    for g, dg, mg in W.census():
        out.append((g, start, dg, mg))
        start += dg * mg
    assert start == W.size
    return out


def _structured_residuals(W: SchurTransform, M_or_Y, conjugated: bool,
                          extract: str) -> BlockDiagReport:
    """Shared core of the verification routines.

    With conjugated=True, M_or_Y is the dense conjugated matrix M = W A Wt and
    exact max-entry residuals are reported.  Otherwise M_or_Y is Y = A Wt and
    the report carries || M - expected ||_F, an upper bound on every entry of
    the deviation (unitary invariance of the Frobenius norm).
    """
    layout = block_layout(W)
    blocks: dict[Staircase, np.ndarray] = {}
    if conjugated:
        M = M_or_Y
        off_res = 0.0
        struct_res = 0.0
        for g, start, dg, mg in layout:
            sl = slice(start, start + dg * mg)
            blk = M[sl, sl]
            cube = blk.reshape(mg, dg, mg, dg)
            if extract == "irrep":
                Q = np.einsum("pqpr->qr", cube) / mg
                expected = np.einsum("pr,qs->pqrs", np.eye(mg), Q).reshape(blk.shape)
                blocks[g] = Q
            else:
                P = np.einsum("pqrq->pr", cube) / dg
                expected = np.einsum("pr,qs->pqrs", P, np.eye(dg)).reshape(blk.shape)
                blocks[g] = P
            struct_res = max(struct_res, float(np.abs(blk - expected).max()))
            M[sl, sl] = 0.0
        off_res = float(np.abs(M).max())
        return BlockDiagReport(off_res, struct_res, blocks, exact=True)

    # Frobenius path: || M - expected ||_F == || Y - Wt expected ||_F,
    # accumulated per label-column block without forming M or Z densely.
    # The block averages enter through thin contractions only, so the cost
    # per block is m * d^2 * size instead of (m * d)^2 * size.
    Y = M_or_Y  # A @ W.conj().T, shape (size, size)
    Wm = W.matrix
    size = Wm.shape[0]
    total = 0.0
    for g, start, dg, mg in layout:
        sl = slice(start, start + dg * mg)
        Wb = np.ascontiguousarray(Wm[sl].reshape(mg, dg, size), dtype=complex)
        Yb = np.ascontiguousarray(Y[:, sl]).reshape(size, mg, dg)
        if extract == "irrep":
            Ybt = Yb.transpose(1, 0, 2)  # strided batch view (p, k, r)
            Q = np.matmul(Wb, Ybt).sum(axis=0) / mg
            resid = np.matmul(Wb.transpose(0, 2, 1), Q[None])  # (p, k, r)
            resid -= Ybt
            blocks[g] = Q
        else:
            P = np.einsum("pqk,ksq->ps", Wb, Yb, optimize=True) / dg
            resid = np.einsum("pqk,ps->ksq", Wb, P, optimize=True)
            resid -= Yb
            blocks[g] = P
        total += float(np.vdot(resid, resid).real)
    bound = float(np.sqrt(total))
    return BlockDiagReport(bound, bound, blocks, exact=False)


def verify_blockdiag(W: SchurTransform, U: np.ndarray,
                     method: str = "auto") -> BlockDiagReport:
    """Residuals of W (mixed tensor of U) Wt against the Q (x) Id block form."""
    factors = mixed_tensor_factors(np.asarray(U, dtype=complex), W.factor_order)
    Y = apply_legs(W.matrix.T, factors)  # W real: Wt == W dagger
    if method == "exact" or (method == "auto" and W.size <= DENSE_VERIFY_CUTOFF):
        return _structured_residuals(W, W.matrix @ Y, True, "irrep")
    return _structured_residuals(W, Y, False, "irrep")


def verify_brauer(W: SchurTransform, sigma: brauer.WalledBrauerDiagram,
                  method: str = "auto") -> BlockDiagReport:
    """Residuals of W psi(sigma) Wt against the Id (x) P block form.

    The diagram action is taken in the same leg order as W.factor_order: the
    diagram's first n columns act on the '+' legs left to right, the last m
    columns on the '-' legs.
    """
    if (sigma.n, sigma.m) != (W.n, W.m):
        raise ValueError("diagram size does not match the transform")
    A = brauer.represent(sigma, W.d, cap=max(DEFAULT_CAP, W.size)).tocsr()
    perm = _leg_permutation(W.factor_order)
    if perm is not None:
        P = _tensor_permutation_matrix(perm, W.d)
        A = P @ A @ P.T
    Y = A @ W.matrix.T
    if method == "exact" or (method == "auto" and W.size <= DENSE_VERIFY_CUTOFF):
        return _structured_residuals(W, W.matrix @ Y, True, "mult")
    return _structured_residuals(W, Y, False, "mult")


def _leg_permutation(order: str) -> list[int] | None:
    """Map diagram columns (all '+' then all '-') to the legs of factor_order."""
    n = order.count("+")
    plus = [k for k, c in enumerate(order) if c == "+"]
    minus = [k for k, c in enumerate(order) if c == "-"]
    perm = plus + minus
    return None if perm == list(range(len(order))) else perm


def _tensor_permutation_matrix(perm: list[int], d: int) -> scipy.sparse.csr_matrix:
    """Sparse matrix mapping leg k of the input to leg perm[k] of the output."""
    N = len(perm)
    size = d ** N
    src = np.arange(size)
    digits = [(src // d ** (N - 1 - k)) % d for k in range(N)]
    dst = np.zeros(size, dtype=np.int64)
    for k in range(N):
        dst += digits[k] * d ** (N - 1 - perm[k])
    data = np.ones(size)
    return scipy.sparse.csr_matrix((data, (dst, src)), shape=(size, size))


def weight_sectors(W: SchurTransform) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Group the rows of W by GT label weight and its columns by computational weight.

    Returns (weights, row_sector, col_sector): weights is the (K, d) array of
    the distinct weights found on either side, row_sector[a] is the index in
    weights of the weight of row a's GT pattern, and col_sector[c] that of
    basis state c, which gains +e_i for value i on a '+' leg and -e_i on a
    '-' leg.  A correct W is zero wherever row_sector[a] != col_sector[c].
    """
    patterns = {g: [pattern_weight(pat) for pat in enumerate_patterns(g)]
                for g in {g for g, _, _ in W.basis}}
    row_w = np.array([patterns[g][q] for g, q, _ in W.basis], dtype=np.int64)
    col_w = np.zeros((W.size, W.d), dtype=np.int64)
    cols = np.arange(W.size)
    reps = W.size
    for kind in W.factor_order:
        reps //= W.d
        col_w[cols, (cols // reps) % W.d] += 1 if kind == "+" else -1
    weights, sector = np.unique(np.vstack([row_w, col_w]), axis=0, return_inverse=True)
    sector = sector.reshape(-1)
    return weights, sector[:W.size], sector[W.size:]


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
    trial works on that K x K table.
    """
    from .rand import rng_from_seed

    rng = rng_from_seed(seed)
    weights, row_sector, col_sector = weight_sectors(W)
    K = len(weights)
    mass = np.zeros((K, K))
    for k in np.unique(row_sector):
        col_mass = (np.abs(W.matrix[row_sector == k]) ** 2).sum(axis=0)
        mass[k] = np.bincount(col_sector, weights=col_mass, minlength=K)
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
    vertical flip with conjugate coefficients); otherwise this raises.
    """
    W = build_mixed_schur(n, m, d, factor_order, cap=cap)
    H = np.zeros((W.size, W.size), dtype=complex)
    perm = _leg_permutation(W.factor_order)
    P = _tensor_permutation_matrix(perm, d) if perm is not None else None
    for coeff, sigma in hamiltonian:
        A = brauer.represent(sigma, d, cap=cap).toarray().astype(complex)
        if P is not None:
            A = (P @ (P @ A.T).T)  # P A P^T without densifying P
        H += coeff * A
    herm_defect = float(np.abs(H - H.conj().T).max())
    if herm_defect > 1e-12:
        raise ValueError(f"hamiltonian is not hermitian (defect {herm_defect:.2e}); "
                         "include the flipped diagram with the conjugate coefficient")
    H = (H + H.conj().T) / 2
    evals, evecs = np.linalg.eigh(H)
    expH = (evecs * np.exp(-1j * t * evals)) @ evecs.conj().T
    r_from = W.row_index(*from_label)
    r_to = W.row_index(*to_label)
    amp = W.matrix[r_to] @ expH @ W.matrix[r_from].conj()
    return float(abs(amp) ** 2)
