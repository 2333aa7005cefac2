"""Unitary-equivariant channel toolkit built on the mixed Schur transform.

A channel N from m qudits to n qudits is stored through its Choi matrix

    J = (id (x) N)(|Omega><Omega|^{(x)m}),   |Omega> the normalized EPR pair,

a PSD matrix on (input-dual registers) (x) (output registers), trace one for
trace-preserving N, with partial trace over the output equal to Id / d^m.
The channel acts by N(rho) = Tr_in[(d^m J) (rho^T (x) Id)].

N is unitary-equivariant iff J commutes with conj(U)^{(x)m} (x) U^{(x)n} for
every unitary U.  is_equivariant decides this exactly from the Lie algebra:
U(d) is connected, so commuting with the group is commuting with gl(d).  The
diagonal part of gl(d) acts on a basis state by its computational weight, so
J must vanish wherever the row and column weights differ; the rest is
commuting with the 2(d-1) Chevalley generators E_{i,i+1}, E_{i+1,i}, and
that is checked on the weight-conserving part J0 alone, a few percent of J,
as sparse products.  The residual is max(off-weight |J|, on-weight
commutator), within a factor 1 + 2N (N = n + m legs) of the largest
commutator of the generators with the whole J.

In the Schur basis of that mixed tensor product (dual legs first) an
equivariant J is block diagonal with blocks Id (x) X_gamma over (GT, path)
indices.  twirl projects any Choi matrix onto that commutant, preserving
complete positivity and the trace-preserving marginal.  The GT basis
conserves weight, so W is block diagonal by weight sector, and twirl and
choi_to_schur meet W only through weight sector products, never through a
dense D x D product.

teleport_apply simulates the measure-and-correct implementation of an
equivariant channel with one input qudit: a Bell-type POVM built from the d^2
Weyl operators is measured across the input state and the input half of the
Choi state, and the matching inverse Weyl correction is applied on every
output qudit.  Equivariance makes each outcome branch reproduce N(rho)/d^2
exactly, so outcomes are uniform and the average output is exactly N(rho).
The measurement never forms the joint state rho (x) J: projecting onto the
outcome (a, b) contracts rho to K_ab = W_ab rho W_ab^dagger / d on the Choi
input leg, so all d^2 branches come from one pass over J, one GEMM of the
stacked K_ab per slab of output rows, and the correction, a monomial
operator, is a permutation of the output indices times a phase applied in
place.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

import numpy as np
import scipy.sparse

from ._arrays import ranges, readonly
from .bratteli import DEFAULT_CAP
from .rand import rng_from_seed
from .schur import (BlockDiagReport, SchurTransform, _sector_layout, _structured_residuals,
                    build_mixed_schur)

# Entries of J in one row chunk of is_equivariant's off-weight pass, and in one
# slab of _teleport_branches: 512 KB of complex data, small enough for cache.
_CHUNK_ENTRIES = 1 << 15


@dataclass
class ChoiMatrix:
    n_out: int
    m_in: int
    d: int
    matrix: np.ndarray  # dimension d**(m_in + n_out), input-dual legs first

    def __post_init__(self):
        size = self.d ** (self.m_in + self.n_out)
        if self.matrix.shape != (size, size):
            raise ValueError(f"Choi matrix must be {size} x {size}, "
                             f"got {self.matrix.shape}")

    @property
    def size(self) -> int:
        return self.matrix.shape[0]

    @property
    def factor_order(self) -> str:
        """The Choi register order as legs: m dual, then n defining."""
        return "-" * self.m_in + "+" * self.n_out

    def schur_transform(self, cap: int = DEFAULT_CAP) -> SchurTransform:
        """Transform matching the Choi register order."""
        return build_mixed_schur(self.n_out, self.m_in, self.d, self.factor_order, cap=cap)

    def trace_preserving_residual(self) -> float:
        din, dout = self.d ** self.m_in, self.d ** self.n_out
        marg = np.trace(self.matrix.reshape(din, dout, din, dout),
                        axis1=1, axis2=3)
        return float(np.abs(marg - np.eye(din) / din).max())

    def min_eigenvalue(self) -> float:
        return float(np.linalg.eigvalsh((self.matrix + self.matrix.conj().T) / 2).min())


def choi_of_map(apply_map, m_in: int, n_out: int, d: int) -> ChoiMatrix:
    """Choi matrix of rho -> apply_map(rho) evaluated on matrix units."""
    din, dout = d ** m_in, d ** n_out
    J = np.zeros((din * dout, din * dout), dtype=complex)
    for i in range(din):
        for j in range(din):
            E = np.zeros((din, din), dtype=complex)
            E[i, j] = 1.0
            out = np.asarray(apply_map(E), dtype=complex)
            J += np.kron(np.outer(_unit(din, i), _unit(din, j).conj()), out)
    return ChoiMatrix(n_out=n_out, m_in=m_in, d=d, matrix=J / din)


def _unit(dim: int, k: int) -> np.ndarray:
    v = np.zeros(dim)
    v[k] = 1.0
    return v


def apply_direct(J: ChoiMatrix, rho: np.ndarray) -> np.ndarray:
    """N(rho) = Tr_in[(d^m J)(rho^T (x) Id)]."""
    din, dout = J.d ** J.m_in, J.d ** J.n_out
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (din, din):
        raise ValueError(f"input state must be {din} x {din}, got {rho.shape}")
    Jt = (din * J.matrix).reshape(din, dout, din, dout)
    return np.einsum("aibj,ab->ij", Jt, rho)


class _EquivariancePlan(NamedTuple):
    """The on-weight positions of a Choi matrix of one shape, and the actions
    of the Chevalley generators on its legs; every array is read-only.

    Row r of J has its on-weight entries in the columns
    indices[indptr[r]:indptr[r + 1]], in increasing order, and rows holds the
    row of each.
    """

    indptr: np.ndarray
    indices: np.ndarray
    rows: np.ndarray
    generators: tuple[scipy.sparse.csr_matrix, ...]


@functools.cache
def _equivariance_plan(n_out: int, m_in: int, d: int) -> _EquivariancePlan:
    order = "-" * m_in + "+" * n_out
    N, D = len(order), d ** len(order)
    # the states of the weight sector of each row, in increasing order
    (_, _, sector), index = _sector_layout(n_out, m_in, d, order)
    counts = np.array([len(c) for c in index.cols])
    width = counts[sector]
    rows, at = ranges(width, (np.cumsum(counts) - counts)[sector])
    indices = index.col_order[at].astype(np.int32)
    indptr = np.concatenate([[0], np.cumsum(width)]).astype(np.int32)
    # E_ab moves digit b to a on a '+' leg; a '-' leg carries -E_ab^T = -E_ba,
    # which moves digit a to b with the sign flipped
    strides = d ** np.arange(N - 1, -1, -1)
    digits = (np.arange(D)[:, None] // strides) % d
    generators = []
    for i in range(d - 1):
        for a, b in ((i, i + 1), (i + 1, i)):
            to, frm, vals = [], [], []
            for p, kind in enumerate(order):
                src, dst, sign = (b, a, 1.0) if kind == "+" else (a, b, -1.0)
                states = np.flatnonzero(digits[:, p] == src)
                to.append(states + (dst - src) * strides[p])
                frm.append(states)
                vals.append(np.full(len(states), sign))
            G = scipy.sparse.csr_matrix(
                (np.concatenate(vals), (np.concatenate(to), np.concatenate(frm))), shape=(D, D))
            readonly(G.data, G.indices, G.indptr)
            generators.append(G)
    return _EquivariancePlan(*readonly(indptr, indices, rows), tuple(generators))


def is_equivariant(J: ChoiMatrix, tol: float = 1e-10) -> tuple[bool, float]:
    """(ok, worst): worst is max(off-weight |J|, on-weight commutator).

    The mixed tensor representation conj(U)^{(x)m} (x) U^{(x)n} has the Lie
    algebra action X -> sum over legs of X on a '+' leg and -X^T on a '-'
    leg.  J commutes with every U(d) element iff it commutes with that action
    of every X in gl(d), because U(d) is connected and exp of the action is
    the representation.  That holds iff (i) J commutes with the diagonal
    (Cartan) part, which acts on basis state c by its computational weight,
    so J vanishes wherever the row and column weights differ, and (ii) the
    weight-conserving part J0 commutes with the 2(d-1) Chevalley generators
    E_{i,i+1}, E_{i+1,i}, which generate sl(d) under brackets.  So the test
    is exact, with no sampling: one chunked pass over J finds the largest
    off-weight entry, and each commutator G J0 - J0 G is a sparse product on
    the on-weight entries alone, a few percent of J at D = 1024.

    worst cannot fall below the largest commutator of the generators with
    the whole J over 1 + 2N (N = n + m): each generator has at most N unit
    entries per row and column, so the off-weight part moves a commutator
    entry by at most 2N times its largest entry.  The tests find worst
    within that factor of the whole-J commutator both ways.  A NaN anywhere
    makes worst NaN.
    """
    plan = _equivariance_plan(J.n_out, J.m_in, J.d)
    D = J.size
    off = 0.0
    step = max(1, _CHUNK_ENTRIES // D)
    for a in range(0, D, step):
        A = np.abs(J.matrix[a:a + step])
        on = slice(plan.indptr[a], plan.indptr[min(a + step, D)])
        A[plan.rows[on] - a, plan.indices[on]] = 0
        off = np.maximum(off, A.max())
    J0 = scipy.sparse.csr_matrix((J.matrix[plan.rows, plan.indices], plan.indices, plan.indptr),
                                 shape=(D, D))
    worst = off
    for G in plan.generators:
        worst = np.maximum(worst, np.abs((G @ J0 - J0 @ G).data).max(initial=0.0))
    worst = float(worst)
    return worst < tol, worst


def _check_transform(J: ChoiMatrix, W: SchurTransform) -> None:
    if W.size != J.size or (W.n, W.m, W.d) != (J.n_out, J.m_in, J.d):
        raise ValueError("transform does not match the Choi matrix shape")
    if W.factor_order != J.factor_order:
        raise ValueError(f"Choi analysis needs the dual legs first: {J.factor_order!r}")


def choi_to_schur(J: ChoiMatrix, W: SchurTransform) -> BlockDiagReport:
    """Blocks of W J W^dagger; small residuals certify equivariance of J.

    For an equivariant Choi matrix the conjugated matrix vanishes between
    staircase sectors and each sector is Id_{dim} (x) X_gamma over (GT, path)
    indices; the X_gamma are returned.  With K = W J^dagger, one weight
    sector product, each column chunk of W J W^dagger on the columns cols
    is W K[cols]^dagger, another, so W J W^dagger is never held whole.
    """
    _check_transform(J, W)
    # np.conjugate with order="C" transposes and conjugates in one pass
    K = W.matmul(np.conjugate(J.matrix.T, order="C"))
    return _structured_residuals(
        W, lambda cols: W.matmul(np.conjugate(K[cols].T, order="C")), "mult")


def twirl(J: ChoiMatrix, W: SchurTransform) -> ChoiMatrix:
    """Project onto the equivariant commutant: keep Id (x) X per sector.

    X_gamma[p, r] = sum_q (W J W^dagger)[(p, q), (r, q)] / dim(gamma) needs
    only the rows of W J in the sector's label block against the same rows
    of W, and the twirled matrix is W^dagger Z with Z = (X_gamma (x) Id) W on
    each label block.  W J and W^dagger Z are weight sector products, so no
    D x D product against W is formed, and a label block of Z needs only the
    same rows of W J, so Z overwrites W J in place.
    """
    _check_transform(J, W)
    Z = W.matmul(J.matrix)  # W J, overwritten by Z one label block at a time
    for _, start, dg, mg in W.layout:
        sl = slice(start, start + dg * mg)
        Wg = W.take_rows(sl).reshape(mg, -1)  # row p holds the rows (p, q) for all q
        X = Z[sl].reshape(mg, -1) @ Wg.conj().T / dg
        Z[sl] = (X @ Wg).reshape(dg * mg, -1)
    return ChoiMatrix(n_out=J.n_out, m_in=J.m_in, d=J.d,
                      matrix=W.matmul(Z, adjoint=True))


def random_cptp_choi(m_in: int, n_out: int, d: int, rng: np.random.Generator,
                     kraus_rank: int | None = None) -> ChoiMatrix:
    """Choi matrix of a Haar-random isometry channel (Stinespring picture).

    The isometry V maps input i to sum_(o, r) V[(o, r), i] |o>|r> and the
    channel traces out the environment r, so J[(i, o), (j, o')] =
    sum_r V[(o, r), i] conj(V[(o', r), j]) / din: one product Vm Vm^dagger
    with Vm[(i, o), r] = V[(o, r), i].
    """
    din, dout = d ** m_in, d ** n_out
    rank = din * dout if kraus_rank is None else kraus_rank
    g = rng.standard_normal((dout * rank, din)) + 1j * rng.standard_normal((dout * rank, din))
    V, _ = np.linalg.qr(g)  # isometry: columns orthonormal
    Vm = V.reshape(dout, rank, din).transpose(2, 0, 1).reshape(din * dout, rank)
    # A multiply, not a divide, follows the GEMM: on an AVX-512 Xeon, dividing
    # here left the process's later float repr (write_choi) about 30% slower,
    # and the multiply does not.
    return ChoiMatrix(n_out=n_out, m_in=m_in, d=d, matrix=(Vm @ Vm.conj().T) * (1 / din))


def random_equivariant_choi(m_in: int, n_out: int, d: int,
                            rng: np.random.Generator,
                            W: SchurTransform | None = None) -> ChoiMatrix:
    """Twirled random CPTP Choi matrix; passes is_equivariant by construction."""
    J = random_cptp_choi(m_in, n_out, d, rng)
    return twirl(J, J.schur_transform() if W is None else W)


# -- the 1 -> 2 qubit equivariant family ---------------------------------------

_I2 = np.eye(2)
_X = np.array([[0.0, 1.0], [1.0, 0.0]])
_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]])
_Z = np.array([[1.0, 0.0], [0.0, -1.0]])


def _reference_basis_212() -> np.ndarray:
    """Closed-form Schur basis for (n, m, d) = (2, 1, 2), dual leg first.

    The rows of build_mixed_schur(2, 1, 2, "-++") with rows 2, 3 and 7
    negated: the sign convention under which the closed-form block entries
    of :func:`example_channel` hold literally.
    """
    signs = np.array([1, 1, -1, -1, 1, 1, 1, -1])
    return signs[:, None] * build_mixed_schur(2, 1, 2, "-++").take_rows(slice(0, 8))


def example_channel_blocks(t: float, u: float, v: float, w: float,
                           tol: float = 1e-10) -> dict[str, complex]:
    """The five distinct Schur-block entries of the family's Choi matrix.

    Returns {"A", "B", "C", "D", "E"} computed numerically in the reference
    sign convention, after checking the conjugated matrix really has the
    two-block shape to the given tolerance.
    """
    J = example_channel(t, u, v, w)
    ref = _reference_basis_212()
    M = 8.0 * (ref @ J.matrix @ ref.T)
    X = np.array([[M[0, 0], M[0, 2]], [M[2, 0], M[2, 2]]])
    expected = np.zeros((8, 8), dtype=complex)
    expected[:4, :4] = np.kron(X, np.eye(2))
    expected[4:, 4:] = M[4, 4] * np.eye(4)
    if not np.abs(M - expected).max() <= 8 * tol:  # NaN-safe
        raise AssertionError("conjugated Choi matrix lost its block shape")
    return {"A": complex(M[0, 0]), "B": complex(M[0, 2]),
            "C": complex(M[2, 0]), "D": complex(M[2, 2]),
            "E": complex(M[4, 4])}


def example_channel(t: float, u: float, v: float, w: float) -> ChoiMatrix:
    """Four-parameter family of 1 -> 2 qubit equivariant, trace-preserving maps.

    The output for a qubit state rho is
        Id (x) Id / 4
        + (t/2) (XX + YY + ZZ)
        + sum_P tr(P rho) [ (u/2) P (x) Id + (v/2) Id (x) P ]
        + w [ (YZ - ZY) tr(X rho) + (ZX - XZ) tr(Y rho) + (XY - YX) tr(Z rho) ],
    extended linearly in rho (the constant block carries tr(rho)).  The
    parameters are normalized so that in the Schur basis of the Choi matrix
    (dual leg first) the multiplicity blocks are
        (1/8) [[A, B], [C, D]]  and  (1/8) E
    with A = 1 + 6u, B = -2 sqrt(3) (t + v + 4iw), C = conj(B),
    D = 1 - 4t - 2u + 4v, E = 1 + 2t - 2u - 2v.  Complete positivity depends
    on the parameters and is reported, not enforced.
    """
    if not np.all(np.isfinite([t, u, v, w])):
        raise ValueError(f"channel parameters must be finite, got t={t}, u={u}, v={v}, w={w}")
    paulis = (_X, _Y, _Z)

    def channel(rho):
        out = np.trace(rho) * (np.kron(_I2, _I2) / 4
                               + (t / 2) * sum(np.kron(P, P) for P in paulis))
        for P in paulis:
            tp = np.trace(P @ rho)
            out = out + tp * ((u / 2) * np.kron(P, _I2) + (v / 2) * np.kron(_I2, P))
        comms = [np.kron(_Y, _Z) - np.kron(_Z, _Y),
                 np.kron(_Z, _X) - np.kron(_X, _Z),
                 np.kron(_X, _Y) - np.kron(_Y, _X)]
        for P, c in zip(paulis, comms):
            out = out + w * np.trace(P @ rho) * c
        return out

    return choi_of_map(channel, 1, 2, 2)


# -- Weyl operators and teleportation ------------------------------------------

def weyl_operator(a: int, b: int, d: int) -> np.ndarray:
    """W_{a,b} = T^a P^b with T the cyclic shift and P the clock phase."""
    shift = np.roll(np.eye(d), a, axis=0)  # T^a |j> = |j + a mod d>
    clock = np.exp(2j * np.pi * b * np.arange(d) / d)
    return shift * clock[None, :]


def teleport_apply(J: ChoiMatrix, rho: np.ndarray, rng_seed: int | None = None,
                   sample: bool = False,
                   equivariance_tol: float = 1e-8) -> tuple[np.ndarray, np.ndarray]:
    """Implement an equivariant single-input channel by Bell measurement.

    Returns (output state, outcome distribution over the d^2 Weyl labels).
    All measurement branches are evaluated exactly; rng_seed only matters with
    sample=True, which instead returns one sampled branch's corrected state
    (normalized) and the same exact distribution.
    """
    if J.m_in != 1:
        raise ValueError("teleportation implementation needs m_in = 1")
    ok, resid = is_equivariant(J, tol=equivariance_tol)
    if not ok:
        raise ValueError(f"Choi matrix is not equivariant (residual {resid:.2e})")
    d = J.d
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (d, d):
        raise ValueError(f"input state must be {d} x {d}")
    branches, probs = _teleport_branches(J, rho)
    if sample:
        rng = rng_from_seed(0 if rng_seed is None else rng_seed)
        k = rng.choice(d * d, p=probs / probs.sum())
        return branches[k] / probs[k], probs
    return branches.sum(axis=0), probs


def _teleport_branches(J: ChoiMatrix, rho: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Corrected output state of each Weyl outcome (a, b), and its probability.

    Projecting the input A and the Choi input leg A' onto
    (Id (x) conj(W_ab)) |Omega> leaves B in sigma_ab = sum_{c,e} K_ab[c, e]
    J[(c, .), (e, .)] with K_ab = W_ab rho W_ab^dagger / d.  All d^2 branches
    come from one pass over J: a slab of output rows i at a time, read from
    J[(c, i), (e, .)] for every c, e, and one GEMM of the stacked K_ab against
    it.  A slab holds at most _CHUNK_ENTRIES entries, so the only D^2-sized
    array is the branches themselves.  The correction (W_ab^dagger)^{(x)n} is
    monomial: it sends |x + a> (a added to every digit mod d) to
    omega^{-b digitsum(x)} |x>, so it is applied in place by indexing sigma
    and scaling by a phase, without a d^n x d^n operator.
    branches[a * d + b] is the corrected state of (a, b).
    """
    d, n = J.d, J.n_out
    dout = d ** n
    J4 = J.matrix.reshape(d, dout, d, dout)
    Ws = (weyl_operator(a, b, d) for a in range(d) for b in range(d))
    K = np.stack([Wab @ rho @ Wab.conj().T / d for Wab in Ws]).reshape(d * d, d * d)
    branches = np.empty((d * d, dout, dout), dtype=complex)
    step = max(1, _CHUNK_ENTRIES // (d * J.size))  # output rows per slab
    for i in range(0, dout, step):
        slab = J4[:, i:i + step].transpose(0, 2, 1, 3).reshape(d * d, -1)  # ((c, e), (i, j))
        branches[:, i:i + step] = (K @ slab).reshape(d * d, -1, dout)
    digits = np.indices((d,) * n).reshape(n, dout)
    strides, digit_sum = d ** np.arange(n - 1, -1, -1), digits.sum(axis=0)
    for a in range(d):
        src = np.ix_(*2 * [((digits + a) % d).T @ strides])
        for b in range(d):
            sigma = branches[a * d + b]
            if a:
                sigma[:] = sigma[src]
            if b:
                phase = np.exp(-2j * np.pi * b * digit_sum / d)
                sigma *= phase[:, None]
                sigma *= phase.conj()
    return branches, np.trace(branches, axis1=1, axis2=2).real


def m2_success_probability(d: int) -> Fraction:
    """Success probability (d-1)/(2d) of the two-input probabilistic POVM.

    For d <= 8, also builds the POVM element
        M = C/(d^2 (d^2-1)) (Id + S(x)S - (S(x)Id + Id(x)S)/d),  C = d^3(d-1)/2,
    with S the swap on each register pair, and verifies ||M|| <= 1 and that
    the acceptance probability on any input equals C/d^4.
    """
    if d < 2:
        raise ValueError("need d >= 2")
    if d > 8:
        return Fraction(d - 1, 2 * d)
    swap = np.zeros((d * d, d * d))
    for i in range(d):
        for j in range(d):
            swap[i * d + j, j * d + i] = 1.0
    eye2 = np.eye(d * d)
    C = Fraction(d ** 3 * (d - 1), 2)
    scale = float(C) / (d ** 2 * (d ** 2 - 1))
    M = scale * (np.kron(eye2, eye2) + np.kron(swap, swap)
                 - (np.kron(swap, eye2) + np.kron(eye2, swap)) / d)
    norm = float(np.linalg.eigvalsh(M).max())
    if norm > 1 + 1e-12:
        raise AssertionError(f"||M|| = {norm} exceeds 1")
    rng = rng_from_seed(17)
    from .rand import random_density

    rho = random_density(d * d, rng)
    prob = float(np.real(np.trace(M @ np.kron(rho, np.eye(d * d) / d ** 2))))
    expected = float(C) / d ** 4
    if abs(prob - expected) > 1e-10:
        raise AssertionError(f"acceptance probability {prob} != C/d^4 = {expected}")
    return Fraction(d - 1, 2 * d)
