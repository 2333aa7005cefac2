"""Reduced Wigner coefficients for tensoring with the dual defining irrep.

These scalars drive the recursive construction of the dual Clebsch-Gordan
transform: they express the U(d) transform in terms of the U(d-1) one.  For a
staircase mu of length d, the coefficient T(mu, j, mu', j') couples

    input:  U(d-1) content mu' (a staircase interlacing mu),
    output: the irrep mu - e_j with U(d-1) content mu' - e_{j'},

where j' = 0 means the content is unchanged (the branch where the new tensor
leg carries the U(d-1)-invariant state |d>).

Closed form, in shifted coordinates s_k = mu_k - k and s'_k = mu'_k - k:

    T(mu, j, mu', 0)  = | prod_{k<d}  (s'_k - s_j) / prod_{k != j} (s_k - s_j) |^(1/2)

    T(mu, j, mu', j') = S(j, j') *
        | prod_{k != j'} (s'_k - s_j) / (s'_k - s'_{j'} + 1)
        * prod_{k != j}  (s_k - s'_{j'} + 1) / (s_k - s_j) |^(1/2)

with sign S(j, j') = +1 if j <= j' and -1 otherwise.

Evaluation: :func:`reduced_wigner_values` takes P quadruples (mu, mu', j, j')
and evaluates them in one numpy pass (in chunks of _CHUNK quadruples), its
work arrays holding the quadruples along their last axis; the coupling
build hands it every coefficient of one recursion level at once, and
:func:`reduced_wigner_table` is the same evaluator over every j and j' of P
(mu, mu') pairs.  Each value is the signed square root of a ratio of two
integer products; the products are exact (int64 below 2^53, where float64
holds them exactly; Python integers for the quadruples whose products may
pass 2^53), so the only rounding is one division and one square root, and
a value does not depend on the quadruples evaluated with it.  The shifted
entries of a staircase strictly decrease, so s_k - s_j never vanishes;
s'_k - s'_{j'} + 1 vanishes exactly where mu' - e_{j'} is no staircase, an
index the mask zeroes.  The numerator vanishes exactly when the output
fails interlacing, which is also enforced by an explicit mask; where mask
and formula disagree the value is masked to 0 with a RuntimeWarning.
:func:`dual_reduced_wigner` validates its arguments and reads its value
from the same table.

Grouped by fixed output content nu, the coefficients form square orthogonal
matrices (see :func:`reduced_wigner_operator`); that orthogonality is what
makes the assembled dual CG transform unitary.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .staircase import Staircase, interlaces, is_valid, validate

MASK_FORMULA_TOL = 1e-14
# (mu, mu', j, j') quadruples per vectorized pass: bounds the (count, d)
# temporaries
_CHUNK = 1 << 14


def reduced_wigner_table(mu, contents) -> np.ndarray:
    """T(mu, j, mu', j') for every (mu, mu') pair and every j, j'.

    contents lists P staircases mu' of length d-1; mu is one staircase of
    length d shared by all of them, or P staircases, one per content.  Each
    mu' interlaces its mu (not checked here, see
    :func:`dual_reduced_wigner`).  Entry [p, j - 1, j'] of the returned
    (P, d, d) array is T(mu_p, j, contents[p], j'); entries whose output is
    invalid are 0.
    """
    m = np.array(mu, dtype=np.int64)
    d = m.shape[-1]
    cont = np.array(contents, dtype=np.int64)
    n = len(cont)
    cont = cont.reshape(n, d - 1)
    p = np.repeat(np.arange(n), d * d)
    j = np.tile(np.repeat(np.arange(1, d + 1), d), n)
    jp = np.tile(np.arange(d), n * d)
    m = np.broadcast_to(m, (n, d)) if m.ndim == 1 else m
    return reduced_wigner_values(m[p], cont[p], j, jp).reshape(n, d, d)


def _exact_limit(e: int) -> int:
    """The least L with L^e >= 2^53."""
    limit = round(2 ** (53 / e))
    while limit ** e < 2 ** 53:
        limit += 1
    while (limit - 1) ** e >= 2 ** 53:
        limit -= 1
    return limit


# _exact_limit(e) for e = 1, ..., 53, at index e - 1; past e = 53 it is 2
_EXACT_LIMIT = tuple(_exact_limit(e) for e in range(1, 54))


def reduced_wigner_values(mu, contents, j, j_prime) -> np.ndarray:
    """T(mu[p], j[p], contents[p], j_prime[p]) for every p.

    mu is a (P, d) array of staircases, contents a (P, d-1) array of
    staircases mu', j (1-based) and j_prime P indices.  Each mu' interlaces
    its mu (not checked here); values whose output is invalid are 0.
    """
    m = np.asarray(mu, dtype=np.int64)
    cont = np.asarray(contents, dtype=np.int64)
    n, d = m.shape
    j = np.asarray(j) - 1
    jp = np.asarray(j_prime)
    # a product has at most 2d - 3 factors, each at most mu_1 - mu_d + d + 1
    # in magnitude; the quadruples whose products could pass 2^53 (float64's
    # exact integers) are taken in Python integers, whose true division
    # rounds once
    e = min(max(2 * d - 3, 1), 53)
    wide = m[:, 0] - m[:, -1] >= _EXACT_LIMIT[e - 1] - d - 1
    if n <= _CHUNK and not wide.any():
        return _values(m, cont, j, jp, np.int64)
    out = np.empty(n)
    for dtype, at in ((np.int64, np.flatnonzero(~wide)), (object, np.flatnonzero(wide))):
        for lo in range(0, len(at), _CHUNK):
            part = at[lo:lo + _CHUNK]
            out[part] = _values(m[part], cont[part], j[part], jp[part], dtype)
    return out


def _values(m: np.ndarray, cont: np.ndarray, j: np.ndarray, jp: np.ndarray,
            dtype) -> np.ndarray:
    """T(m[p], j[p] + 1, cont[p], jp[p]) for every p, with the integer
    products taken in dtype.  The work arrays hold p along their last axis."""
    n, d = m.shape
    k = np.arange(d)[:, None]
    at_j = k == j
    kp = jp - 1  # the k of s'_{j'}
    at_jp = k[:-1] == kp
    # rows s'_1, ..., s'_{d-1}, then s_1, ..., s_d
    v = np.empty((2 * d - 1, n), dtype=dtype)
    v[:d - 1] = cont.T
    v[d - 1:] = m.T
    v -= np.concatenate([k[:-1], k]) + 1
    sp, s = v[:d - 1], v[d - 1:]
    r = np.arange(n)
    s_j = v[d - 1 + j, r]
    q = v[kp, r] - 1  # s'_{j'} - 1, unused at j' = 0
    # numerator: prod_{k != j'} (s'_k - s_j) * prod_{k != j} (s_k - s'_{j'} + 1),
    # the second product absent at j' = 0; denominator: prod_{k != j'}
    # (s'_k - s'_{j'} + 1), whose k = j' factor is 1 and which is absent at
    # j' = 0, and prod_{k != j} (s_k - s_j); the first vanishes exactly where
    # mu' - e_{j'} is no staircase, masked below.  The factors left out are
    # set to 1.
    f = np.empty((2 * d - 1, 2, n), dtype=v.dtype)
    np.subtract(sp, s_j, out=f[:d - 1, 0])
    np.subtract(s, q, out=f[d - 1:, 0])
    np.subtract(sp, q, out=f[:d - 1, 1])
    np.subtract(s, s_j, out=f[d - 1:, 1])
    left_out = np.empty(f.shape, dtype=bool)
    unchanged = jp == 0
    left_out[:d - 1, 0] = at_jp
    np.logical_or(at_j, unchanged, out=left_out[d - 1:, 0])
    left_out[:d - 1, 1] = unchanged
    left_out[d - 1:, 1] = at_j
    np.copyto(f, 1, where=left_out)
    num, den = f.prod(axis=0)
    nu_bad = den == 0  # mu' - e_{j'} is no staircase
    den[nu_bad] = 1
    value = np.sqrt(np.abs(num / den).astype(float, copy=False))
    # S(j, j') = -1 where 1 <= j' < j; at j' = 0, kp < j always holds
    np.negative(value, out=value, where=(kp < j) ^ unchanged)

    # valid iff nu = mu' - e_{j'} (nu = mu' at j' = 0) interlaces mu - e_j,
    # which also makes both staircases
    target = m.T - at_j
    nu = cont.T - at_jp
    invalid = ~(np.concatenate([target[:-1] - nu, nu - target[1:]]) >= 0).all(axis=0)
    stray = invalid & ~nu_bad & (np.abs(value) > MASK_FORMULA_TOL)
    if stray.any():
        p = int(np.flatnonzero(stray)[0])
        warnings.warn(
            f"reduced Wigner formula gave {value[p]} on masked index "
            f"(mu={tuple(m[p].tolist())}, j={int(j[p]) + 1}, mu'={tuple(cont[p].tolist())}, "
            f"j'={int(jp[p])}); masking to 0",
            RuntimeWarning,
        )
    value[invalid] = 0.0
    return value


def dual_reduced_wigner(mu: Staircase, j: int, mu_prime: Staircase, j_prime: int) -> float:
    """T(mu, j, mu', j') as defined in the module docstring.

    j is 1-based in [1, d]; j_prime in [0, d-1].  Returns 0.0 whenever the
    implied output (mu - e_j with content mu' - e_{j'}) is invalid.
    """
    mu = validate(mu)
    d = len(mu)
    if not 1 <= j <= d:
        raise ValueError(f"j = {j} out of range for d = {d}")
    if not 0 <= j_prime <= d - 1:
        raise ValueError(f"j' = {j_prime} out of range for d = {d}")
    if len(mu_prime) != d - 1 or not interlaces(mu_prime, mu):
        raise ValueError(f"{mu_prime} does not interlace {mu}")
    return float(reduced_wigner_table(mu, [tuple(mu_prime)])[0, j - 1, j_prime])


@dataclass(frozen=True)
class ReducedWignerBlock:
    """Orthogonal block of coefficients for one (mu, output content nu) sector.

    Rows are labeled by valid targets j (mu - e_j weakly decreasing and
    interlaced by nu); columns by the admissible input contents: j' = 0 for
    content nu itself, j' >= 1 for content nu + e_{j'}.  The restricted matrix
    is always square and real orthogonal.
    """

    mu: Staircase
    nu: Staircase
    row_targets: tuple[int, ...]
    col_sources: tuple[int, ...]
    matrix: np.ndarray

    def orthogonality_residual(self) -> float:
        g = self.matrix.T @ self.matrix - np.eye(self.matrix.shape[1])
        return float(np.abs(g).max()) if g.size else 0.0


def reduced_wigner_operator(mu: Staircase, nu: Staircase) -> ReducedWignerBlock:
    """Assemble the coefficient block for output U(d-1) content nu."""
    mu = validate(mu)
    nu = tuple(nu)
    d = len(mu)
    if len(nu) != d - 1:
        raise ValueError(f"nu must have length {d - 1}")
    if nu:
        validate(nu)
    rows = []
    for j in range(1, d + 1):
        target = mu[:j - 1] + (mu[j - 1] - 1,) + mu[j:]
        if is_valid(target) and (d == 1 or interlaces(nu, target)):
            rows.append(j)
    cols = []
    if d == 1 or interlaces(nu, mu):
        cols.append(0)
    for jp in range(1, d):
        src = nu[:jp - 1] + (nu[jp - 1] + 1,) + nu[jp:]
        if is_valid(src) and interlaces(src, mu):
            cols.append(jp)
    sources = [nu if jp == 0 else nu[:jp - 1] + (nu[jp - 1] + 1,) + nu[jp:]
               for jp in cols]
    table = reduced_wigner_table(mu, sources)
    mat = table[np.arange(len(cols)), np.array(rows, dtype=int)[:, None] - 1,
                np.array(cols, dtype=int)]
    return ReducedWignerBlock(mu=mu, nu=nu, row_targets=tuple(rows),
                              col_sources=tuple(cols), matrix=mat)


def output_contents(mu: Staircase) -> list[Staircase]:
    """All U(d-1) contents nu reachable from inputs interlacing mu."""
    from .gelfand import interlacing_set
    from .staircase import remove_box_set

    if len(mu) == 1:
        return [()]
    seen = set()
    for mup in interlacing_set(mu):
        seen.add(mup)
        seen.update(remove_box_set(mup))
    return sorted(seen)
