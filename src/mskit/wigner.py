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

Evaluation: :func:`reduced_wigner_table` takes P (mu, mu') pairs, one
staircase mu shared by P contents or one mu per content, and evaluates every
j and j' of every pair in one numpy pass (in chunks of 1024 pairs);
the coupling build hands it all pairs of one recursion level at once.  Each
value is the signed square root of a ratio of two integer products; the
products are exact (int64 below 2^53, where float64 holds them exactly;
Python integers for the pairs whose products may pass 2^53), so the only
rounding is one division and one square root, and a pair's value does not
depend on the pairs evaluated with it.  The shifted entries of a staircase
strictly decrease, so s_k - s_j never vanishes; s'_k - s'_{j'} + 1 vanishes
exactly where mu' - e_{j'} is no staircase, an index the mask zeroes.  The
numerator vanishes exactly when the output fails interlacing, which is also
enforced by an explicit mask; where mask and formula disagree the value is
masked to 0 with a RuntimeWarning.  :func:`dual_reduced_wigner` validates
its arguments and reads its value from the same table.

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
# pairs per vectorized pass: bounds the (pairs, d, d, d) temporaries
_CHUNK = 1024


def reduced_wigner_table(mu, contents) -> np.ndarray:
    """T(mu, j, mu', j') for every (mu, mu') pair and every j, j'.

    contents lists P staircases mu' of length d-1; mu is one staircase of
    length d shared by all of them, or P staircases, one per content.  Each
    mu' interlaces its mu (not checked here, see
    :func:`dual_reduced_wigner`).  Entry [p, j - 1, j'] of the returned
    (P, d, d) array is T(mu_p, j, contents[p], j'); entries whose output is
    invalid are 0.
    """
    cont = np.array(contents, dtype=np.int64)
    n = len(cont)
    m = np.array(mu, dtype=np.int64)
    d = m.shape[-1]
    m = np.broadcast_to(m, (n, d))
    cont = cont.reshape(n, d - 1)
    # every factor is at most mu_1 - mu_d + d + 1 in magnitude; the pairs
    # whose products could pass 2^53 (float64's exact integers) are taken in
    # Python integers, whose true division rounds once
    span = m[:, 0] - m[:, -1] + d + 1
    e = max(2 * d - 3, 1)
    wide = np.isin(span, [x for x in np.unique(span).tolist() if x ** e >= 2 ** 53])
    out = np.empty((n, d, d))
    for at, dtype in ((np.flatnonzero(~wide), np.int64), (np.flatnonzero(wide), object)):
        for lo in range(0, len(at), _CHUNK):
            part = at[lo:lo + _CHUNK]
            out[part] = _table(m[part], cont[part], dtype)
    return out


def _table(m: np.ndarray, cont: np.ndarray, dtype) -> np.ndarray:
    """reduced_wigner_table of the pairs (m[p], cont[p]), with the integer
    products taken in dtype."""
    n, d = m.shape
    s = (m - np.arange(1, d + 1)).astype(dtype)
    sp = (cont - np.arange(1, d)).astype(dtype)
    eye = np.eye(d, dtype=bool)
    a = sp[:, None, :] - s[:, :, None]           # [p, j, k] = s'_k - s_j
    b = s[:, None, :] - sp[:, :, None] + 1       # [p, q, k] = s_k - s'_q + 1, q = j' - 1
    num = np.empty((n, d, d), dtype=a.dtype)
    num[:, :, 0] = a.prod(axis=2)
    num[:, :, 1:] = (np.where(eye[:-1, :-1], 1, a[:, :, None, :]).prod(axis=3)
                     * np.where(eye[:, None, :], 1, b[:, None]).prod(axis=3))
    den = np.ones((n, 1, d), dtype=a.dtype)
    # prod_{k != q} (s'_k - s'_q + 1): the k = q factor is 1
    den[:, 0, 1:] = (sp[:, None, :] - sp[:, :, None] + 1).prod(axis=2)
    den = den * (s[:, None, :] - s[:, :, None] + eye).prod(axis=2)[:, :, None]
    # den vanishes exactly where mu' - e_{j'} is no staircase; masked below
    den[den == 0] = 1
    minus = np.tri(d, dtype=bool)  # row j - 1: S(j, j') = -1 where 1 <= j' < j
    minus[:, 0] = False
    value = np.where(minus, -1.0, 1.0) * np.sqrt(np.abs(num / den).astype(float))

    # valid iff nu = mu' - e_{j'} (nu = mu' at j' = 0) interlaces mu - e_j,
    # which also makes both staircases
    target = (m[:, None, :] - np.eye(d, dtype=np.int64))[:, :, None, :]
    nu = cont[:, None, :] - np.eye(d, d - 1, -1, dtype=np.int64)
    nu_ok = (nu[..., :-1] >= nu[..., 1:]).all(axis=2)[:, None, :]
    nu = nu[:, None, :, :]
    valid = ((target[..., :-1] >= nu) & (nu >= target[..., 1:])).all(axis=3)
    stray = ~valid & nu_ok & (np.abs(value) > MASK_FORMULA_TOL)
    if stray.any():
        ia, jj, jp = (int(x[0]) for x in np.nonzero(stray))
        warnings.warn(
            f"reduced Wigner formula gave {value[ia, jj, jp]} on masked index "
            f"(mu={tuple(m[ia].tolist())}, j={jj + 1}, mu'={tuple(cont[ia].tolist())}, "
            f"j'={jp}); masking to 0",
            RuntimeWarning,
        )
    value[~valid] = 0.0
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
