"""Independent oracle for the coupling transforms.

The raising/lowering action of the gl(d) generators on a GT basis has a
classical closed form in terms of shifted pattern entries.  Building those
generator matrices gives the irrep of every staircase directly, without any
Clebsch-Gordan machinery; a coupling transform is then correct iff it
intertwines the generator action on the product space with the block action
on the targets.  This checks the reduced-Wigner recursion (and the bending
construction) against entirely different formulas.
"""

import functools
import itertools
import json
import pathlib

import numpy as np
import pytest

from mskit.cg import bend, cg_transform, defining_cg, dual_cg
from mskit.gelfand import enumerate_patterns, index_of, interlacing_set, subduce_offsets
from mskit.staircase import add_box_set, dim, interlaces, is_valid, remove_box_set
from mskit.wigner import reduced_wigner_table

from test_staircase import all_staircases


def _shift_entry(pattern, row_len, j, delta):
    rows = [list(r) for r in pattern]
    for r in rows:
        if len(r) == row_len:
            r[j] += delta
    cand = tuple(tuple(r) for r in rows)
    from mskit.gelfand import is_valid_pattern

    return cand if is_valid_pattern(cand) else None


def raising_matrix(gamma, k):
    """Matrix of E_{k,k+1} on the GT basis of gamma (1-based k < d)."""
    pats = enumerate_patterns(gamma)
    dg = dim(gamma)
    M = np.zeros((dg, dg))
    for col, p in enumerate(pats):
        rows = {len(r): r for r in p}
        lk = [rows[k][i] - i - 1 for i in range(k)]
        lk1 = [rows[k + 1][i] - i - 1 for i in range(k + 1)]
        lkm = [rows[k - 1][i] - i - 1 for i in range(k - 1)] if k > 1 else []
        for j in range(k):
            target = _shift_entry(p, k, j, +1)
            if target is None:
                continue
            num = 1.0
            for i in range(k + 1):
                num *= lk1[i] - lk[j]
            for i in range(k - 1):
                num *= lkm[i] - lk[j] - 1
            den = 1.0
            for i in range(k):
                if i != j:
                    den *= (lk[i] - lk[j]) * (lk[i] - lk[j] - 1)
            val = -num / den
            M[index_of(target), col] = np.sqrt(abs(val))
    return M


def lowering_matrix(gamma, k):
    """Matrix of E_{k+1,k} on the GT basis of gamma."""
    pats = enumerate_patterns(gamma)
    dg = dim(gamma)
    M = np.zeros((dg, dg))
    for col, p in enumerate(pats):
        rows = {len(r): r for r in p}
        lk = [rows[k][i] - i - 1 for i in range(k)]
        lk1 = [rows[k + 1][i] - i - 1 for i in range(k + 1)]
        lkm = [rows[k - 1][i] - i - 1 for i in range(k - 1)] if k > 1 else []
        for j in range(k):
            target = _shift_entry(p, k, j, -1)
            if target is None:
                continue
            num = 1.0
            for i in range(k + 1):
                num *= lk1[i] - lk[j] + 1
            for i in range(k - 1):
                num *= lkm[i] - lk[j]
            den = 1.0
            for i in range(k):
                if i != j:
                    den *= (lk[i] - lk[j] + 1) * (lk[i] - lk[j])
            val = -num / den
            M[index_of(target), col] = np.sqrt(abs(val))
    return M


def diagonal_matrix(gamma, k):
    """Matrix of E_{kk} (the weight component k) on the GT basis."""
    from mskit.gelfand import pattern_weight

    pats = enumerate_patterns(gamma)
    return np.diag([pattern_weight(p)[k - 1] for p in pats])


def generator_action(gamma, d):
    """All gl(d) Chevalley generator matrices for the irrep gamma."""
    gens = {}
    for k in range(1, d + 1):
        gens[("h", k)] = diagonal_matrix(gamma, k)
    for k in range(1, d):
        gens[("e", k)] = raising_matrix(gamma, k)
        gens[("f", k)] = lowering_matrix(gamma, k)
    return gens


def defining_generators(d):
    gens = {}
    for k in range(1, d + 1):
        h = np.zeros((d, d))
        h[k - 1, k - 1] = 1.0
        gens[("h", k)] = h
    for k in range(1, d):
        e = np.zeros((d, d))
        e[k - 1, k] = 1.0
        gens[("e", k)] = e
        gens[("f", k)] = e.T
    return gens


def check_generator_algebra(gamma, d):
    """Sanity: the oracle matrices satisfy the gl(d) relations."""
    g = generator_action(gamma, d)
    for k in range(1, d):
        e, f = g[("e", k)], g[("f", k)]
        hk, hk1 = g[("h", k)], g[("h", k + 1)]
        assert np.allclose(e @ f - f @ e, hk - hk1, atol=1e-10)
        assert np.allclose(hk @ e - e @ hk, e, atol=1e-10)
        assert np.allclose(e.T, f, atol=1e-12)


STAIRCASES = {
    2: [(1, 0), (2, 0), (2, -1), (1, -1), (3, 1)],
    3: [(1, 0, 0), (1, 0, -1), (2, 0, -1), (1, 1, -1), (2, 1, 0)],
}


@pytest.mark.parametrize("d", [2, 3])
def test_oracle_satisfies_gl_relations(d):
    for gamma in STAIRCASES[d]:
        check_generator_algebra(gamma, d)


@pytest.mark.parametrize("d", [2, 3])
def test_dual_cg_intertwines_generator_action(d):
    # X acting on Q_mu (x) dual defining is pi(X) (x) 1 + 1 (x) (-X^T);
    # conjugating by the coupling must give the direct sum of target actions
    for mu in STAIRCASES[d]:
        t = dual_cg(mu)
        gmu = generator_action(mu, d)
        gdef = defining_generators(d)
        for key in gmu:
            X = np.kron(gmu[key], np.eye(d)) + np.kron(np.eye(dim(mu)), -gdef[key].T)
            got = t.matrix @ X @ t.matrix.T
            expected = np.zeros_like(got)
            for target, off, size in t.output_blocks:
                expected[off:off + size, off:off + size] = \
                    generator_action(target, d)[key]
            assert np.abs(got - expected).max() < 1e-10, (mu, key)


@pytest.mark.parametrize("d", [2, 3])
def test_defining_cg_intertwines_generator_action(d):
    for lam in STAIRCASES[d]:
        t = defining_cg(lam)
        glam = generator_action(lam, d)
        gdef = defining_generators(d)
        for key in glam:
            X = np.kron(glam[key], np.eye(d)) + np.kron(np.eye(dim(lam)), gdef[key])
            got = t.matrix @ X @ t.matrix.T
            expected = np.zeros_like(got)
            for target, off, size in t.output_blocks:
                expected[off:off + size, off:off + size] = \
                    generator_action(target, d)[key]
            assert np.abs(got - expected).max() < 1e-10, (lam, key)


# -- the dense recursion with scalar coefficients, as the reference for the
# -- sparse triplet builder and the vectorized coefficient table

def _stable_product(factors):
    """Multiply smallest-magnitude first; keeps long products well scaled."""
    out = 1.0
    for f in sorted(factors, key=abs):
        out *= f
    return out


def scalar_reduced_wigner(mu, j, mu_prime, j_prime):
    """T(mu, j, mu', j') from the closed form, one scalar factor at a time."""
    d = len(mu)
    target = mu[:j - 1] + (mu[j - 1] - 1,) + mu[j:]
    if j_prime == 0:
        nu = mu_prime
    else:
        nu = mu_prime[:j_prime - 1] + (mu_prime[j_prime - 1] - 1,) + mu_prime[j_prime:]
        if not is_valid(nu):
            return 0.0
    if not (is_valid(target) and (d == 1 or interlaces(nu, target))):
        return 0.0
    s = [mu[k] - (k + 1) for k in range(d)]
    sp = [mu_prime[k] - (k + 1) for k in range(d - 1)]
    if j_prime == 0:
        factors = [float(sp[k] - s[j - 1]) for k in range(d - 1)]
        factors += [1.0 / (s[k] - s[j - 1]) for k in range(d) if k != j - 1]
        return float(np.sqrt(abs(_stable_product(factors))))
    factors = [(sp[k] - s[j - 1]) / (sp[k] - sp[j_prime - 1] + 1)
               for k in range(d - 1) if k != j_prime - 1]
    factors += [(s[k] - sp[j_prime - 1] + 1) / (s[k] - s[j - 1])
                for k in range(d) if k != j - 1]
    sign = 1.0 if j <= j_prime else -1.0
    return float(sign * np.sqrt(abs(_stable_product(factors))))


def _blocks(targets):
    out, off = [], 0
    for t in targets:
        out.append((t, off, dim(t)))
        off += dim(t)
    return out


@functools.lru_cache(maxsize=None)
def dense_dual(mu):
    """dual_cg(mu).matrix by the dense += recursion over sub-coupling blocks."""
    d = len(mu)
    blocks = _blocks(remove_box_set(mu))
    dmu = dim(mu)
    W = np.zeros((d * dmu, dmu * d))
    if d == 1:
        W[0, 0] = 1.0
        return W
    in_off = subduce_offsets(mu)
    W3 = W.reshape(d * dmu, dmu, d)
    for target, t_off, _ in blocks:
        j = 1 + next(k for k in range(d) if target[k] != mu[k])
        out_off = subduce_offsets(target)
        for mup in interlacing_set(mu):
            dmup = dim(mup)
            if mup in out_off:
                t0 = scalar_reduced_wigner(mu, j, mup, 0)
                if t0 != 0.0:
                    rows = t_off + out_off[mup] + np.arange(dmup)
                    W3[rows, in_off[mup] + np.arange(dmup), d - 1] = t0
            sub = dense_dual(mup)
            for nup, s_off, s_size in _blocks(remove_box_set(mup)):
                if nup not in out_off:
                    continue
                jp = 1 + next(k for k in range(d - 1) if nup[k] != mup[k])
                t = scalar_reduced_wigner(mu, j, mup, jp)
                if t == 0.0:
                    continue
                sb = sub[s_off:s_off + s_size].reshape(s_size, dmup, d - 1)
                r0 = t_off + out_off[nup]
                c0 = in_off[mup]
                W3[r0:r0 + s_size, c0:c0 + dmup, :d - 1] += t * sb
    return W


def dense_defining(lam):
    """defining_cg(lam).matrix by bending the dense dual blocks."""
    d = len(lam)
    dlam = dim(lam)
    rows = []
    for nu, _, dn in _blocks(add_box_set(lam)):
        off = dict((g, o) for g, o, _ in _blocks(remove_box_set(nu)))[lam]
        rows.append(bend(dense_dual(nu)[off:off + dlam], dn, dlam, d))
    return np.vstack(rows)


def _max_diff(a, b):
    assert a.shape == b.shape
    return float(np.abs(a - b).max())


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_couplings_match_dense_reference(d):
    for gamma in all_staircases(d, -2, 2):
        assert _max_diff(dual_cg(gamma).matrix, dense_dual(gamma)) <= 1e-15, gamma
        assert _max_diff(defining_cg(gamma).matrix, dense_defining(gamma)) <= 1e-15, gamma


def pool_irreps(max_size=1000):
    """Ten irreps from the benchmark's coupling pool: per kind, the smallest
    with 5 <= d <= 8 and the largest below max_size for each d."""
    path = pathlib.Path(__file__).resolve().parents[1] / "bench" / "coupling_pool.json"
    pool = json.loads(path.read_text())
    out = []
    for kind in ("dual", "defining"):
        sized = {(dim(tuple(g)) * len(g), tuple(g))
                 for key, gs in pool.items() if key.startswith(kind) for g in gs}
        members = sorted(m for m in sized if 5 <= len(m[1]) <= 8 and m[0] < max_size)
        out.append((kind, members[0][1]))
        for d in range(5, 9):
            out.append((kind, max(m for m in members if len(m[1]) == d)[1]))
    return out


@pytest.mark.parametrize("kind,gamma", pool_irreps())
def test_pool_couplings_match_dense_reference(kind, gamma):
    ref = dense_dual(gamma) if kind == "dual" else dense_defining(gamma)
    assert _max_diff(cg_transform(kind, gamma).matrix, ref) <= 1e-15


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
def test_coefficient_table_matches_scalar_formula(d):
    for mu in all_staircases(d, -2, 2):
        contents = interlacing_set(mu) if d > 1 else ((),)
        table = reduced_wigner_table(mu, contents)
        assert table.shape == (len(contents), d, d)
        for a, mup in enumerate(contents):
            for j in range(1, d + 1):
                for jp in range(d):
                    ref = scalar_reduced_wigner(mu, j, mup, jp)
                    assert abs(table[a, j - 1, jp] - ref) <= 1e-15, (mu, j, mup, jp)


def test_coefficient_table_wide_staircases():
    # factors of up to ~2000 over 13 products overflow int64; the table
    # switches to Python integers there, and already where a product could
    # pass 2^53 (24^13 ~ 2^59.6 for the last staircase)
    for mu, contents in [((1000, 0, 0, 0, 0, 0, 0, -1000),
                          [(1000, 0, 0, 0, 0, 0, -1000), (3, 0, 0, 0, 0, 0, -7)]),
                         ((40, 30, 20, 10, 0, -10, -20, -30),
                          [(35, 25, 15, 5, -5, -15, -25)]),
                         ((10, 5, 3, 2, 1, 0, -1, -5),
                          [(7, 4, 2, 1, 0, -1, -3), (10, 3, 2, 1, 0, 0, -5)])]:
        table = reduced_wigner_table(mu, contents)
        for a, mup in enumerate(contents):
            for j in range(1, 9):
                for jp in range(8):
                    ref = scalar_reduced_wigner(mu, j, mup, jp)
                    assert abs(table[a, j - 1, jp] - ref) <= 1e-15, (mu, j, mup, jp)
