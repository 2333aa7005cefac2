"""Channel constructions against the straightforward dense formulas.

The oracles are the definitions as first written: teleportation branches
contracted from the joint state rho (x) J with the POVM vector of each Weyl
outcome and corrected by the kron of d^n x d^n Weyl operators, and the
random Stinespring channel's Choi matrix evaluated on matrix units.  They
share no code with mskit.channels beyond weyl_operator and choi_of_map.
"""

import numpy as np
import pytest

from mskit.channels import (_teleport_branches, choi_of_map, is_equivariant,
                            random_cptp_choi, random_equivariant_choi,
                            teleport_apply, weyl_operator)
from mskit.rand import random_density, rng_from_seed
from mskit.schur import build_mixed_schur

EPS = np.finfo(float).eps


def povm_vector(a, b, d):
    phi = np.eye(d).reshape(-1) / np.sqrt(d)  # |Omega> on (A, A')
    return (np.kron(np.eye(d), weyl_operator(a, b, d).conj()) @ phi).reshape(d, d)


def kron_teleport(J, rho, rng_seed=None, sample=False):
    """(branches, sigmas, probs, output) from the joint state rho (x) J."""
    d, n = J.d, J.n_out
    dout = d ** n
    joint = np.kron(rho, J.matrix).reshape(d, d, dout, d, d, dout)
    branches, sigmas, probs = [], [], np.zeros(d * d)
    for a in range(d):
        for b in range(d):
            v = povm_vector(a, b, d)
            sigma = np.einsum("ac,acibdj,bd->ij", v.conj(), joint, v)
            corr = weyl_operator(a, b, d).conj().T
            for _ in range(n - 1):
                corr = np.kron(corr, weyl_operator(a, b, d).conj().T)
            sigmas.append(sigma)
            branches.append(corr @ sigma @ corr.conj().T)
            probs[a * d + b] = np.trace(sigma).real
    if sample:
        rng = rng_from_seed(0 if rng_seed is None else rng_seed)
        k = rng.choice(d * d, p=probs / probs.sum())
        return branches, sigmas, probs, branches[k] / probs[k]
    return branches, sigmas, probs, sum(branches)


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_povm_contraction_is_weyl_conjugation(d):
    # <v_ab| rho (x) . |v_ab> over A equals W_ab rho W_ab^dagger / d on A';
    # both sides round (1/sqrt d)^2 differently, so the bound is a few ulps
    rho = random_density(d, rng_from_seed(40 + d))
    for a in range(d):
        for b in range(d):
            v = povm_vector(a, b, d)
            want = np.einsum("ac,ab,bd->cd", v.conj(), rho, v)
            Wab = weyl_operator(a, b, d)
            got = Wab @ rho @ Wab.conj().T / d
            assert np.abs(got - want).max() <= 4 * EPS * np.abs(want).max()


@pytest.mark.parametrize("n,m,d", [(2, 1, 2), (3, 1, 3), (2, 1, 4)])
def test_teleport_branches_match_kron_formula(n, m, d):
    rng = rng_from_seed(50 + n + d)
    W = build_mixed_schur(n, m, d, "-" * m + "+" * n)
    # a channel that is not equivariant has distinct branches, so a branch
    # computed for the wrong (a, b) shows
    for J in [random_cptp_choi(m, n, d, rng)] + [random_equivariant_choi(m, n, d, rng, W)
                                                  for _ in range(2)]:
        rho = random_density(d, rng)
        branches, probs = _teleport_branches(J, rho)
        want_branches, sigmas, want_probs, want_out = kron_teleport(J, rho)
        assert np.abs(probs - want_probs).max() < 1e-12
        for k, (a, b) in enumerate((a, b) for a in range(d) for b in range(d)):
            assert np.abs(branches[k] - want_branches[k]).max() < 1e-12
            # undo the correction to compare the measured branch state itself
            corr = weyl_operator(a, b, d).conj().T
            for _ in range(n - 1):
                corr = np.kron(corr, weyl_operator(a, b, d).conj().T)
            sigma = corr.conj().T @ branches[k] @ corr
            assert np.abs(sigma - sigmas[k]).max() < 1e-12
        if not is_equivariant(J)[0]:
            assert max(np.abs(br - branches[0]).max() for br in branches) > 1e-3
            continue
        out, probs_out = teleport_apply(J, rho)
        assert np.abs(out - want_out).max() < 1e-12
        assert np.array_equal(probs_out, probs)


@pytest.mark.parametrize("n,m,d", [(2, 1, 2), (3, 1, 3), (2, 1, 4)])
def test_teleport_sample_mode_matches_kron_formula(n, m, d):
    rng = rng_from_seed(60 + n + d)
    J = random_equivariant_choi(m, n, d, rng)
    rho = random_density(d, rng)
    for seed in range(6):
        out, probs = teleport_apply(J, rho, rng_seed=seed, sample=True)
        _, _, want_probs, want_out = kron_teleport(J, rho, seed, sample=True)
        assert np.abs(out - want_out).max() < 1e-12
        # every branch of an equivariant channel carries the same state, so the
        # drawn index shows only through the distribution it is drawn from
        draw = lambda p: int(rng_from_seed(seed).choice(d * d, p=p / p.sum()))
        assert draw(probs) == draw(want_probs)


def stinespring_choi(m_in, n_out, d, rng, kraus_rank=None):
    """The channel rho -> Tr_env[V rho V^dagger] evaluated on matrix units."""
    din, dout = d ** m_in, d ** n_out
    rank = din * dout if kraus_rank is None else kraus_rank
    g = rng.standard_normal((dout * rank, din)) + 1j * rng.standard_normal((dout * rank, din))
    V, _ = np.linalg.qr(g)

    def channel(rho):
        big = V @ rho @ V.conj().T
        return np.trace(big.reshape(dout, rank, dout, rank), axis1=1, axis2=3)

    return choi_of_map(channel, m_in, n_out, d)


@pytest.mark.parametrize("m_in,n_out,d,rank", [(1, 2, 2, None), (2, 1, 2, None),
                                               (1, 3, 3, None), (1, 4, 4, 2)])
def test_random_cptp_choi_matches_stinespring_map(m_in, n_out, d, rank):
    J = random_cptp_choi(m_in, n_out, d, rng_from_seed(70), kraus_rank=rank)
    want = stinespring_choi(m_in, n_out, d, rng_from_seed(70), kraus_rank=rank)
    assert (J.m_in, J.n_out, J.d) == (m_in, n_out, d)
    assert np.abs(J.matrix - want.matrix).max() < 16 * EPS
    assert J.trace_preserving_residual() < 1e-13
    assert J.min_eigenvalue() > -1e-13
