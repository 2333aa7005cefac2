"""Channel constructions against the straightforward dense formulas.

The oracles are the definitions as first written: teleportation branches
contracted from the joint state rho (x) J with the POVM vector of each Weyl
outcome and corrected by the kron of d^n x d^n Weyl operators, the random
Stinespring channel's Choi matrix evaluated on matrix units, twirl and
choi_to_schur from the dense product W J W^dagger, the teleportation branches
as one einsum over J per Weyl outcome, and the equivariance test as
commutators with Haar-random mixed tensor operators and with the Chevalley
generators acting on the whole J.  They share no code
with mskit.channels beyond weyl_operator and choi_of_map, and with the
weight-sector products of mskit.schur only the block extraction.
"""

import numpy as np
import pytest

from mskit.channels import (_CHUNK_ENTRIES, ChoiMatrix, _equivariance_plan,
                            _teleport_branches, choi_of_map, choi_to_schur,
                            example_channel, is_equivariant, random_cptp_choi,
                            random_equivariant_choi, teleport_apply, twirl,
                            weyl_operator)
from mskit.rand import haar_unitary, random_density, rng_from_seed
from mskit.schur import SchurTransform, _structured_residuals, build_mixed_schur

from test_schur import block_phased
from test_schur_oracle import off_weight_copy

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


def einsum_teleport_branches(J, rho):
    """(branches, probs): sigma_ab as one einsum over J per Weyl outcome,
    corrected by indexing and a phase."""
    d, n = J.d, J.n_out
    dout = d ** n
    J4 = J.matrix.reshape(d, dout, d, dout)
    digits = np.indices((d,) * n).reshape(n, dout)
    strides, digit_sum = d ** np.arange(n - 1, -1, -1), digits.sum(axis=0)
    branches, probs = [], np.zeros(d * d)
    for a in range(d):
        src = ((digits + a) % d).T @ strides
        for b in range(d):
            Wab = weyl_operator(a, b, d)
            sigma = np.einsum("ce,ciej->ij", Wab @ rho @ Wab.conj().T / d, J4)
            phase = np.exp(-2j * np.pi * b * digit_sum / d)
            branches.append(phase[:, None] * sigma[np.ix_(src, src)] * phase.conj())
            probs[a * d + b] = np.trace(sigma).real
    return branches, probs


@pytest.mark.parametrize("n,d", [(4, 4), (5, 3)])
def test_teleport_branches_match_einsum_over_chunked_slabs(n, d):
    rng = rng_from_seed(55 + n + d)
    J = random_cptp_choi(1, n, d, rng, kraus_rank=2)
    # the d^n output rows of J take several slabs
    assert d * J.size * d ** n > _CHUNK_ENTRIES
    rho = random_density(d, rng)
    branches, probs = _teleport_branches(J, rho)
    want_branches, want_probs = einsum_teleport_branches(J, rho)
    assert np.abs(probs - want_probs).max() < 1e-13
    assert len(branches) == d * d
    for got, want in zip(branches, want_branches):
        assert np.abs(got - want).max() < 1e-13


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


# -- weight-sector products against the dense formulas --------------------------

def dense_choi_to_schur(J, W):
    M = W.matrix @ J.matrix @ W.matrix.conj().T
    return _structured_residuals(W, lambda sl: M[:, sl], "mult")


def mult_block_fits(W, M):
    """(slice, fit) for each label block of M = W A W^dagger, fitted as
    X (x) Id_dim over (path, GT) indices with X the partial trace over GT
    indices divided by dim."""
    for _, start, dg, mg in W.layout:
        sl = slice(start, start + dg * mg)
        X = np.einsum("pqrq->pr", M[sl, sl].reshape(mg, dg, mg, dg)) / dg
        yield sl, np.kron(X, np.eye(dg))


def dense_twirl(J, W):
    M = W.matrix @ J.matrix @ W.matrix.conj().T
    out = np.zeros_like(M)
    for sl, fit in mult_block_fits(W, M):
        out[sl, sl] = fit
    return W.matrix.conj().T @ out @ W.matrix


def haar_is_equivariant(J, trials=10, tol=1e-10, seed=11):
    """Max entry of [T, J] over Haar-random T = conj(U)^(x)m (x) U^(x)n."""
    rng = rng_from_seed(seed)
    worst = 0.0
    for _ in range(trials):
        U = haar_unitary(J.d, rng)
        T = np.ones((1, 1))
        for kind in "-" * J.m_in + "+" * J.n_out:
            T = np.kron(T, U.conj() if kind == "-" else U)
        worst = max(worst, float(np.abs(T @ J.matrix - J.matrix @ T).max()))
    return worst < tol, worst


# orders -+, -++ and -+++ with D = d^(n_out + 1) <= 1024
CHOI_SHAPES = [(1, 2), (1, 5), (2, 2), (2, 3), (2, 4), (3, 3), (3, 4), (3, 5)]


@pytest.mark.parametrize("n,d", CHOI_SHAPES)
def test_choi_to_schur_and_twirl_match_dense(n, d):
    rng = rng_from_seed(80 + 10 * n + d)
    W = build_mixed_schur(n, 1, d, "-" + "+" * n)
    J = random_cptp_choi(1, n, d, rng)
    twirled = twirl(J, W)
    assert np.abs(twirled.matrix - dense_twirl(J, W)).max() < 1e-12
    # J need not be Hermitian: J + iK fails any shortcut that uses J for J^dagger
    K = rng.standard_normal((W.size, W.size))
    nonherm = ChoiMatrix(n_out=n, m_in=1, d=d, matrix=J.matrix + 1j * K)
    assert np.abs(nonherm.matrix - nonherm.matrix.conj().T).max() > 1e-3
    for Jx in (J, twirled, nonherm):
        rep, want = choi_to_schur(Jx, W), dense_choi_to_schur(Jx, W)
        assert abs(rep.off_block_residual - want.off_block_residual) < 1e-12
        assert abs(rep.structure_residual - want.structure_residual) < 1e-12
        assert rep.blocks.keys() == want.blocks.keys()
        for g, X in want.blocks.items():
            assert np.abs(rep.blocks[g] - X).max() < 1e-12
    # a raw random channel is far from the commutant, its twirl is in it
    assert dense_choi_to_schur(J, W).off_block_residual > 1e-4
    assert dense_choi_to_schur(twirled, W).off_block_residual < 1e-12
    # a complex W with one phase per (gamma, p) block spans the same commutant
    V = block_phased(W, 80 + n + d)
    assert np.abs(twirl(J, V).matrix - dense_twirl(J, V)).max() < 1e-12
    assert np.abs(twirl(J, V).matrix - twirled.matrix).max() < 1e-12
    for Jx in (J, nonherm):
        rep, want = choi_to_schur(Jx, V), dense_choi_to_schur(Jx, V)
        assert abs(rep.off_block_residual - want.off_block_residual) < 1e-12
        assert abs(rep.structure_residual - want.structure_residual) < 1e-12
        for g, X in want.blocks.items():
            assert np.abs(rep.blocks[g] - X).max() < 1e-12


SECTOR_SHAPES = [(1, 1, 2, "-+"), (2, 1, 2, "-++"), (2, 2, 3, "+--+"),
                 (3, 1, 4, "-+++"), (3, 2, 4, "+-+-+"), (5, 5, 2, None)]


def phased(W, phases):
    """W with row a multiplied by phases[a]: complex, same weight sectors."""
    return SchurTransform.from_matrix(W.n, W.m, W.d, W.factor_order, phases[:, None] * W.matrix)


@pytest.mark.parametrize("shape", SECTOR_SHAPES, ids=lambda s: "-".join(map(str, s)))
def test_sector_matmul_matches_dense(shape):
    n, m, d, order = shape
    W = build_mixed_schur(n, m, d, order)
    rng = rng_from_seed(90 + W.size)
    phases = np.exp(1j * rng.uniform(-np.pi, np.pi, W.size))
    variants = {"built": W, "off-sector entry": off_weight_copy(W, 3),
                "complex": phased(W, phases),
                "complex, off-sector entry": off_weight_copy(phased(W, phases), 5)}
    X_real = rng.standard_normal((W.size, 7))
    X_complex = X_real + 1j * rng.standard_normal((W.size, 7))
    for name, V in variants.items():
        for X in (X_real, X_complex, X_complex[:, 0]):
            got, want = V.matmul(X), V.matrix @ X
            assert got.shape == want.shape, name
            assert np.abs(got - want).max() < 1e-13, name
            got = V.matmul(X, adjoint=True)
            assert np.abs(got - V.matrix.conj().T @ X).max() < 1e-13, name


def test_weight_sectors_computed_once_and_read_only():
    W = build_mixed_schur(2, 1, 3, "-++")
    first = W.sectors
    assert W.sectors is first
    for a in first:
        assert not a.flags.writeable
    # the sectors are a function of the shape, computed once per shape: a
    # copy with other entries has the same labels and shares them
    V = off_weight_copy(W, 0)
    assert V.sectors is first
    assert build_mixed_schur(2, 1, 3, "+-+").sectors is not first


# -- the generator test of is_equivariant against Haar commutators ----------------

def block_dephasing_map(rho, d, split):
    """P rho P + Q rho Q for P the projector on levels < split: it commutes
    with U(split) x U(d - split), not with U(d)."""
    P = np.diag((np.arange(d) < split).astype(float))
    Q = np.eye(d) - P
    return P @ rho @ P + Q @ rho @ Q


def block_dephasing_choi(d, split):
    return choi_of_map(lambda rho: block_dephasing_map(rho, d, split), 1, 1, d)


def lie_action_choi(d, a, b):
    """The action of E_ab on the '-+' legs as a (non-Hermitian) Choi matrix.
    E_1d commutes with every raising generator and with no lowering one."""
    E = np.zeros((d, d))
    E[a, b] = 1.0
    return ChoiMatrix(n_out=1, m_in=1, d=d,
                      matrix=np.kron(-E.T, np.eye(d)) + np.kron(np.eye(d), E))


def suite_choi_matrices():
    """(name, Choi matrix): the channels the suite builds, equivariant or not."""
    rng = rng_from_seed(12)
    X = np.array([[0.0, 1.0], [1.0, 0.0]])
    out = [(f"identity d={d}", choi_of_map(lambda rho: rho, 1, 1, d)) for d in (2, 3)]
    for m, n, d in [(1, 1, 3), (1, 2, 2), (2, 1, 2)]:
        dout = d ** n
        out.append((f"depolarizing {m}{n}{d}", choi_of_map(
            lambda rho, dout=dout: np.trace(rho) * np.eye(dout) / dout, m, n, d)))
    out.append(("X conjugation", choi_of_map(lambda rho: X @ rho @ X, 1, 1, 2)))
    out.append(("X conjugation (x) mixed", choi_of_map(
        lambda rho: np.kron(X @ rho @ X, np.trace(rho) * np.eye(2) / 2), 1, 2, 2)))
    for k in range(2):
        out.append((f"example {k}", example_channel(*(0.1 * rng.standard_normal(4)))))
    for m, n, d in [(1, 1, 2), (1, 2, 2), (2, 1, 2), (1, 1, 3), (1, 2, 3), (1, 1, 4)]:
        out.append((f"random {m}{n}{d}", random_cptp_choi(m, n, d, rng)))
        W = build_mixed_schur(n, m, d, "-" * m + "+" * n)
        out.append((f"twirled {m}{n}{d}", random_equivariant_choi(m, n, d, rng, W)))
    # D = 243 and 256 split the rows of J into chunks in is_equivariant
    for m, n, d in [(1, 4, 3), (1, 3, 4)]:
        out.append((f"random {m}{n}{d}", random_cptp_choi(m, n, d, rng, kraus_rank=2)))
        out.append((f"twirled {m}{n}{d}", twirl(out[-1][1], build_mixed_schur(
            n, m, d, "-" * m + "+" * n))))
    out.append(("block dephasing (x) mixed d=3", choi_of_map(
        lambda rho: np.kron(block_dephasing_map(rho, 3, 2), np.trace(rho) * np.eye(27) / 27),
        1, 4, 3)))
    for d in (2, 3, 4):
        out += [(f"block dephasing d={d} split={s}", block_dephasing_choi(d, s))
                for s in range(1, d)]
        out += [(f"E_1{d} action", lie_action_choi(d, 0, d - 1)),
                (f"E_{d}1 action", lie_action_choi(d, d - 1, 0))]
    return out


@pytest.mark.parametrize("J", [pytest.param(J, id=name) for name, J in suite_choi_matrices()])
def test_is_equivariant_agrees_with_haar_commutators(J):
    ok, worst = is_equivariant(J)
    want_ok, want_worst = haar_is_equivariant(J)
    assert ok == want_ok
    if want_ok:
        assert worst < 1e-12
    else:
        assert worst > 1e-3 and want_worst > 1e-3


def chevalley_is_equivariant(J, tol=1e-10):
    """(ok, worst): the max entry of the commutators of the whole J with the
    actions of the 2(d-1) Chevalley generators, each applied by slicing J as
    an array of 2(n+m) legs."""
    d, order = J.d, J.factor_order
    N = len(order)
    T = J.matrix.reshape((d,) * (2 * N))
    worst = 0.0
    for i in range(d - 1):
        for a, b in ((i, i + 1), (i + 1, i)):  # the generator E_ab
            C = np.zeros_like(T)
            for axis in range(2 * N):
                # E_ab J on row legs, -J E_ab on column legs; a '-' leg
                # carries -E_ab^T = -E_ba, which moves the index the other way
                if (order[axis % N] == "+") == (axis < N):
                    src, dst, sign = b, a, 1
                else:
                    src, dst, sign = a, b, -1
                at = (slice(None),) * axis
                C[at + (dst,)] += sign * T[at + (src,)]
            worst = np.maximum(worst, np.abs(C).max())
    return bool(worst < tol), float(worst)


@pytest.mark.parametrize("J", [pytest.param(J, id=name) for name, J in suite_choi_matrices()])
def test_is_equivariant_agrees_with_whole_matrix_commutators(J):
    ok, worst = is_equivariant(J)
    want_ok, want_worst = chevalley_is_equivariant(J)
    assert ok == want_ok
    # each generator has at most N unit entries per row and column, so an
    # off-weight part bounded by worst moves the commutators by 2 N worst
    factor = 1 + 2 * (J.n_out + J.m_in)
    assert want_worst / factor <= worst <= factor * want_worst


def weight_of(state, order, d):
    """Weight of a computational basis state: +e_i for value i on a '+'
    leg, -e_i on a '-' leg, the legs read as base-d digits."""
    w = np.zeros(d, dtype=int)
    for p, kind in enumerate(reversed(order)):
        w[(state // d ** p) % d] += 1 if kind == "+" else -1
    return tuple(w)


def weight_positions(J):
    """(on, off): one on-weight and one off-weight position of J, off the
    diagonal."""
    weights = [weight_of(c, J.factor_order, J.d) for c in range(J.size)]
    pairs = [(r, c) for r in range(J.size) for c in range(J.size) if r != c]
    on = next((r, c) for r, c in pairs if weights[r] == weights[c])
    off = next((r, c) for r, c in pairs if weights[r] != weights[c])
    return on, off


def test_a_small_off_weight_entry_is_not_equivariant():
    rng = rng_from_seed(14)
    J = random_equivariant_choi(1, 3, 3, rng)
    assert is_equivariant(J)[0]
    _, (r, c) = weight_positions(J)
    J.matrix[r, c] += 1e-6
    ok, worst = is_equivariant(J, tol=1e-8)
    assert not ok and abs(worst - 1e-6) < 1e-12
    assert not chevalley_is_equivariant(J, tol=1e-8)[0]


@pytest.mark.parametrize("where", ["on-weight", "off-weight"])
def test_a_nan_on_or_off_weight_is_not_equivariant(where):
    J = random_equivariant_choi(1, 2, 3, rng_from_seed(15))
    on, off = weight_positions(J)
    J.matrix[on if where == "on-weight" else off] = np.nan
    ok, worst = is_equivariant(J)
    assert ok is False and np.isnan(worst)


def test_equivariance_plan_cached_and_read_only():
    plan = _equivariance_plan(2, 1, 3)
    assert _equivariance_plan(2, 1, 3) is plan
    assert len(plan.generators) == 2 * (3 - 1)
    for a in (plan.indptr, plan.indices, plan.rows,
              *(x for G in plan.generators for x in (G.data, G.indices, G.indptr))):
        assert not a.flags.writeable
    # sectors of sizes 1 (six), 2 (three) and 5 (three): 93 on-weight entries
    assert len(plan.rows) == 93 == sum(
        1 for r in range(27) for c in range(27)
        if weight_of(r, "-++", 3) == weight_of(c, "-++", 3))
