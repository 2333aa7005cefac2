import numpy as np
import pytest

from mskit.channels import (ChoiMatrix, apply_direct, choi_of_map,
                            choi_to_schur, example_channel, is_equivariant,
                            m2_success_probability, random_cptp_choi,
                            random_equivariant_choi, teleport_apply, twirl,
                            weyl_operator)
from mskit.rand import random_density, rng_from_seed
from mskit.schur import build_mixed_schur

from refdata import W212, W212_ORDER, row_sign_vector


def identity_choi(d):
    return choi_of_map(lambda rho: rho, 1, 1, d)


def depolarizing_choi(m, n, d):
    dout = d ** n
    return choi_of_map(lambda rho: np.trace(rho) * np.eye(dout) / dout, m, n, d)


def test_choi_shape_validation():
    with pytest.raises(ValueError):
        ChoiMatrix(n_out=1, m_in=1, d=2, matrix=np.eye(3))


def test_identity_choi_properties():
    J = identity_choi(3)
    assert J.trace_preserving_residual() < 1e-14
    assert J.min_eigenvalue() > -1e-14
    assert np.trace(J.matrix) == pytest.approx(1.0)
    rho = random_density(3, rng_from_seed(0))
    assert np.abs(apply_direct(J, rho) - rho).max() < 1e-13


def test_depolarizing_is_equivariant():
    J = depolarizing_choi(1, 1, 3)
    ok, resid = is_equivariant(J)
    assert ok and resid < 1e-14
    rho = random_density(3, rng_from_seed(1))
    assert np.abs(apply_direct(J, rho) - np.eye(3) / 3).max() < 1e-13


def test_nonequivariant_detected():
    X = np.array([[0.0, 1.0], [1.0, 0.0]])
    J = choi_of_map(lambda rho: X @ rho @ X, 1, 1, 2)
    ok, resid = is_equivariant(J)
    assert not ok and resid > 1e-3


def test_a_nan_entry_is_not_equivariant():
    J = example_channel(0.05, -0.02, 0.01, 0.03)
    J.matrix[3, 5] = np.nan
    ok, resid = is_equivariant(J)
    assert ok is False and np.isnan(resid)


def test_apply_direct_dimensions():
    J = identity_choi(2)
    with pytest.raises(ValueError):
        apply_direct(J, np.eye(3))


def test_example_channel_is_equivariant_and_tp():
    rng = rng_from_seed(2)
    for _ in range(3):
        t, u, v, w = 0.1 * rng.standard_normal(4)
        J = example_channel(t, u, v, w)
        assert J.trace_preserving_residual() < 1e-13
        ok, resid = is_equivariant(J)
        assert ok, resid


def test_example_channel_schur_blocks():
    rng = rng_from_seed(3)
    W = build_mixed_schur(2, 1, 2, W212_ORDER)
    signs = row_sign_vector(W.matrix, W212)
    assert signs is not None
    Wf = W212  # sign-fixed reference transform
    for _ in range(5):
        t, u, v, w = 0.05 * rng.standard_normal(4)
        J = example_channel(t, u, v, w)
        M = 8.0 * (Wf @ J.matrix @ Wf.conj().T)
        A = 1 + 6 * u
        B = -2 * np.sqrt(3) * (t + v + 4j * w)
        C = -2 * np.sqrt(3) * (t + v - 4j * w)
        D = 1 - 4 * t - 2 * u + 4 * v
        E = 1 + 2 * t - 2 * u - 2 * v
        expected = np.zeros((8, 8), dtype=complex)
        expected[:4, :4] = np.kron(np.array([[A, B], [C, D]]), np.eye(2))
        expected[4:, 4:] = E * np.eye(4)
        assert np.abs(M - expected).max() < 1e-10


def test_example_channel_matches_formula_on_ground_state():
    # independent evaluation of the defining expression on rho = |0><0|
    t, u, v, w = 0.07, -0.03, 0.11, 0.02
    J = example_channel(t, u, v, w)
    rho = np.array([[1.0, 0.0], [0.0, 0.0]])
    I2 = np.eye(2)
    X = np.array([[0, 1], [1, 0]], dtype=complex)
    Y = np.array([[0, -1j], [1j, 0]])
    Z = np.diag([1.0, -1.0]).astype(complex)
    expected = (np.kron(I2, I2) / 4
                + (t / 2) * (np.kron(X, X) + np.kron(Y, Y) + np.kron(Z, Z)))
    # tr(Z rho) = 1; tr(X rho) = tr(Y rho) = 0
    expected += (u / 2) * np.kron(Z, I2) + (v / 2) * np.kron(I2, Z)
    expected += w * (np.kron(X, Y) - np.kron(Y, X))
    assert np.abs(apply_direct(J, rho) - expected).max() < 1e-12


def test_example_channel_cp_flagging():
    assert example_channel(0, 0, 0, 0).min_eigenvalue() > -1e-14
    assert example_channel(0.9, 0, 0, 0).min_eigenvalue() < -1e-6


def test_choi_to_schur_agrees_with_equivariance_test():
    # block residuals are small exactly when the commutator test passes
    X = np.array([[0.0, 1.0], [1.0, 0.0]])
    J = choi_of_map(lambda rho: np.kron(X @ rho @ X, np.trace(rho) * np.eye(2) / 2),
                    1, 2, 2)
    W = J.schur_transform()
    rep = choi_to_schur(J, W)
    ok, _ = is_equivariant(J)
    assert not ok
    assert max(rep.off_block_residual, rep.structure_residual) > 1e-3
    with pytest.raises(ValueError):
        choi_to_schur(J, build_mixed_schur(2, 1, 2, "++-"))


def test_choi_to_schur_depolarizing():
    J = depolarizing_choi(1, 2, 2)
    W = J.schur_transform()
    rep = choi_to_schur(J, W)
    assert rep.off_block_residual < 1e-12
    assert rep.structure_residual < 1e-12
    for g, X in rep.blocks.items():
        assert np.abs(X - X[0, 0] * np.eye(X.shape[0])).max() < 1e-12


def test_twirl_fixed_point_and_idempotence():
    rng = rng_from_seed(5)
    J = random_cptp_choi(1, 2, 2, rng)
    W = J.schur_transform()
    Jt = twirl(J, W)
    ok, resid = is_equivariant(Jt)
    assert ok and resid < 1e-10
    Jtt = twirl(Jt, W)
    assert np.abs(Jtt.matrix - Jt.matrix).max() < 1e-12
    # twirl preserves trace, PSD, and the TP marginal
    assert np.trace(Jt.matrix) == pytest.approx(np.trace(J.matrix).real)
    assert Jt.min_eigenvalue() > -1e-12
    assert Jt.trace_preserving_residual() < 1e-12
    # equivariant input is untouched
    J2 = twirl(Jt, W)
    assert np.abs(J2.matrix - Jt.matrix).max() < 1e-12
    rep = choi_to_schur(Jt, W)
    assert rep.off_block_residual < 1e-10


def test_weyl_operators():
    assert np.array_equal(weyl_operator(0, 0, 3), np.eye(3))
    X = weyl_operator(1, 0, 2)
    Z = weyl_operator(0, 1, 2)
    assert np.array_equal(X, np.array([[0, 1], [1, 0]]))
    assert np.allclose(Z, np.diag([1, -1]))
    assert np.allclose(weyl_operator(1, 1, 2), X @ Z)
    for d in (2, 3, 5):
        for a in range(d):
            for b in range(d):
                Wab = weyl_operator(a, b, d)
                assert np.abs(Wab @ Wab.conj().T - np.eye(d)).max() < 1e-13


@pytest.mark.parametrize("d", [2, 3, 4])
def test_weyl_one_design(d):
    rho = random_density(d, rng_from_seed(6))
    avg = sum(weyl_operator(a, b, d) @ rho @ weyl_operator(a, b, d).conj().T
              for a in range(d) for b in range(d)) / d ** 2
    assert np.abs(avg - np.eye(d) / d).max() < 1e-13


def test_teleport_identity_channel():
    d = 2
    J = identity_choi(d)
    rho = random_density(d, rng_from_seed(7))
    out, probs = teleport_apply(J, rho)
    assert np.abs(out - rho).max() < 1e-12
    assert np.abs(probs - 1 / d ** 2).max() < 1e-12


@pytest.mark.parametrize("n,m,d", [(1, 1, 2), (2, 1, 2), (1, 1, 3)])
def test_teleport_matches_direct(n, m, d):
    rng = rng_from_seed(8)
    W = build_mixed_schur(n, m, d, "-" * m + "+" * n)
    for _ in range(3):
        J = random_equivariant_choi(m, n, d, rng, W)
        rho = random_density(d, rng)
        out, probs = teleport_apply(J, rho)
        want = apply_direct(J, rho)
        assert np.abs(out - want).max() < 1e-8
        assert np.abs(probs - 1 / d ** 2).max() < 1e-10


def test_teleport_sampling_mode():
    J = identity_choi(2)
    rho = random_density(2, rng_from_seed(9))
    out, probs = teleport_apply(J, rho, rng_seed=3, sample=True)
    assert np.trace(out).real == pytest.approx(1.0)
    assert np.abs(out - rho).max() < 1e-10  # every branch teleports exactly


def test_teleport_preconditions():
    with pytest.raises(ValueError):
        teleport_apply(depolarizing_choi(2, 1, 2), np.eye(4) / 4)
    X = np.array([[0.0, 1.0], [1.0, 0.0]])
    J = choi_of_map(lambda rho: X @ rho @ X, 1, 1, 2)
    with pytest.raises(ValueError):
        teleport_apply(J, np.eye(2) / 2)


def test_m2_success_probability():
    from fractions import Fraction

    assert m2_success_probability(2) == Fraction(1, 4)
    assert m2_success_probability(3) == Fraction(1, 3)
    assert m2_success_probability(4) == Fraction(3, 8)
    # large-d limit is 1/2
    assert abs(float(m2_success_probability(5000)) - 0.5) < 1e-3
    with pytest.raises(ValueError):
        m2_success_probability(1)


def test_choi_factor_order_is_dual_legs_first():
    J = random_cptp_choi(2, 1, 2, rng_from_seed(3))
    assert J.factor_order == "--+"
    assert J.schur_transform().factor_order == J.factor_order


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_example_channel_rejects_non_finite_parameters(bad):
    for k in range(4):
        params = [0.05, 0.01, 0.0, 0.0]
        params[k] = bad
        with pytest.raises(ValueError, match="finite"):
            example_channel(*params)
