"""Acceptance suite: one criterion per test, one printed pass/fail line each.

Run with -s (or read the captured output) to see the per-criterion lines.
The heavy block-diagonalization battery (criterion 4) covers every
(n, m, d) with 2 <= d <= 8 and d^(n+m) <= 1024 exhaustively, plus
maximal-dimension witnesses at d^(n+m) = 4096; transforms are shared with
the weight battery (criterion 5).
"""

import itertools
import time
from fractions import Fraction

import numpy as np
import pytest
import scipy.linalg

from mskit import bratteli, brauer, channels
from mskit.cli import main as cli_main
from mskit.rand import haar_unitary, random_density, rng_from_seed
from mskit.schur import (build_mixed_schur, mixed_tensor_factors,
                         ptpqp_amplitude, verify_blockdiag, verify_brauer,
                         weight_check)

from refdata import CENSUS_212, CENSUS_223, CENSUS_403, W212, W212_ORDER, \
    row_sign_vector


def report(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num:2d}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


GRID = [(n, m, d)
        for d in range(2, 9)
        for total in range(1, 13)
        for n in range(total + 1)
        for m in [total - n]
        if d ** total <= 1024]
WITNESSES = [(6, 6, 2), (3, 3, 4)]

_transforms = {}


def transform(n, m, d):
    key = (n, m, d)
    if key not in _transforms:
        _transforms[key] = build_mixed_schur(n, m, d)
    return _transforms[key]


def test_criterion_1_census_reproduction():
    worst = 0.0
    for (n, m, d), expected in [((2, 2, 3), CENSUS_223), ((4, 0, 3), CENSUS_403),
                                ((2, 1, 2), CENSUS_212)]:
        t0 = time.time()
        got = {g: (dg, mg) for g, dg, mg in bratteli.census(n, m, d)}
        worst = max(worst, time.time() - t0)
        assert got == expected, (n, m, d)
        assert sum(dg * mg for dg, mg in got.values()) == d ** (n + m)
    report(1, worst < 1.0, f"census values exact, slowest call {worst * 1e3:.1f} ms")


def test_criterion_2_multiplicity_depends_on_d():
    m2 = dict((g, mg) for g, _, mg in bratteli.census(2, 2, 2))[(1, -1)]
    m3 = dict((g, mg) for g, _, mg in bratteli.census(2, 2, 3))[(1, 0, -1)]
    report(2, (m2, m3) == (3, 4),
           f"multiplicity of the box/antibox staircase: {m2} at d=2, {m3} at d=3")


def test_criterion_3_explicit_matrix():
    W = build_mixed_schur(2, 1, 2, W212_ORDER)
    signs = row_sign_vector(W.matrix, W212, atol=1e-10)
    ok = signs is not None
    worst = np.inf
    if ok:
        fixed = signs[:, None] * W.matrix
        worst = float(np.abs(fixed - W212).max())
        rng = rng_from_seed(33)
        pattern_res = 0.0
        blocks = [(0, 2), (2, 2), (4, 4)]
        for _ in range(5):
            U = haar_unitary(2, rng)
            T = np.eye(1, dtype=complex)
            for f in mixed_tensor_factors(U, W212_ORDER):
                T = np.kron(T, f)
            M = fixed @ T @ fixed.conj().T
            for s, width in blocks:
                M[s:s + width, s:s + width] = 0.0
            pattern_res = max(pattern_res, float(np.abs(M).max()))
        ok = worst < 1e-10 and pattern_res < 1e-10
    report(3, ok, "8x8 transform matches the closed form up to row signs "
                  f"(entry dev {worst:.1e}), conjugation is 2+2+4 block diagonal")


def test_criterion_4_blockdiag_battery():
    t0 = time.time()
    worst_u = 0.0
    worst_b = 0.0
    rng = rng_from_seed(2024)
    for (n, m, d) in GRID + WITNESSES:
        W = transform(n, m, d)
        assert W.unitarity_residual() < 1e-10, (n, m, d)
        for _ in range(20):
            rep = verify_blockdiag(W, haar_unitary(d, rng))
            worst_u = max(worst_u, rep.off_block_residual, rep.structure_residual)
        assert worst_u < 1e-10, (n, m, d, worst_u)
    # dual side: every diagram, exhaustively, at desk dimensions
    for (n, m, d) in GRID:
        if n + m > 4 or d > 5:
            continue
        W = transform(n, m, d)
        for sigma in brauer.all_diagrams(n, m):
            rep = verify_brauer(W, sigma)
            worst_b = max(worst_b, rep.off_block_residual, rep.structure_residual)
        assert worst_b < 1e-10, (n, m, d, worst_b)
    # loop-factor homomorphism, exact in integer arithmetic
    for (n, m) in [(1, 1), (2, 1), (1, 2), (2, 2), (3, 1), (1, 3)]:
        diagrams = brauer.all_diagrams(n, m)
        for d in (2, 3):
            mats = {s: brauer.represent(s, d).toarray() for s in diagrams}
            for s1, s2 in itertools.product(diagrams, diagrams):
                s, loops = brauer.compose(s1, s2)
                assert np.array_equal(mats[s1] @ mats[s2],
                                      d ** loops * mats[s]), (n, m, d)
    dt = time.time() - t0
    report(4, worst_u < 1e-10 and worst_b < 1e-10 and dt < 300,
           f"battery over {len(GRID) + len(WITNESSES)} configurations: "
           f"unitary residual {worst_u:.1e}, diagram residual {worst_b:.1e}, "
           f"loop homomorphism exact, runtime {dt:.0f} s")


def test_criterion_5_weight_battery():
    worst = 0.0
    for (n, m, d) in GRID + WITNESSES:
        worst = max(worst, weight_check(transform(n, m, d)))
        assert worst < 1e-10, (n, m, d, worst)
    report(5, worst < 1e-10, f"diagonal phases match GT weights, residual {worst:.1e}")


def test_criterion_6_reduced_wigner_orthogonality():
    from mskit.wigner import output_contents, reduced_wigner_operator
    from test_staircase import all_staircases

    worst = 0.0
    count = 0
    for d in (1, 2, 3, 4):
        for mu in all_staircases(d, -3, 3):
            for nu in output_contents(mu):
                block = reduced_wigner_operator(mu, nu)
                worst = max(worst, block.orthogonality_residual())
                count += 1
    report(6, worst < 1e-12,
           f"{count} coefficient blocks orthogonal, residual {worst:.1e}")


def test_criterion_7_channel_example():
    W = build_mixed_schur(2, 1, 2, W212_ORDER)
    signs = row_sign_vector(W.matrix, W212)
    assert signs is not None
    fixed = signs[:, None] * W.matrix
    rng = rng_from_seed(7)
    worst = 0.0
    for _ in range(5):
        t, u, v, w = 0.08 * rng.standard_normal(4)
        J = channels.example_channel(t, u, v, w)
        M = 8.0 * (fixed @ J.matrix @ fixed.conj().T)
        A = 1 + 6 * u
        B = -2 * np.sqrt(3) * (t + v + 4j * w)
        D = 1 - 4 * t - 2 * u + 4 * v
        E = 1 + 2 * t - 2 * u - 2 * v
        expected = np.zeros((8, 8), dtype=complex)
        expected[:4, :4] = np.kron(np.array([[A, B], [np.conj(B), D]]), np.eye(2))
        expected[4:, 4:] = E * np.eye(4)
        worst = max(worst, float(np.abs(M - expected).max()))
    report(7, worst < 1e-10,
           f"Schur blocks match the closed-form A..E entries, deviation {worst:.1e}")


def test_criterion_8_teleportation():
    rng = rng_from_seed(88)
    worst_out = 0.0
    worst_prob = 0.0
    for (n, m, d) in [(1, 1, 2), (2, 1, 2), (1, 1, 3)]:
        W = build_mixed_schur(n, m, d, "-" * m + "+" * n)
        for _ in range(10):
            J = channels.random_equivariant_choi(m, n, d, rng, W)
            rho = random_density(d, rng)
            out, probs = channels.teleport_apply(J, rho)
            worst_out = max(worst_out,
                            float(np.abs(out - channels.apply_direct(J, rho)).max()))
            worst_prob = max(worst_prob, float(np.abs(probs - 1 / d ** 2).max()))
    report(8, worst_out < 1e-8 and worst_prob < 1e-10,
           f"teleportation equals direct application ({worst_out:.1e}); "
           f"outcomes uniform ({worst_prob:.1e})")


def test_criterion_9_m2_probability():
    ok = channels.m2_success_probability(2) == Fraction(1, 4)
    for d in (2, 3, 4):
        channels.m2_success_probability(d)  # raises if ||M|| > 1 + 1e-12
    report(9, ok, "success probability exactly 1/4 at d=2; POVM norm <= 1 for d=2,3,4")


def test_criterion_10_ptpqp_oracle():
    rng = rng_from_seed(10)
    worst = 0.0
    for (n, m, d) in [(1, 1, 2), (2, 1, 2)]:
        diagrams = brauer.all_diagrams(n, m)
        W = transform(n, m, d)
        labels = bratteli.row_labels(n, m, d)
        for _ in range(5):
            picks = rng.choice(len(diagrams), size=2, replace=False)
            coeffs = rng.standard_normal(2)
            terms = []
            for k, c in zip(picks, coeffs):
                terms.append((c / 2, diagrams[k]))
                terms.append((c / 2, brauer.dagger(diagrams[k])))
            H = sum(c * brauer.represent(s, d).toarray() for c, s in terms)
            t = float(rng.uniform(0.1, 2.0))
            M = W.matrix @ scipy.linalg.expm(-1j * t * H) @ W.matrix.conj().T
            for frm in [labels[0], labels[-1]]:
                for to in [labels[0], labels[len(labels) // 2], labels[-1]]:
                    got = ptpqp_amplitude(n, m, d, terms, t, frm, to)
                    want = abs(M[W.row_index(*to), W.row_index(*frm)]) ** 2
                    worst = max(worst, abs(got - want))
    report(10, worst < 1e-8,
           f"amplitudes match direct matrix exponentials, deviation {worst:.1e}")


def test_criterion_11_cli_determinism(tmp_path, capsys):
    f1, f2 = tmp_path / "a", tmp_path / "b"
    assert cli_main(["schur", "2", "1", "2", "--order", "++-", "--out", str(f1)]) == 0
    assert cli_main(["schur", "2", "1", "2", "--order", "++-", "--out", str(f2)]) == 0
    capsys.readouterr()
    ok = f1.read_bytes() == f2.read_bytes() and f1.stat().st_size > 0
    report(11, ok, "repeated transform builds produce byte-identical files")
