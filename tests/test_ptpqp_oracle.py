"""ptpqp_amplitude against the dense matrix exponential.

The oracle forms the D x D Hamiltonian from the dense diagram matrices, moves
the diagram columns onto the legs of the factor order by transposing tensor
axes, and reads |(W expm(-itH) Wt)[to, from]|^2 with scipy.linalg.expm.  It
shares no code with mskit.schur.ptpqp_amplitude beyond the transform and the
diagram matrices.
"""

import numpy as np
import pytest
import scipy.linalg

from mskit import bratteli, brauer
from mskit.rand import rng_from_seed
from mskit.schur import build_mixed_schur, ptpqp_amplitude


def dense_in_order(sigma, d, order):
    """The diagram operator with its first n columns acting on the '+' legs of
    order, left to right, and its last m columns on the '-' legs."""
    N = len(order)
    legs = [k for k, c in enumerate(order) if c == "+"] + \
           [k for k, c in enumerate(order) if c == "-"]
    inv = list(np.argsort(legs))  # leg L carries diagram column inv[L]
    T = brauer.represent(sigma, d, cap=1 << 12).toarray().reshape((d,) * (2 * N))
    return T.transpose(inv + [N + c for c in inv]).reshape(d ** N, d ** N)


def hermitian_terms(rng, n, m, count=2):
    diagrams = brauer.all_diagrams(n, m)
    terms = []
    for k in rng.choice(len(diagrams), size=count, replace=False):
        c = float(rng.standard_normal())
        terms += [(c / 2, diagrams[k]), (c / 2, brauer.dagger(diagrams[k]))]
    return terms


CASES = [(2, 2, 2, None), (2, 2, 2, "+-+-"), (2, 1, 3, "+-+"), (2, 1, 3, "-++"),
         (3, 1, 2, None), (3, 1, 2, "+-++"), (2, 2, 3, "-++-"), (2, 2, 3, None)]


@pytest.mark.parametrize("n,m,d,order", CASES)
def test_amplitudes_match_expm(n, m, d, order):
    rng = rng_from_seed(80 + 10 * n + m + d)
    W = build_mixed_schur(n, m, d, order)
    order = W.factor_order
    for _ in range(2):
        terms = hermitian_terms(rng, n, m)
        t = float(rng.uniform(0.2, 2.0))
        H = sum(c * dense_in_order(s, d, order) for c, s in terms)
        M = W.matrix @ scipy.linalg.expm(-1j * t * H) @ W.matrix.T
        for g, _, dg, mg in W.layout:
            q = int(rng.integers(dg))
            for p_from in range(min(mg, 3)):
                for p_to in range(min(mg, 3)):
                    frm, to = (g, q, p_from), (g, q, p_to)
                    want = abs(M[W.row_index(*to), W.row_index(*frm)]) ** 2
                    got = ptpqp_amplitude(n, m, d, terms, t, frm, to,
                                          factor_order=order)
                    assert abs(got - want) <= 1e-10


@pytest.mark.parametrize("n,m,d,order", CASES)
def test_amplitude_is_exactly_zero_across_gamma_or_q(n, m, d, order):
    rng = rng_from_seed(90 + 10 * n + m + d)
    W = build_mixed_schur(n, m, d, order)
    terms = hermitian_terms(rng, n, m)
    t = 0.9
    H = sum(c * dense_in_order(s, d, W.factor_order) for c, s in terms)
    M = W.matrix @ scipy.linalg.expm(-1j * t * H) @ W.matrix.T
    census = bratteli.census(n, m, d)
    pairs = []
    for (g, dg, mg), (h, _, _) in zip(census, census[1:] + census[:1]):
        if g != h:
            pairs.append(((g, 0, mg - 1), (h, 0, 0)))
        if dg > 1:
            pairs.append(((g, 0, 0), (g, dg - 1, mg - 1)))
    assert pairs
    for frm, to in pairs:
        got = ptpqp_amplitude(n, m, d, terms, t, frm, to, factor_order=W.factor_order)
        assert got == 0.0
        assert abs(M[W.row_index(*to), W.row_index(*frm)]) ** 2 <= 1e-20


def test_nonhermitian_raises_before_any_shortcut():
    # D = 27; the check runs before labels from different sectors return 0
    n, m, d = 2, 1, 3
    W = build_mixed_schur(n, m, d)
    census = bratteli.census(n, m, d)
    (g, _, _), (h, _, _) = census[0], census[-1]
    swap = brauer.from_permutation((1, 0, 2), n, m)
    cycle = brauer.from_permutation((1, 2, 0), n, m)
    for terms in ([(1.0j, swap)], [(0.5, cycle)]):
        for frm, to in [((g, 0, 0), (g, 0, 0)), ((g, 0, 0), (h, 0, 0))]:
            with pytest.raises(ValueError, match="not hermitian"):
                ptpqp_amplitude(n, m, d, terms, 0.5, frm, to)


def test_unknown_labels_raise():
    terms = [(1.0, brauer.identity(2, 1))]
    good = bratteli.row_labels(2, 1, 3)[0]
    for bad in [((9, 9, 9), 0, 0), (good[0], 99, 0), (good[0], 0, 99)]:
        for frm, to in [(bad, good), (good, bad)]:
            with pytest.raises(ValueError, match="no basis label"):
                ptpqp_amplitude(2, 1, 3, terms, 0.5, frm, to)
