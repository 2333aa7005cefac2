import itertools

import numpy as np
import pytest

from mskit.gelfand import interlacing_set
from mskit.staircase import interlaces, is_valid
from mskit.wigner import (dual_reduced_wigner, output_contents,
                          reduced_wigner_operator, reduced_wigner_table)

from test_staircase import all_staircases


def test_base_case():
    for c in (-2, 0, 5):
        assert dual_reduced_wigner((c,), 1, (), 0) == 1.0


def test_weight_forced_values():
    # mu = (2,0), content (2): the only reachable target is (2,-1), so the
    # 1x1 sector forces |T| = 1 at j=2 and 0 at j=1
    assert dual_reduced_wigner((2, 0), 2, (2,), 0) == pytest.approx(1.0)
    assert dual_reduced_wigner((2, 0), 1, (2,), 0) == 0.0


def test_qubit_values():
    # 2x2 sector of mu = (2,0) at output content (1): entries 1/sqrt(3),
    # sqrt(2/3) with an orthogonal column from sources (1) and (2)
    s3 = np.sqrt(3.0)
    assert dual_reduced_wigner((2, 0), 1, (1,), 0) == pytest.approx(1 / s3)
    assert dual_reduced_wigner((2, 0), 2, (1,), 0) == pytest.approx(np.sqrt(2 / 3))
    assert dual_reduced_wigner((2, 0), 1, (2,), 1) == pytest.approx(np.sqrt(2 / 3))
    assert dual_reduced_wigner((2, 0), 2, (2,), 1) == pytest.approx(-1 / s3)


def test_preconditions():
    with pytest.raises(ValueError):
        dual_reduced_wigner((1, 0), 3, (1,), 0)
    with pytest.raises(ValueError):
        dual_reduced_wigner((1, 0), 1, (1,), 2)
    with pytest.raises(ValueError):
        dual_reduced_wigner((1, 0), 1, (5,), 0)


def test_sign_convention():
    # S(j, j') = -1 exactly when j > j' >= 1
    val = dual_reduced_wigner((1, 0), 2, (1,), 1)
    assert val < 0
    val = dual_reduced_wigner((1, 0), 1, (1,), 1)
    assert val > 0


def test_shift_invariance():
    for mu in all_staircases(3, -2, 2)[::3]:
        for mup in _interlacing(mu):
            for j in range(1, 4):
                for jp in range(0, 3):
                    base = dual_reduced_wigner(mu, j, mup, jp)
                    for c in (-2, 3):
                        mu_c = tuple(x + c for x in mu)
                        mup_c = tuple(x + c for x in mup)
                        assert dual_reduced_wigner(mu_c, j, mup_c, jp) == \
                            pytest.approx(base, abs=1e-13)


def _interlacing(mu):
    d = len(mu)
    return [m for m in itertools.product(range(min(mu) , max(mu) + 1), repeat=d - 1)
            if is_valid(m) and interlaces(m, mu)]


def test_zero_exactly_on_masked_indices():
    # the closed form must vanish exactly where validity fails; the mask
    # warns (and zeroes) if the formula disagrees
    import warnings

    with warnings.catch_warnings(record=True) as record:
        warnings.simplefilter("always")
        for mu in all_staircases(3, -2, 2):
            for mup in _interlacing(mu):
                for j in range(1, 4):
                    for jp in range(0, 3):
                        dual_reduced_wigner(mu, j, mup, jp)
    assert not [w for w in record if issubclass(w.category, RuntimeWarning)]


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_block_orthogonality_exhaustive(d):
    worst = 0.0
    for mu in all_staircases(d, -3, 3):
        for nu in output_contents(mu):
            block = reduced_wigner_operator(mu, nu)
            assert block.matrix.shape[0] == block.matrix.shape[1]
            worst = max(worst, block.orthogonality_residual())
    assert worst < 1e-12


def test_block_shapes():
    b = reduced_wigner_operator((1,), ())
    assert b.matrix.shape == (1, 1) and b.matrix[0, 0] == 1.0
    # mu = (2,0), content (2): single target j=2 from the unchanged source
    b = reduced_wigner_operator((2, 0), (2,))
    assert b.row_targets == (2,) and b.col_sources == (0,)
    assert b.matrix[0, 0] == pytest.approx(1.0)
    # mu = (1,0), content (0): both targets reachable, sources (0) and (1)
    b = reduced_wigner_operator((1, 0), (0,))
    assert b.row_targets == (1, 2) and b.col_sources == (0, 1)
    expected = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
    assert np.allclose(b.matrix, expected, atol=1e-14)


def test_table_over_many_pairs_matches_each_pair():
    # more pairs than one vectorized pass takes, wide (Python integer) pairs
    # among them: every pair gets the bits it gets alone
    mus = all_staircases(4, -3, 3) + [(3000, 3000, 0, 0), (2000, 1, 0, 0)]
    pairs = [(mu, c) for mu in mus for c in interlacing_set(mu)[:60]]
    assert len(pairs) > 1024
    table = reduced_wigner_table(*zip(*pairs))
    for p, (mu, c) in enumerate(pairs):
        assert table[p].tobytes() == reduced_wigner_table(mu, [c])[0].tobytes(), (mu, c)
