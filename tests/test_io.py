import io

import numpy as np
import pytest

from mskit.bratteli import CapExceeded
from mskit.channels import example_channel
from mskit.io import (dumps, read_choi, read_matrix, read_schur, write_choi,
                      write_matrix, write_schur)
from mskit.rand import random_density, rng_from_seed
from mskit.schur import build_mixed_schur


def test_schur_round_trip():
    W = build_mixed_schur(2, 1, 2, "++-")
    text = dumps(write_schur, W)
    W2 = read_schur(io.StringIO(text))
    assert (W2.n, W2.m, W2.d, W2.factor_order) == (2, 1, 2, "++-")
    assert W2.basis == W.basis
    assert np.array_equal(W2.matrix, W.matrix)


def test_schur_files_are_deterministic():
    a = dumps(write_schur, build_mixed_schur(2, 1, 2, "++-"))
    from mskit.cg import clear_cache

    clear_cache()
    b = dumps(write_schur, build_mixed_schur(2, 1, 2, "++-"))
    assert a == b


def test_schur_header():
    text = dumps(write_schur, build_mixed_schur(1, 1, 2))
    lines = text.splitlines()
    assert lines[0] == "mskit-matrix 1 1 1 2"
    assert lines[1] == "+-"
    assert lines[2].startswith("gamma=[")


def test_choi_round_trip():
    J = example_channel(0.05, -0.02, 0.01, 0.03)
    text = dumps(write_choi, J)
    assert text.splitlines()[0] == "mskit-matrix 1 choi 1 2 2"
    J2 = read_choi(io.StringIO(text))
    assert (J2.n_out, J2.m_in, J2.d) == (2, 1, 2)
    assert np.array_equal(J2.matrix, J.matrix)


def test_matrix_round_trip():
    rho = random_density(4, rng_from_seed(0))
    text = dumps(write_matrix, rho)
    rho2 = read_matrix(io.StringIO(text))
    assert np.array_equal(rho, rho2)


def test_bad_headers():
    with pytest.raises(ValueError):
        read_schur(io.StringIO("mskit-matrix 2 1 1 2\n"))
    with pytest.raises(ValueError):
        read_choi(io.StringIO("mskit-matrix 1 matrix 4\n"))
    with pytest.raises(ValueError):
        read_matrix(io.StringIO("nonsense\n"))


def test_truncated_matrix_rejected():
    W = build_mixed_schur(1, 1, 2)
    lines = dumps(write_schur, W).splitlines()
    with pytest.raises(ValueError):
        read_schur(io.StringIO("\n".join(lines[:-1]) + "\n"))


def _schur_lines(n=1, m=1, d=2):
    return dumps(write_schur, build_mixed_schur(n, m, d)).splitlines()


def _replaced(lines, k, line):
    return lines[:k] + [line] + lines[k + 1:]


_L = _schur_lines()
# case -> (file lines, pattern the error message must match)
MALFORMED_SCHUR = {
    "empty file": ([], "bad header"),
    "label q beyond dim(gamma)": (_replaced(_L, 2, "gamma=[0,0] q=5 p=0"), "q must be in"),
    "label without gamma=": (_replaced(_L, 2, "q=0 p=0"), "must be gamma="),
    "negative p": (_replaced(_L, 2, "gamma=[0,0] q=0 p=-1"), "p must be >= 0"),
    "staircase of the wrong length": (_replaced(_L, 2, "gamma=[0,0,0] q=0 p=0"),
                                      "staircase length"),
    "duplicate label": (_replaced(_L, 3, _L[4]), "duplicate"),
    "labels out of block order": (_L[:2] + _L[3:6] + [_L[2]] + _L[6:], "blocks"),
    "missing label line": (_L[:5], "label lines"),
    "bad factor order": (_replaced(_L, 1, "++"), "factor order"),
    "missing factor order": (_L[:1], "factor order"),
    "negative n": (_replaced(_L, 0, "mskit-matrix 1 -1 1 2"), "bad header"),
    "over the cap": (["mskit-matrix 1 40 40 3"], "exceeds cap"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_SCHUR))
def test_malformed_schur_rejected(case):
    lines, match = MALFORMED_SCHUR[case]
    with pytest.raises(ValueError, match=match):
        read_schur(io.StringIO("".join(line + "\n" for line in lines)))


def test_schur_cap_checked_before_reading():
    text = "\n".join(_schur_lines(2, 2, 2)) + "\n"
    with pytest.raises(CapExceeded):
        read_schur(io.StringIO(text), cap=8)
    assert read_schur(io.StringIO(text), cap=16).size == 16
