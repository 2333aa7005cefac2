import dataclasses
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


_CHOI = dumps(write_choi, example_channel(0.05, -0.02, 0.01, 0.03)).splitlines()
_RHO = dumps(write_matrix, random_density(2, rng_from_seed(3))).splitlines()
# (reader, file lines, pattern the error message must match)
MALFORMED_CHANNEL_FILES = {
    "choi empty file": (read_choi, [], "bad header"),
    "choi non-integer size": (read_choi, ["mskit-matrix 1 choi 1 x 2"], "integer sizes"),
    "choi missing size": (read_choi, ["mskit-matrix 1 choi 1 2"], "bad header"),
    "choi negative n": (read_choi, ["mskit-matrix 1 choi 1 -2 2"], "n >= 0"),
    "choi d = 0": (read_choi, ["mskit-matrix 1 choi 1 2 0"], "d >= 1"),
    "choi over the cap": (read_choi, ["mskit-matrix 1 choi 40 40 3"], "exceeds cap"),
    "choi entry without comma": (read_choi, _replaced(_CHOI, 1, _CHOI[1].replace(",", " ", 1)),
                                 "expected 8 entries"),
    "choi entry not a pair": (read_choi, _replaced(_CHOI, 2, "0.5" + _CHOI[2][_CHOI[2].index(" "):]),
                              "re,im pair"),
    "matrix empty file": (read_matrix, [], "bad header"),
    "matrix non-integer dim": (read_matrix, ["mskit-matrix 1 matrix 2.5"], "integer sizes"),
    "matrix dim = 0": (read_matrix, ["mskit-matrix 1 matrix 0"], "dim >= 1"),
    "matrix over the cap": (read_matrix, ["mskit-matrix 1 matrix 99999999999"], "exceeds cap"),
    "matrix entry not a pair": (read_matrix, _replaced(_RHO, 1, "1e0" + _RHO[1][_RHO[1].index(" "):]),
                                "re,im pair"),
    "matrix entry not a float": (read_matrix, _replaced(_RHO, 2, "a,b" + _RHO[2][_RHO[2].index(" "):]),
                                 "re,im pair"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_CHANNEL_FILES))
def test_malformed_choi_and_matrix_rejected(case):
    reader, lines, match = MALFORMED_CHANNEL_FILES[case]
    with pytest.raises(ValueError, match=match):
        reader(io.StringIO("".join(line + "\n" for line in lines)))


def test_choi_and_matrix_cap_checked_before_reading():
    choi, rho = "\n".join(_CHOI) + "\n", "\n".join(_RHO) + "\n"
    with pytest.raises(CapExceeded):
        read_choi(io.StringIO(choi), cap=4)
    with pytest.raises(CapExceeded):
        read_matrix(io.StringIO(rho), cap=1)
    assert read_choi(io.StringIO(choi), cap=8).size == 8
    assert read_matrix(io.StringIO(rho), cap=2).shape == (2, 2)


def test_read_schur_returns_a_contiguous_real_matrix():
    W = build_mixed_schur(2, 1, 2)
    R = read_schur(io.StringIO(dumps(write_schur, W)))
    assert R.matrix.dtype == float and R.matrix.flags.c_contiguous
    assert R.matrix.base is None  # no view that keeps a complex buffer alive
    assert not R.matrix.flags.writeable
    assert np.array_equal(R.matrix, W.matrix)
    # a complex file is parsed in place into the matrix the transform owns
    phased = dataclasses.replace(W, matrix=W.matrix * 1j)
    C = read_schur(io.StringIO(dumps(write_schur, phased)))
    assert C.matrix.dtype == complex and C.matrix.base is None
    assert np.array_equal(C.matrix, phased.matrix)


def test_entries_parse_as_python_floats():
    text = "mskit-matrix 1 matrix 2\n1_0,-0.5 inf,-nan\n+1E-3,0 -0.0,1e400\n"
    M = read_matrix(io.StringIO(text))
    want = [[complex(10, -0.5), complex(float("inf"), float("nan"))],
            [complex(1e-3, 0), complex(-0.0, float("inf"))]]
    np.testing.assert_array_equal(M, want)
    assert np.signbit(M[1, 1].real)


@pytest.mark.parametrize("row, entry", [
    ("1,2,3 4", "1,2,3"),       # as many commas as entries, but not one each
    ("1,0 2", "2"),
    ("1,0 2,3,", "2,3,"),
    ("1,x 2,0", "1,x"),
    ("1,0 ,2", ",2"),
])
def test_bad_entry_is_named(row, entry):
    text = f"mskit-matrix 1 matrix 2\n1,0 0,0\n{row}\n"
    with pytest.raises(ValueError) as err:
        read_matrix(io.StringIO(text))
    assert str(err.value) == f"row 1: entry {entry!r} is not a re,im pair of floats"


def entry_by_entry(matrix):
    """The rows as first written: one numpy scalar per entry."""
    return "".join(" ".join(f"{float(z.real)!r},{float(z.imag)!r}" for z in row) + "\n"
                   for row in np.atleast_2d(matrix))


def test_written_rows_match_entry_by_entry_formatting():
    rng = rng_from_seed(12)
    special = np.array([0.0, -0.0, 1.0, -1.5, 1e-310, 5e-324, 1e300, np.inf, -np.inf, np.nan])
    grid = np.empty((10, 10), dtype=complex)
    grid.real, grid.imag = special[:, None], special[None, ::-1]
    cases = [
        build_mixed_schur(2, 2, 3).matrix,  # real W
        example_channel(0.05, -0.02, 0.01, 0.03).matrix,
        rng.standard_normal((7, 7)) + 1j * rng.standard_normal((7, 7)),
        np.eye(3, dtype=np.int64),
        np.arange(6, dtype=np.int32).reshape(2, 3),
        grid,
        special,  # one row
    ]
    for M in cases:
        assert dumps(write_matrix, M).split("\n", 1)[1] == entry_by_entry(M)


def test_labels_must_be_those_of_the_shape():
    # complete (gamma, p) blocks in ascending order, but not the blocks of
    # (2, 2, 2): the two [0,0] blocks are relabeled as [3,3], also of dim 1
    lines = _schur_lines(2, 2, 2)
    labels = lines[2:18]
    assert labels[:2] == ["gamma=[0,0] q=0 p=0", "gamma=[0,0] q=0 p=1"]
    relabeled = labels[2:] + ["gamma=[3,3] q=0 p=0", "gamma=[3,3] q=0 p=1"]
    rows = lines[18:]
    text = "".join(line + "\n" for line in lines[:2] + relabeled + rows[2:] + rows[:2])
    with pytest.raises(ValueError, match="blocks"):
        read_schur(io.StringIO(text))
