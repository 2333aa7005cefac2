import hashlib
import io
import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import matrix_files as v1
import mskit.io as mskit_io
from mskit.bratteli import CapExceeded, row_labels
from mskit.channels import example_channel
from mskit.io import (_memo_spell, _read_dense, _write_rows, dumps, read_choi, read_matrix,
                      read_schur, write_choi, write_matrix, write_schur)
from mskit.rand import random_density, rng_from_seed
from mskit.schur import SchurTransform, build_mixed_schur

from test_schur import block_phased
from test_schur_sectors import traced_peak


def test_schur_round_trip():
    W = build_mixed_schur(2, 1, 2, "++-")
    text = dumps(write_schur, W)
    W2 = read_schur(io.StringIO(text))
    assert (W2.n, W2.m, W2.d, W2.factor_order) == (2, 1, 2, "++-")
    assert row_labels(W2.n, W2.m, W2.d) == row_labels(W.n, W.m, W.d)
    assert np.array_equal(W2.matrix, W.matrix)


def test_schur_files_are_deterministic():
    a = dumps(write_schur, build_mixed_schur(2, 1, 2, "++-"))
    from mskit.cg import clear_cache

    clear_cache()
    b = dumps(write_schur, build_mixed_schur(2, 1, 2, "++-"))
    assert a == b


def test_schur_header():
    text = v1.dumps(v1.write_schur, build_mixed_schur(1, 1, 2))
    lines = text.splitlines()
    assert lines[0] == "mskit-matrix 1 1 1 2"
    assert lines[1] == "+-"
    assert lines[2].startswith("gamma=[")


def test_schur_header_v2():
    # no label lines: the rows follow the factor order
    text = dumps(write_schur, build_mixed_schur(1, 1, 2))
    lines = text.splitlines()
    assert lines[0] == "mskit-matrix 2 1 1 2"
    assert lines[1] == "+-"
    assert len(lines) == 2 + 4
    assert lines[2] == "0.7071067811865477,0.0 3:0.7071067811865477,0.0"


def test_choi_round_trip():
    J = example_channel(0.05, -0.02, 0.01, 0.03)
    text = v1.dumps(v1.write_choi, J)
    assert text.splitlines()[0] == "mskit-matrix 1 choi 1 2 2"
    J2 = read_choi(io.StringIO(text))
    assert (J2.n_out, J2.m_in, J2.d) == (2, 1, 2)
    assert np.array_equal(J2.matrix, J.matrix)


def test_choi_round_trip_v2():
    J = example_channel(0.05, -0.02, 0.01, 0.03)
    text = dumps(write_choi, J)
    assert text.splitlines()[0] == "mskit-matrix 2 choi 1 2 2"
    J2 = read_choi(io.StringIO(text))
    assert (J2.n_out, J2.m_in, J2.d) == (2, 1, 2)
    assert np.array_equal(J2.matrix.view(np.uint64), J.matrix.view(np.uint64))
    assert text == dumps(write_choi, J2)


def test_matrix_round_trip():
    rho = random_density(4, rng_from_seed(0))
    text = dumps(write_matrix, rho)
    rho2 = read_matrix(io.StringIO(text))
    assert np.array_equal(rho, rho2)


def test_bad_headers():
    with pytest.raises(ValueError):
        read_schur(io.StringIO("mskit-matrix 2 1 1 2\n"))
    with pytest.raises(ValueError, match="bad header"):
        read_schur(io.StringIO("mskit-matrix 3 1 1 2\n+-\n"))
    with pytest.raises(ValueError, match="bad header"):
        read_matrix(io.StringIO("mskit-matrix\n"))
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
    return v1.dumps(v1.write_schur, build_mixed_schur(n, m, d)).splitlines()


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
    "non-integer size": (_replaced(_L, 0, "mskit-matrix 1 1 1 x"),
                         "bad header: .* needs integer sizes"),
    "over the cap": (["mskit-matrix 1 40 40 3"], "exceeds cap"),
}
# a bad token among the 0.0,0.0 tokens of a mostly zero row must be named
_ZEROS = ["0.0,0.0"] * 4
for _bad in ("0.0,0.0,0.0", "0.0", "0.0;0.0"):
    MALFORMED_SCHUR[f"{_bad} among zeros"] = (
        _replaced(_L, 7, " ".join(_ZEROS[:2] + [_bad] + _ZEROS[3:])),
        re.escape(f"row 1: entry {_bad!r} is not a re,im pair"))


_L2 = dumps(write_schur, build_mixed_schur(1, 1, 2)).splitlines()  # row r is line 2 + r
# version-2 twins: a header, factor order, label line, row count or row token
MALFORMED_SCHUR.update({
    "v2 unknown version": (_replaced(_L2, 0, "mskit-matrix 3 1 1 2"), "bad header"),
    "v2 bad factor order": (_replaced(_L2, 1, "++"), "factor order"),
    "v2 missing factor order": (_L2[:1], "factor order"),
    "v2 negative n": (_replaced(_L2, 0, "mskit-matrix 2 -1 1 2"), "bad header"),
    "v2 non-integer size": (_replaced(_L2, 0, "mskit-matrix 2 1 1 x"),
                            "bad header: .* needs integer sizes"),
    "v2 over the cap": (["mskit-matrix 2 40 40 3"], "exceeds cap"),
    "v2 label line": (_L2[:2] + _L[2:3] + _L2[2:],
                      re.escape(f"row 0: entry {_L[2].split()[0]!r} is not a re,im pair")),
    "v2 header on a version-1 body": (["mskit-matrix 2 1 1 2"] + _L[1:], "row 0: entry 'gamma="),
    "v2 missing row": (_L2[:-1], "expected 4 matrix rows, found 3"),
    "v2 column out of range": (_replaced(_L2, 3, "4:1.0,0.0"),
                               re.escape("row 1: entry '4:1.0,0.0': column 4 is outside 0..3")),
    "v2 column past the last": (_replaced(_L2, 3, "3:1.0,0.0 1.0,0.0"),
                                re.escape("row 1: entry '1.0,0.0': column 4 is outside 0..3")),
    "v2 negative column": (_replaced(_L2, 3, "-1:1.0,0.0"), "column -1 is outside 0..3"),
    "v2 column not an integer": (_replaced(_L2, 3, "1.5:1.0,0.0"),
                                 "column '1.5' is not a whole number"),
    "v2 missing column": (_replaced(_L2, 3, ":1.0,0.0"), "column '' is not a whole number"),
    "v2 repeated column": (_replaced(_L2, 3, "1:1.0,0.0 1:0.5,0.0"),
                           "column 1 does not follow column 1"),
    "v2 descending column": (_replaced(_L2, 3, "2:1.0,0.0 0:0.5,0.0"),
                             "column 0 does not follow column 2"),
    "v2 two colons": (_replaced(_L2, 3, "1:2:1.0,0.0"),
                      re.escape("row 1: entry '1:2:1.0,0.0' is not a re,im pair")),
    "v2 two commas": (_replaced(_L2, 3, "1:1.0,0.0,0.0"),
                      re.escape("row 1: entry '1:1.0,0.0,0.0' is not a re,im pair")),
    "v2 colon after the comma": (_replaced(_L2, 3, "1.0,1:0.0"),
                                 re.escape("row 1: entry '1.0,1:0.0' is not a re,im pair")),
    "v2 bad row before a missing row": (_replaced(_L2, 3, "x")[:-1], "row 1: entry 'x'"),
})
for _bad in ("0.0,0.0,0.0", "0.0", "0.0;0.0"):  # among explicit zeros, which version 2 reads
    MALFORMED_SCHUR[f"v2 {_bad} among zeros"] = (
        _replaced(_L2, 3, " ".join(_ZEROS[:2] + [_bad] + _ZEROS[3:])),
        re.escape(f"row 1: entry {_bad!r} is not a re,im pair"))


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


_CHOI = v1.dumps(v1.write_choi, example_channel(0.05, -0.02, 0.01, 0.03)).splitlines()
_RHO = v1.dumps(v1.write_matrix, random_density(2, rng_from_seed(3))).splitlines()
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
MALFORMED_CHANNEL_FILES["choi extra row"] = (read_choi, _CHOI + [_CHOI[1]],
                                             "expected 8 matrix rows, found 9")
MALFORMED_CHANNEL_FILES["matrix blank line after the rows"] = (read_matrix, _RHO + [""],
                                                               "expected 2 matrix rows, found 3")
for _bad in ("0.0,0.0,0.0", "0.0", "0.0;0.0"):
    MALFORMED_CHANNEL_FILES[f"choi {_bad} among zeros"] = (
        read_choi, _replaced(_CHOI, 4, " ".join(["0.0,0.0"] * 5 + [_bad] + ["0.0,0.0"] * 2)),
        re.escape(f"row 3: entry {_bad!r} is not a re,im pair"))
    MALFORMED_CHANNEL_FILES[f"matrix {_bad} among zeros"] = (
        read_matrix, _replaced(_RHO, 2, f"0.0,0.0 {_bad}"),
        re.escape(f"row 1: entry {_bad!r} is not a re,im pair"))

_CHOI2 = dumps(write_choi, example_channel(0.05, -0.02, 0.01, 0.03)).splitlines()
_RHO2 = dumps(write_matrix, random_density(2, rng_from_seed(3))).splitlines()
# version-2 twins; a dense row is spelled as in version 1
MALFORMED_CHANNEL_FILES.update({
    "v2 choi non-integer size": (read_choi, ["mskit-matrix 2 choi 1 x 2"], "integer sizes"),
    "v2 choi missing size": (read_choi, ["mskit-matrix 2 choi 1 2"], "bad header"),
    "v2 choi negative n": (read_choi, ["mskit-matrix 2 choi 1 -2 2"], "n >= 0"),
    "v2 choi d = 0": (read_choi, ["mskit-matrix 2 choi 1 2 0"], "d >= 1"),
    "v2 choi over the cap": (read_choi, ["mskit-matrix 2 choi 40 40 3"], "exceeds cap"),
    "v2 choi entry without comma": (read_choi,
                                    _replaced(_CHOI2, 1, _CHOI2[1].replace(",", " ", 1)),
                                    "row 0: entry .* is not a re,im pair"),
    "v2 choi entry not a pair": (read_choi,
                                 _replaced(_CHOI2, 2, "0.5" + _CHOI2[2][_CHOI2[2].index(" "):]),
                                 "re,im pair"),
    "v2 choi extra row": (read_choi, _CHOI2 + [_CHOI2[1]], "expected 8 matrix rows, found 9"),
    "v2 choi missing row": (read_choi, _CHOI2[:-1], "expected 8 matrix rows, found 7"),
    "v2 matrix non-integer dim": (read_matrix, ["mskit-matrix 2 matrix 2.5"], "integer sizes"),
    "v2 matrix dim = 0": (read_matrix, ["mskit-matrix 2 matrix 0"], "dim >= 1"),
    "v2 matrix over the cap": (read_matrix, ["mskit-matrix 2 matrix 99999999999"],
                               "exceeds cap"),
    "v2 matrix entry not a pair": (read_matrix,
                                   _replaced(_RHO2, 1, "1e0" + _RHO2[1][_RHO2[1].index(" "):]),
                                   "re,im pair"),
    "v2 matrix entry not a float": (read_matrix,
                                    _replaced(_RHO2, 2, "a,b" + _RHO2[2][_RHO2[2].index(" "):]),
                                    "re,im pair"),
    "v2 matrix blank line after the rows": (read_matrix, _RHO2 + [""],
                                            "expected 2 matrix rows, found 3"),
})
for _bad in ("0.0,0.0,0.0", "0.0", "0.0;0.0"):
    MALFORMED_CHANNEL_FILES[f"v2 choi {_bad} among zeros"] = (
        read_choi, _replaced(_CHOI2, 4, " ".join(["0.0,0.0"] * 5 + [_bad] + ["0.0,0.0"] * 2)),
        re.escape(f"row 3: entry {_bad!r} is not a re,im pair"))
    MALFORMED_CHANNEL_FILES[f"v2 matrix {_bad} among zeros"] = (
        read_matrix, _replaced(_RHO2, 2, f"0.0,0.0 {_bad}"),
        re.escape(f"row 1: entry {_bad!r} is not a re,im pair"))


@pytest.mark.parametrize("case", sorted(MALFORMED_CHANNEL_FILES))
def test_malformed_choi_and_matrix_rejected(case):
    reader, lines, match = MALFORMED_CHANNEL_FILES[case]
    with pytest.raises(ValueError, match=match):
        reader(io.StringIO("".join(line + "\n" for line in lines)))


def test_d1_leg_count_checked_before_labels(monkeypatch):
    # 1^200000 is 1, but the labels would need a 200000-level tower
    def no_labels(*args):
        raise AssertionError("labels built before the cap check")

    monkeypatch.setattr("mskit.io.row_labels", no_labels)
    text = "mskit-matrix 1 200000 0 1\n" + "+" * 200000 + "\ngamma=[200000] q=0 p=0\n1.0,0.0\n"
    with pytest.raises(CapExceeded):
        read_schur(io.StringIO(text))


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
    phased = SchurTransform.from_matrix(W.n, W.m, W.d, W.factor_order, W.matrix * 1j)
    C = read_schur(io.StringIO(dumps(write_schur, phased)))
    assert C.matrix.dtype == complex and C.matrix.base is None
    assert np.array_equal(C.matrix, phased.matrix)


def test_read_schur_keeps_negative_zero_imaginary_parts():
    W = build_mixed_schur(2, 1, 2)
    M = np.empty(W.matrix.shape, dtype=complex)
    M.real, M.imag = W.matrix, -0.0
    V = SchurTransform.from_matrix(W.n, W.m, W.d, W.factor_order, M)
    R = read_schur(io.StringIO(dumps(write_schur, V)))
    assert R.matrix.dtype == complex
    assert np.array_equal(R.matrix.view(np.uint64), M.view(np.uint64))


def test_entries_parse_as_python_floats():
    want = [[complex(10, -0.5), complex(float("inf"), float("nan"))],
            [complex(1e-3, 0), complex(-0.0, float("inf"))]]
    for version, rows in [("1", "1_0,-0.5 inf,-nan\n+1E-3,0 -0.0,1e400\n"),
                          ("2", "1_0,-0.5 inf,-nan\n+1E-3,0 1e0:-0.0,1e400\n")]:
        M = read_matrix(io.StringIO(f"mskit-matrix {version} matrix 2\n{rows}"))
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


@pytest.mark.parametrize("row, message", [
    ("1,2,3 4", "entry '1,2,3' is not a re,im pair of floats"),
    ("1,0 2", "entry '2' is not a re,im pair of floats"),
    ("1:1,x", "entry '1:1,x' is not a re,im pair of floats"),
    ("1:2:1,0", "entry '1:2:1,0' is not a re,im pair of floats"),
    ("1,0:0", "entry '1,0:0' is not a re,im pair of floats"),
    ("gamma=[0,0]", "entry 'gamma=[0,0]' is not a re,im pair of floats"),
    ("2:1,0", "entry '2:1,0': column 2 is outside 0..1"),
    ("1,0 1,0 1,0", "entry '1,0': column 2 is outside 0..1"),
    ("-1:1,0", "entry '-1:1,0': column -1 is outside 0..1"),
    ("0.5:1,0", "entry '0.5:1,0': column '0.5' is not a whole number"),
    ("inf:1,0", "entry 'inf:1,0': column 'inf' is not a whole number"),
    ("nan:1,0", "entry 'nan:1,0': column 'nan' is not a whole number"),
    (":1,0", "entry ':1,0': column '' is not a whole number"),
    ("1:1,0 0:1,0", "entry '0:1,0': column 0 does not follow column 1"),
    ("1,0 0:1,0", "entry '0:1,0': column 0 does not follow column 0"),
    ("1,0  1,0", "entry '' is not a re,im pair of floats"),  # split at single spaces only
    (" 1,0", "entry '' is not a re,im pair of floats"),
    ("1,0\t1:1,0", "entry '1,0\\t1:1,0': column '1,0\\t1' is not a whole number"),
])
def test_bad_v2_entry_is_named(row, message):
    text = f"mskit-matrix 2 matrix 2\n1,0\n{row}\n"
    with pytest.raises(ValueError) as err:
        read_matrix(io.StringIO(text))
    assert str(err.value) == f"row 1: {message}"


def entry_by_entry(matrix):
    """The rows as first written: one numpy scalar per entry."""
    return "".join(" ".join(f"{float(z.real)!r},{float(z.imag)!r}" for z in row) + "\n"
                   for row in np.atleast_2d(matrix))


def _listed(x):  # a set bit: nonzero, nan or -0.0
    return x != 0 or math.copysign(1.0, x) < 0


def entry_by_entry_v2(matrix):
    """The rows in version 2, one numpy scalar per entry: every entry with a
    set bit, its column written unless it follows the previous entry's."""
    out = []
    for row in np.atleast_2d(matrix):
        tokens, last = [], -1
        for c, z in enumerate(row):
            a, b = float(z.real), float(z.imag)
            if _listed(a) or _listed(b):
                tokens.append(("" if c == last + 1 else f"{c}:") + f"{a!r},{b!r}")
                last = c
        out.append(" ".join(tokens) + "\n")
    return "".join(out)


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
        assert v1.dumps(v1.write_matrix, M).split("\n", 1)[1] == entry_by_entry(M)


def test_written_rows_v2_match_entry_by_entry_formatting():
    rng = rng_from_seed(12)
    special = np.array([0.0, -0.0, 1.0, -1.5, 1e-310, 5e-324, 1e300, np.inf, -np.inf, np.nan])
    grid = np.empty((10, 10), dtype=complex)
    grid.real, grid.imag = special[:, None], special[None, ::-1]
    sparse = rng.standard_normal((9, 9)) * (rng.random((9, 9)) < 0.3)
    cases = [
        build_mixed_schur(2, 2, 3).matrix,  # real W
        example_channel(0.05, -0.02, 0.01, 0.03).matrix,
        rng.standard_normal((7, 7)) + 1j * rng.standard_normal((7, 7)),
        np.eye(3, dtype=np.int64),
        np.arange(6, dtype=np.int32).reshape(2, 3),
        grid,
        special,  # one row
        sparse,
        np.zeros((3, 4)),  # empty rows
    ]
    for M in cases:
        assert dumps(write_matrix, M).split("\n", 1)[1] == entry_by_entry_v2(M)
        buf = io.StringIO()
        _write_rows(buf, M, _memo_spell())
        assert buf.getvalue() == entry_by_entry_v2(M)


def test_the_memo_tells_pairs_apart_by_their_bits():
    # 1+0j == 1-0j and -0.0 == 0.0 as values; nan != nan
    M = np.array([[complex(1, 0.0), complex(1, -0.0), complex(-0.0, 0.0), complex(0.0, -0.0),
                   complex(np.nan, 0.0), complex(np.nan, 0.0), complex(1, 0.0), 0.0]])
    spell = _memo_spell()
    for _ in range(2):  # the second pass reads every pair from the memo
        buf = io.StringIO()
        _write_rows(buf, M, spell)
        assert buf.getvalue() == "1.0,0.0 1.0,-0.0 -0.0,0.0 0.0,-0.0 nan,0.0 nan,0.0 1.0,0.0\n"


def test_the_memo_starts_over_without_changing_the_text(monkeypatch):
    W = build_mixed_schur(2, 2, 3)
    text = dumps(write_schur, W)
    monkeypatch.setattr(mskit_io, "_MEMO_PAIRS", 3)
    assert dumps(write_schur, W) == text


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


def test_other_spellings_of_zero_keep_their_signs():
    text = ("mskit-matrix 1 matrix 3\n"
            "0.0,0.0 -0.0,0.0 0.0,0.0\n"
            "0,0 0.0,-0.0 0e0,0.0\n"
            "0.0,0.0 0.0,0.0 -0.0,-0.0\n")
    M = read_matrix(io.StringIO(text))
    signs = [[(False, False), (True, False), (False, False)],
             [(False, False), (False, True), (False, False)],
             [(False, False), (False, False), (True, True)]]
    assert not M.any()
    assert [[(bool(np.signbit(z.real)), bool(np.signbit(z.imag))) for z in row]
            for row in M] == signs


def test_tokens_containing_the_zero_spelling_are_parsed():
    # only a whole 0.0,0.0 token is skipped, not one that merely contains it
    text = ("mskit-matrix 1 matrix 4\n"
            "0.0,0.0 0.0,0.05 10.0,0.0 0.0,0.0\n"
            "0.0,0.0 0.0,0.0 0.0,0.0 0.0,0.0\n"
            "0.0,0.0e7 0.0,0.0 -10.0,0.01 0.0,0.0\n"
            "1.0,0.0 0.0,0.0 0.0,0.0 0.0,0.001\n")
    want = np.zeros((4, 4), dtype=complex)
    want[0, 1], want[0, 2], want[2, 2], want[3, 0], want[3, 3] = 0.05j, 10, -10 + 0.01j, 1, 0.001j
    assert np.array_equal(read_matrix(io.StringIO(text)), want)


def repr_rows(matrix):
    """The rows as written before zero entries were spelled without repr:
    every entry formatted, one row at a time."""
    out = []
    for row in np.atleast_2d(matrix):
        real, imag = row.real.astype(float).tolist(), row.imag.astype(float).tolist()
        out.append(" ".join(f"{a!r},{b!r}" for a, b in zip(real, imag)) + "\n")
    return "".join(out)


def written_rows(matrix):
    buf = io.StringIO()
    v1.write_rows(buf, matrix)
    return buf.getvalue()


def repr_rows_v2(matrix):
    """The rows in version 2 with every listed entry formatted, one row at a time."""
    out = []
    for row in np.atleast_2d(matrix):
        real, imag = row.real.astype(float), row.imag.astype(float)
        cols = np.flatnonzero((real != 0) | (imag != 0) | np.signbit(real) | np.signbit(imag))
        follows = cols == np.concatenate([[-1], cols[:-1]]) + 1
        out.append(" ".join(("" if f else f"{c}:") + f"{a!r},{b!r}" for c, f, a, b in zip(
            cols.tolist(), follows.tolist(), real[cols].tolist(), imag[cols].tolist())) + "\n")
    return "".join(out)


# entries with every special value the writer must spell as repr does
_FLOATS = st.one_of(st.floats(allow_nan=False),
                    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                                     -1e-310, np.inf, -np.inf]))


@st.composite
def sparse_matrices(draw):
    """A real or complex matrix whose entries are +0.0 by a random mask."""
    shape = draw(st.integers(1, 5)), draw(st.integers(1, 6))
    parts = st.lists(_FLOATS, min_size=shape[0] * shape[1], max_size=shape[0] * shape[1])
    masks = st.lists(st.booleans(), min_size=shape[0] * shape[1], max_size=shape[0] * shape[1])
    real, zero = np.array(draw(parts)), np.array(draw(masks))
    real[zero] = 0.0
    if draw(st.booleans()):
        return real.reshape(shape)
    M = np.empty(shape, dtype=complex)
    M.real, M.imag = real.reshape(shape), np.array(draw(parts)).reshape(shape)
    M.imag[(zero & np.array(draw(masks))).reshape(shape)] = 0.0
    return M


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(sparse_matrices())
def test_rows_match_the_repr_writer_and_read_back_bit_equal(M):
    rows = written_rows(M)
    assert rows == repr_rows(M)
    R = _read_dense(iter(rows.splitlines()), *M.shape, "1")
    want = M.astype(complex)  # a real matrix reads back with +0.0 imaginary parts
    assert R.dtype == want.dtype
    assert np.array_equal(R.view(np.uint64), want.view(np.uint64))


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(sparse_matrices())
def test_v2_rows_match_the_repr_writer_and_read_back_bit_equal(M):
    buf = io.StringIO()
    _write_rows(buf, M)
    rows = buf.getvalue()
    assert rows == repr_rows_v2(M)
    memo = io.StringIO()
    _write_rows(memo, M, _memo_spell())
    assert memo.getvalue() == rows
    R = _read_dense(iter(rows.splitlines()), *M.shape, "2")
    want = M.astype(complex)
    assert np.array_equal(R.view(np.uint64), want.view(np.uint64))


# the transforms of the benchmark's file round trips, and one at D = 4096
@pytest.mark.parametrize("n, m, d, order", [
    (5, 5, 2, None), (3, 3, 3, None), (2, 2, 4, "+-+-"), (3, 2, 3, "+-+-+"), (2, 1, 4, None),
    (3, 3, 4, None),
])
def test_schur_rows_match_the_repr_writer(n, m, d, order):
    W = build_mixed_schur(n, m, d, order)
    M = W.matrix  # assembled once
    for start in range(0, W.size, 512):  # 512 rows at a time bounds the text held
        block = M[start:start + 512]
        rows = written_rows(block)
        assert rows == repr_rows(block)
        R = _read_dense(iter(rows.splitlines()), *block.shape, "1")
        assert np.array_equal(R.real.view(np.uint64), block.view(np.uint64))
        assert not R.imag.view(np.uint64).any()


@pytest.mark.parametrize("n, m, d, order", [
    (5, 5, 2, None), (3, 3, 3, None), (2, 2, 4, "+-+-"), (3, 2, 3, "+-+-+"), (2, 1, 4, None),
    (3, 3, 4, None),
])
def test_schur_rows_v2_match_the_repr_writer(n, m, d, order):
    # write_schur spells each distinct pair once; the rows must read as if
    # every listed entry had been formatted
    W = build_mixed_schur(n, m, d, order)
    rows = dumps(write_schur, W).split("\n", 2)[2]
    M = W.matrix  # assembled once
    want = "".join(repr_rows_v2(M[a:a + 512]) for a in range(0, W.size, 512))
    assert rows == want
    R = _read_dense(iter(rows.splitlines()), *M.shape, "2")
    assert np.array_equal(R.real.view(np.uint64), M.view(np.uint64))
    assert not R.imag.view(np.uint64).any()


def dense_read_schur(text):
    """read_schur as a dense reader: the whole text split into lines, every
    entry parsed into a zeroed complex D x D matrix, made real when no
    imaginary part has a set bit, then split by from_matrix.  (matrix, W)."""
    lines = text.splitlines()
    n, m, d = map(int, lines[0].split()[2:])
    size = d ** (n + m)
    M = np.zeros((size, size), dtype=complex)
    for r, line in enumerate(lines[2 + size:2 + 2 * size]):
        for c, token in enumerate(line.split()):
            if token != "0.0,0.0":
                re_s, im_s = token.split(",")
                M[r, c] = complex(float(re_s), float(im_s))
    if not M.imag.view(np.uint64).any():
        M = np.ascontiguousarray(M.real)
    return M, SchurTransform.from_matrix(n, m, d, lines[1], M)


def _with_matrix(W, M):
    return SchurTransform.from_matrix(W.n, W.m, W.d, W.factor_order, M)


def _negative_zero_imag(W):
    M = np.empty(W.matrix.shape, dtype=complex)
    M.real, M.imag = W.matrix, -0.0
    return _with_matrix(W, M)


def _negated_rows(W):  # every zero of an even row, in a sector or not, becomes -0.0
    M = W.matrix.copy()
    M[::2] *= -1
    return _with_matrix(W, M)


def _nan_in_a_sector(W):
    M = W.matrix.copy()
    M[1, W.cols[W.sectors[1][1]][-1]] = np.nan
    return _with_matrix(W, M)


def _last_row_imaginary(W, imag=-0.0):  # the file's one imaginary bit, in its last row
    M = W.matrix.astype(complex)
    c = int(np.flatnonzero(W.matrix[-1])[0])  # inside the row's sector
    M[-1, c] = complex(M[-1, c].real, imag)
    return M, _with_matrix(W, M)


def _one_dense_row(W):  # row 1 has no ZERO token
    M = W.matrix.copy()
    M[1] += 1e-3
    return _with_matrix(W, M)


ORACLE_VARIANTS = {
    "built": lambda W: W,
    "block phased": lambda W: block_phased(W, 61),
    "imaginary parts -0.0": _negative_zero_imag,
    "imaginary bit in the last row": lambda W: _last_row_imaginary(W)[1],
    "leaky": lambda W: _with_matrix(W, W.matrix + 1e-6),
    "negated rows": _negated_rows,
    "nan in a sector": _nan_in_a_sector,
    "one dense row": _one_dense_row,
}


def _bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


@pytest.mark.parametrize("variant", sorted(ORACLE_VARIANTS))
@pytest.mark.parametrize("n, m, d, order", [(2, 2, 3, None), (2, 2, 2, "+-+-"),
                                            (2, 3, 2, "-+-+-")])
def test_streamed_read_matches_the_dense_reader(n, m, d, order, variant):
    V = ORACLE_VARIANTS[variant](build_mixed_schur(n, m, d, order))
    text = v1.dumps(v1.write_schur, V)
    M, want = dense_read_schur(text)
    for got in (read_schur(io.StringIO(text)), read_schur(io.StringIO(dumps(write_schur, V)))):
        _check_streamed_read(got, M, want, variant)


def _check_streamed_read(got, M, want, variant):
    assert got.dtype == want.dtype == M.dtype
    assert np.array_equal(_bits(got.take_rows(slice(None))), _bits(M))
    assert np.array_equal(_bits(got.data), _bits(want.data))
    assert (got.off is None) == (want.off is None)
    if got.off is not None:
        assert np.array_equal(got.off.indptr, want.off.indptr)
        assert np.array_equal(got.off.indices, want.off.indices)
        assert np.array_equal(_bits(got.off.data), _bits(want.off.data))
    assert (got._zeros is None) == (want._zeros is None)
    if got._zeros is not None:
        assert all(map(np.array_equal, got._zeros, want._zeros))
    if variant == "negated rows":  # the signed zeros outside the sectors are there to compare
        assert got._zeros is not None


def test_read_schur_holds_little_more_than_its_sector_data():
    W = build_mixed_schur(5, 5, 2)
    f = io.StringIO(dumps(write_schur, W))
    R, peak = traced_peak(lambda: read_schur(f))
    complex_bytes = 16 * R.data.size
    assert peak <= 2 * complex_bytes + 4 * 2 ** 20, (peak, complex_bytes)
    assert np.array_equal(R.data, W.data)


@pytest.mark.parametrize("imag", [0.5, -0.0])
def test_read_schur_widens_at_the_first_imaginary_bit(imag):
    # the data is filled real and widened when the last row brings the one
    # imaginary bit of the file; a file with none reads back real
    W = build_mixed_schur(2, 2, 3)
    M, V = _last_row_imaginary(W, imag)
    got = read_schur(io.StringIO(dumps(write_schur, V)))
    assert got.dtype == complex
    assert np.array_equal(_bits(got.take_rows(slice(None))), _bits(M))
    real = read_schur(io.StringIO(dumps(write_schur, W)))
    assert real.dtype == float
    assert np.array_equal(_bits(real.data), _bits(W.data))


def test_a_real_read_holds_no_complex_data():
    W = build_mixed_schur(5, 5, 2)
    f = io.StringIO(dumps(write_schur, W))
    R, peak = traced_peak(lambda: read_schur(f))
    assert R.dtype == float
    assert peak <= 2 * R.data.nbytes + 2 ** 20, (peak, R.data.nbytes)


def test_a_noisy_transform_reads_and_writes_in_bounded_memory():
    # every entry of a noisy W is a distinct nonzero that the file lists, so
    # nothing per distinct value may stay held: the reader holds little more
    # than from_entries needs for the same entries, and the writer little
    # more than its bounded memo, about 250 bytes a pair
    W = build_mixed_schur(5, 5, 2)
    noise = rng_from_seed(3).standard_normal(W.matrix.shape)
    N = _with_matrix(W, W.matrix + 1e-9 * noise)
    M = N.matrix
    r, c = (a.ravel() for a in np.indices(M.shape))
    step = 1 << 12
    chunks = [(r[a:a + step], c[a:a + step], M.ravel()[a:a + step])
              for a in range(0, M.size, step)]
    _, base = traced_peak(lambda: SchurTransform.from_entries(
        N.n, N.m, N.d, N.factor_order, iter(chunks)))
    f = io.StringIO(dumps(write_schur, N))
    R, peak = traced_peak(lambda: read_schur(f))
    assert peak <= base + 4 * 2 ** 20, (peak, base)
    assert np.array_equal(_bits(R.take_rows(slice(None))), _bits(M))
    sink = _Sink()
    _, peak = traced_peak(lambda: write_schur(sink, N))
    assert sink.sha.digest() == hashlib.sha256(f.getvalue().encode()).digest()
    assert peak <= 400 * mskit_io._MEMO_PAIRS + 4 * 2 ** 20, peak


def test_readers_leave_the_file_position_after_what_they_read(tmp_path):
    # a caller may ask f.tell() after reading, which iterating over f forbids
    W = build_mixed_schur(2, 1, 2)
    for name, writer, reader, obj in [
        ("w", write_schur, read_schur, W),
        ("choi", write_choi, read_choi, example_channel(0.05, -0.02, 0.01, 0.03)),
        ("rho", write_matrix, read_matrix, random_density(2, rng_from_seed(5))),
    ]:
        path = tmp_path / name
        path.write_text(dumps(writer, obj))
        with open(path) as f:
            reader(f)
            assert f.tell() == path.stat().st_size


_MUTATION_FILES = {
    "schur": v1.dumps(v1.write_schur, build_mixed_schur(1, 1, 2)),
    "choi": v1.dumps(v1.write_choi, example_channel(0.05, -0.02, 0.01, 0.03)),
    "matrix": v1.dumps(v1.write_matrix, random_density(2, rng_from_seed(6))),
    "schur v2": dumps(write_schur, build_mixed_schur(2, 1, 2)),
    "choi v2": dumps(write_choi, example_channel(0.05, -0.02, 0.01, 0.03)),
    "matrix v2": dumps(write_matrix, random_density(2, rng_from_seed(6))),
}
_INSERTS = [",", ";", "_", "nan", "NaN,0", "é", "１,２", "\u00a0", "\x0c", "0.0,0.0",
            "-0.0,-0.0", "1e999,0", "0,0,0", "2", "-1", "+", ":", "3:", "1:0,1", "9:1,0",
            "-1:1,0", "0.5:1,0", "1:2:1,0", "1:1,0,0", ""]
_V2_SCHUR = _MUTATION_FILES["schur v2"].splitlines()  # (2, 1, 2): D = 8, row r is line 2 + r


@st.composite
def mutated_files(draw):
    """A small valid file of each kind with one to three of: a line dropped,
    duplicated or swapped, a token replaced, a token inserted or spliced
    into another, the last line truncated."""
    lines = _MUTATION_FILES[draw(st.sampled_from(sorted(_MUTATION_FILES)))].splitlines()
    for _ in range(draw(st.integers(1, 3))):
        if not lines:
            break
        k = draw(st.integers(0, len(lines) - 1))
        tokens = lines[k].split(" ")
        t = draw(st.integers(0, len(tokens) - 1))
        new = draw(st.sampled_from(_INSERTS))
        how = draw(st.sampled_from(["drop", "duplicate", "swap", "replace", "insert", "splice",
                                    "truncate"]))
        if how == "drop":
            del lines[k]
        elif how == "duplicate":
            lines.insert(k, lines[k])
        elif how == "swap":
            j = draw(st.integers(0, len(lines) - 1))
            lines[k], lines[j] = lines[j], lines[k]
        elif how == "truncate":
            lines[-1] = lines[-1][:draw(st.integers(0, len(lines[-1])))]
        else:
            if how == "replace":
                tokens[t] = new
            elif how == "insert":
                tokens.insert(t, new)
            else:
                at = draw(st.integers(0, len(tokens[t])))
                tokens[t] = tokens[t][:at] + new + tokens[t][at:]
            lines[k] = " ".join(tokens)
    return "".join(line + "\n" for line in lines)


def _v2_schur(row, line):
    return "".join(x + "\n" for x in _replaced(_V2_SCHUR, 2 + row, line))


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(mutated_files())
@example(_v2_schur(0, "8:1,0"))  # a column out of range
@example(_v2_schur(0, "7:1,0 1,0"))  # a column past the last
@example(_v2_schur(0, "-1:1,0"))  # a negative column
@example(_v2_schur(0, "1.5:1,0"))  # a column that is not an integer
@example(_v2_schur(0, "x:1,0"))
@example(_v2_schur(0, ":1,0"))  # no column after all
@example(_v2_schur(0, "1:"))  # no value after the column
@example(_v2_schur(0, "3:1,0 3:1,0"))  # a repeated column
@example(_v2_schur(0, "3:1,0 2:1,0"))  # a descending column
@example(_v2_schur(0, "1:2:1,0"))  # two colons
@example(_v2_schur(0, "1:1,0,0"))  # two commas
@example("".join(x + "\n" for x in _V2_SCHUR + [""]))  # too many rows
@example("".join(x + "\n" for x in _V2_SCHUR[:-1]))  # too few rows
@example("".join(x + "\n" for x in _V2_SCHUR[:2] + ["gamma=[1,0] q=0 p=0"] + _V2_SCHUR[2:]))
def test_mutated_files_are_read_or_refused_with_value_error(text):
    # CapExceeded is a ValueError; StopIteration, IndexError or TypeError must not escape
    for reader in (read_schur, read_choi, read_matrix):
        try:
            reader(io.StringIO(text))
        except ValueError:
            pass


class _Sink:
    """A text file that keeps the sha256 of what is written to it, and
    passes it on to f when one is given."""

    def __init__(self, f=None):
        self.f, self.sha = f, hashlib.sha256()

    def write(self, text):
        self.sha.update(text.encode())
        if self.f is not None:
            self.f.write(text)


# the distinct transforms of the benchmark's certify and files workloads,
# copied: both D = 4096 witnesses and 16 shapes with D <= 1024
ROUND_TRIP_SHAPES = [
    (3, 3, 4, None), (6, 6, 2, None), (5, 5, 2, None), (3, 2, 4, "+-+-+"), (2, 2, 5, None),
    (3, 3, 3, None), (4, 2, 3, None), (1, 2, 8, None), (2, 2, 4, "+-+-"), (3, 1, 4, None),
    (1, 3, 4, "-+--"), (2, 1, 5, "-++"), (2, 3, 3, "-+-+-"), (2, 2, 3, "+--+"), (1, 1, 8, None),
    (4, 3, 2, "-+-+-++"), (3, 2, 3, "+-+-+"), (2, 1, 4, None),
]


@pytest.mark.parametrize("n, m, d, order", ROUND_TRIP_SHAPES)
def test_v1_v2_v1_round_trips_are_byte_identical(tmp_path, n, m, d, order):
    W = build_mixed_schur(n, m, d, order)
    path = tmp_path / "v1"
    with open(path, "w") as f:
        first = _Sink(f)
        v1.write_schur(first, W)
    with open(path) as f:
        A = read_schur(f)
    del W
    text = dumps(write_schur, A)
    assert text.startswith(f"mskit-matrix 2 {n} {m} {d}\n")
    B = read_schur(io.StringIO(text))
    assert np.array_equal(_bits(B.data), _bits(A.data))
    again = _Sink()
    v1.write_schur(again, B)
    assert again.sha.digest() == first.sha.digest()
    assert dumps(write_schur, B) == text


def test_signed_zeros_outside_the_sectors_come_back_bit_for_bit():
    V = _negated_rows(build_mixed_schur(2, 2, 3))
    assert V._zeros is not None
    text = dumps(write_schur, V)
    R = read_schur(io.StringIO(text))
    assert all(map(np.array_equal, R._zeros, V._zeros))
    assert np.array_equal(_bits(R.data), _bits(V.data))
    assert np.array_equal(_bits(R.take_rows(slice(None))), _bits(V.take_rows(slice(None))))
    assert dumps(write_schur, R) == text
    assert v1.dumps(v1.write_schur, R) == v1.dumps(v1.write_schur, V)
