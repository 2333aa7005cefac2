"""The "mskit-matrix" text format for transforms, Choi matrices, and states.

All files start with a header line "mskit-matrix 1 ...".  Matrix rows are
written one per line, entries as "re,im" pairs separated by single spaces,
using shortest round-trip float formatting; identical inputs produce byte
identical files.

Schur transform:   mskit-matrix 1 <n> <m> <d>
                   <factor order as +/- string>
                   one label line per row: gamma=<staircase> q=<idx> p=<idx>
                   <matrix rows>
Choi matrix:       mskit-matrix 1 choi <m> <n> <d>
                   <matrix rows>
Plain matrix:      mskit-matrix 1 matrix <dim>
                   <matrix rows>
"""

from __future__ import annotations

import io as _io
import itertools
from typing import TextIO

import numpy as np

from .bratteli import DEFAULT_CAP, CapExceeded, check_cap, parse_factor_order, row_labels
from .channels import ChoiMatrix
from .schur import SchurTransform
from .staircase import dim, format_staircase, parse_staircase

MAGIC = "mskit-matrix"
VERSION = "1"


def _write_rows(f: TextIO, matrix: np.ndarray) -> None:
    # tolist hands repr Python floats directly, with no numpy scalar per entry;
    # converting row by row keeps the Python objects to one row at a time
    for row in np.atleast_2d(matrix):
        re, im = row.real.astype(float).tolist(), row.imag.astype(float).tolist()
        f.write(" ".join(f"{a!r},{b!r}" for a, b in zip(re, im)))
        f.write("\n")


def _read_rows(lines: list[str], dim_rows: int, dim_cols: int) -> np.ndarray:
    if len(lines) != dim_rows:
        raise ValueError(f"expected {dim_rows} matrix rows, found {len(lines)}")
    # each row's 2 * dim_cols floats are parsed in one pass into the float
    # view of the complex result: re and im of an entry sit side by side
    matrix = np.empty((dim_rows, dim_cols), dtype=complex)
    out = matrix.view(float)
    commas = itertools.repeat(",")
    for r, line in enumerate(lines):
        parts = line.split()
        if len(parts) != dim_cols:
            raise ValueError(f"row {r}: expected {dim_cols} entries, found {len(parts)}")
        try:
            if set(map(str.count, parts, commas)) != {1}:
                raise ValueError
            out[r] = np.fromiter(map(float, ",".join(parts).split(",")), float,
                                 2 * dim_cols)
        except ValueError:
            for p in parts:  # the first entry that is not a re,im pair of floats
                try:
                    re_s, im_s = p.split(",")
                    float(re_s), float(im_s)
                except ValueError:
                    raise ValueError(f"row {r}: entry {p!r} is not a re,im pair "
                                     "of floats") from None
            raise
    return matrix


def _header_sizes(lines: list[str], kind: str, count: int) -> list[int]:
    """The integer fields of a "mskit-matrix 1 <kind> ..." header line."""
    header = lines[0] if lines else ""
    head = header.split()
    if head[:3] != [MAGIC, VERSION, kind] or len(head) != 3 + count:
        raise ValueError(f"bad header: {header!r}")
    try:
        return [int(x) for x in head[3:]]
    except ValueError:
        raise ValueError(f"bad header: {header!r} needs integer sizes") from None


def write_schur(f: TextIO, W: SchurTransform) -> None:
    f.write(f"{MAGIC} {VERSION} {W.n} {W.m} {W.d}\n")
    f.write(W.factor_order + "\n")
    for g, q, p in W.basis:
        f.write(f"gamma={format_staircase(g)} q={q} p={p}\n")
    _write_rows(f, W.matrix)


def read_schur(f: TextIO, cap: int = DEFAULT_CAP) -> SchurTransform:
    """Parse a transform file; malformed content raises ValueError.

    The labels must be distinct, with staircases of length d, 0 <= q <
    dim(gamma) and p >= 0, and must equal row_labels(n, m, d), the labels of
    every transform of that shape.  A size d^(n+m) over cap raises
    CapExceeded before any matrix is allocated.
    """
    lines = f.read().splitlines()
    header = lines[0] if lines else ""
    head = header.split()
    if head[:2] != [MAGIC, VERSION] or len(head) != 5:
        raise ValueError(f"bad header: {header!r}")
    n, m, d = (int(x) for x in head[2:])
    if n < 0 or m < 0 or d < 1:
        raise ValueError(f"bad header: {header!r} needs n, m >= 0 and d >= 1")
    check_cap(d, n + m, cap)
    size = d ** (n + m)
    if len(lines) < 2:
        raise ValueError("missing factor order line")
    order = parse_factor_order(lines[1].strip(), n, m)
    label_lines = lines[2:2 + size]
    if len(label_lines) != size:
        raise ValueError(f"expected {size} label lines, found {len(label_lines)}")
    basis = [_parse_label(line, d) for line in label_lines]
    if len(set(basis)) != size:
        raise ValueError("duplicate row labels")
    if basis != row_labels(n, m, d):
        raise ValueError(f"row labels must list the (gamma, p) blocks of {(n, m, d)}, q fastest")
    matrix = _read_rows(lines[2 + size:2 + 2 * size], size, size)
    if np.abs(matrix.imag).max() == 0.0:
        matrix = np.ascontiguousarray(matrix.real)
    return SchurTransform(n=n, m=m, d=d, factor_order=order, matrix=matrix)


def _parse_label(line: str, d: int) -> tuple[tuple[int, ...], int, int]:
    parts = line.split()
    fields = dict(part.partition("=")[::2] for part in parts)
    if len(parts) != 3 or sorted(fields) != ["gamma", "p", "q"]:
        raise ValueError(f"label line {line!r} must be gamma=<staircase> q=<idx> p=<idx>")
    gamma = parse_staircase(fields["gamma"])
    q, p = int(fields["q"]), int(fields["p"])
    if len(gamma) != d:
        raise ValueError(f"label line {line!r}: staircase length is not d = {d}")
    if not 0 <= q < dim(gamma):
        raise ValueError(f"label line {line!r}: q must be in 0..{dim(gamma) - 1}")
    if p < 0:
        raise ValueError(f"label line {line!r}: p must be >= 0")
    return gamma, q, p


def write_choi(f: TextIO, J: ChoiMatrix) -> None:
    f.write(f"{MAGIC} {VERSION} choi {J.m_in} {J.n_out} {J.d}\n")
    _write_rows(f, J.matrix)


def read_choi(f: TextIO, cap: int = DEFAULT_CAP) -> ChoiMatrix:
    """Parse a Choi matrix file; malformed content raises ValueError.

    The header needs integers m, n >= 0 and d >= 1; a size d^(m+n) over cap
    raises CapExceeded before any matrix is allocated.
    """
    lines = f.read().splitlines()
    m, n, d = _header_sizes(lines, "choi", 3)
    if m < 0 or n < 0 or d < 1:
        raise ValueError(f"bad header: {lines[0]!r} needs m, n >= 0 and d >= 1")
    check_cap(d, m + n, cap)
    size = d ** (m + n)
    return ChoiMatrix(n_out=n, m_in=m, d=d, matrix=_read_rows(lines[1:], size, size))


def write_matrix(f: TextIO, matrix: np.ndarray) -> None:
    matrix = np.atleast_2d(matrix)
    f.write(f"{MAGIC} {VERSION} matrix {matrix.shape[0]}\n")
    _write_rows(f, matrix)


def read_matrix(f: TextIO, cap: int = DEFAULT_CAP) -> np.ndarray:
    """Parse a plain matrix file; malformed content raises ValueError.

    The header needs an integer dim >= 1; dim over cap raises CapExceeded
    before any matrix is allocated.
    """
    lines = f.read().splitlines()
    (dim,) = _header_sizes(lines, "matrix", 1)
    if dim < 1:
        raise ValueError(f"bad header: {lines[0]!r} needs dim >= 1")
    if dim > cap:
        raise CapExceeded(f"matrix dimension {dim} exceeds cap {cap}")
    return _read_rows(lines[1:], dim, dim)


def dumps(writer, obj) -> str:
    buf = _io.StringIO()
    writer(buf, obj)
    return buf.getvalue()
