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
from typing import TextIO

import numpy as np

from .bratteli import DEFAULT_CAP, CapExceeded
from .channels import ChoiMatrix
from .schur import SchurTransform, parse_factor_order
from .staircase import dim, format_staircase, parse_staircase

MAGIC = "mskit-matrix"
VERSION = "1"


def _fmt_entry(z: complex) -> str:
    return f"{float(z.real)!r},{float(z.imag)!r}"


def _write_rows(f: TextIO, matrix: np.ndarray) -> None:
    for row in np.atleast_2d(matrix):
        f.write(" ".join(_fmt_entry(z) for z in row))
        f.write("\n")


def _read_rows(lines: list[str], dim_rows: int, dim_cols: int) -> np.ndarray:
    if len(lines) != dim_rows:
        raise ValueError(f"expected {dim_rows} matrix rows, found {len(lines)}")
    out = np.empty((dim_rows, dim_cols), dtype=complex)
    for r, line in enumerate(lines):
        parts = line.split()
        if len(parts) != dim_cols:
            raise ValueError(f"row {r}: expected {dim_cols} entries, found {len(parts)}")
        for c, p in enumerate(parts):
            re_s, im_s = p.split(",")
            out[r, c] = complex(float(re_s), float(im_s))
    return out


def write_schur(f: TextIO, W: SchurTransform) -> None:
    f.write(f"{MAGIC} {VERSION} {W.n} {W.m} {W.d}\n")
    f.write(W.factor_order + "\n")
    for g, q, p in W.basis:
        f.write(f"gamma={format_staircase(g)} q={q} p={p}\n")
    _write_rows(f, W.matrix)


def read_schur(f: TextIO, cap: int = DEFAULT_CAP) -> SchurTransform:
    """Parse a transform file; malformed content raises ValueError.

    The labels must be distinct, with staircases of length d, 0 <= q <
    dim(gamma) and p >= 0, and must list complete (gamma, p) blocks in the
    order build_mixed_schur writes them, which the verification routines
    rely on.  A size d^(n+m) over cap raises CapExceeded before any matrix
    is allocated.
    """
    lines = f.read().splitlines()
    header = lines[0] if lines else ""
    head = header.split()
    if head[:2] != [MAGIC, VERSION] or len(head) != 5:
        raise ValueError(f"bad header: {header!r}")
    n, m, d = (int(x) for x in head[2:])
    if n < 0 or m < 0 or d < 1:
        raise ValueError(f"bad header: {header!r} needs n, m >= 0 and d >= 1")
    # d >= 2 and n + m >= cap.bit_length() already exceed the cap: no huge power
    if (d > 1 and n + m >= cap.bit_length()) or d ** (n + m) > cap:
        raise CapExceeded(f"d^(n+m) = {d}^{n + m} exceeds cap {cap}")
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
    mult: dict[tuple[int, ...], int] = {}
    for g, _, p in basis:
        mult[g] = max(mult.get(g, 0), p + 1)
    if basis != [(g, q, p) for g in sorted(mult) for p in range(mult[g])
                 for q in range(dim(g))]:
        raise ValueError("row labels must list complete (gamma, p) blocks in "
                         "ascending order, q fastest")
    matrix = _read_rows(lines[2 + size:2 + 2 * size], size, size)
    if np.abs(matrix.imag).max() == 0.0:
        matrix = matrix.real
    return SchurTransform(n=n, m=m, d=d, factor_order=order, matrix=matrix, basis=basis)


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


def read_choi(f: TextIO) -> ChoiMatrix:
    lines = f.read().splitlines()
    head = lines[0].split()
    if head[:3] != [MAGIC, VERSION, "choi"] or len(head) != 6:
        raise ValueError(f"bad header: {lines[0]!r}")
    m, n, d = (int(x) for x in head[3:])
    size = d ** (m + n)
    return ChoiMatrix(n_out=n, m_in=m, d=d, matrix=_read_rows(lines[1:], size, size))


def write_matrix(f: TextIO, matrix: np.ndarray) -> None:
    matrix = np.atleast_2d(matrix)
    f.write(f"{MAGIC} {VERSION} matrix {matrix.shape[0]}\n")
    _write_rows(f, matrix)


def read_matrix(f: TextIO) -> np.ndarray:
    lines = f.read().splitlines()
    head = lines[0].split()
    if head[:3] != [MAGIC, VERSION, "matrix"] or len(head) != 4:
        raise ValueError(f"bad header: {lines[0]!r}")
    dim = int(head[3])
    return _read_rows(lines[1:], dim, dim)


def dumps(writer, obj) -> str:
    buf = _io.StringIO()
    writer(buf, obj)
    return buf.getvalue()
