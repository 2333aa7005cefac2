"""The "mskit-matrix" text format for transforms, Choi matrices, and states.

All files start with a header line "mskit-matrix 1 ...".  Matrix rows are
written one per line, entries as "re,im" pairs separated by single spaces,
using shortest round-trip float formatting; identical inputs produce byte
identical files.  A zero entry is the literal "0.0,0.0"; -0.0 keeps its sign
("-0.0,0.0").  The writer formats, and the reader parses, only the other
entries, so either costs one scan of the tokens plus the nonzero entries.

The readers take a file one line at a time and parse its rows in chunks of
about _CHUNK_ENTRIES entries through one row parser, _entries.  read_choi
and read_matrix fill a dense matrix from it; read_schur hands the entries
straight to SchurTransform.from_entries, which puts each one into the
weight sectors, so reading a transform holds neither the file's text nor a
dense D x D matrix.

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
from typing import Iterator, TextIO

import numpy as np

from .bratteli import DEFAULT_CAP, CapExceeded, check_cap, parse_factor_order, row_labels
from .channels import ChoiMatrix
from .schur import SchurTransform
from .staircase import dim, format_staircase, parse_staircase

MAGIC = "mskit-matrix"
VERSION = "1"
ZERO = "0.0,0.0"  # the spelling of a +0.0 + 0.0j entry
_CHUNK_ENTRIES = 1 << 12  # the entries other than ZERO a reader holds as text at a time


def _write_rows(f: TextIO, matrix: np.ndarray) -> None:
    # only entries with a set bit in either part are formatted; every other
    # entry is +0.0 + 0.0j, which repr spells ZERO.  tolist hands repr Python
    # floats directly, and one row at a time bounds the Python objects
    for row in np.atleast_2d(matrix):
        re, im = row.real.astype(float), row.imag.astype(float)
        cols = np.flatnonzero(re.view(np.uint64) | im.view(np.uint64))
        tokens = [ZERO] * len(re)
        for k, a, b in zip(cols.tolist(), re[cols].tolist(), im[cols].tolist()):
            tokens[k] = f"{a!r},{b!r}"
        f.write(" ".join(tokens))
        f.write("\n")


def _lines(f: TextIO) -> Iterator[str]:
    """The lines of f one at a time, without their line ends.  readline, not
    iteration, so that f.tell() still works afterwards."""
    return (line.rstrip("\r\n") for line in iter(f.readline, ""))


def _entries(lines: Iterator[str], dim_rows: int,
             dim_cols: int) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """(r, c, v) of the next dim_rows matrix rows of lines, a chunk of rows at a time.

    Row r[s] has the complex entry v[s] in column c[s], in row-major order;
    a ZERO token gives no entry, so every entry left out is +0.0 + 0.0j.  A
    chunk ends with the row that brings its entries to _CHUNK_ENTRIES, and
    they are parsed in one pass.  The first malformed row, in row order, is
    named.
    """
    commas = itertools.repeat(",")
    counts, cols, parts, first = [], [], [], 0  # the rows first, first + 1, ... of this chunk

    def parse():
        r = np.repeat(np.arange(first, first + len(counts)), counts)
        c = np.array(cols, dtype=np.intp)
        if not parts:
            return r, c, np.empty(0, dtype=complex)
        try:
            if set(map(str.count, parts, commas)) != {1}:
                raise ValueError
            pairs = np.fromiter(map(float, ",".join(parts).split(",")), float, 2 * len(parts))
        except ValueError:
            for s, p in enumerate(parts):  # the first entry that is not a re,im pair of floats
                try:
                    re_s, im_s = p.split(",")
                    float(re_s), float(im_s)
                except ValueError:
                    raise ValueError(f"row {r[s]}: entry {p!r} is not a re,im pair "
                                     "of floats") from None
            raise
        return r, c, pairs.view(complex)

    found = 0
    for found, line in enumerate(itertools.islice(lines, dim_rows), 1):
        tokens = line.split()
        if len(tokens) != dim_cols:
            parse()  # a bad entry in an earlier row is named first
            raise ValueError(f"row {found - 1}: expected {dim_cols} entries, found {len(tokens)}")
        keep = [k for k, p in enumerate(tokens) if p != ZERO]
        counts.append(len(keep))
        cols += keep
        parts += map(tokens.__getitem__, keep)
        if len(parts) >= _CHUNK_ENTRIES:
            yield parse()
            counts, cols, parts, first = [], [], [], found
    if counts:
        yield parse()
    if found != dim_rows:
        raise ValueError(f"expected {dim_rows} matrix rows, found {found}")


def _read_dense(lines: Iterator[str], dim_rows: int, dim_cols: int) -> np.ndarray:
    """The dense complex matrix of the rest of lines, which must be exactly its rows."""
    matrix = np.zeros((dim_rows, dim_cols), dtype=complex)
    for r, c, v in _entries(lines, dim_rows, dim_cols):
        matrix[r, c] = v
    extra = sum(1 for _ in lines)
    if extra:
        raise ValueError(f"expected {dim_rows} matrix rows, found {dim_rows + extra}")
    return matrix


def _header_sizes(header: str, kind: str, count: int) -> list[int]:
    """The integer fields of a "mskit-matrix 1 <kind> ..." header line."""
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
    for a in range(0, W.size, 64):  # 64 rows of W at a time, never the dense W
        _write_rows(f, W.take_rows(slice(a, a + 64)))


def read_schur(f: TextIO, cap: int = DEFAULT_CAP) -> SchurTransform:
    """Parse a transform file; malformed content raises ValueError.

    The labels must be distinct, with staircases of length d, 0 <= q <
    dim(gamma) and p >= 0, and must equal row_labels(n, m, d), the labels of
    every transform of that shape.  A size d^(n+m) over cap raises
    CapExceeded before any matrix is allocated.  The rows go straight into
    the weight sectors; lines after them are not read.
    """
    lines = _lines(f)
    header = next(lines, "")
    head = header.split()
    if head[:2] != [MAGIC, VERSION] or len(head) != 5:
        raise ValueError(f"bad header: {header!r}")
    n, m, d = (int(x) for x in head[2:])
    if n < 0 or m < 0 or d < 1:
        raise ValueError(f"bad header: {header!r} needs n, m >= 0 and d >= 1")
    check_cap(d, n + m, cap)
    size = d ** (n + m)
    order = next(lines, None)
    if order is None:
        raise ValueError("missing factor order line")
    order = parse_factor_order(order.strip(), n, m)
    label_lines = list(itertools.islice(lines, size))
    if len(label_lines) != size:
        raise ValueError(f"expected {size} label lines, found {len(label_lines)}")
    basis = [_parse_label(line, d) for line in label_lines]
    if len(set(basis)) != size:
        raise ValueError("duplicate row labels")
    if basis != row_labels(n, m, d):
        raise ValueError(f"row labels must list the (gamma, p) blocks of {(n, m, d)}, q fastest")
    return SchurTransform.from_entries(n, m, d, order, _entries(lines, size, size))


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
    lines = _lines(f)
    header = next(lines, "")
    m, n, d = _header_sizes(header, "choi", 3)
    if m < 0 or n < 0 or d < 1:
        raise ValueError(f"bad header: {header!r} needs m, n >= 0 and d >= 1")
    check_cap(d, m + n, cap)
    size = d ** (m + n)
    return ChoiMatrix(n_out=n, m_in=m, d=d, matrix=_read_dense(lines, size, size))


def write_matrix(f: TextIO, matrix: np.ndarray) -> None:
    matrix = np.atleast_2d(matrix)
    f.write(f"{MAGIC} {VERSION} matrix {matrix.shape[0]}\n")
    _write_rows(f, matrix)


def read_matrix(f: TextIO, cap: int = DEFAULT_CAP) -> np.ndarray:
    """Parse a plain matrix file; malformed content raises ValueError.

    The header needs an integer dim >= 1; dim over cap raises CapExceeded
    before any matrix is allocated.
    """
    lines = _lines(f)
    header = next(lines, "")
    (dim,) = _header_sizes(header, "matrix", 1)
    if dim < 1:
        raise ValueError(f"bad header: {header!r} needs dim >= 1")
    if dim > cap:
        raise CapExceeded(f"matrix dimension {dim} exceeds cap {cap}")
    return _read_dense(lines, dim, dim)


def dumps(writer, obj) -> str:
    buf = _io.StringIO()
    writer(buf, obj)
    return buf.getvalue()
