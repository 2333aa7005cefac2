"""The "mskit-matrix" text format for transforms, Choi matrices, and states.

Every file starts with a header line "mskit-matrix <version> ...", followed
by the matrix rows, one per line.  The writers emit version 2.  The readers
take versions 1 and 2, and the header's version picks the token rule of the
rows.  Floats are written in shortest round-trip form (repr), so identical
inputs produce byte-identical files.

Version 2 lists, in increasing column order, only the entries with a set bit
in either part: -0.0, subnormals, inf and nan are listed, +0.0 + 0.0j is not.
An entry whose column is one past the previous entry's (column 0 at the
start of a row) is written "re,im"; any other entry is written "c:re,im",
with c its column.  The tokens are separated by single spaces, and a
reader splits a version-2 row at its spaces only.  So an all-zero row is an
empty line, and a dense row is spelled exactly as in version 1.  A reader
takes re, im and c as Python floats; c must be a whole number in 0..D-1,
past the previous entry's column.

Version 1 spells every entry of a row as "re,im".  A zero entry is the
literal "0.0,0.0", and -0.0 keeps its sign ("-0.0,0.0").  A transform file
has one label line per row before the rows, and the labels must equal
row_labels(n, m, d), so version 2 leaves them out.

Every writer hands _write_rows the (row, column, value) entries of a few
rows: write_schur those of W.entries, so it reads no dense row, and the
Choi and plain matrix writers every entry.  write_schur formats each
distinct (re, im) pair once, as long as its memo holds fewer than
_MEMO_PAIRS pairs; then the memo starts over, so a transform with few
repeated values (a noisy or foreign W) costs a bounded memo.  The memo is
keyed by the bit patterns of the two float64 parts, never by their values,
since -0.0 == 0.0 and nan != nan.  A built transform repeats few values.
The Choi and plain matrix writers format each entry once, which costs less
on their dense rows than a memo does.

The readers take a file one line at a time and parse its rows in chunks of
about _CHUNK_ENTRIES entries through one row parser, _entries, with one
float map over the joined fields of a chunk.  read_choi and read_matrix
fill a dense matrix from it.  read_schur hands the entries straight to
SchurTransform.from_entries, which puts each one into the weight sectors,
so reading a transform holds neither the file's text nor a dense D x D
matrix.

Schur transform:   mskit-matrix 2 <n> <m> <d>
                   <factor order as +/- string>
                   <matrix rows>
Choi matrix:       mskit-matrix 2 choi <m> <n> <d>
                   <matrix rows>
Plain matrix:      mskit-matrix 2 matrix <dim>
                   <matrix rows>
A version-1 transform file has "gamma=<staircase> q=<idx> p=<idx>" label
lines, one per row, between the factor order and the rows.
"""

from __future__ import annotations

import functools
import io as _io
import itertools
import struct
from typing import Callable, Iterator, TextIO

import numpy as np

from .bratteli import DEFAULT_CAP, CapExceeded, check_cap, parse_factor_order, row_labels
from .channels import ChoiMatrix
from .schur import SchurTransform
from .staircase import dim, parse_staircase

MAGIC = "mskit-matrix"
VERSION = "2"  # the version the writers emit
VERSIONS = ("1", VERSION)  # the versions the readers take
ZERO = "0.0,0.0"  # the version-1 spelling of a +0.0 + 0.0j entry
_CHUNK_ENTRIES = 1 << 12  # the entries other than ZERO a reader holds as text at a time
# the entries of a Choi or plain matrix a writer formats at a time: a few
# dense rows, so a write holds little more text than one row
_WRITE_ENTRIES = 1 << 10
_WRITE_ROWS = 16  # the rows of a transform write_schur formats at a time
# the pairs write_schur's memo holds before it starts over: a built W has
# 4,600 distinct values at (5,5,2), 16,583 at (3,3,4)
_MEMO_PAIRS = 1 << 15

Spell = Callable[[np.ndarray, np.ndarray], list]  # (re, im) -> the "re,im" of each entry


def _spell(re: np.ndarray, im: np.ndarray) -> list[str]:
    # tolist hands repr Python floats directly
    return [f"{a!r},{b!r}" for a, b in zip(re.tolist(), im.tolist())]


class _Spellings(dict):
    """The "re,im" of each pair of float64 bit patterns (16 bytes), spelled
    once: a memo for the values a transform repeats."""

    def __missing__(self, key: bytes) -> str:
        a, b = struct.unpack("2d", key)
        value = self[key] = f"{a!r},{b!r}"
        return value


def _memo_spell() -> Spell:
    """_spell through a memo keyed by the bits of both parts, never by their
    values, since -0.0 == 0.0 and nan != nan.  The memo starts over once it
    holds _MEMO_PAIRS pairs, so a matrix of few repeats costs a bounded memo."""
    memo = _Spellings()

    def spell(re: np.ndarray, im: np.ndarray) -> list[str]:
        if len(memo) > _MEMO_PAIRS:
            memo.clear()
        keys = np.stack([re, im], axis=1).view("V16").ravel().tolist()
        return list(map(memo.__getitem__, keys))
    return spell


@functools.lru_cache(maxsize=4)
def _heads(width: int) -> tuple[str, ...]:
    """The "c:" that goes before an entry in column c < width.  Taking it
    from this tuple, not formatting it per entry, makes a D = 4096
    write_schur 10-20% faster."""
    return tuple(f"{c}:" for c in range(width))


def _write_rows(f: TextIO, count: int, width: int, r: np.ndarray, c: np.ndarray,
                v: np.ndarray, spell: Spell = _spell) -> None:
    """Write count rows of width columns in version 2, W[r[s], c[s]] = v[s],
    formatted in one pass: the entries with a set bit, sorted unless they are
    row-major with increasing columns already; every other entry is +0.0."""
    re, im = (np.asarray(part, dtype=float) for part in (v.real, v.imag))
    keep = np.flatnonzero(re.view(np.uint64) | im.view(np.uint64))
    place = r[keep] * width + c[keep]
    if np.any(place[1:] <= place[:-1]):  # not row-major with increasing columns
        keep = keep[np.argsort(place)]
    r, c, re, im = r[keep], c[keep], re[keep], im[keep]
    tokens = spell(re, im)
    previous = np.concatenate([[-1], c[:-1]])  # the column before each entry's
    previous[np.flatnonzero(np.diff(r, prepend=-1))] = -1  # row starts
    jumps = np.flatnonzero(c != previous + 1)
    heads = _heads(width)
    for k, col in zip(jumps.tolist(), c[jumps].tolist()):
        tokens[k] = heads[col] + tokens[k]
    bounds = np.searchsorted(r, np.arange(count + 1)).tolist()
    f.write("".join(" ".join(tokens[i:j]) + "\n" for i, j in zip(bounds[:-1], bounds[1:])))


def _write_dense(f: TextIO, matrix: np.ndarray) -> None:
    """Write the rows of a Choi or plain matrix, as many at a time as hold
    _WRITE_ENTRIES entries."""
    step = max(1, _WRITE_ENTRIES // matrix.shape[1])
    for a in range(0, len(matrix), step):
        block = matrix[a:a + step]
        _write_rows(f, *block.shape, *np.indices(block.shape).reshape(2, -1), block.ravel())


def _lines(f: TextIO) -> Iterator[str]:
    """The lines of f one at a time, without their line ends.  readline, not
    iteration, so that f.tell() still works afterwards."""
    return (line.rstrip("\r\n") for line in iter(f.readline, ""))


def _check_pair(row: int, token: str, pair: str) -> None:
    try:
        re_s, im_s = pair.split(",")
        float(re_s), float(im_s)
    except ValueError:
        raise ValueError(f"row {row}: entry {token!r} is not a re,im pair of floats") from None


def _check_token(row: int, token: str, previous: int, dim_cols: int) -> int:
    """The column of a version-2 token after an entry in column previous, or
    ValueError naming what is wrong with it."""
    col, colon, pair = token.partition(":")
    if not colon:
        col, pair = previous + 1, token
    _check_pair(row, token, pair)
    if colon:
        try:
            c = float(col)
            whole = c == int(c)  # int raises on nan and inf
        except (ValueError, OverflowError):
            whole = False
        if not whole:
            raise ValueError(f"row {row}: entry {token!r}: column {col!r} is not a whole number")
        col = int(c)
    if not 0 <= col < dim_cols:
        raise ValueError(f"row {row}: entry {token!r}: column {col} is outside 0..{dim_cols - 1}")
    if col <= previous:
        raise ValueError(f"row {row}: entry {token!r}: column {col} does not follow "
                         f"column {previous}")
    return col


def _entries(lines: Iterator[str], dim_rows: int, dim_cols: int,
             version: str) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """(r, c, v) of the next dim_rows matrix rows of lines, a chunk of rows at a time.

    Row r[s] has the complex entry v[s] in column c[s], in row-major order;
    every entry left out (a version-1 ZERO token, or a column a version-2 row
    does not list) is +0.0 + 0.0j.  A chunk ends with the row that brings its
    entries to _CHUNK_ENTRIES, and they are parsed in one pass.  The first
    malformed row, in row order, is named.
    """
    # the rows first, first + 1, ... of this chunk: the entries of each, their
    # columns in version 1, and their text, as version-1 tokens other than ZERO
    # or as nonempty version-2 lines
    counts, cols, parts, first = [], [], [], 0

    def name_the_first_bad_token(r):
        previous = -1
        for s, p in enumerate(" ".join(parts).split(" ")):
            if version == "1":
                _check_pair(r[s], p, p)
            else:
                previous = _check_token(r[s], p, -1 if s == 0 or r[s] != r[s - 1] else previous,
                                        dim_cols)

    def columns_and_values() -> tuple[np.ndarray, np.ndarray]:
        # a token is "re,im", or in version 2 also "c:re,im"; the column of a
        # version-2 "re,im" is its place in the row past the last c before it,
        # or its place in the row
        n = sum(counts)
        text = " ".join(parts)
        # the token of each comma and colon, from the spaces before it: no
        # byte of a multi-byte UTF-8 character is ASCII
        b = np.frombuffer(text.encode(), np.uint8)
        spaces = np.flatnonzero(b == 32)
        comma_at, colon_at = np.flatnonzero(b == 44), np.flatnonzero(b == 58)
        tok = np.searchsorted(spaces, colon_at)
        if (len(comma_at) != n or np.any(np.searchsorted(spaces, comma_at) != np.arange(n))
                or len(tok) and (version == "1" or np.any(np.diff(tok) == 0)
                                 or np.any(comma_at[tok] < colon_at))):
            # not one comma in each of n tokens, at most one colon before it
            raise ValueError
        has = np.zeros(n, dtype=bool)
        has[tok] = True
        # every field of the chunk, c, re and im alike, in one float map
        fields = np.fromiter(map(float, text.replace(" ", ",").replace(":", ",").split(",")),
                             float, 2 * n + len(tok))
        at = np.cumsum(has + 2) - 2  # the field of each token's re
        v = np.empty(n, dtype=complex)
        v.real, v.imag = fields[at], fields[at + 1]
        if version == "1":
            return np.array(cols, dtype=np.intp), v
        col = np.arange(n) - np.repeat(np.cumsum(counts) - counts, counts)
        if len(tok):
            lead = np.zeros(n)
            lead[has] = fields[at[has] - 1] - col[has]
            anchor = np.maximum.accumulate(np.where(has | (col == 0), np.arange(n), 0))
            explicit = np.flatnonzero(has & (col > 0))
            col = col + lead[anchor]
            if np.any(col[has] != np.floor(col[has])) or np.any(col[explicit] <= col[explicit - 1]):
                raise ValueError
        if np.any(col < 0) or np.any(col >= dim_cols):
            raise ValueError
        return col.astype(np.intp), v

    def parse():
        r = np.repeat(np.arange(first, first + len(counts)), counts)
        if not parts:
            return r, np.empty(0, dtype=np.intp), np.empty(0, dtype=complex)
        try:
            return (r, *columns_and_values())
        except ValueError:
            name_the_first_bad_token(r)
            raise

    found = entries = 0
    for found, line in enumerate(itertools.islice(lines, dim_rows), 1):
        if version == "1":
            tokens = line.split()
            if len(tokens) != dim_cols:
                parse()  # a bad entry in an earlier row is named first
                raise ValueError(f"row {found - 1}: expected {dim_cols} entries, "
                                 f"found {len(tokens)}")
            keep = [k for k, p in enumerate(tokens) if p != ZERO]
            cols += keep
            parts += map(tokens.__getitem__, keep)
            counts.append(len(keep))
        else:  # the tokens are counted by their spaces, and split in the chunk's text
            counts.append(line.count(" ") + 1 if line else 0)
            if line:
                parts.append(line)
        entries += counts[-1]
        if entries >= _CHUNK_ENTRIES:
            yield parse()
            counts, cols, parts, first, entries = [], [], [], found, 0
    if counts:
        yield parse()
    if found != dim_rows:
        raise ValueError(f"expected {dim_rows} matrix rows, found {found}")


def _read_dense(lines: Iterator[str], dim_rows: int, dim_cols: int,
                version: str) -> np.ndarray:
    """The dense complex matrix of the rest of lines, which must be exactly its rows."""
    matrix = np.zeros((dim_rows, dim_cols), dtype=complex)
    for r, c, v in _entries(lines, dim_rows, dim_cols, version):
        matrix[r, c] = v
    extra = sum(1 for _ in lines)
    if extra:
        raise ValueError(f"expected {dim_rows} matrix rows, found {dim_rows + extra}")
    return matrix


def _header_sizes(header: str, count: int, kind: str | None = None) -> tuple[str, list[int]]:
    """The version and the count integer fields of a "mskit-matrix <version>
    [<kind>] ..." header line."""
    head, lead = header.split(), [MAGIC] + ([kind] if kind else [])
    if (len(head) != len(lead) + 1 + count or head[1] not in VERSIONS
            or head[:1] + head[2:len(lead) + 1] != lead):
        raise ValueError(f"bad header: {header!r}")
    try:
        return head[1], [int(x) for x in head[len(lead) + 1:]]
    except ValueError:
        raise ValueError(f"bad header: {header!r} needs integer sizes") from None


def write_schur(f: TextIO, W: SchurTransform) -> None:
    f.write(f"{MAGIC} {VERSION} {W.n} {W.m} {W.d}\n")
    f.write(W.factor_order + "\n")
    spell = _memo_spell()
    for a in range(0, W.size, _WRITE_ROWS):  # the stored entries, never a dense row
        rows = np.arange(a, min(a + _WRITE_ROWS, W.size))
        _write_rows(f, len(rows), W.size, *W.entries(rows), spell)


def read_schur(f: TextIO, cap: int = DEFAULT_CAP) -> SchurTransform:
    """Parse a transform file; malformed content raises ValueError.

    In a version-1 file the labels must be distinct, with staircases of
    length d, 0 <= q < dim(gamma) and p >= 0, and must equal row_labels(n,
    m, d), the labels of every transform of that shape.  A size d^(n+m) over
    cap raises CapExceeded before any matrix is allocated.  The rows go
    straight into the weight sectors; lines after them are not read.
    """
    lines = _lines(f)
    header = next(lines, "")
    version, (n, m, d) = _header_sizes(header, 3)
    if n < 0 or m < 0 or d < 1:
        raise ValueError(f"bad header: {header!r} needs n, m >= 0 and d >= 1")
    check_cap(d, n + m, cap)
    size = d ** (n + m)
    order = next(lines, None)
    if order is None:
        raise ValueError("missing factor order line")
    order = parse_factor_order(order.strip(), n, m)
    if version == "1":
        _read_labels(lines, n, m, d)
    entries = _entries(lines, size, size, version)
    return SchurTransform.from_entries(n, m, d, order, entries)


def _read_labels(lines: Iterator[str], n: int, m: int, d: int) -> None:
    size = d ** (n + m)
    label_lines = list(itertools.islice(lines, size))
    if len(label_lines) != size:
        raise ValueError(f"expected {size} label lines, found {len(label_lines)}")
    basis = [_parse_label(line, d) for line in label_lines]
    if len(set(basis)) != size:
        raise ValueError("duplicate row labels")
    if basis != row_labels(n, m, d):
        raise ValueError(f"row labels must list the (gamma, p) blocks of {(n, m, d)}, q fastest")


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
    _write_dense(f, J.matrix)


def read_choi(f: TextIO, cap: int = DEFAULT_CAP) -> ChoiMatrix:
    """Parse a Choi matrix file; malformed content raises ValueError.

    The header needs integers m, n >= 0 and d >= 1; a size d^(m+n) over cap
    raises CapExceeded before any matrix is allocated.
    """
    lines = _lines(f)
    header = next(lines, "")
    version, (m, n, d) = _header_sizes(header, 3, "choi")
    if m < 0 or n < 0 or d < 1:
        raise ValueError(f"bad header: {header!r} needs m, n >= 0 and d >= 1")
    check_cap(d, m + n, cap)
    size = d ** (m + n)
    return ChoiMatrix(n_out=n, m_in=m, d=d, matrix=_read_dense(lines, size, size, version))


def write_matrix(f: TextIO, matrix: np.ndarray) -> None:
    matrix = np.atleast_2d(matrix)
    f.write(f"{MAGIC} {VERSION} matrix {matrix.shape[0]}\n")
    _write_dense(f, matrix)


def read_matrix(f: TextIO, cap: int = DEFAULT_CAP) -> np.ndarray:
    """Parse a plain matrix file; malformed content raises ValueError.

    The header needs an integer dim >= 1; dim over cap raises CapExceeded
    before any matrix is allocated.
    """
    lines = _lines(f)
    header = next(lines, "")
    version, (dim,) = _header_sizes(header, 1, "matrix")
    if dim < 1:
        raise ValueError(f"bad header: {header!r} needs dim >= 1")
    if dim > cap:
        raise CapExceeded(f"matrix dimension {dim} exceeds cap {cap}")
    return _read_dense(lines, dim, dim, version)


def dumps(writer, obj) -> str:
    buf = _io.StringIO()
    writer(buf, obj)
    return buf.getvalue()
