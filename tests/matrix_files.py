"""Test-side tools for mskit-matrix files: the version-1 writers, kept as
the oracle, and an editor for the entries of a version-2 row.

Version 1 spells every entry of a row as "re,im" with repr, a zero entry as
the literal "0.0,0.0", and puts one label line per row before the rows of a
transform.  mskit reads it but writes version 2; these writers let the tests
check that version-1 files still read bit for bit and that v1 -> v2 -> v1
round trips are byte-identical.
"""

import io

import numpy as np

from mskit.bratteli import row_labels
from mskit.io import MAGIC, ZERO
from mskit.staircase import format_staircase


def write_rows(f, matrix):
    # only entries with a set bit in either part are formatted; every other
    # entry is +0.0 + 0.0j, which repr spells ZERO
    for row in np.atleast_2d(matrix):
        re, im = row.real.astype(float), row.imag.astype(float)
        cols = np.flatnonzero(re.view(np.uint64) | im.view(np.uint64))
        tokens = [ZERO] * len(re)
        for k, a, b in zip(cols.tolist(), re[cols].tolist(), im[cols].tolist()):
            tokens[k] = f"{a!r},{b!r}"
        f.write(" ".join(tokens))
        f.write("\n")


def write_schur(f, W):
    f.write(f"{MAGIC} 1 {W.n} {W.m} {W.d}\n")
    f.write(W.factor_order + "\n")
    for g, q, p in row_labels(W.n, W.m, W.d):
        f.write(f"gamma={format_staircase(g)} q={q} p={p}\n")
    for a in range(0, W.size, 64):  # 64 rows of W at a time, never the dense W
        write_rows(f, W.take_rows(slice(a, a + 64)))


def write_choi(f, J):
    f.write(f"{MAGIC} 1 choi {J.m_in} {J.n_out} {J.d}\n")
    write_rows(f, J.matrix)


def write_matrix(f, matrix):
    matrix = np.atleast_2d(matrix)
    f.write(f"{MAGIC} 1 matrix {matrix.shape[0]}\n")
    write_rows(f, matrix)


def dumps(writer, obj):
    buf = io.StringIO()
    writer(buf, obj)
    return buf.getvalue()


def set_entry(line, col, token):
    """The version-2 row line with the entry in column col spelled token
    ("re,im"), every entry written with its column."""
    entries, c = {}, -1
    for t in line.split():
        head, colon, pair = t.rpartition(":")
        c = int(head) if colon else c + 1
        entries[c] = pair
    entries[col] = token
    return " ".join(f"{c}:{p}" for c, p in sorted(entries.items()))
