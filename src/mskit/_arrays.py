"""Index arithmetic shared by the layers: ranges laid end to end, groups of
indices by key, and read-only tables.

Weight conservation makes every layer group indices by weight and lay ranges
of them end to end: the GT patterns of a staircase (gelfand), the rows and
columns of the weight sectors (schur), the recursion levels of a coupling
(cg) and the on-weight entries of a Choi matrix (channels).  The tables
these build are cached and shared, so they are made read-only.
"""

from __future__ import annotations

import numpy as np


def spans(starts, lengths: np.ndarray) -> np.ndarray:
    """The ranges starts[i] + arange(lengths[i]) laid end to end; starts may
    be a scalar."""
    ends = lengths.cumsum()
    return np.arange(ends[-1] if len(ends) else 0) + (starts - (ends - lengths)).repeat(lengths)


def ranges(lengths: np.ndarray, starts=0) -> tuple[np.ndarray, np.ndarray]:
    """(owner, at) of the ranges starts[i] + arange(lengths[i]) laid end to
    end: entry s is at[s], of range owner[s]."""
    owner = np.arange(len(lengths)).repeat(lengths)
    ends = lengths.cumsum()
    return owner, np.arange(len(owner)) + (starts - (ends - lengths))[owner]


def group(key: np.ndarray, groups: int = 0) -> tuple[np.ndarray, ...]:
    """(order, first, count, rank) of the indices grouped by their key, a
    nonnegative integer, at least `groups` groups.

    The indices of key k are order[first[k]:first[k] + count[k]], in
    increasing order, and index i is the rank[i]-th of its key.
    """
    order = np.argsort(key, kind="stable")
    count = np.bincount(key, minlength=groups)
    first = np.cumsum(count) - count
    rank = np.empty(len(key), dtype=np.intp)
    rank[order] = np.arange(len(key)) - np.repeat(first, count)
    return order, first, count, rank


def readonly(*arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    """The arrays, each made read-only in place."""
    for x in arrays:
        x.setflags(write=False)
    return arrays
