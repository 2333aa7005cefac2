"""Gelfand-Tsetlin patterns for rational irreps of U(d).

A GT pattern is a triangular array of integers: a top row of length d equal to
the irrep staircase, and below it rows of length d-1, ..., 1, each interlacing
the row above.  Entries may be negative.  Each pattern labels one vector of
the subgroup-adapted basis for the chain U(d) > U(d-1) > ... > U(1), where
U(k) acts on the first k coordinates: row k of the pattern is the U(k) irrep
the vector lives in.

Patterns are stored as tuples of rows, top row first, e.g. ((2, -1), (0,)).

Canonical pattern order: patterns of a fixed staircase are sorted by their
flattened row sequence (top row first) in descending lexicographic order.
With this choice the second row is the leading sort key, so the U(d-1)
isotypic blocks reported by :func:`subduce` are contiguous, and the basis
vector carrying weight w precedes the one carrying weight w' whenever
w > w' lexicographically.
"""

from __future__ import annotations

import itertools
from collections.abc import Mapping
from functools import lru_cache
from types import MappingProxyType
from typing import NamedTuple

import numpy as np

from ._arrays import group, readonly
from .staircase import Staircase, dim, interlaces, validate

GTPattern = tuple[tuple[int, ...], ...]


@lru_cache(maxsize=None)
def interlacing_set(gamma: Staircase) -> tuple[Staircase, ...]:
    """All length d-1 staircases interlacing gamma, in descending lex order."""
    gamma = validate(gamma)
    d = len(gamma)
    if d == 1:
        return ()
    ranges = [range(gamma[i], gamma[i + 1] - 1, -1) for i in range(d - 1)]
    return tuple(mu for mu in itertools.product(*ranges)
                 if all(mu[i] >= mu[i + 1] for i in range(d - 2)))


@lru_cache(maxsize=None)
def enumerate_patterns(gamma: Staircase) -> tuple[GTPattern, ...]:
    """All GT patterns with top row gamma, in canonical (descending) order."""
    gamma = validate(gamma)
    if len(gamma) == 1:
        return ((gamma,),)
    out: list[GTPattern] = []
    for mu in interlacing_set(gamma):
        for sub in enumerate_patterns(mu):
            out.append((gamma,) + sub)
    out.sort(key=_flat, reverse=True)
    pats = tuple(out)
    assert len(pats) == dim(gamma)
    return pats


def _flat(pattern: GTPattern) -> tuple[int, ...]:
    return tuple(itertools.chain.from_iterable(pattern))


def is_valid_pattern(pattern: GTPattern) -> bool:
    rows = tuple(tuple(r) for r in pattern)
    d = len(rows)
    if any(len(rows[k]) != d - k for k in range(d)):
        return False
    for k in range(d - 1):
        try:
            if not interlaces(rows[k + 1], rows[k]):
                return False
        except ValueError:
            return False
    return True


def pattern_weight(pattern: GTPattern) -> tuple[int, ...]:
    """Weight vector (w_1, ..., w_d): w_k = sum(row with k entries) - sum(row with k-1).

    A diagonal unitary diag(e^{i t_1}, ..., e^{i t_d}) acts on the basis
    vector labeled by this pattern with phase exp(i sum_k w_k t_k).
    """
    d = len(pattern[0])
    sums = [0] * (d + 1)
    for row in pattern:
        sums[len(row)] = sum(row)
    return tuple(sums[k] - sums[k - 1] for k in range(1, d + 1))


@lru_cache(maxsize=None)
def pattern_weights(gamma: Staircase) -> np.ndarray:
    """Read-only int64 array of shape (dim(gamma), d): row k is the
    pattern_weight of enumerate_patterns(gamma)[k].

    Built from the second rows down, as the patterns are: the patterns with
    second row mu' are those of mu' under gamma, in their canonical order, in
    the order of interlacing_set(gamma), and each adds the weight entry
    sum(gamma) - sum(mu') to the weights of mu'.
    """
    gamma = validate(gamma)
    if len(gamma) == 1:
        out = np.array([gamma], dtype=np.int64)
    else:
        out = np.concatenate([
            np.column_stack([pattern_weights(mu),
                             np.full(dim(mu), sum(gamma) - sum(mu), dtype=np.int64)])
            for mu in interlacing_set(gamma)])
    return readonly(out)[0]


def index_of(pattern: GTPattern) -> int:
    """Position of the pattern in the canonical order of its staircase."""
    gamma = tuple(pattern[0])
    try:
        return _index_map(gamma)[tuple(tuple(r) for r in pattern)]
    except KeyError:
        raise ValueError(f"not a valid pattern of {gamma}: {pattern}") from None


def pattern_at(gamma: Staircase, idx: int) -> GTPattern:
    """Inverse of :func:`index_of`."""
    pats = enumerate_patterns(tuple(gamma))
    if not 0 <= idx < len(pats):
        raise ValueError(f"pattern index {idx} out of range for {gamma} (dim {len(pats)})")
    return pats[idx]


@lru_cache(maxsize=None)
def _index_map(gamma: Staircase) -> dict[GTPattern, int]:
    return {p: k for k, p in enumerate(enumerate_patterns(gamma))}


@lru_cache(maxsize=None)
def subduce(gamma: Staircase) -> tuple[tuple[Staircase, int, int], ...]:
    """Contiguous blocks of the canonical pattern order grouped by second row.

    Returns (mu', offset, count) triples: the patterns with second row mu'
    occupy indices [offset, offset + count), and count = dim(mu').  This is
    the multiplicity-free restriction of the irrep gamma to U(d-1).
    """
    gamma = validate(gamma)
    if len(gamma) < 2:
        raise ValueError("subduce needs d >= 2")
    out = []
    offset = 0
    for mu in interlacing_set(gamma):
        c = dim(mu)
        out.append((mu, offset, c))
        offset += c
    assert offset == dim(gamma)
    return tuple(out)


@lru_cache(maxsize=None)
def subduce_offsets(gamma: Staircase) -> Mapping[Staircase, int]:
    """Second row -> offset map derived from :func:`subduce`, read-only."""
    return MappingProxyType({mu: off for mu, off, _ in subduce(gamma)})


class _Weights(NamedTuple):
    """The GT patterns of one staircase grouped by weight.

    weights[k] is the k-th distinct pattern weight; pattern q has the weight
    weights[of[q]] and is the rank[q]-th pattern of it, and the patterns of
    weight k are order[first[k]:first[k] + count[k]], in increasing order.
    """

    weights: np.ndarray
    of: np.ndarray
    rank: np.ndarray
    order: np.ndarray
    first: np.ndarray
    count: np.ndarray


def _row_keys(a: np.ndarray) -> np.ndarray:
    """One opaque key per row of an integer array, equal for equal rows."""
    a = np.ascontiguousarray(a, dtype=np.int64)
    return a.view(np.dtype((np.void, 8 * a.shape[1]))).reshape(-1)


@lru_cache(maxsize=None)
def _by_weight(gamma: Staircase) -> _Weights:
    """_Weights of the GT patterns of gamma; every array is read-only."""
    pw = pattern_weights(gamma)
    of = np.unique(_row_keys(pw), return_inverse=True)[1].reshape(-1)
    order, first, count, rank = group(of)
    return _Weights(*readonly(pw[order[first]], of, rank, order, first, count))
