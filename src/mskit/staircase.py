"""Staircases: weakly decreasing integer tuples labeling rational irreps of U(d).

A staircase (g_1 >= g_2 >= ... >= g_d) with entries of either sign labels a
rational irrep of the unitary group U(d).  Nonnegative staircases are ordinary
Young diagrams (padded with zeros); a general staircase splits into a pair of
Young diagrams [alpha, beta] where alpha collects the positive entries and beta
the negated, reversed negative entries.

Staircases are plain tuples of ints throughout this package; the tuple length
is the rank d.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable

Staircase = tuple[int, ...]


def is_valid(entries: Iterable[int]) -> bool:
    """True iff the entries are integers in weakly decreasing order."""
    t = tuple(entries)
    if not t or any(not isinstance(x, int) for x in t):
        return False
    return all(t[i] >= t[i + 1] for i in range(len(t) - 1))


def validate(gamma: Staircase) -> Staircase:
    gamma = tuple(gamma)
    if not is_valid(gamma):
        raise ValueError(f"not a staircase: {gamma}")
    return gamma


def add_box_set(gamma: Staircase) -> list[Staircase]:
    """All gamma + e_j that are still weakly decreasing, in canonical order.

    These are the irreps appearing in the tensor product with the defining
    irrep.  Never empty: j=1 always works.
    """
    gamma = validate(gamma)
    out = []
    for j in range(len(gamma)):
        cand = gamma[:j] + (gamma[j] + 1,) + gamma[j + 1:]
        if is_valid(cand):
            out.append(cand)
    return sorted(out)


def remove_box_set(gamma: Staircase) -> list[Staircase]:
    """All gamma - e_j that are still weakly decreasing, in canonical order.

    These are the irreps appearing in the tensor product with the dual
    defining irrep.  Never empty: j=d always works.
    """
    gamma = validate(gamma)
    out = []
    for j in range(len(gamma)):
        cand = gamma[:j] + (gamma[j] - 1,) + gamma[j + 1:]
        if is_valid(cand):
            out.append(cand)
    return sorted(out)


def interlaces(mu: Staircase, gamma: Staircase) -> bool:
    """Betweenness condition g_1 >= m_1 >= g_2 >= ... >= m_{d-1} >= g_d.

    mu must be one entry shorter than gamma.  This is exactly the branching
    condition for restricting a U(d) irrep to U(d-1).
    """
    if len(mu) != len(gamma) - 1:
        raise ValueError(f"length mismatch: len({mu}) != len({gamma}) - 1")
    return all(gamma[i] >= mu[i] >= gamma[i + 1] for i in range(len(mu)))


@lru_cache(maxsize=None)
def dim(gamma: Staircase) -> int:
    """Dimension of the rational U(d) irrep labeled by gamma (d = len(gamma)).

    Weyl dimension formula, evaluated in exact integer arithmetic:
        prod_{i<j} (g_i - g_j + j - i) / prod_{i<j} (j - i).
    Invariant under adding a constant to every entry (determinant twist).
    """
    gamma = validate(gamma)
    d = len(gamma)
    num = 1
    den = 1
    for i in range(d):
        for j in range(i + 1, d):
            num *= gamma[i] - gamma[j] + j - i
            den *= j - i
    q, r = divmod(num, den)
    if r:
        raise RuntimeError(f"Weyl dimension formula of {gamma} is not an integer")
    return q


def to_pair(gamma: Staircase) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Split a staircase into Young diagrams [alpha, beta].

    alpha holds the positive entries; beta holds the negative entries negated
    and reversed.  Trailing zeros are dropped from both.
    """
    gamma = validate(gamma)
    alpha = tuple(x for x in gamma if x > 0)
    beta = tuple(-x for x in reversed(gamma) if x < 0)
    return alpha, beta


def from_pair(alpha: Iterable[int], beta: Iterable[int], d: int) -> Staircase:
    """Rebuild a staircase of length d from a Young-diagram pair [alpha, beta]."""
    alpha = tuple(alpha)
    beta = tuple(beta)
    if not all(x > 0 for x in alpha) or not is_valid(alpha or (0,)):
        if alpha:
            raise ValueError(f"alpha must be a positive partition: {alpha}")
    if not all(x > 0 for x in beta) or not is_valid(beta or (0,)):
        if beta:
            raise ValueError(f"beta must be a positive partition: {beta}")
    if len(alpha) + len(beta) > d:
        raise ValueError(f"len(alpha) + len(beta) = {len(alpha) + len(beta)} exceeds d = {d}")
    pad = d - len(alpha) - len(beta)
    return alpha + (0,) * pad + tuple(-x for x in reversed(beta))


def format_staircase(gamma: Staircase) -> str:
    """Text encoding used by the CLI and file formats, e.g. "[2,0,-2]"."""
    return "[" + ",".join(str(x) for x in gamma) + "]"


def parse_staircase(text: str) -> Staircase:
    """Inverse of :func:`format_staircase`."""
    text = text.strip()
    if not (text.startswith("[") and text.endswith("]")):
        raise ValueError(f"staircase must look like [2,0,-2], got {text!r}")
    body = text[1:-1].strip()
    if not body:
        raise ValueError("empty staircase")
    return validate(tuple(int(p) for p in body.split(",")))
