"""Bratteli diagram of the box add/remove tower and its path combinatorics.

Level 0 holds the zero staircase of length d.  A type sequence eps over
{+1, -1} drives the growth: a +1 level adds one box (tensoring with the
defining irrep), a -1 level removes one box (tensoring with the dual defining
irrep).  Staircase validity (weak decrease of the length-d tuple) prunes the
diagram; at most one edge ever connects two vertices, so paths from the root
to a top-level vertex index an orthogonal basis of that vertex's multiplicity
space in the mixed tensor power.

Canonical path order: paths to a common endpoint are sorted lexicographically
by their vertex sequences (staircases compared as tuples).  This is the order
in which a cascade of Clebsch-Gordan transforms emits the multiplicity blocks
when each transform lists its target irreps in ascending staircase order.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, field

from .staircase import (Staircase, add_box_set, dim, format_staircase,
                        remove_box_set, validate)

DEFAULT_CAP = 4096


class CapExceeded(ValueError):
    """Requested construction is larger than the configured dimension cap."""


def check_cap(d: int, legs: int, cap: int) -> None:
    """Raise CapExceeded when d^legs > cap, without computing a huge power."""
    # d >= 2 and legs >= cap.bit_length() already exceed the cap
    if (d > 1 and legs >= cap.bit_length()) or d ** legs > cap:
        raise CapExceeded(f"d^(n+m) = {d}^{legs} exceeds cap {cap}")


def standard_types(n: int, m: int) -> tuple[int, ...]:
    return (1,) * n + (-1,) * m


def parse_factor_order(order: str, n: int, m: int) -> str:
    """A factor order: n '+' (defining) and m '-' (dual) legs in any order."""
    order = order.replace("−", "-")  # tolerate unicode minus
    if sorted(order) != sorted("+" * n + "-" * m):
        raise ValueError(f"factor order {order!r} must contain {n} '+' and {m} '-'")
    return order


@dataclass(frozen=True)
class BratteliPath:
    """A walk root -> gamma, one box added or removed per level."""

    vertices: tuple[Staircase, ...]
    types: tuple[int, ...]

    @property
    def shape(self) -> Staircase:
        return self.vertices[-1]

    @property
    def steps(self) -> tuple[int, ...]:
        """1-based index of the changed entry at each level."""
        out = []
        for a, b in zip(self.vertices, self.vertices[1:]):
            j = next(k for k in range(len(a)) if a[k] != b[k])
            out.append(j + 1)
        return tuple(out)


@dataclass
class BratteliDiagram:
    d: int
    types: tuple[int, ...]
    levels: list[list[Staircase]]
    # edges[k]: (i, j) meaning levels[k][i] -> levels[k+1][j]
    edges: list[list[tuple[int, int]]] = field(repr=False)

    @property
    def depth(self) -> int:
        return len(self.types)

    def top_level(self) -> list[Staircase]:
        return self.levels[-1]


def build_tower(types: tuple[int, ...], d: int) -> BratteliDiagram:
    """Grow the diagram level by level for an arbitrary +1/-1 type sequence."""
    if d < 1:
        raise ValueError("d must be >= 1")
    if any(t not in (1, -1) for t in types):
        raise ValueError(f"types must be +1/-1: {types}")
    root = (0,) * d
    levels = [[root]]
    edges: list[list[tuple[int, int]]] = []
    for t in types:
        grow = add_box_set if t == 1 else remove_box_set
        nxt: dict[Staircase, int] = {}
        lvl_edges = []
        for i, g in enumerate(levels[-1]):
            for h in grow(g):
                j = nxt.setdefault(h, len(nxt))
                lvl_edges.append((i, j))
        order = sorted(nxt, key=lambda s: s)
        reindex = {nxt[s]: k for k, s in enumerate(order)}
        edges.append(sorted((i, reindex[j]) for i, j in lvl_edges))
        levels.append(order)
    return BratteliDiagram(d=d, types=tuple(types), levels=levels, edges=edges)


def build(n: int, m: int, d: int) -> BratteliDiagram:
    """Diagram for the standard tower: n add-box levels then m remove-box levels."""
    if n < 0 or m < 0:
        raise ValueError("n, m must be >= 0")
    return build_tower(standard_types(n, m), d)


def paths_to(diagram: BratteliDiagram, gamma: Staircase) -> list[BratteliPath]:
    """All root -> gamma paths, canonically ordered.  len == multiplicity of gamma."""
    gamma = validate(gamma)
    if gamma not in diagram.top_level():
        raise ValueError(f"{gamma} is not a top-level vertex")
    # walk back from gamma: every vertex has a parent, so each backward walk
    # ends at the root and no partial path is a dead end
    partial: list[tuple[Staircase, ...]] = [(gamma,)]
    for k in range(diagram.depth, 0, -1):
        parents: dict[Staircase, list[Staircase]] = {}
        for i, j in diagram.edges[k - 1]:
            parents.setdefault(diagram.levels[k][j], []).append(diagram.levels[k - 1][i])
        partial = [(a,) + p for p in partial for a in parents[p[0]]]
    return [BratteliPath(vertices=p, types=diagram.types) for p in sorted(partial)]


def path_counts(diagram: BratteliDiagram) -> dict[Staircase, int]:
    """Number of root -> vertex paths for every top-level vertex."""
    counts = [1]
    for k in range(diagram.depth):
        nxt = [0] * len(diagram.levels[k + 1])
        for i, j in diagram.edges[k]:
            nxt[j] += counts[i]
        counts = nxt
    return dict(zip(diagram.top_level(), counts))


def census(n: int, m: int, d: int, cap: int = DEFAULT_CAP) -> list[tuple[Staircase, int, int]]:
    """(gamma, dim, mult) for the mixed tensor power, canonical staircase order."""
    check_cap(d, n + m, cap)
    return [(g, dg, mg) for g, _, dg, mg in row_layout(n, m, d)]


@functools.cache
def row_layout(n: int, m: int, d: int) -> tuple[tuple[Staircase, int, int, int], ...]:
    """(gamma, start, dim, mult) of each label block of the mixed Schur transform.

    Mixed Schur-Weyl duality fixes the labels |gamma, q, p> from (n, m, d)
    alone, whatever the factor order: blocks follow census order and row
    (gamma, q, p) sits at start + p * dim + q.  Callers check the cap first.
    """
    counts = path_counts(build(n, m, d))
    blocks, start = [], 0
    for g in sorted(counts):
        blocks.append((g, start, dim(g), counts[g]))
        start += dim(g) * counts[g]
    assert start == d ** (n + m)
    return tuple(blocks)


def row_labels(n: int, m: int, d: int) -> list[tuple[Staircase, int, int]]:
    """The label (gamma, q, p) of every row of the transform, in row order."""
    return [(g, q, p) for g, _, dg, mg in row_layout(n, m, d)
            for p in range(mg) for q in range(dg)]


def count_paths_reordered(n: int, m: int, d: int,
                          types: tuple[int, ...]) -> dict[Staircase, int]:
    """Per-vertex path counts through a reordered tower.

    types must contain exactly n entries +1 and m entries -1; the counts are
    independent of the ordering.
    """
    types = tuple(types)
    if sorted(types, reverse=True) != list(standard_types(n, m)):
        raise ValueError(f"types must have {n} entries +1 and {m} entries -1: {types}")
    return path_counts(build_tower(types, d))


# -- path bit encoding --------------------------------------------------------

def _step_width(d: int) -> int:
    return max(1, (d - 1).bit_length()) if d > 1 else 0


def encode_path(path: BratteliPath, d: int | None = None) -> str:
    """Fixed-width bitstring: ceil(log2 d) bits per step storing the changed index."""
    if d is None:
        d = len(path.vertices[0])
    w = _step_width(d)
    return "".join(format(j - 1, f"0{w}b") if w else "" for j in path.steps)


def decode_path(n: int, m: int, d: int, bits: str) -> BratteliPath:
    """Inverse of :func:`encode_path` for the standard tower."""
    types = standard_types(n, m)
    w = _step_width(d)
    if len(bits) != w * len(types):
        raise ValueError(f"expected {w * len(types)} bits, got {len(bits)}")
    vertices = [(0,) * d]
    for k, t in enumerate(types):
        j = int(bits[k * w:(k + 1) * w], 2) if w else 0
        if j >= d:
            raise ValueError(f"step index {j + 1} out of range for d={d}")
        g = list(vertices[-1])
        g[j] += t
        cand = tuple(g)
        if not all(cand[i] >= cand[i + 1] for i in range(d - 1)):
            raise ValueError(f"step {k}: {cand} is not a staircase")
        vertices.append(cand)
    return BratteliPath(vertices=tuple(vertices), types=types)


# -- multiplicity bound helpers -----------------------------------------------

def hook_length_count(lam: tuple[int, ...]) -> int:
    """Number of standard Young tableaux of partition shape lam."""
    lam = tuple(x for x in lam if x)
    if any(x <= 0 for x in lam) or any(lam[i] < lam[i + 1] for i in range(len(lam) - 1)):
        raise ValueError(f"not a partition: {lam}")
    n = sum(lam)
    if n == 0:
        return 1
    cols = [sum(1 for r in lam if r > c) for c in range(lam[0])]
    hooks = 1
    for i, row in enumerate(lam):
        for j in range(row):
            hooks *= row - j + cols[j] - i - 1
    return math.factorial(n) // hooks


def multiplicity_bound(gamma: Staircase, n: int, m: int) -> int:
    """Combinatorial upper bound on the multiplicity of gamma = [alpha, beta]."""
    from .staircase import to_pair

    alpha, beta = to_pair(gamma)
    k = n - sum(alpha)
    if k != m - sum(beta) or k < 0:
        raise ValueError(f"{gamma} cannot occur at (n, m) = ({n}, {m})")
    return (math.comb(n, k) * math.comb(m, k) * math.factorial(k)
            * hook_length_count(alpha) * hook_length_count(beta))


# -- exports ------------------------------------------------------------------

def to_dot(diagram: BratteliDiagram) -> str:
    """GraphViz DOT rendering with one rank per level."""
    lines = ["digraph bratteli {", "  rankdir=TB;", "  node [shape=box];"]
    for k, lvl in enumerate(diagram.levels):
        names = [f'"L{k}_{format_staircase(g)}"' for g in lvl]
        for g, name in zip(lvl, names):
            lines.append(f'  {name} [label="{format_staircase(g)}"];')
        lines.append("  { rank=same; " + " ".join(n + ";" for n in names) + " }")
    for k, lvl_edges in enumerate(diagram.edges):
        for i, j in lvl_edges:
            a = format_staircase(diagram.levels[k][i])
            b = format_staircase(diagram.levels[k + 1][j])
            lines.append(f'  "L{k}_{a}" -> "L{k + 1}_{b}";')
    lines.append("}")
    return "\n".join(lines) + "\n"


def census_to_json(entries: list[tuple[Staircase, int, int]]) -> str:
    payload = [{"staircase": format_staircase(g), "dim": dg, "mult": mg}
               for g, dg, mg in entries]
    return json.dumps(payload, indent=2)
