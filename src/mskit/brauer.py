"""Walled Brauer diagrams and their action on mixed tensor space.

A diagram on (n, m) has two rows of n + m nodes with a wall after column n.
Nodes pair up subject to: same-row pairs straddle the wall, cross-row pairs
stay on one side.  Diagrams multiply by vertical stacking; every closed loop
swallowed in the contraction contributes a scalar factor d.

Node layout: columns are 0-based; slot c in [0, N) is top node of column c,
slot N + c is the bottom node (N = n + m).  The pairing is an involution
without fixed points stored as a partner array.

The representation `represent` sends a diagram to a 0/1 matrix on
(C^d)^{tensor N}: column index variables i_* live on top nodes, row index
variables j_* on bottom nodes, and every connected pair of nodes forces its
two variables equal.  Exchanging the top and bottom endpoints in the last m
columns (`partial_transpose`) turns permutation wirings into valid walled
diagrams and matches the matrix-level partial transpose on those factors, so
a diagram partially transposed from a permutation wiring is represented by a
qudit permutation operator.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .bratteli import check_cap, parse_factor_order


@dataclass(frozen=True)
class WalledBrauerDiagram:
    n: int
    m: int
    pairing: tuple[int, ...]

    def __post_init__(self):
        N = self.n + self.m
        p = self.pairing
        if len(p) != 2 * N:
            raise ValueError(f"pairing must cover {2 * N} nodes, got {len(p)}")
        for x, y in enumerate(p):
            if not (0 <= y < 2 * N) or y == x or p[y] != x:
                raise ValueError(f"pairing is not a fixed-point-free involution: {p}")
        for x in range(2 * N):
            y = p[x]
            if x > y:
                continue
            same_row = (x < N) == (y < N)
            left_x = (x % N) < self.n
            left_y = (y % N) < self.n
            if same_row and left_x == left_y:
                raise ValueError(f"same-row pair {x},{y} does not straddle the wall")
            if not same_row and left_x != left_y:
                raise ValueError(f"cross-row pair {x},{y} crosses the wall")

    @property
    def size(self) -> int:
        return self.n + self.m

    def partner(self, slot: int) -> int:
        return self.pairing[slot]

    def __str__(self) -> str:
        return format_diagram(self)


def identity(n: int, m: int) -> WalledBrauerDiagram:
    N = n + m
    return WalledBrauerDiagram(n, m, tuple(range(N, 2 * N)) + tuple(range(N)))


def from_permutation(perm: tuple[int, ...], n: int, m: int) -> WalledBrauerDiagram:
    """Partial transpose of the permutation wiring top_a -> bottom_perm(a).

    perm is 0-based on [0, N).  The returned diagram transposes back to the
    wiring (partial_transpose(sigma) == perm), and that wiring acts on tensor
    space as the permutation matrix sending |i_1 ... i_N> to
    |i_{perm^-1(1)} ... i_{perm^-1(N)}>.
    """
    N = n + m
    if sorted(perm) != list(range(N)):
        raise ValueError(f"not a permutation of 0..{N - 1}: {perm}")
    pairing = [0] * (2 * N)
    for a, b in enumerate(perm):
        pairing[a] = N + b
        pairing[N + b] = a
    wiring = _swap_last_columns(tuple(pairing), n, m)
    return WalledBrauerDiagram(n, m, wiring)


def _swap_last_columns(pairing: tuple[int, ...], n: int, m: int) -> tuple[int, ...]:
    N = n + m

    def f(slot: int) -> int:
        c = slot % N
        return slot + N if (c >= n and slot < N) else slot - N if (c >= n) else slot

    out = [0] * (2 * N)
    for x in range(2 * N):
        out[f(x)] = f(pairing[x])
    return tuple(out)


def partial_transpose(sigma: WalledBrauerDiagram) -> tuple[int, ...]:
    """Exchange top and bottom endpoints in the last m columns.

    The wall constraints force every pair of the transposed matching to be a
    cross-row pair, so the result is a permutation wiring: the return value is
    the permutation perm with top_a wired to bottom_perm(a).  The operation
    inverts :func:`from_permutation`, and the wiring is represented by the
    qudit permutation operator of perm.
    """
    N = sigma.size
    swapped = _swap_last_columns(sigma.pairing, sigma.n, sigma.m)
    perm = [-1] * N
    for a in range(N):
        y = swapped[a]
        if y < N:
            raise RuntimeError("transpose of a walled diagram is always a permutation wiring")
        perm[a] = y - N
    return tuple(perm)


def dagger(sigma: WalledBrauerDiagram) -> WalledBrauerDiagram:
    """Vertical flip; represents the conjugate transpose matrix."""
    N = sigma.size
    flip = lambda x: x + N if x < N else x - N
    out = [0] * (2 * N)
    for x in range(2 * N):
        out[flip(x)] = flip(sigma.pairing[x])
    return WalledBrauerDiagram(sigma.n, sigma.m, tuple(out))


def compose(s1: WalledBrauerDiagram, s2: WalledBrauerDiagram) -> tuple[WalledBrauerDiagram, int]:
    """Stacked contraction returning (diagram, loops).

    Matches matrix order: represent(s1) @ represent(s2) equals
    d**loops * represent(compose(s1, s2)).  s2's bottom row is glued to s1's
    top row; loops counts the closed cycles removed from the middle layer.
    """
    if (s1.n, s1.m) != (s2.n, s2.m):
        raise ValueError("diagrams must have matching (n, m)")
    N = s1.size
    UP, LO = 0, 1  # upper layer s2 feeds the lower layer s1
    diags = (s2, s1)
    # external slots of the result: s2 top (0..N-1) and s1 bottom (N..2N-1)
    pairing = [-1] * (2 * N)
    seen_mid = [False] * N  # middle columns visited while tracing external paths

    def trace(layer: int, slot: int) -> int:
        while True:
            slot = diags[layer].pairing[slot]
            if layer == UP and slot < N:
                return slot                  # external: s2 top
            if layer == LO and slot >= N:
                return slot                  # external: s1 bottom
            # middle: s2 bottom column c is glued to s1 top column c
            c = slot - N if layer == UP else slot
            seen_mid[c] = True
            layer, slot = (LO, c) if layer == UP else (UP, c + N)

    for start, layer in [(c, UP) for c in range(N)] + [(N + c, LO) for c in range(N)]:
        if pairing[start] == -1:
            end = trace(layer, start)
            pairing[start], pairing[end] = end, start
    loops = 0
    for c in range(N):
        if seen_mid[c]:
            continue
        loops += 1
        layer, slot = LO, c  # enter the cycle at s1's top node of column c
        while True:
            seen_mid[slot if layer == LO else slot - N] = True
            slot = diags[layer].pairing[slot]
            cc = slot if layer == LO else slot - N
            if cc == c and ((layer == LO and slot < N) or (layer == UP and slot >= N)):
                break
            seen_mid[cc] = True
            layer, slot = (UP, cc + N) if layer == LO else (LO, cc)
    return WalledBrauerDiagram(s1.n, s1.m, tuple(pairing)), loops


def represent(sigma: WalledBrauerDiagram, d: int, cap: int = 4096,
              order: str | None = None) -> sp.coo_matrix:
    """Sparse 0/1 matrix of the diagram action on (C^d)^{tensor (n+m)}.

    Entry (j, i) is the product of Kronecker deltas over connected node pairs,
    with i-variables on top nodes and j-variables on bottom nodes.  Each of
    the N pairs carries one free value, so the d^N nonzeros are enumerated by
    the value tuples: a pair adds value * stride of each top node to the
    column index and of each bottom node to the row index.  Pairs are taken
    in order of their first node, so with the default order the entries come
    out column by column as the top-node digits count up.

    order is a factor order with n '+' and m '-' legs, as for the mixed Schur
    transform: diagram column k then acts on the k-th '+' leg for k < n and
    on the (k - n)-th '-' leg otherwise, which only permutes the strides.
    The default, all '+' then all '-', keeps columns and legs in one order.
    """
    N = sigma.size
    check_cap(d, N, cap)
    dim = d ** N
    legs = list(range(N))
    if order is not None:
        order = parse_factor_order(order, sigma.n, sigma.m)
        legs = ([k for k, c in enumerate(order) if c == "+"]
                + [k for k, c in enumerate(order) if c == "-"])
    strides = [d ** (N - 1 - leg) for leg in legs]
    col_w, row_w = np.zeros(N, dtype=np.int64), np.zeros(N, dtype=np.int64)
    pairs = [(x, y) for x, y in enumerate(sigma.pairing) if x < y]
    for k, pair in enumerate(pairs):
        for node in pair:
            if node < N:
                col_w[k] += strides[node]
            else:
                row_w[k] += strides[node - N]
    vals = np.indices((d,) * N, dtype=np.int64).reshape(N, dim)
    data = np.ones(dim, dtype=np.int64)
    return sp.coo_matrix((data, (row_w @ vals, col_w @ vals)), shape=(dim, dim))


def all_diagrams(n: int, m: int) -> list[WalledBrauerDiagram]:
    """Every diagram on (n, m); there are (n+m)! of them."""
    N = n + m
    return [from_permutation(p, n, m) for p in itertools.permutations(range(N))]


# -- text encoding -------------------------------------------------------------

def format_diagram(sigma: WalledBrauerDiagram) -> str:
    """Pair list like "t1-b1,t2-t3", 1-based columns, t = top row, b = bottom."""
    N = sigma.size
    out = []
    for x in range(2 * N):
        y = sigma.pairing[x]
        if x > y:
            continue
        out.append(f"{_slot_name(x, N)}-{_slot_name(y, N)}")
    return ",".join(out)


def parse_diagram(text: str, n: int, m: int) -> WalledBrauerDiagram:
    """Inverse of :func:`format_diagram`."""
    N = n + m
    pairing = [-1] * (2 * N)
    for part in text.strip().split(","):
        try:
            a, b = part.strip().split("-")
            x, y = _slot_index(a, N), _slot_index(b, N)
        except (ValueError, IndexError):
            raise ValueError(f"bad pair {part!r}") from None
        if pairing[x] != -1 or pairing[y] != -1:
            raise ValueError(f"node repeated in {text!r}")
        pairing[x], pairing[y] = y, x
    if -1 in pairing:
        raise ValueError(f"pairing incomplete in {text!r}")
    return WalledBrauerDiagram(n, m, tuple(pairing))


def _slot_name(slot: int, N: int) -> str:
    return f"t{slot + 1}" if slot < N else f"b{slot - N + 1}"


def _slot_index(name: str, N: int) -> int:
    row, col = name[0], int(name[1:])
    if row not in "tb" or not 1 <= col <= N:
        raise ValueError(name)
    return col - 1 + (0 if row == "t" else N)
