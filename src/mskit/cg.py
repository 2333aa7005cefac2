"""Dual and defining Clebsch-Gordan transforms as explicit block-labeled unitaries.

dual_cg(mu) realizes the multiplicity-free decomposition

    Q_mu (x) Q_dualbox  ~=  direct sum over targets nu in mu - box of Q_nu,

as a real unitary of size dim(mu) * d.  Columns are indexed (pattern of mu,
tensor leg i) with i minor; rows run over the targets in canonical staircase
order, each block indexed by the target's canonical GT patterns.

The coupling is built recursively, as sparse (row, column, value) triplets:
the leg value i < d is handled by the U(d-1) coupling acting inside the
second pattern row, i = d leaves the U(d-1) content alone, and the reduced
Wigner coefficients splice the two cases into the U(d) targets.  Each
output block of a content mu' (a block of its U(d-1) coupling) lands in a
target mu - e_j with a row shift and one coefficient T(mu, j, mu', j'), its
column (q', i') moving to (q_mu' + q', i') in the U(d) numbering; the leg
i = d adds a diagonal scaled by T(mu, j, mu', 0).  The base case d = 1 maps
the integer c to c - 1 with coefficient 1, and the step to d = 2 is taken in
closed form, as every content of a U(2) staircase has a one-entry coupling.

The triplets are shift invariant: those of mu + c (1, ..., 1) equal those of
mu, entry for entry, and only the block labels shift by c, so the memo keeps
one set per mu - mu_d (1, ..., 1).  A request first plans the staircases it
needs and the memo lacks, by length from d down: the contents of all
the staircases of one length (a level) are enumerated at once, as the rows
of an integer array, told apart by one integer key per row, and looked up
in the memo.  Each level is then built in one vectorized pass, shortest
first, from arrays alone, at a cost in NumPy calls that does not grow with
the level.  A built level is one set of read-only arrays: the entries, and
one integer table with a column per output block (target, rows, entries);
its memo entries view slices of it.  The pass reads the dim of each content
and the table columns and entries of its coupling off the level below: the
level just built, as it is, when it holds every content (as in a cold
request), and otherwise with one gather per level read.  One
reduced_wigner_values call gives every coefficient of the level.  The
offset of a U(d-1) label inside a target is the sum of the dims of the
target's contents above it in descending lex order: each label's dim is
written at its place among those contents, a mixed-radix number, and one
running sum over all the level's targets gives every label's offset and
every target's size.  One segmented remap then moves every block into its
targets.  So no subduction, interlacing set or Weyl dimension is computed
per staircase, and nothing is sorted.

cg_transforms(kind, gammas) is the one way to ask for couplings: it plans
the dual triplets that all of gammas need together (their targets, for
defining couplings), one pass per length, then assembles each coupling;
cg_transform is its one-staircase case, and build_mixed_schur asks for each
leg's couplings in one request.  Weight conservation keeps the
triplets a small fraction of the dense size (about 2% at d = 4, 0.2% at
d = 8), and no coupling is ever dense: each coupling packs its triplets
once into a read-only CSR matrix (CouplingMatrix).

defining_cg(lam) realizes Q_lam (x) Q_box ~= direct sum over lam + box.  It is
produced by bending the dual transform: the one-dimensionality of equivariant
map spaces makes

    C_def[q_lam, i -> q_nu] = sqrt(dim nu / dim lam) * C_dual[q_nu, i -> q_lam]

an exact identity up to a global phase per block, and with the real dual
coefficients the bent map assembles into a real unitary.  The bend moves the
triplets of the lam block of each target's dual coupling.  Unitarity is
asserted as the exact max |S S^T - I|, from a sparse Gram product of the
CSR matrix; a failure would signal a convention bug, not a numerical issue.

The triplets and the public transforms are memoized (``clear_cache`` empties
both); cached and fresh results are the same arrays, which are read-only so
that no caller can corrupt later transforms: the stored arrays of a
CouplingMatrix are frozen, and item assignment on it or on a slice of it
raises ValueError.  CGTransform.legs, the coupling cut into its blocks
between weights for the Schur cascade, is made on first use and kept with
the coupling, read-only too.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np
import scipy.sparse

from ._arrays import ranges, readonly, spans
from .gelfand import _by_weight, _row_keys, pattern_weights
from .staircase import Staircase, add_box_set, dim, validate
from .wigner import reduced_wigner_values
from .bratteli import CapExceeded

CG_DIM_CAP = 65536

_memo: dict[tuple[str, Staircase], "CGTransform"] = {}
_triplet_memo: dict[Staircase, "_Triplets"] = {}
_memo_lock = threading.Lock()


class CouplingMatrix(scipy.sparse.csr_array):
    """A coupling unitary as a read-only CSR array.

    Its data, indices and indptr arrays are frozen, so in-place arithmetic
    raises ValueError, and so does item assignment on it or on a slice of
    it.  A transpose shares the frozen arrays; copy() and toarray() give
    arrays the caller may edit.
    """

    @property
    def nbytes(self) -> int:
        """Bytes of the stored arrays: data, indices and indptr."""
        return self.data.nbytes + self.indices.nbytes + self.indptr.nbytes

    def __setitem__(self, key, value):
        raise ValueError("coupling matrices are read-only")

    def entry_rows(self) -> np.ndarray:
        """The row of each stored entry, in storage order."""
        return np.repeat(np.arange(self.shape[0]), np.diff(self.indptr))


@dataclass(frozen=True, eq=False)
class CGTransform:
    """One coupling unitary with its labeled output blocks; compared and
    hashed by identity.

    matrix rows are grouped by output_blocks: (target staircase, row offset,
    block size == dim(target)), listed in canonical staircase order.
    """

    input_irrep: Staircase
    d: int
    kind: str  # "defining" | "dual"
    matrix: CouplingMatrix
    output_blocks: tuple[tuple[Staircase, int, int], ...]

    def block(self, target: Staircase) -> CouplingMatrix:
        for g, off, size in self.output_blocks:
            if g == target:
                return self.matrix[off:off + size]
        raise KeyError(f"{target} is not an output block")

    def unitarity_residual(self) -> float:
        return _gram_residual(self.matrix)

    @cached_property
    def legs(self) -> _LegBlocks:
        """This coupling cut into its blocks between weights, for its leg of
        a cascade.  A coupling is memoized and immutable, so it is cut once,
        on first use."""
        return _cut(self)


def _gram_residual(w) -> float:
    """Exact max |W W^T - I| of a square real W; NaN if W carries a NaN.

    W is a CSR matrix (used as it is) or a dense array.  The product is
    sparse, so its cost grows with the nonzeros of W.
    """
    s = scipy.sparse.csr_array(w)
    g = s @ s.T
    n = g.shape[0]
    rows = np.arange(n).repeat(g.indptr[1:] - g.indptr[:-1])
    on = rows == g.indices
    diag = np.zeros(n)  # a row without a diagonal entry reads 0 there
    diag[rows[on]] = g.data[on]
    dev = np.concatenate([g.data[~on], diag - 1.0])
    return float(np.abs(dev).max(initial=0.0))


class _LegBlocks(NamedTuple):
    """One coupling t cut into its blocks between weights, for its leg.

    Block u reads the patterns of the source weight weights[u].  AT[u] is
    the dense transpose of t on the columns (q, i) with q of that weight,
    for every leg value i, and on the rows of weight weights[u] + sign e_i,
    sign +1 for a defining coupling and -1 for a dual one: the rows of value
    i follow those of smaller values, in row order.  A coupling conserves
    weight, so these are all the rows those columns reach.  Column j of
    AT[u] is row rows[u][j] of t, reached at the value value[u][j];
    parts[u] lists (i, target, target weight, lo, hi) for each target with
    rows of weight weights[u] + sign e_i: they are the columns lo:hi, in
    pattern order.
    """

    weights: tuple[tuple[int, ...], ...]
    AT: tuple[np.ndarray, ...]
    rows: tuple[np.ndarray, ...]
    value: tuple[np.ndarray, ...]
    parts: tuple[tuple[tuple, ...], ...]


def _cut(t: CGTransform) -> _LegBlocks:
    """The _LegBlocks of the coupling t; every array is read-only.

    An entry of t that joins two weights no leg value joins raises
    RuntimeError.
    """
    sign, d = (1 if t.kind == "defining" else -1), t.d
    src = _by_weight(t.input_irrep)
    targets = [g for g, _, _ in t.output_blocks]
    tgt = [_by_weight(g) for g in targets]
    off = [o for _, o, _ in t.output_blocks]
    # the weights of the targets, numbered one target after another, and
    # which of them each source weight reaches at each value
    K = np.cumsum([0] + [len(x.count) for x in tgt])
    weights = np.concatenate([x.weights for x in tgt])
    count = np.concatenate([x.count for x in tgt])
    shifted = src.weights[:, None, :] + sign * np.eye(d, dtype=np.int64)
    _, key = np.unique(_row_keys(np.concatenate([weights, shifted.reshape(-1, d)])),
                       return_inverse=True)
    key = key.reshape(-1)
    lookup = np.full((key.max() + 1, len(tgt)), -1)
    lookup[key[:K[-1]], np.repeat(np.arange(len(tgt)), np.diff(K))] = np.arange(K[-1])
    reached = lookup[key[K[-1]:]].reshape(len(src.count), d, len(tgt))
    u, i, b = np.nonzero(reached >= 0)  # the parts, in column order
    k = reached[u, i, b]
    width = np.bincount(u, count[k], len(src.count)).astype(np.intp)
    lo = np.zeros(reached.shape, dtype=np.intp)  # where each part starts in its block
    lo[u, i, b] = np.cumsum(count[k]) - count[k] - (np.cumsum(width) - width)[u]

    # every entry of t into its block
    sizes = src.count * width
    base = np.cumsum(sizes) - sizes
    r = t.matrix.entry_rows()
    q, iv = np.divmod(t.matrix.indices, d)
    rb = np.repeat(np.arange(len(tgt)), [len(x.of) for x in tgt])[r]
    ru = src.of[q]
    row_k = np.concatenate([x.of + k0 for x, k0 in zip(tgt, K.tolist())])
    if np.any(row_k[r] != reached[ru, iv, rb]):
        raise RuntimeError(f"the coupling of {t.input_irrep} joins two weights")
    row_rank = np.concatenate([x.rank for x in tgt])
    flat = np.zeros(int(sizes.sum()))
    flat[base[ru] + src.rank[q] * width[ru] + lo[ru, iv, rb] + row_rank[r]] = t.matrix.data

    # the row and value of every column, block after block
    order = np.concatenate([x.order + o for x, o in zip(tgt, off)])
    first = np.concatenate([x.first + o for x, o in zip(tgt, off)])
    j, at = ranges(count[k], first[k])
    rows, value, _ = readonly(order[at], i[j], flat)
    names = [tuple(w) for w in weights.tolist()]
    parts = [[] for _ in width]
    for u_, i_, b_, k_, lo_, c_ in zip(u.tolist(), i.tolist(), b.tolist(), k.tolist(),
                                       lo[u, i, b].tolist(), count[k].tolist()):
        parts[u_].append((i_, targets[b_], names[k_], lo_, lo_ + c_))
    ends = np.cumsum(width).tolist()
    return _LegBlocks(tuple(map(tuple, src.weights.tolist())),
                      tuple(flat[a:a + s].reshape(-1, w) for a, s, w in zip(
                          base.tolist(), sizes.tolist(), width.tolist())),
                      tuple(rows[e - w:e] for e, w in zip(ends, width.tolist())),
                      tuple(value[e - w:e] for e, w in zip(ends, width.tolist())),
                      tuple(map(tuple, parts)))


class _Level(NamedTuple):
    """The dual couplings of one recursion level, built together, as one set
    of read-only arrays; the memo entries of the level view its slices.

    Coupling k (of the level's k-th staircase mu) has dim(mu) = dim[k] and
    owns blocks first[k]:first[k + 1].  Column b of table describes block b:
    it is the target mu - e_j with j = table[0, b], takes rows
    table[1, b]:table[1, b] + table[2, b] of its coupling, and holds the
    entries table[3, b]:table[3, b] + table[4, b].
    """

    rows: np.ndarray
    cols: np.ndarray
    vals: np.ndarray
    first: np.ndarray
    table: np.ndarray
    dim: np.ndarray


class _Triplets(NamedTuple):
    """A coupling as unique (row, col, val) entries, read-only.

    Columns index (input pattern q, leg i) as q * d + i.  Entries are grouped
    by output block: block b holds entries ptr[b]:ptr[b + 1].  rows, cols
    and vals view those of coupling `at` of `level`.
    """

    rows: np.ndarray
    cols: np.ndarray
    vals: np.ndarray
    ptr: np.ndarray
    blocks: tuple[tuple[Staircase, int, int], ...]
    level: _Level
    at: int


def clear_cache() -> None:
    with _memo_lock:
        _memo.clear()
        _triplet_memo.clear()


def _csr(rows, cols, vals, n: int) -> CouplingMatrix:
    """The n x n read-only CSR matrix with the given unique entries."""
    W = CouplingMatrix((vals, (rows, cols)), shape=(n, n))
    readonly(W.data, W.indices, W.indptr)
    return W


def cg_transforms(kind: str, gammas, cap: int = CG_DIM_CAP) -> list[CGTransform]:
    """The couplings of one kind ("dual" or "defining") of every staircase
    in gammas, as dual_cg or defining_cg gives them, in order.

    The dual triplets the memo lacks, those of gammas for "dual" and of
    their targets gamma + e_j for "defining", are planned and built together,
    one pass per length of staircase, before the couplings are assembled one
    by one.  A staircase over the cap raises CapExceeded, and none past it
    is assembled.
    """
    if kind not in ("dual", "defining"):
        raise ValueError(f"unknown CG kind {kind!r}")
    gammas = list(gammas)
    if len(gammas) > 1:  # a single coupling plans its own levels
        todo = [g for g in dict.fromkeys(map(validate, gammas))
                if (kind, g) not in _memo and dim(g) * len(g) <= cap]
        if kind == "defining":
            todo = dict.fromkeys(nu for lam in todo for nu in add_box_set(lam))
        by_length = {}
        for g in todo:
            by_length.setdefault(len(g), []).append(g)
        for mus in by_length.values():
            _sparse_duals(mus)
    assemble = dual_cg if kind == "dual" else defining_cg
    return [assemble(g, cap) for g in gammas]


def dual_cg(mu: Staircase, cap: int = CG_DIM_CAP) -> CGTransform:
    """Coupling of the irrep mu with the dual defining irrep (d = len(mu))."""
    mu = validate(mu)
    key = ("dual", mu)
    hit = _memo.get(key)
    if hit is not None:
        return hit
    n = dim(mu) * len(mu)
    if n > cap:
        raise CapExceeded(f"dim(mu) * d = {n} exceeds cap {cap}")
    t = _sparse_dual(mu)
    out = CGTransform(mu, len(mu), "dual", _csr(t.rows, t.cols, t.vals, n), t.blocks)
    with _memo_lock:
        return _memo.setdefault(key, out)


def _canonical(mu: Staircase) -> Staircase:
    """mu - mu_d (1, ..., 1), the memo key of its triplets."""
    return tuple(x - mu[-1] for x in mu)


def _sparse_dual(mu: Staircase) -> _Triplets:
    """Triplets of dual_cg(mu)."""
    return _sparse_duals([mu])[0]


def _sparse_duals(mus) -> list[_Triplets]:
    """Triplets of dual_cg(mu) for each mu in mus, all of one length.

    The keys the memo lacks are planned by length, from the requests down
    through their contents, and each length is built in one pass, shortest
    first; a shifted request gets the triplets of its key, relabeled.
    """
    keys = [_canonical(mu) for mu in mus]
    have, plans = {}, []
    todo = list(dict.fromkeys(keys))
    while todo:
        with _memo_lock:
            have.update({k: _triplet_memo[k] for k in todo if k in _triplet_memo})
        todo = [k for k in todo if k not in have]
        if not todo:
            break
        plans.append(_plan(todo))
        todo = plans[-1].contents
    level = None
    for plan in reversed(plans):
        lower = _gather(plan.contents, have, level) if plan.contents else None
        level, built = _build_level(plan, lower)
        have.update(built)
    with _memo_lock:
        for plan in plans:
            for key in plan.keys:
                have[key] = _triplet_memo.setdefault(key, have[key])
    out = []
    for mu, key in zip(mus, keys):
        t = have[key]
        if mu[-1]:
            t = t._replace(blocks=tuple((tuple(x + mu[-1] for x in g), off, size)
                                        for g, off, size in t.blocks))
        out.append(t)
    return out


class _Plan(NamedTuple):
    """One level to build: its keys (staircases of one length d, last entry
    0), as the rows of mus too, and every (key, content) pair, key by key and
    each key's contents in descending lex order (count of them per key, the
    pairs of key k ending at end[k]): the row of its key (owner), its content
    (a row of pairs) and the position of the content's key in contents, the
    distinct keys of the U(d-1) couplings the level reads."""

    keys: list[Staircase]
    mus: np.ndarray
    count: np.ndarray
    end: np.ndarray
    owner: np.ndarray
    pairs: np.ndarray
    sub: np.ndarray
    contents: list[Staircase]


def _places(width: np.ndarray) -> np.ndarray:
    """The place values of mixed-radix numbers, one a row, whose digits have
    the given widths, the last digit least significant."""
    place = np.ones(width.shape, dtype=np.intp)
    place[:, :-1] = width[:, :0:-1].cumprod(axis=1)[:, ::-1]
    return place


def _plan(keys: list[Staircase]) -> _Plan:
    """The contents of every key at once.  Entry i of a content ranges over
    mu_i, ..., mu_{i+1} whatever the other entries are, so the contents of mu,
    in descending lex order, count up a mixed-radix number with digits
    mu_i - content_i of width mu_i - mu_{i+1} + 1, its last digit least
    significant.  A content's memo key is the content less its last entry
    in every entry, all of them then in [0, mu_1], and the keys are told
    apart by one integer each, their entries the digits in base max mu_1 + 1
    (by the bytes of the row when that integer could pass int64).  U(2)
    keys read no level below (see _u2_entries)."""
    mus = np.array(keys)
    n_mu, d = mus.shape
    if d <= 2:  # no level below is read
        return _Plan(keys, mus, None, None, None, None, None, [])
    width = mus[:, :-1] - mus[:, 1:] + 1
    place = _places(width)
    count = place[:, 0] * width[:, 0]
    end = count.cumsum()
    owner = np.arange(n_mu).repeat(count)
    at = np.arange(end[-1]) - (end - count)[owner]
    pairs = mus[owner, :-1] - at[:, None] // place[owner] % width[owner]
    canonical = pairs - pairs[:, -1:]
    base = int(mus[:, 0].max()) + 1
    if base ** (d - 2) < 2 ** 63:
        key = canonical[:, :-1] @ base ** np.arange(d - 2, dtype=np.int64)
    else:
        key = _row_keys(canonical)
    order = key.argsort()
    new = np.empty(len(key), dtype=bool)
    new[0] = True
    new[1:] = key[order[1:]] != key[order[:-1]]
    sub = np.empty(len(key), dtype=np.intp)
    sub[order] = new.cumsum() - 1
    contents = list(map(tuple, canonical[order[new]].tolist()))
    return _Plan(keys, mus, count, end, owner, pairs, sub, contents)


def _gather(contents: list[Staircase], have: dict, below: _Level | None):
    """The couplings of the contents, in their order: (dim, first block,
    block count) of each, the table columns of their blocks and the entries,
    as in a _Level.  When the level just built (below) holds every content,
    it is that level itself; otherwise one fancy index per level read."""
    # below was built for the contents the memo lacked, in their order
    if below is not None and len(below.dim) == len(contents):
        first = below.first
        return (below.dim, first[:-1], first[1:] - first[:-1], below.table,
                below.rows, below.cols, below.vals)
    groups = {}
    for i, key in enumerate(contents):
        t = have[key]
        group = groups.setdefault(id(t.level), (t.level, [], []))
        group[1].append(t.at)
        group[2].append(i)
    parts, placed = [], []
    for lv, at, i in groups.values():
        at = np.array(at)
        nb = lv.first[at + 1] - lv.first[at]
        table = lv.table[:, spans(lv.first[at], nb)]
        e = spans(table[3], table[4])
        parts.append((lv.dim[at], nb, table, lv.rows[e], lv.cols[e], lv.vals[e]))
        placed += i
    dims, nb, table, rows, cols, vals = (
        x[0] if len(x) == 1 else np.concatenate(x, axis=-1) for x in zip(*parts))
    table[3] = table[4].cumsum() - table[4]
    where = np.empty(len(placed), dtype=np.intp)  # where each content was placed
    where[placed] = np.arange(len(placed))
    return dims[where], (nb.cumsum() - nb)[where], nb[where], table, rows, cols, vals


def _build_level(plan: _Plan, lower) -> tuple[_Level, dict[Staircase, _Triplets]]:
    """The level of dual_cg(mu) for every key mu of the plan, all of one
    length d and with last entry 0, and their triplets by key, from `lower`,
    the U(d-1) couplings of plan.contents as _gather gives them; U(2)
    couplings need none (see _u2_entries).
    """
    mus = plan.mus
    n_mu, d = mus.shape
    if d == 1:  # (0,): the integer 0 maps to -1 with coefficient 1
        zero, one = np.zeros(1, dtype=np.intp), np.ones(1, dtype=np.intp)
        level = _Level(*readonly(zero, zero, np.ones(1), np.arange(2),
                                 np.array([[1], [0], [1], [0], [1]]), one))
        return level, {(0,): _Triplets(*level[:3], level.first, (((-1,), 0, 1),), level, 0)}
    # the targets mu - e_j of every mu, j ascending
    open_ = np.ones((n_mu, d), dtype=bool)
    open_[:, :-1] = mus[:, :-1] > mus[:, 1:]
    tmu, tj = open_.nonzero()
    n_tgt = open_.sum(axis=1)
    t_end = n_tgt.cumsum()
    targets = mus[tmu] - (tj[:, None] == np.arange(d))
    per_target = (tmu, tj, targets, t_end - n_tgt)
    g, ends, rows, cols, vals, row0, size, dims = (
        _u2_entries(mus, *per_target) if d == 2 else _entries(plan, lower, *per_target))

    # the level's table; every target keeps at least one run of entries, so
    # the runs of target b end at the count of runs of targets 0, ..., b
    ptr = np.zeros(len(tj) + 1, dtype=np.intp)
    ptr[1:] = ends[np.bincount(g, minlength=len(tj)).cumsum() - 1]
    table = np.empty((5, len(tj)), dtype=np.intp)
    table[0] = tj + 1
    table[1] = row0
    table[2] = size
    table[3] = ptr[:-1]
    table[4] = ptr[1:] - ptr[:-1]
    first = np.zeros(n_mu + 1, dtype=np.intp)
    first[1:] = t_end
    level = _Level(*readonly(rows, cols, vals, first, table, dims))
    # each coupling's own block pointers, laid end to end: n_tgt + 1 each
    o = np.arange(n_mu).repeat(n_tgt + 1)
    local = ptr[np.arange(len(o)) - o] - ptr[first[o]]
    readonly(local)
    blocks = list(zip(map(tuple, targets.tolist()), row0.tolist(), size.tolist()))
    first, ptr = first.tolist(), ptr.tolist()
    out = {}
    for k, key in enumerate(plan.keys):
        b, b1 = first[k], first[k + 1]
        e0, e1 = ptr[b], ptr[b1]
        out[key] = _Triplets(rows[e0:e1], cols[e0:e1], vals[e0:e1], local[b + k:b1 + k + 1],
                             tuple(blocks[b:b1]), level, k)
    return level, out


def _u2_entries(mus, tmu, tj, targets, t_first):
    """_entries for U(2) keys (a, 0), in closed form.  Pattern q of (a, 0)
    has content (a - q), whose U(1) coupling is one entry with coefficient
    1, so column (q, i) lands at most once in each target mu - e_j: labeled
    a - q - j' with j' = 1 - i, with coefficient T(mu, j, (a - q), j'), on
    the row of that label, t_1 - label after the target's first row.  Each
    entry is a run of its own."""
    a = mus[:, 0]
    n_comb = 2 * a[tmu] + 2
    comb_end = n_comb.cumsum()
    g = np.arange(len(tj)).repeat(n_comb)
    q, jp = np.divmod(np.arange(comb_end[-1]) - (comb_end - n_comb)[g], 2)
    o = tmu[g]
    content = a[o] - q
    vals = reduced_wigner_values(mus[o], content[:, None], tj[g] + 1, jp)
    keep = vals.nonzero()[0]
    g, q, jp, label, vals = g[keep], q[keep], jp[keep], content[keep] - jp[keep], vals[keep]
    size = targets[:, 0] - targets[:, 1] + 1
    t_row = size.cumsum() - size
    row0 = t_row - t_row[t_first][tmu]
    rows = row0[g] + targets[g, 0] - label
    return g, np.arange(1, len(g) + 1), rows, 2 * q + 1 - jp, vals, row0, size, a + 1


def _entries(plan: _Plan, lower, tmu, tj, targets, t_first):
    """(g, ends, rows, cols, vals, row0, size, dims): the entries of the
    level's couplings, in runs grouped by target (run s of target g[s] ends
    at entry ends[s]), each target's first row in its coupling and its
    size, and each key's dim.

    A segment is one output block of a content's coupling (its entries; leg
    values below d) or the diagonal of one content (its patterns, at leg
    value d), labeled by the U(d-1) staircase nu of its rows.  Each segment
    lands in each target block mu - e_j of its mu with one coefficient
    T(mu, j, mu', j'), j' = 0 for the diagonal, and one row shift; the
    (target, segment) pairs whose coefficient is 0 are dropped, and each
    pair kept is one run.  The labels of the pairs kept in a target are its
    contents, so a label's offset in the target is the sum of the dims of
    the contents above it in descending lex order: each label's dim is
    written at its position among the target's contents, and one running
    sum over all targets gives every label's row and every target's size.
    """
    mus, owner, pairs, sub = plan.mus, plan.owner, plan.pairs, plan.sub
    d = mus.shape[1]
    dims, b0, nb, table, rows, cols, vals = lower
    n_e, n_b = len(rows), table.shape[1]
    # the source entries: those of every content's coupling, then one
    # diagonal as long as the largest content, which every content's
    # diagonal reads from its start; column (q', i') in the U(d) numbering
    # q' d + i'
    diag = np.arange(dims.max())
    src_rows = np.concatenate((rows, diag))
    src_cols = np.concatenate((cols + cols // (d - 1), diag * d + (d - 1)))
    src_vals = np.concatenate((vals, np.ones(len(diag))))
    # the segments of every pair, pair by pair, its diagonal first: columns
    # of the contents' table, extended by one column per diagonal
    ext = np.empty((5, n_b + len(dims)), dtype=np.intp)
    ext[:, :n_b] = table
    ext[:2, n_b:] = 0
    ext[2, n_b:] = ext[4, n_b:] = dims
    ext[3, n_b:] = n_e
    n_seg = nb[sub] + 1
    s_end = n_seg.cumsum()
    seg_pair = np.arange(len(sub)).repeat(n_seg)
    k = np.arange(s_end[-1]) - (s_end - n_seg)[seg_pair]
    seg = ext[:, np.where(k == 0, n_b + sub[seg_pair], b0[sub][seg_pair] + k - 1)]
    # each pair's patterns start at in_off in its key's; each key's segments
    # are ms_first[o]:ms_first[o] + ms_count[o]
    pdim = dims[sub]
    p_end = pdim.cumsum()
    p_first = plan.end - plan.count
    in_off = p_end - pdim - (p_end - pdim)[p_first][owner]
    ms_first = (s_end - n_seg)[p_first]
    ms_count = s_end[plan.end - 1] - ms_first

    # every (target, segment) pair of each mu, targets major, with its
    # coefficient; the zeros are dropped
    n_comb = ms_count[tmu]
    comb_end = n_comb.cumsum()
    g = np.arange(len(tj)).repeat(n_comb)
    sig = np.arange(comb_end[-1]) + (ms_first[tmu] - (comb_end - n_comb))[g]
    pr = seg_pair[sig]
    coef = reduced_wigner_values(mus[tmu[g]], pairs[pr], tj[g] + 1, seg[0, sig])
    keep = coef.nonzero()[0]
    g, sig, pr, coef = g[keep], sig[keep], pr[keep], coef[keep]
    s = seg[:, sig]

    # the label of each pair kept, as its place among its target's contents
    # (a mixed-radix number, as in _plan) after those of the targets before
    # (label pair - e_{j'} less its target's digits; at j' = 0, the pair)
    width = targets[:, :-1] - targets[:, 1:] + 1
    place = _places(width)
    n_cont = place[:, 0] * width[:, 0]
    base = np.empty((len(tj), d), dtype=np.intp)  # [b, 0]: target b's first place; [b, j'],
    # j' > 0: that plus the place of digit j' - 1
    base[:, 0] = n_cont.cumsum() - n_cont
    base[:, 1:] = place + base[:, :1]
    key = ((targets[g, :-1] - pairs[pr]) * place[g]).sum(axis=1) + base[g, s[0]]
    label_dim = np.zeros(base[-1, 0] + n_cont[-1], dtype=np.intp)
    label_dim[key] = s[2]
    above = label_dim.cumsum()
    row = above - label_dim  # of each label, counted over all targets
    t_row = row[base[:, 0]]
    size = above[base[:, 0] + n_cont - 1] - t_row
    mu_row = t_row[t_first]

    # a segment labeled nu moves to the row of nu in its target less the
    # segment's own offset in the sub coupling; its columns move by the
    # content's offset in its mu
    length = s[4]
    ends = length.cumsum()
    shift = np.empty((3, len(g)), dtype=np.intp)
    shift[0] = s[3] - (ends - length)
    shift[1] = row[key] - mu_row[tmu[g]] - s[1]
    shift[2] = in_off[pr] * d
    shift = shift.repeat(length, axis=1)
    idx = np.arange(ends[-1]) + shift[0]
    rows = src_rows[idx] + shift[1]
    cols = src_cols[idx] + shift[2]
    vals = src_vals[idx] * coef.repeat(length)
    return (g, ends, rows, cols, vals, t_row - mu_row[tmu], size,
            p_end[plan.end - 1] - (p_end - pdim)[p_first])


def bend(dual_block: np.ndarray, dim_nu: int, dim_lam: int, d: int) -> np.ndarray:
    """Turn the (nu -> lam) block of dual_cg(nu) into the (lam -> nu) defining block.

    dual_block has shape (dim_lam, dim_nu * d); the result has shape
    (dim_nu, dim_lam * d) with C_def[q_nu, (q_lam, i)] =
    sqrt(dim_nu / dim_lam) * conj(C_dual[q_lam, (q_nu, i)]).
    """
    if dual_block.shape != (dim_lam, dim_nu * d):
        raise ValueError(f"dual block has shape {dual_block.shape}, "
                         f"expected {(dim_lam, dim_nu * d)}")
    scale = np.sqrt(dim_nu / dim_lam)
    cube = dual_block.reshape(dim_lam, dim_nu, d)
    return scale * np.conj(cube).transpose(1, 0, 2).reshape(dim_nu, dim_lam * d)


def defining_cg(lam: Staircase, cap: int = CG_DIM_CAP) -> CGTransform:
    """Coupling of the irrep lam with the defining irrep, built by bending."""
    lam = validate(lam)
    key = ("defining", lam)
    hit = _memo.get(key)
    if hit is not None:
        return hit
    d = len(lam)
    dlam = dim(lam)
    if dlam * d > cap:
        raise CapExceeded(f"dim(lam) * d = {dlam * d} exceeds cap {cap}")
    targets = add_box_set(lam)
    blocks, pieces, off = [], [], 0
    for nu, t in zip(targets, _sparse_duals(targets)):
        # the real dual block C_dual[q_lam, (q_nu, i)] moves to
        # C_def[q_nu, (q_lam, i)], scaled; the swap is on triplets
        dn = int(t.level.dim[t.at])
        b = next(k for k, (g, _, _) in enumerate(t.blocks) if g == lam)
        sl = slice(t.ptr[b], t.ptr[b + 1])
        q_nu, i = np.divmod(t.cols[sl], d)
        q_lam = t.rows[sl] - t.blocks[b][1]
        pieces.append((off + q_nu, q_lam * d + i, np.sqrt(dn / dlam) * t.vals[sl]))
        blocks.append((nu, off, dn))
        off += dn
    rows, cols, vals = (np.concatenate(x) for x in zip(*pieces))
    W = _csr(rows, cols, vals, dlam * d)
    resid = _gram_residual(W)
    if not resid <= 1e-8:
        raise RuntimeError(
            f"bent defining CG for {lam} failed unitarity ({resid:.2e}); "
            "coupling conventions are inconsistent")
    out = CGTransform(lam, d, "defining", W, tuple(blocks))
    with _memo_lock:
        return _memo.setdefault(key, out)


def cg_transform(kind: str, gamma: Staircase, cap: int = CG_DIM_CAP) -> CGTransform:
    """The coupling of one kind of gamma: cg_transforms of the one staircase."""
    return cg_transforms(kind, [gamma], cap)[0]


def weight_sparsity_residual(t: CGTransform) -> float:
    """Largest entry violating weight conservation; 0 for a correct transform.

    A defining (dual) coupling can only connect an input of weight w on leg i
    to outputs of weight w + e_i (w - e_i).  Only the stored entries are
    read, against the weight of their row and the weight their column
    (q, i) must reach.
    """
    step = 1 if t.kind == "defining" else -1
    reach = (pattern_weights(t.input_irrep)[:, None, :]
             + step * np.eye(t.d, dtype=np.int64)).reshape(-1, t.d)
    row_weight = np.concatenate([pattern_weights(g) for g, _, _ in t.output_blocks])
    w = t.matrix
    bad = (row_weight[w.entry_rows()] != reach[w.indices]).any(axis=1)
    return float(np.abs(w.data[bad]).max(initial=0.0))
