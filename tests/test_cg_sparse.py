"""The sparse triplet builder behind the coupling transforms: its memo, its
read-only arrays, the bend on triplets, the NaN-safe unitarity check and
the memory of large builds."""

import json
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

import mskit
from mskit import cg, wigner
from mskit.cg import CGTransform, bend, cg_transform, clear_cache, defining_cg, dual_cg
from mskit.gelfand import interlacing_set
from mskit.staircase import add_box_set, dim

from test_staircase import all_staircases


def _memos(module):
    """Every module-level dict and every lru cache the module defines."""
    for name, val in vars(module).items():
        if name.startswith("__"):
            continue
        if isinstance(val, dict):
            yield name, lambda val=val: len(val)
        elif hasattr(val, "cache_info") and val.__module__ == module.__name__:
            yield name, lambda val=val: val.cache_info().currsize


def test_clear_cache_empties_every_memo():
    dual_cg((2, 1, 0, -1))
    defining_cg((1, 1, 0, -1))
    assert cg._memo and cg._triplet_memo
    clear_cache()
    for module in (cg, wigner):
        for name, size in _memos(module):
            assert size() == 0, f"{module.__name__}.{name} survives clear_cache"


def test_triplet_arrays_are_read_only():
    clear_cache()
    defining_cg((2, 1, 0, -1))
    assert cg._triplet_memo
    for t in cg._triplet_memo.values():
        for x in (t.rows, t.cols, t.vals, t.ptr):
            assert not x.flags.writeable
            with pytest.raises(ValueError):
                x[0] = x[0]


def test_triplets_are_unique_and_grouped_by_block():
    for mu in [(1, 0), (2, 0, -1), (2, 1, 0, -1), (1, 1, 0, 0, -1)]:
        t = cg._sparse_dual(mu)
        n = dim(mu) * len(mu)
        flat = t.rows * n + t.cols
        assert len(np.unique(flat)) == len(flat)
        for b, (_, off, size) in enumerate(t.blocks):
            rows = t.rows[t.ptr[b]:t.ptr[b + 1]]
            assert ((rows >= off) & (rows < off + size)).all()
        assert t.ptr[-1] == len(t.vals) == np.count_nonzero(dual_cg(mu).matrix.toarray())


def _recursion(gammas):
    """Every staircase the dual couplings of gammas recurse into."""
    out, todo = set(), list(gammas)
    while todo:
        for c in interlacing_set(todo.pop()):
            if c not in out:
                out.add(c)
                todo.append(c)
    return sorted(out)


@pytest.mark.parametrize("gamma", [(2, 1, 0, -1), (1, 1, 0, 0, -1), (3, 1, 0, -2),
                                   (2, 1, 1, 0, -1), (1, 1, 0, 0, 0, -1)])
def test_couplings_do_not_depend_on_memo_order(gamma):
    # a cold build, and builds after warming a random subset of the
    # staircases the recursion reaches (some shifted) or a shifted sibling
    def build():
        return [cg_transform(kind, gamma).matrix.toarray().tobytes()
                for kind in ("dual", "defining")]

    clear_cache()
    cold = build()
    reach = _recursion([gamma] + add_box_set(gamma))
    rng = np.random.default_rng(len(reach))
    for trial in range(6):
        clear_cache()
        if trial == 0:
            dual_cg(tuple(x + 2 for x in gamma))
            defining_cg(tuple(x - 1 for x in gamma))
        else:
            for k in rng.choice(len(reach), size=rng.integers(1, len(reach) + 1), replace=False):
                c = int(rng.integers(-2, 3))
                cg._sparse_dual(tuple(x + c for x in reach[k]))
        assert build() == cold, trial
    clear_cache()


@pytest.mark.parametrize("d", [1, 2, 3])
def test_defining_equals_bend_of_dense_dual_blocks(d):
    lams = all_staircases(d, -2, 2)
    if d == 3:
        lams += [(2, 1, -1, -2), (1, 0, 0, -1), (3, 1, 0, 0)]
    for lam in lams:
        t = defining_cg(lam)
        for nu, off, dn in t.output_blocks:
            expected = bend(dual_cg(nu).block(lam).toarray(), dn, dim(lam), len(lam))
            assert np.array_equal(t.matrix[off:off + dn].toarray(), expected), (lam, nu)


@pytest.mark.parametrize("n", [4, 200])
def test_gram_residual_propagates_nan(n):
    w = np.eye(n)
    assert cg._gram_residual(w) == 0.0
    w[1, 2] = np.nan
    assert np.isnan(cg._gram_residual(w))
    t = CGTransform((0,) * n, n, "dual", w, ((((0,) * n), 0, n),))
    assert np.isnan(t.unitarity_residual())


@pytest.mark.parametrize("n", [4, 200])
def test_gram_residual_counts_the_diagonal(n):
    perm = np.eye(n)[np.random.default_rng(n).permutation(n)]
    assert cg._gram_residual(perm) == 0.0
    assert cg._gram_residual(2 * perm) == 3.0
    w = perm.copy()
    w[n // 2] = 0.0  # a zero row has no Gram entry at all
    assert cg._gram_residual(w) == 1.0
    w[n // 2, 0] = 0.5
    assert cg._gram_residual(w) == 0.75


@pytest.mark.parametrize("lam", [(1, 0, 0), (2, 1, 0, -1)])
def test_defining_unitarity_assert_fails_on_nan(lam):
    # a NaN in the dual triplets a bend reads must fail the assert, on a
    # small (9 rows) and on a large (more than 128 rows) coupling
    clear_cache()
    nu = add_box_set(lam)[0]
    t = cg._sparse_dual(nu)
    b = next(k for k, (g, _, _) in enumerate(t.blocks) if g == lam)
    vals = t.vals.copy()
    vals[t.ptr[b]] = np.nan
    cg._triplet_memo[nu] = t._replace(vals=vals)
    try:
        with pytest.raises(RuntimeError, match="failed unitarity"):
            defining_cg(lam)
    finally:
        clear_cache()


@pytest.mark.parametrize("kind,gamma", [("dual", (1, 0)), ("dual", (2, 1, 0, -1)),
                                        ("defining", (2, 1, 0, -1)),
                                        ("dual", (2, 1, 0, 0, -1))])
def test_unitarity_residual_matches_dense_product(kind, gamma):
    t = cg.cg_transform(kind, gamma)
    w = t.matrix
    dense = float(np.abs(w @ w.T - np.eye(w.shape[0])).max())
    assert abs(t.unitarity_residual() - dense) < 1e-15
    assert t.unitarity_residual() < 1e-13


# ru_maxrss keeps the high-water mark of the process image before exec, here
# the test runner's, so the child reports the peak of its own image (VmHWM).
NESTED = """
import json
import numpy as np
from mskit.cg import defining_cg
t = defining_cg((1, 1, 0, 0, 0, 0, -1, -1))
w = t.matrix
x = np.random.default_rng(3).standard_normal((w.shape[1], 3))
x /= np.linalg.norm(x, axis=0)
with open("/proc/self/status") as f:
    hwm = next(int(line.split()[1]) for line in f if line.startswith("VmHWM:"))
print(json.dumps({"shape": list(w.shape),
                  "probe": float(np.abs(w.T @ (w @ x) - x).max()),
                  "maxrss_kb": hwm}))
"""


def test_nested_coupling_builds_under_one_gigabyte():
    # its inner dual coupling would hold 33,600^2 entries (8.4 GiB) dense
    src = str(pathlib.Path(mskit.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", NESTED], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "1",
                              "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"},
                         timeout=300, check=True)
    got = json.loads(out.stdout)
    assert got["shape"] == [5760, 5760]
    assert got["probe"] < 1e-10
    assert got["maxrss_kb"] < 1024 ** 2


WIDE = """
import json
from mskit.cg import dual_cg, weight_sparsity_residual
t = dual_cg((2,) + (0,) * 14 + (-1,))
res = {"shape": list(t.matrix.shape), "unitarity": t.unitarity_residual(),
       "weight": weight_sparsity_residual(t)}
with open("/proc/self/status") as f:
    res["maxrss_kb"] = next(int(line.split()[1]) for line in f if line.startswith("VmHWM:"))
print(json.dumps(res))
"""


def test_d16_coupling_builds_under_one_gigabyte():
    # 34,560^2 entries (9.6 GB) if it were dense
    src = str(pathlib.Path(mskit.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", WIDE], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "1",
                              "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"},
                         timeout=300, check=True)
    got = json.loads(out.stdout)
    assert got["shape"] == [34560, 34560]
    assert got["unitarity"] <= 1e-12
    assert got["weight"] == 0.0
    assert got["maxrss_kb"] < 1024 ** 2
