"""The sparse triplet builder behind the coupling transforms: its memo, its
read-only arrays, the bend on triplets, the NaN-safe unitarity check and
the memory of large builds."""

import hashlib
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


@pytest.mark.parametrize("keys", [
    [(2, 1, 0), (3, 3, 0), (4, 0, 0)],
    [(3, 1, 1, 0), (2, 2, 1, 0), (1, 0, 0, 0)],
    [(1,) + (0,) * 69, (2, 1) + (0,) * 68],  # content keys past int64, told apart by bytes
])
def test_plan_lists_every_content_and_its_key(keys):
    plan = cg._plan(keys)
    pairs = [tuple(p) for p in plan.pairs.tolist()]
    assert pairs == [c for k in keys for c in interlacing_set(k)]
    canonical = [tuple(x - c[-1] for x in c) for c in pairs]
    assert [plan.contents[s] for s in plan.sub] == canonical
    assert sorted(plan.contents) == sorted(set(canonical))


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


# SHA-256 of (data, indices, indptr, output_blocks) of dual_cg(gamma) and
# defining_cg(gamma), as the per-staircase build wrote them: any change to a
# coupling's entries, their storage order or dtype, or its block labels shows
# here.  Shifted staircases (last entry != 0), the bench's coupling-pool
# anchor (4, 4, 2, 2, -1) and one d = 16 staircase are among them.
PINNED_DIGESTS = {
    (1, 0): ("97b6ba913a90118cd4fa3457e5e28004d95eaac948fac89d732bdd7fef2237cb",
        "12d3b749229a7af9fd2c6941dde4f68955e0fbeee9e504562b0a032369e84341"),
    (2, -1): ("146f0daa8d2d3ab97aa7db73c90bff89d28951447ccbe20e3a2f15280eec75cc",
        "d6e053a01d99131f99a82a390ba835ab59be4cb7b66e39919e6b8c29dddcf50e"),
    (3, 1): ("ee9beeadc232c459d62cfbb46ee567128ce742a0e6f8573017c61f94468ba0b2",
        "45added44227f527e320f9e32b743516e1748f42cc1975912fe8b095dd15bc31"),
    (1, 0, 0): ("49758b71a328a378937ae747bd775942321e935a3b815731b23fe9d0dd07f932",
        "b2f9aa2fa2c97ed488244fda5840d307624ea1db612b488e1967eea7f44c63a8"),
    (2, 1, -1): ("619b6e8812f29dc2407e7c21baf312ced35e4e0eb916541b4ca726ed6d762611",
        "be11c52f833a22a7525795cae94ada825fb1ed481537ea11d98011329871bc22"),
    (4, 2, 1): ("2a72c6a2eec9ba2840da56d32b5714979dc460077ddb7fe38703edbe0e005877",
        "40a10c3af5ed7b5d24c5b74519f024d533852f7fe8d7828f2be9a846678091ea"),
    (2, 1, 0, -1): ("c2e5d8a994c690db30d597e2c32ccd803020b01ddd91ae08d03e2f887f2ae144",
        "9e2a7b4741faccf8935a1408f30a3b5f0c5e13a1ac9b137e00bb1f125d0fd6a0"),
    (3, 3, 1, 0): ("4ff6201dd30c3ec65644fe4db52c49dbd7fde28964a5c093a7164bbd4f880d83",
        "37dc3f1731186261bca606844f1d907fc4268fb13c3cde09fcb33641c92edae8"),
    (1, 0, -2, -3): ("40d6709c30583c713caf6319b5659fce2e7c63f8474780004eaea4a6fe660d0f",
        "fc4b7035eec7de51d1a182444fb7059f0ebff57e7d3e82397313889b711719ff"),
    (2, 1, 0, 0, -1): ("d09a1d997c72282d1e5346713ce376440a475fed8e388563378a216fd8fbbb8a",
        "5ed26de1f30eca1bcfa0b86b67f5f419e992409c42be128d9cbd82701c8f8ae8"),
    (3, 2, 2, 1, 1): ("dffb98efd1d6209c958cdc3648c358fb27beb0c96a00cca0735ccff9ee5d952c",
        "8633b0c291bd679f541713adebff88eca8d1871892b218284ea155ebb88b8c25"),
    (0, 0, -1, -2, -4): ("9af5a712e479f04f92809c056b1c99e1911aee703eb4c010e9a34808b618ded9",
        "ae460ab0119157ca8fe4642b61db37538d1a08a5caa330255b8886754cf53a3f"),
    (4, 4, 2, 2, -1): ("35b0c9349d32cb7244590b64f7cf847b7ecc77f25b9e10e7a87bf9cbead440b8",
        "06edea0844e2d152dbdce4ea576415232ca54e54567fa78e34eb171fc2d7fbde"),
    (1, 1, 0, 0, -1, -1): ("9e449f407f754684b31e3741c14151db3b408e01aa56ba81556847ed0b598e19",
        "5497f5f3d8e7b50f71f2840e9d97db8596c0e00d5e75ef93ffde5f0d0161cc83"),
    (2, 2, 1, 1, 0, 0): ("df2f75ad8e00f29fd75dd81183013e3e76fd2fc1a8099840356755813bb27d77",
        "9b562b7d81cccf10ae10d9327af6f07425bf442613426ac299fd663a1980a38c"),
    (1, 0, 0, 0, 0, 0, -1): ("20b16ee18397b3d7db7e2f8274d059352db20c7c5b9933c0570eae3d95c89811",
        "dceb0ff712e3345da43bd21f7072f605d50506a3a0ddfa4a541ee3c0b1c65347"),
    (2, 1, 1, 1, 1, 1, 1): ("a135085ce44f2bdbb984b99603a1316d6d2c2e9aac4779445d8ea860ed612c9a",
        "0e473fd76498b6b483e42c8d113d18faeddb2a9be335e3639e03c06c08f98a84"),
    (1, 1, 0, 0, 0, 0, -1, -1): ("43d388d93f3f63f86bfcd83124486d91314f99843f325b1e216d33e9660b1870",
        "625e284dc08a834b20d98b7e638092556bdabb608bf1167a124ce672f8f328f2"),
    (3, 2, 2, 2, 2, 2, 2, 1): ("e391a42246f2b69e125c8dc2e5a9e3e1d06eeaf7bc8659ec1daa8fee7e6f4fa8",
        "ae6ee72f481e580fb990ea7b39dfad36724787531d47f686f701ab6e070bdaf8"),
    (1,) + (0,) * 14 + (-1,): ("8999a22b15c829dd3828b2b215b35bcb13108fd3fc28c748dd276609ede05496",
        "3c40ffb499f23ba8f7d26bb618046e9fdbd28a83f872cdb4cfac3f103d569db0"),
}


def _digest(t: CGTransform) -> str:
    h = hashlib.sha256()
    w = t.matrix
    for x in (w.data, w.indices, w.indptr):
        h.update(x.dtype.str.encode())
        h.update(np.ascontiguousarray(x).tobytes())
    h.update(repr(t.output_blocks).encode())
    return h.hexdigest()


def test_couplings_match_pinned_digests():
    clear_cache()
    got = {gamma: (_digest(dual_cg(gamma)), _digest(defining_cg(gamma)))
           for gamma in PINNED_DIGESTS}
    clear_cache()
    assert got == PINNED_DIGESTS


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
