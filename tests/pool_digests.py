"""SHA-256 digests of every coupling in the bench's coupling pool, built cold.

    PYTHONPATH=src python tests/pool_digests.py           # check against the file
    PYTHONPATH=src python tests/pool_digests.py --write   # record the file

Each member of bench/coupling_pool.json (every stratum and the anchor) is
built after clear_cache.  Its digest covers the coupling's data, indices,
indptr and output_blocks, and, for a coupling of at most LEGS_ROWS rows,
its cut into leg blocks (CGTransform.legs) too.  The check exits 1 and
names the members whose digest differs from DIGEST_FILE.
"""

import hashlib
import json
import pathlib
import sys

import numpy as np

from mskit.cg import cg_transform, clear_cache

ROOT = pathlib.Path(__file__).resolve().parents[1]
POOL_FILE = ROOT / "bench" / "coupling_pool.json"
DIGEST_FILE = pathlib.Path(__file__).resolve().parent / "coupling_pool_digests.json"
LEGS_ROWS = 3000


def pool() -> list[tuple[str, tuple[int, ...]]]:
    """(kind, gamma) of every pool member, the anchor first, then stratum by stratum."""
    stored = json.loads(POOL_FILE.read_text())
    kind, gamma = stored.pop("anchor")
    members = [(kind, tuple(gamma))]
    for key, gammas in stored.items():
        members += [(key.split()[0], tuple(g)) for g in gammas]
    return members


def _update(h, x) -> None:
    if isinstance(x, np.ndarray):
        h.update(f"{x.dtype.str}{x.shape}".encode())
        h.update(np.ascontiguousarray(x).tobytes())
    elif isinstance(x, tuple) and any(isinstance(y, np.ndarray) for y in x):
        for y in x:
            _update(h, y)
    else:
        h.update(repr(x).encode())


def digest(t) -> tuple[str, str | None]:
    """(digest of the matrix and its blocks, digest of t.legs or None)."""
    h = hashlib.sha256()
    w = t.matrix
    for x in (w.data, w.indices, w.indptr):
        _update(h, x)
    _update(h, t.output_blocks)
    if w.shape[0] > LEGS_ROWS:
        return h.hexdigest(), None
    g = hashlib.sha256()
    for field in t.legs:
        _update(g, field)
    return h.hexdigest(), g.hexdigest()


def digests() -> dict[str, list]:
    out = {}
    for kind, gamma in pool():
        clear_cache()
        out[f"{kind} {','.join(map(str, gamma))}"] = list(digest(cg_transform(kind, gamma)))
    clear_cache()
    return out


def main(argv) -> int:
    got = digests()
    if argv[1:] == ["--write"]:
        lines = [f"{json.dumps(k)}: {json.dumps(v)}" for k, v in got.items()]
        DIGEST_FILE.write_text("{\n" + ",\n".join(lines) + "\n}\n")
        print(f"wrote {len(got)} digests to {DIGEST_FILE.name}")
        return 0
    want = json.loads(DIGEST_FILE.read_text())
    bad = [k for k in want.keys() | got.keys() if want.get(k) != got.get(k)]
    legs = sum(v[1] is not None for v in got.values())
    print(f"coupling pool: {len(got)} couplings, {legs} with legs, {len(bad)} differ")
    for k in sorted(bad):
        print("  differs:", k)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
