"""The benchmark's own tests: the stored coupling pool, the smoke mode, then
a run without the program.

    python3 bench/selftest.py

The stored coupling pool must equal a fresh scan (``python3
bench/workloads.py`` rewrites it).  The smoke mode runs one op per workload
in both modes and fails unless every metric of BENCHMARK.json is measured
and every check passes.  The last test copies BENCHMARK.json and bench/
into an empty directory and requires a nonzero exit with no result line,
because there is no mskit to measure there.
"""

from __future__ import annotations

import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def main() -> int:
    sys.path[:0] = [str(BENCH), str(ROOT / "src")]
    import workloads
    from mskit.staircase import dim
    assert workloads.read_pool() == workloads.coupling_pool(dim), \
        "bench/coupling_pool.json is stale: run python3 bench/workloads.py"

    smoke = subprocess.run([sys.executable, str(BENCH / "run.py"), "--smoke"], cwd=ROOT)
    assert smoke.returncode == 0, f"smoke mode exited with {smoke.returncode}"

    with tempfile.TemporaryDirectory(prefix=".work-", dir=BENCH) as bare:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(BENCH, Path(bare) / "bench",
                        ignore=shutil.ignore_patterns(".work-*", "out", "__pycache__"))
        proc = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", "certify", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0, "a checkout without src/ must not pass"
    assert '"metrics"' not in proc.stdout, "a checkout without src/ printed a result"
    print("selftest ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
