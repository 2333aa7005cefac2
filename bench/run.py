"""mskit benchmark: closed-loop workloads with end-to-end and per-layer figures.

    python3 bench/run.py --workload certify --seed 1 --seconds 20 --trace 0
    python3 bench/run.py                  # every workload, one table each
    python3 bench/run.py --smoke          # one op per workload, both modes

Each workload runs in worker processes of its own, started from here with
the BLAS thread count pinned.  With ``--trace 0`` the result carries the
``end_to_end`` metrics of BENCHMARK.json; their times are scaled to a
reference machine speed (see worker.py), and ``setup_s`` is the median over
eight processes that each start, import and set up.  With ``--trace 1`` it
carries the ``per_layer`` metrics from a traced run.  For one workload the
last line of stdout is the result JSON; the line before it (``# info``)
holds the figures that are not gated: fail_frac, max_residual, the raw
wall_s and set-up time, op_p50_s and op_tail_s (raw and scaled) with the
tail's percentile and op count, pass counts, library versions, BLAS
threads, nproc and the line count of src/mskit.  The exit code is 0 only if
every op's output passed its check.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
BLAS_THREADS = 1  # at most nproc; one thread leaves the second core to noise
SETUP_BEFORE, SETUP_AFTER = 4, 3  # set-up samples around the measuring process
RUN_LIMIT_S = 170


class BenchError(Exception):
    pass


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def launch(workload: str, seed: int, seconds: float, trace: int, deadline: float,
           extra: list[str]) -> dict:
    """Run worker.py once and return its JSON line."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(BLAS_THREADS),
               OMP_NUM_THREADS=str(BLAS_THREADS), MKL_NUM_THREADS=str(BLAS_THREADS))
    t0 = time.monotonic()
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
           "--t0", repr(t0), *extra]
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=max(1.0, deadline - t0))
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload}: worker ran past {RUN_LIMIT_S} s") from None
    if proc.returncode != 0:
        raise BenchError(f"{workload}: worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.splitlines()[-1])


def run_workload(spec: dict, workload: str, seed: int, seconds: float, trace: int,
                 max_ops: int | None = None) -> tuple[dict, dict]:
    """(result, info) for one workload run."""
    deadline = time.monotonic() + RUN_LIMIT_S
    extra = [] if max_ops is None else ["--max-ops", str(max_ops)]

    def setup_only() -> dict:
        return launch(workload, seed, seconds, trace, deadline, extra + ["--setup-only"])

    # Set-up is sampled before and after the measuring process, so that a
    # slow or fast stretch of the machine does not carry every sample.
    setups = [setup_only() for _ in range(SETUP_BEFORE if not trace else 0)]
    out = launch(workload, seed, seconds, trace, deadline, extra)
    metrics = out["metrics"]
    info = out["info"]
    if not trace:
        setups.append(out)
        setups += [setup_only() for _ in range(SETUP_AFTER)]
        metrics["setup_s"] = statistics.median(x["setup_s"] for x in setups)
        info["setup_raw_s"] = statistics.median(x["setup_raw_s"] for x in setups)
    selected = {}
    for declared in spec["per_layer" if trace else "end_to_end"]:
        name = declared["name"]
        if name not in metrics:
            raise BenchError(f"{workload}: metric {name} was not measured")
        selected[name] = {"value": metrics[name], "unit": declared["unit"]}
    result = {"correct": out["failed"] == 0, "attempted": out["attempted"],
              "failed": out["failed"], "metrics": selected}
    return result, info


def print_table(workload: str, result: dict, info: dict) -> None:
    print(f"== {workload}: {result['attempted']} ops, {result['failed']} failed, "
          f"fail_frac {info['fail_frac']:.3g} ratio, "
          f"max_residual {info['max_residual']:.2e}")
    for name, m in result["metrics"].items():
        print(f"   {name:45s} {m['value']:.6g} {m['unit']}")
    if "op_count" in info:
        print(f"   op_tail percentile: p{info['op_tail_percentile']} of {info['op_count']} ops")
        for name in ("wall_s", "setup_raw_s", "op_p50_s", "op_tail_s",
                     "op_p50_ref_s", "op_tail_ref_s"):
            print(f"   {name + ' (not gated)':45s} {info[name]:.6g} s")


def smoke(spec: dict) -> int:
    """One op per workload in both modes; every declared metric must be
    measured and every check must pass."""
    ok = True
    for w in spec["workloads"]:
        for trace in (0, 1):
            result, _info = run_workload(spec, w["name"], 1, 0, trace, max_ops=1)
            ok &= result["correct"]
            print(f"smoke {w['name']} trace={trace}: {len(result['metrics'])} metrics, "
                  f"{'ok' if result['correct'] else 'CHECK FAILED'}")
    return 0 if ok else 1


def main() -> int:
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=names + ["all"], default="all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args()
    try:
        if args.smoke:
            return smoke(spec)
        if args.workload != "all":
            result, info = run_workload(spec, args.workload, args.seed, args.seconds,
                                        args.trace)
            print("# info " + json.dumps(info))
            print(json.dumps(result))
            return 0 if result["correct"] else 1
        correct = True
        for name in names:
            result, info = run_workload(spec, name, args.seed, args.seconds, args.trace)
            print_table(name, result, info)
            correct &= result["correct"]
        return 0 if correct else 1
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
