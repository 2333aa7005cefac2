"""Run one workload in this process and print its figures as one JSON line.

run.py starts this file once per workload run, with the BLAS thread count
pinned in the environment.  The process imports mskit from the checkout's
``src``, turns the seed into the workload's op list (set-up), then runs the
list in passes: one caller, ops in a fixed order, each op timed alone and
checked after its clock stops.  Passes repeat while another one fits in
``--seconds``.  With ``--trace 1`` untraced and traced passes alternate; the
per-layer figures come from the traced ones and the tracing overhead is the
difference of the two kinds' median wall times.

The gated times are scaled to a reference machine speed.  On the shared VM
the benchmark was defined on, the same code on the same inputs ran up to 25%
faster or slower from one stretch of seconds to the next, which is more than
a bound may allow.  So in untraced passes a fixed probe (``probe``, the
benchmark's own code and nothing of mskit) reads how slow the machine is
before the first op, after every op, and every SAMPLE_EVERY_S while an op
runs (from a timer signal; its time is taken off the op's).  Each op's time
is divided by the mean reading within SPEED_WINDOW_S of the op.  A change to
mskit does not change the probe; the raw times are kept on the ``# info``
line.  A probe on the other core does not follow this core's speed, so the
probe runs on the core that runs the ops.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import math
import os
import resource
import shutil
import signal
import statistics
import sys
import tempfile
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent

# The probe has two parts: interpreter work with small complex GEMMs, as in
# most of mskit, and one read of a 32 MB array, for the memory traffic of
# the D = 4096 transforms.  Together they followed the speed of those
# transforms better than either part alone (bench/README.md).  Each part's
# time is divided by a fixed reference time, about what it took on the
# 2-vCPU VM the benchmark was defined on, and the probe reports the mean of
# the two ratios: 1.0 at the reference speed, 1.2 on a machine 20% slower.
REF_PART_S = (0.0022, 0.0045)
SAMPLE_EVERY_S = 0.5
SPEED_WINDOW_S = 1.0  # the machine's speed held for seconds at a time
_PROBE_DATA: tuple = ()


def probe() -> float:
    """How slow the machine is now against the reference speed.

    Each part is timed twice and the faster try counts.  The probe allocates
    no object the garbage collector tracks, and the collector is off while
    it runs, so the number of objects mskit keeps alive does not change its
    time.
    """
    import numpy as np

    global _PROBE_DATA
    if not _PROBE_DATA:
        rng = np.random.default_rng(0)
        _PROBE_DATA = (rng.standard_normal((64, 64)) + 1j * rng.standard_normal((64, 64)),
                       np.ones(4 * 1024 * 1024))
    a, block = _PROBE_DATA
    best = [math.inf, math.inf]
    collecting = gc.isenabled()
    gc.disable()
    try:
        for _ in range(2):
            start = time.perf_counter()
            table: dict = {}
            for i in range(9000):
                table[i % 371] = table.get(i % 371, 0) + i * i
            b = a
            for _ in range(8):
                b = a @ b
                b /= np.abs(b).max()
            middle = time.perf_counter()
            block.sum()
            end = time.perf_counter()
            best = [min(best[0], middle - start), min(best[1], end - middle)]
    finally:
        if collecting:
            gc.enable()
    return (best[0] / REF_PART_S[0] + best[1] / REF_PART_S[1]) / 2


class SpeedSamples:
    """Probe readings and when each was taken: on ``take()``, and every
    SAMPLE_EVERY_S inside a ``with`` block, from a SIGALRM handler."""

    def __init__(self):
        self.at: list[float] = []
        self.readings: list[float] = []
        self.spent: list[float] = []
        signal.signal(signal.SIGALRM, lambda _signum, _frame: self.take())

    def take(self) -> None:
        start = time.perf_counter()
        self.readings.append(probe())
        self.at.append(start)
        self.spent.append(time.perf_counter() - start)

    def __enter__(self):
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)

    def spent_within(self, start: float, end: float) -> float:
        return sum(s for t, s in zip(self.at, self.spent) if start <= t < end)

    def slowness(self, start: float, end: float) -> float:
        """The mean probe reading near [start, end]."""
        lo, hi = start - SPEED_WINDOW_S, end + SPEED_WINDOW_S
        return statistics.fmean(p for t, p in zip(self.at, self.readings) if lo <= t <= hi)


def import_mskit():
    src = (ROOT / "src").resolve()
    sys.path.insert(0, str(src))
    import mskit
    import mskit.cli
    import mskit.io
    if not Path(mskit.__file__).resolve().is_relative_to(src):
        raise ImportError(f"mskit came from {mskit.__file__}, not from {src}")
    return mskit


def cache_clearers(mskit):
    """The CG memo and the lru caches on gelfand's and staircase's public
    functions: everything a fresh CLI process starts without."""
    fns = [mskit.cg.clear_cache]
    for module in (mskit.gelfand, mskit.staircase):
        fns += [f.cache_clear for name, f in sorted(vars(module).items())
                if not name.startswith("_") and hasattr(f, "cache_clear")]
    return fns


def run_pass(ops, clearers, tracer=None) -> dict:
    """Run every op once; the checks run after the op's clock stops.  An
    untraced pass also returns each op's time scaled to the reference speed."""
    times, bounds, failures, residuals = [], [], [], []
    speed = None if tracer else SpeedSamples()
    if speed:
        speed.take()
    for i, op in enumerate(ops):
        if op.cold:
            for clear in clearers:
                clear()
        if tracer:
            tracer.op = i
        error = result = None
        start = time.perf_counter()
        with speed or contextlib.nullcontext():
            try:
                result = op.run()
            except Exception as exc:  # a raising op is a failed op, not a crash
                error = exc
        end = time.perf_counter()
        if tracer:
            tracer.on = False
        if speed:
            times.append(end - start - speed.spent_within(start, end))
            speed.take()
        else:
            times.append(end - start)
        bounds.append((start, end))
        try:
            if error is None:
                residual = op.check(result)
                if residual is not None:
                    residuals.append(residual)
        except Exception as exc:  # CheckFailed, or a check that broke
            error = exc
        finally:
            if tracer:
                tracer.on = True
        del result
        if error is not None:
            failures.append(f"{op.name}: {type(error).__name__}: {error}")
    out = {"wall": sum(times), "times": times, "failures": failures,
           "max_residual": max(residuals, default=0.0)}
    if speed:
        out["scaled"] = [t / speed.slowness(*b) for t, b in zip(times, bounds)]
        out["wall_ref"] = sum(out["scaled"])
    return out


def tail(values: list[float]) -> float:
    """The highest percentile with at least ten values above it; with ten
    values or fewer, the maximum."""
    ordered = sorted(values)
    return ordered[-1] if len(ordered) <= 10 else ordered[-11]


def tail_percentile(n: int) -> float:
    """The percentile ``tail`` reports for n values."""
    return 100.0 if n <= 10 else round(100.0 * (n - 10) / n, 1)


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    src_lines = sum(len(p.read_text().splitlines())
                    for p in sorted((ROOT / "src" / "mskit").rglob("*.py")))
    return {"numpy": np.__version__, "blas": f"{blas['name']} {blas['version']}",
            "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
            "nproc": len(os.sched_getaffinity(0)), "src_mskit_lines": src_lines}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--t0", type=float, required=True,
                    help="time.monotonic() when the launcher started this process")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--max-ops", type=int, default=None)
    args = ap.parse_args()

    try:
        mskit = import_mskit()
    except ImportError as exc:
        print(f"worker: cannot import mskit from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 1
    from workloads import WORKLOADS

    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.watch_cg(mskit)  # before set-up, which may fill the CG memo
    workdir = tempfile.mkdtemp(prefix=".work-", dir=BENCH)
    try:
        ops = WORKLOADS[args.workload](args.seed, mskit, workdir)
        if args.max_ops is not None:
            ops = ops[:args.max_ops]
        setup_raw_s = time.monotonic() - args.t0
        setup = {"setup_raw_s": setup_raw_s,
                 "setup_s": setup_raw_s / statistics.median(probe() for _ in range(5))}
        if args.setup_only:
            print(json.dumps(setup))
            return 0
        out = measure(args, mskit, ops, tracer)
        out.update(setup)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    out["info"].update(environment())
    print(json.dumps(out))
    return 0


def measure(args, mskit, ops, tracer) -> dict:
    clearers = cache_clearers(mskit)
    kinds = ["plain", "traced"] if tracer else ["plain"]
    passes = {k: [] for k in kinds}
    layer_runs = []
    peak_rss_mb = None
    start = time.perf_counter()
    while True:
        kind = kinds[sum(map(len, passes.values())) % len(kinds)]
        began = time.perf_counter()
        if kind == "traced":
            tracer.install(mskit)
            try:
                result = run_pass(ops, clearers, tracer)
            finally:
                tracer.uninstall()
            layer_runs.append(tracer.layer_figures(result["wall"]))
            tracer.archive()
        else:
            result = run_pass(ops, clearers)
            if peak_rss_mb is None:  # later passes add allocator growth only
                peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        passes[kind].append(result)
        for failure in result["failures"]:
            print(f"failed op: {failure}", file=sys.stderr)
        took = time.perf_counter() - began
        if (all(passes.values())
                and time.perf_counter() - start + took > args.seconds):
            break

    runs = [r for k in kinds for r in passes[k]]
    attempted = sum(len(r["times"]) for r in runs)
    failed = sum(len(r["failures"]) for r in runs)
    plain = passes["plain"]
    info = {"passes": {k: len(v) for k, v in passes.items()},
            "fail_frac": failed / attempted,
            "max_residual": max(r["max_residual"] for r in runs)}
    if args.trace:
        figures = {}
        for key in sorted(set().union(*layer_runs)):
            figures[key] = statistics.median(run.get(key, 0) for run in layer_runs)
        figures["trace.overhead_s"] = (
            statistics.median(r["wall"] for r in passes["traced"])
            - statistics.median(r["wall"] for r in plain))
        spans = BENCH / "out" / f"spans-{args.workload}-{args.seed}.jsonl"
        spans.parent.mkdir(exist_ok=True)
        tracer.write_spans(spans)
        info["spans_file"] = str(spans.relative_to(ROOT))
        metrics = figures
    else:
        def per_op(key):
            return [statistics.median(r[key][i] for r in plain) for i in range(len(ops))]

        raw, scaled = per_op("times"), per_op("scaled")
        info.update(wall_s=statistics.median(r["wall"] for r in plain),
                    op_p50_s=statistics.median(raw), op_tail_s=tail(raw),
                    op_p50_ref_s=statistics.median(scaled), op_tail_ref_s=tail(scaled),
                    op_tail_percentile=tail_percentile(len(ops)), op_count=len(ops))
        metrics = {
            "wall_ref_s": statistics.median(r["wall_ref"] for r in plain),
            "peak_rss_mb": peak_rss_mb,
            "ok_frac": 1 - failed / attempted,
        }
    return {"attempted": attempted, "failed": failed, "metrics": metrics, "info": info}


if __name__ == "__main__":
    sys.exit(main())
