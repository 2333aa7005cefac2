"""The four workloads: each turns a seed into a fixed list of checked ops.

An op is one call into mskit's public API or one in-process CLI command.
``run`` is timed; ``check`` is not, and returns the residual it compared
against its tolerance (or None) after raising CheckFailed on a bad result.
Ops marked ``cold`` start with every library cache cleared, as a fresh CLI
process would.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import os
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np


class CheckFailed(Exception):
    pass


@dataclass
class Op:
    name: str
    run: Callable[[], object]
    check: Callable[[object], float | None]
    cold: bool = False


def _require(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


def _bounded(value: float, tol: float, what: str) -> float:
    _require(bool(value < tol), f"{what} {value:.3e} >= {tol:.0e}")
    return float(value)


class Cli:
    """Runs ``mskit.cli.main`` in process with its output captured."""

    def __init__(self, mskit):
        self.mskit = mskit

    def __call__(self, argv: list[str]) -> tuple[int, str, str]:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = self.mskit.cli.main(argv)  # looked up per call: may be traced
            except SystemExit as exc:  # argparse usage errors
                rc = exc.code if isinstance(exc.code, int) else 2
        return rc, out.getvalue(), err.getvalue()


def _exit_zero(result) -> None:
    rc, _out, err = result
    _require(rc == 0, f"exit code {rc}: {err.strip()[-200:]}")


def _order_args(order: str | None) -> list[str]:
    # "--order=-+-" keeps argparse from reading a leading '-' as a flag
    return [] if order is None else [f"--order={order}"]


# -- certify -------------------------------------------------------------------

# Op lists keep a fixed order: a seed changes the inputs, never the order, so
# peak RSS does not depend on which op happens to follow which.

# Both D = 4096 witnesses of the acceptance battery; they set wall_s.
CERTIFY_BIG = [(3, 3, 4, None), (6, 6, 2, None)]
# D <= 1024 shapes, (n, m, d, factor order, repeats); each repeat draws its
# own Haar seed.  The n + m = 4 shapes also run the diagram side of verify.
CERTIFY_SMALL = [
    (5, 5, 2, None, 2), (3, 2, 4, "+-+-+", 2), (2, 2, 5, None, 2),
    (3, 3, 3, None, 2), (4, 2, 3, None, 2), (1, 2, 8, None, 2),
    (2, 2, 4, "+-+-", 4), (3, 1, 4, None, 4), (1, 3, 4, "-+--", 4),
    (2, 1, 5, "-++", 2), (2, 3, 3, "-+-+-", 2), (2, 2, 3, "+--+", 2),
    (1, 1, 8, None, 2), (4, 3, 2, "-+-+-++", 2),
]
CERTIFY_CENSUS = [(3, 3, 4), (6, 6, 2), (2, 2, 5), (4, 3, 2)]


def certify(seed: int, mskit, workdir: str) -> list[Op]:
    rng = np.random.default_rng([seed, 1])
    cli = Cli(mskit)

    def verify(n, m, d, order):
        argv = ["verify", str(n), str(m), str(d), *_order_args(order),
                "--trials", "1", "--seed", str(int(rng.integers(1, 2**31)))]
        return Op(f"verify {n} {m} {d} {order or ''}".rstrip(),
                  lambda: cli(argv), _exit_zero, cold=True)

    def census(n, m, d):
        def check(result):
            _exit_zero(result)
            entries = json.loads(result[1])
            _require(sum(e["dim"] * e["mult"] for e in entries) == d ** (n + m),
                     "census dimensions do not add up to d^(n+m)")
        argv = ["census", str(n), str(m), str(d)]
        return Op(f"census {n} {m} {d}", lambda: cli(argv), check, cold=True)

    ops = [census(*shape) for shape in CERTIFY_CENSUS]
    ops += [verify(*shape) for shape in CERTIFY_BIG]
    ops += [verify(n, m, d, o) for n, m, d, o, k in CERTIFY_SMALL for _ in range(k)]
    return ops


# -- coupling ------------------------------------------------------------------

# Strata of the seeded irrep sample: (kind, lower, upper) on dim(gamma) * d.
COUPLING_STRATA = [
    ("dual", 250, 500), ("dual", 500, 1000), ("dual", 1000, 2000),
    ("dual", 2000, 4000), ("dual", 4000, 6001),
    ("defining", 250, 500), ("defining", 500, 1000), ("defining", 1000, 6001),
]
COUPLING_PER_STRATUM = 10
COUPLING_ENTRY_RANGE = range(4, -5, -1)  # staircase entries drawn from [-4, 4]
# Matrix entries a coupling holds at its peak, counted from shapes: dual_cg
# holds its own (dim * d)^2 matrix; defining_cg holds the dual couplings of
# all its targets plus about four (dim * d)^2 arrays for the bend and the
# unitarity assert.  The anchor op is the largest coupling with at most
# ANCHOR_ENTRIES; seeded ops stay under SEEDED_ENTRIES, well below it even
# where the count is 25% low, so the anchor sets peak RSS whatever the seed.
ANCHOR_ENTRIES = 6000 ** 2
SEEDED_ENTRIES = 0.5 * ANCHOR_ENTRIES


def coupling_pool(dim) -> dict[tuple[str, int, int], list[tuple[int, ...]]]:
    """Irreps with 3 <= d <= 8, every staircase with entries in [-4, 4] that
    touches zero, by stratum, each sorted by (peak entries, gamma); the
    anchor is under key "anchor".

    The bound covers every coupling an irrep recurses into, not only its
    own: defining_cg((1,1,0,0,0,0,-1,-1)) is itself inside CG_DIM_CAP, but
    its inner dual_cg would allocate 8.4 GiB.
    """
    pool: dict = {}
    anchor = (0, ())
    for d in range(3, 9):
        for gamma in itertools.combinations_with_replacement(COUPLING_ENTRY_RANGE, d):
            own = dim(gamma) * d
            if gamma[0] < 0 or gamma[-1] > 0 or own > 6000:
                continue
            # targets gamma + e_j: every j where that stays weakly decreasing
            inner = sum((dim(gamma[:j] + (gamma[j] + 1,) + gamma[j + 1:]) * d) ** 2
                        for j in range(d) if j == 0 or gamma[j - 1] > gamma[j])
            for kind, entries in (("dual", own ** 2), ("defining", 4 * own ** 2 + inner)):
                if entries <= ANCHOR_ENTRIES:
                    anchor = max(anchor, (entries, gamma, kind))
                if entries > SEEDED_ENTRIES:
                    continue
                for k, lo, hi in COUPLING_STRATA:
                    if k == kind and lo <= own < hi:
                        pool.setdefault((kind, lo, hi), []).append((entries, gamma))
    out = {key: [g for _, g in sorted(members)] for key, members in pool.items()}
    out["anchor"] = anchor[2:0:-1]
    return out


POOL_FILE = Path(__file__).resolve().parent / "coupling_pool.json"


def write_pool(dim) -> None:
    """Store coupling_pool in POOL_FILE, one stratum a line.  The pool does
    not depend on the seed, so the scan stays out of the timed set-up."""
    pool = coupling_pool(dim)
    lines = [f'  "anchor": {json.dumps(pool.pop("anchor"))}']
    lines += [f'  "{" ".join(map(str, key))}": {json.dumps(members, separators=(",", ":"))}'
              for key, members in pool.items()]
    POOL_FILE.write_text("{\n" + ",\n".join(lines) + "\n}\n")


def read_pool() -> dict:
    """coupling_pool as stored in POOL_FILE."""
    stored = json.loads(POOL_FILE.read_text())
    kind, gamma = stored.pop("anchor")
    pool = {"anchor": (kind, tuple(gamma))}
    for key, members in stored.items():
        kind, lo, hi = key.split()
        pool[(kind, int(lo), int(hi))] = [tuple(g) for g in members]
    return pool


def coupling(seed: int, mskit, workdir: str) -> list[Op]:
    """The anchor, then per stratum one irrep from each of
    COUPLING_PER_STRATUM equal slices of the sorted stratum, so every seed
    draws a similar mix of sizes."""
    m = mskit
    rng = np.random.default_rng([seed, 2])
    pool = read_pool()
    picks = [pool["anchor"]]
    for kind, lo, hi in COUPLING_STRATA:
        members = pool[(kind, lo, hi)]
        for part in np.array_split(np.arange(len(members)), COUPLING_PER_STRATUM):
            picks.append((kind, members[int(rng.choice(part))]))
    return [Op(f"cg {kind} {list(gamma)}",
               lambda kind=kind, gamma=gamma: m.cg.cg_transform(kind, gamma),
               _coupling_check(rng.integers(1, 2**31)), cold=True)
            for kind, gamma in picks]


def _coupling_check(probe_seed: int):
    def check(t) -> float:
        w = t.matrix
        rows = sum(size for _, _, size in t.output_blocks)
        _require(w.shape == (rows, rows), f"coupling is {w.shape}, blocks cover {rows}")
        x = np.random.default_rng(probe_seed).standard_normal((w.shape[1], 3))
        x /= np.linalg.norm(x, axis=0)
        return _bounded(float(np.abs(w.T @ (w @ x) - x).max()), 1e-10,
                        "unitarity probe residual")
    return check


# -- channels ------------------------------------------------------------------

# (n_out, d, repeats) with m_in = 1, so teleportation applies; D = d^(n_out + 1).
# Each repeat draws its own channel, state and Hamiltonian.
CHANNEL_SHAPES = [(4, 4, 1), (5, 3, 1), (3, 4, 4), (3, 3, 3)]
KRAUS_RANK = 2  # full rank needs 64 GiB at D = 1024 (random_cptp_choi)


def _ptpqp_inputs(m, rng, n, d):
    """A hermitized two-term diagram Hamiltonian and labels in one sector of
    multiplicity >= 2, so the amplitude is not zero by symmetry alone."""
    terms = []
    for _ in range(2):
        sigma = m.brauer.from_permutation(tuple(int(x) for x in rng.permutation(n + 1)), n, 1)
        c = float(rng.uniform(0.2, 1.0))
        terms += [(c / 2, sigma), (c / 2, m.brauer.dagger(sigma))]
    sectors = [(g, dg, mg) for g, dg, mg in m.bratteli.census(n, 1, d) if mg >= 2]
    g, dg, mg = sectors[rng.integers(len(sectors))]
    q = int(rng.integers(dg))
    p_from, p_to = (int(p) for p in rng.integers(mg, size=2))
    return terms, float(rng.uniform(0.3, 1.2)), (g, q, p_from), (g, q, p_to)


def channels(seed: int, mskit, workdir: str) -> list[Op]:
    m = mskit
    ch = m.channels
    rng = np.random.default_rng([seed, 3])
    ops = []
    for n, d in [(n, d) for n, d, k in CHANNEL_SHAPES for _ in range(k)]:
        lib_rng = m.rand.rng_from_seed(int(rng.integers(1, 2**31)))
        W = m.schur.build_mixed_schur(n, 1, d, "-" + "+" * n)
        J = ch.random_cptp_choi(1, n, d, lib_rng, kraus_rank=KRAUS_RANK)
        rho = m.rand.random_density(d, lib_rng)
        terms, t, src, dst = _ptpqp_inputs(m, rng, n, d)
        m.schur.build_mixed_schur(n, 1, d)  # warm the memo for ptpqp's order
        state: dict = {}

        def twirl(J=J, W=W, state=state):
            state["J"] = ch.twirl(J, W)
            return state["J"]

        def apply(rho=rho, state=state):
            state["out"] = ch.apply_direct(state["J"], rho)
            return state["out"]

        def check_teleport(result, state=state):
            out, probs = result
            _bounded(float(np.abs(probs - 1 / len(probs)).max()), 1e-8,
                     "outcome deviation from uniform")
            return _bounded(float(np.abs(out - state["out"]).max()), 1e-8,
                            "teleport vs apply_direct")

        def check_schur(rep):
            return _bounded(max(rep.off_block_residual, rep.structure_residual),
                            1e-10, "choi_to_schur residual")

        def check_equivariant(result):
            ok, worst = result
            _require(ok, f"twirled Choi matrix not equivariant ({worst:.2e})")
            return worst

        def check_prob(p):
            _require(0.0 <= p <= 1.0 + 1e-10, f"ptpqp probability {p} outside [0, 1]")

        tag = f"{n} 1 {d}"
        ops += [
            Op(f"twirl {tag}", twirl,
               lambda Jt: _bounded(Jt.trace_preserving_residual(), 1e-10,
                                   "twirl trace-preservation residual")),
            Op(f"choi_to_schur {tag}",
               lambda W=W, state=state: ch.choi_to_schur(state["J"], W), check_schur),
            Op(f"is_equivariant {tag}",
               lambda state=state: ch.is_equivariant(state["J"]), check_equivariant),
            Op(f"apply_direct {tag}", apply,
               lambda out: _bounded(abs(np.trace(out) - 1), 1e-10, "output trace error")),
            Op(f"teleport_apply {tag}",
               lambda rho=rho, state=state: ch.teleport_apply(state["J"], rho),
               check_teleport),
            Op(f"ptpqp {tag}",
               lambda n=n, d=d, a=(terms, t, src, dst):
               m.schur.ptpqp_amplitude(n, 1, d, a[0], a[1], a[2], a[3]),
               check_prob),
        ]
    return ops


# -- files ---------------------------------------------------------------------

# (n, m, d, factor order, repeats) and (n_out, d, repeats); each repeat of a
# channel shape writes its own Choi and state files.
FILE_TRANSFORMS = [(5, 5, 2, None, 1), (3, 3, 3, None, 1), (2, 2, 4, "+-+-", 3),
                   (3, 2, 3, "+-+-+", 3), (2, 1, 4, None, 3)]
FILE_CHANNELS = [(3, 4, 3), (4, 2, 3), (3, 3, 3), (2, 2, 3)]


def files(seed: int, mskit, workdir: str) -> list[Op]:
    m = mskit
    rng = np.random.default_rng([seed, 4])
    cli = Cli(m)
    work = workdir
    ops = []
    transforms = [(n, mm, d, o) for n, mm, d, o, r in FILE_TRANSFORMS for _ in range(r)]
    for k, (n, mm, d, order) in enumerate(transforms):
        path = os.path.join(work, f"w{k}.mskit")
        tag = f"{n} {mm} {d} {order or ''}".rstrip()
        ops += [
            Op(f"schur --out {tag}",
               lambda a=["schur", str(n), str(mm), str(d), *_order_args(order),
                         "--out", path]: cli(a), _exit_zero, cold=True),
            Op(f"verify --file {tag}",
               lambda a=["verify", "--file", path, "--trials", "1",
                         "--seed", str(int(rng.integers(1, 2**31)))]: cli(a),
               _exit_zero, cold=True),
        ]
    for k, (n, d) in enumerate([(n, d) for n, d, r in FILE_CHANNELS for _ in range(r)]):
        lib_rng = m.rand.rng_from_seed(int(rng.integers(1, 2**31)))
        paths = {x: os.path.join(work, f"{x}{k}.mskit")
                 for x in ("choi", "rho", "twirled", "applied", "teleported")}
        with open(paths["choi"], "w") as f:
            m.io.write_choi(f, m.channels.random_cptp_choi(1, n, d, lib_rng,
                                                           kraus_rank=KRAUS_RANK))
        with open(paths["rho"], "w") as f:
            m.io.write_matrix(f, m.rand.random_density(d, lib_rng))

        def check_teleport(result, paths=paths):
            _exit_zero(result)
            with open(paths["applied"]) as f:
                applied = m.io.read_matrix(f)
            with open(paths["teleported"]) as f:
                teleported = m.io.read_matrix(f)
            return _bounded(float(np.abs(applied - teleported).max()), 1e-8,
                            "teleport vs apply")

        tag = f"{n} 1 {d}"
        ops += [
            Op(f"channel twirl {tag}",
               lambda a=["channel", "twirl", "--choi", paths["choi"],
                         "--out", paths["twirled"]]: cli(a), _exit_zero, cold=True),
            Op(f"channel apply {tag}",
               lambda a=["channel", "apply", "--choi", paths["twirled"],
                         "--rho", paths["rho"], "--out", paths["applied"]]: cli(a),
               _exit_zero, cold=True),
            Op(f"channel teleport {tag}",
               lambda a=["channel", "teleport", "--choi", paths["twirled"],
                         "--rho", paths["rho"], "--seed", str(int(rng.integers(1, 2**31))),
                         "--out", paths["teleported"]]: cli(a),
               check_teleport, cold=True),
        ]
    return ops


WORKLOADS = {"certify": certify, "coupling": coupling, "channels": channels,
             "files": files}


if __name__ == "__main__":
    # python3 bench/workloads.py: rescan the coupling pool into POOL_FILE
    sys.path.insert(0, str(POOL_FILE.parent.parent / "src"))
    from mskit.staircase import dim
    write_pool(dim)
