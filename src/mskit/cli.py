"""Command-line frontend.

Exit codes: 0 on success, 1 when a computation or validation fails (cap
exceeded, verification residual above tolerance, malformed input file),
2 on usage errors.  Output is deterministic for fixed flags and seed.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

import numpy as np

from . import bratteli, brauer, channels, cg, io as mio, schur, wigner
from .bratteli import CapExceeded, DEFAULT_CAP
from .rand import haar_unitary, rng_from_seed
from .staircase import format_staircase, parse_staircase


def _cap(args) -> int:
    if args.cap is not None:
        return args.cap
    env = os.environ.get("MSKIT_CAP")
    return int(env) if env else DEFAULT_CAP


def cmd_census(args) -> int:
    entries = bratteli.census(args.n, args.m, args.d, cap=_cap(args))
    print(bratteli.census_to_json(entries))
    return 0


def cmd_bratteli(args) -> int:
    bratteli.check_cap(args.d, args.n + args.m, _cap(args))
    diagram = bratteli.build(args.n, args.m, args.d)
    if args.dot:
        sys.stdout.write(bratteli.to_dot(diagram))
    else:
        for k, level in enumerate(diagram.levels):
            print(f"level {k}: " + " ".join(format_staircase(g) for g in level))
    return 0


def cmd_schur(args) -> int:
    W = schur.build_mixed_schur(args.n, args.m, args.d, args.order, cap=_cap(args))
    if args.out:
        with open(args.out, "w") as f:
            mio.write_schur(f, W)
    else:
        mio.write_schur(sys.stdout, W)
    return 0


def cmd_verify(args) -> int:
    if args.file:
        with open(args.file) as f:
            W = mio.read_schur(f, cap=_cap(args))
    else:
        W = schur.build_mixed_schur(args.n, args.m, args.d, args.order, cap=_cap(args))
    tol = args.tol
    rng = rng_from_seed(args.seed)
    failures = 0

    def report(name: str, value: float) -> None:
        nonlocal failures
        ok = value < tol
        failures += 0 if ok else 1
        print(f"{name}: {value:.3e} {'ok' if ok else 'FAIL'}")

    report("unitarity", W.unitarity_residual())
    worst_off = worst_mult = 0.0
    for _ in range(args.trials):
        rep = schur.verify_blockdiag(W, haar_unitary(W.d, rng))
        worst_off = np.maximum(worst_off, rep.off_block_residual)
        worst_mult = np.maximum(worst_mult, rep.structure_residual)
    report("block off-diagonal", worst_off)
    report("multiplicity structure", worst_mult)
    report("diagonal weights", schur.weight_check(W, seed=args.seed))
    if W.n + W.m <= 4:
        worst_b = 0.0
        for sigma in brauer.all_diagrams(W.n, W.m):
            rep = schur.verify_brauer(W, sigma)
            worst_b = np.max([worst_b, rep.off_block_residual, rep.structure_residual])
        report("diagram side", worst_b)
    return 1 if failures else 0


def cmd_channel(args) -> int:
    if args.channel_cmd == "m2prob":
        prob = channels.m2_success_probability(args.d)
        print(f"{prob} = {float(prob)!r}")
        return 0
    if args.channel_cmd == "example":
        J = channels.example_channel(args.t, args.u, args.v, args.w)
        if args.schur:
            vals = channels.example_channel_blocks(args.t, args.u, args.v, args.w)
            for name in "ABCDE":
                z = vals[name]
                print(f"{name} = {float(z.real)!r}" if z.imag == 0
                      else f"{name} = {z!r}")
            print(f"cp_minimum_eigenvalue = {float(J.min_eigenvalue())!r}")
        if args.out:
            with open(args.out, "w") as f:
                mio.write_choi(f, J)
        elif not args.schur:
            mio.write_choi(sys.stdout, J)
        return 0

    with open(args.choi) as f:
        J = mio.read_choi(f, cap=_cap(args))
    if args.channel_cmd == "twirl":
        Jt = channels.twirl(J, J.schur_transform(cap=_cap(args)))
        if not np.isfinite(Jt.matrix).all():
            raise ValueError("the twirled Choi matrix has a non-finite entry")
        with open(args.out, "w") as f:
            mio.write_choi(f, Jt)
        return 0
    with open(args.rho) as f:
        rho = mio.read_matrix(f, cap=_cap(args))
    if args.channel_cmd == "apply":
        out = channels.apply_direct(J, rho)
        if not np.isfinite(out).all():
            raise ValueError("the output state has a non-finite entry")
    else:  # teleport
        out, probs = channels.teleport_apply(J, rho)
        uniform = float(np.abs(probs - 1 / len(probs)).max())
        print(f"# outcome distribution max deviation from uniform: {uniform:.3e}",
              file=sys.stderr)
    if args.out:
        with open(args.out, "w") as f:
            mio.write_matrix(f, out)
    else:
        mio.write_matrix(sys.stdout, out)
    return 0


def cmd_wigner(args) -> int:
    mu = parse_staircase(args.mu)
    nu = parse_staircase(args.nu) if args.nu != "[]" else ()
    block = wigner.reduced_wigner_operator(mu, nu)
    print(f"rows (targets j): {list(block.row_targets)}")
    print(f"cols (sources j'): {list(block.col_sources)}")
    for row in block.matrix:
        print(" ".join(repr(float(x)) for x in row))
    return 0


def cmd_cg(args) -> int:
    t = cg.cg_transform(args.kind, parse_staircase(args.irrep), cap=_cap(args) * 16)
    header = {
        "kind": t.kind,
        "input": format_staircase(t.input_irrep),
        "d": t.d,
        "blocks": [{"target": format_staircase(g), "offset": off, "size": size}
                   for g, off, size in t.output_blocks],
    }
    print(json.dumps(header))
    for r in range(t.matrix.shape[0]):  # one row dense at a time
        row = t.matrix[r:r + 1].toarray()[0]
        print(" ".join(f"{float(x)!r},0.0" for x in row))
    return 0


def _parse_label(text: str):
    try:
        g, q, p = text.rsplit(":", 2)
        return (parse_staircase(g), int(q), int(p))
    except ValueError as exc:
        raise ValueError(f"bad label {text!r}: expected [gamma]:q:p, "
                         f"e.g. [1,0]:0:0 ({exc})") from None


def _parse_term(text: str, n: int, m: int):
    try:
        coeff, diagram = text.split(":", 1)
        if not np.isfinite(float(coeff)):
            raise ValueError("the coefficient must be finite")
        return float(coeff), brauer.parse_diagram(diagram, n, m)
    except ValueError as exc:
        raise ValueError(f"bad term {text!r}: expected coeff:pairs, "
                         f"e.g. 0.7:t1-b1,t2-b2 ({exc})") from None


def cmd_ptpqp(args) -> int:
    bratteli.check_cap(args.d, args.n + args.m, _cap(args))
    terms = []
    for spec_ in args.term:
        coeff, sigma = _parse_term(spec_, args.n, args.m)
        terms.append((coeff / 2, sigma))
        terms.append((coeff / 2, brauer.dagger(sigma)))
    prob = schur.ptpqp_amplitude(args.n, args.m, args.d, terms, args.time,
                                 _parse_label(getattr(args, "from")),
                                 _parse_label(args.to), cap=_cap(args))
    print(repr(prob))
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="mskit",
                                 description="mixed Schur transform toolkit")
    ap.add_argument("--cap", type=int, default=None,
                    help="dimension cap (default 4096; env MSKIT_CAP)")
    sub = ap.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("census", help="irrep dimensions and multiplicities")
    p.add_argument("n", type=int)
    p.add_argument("m", type=int)
    p.add_argument("d", type=int)
    p.set_defaults(fn=cmd_census)

    p = sub.add_parser("bratteli", help="print the add/remove-box tower")
    p.add_argument("n", type=int)
    p.add_argument("m", type=int)
    p.add_argument("d", type=int)
    p.add_argument("--dot", action="store_true", help="emit GraphViz DOT")
    p.set_defaults(fn=cmd_bratteli)

    p = sub.add_parser("schur", help="build the transform and write it out")
    p.add_argument("n", type=int)
    p.add_argument("m", type=int)
    p.add_argument("d", type=int)
    p.add_argument("--order", default=None, help="factor order, e.g. ++- (default +^n -^m)")
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_schur)

    p = sub.add_parser("verify", help="run the verification battery")
    p.add_argument("n", type=int, nargs="?", default=None)
    p.add_argument("m", type=int, nargs="?", default=None)
    p.add_argument("d", type=int, nargs="?", default=None)
    p.add_argument("--order", default=None)
    p.add_argument("--file", default=None, help="verify a stored transform file")
    p.add_argument("--trials", type=int, default=20)
    p.add_argument("--tol", type=float, default=1e-10)
    p.add_argument("--seed", type=int, default=2024)
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("channel", help="equivariant channel operations")
    csub = p.add_subparsers(dest="channel_cmd", required=True)

    c = csub.add_parser("example", help="four-parameter 1->2 qubit family")
    c.add_argument("--t", type=float, required=True)
    c.add_argument("--u", type=float, required=True)
    c.add_argument("--v", type=float, required=True)
    c.add_argument("--w", type=float, required=True)
    c.add_argument("--schur", action="store_true",
                   help="print the Schur-block entries instead of the matrix")
    c.add_argument("--out", default=None)
    c.set_defaults(fn=cmd_channel)

    c = csub.add_parser("twirl", help="project a Choi matrix onto the commutant")
    c.add_argument("--choi", required=True)
    c.add_argument("--out", required=True)
    c.set_defaults(fn=cmd_channel)

    c = csub.add_parser("apply", help="apply a channel to a state")
    c.add_argument("--choi", required=True)
    c.add_argument("--rho", required=True)
    c.add_argument("--out", default=None)
    c.set_defaults(fn=cmd_channel)

    c = csub.add_parser("teleport", help="teleportation-based application")
    c.add_argument("--choi", required=True)
    c.add_argument("--rho", required=True)
    c.add_argument("--seed", type=int, default=0,
                   help="accepted and ignored: the output sums every measurement "
                        "outcome exactly, so it does not depend on a seed")
    c.add_argument("--out", default=None)
    c.set_defaults(fn=cmd_channel)

    c = csub.add_parser("m2prob", help="two-input success probability")
    c.add_argument("--d", type=int, required=True)
    c.set_defaults(fn=cmd_channel)

    p = sub.add_parser("wigner", help="dump one reduced-Wigner coefficient block")
    p.add_argument("mu", help='length-d staircase, e.g. "[2,0]"')
    p.add_argument("nu", help='length d-1 output content, e.g. "[1]" ("[]" for d=1)')
    p.set_defaults(fn=cmd_wigner)

    p = sub.add_parser("cg", help="dump a Clebsch-Gordan transform")
    p.add_argument("kind", choices=["defining", "dual"])
    p.add_argument("irrep", help='staircase, e.g. "[1,0]"')
    p.set_defaults(fn=cmd_cg)

    p = sub.add_parser("ptpqp", help="transition probability under diagram evolution")
    p.add_argument("n", type=int)
    p.add_argument("m", type=int)
    p.add_argument("d", type=int)
    p.add_argument("--term", action="append", required=True,
                   help='coeff:pairs, e.g. "0.5:t1-t2,b1-b2" (hermitized)')
    p.add_argument("--time", type=float, required=True)
    p.add_argument("--from", required=True, help='label "[1,0]:q:p"')
    p.add_argument("--to", required=True, help='label "[1,0]:q:p"')
    p.set_defaults(fn=cmd_ptpqp)
    return ap


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """build_parser(), built once per process: a parse leaves nothing in the
    parser, so every call of main can share it."""
    return build_parser()


def main(argv=None) -> int:
    ap = _parser()
    args = ap.parse_args(argv)
    if args.cmd == "verify" and not args.file and None in (args.n, args.m, args.d):
        ap.error("verify needs n m d or --file")
    if args.cmd == "verify" and args.file and (args.n is not None or args.order is not None):
        ap.error("verify takes n m d [--order] or --file, not both")
    if args.cmd == "verify" and not (args.trials >= 1 and 0 < args.tol < np.inf):
        ap.error("verify needs --trials >= 1 and a finite --tol > 0")
    try:
        return args.fn(args)
    except (CapExceeded, ValueError, OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
