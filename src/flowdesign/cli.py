"""Command-line front end.

Subcommands: solve, resistance, gen, verify. Results go to stdout (or --out)
as JSON; everything else, including the run metadata line, goes to stderr so
that identical inputs always produce byte-identical stdout.

Exit codes: 0 success, 1 usage or IO error, 2 infeasible, 3 instance outside
what the requested mode handles (its shape, a cost beyond the float range,
or conductances whose y^r spread is beyond float resolution, so the energy
solve does not converge), 4 internal defect (a proven bound broke, or a
solver's answer failed its own final check).

Solver modules load only for the commands and modes that use them: the path
modes load pathdesign and rsp, the SP modes spdesign, and brute and gen the
oracles. Every solve mode but brute runs without numpy; sp-fptas certifies
its answer with a flow witness rather than the energy solver. The
resistance and verify commands load numpy for the energy solve.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from . import core
from .core import Instance
from .errors import (
    BoundExceeded,
    DimensionMismatch,
    Disconnected,
    Infeasible,
    NonConvergence,
    NotSeriesParallel,
    OutOfRange,
    SchemaError,
    TooLarge,
    UnsupportedCase,
    ValidationError,
    VerificationFailed,
)
from .sptree import decompose

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INFEASIBLE = 2
EXIT_UNSUPPORTED = 3
EXIT_DEFECT = 4


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _emit(text: str, out: str | None) -> None:
    if out is None or out == "-":
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")


def _jnum(v: float):
    return "inf" if math.isinf(v) else v


def _pick_mode(inst: Instance) -> str:
    if inst.unbounded():
        if all(v == 0.0 for v in inst.c):
            return "path-exact"
        if all(v == 0.0 for v in inst.gamma):
            return "path-exact"
        return "path-fptas"
    if all(math.isfinite(v) for v in inst.ybar) and all(v > 0.0 for v in inst.c):
        try:
            decompose(inst.n, inst.arcs, inst.s, inst.t)
        except NotSeriesParallel:
            raise UnsupportedCase(
                "bounded conductances on a non-series-parallel graph; no solver applies"
            )
        return "sp-fptas"
    raise UnsupportedCase(
        "no automatic mode fits: need either ybar unbounded everywhere, or a "
        "series-parallel graph with finite ybar and positive variable costs"
    )


def _solve_path_exact(inst: Instance):
    from . import pathdesign

    if not inst.unbounded():
        raise UnsupportedCase("path-exact needs ybar unbounded everywhere")
    if all(v == 0.0 for v in inst.c):
        return pathdesign.to_solution(inst, pathdesign.solve_fixed_cost_only(inst))
    if all(v == 0.0 for v in inst.gamma):
        return pathdesign.to_solution(inst, pathdesign.solve_variable_cost_only(inst))
    raise UnsupportedCase("path-exact needs c identically zero or gamma identically zero")


def _solve_brute(inst: Instance):
    from . import oracles

    if inst.unbounded():
        return oracles.brute_paths_unbounded(inst)
    if all(math.isfinite(v) for v in inst.ybar):
        return oracles.brute_subsets_continuous_sp(inst)
    raise UnsupportedCase("brute mode needs ybar all unbounded or all finite")


def _cmd_solve(args) -> int:
    inst = core.parse_instance(_read_text(args.infile))
    mode = args.mode
    if mode == "auto":
        mode = _pick_mode(inst)
    if mode in ("path-fptas", "sp-fptas"):
        try:
            core.check_epsilon(args.eps, mode)
        except ValidationError as exc:
            print(f"error: --eps: {exc}", file=sys.stderr)
            return EXIT_USAGE
    if mode == "path-exact":
        sol = _solve_path_exact(inst)
    elif mode == "path-fptas":
        from . import pathdesign

        sol = pathdesign.to_solution(inst, pathdesign.solve_path_fptas(inst, args.eps))
    elif mode == "sp-exact":
        from . import spdesign

        sol = spdesign.solve_sp_exact(inst)
    elif mode == "sp-fptas":
        from . import spdesign

        sol = spdesign.solve_sp_fptas(inst, args.eps)
    else:
        sol = _solve_brute(inst)
    print(f"mode={mode} eps={args.eps} tol={args.tol}", file=sys.stderr)
    _emit(core.write_solution(sol), args.out)
    return EXIT_OK


def _cmd_resistance(args) -> int:
    inst = core.parse_instance(_read_text(args.infile))
    if args.sol is not None:
        y = core.read_solution(_read_text(args.sol)).y
        if len(y) != inst.m:
            raise ValidationError("solution arc count does not match the instance")
    else:
        y = inst.ybar
    value = core._support_resistance(inst, y, args.tol)
    _emit(json.dumps({"R": _jnum(value)}, sort_keys=True), args.out)
    return EXIT_OK


def _cmd_verify(args) -> int:
    inst = core.parse_instance(_read_text(args.infile))
    sol = core.read_solution(_read_text(args.sol))
    report = core.verify(inst, sol, tol=args.tol)
    doc = {
        "feasible": report.feasible,
        "achievedR": _jnum(report.achievedR),
        "cost": _jnum(report.cost),
        "reasons": list(report.reasons),
    }
    _emit(json.dumps(doc, sort_keys=True), args.out)
    return EXIT_OK if report.feasible else EXIT_INFEASIBLE


def _parse_numbers(text: str):
    return [int(v) for v in text.replace(",", " ").split()]


def _cmd_gen(args) -> int:
    from . import oracles

    if args.family == "partition":
        if not args.numbers:
            print("error: --family partition needs --numbers", file=sys.stderr)
            return EXIT_USAGE
        gadget = oracles.gen_partition(_parse_numbers(args.numbers), args.r)
        inst = gadget.instance
        meta = {
            "family": "partition",
            "numbers": list(gadget.a),
            "r": args.r,
            "threshold": gadget.threshold,
        }
    elif args.family == "knapsack":
        if not args.numbers:
            print("error: --family knapsack needs --numbers MU;P;D", file=sys.stderr)
            return EXIT_USAGE
        parts = args.numbers.split(";")
        if len(parts) != 3:
            print("error: knapsack --numbers must be MU;P;D", file=sys.stderr)
            return EXIT_USAGE
        mu = _parse_numbers(parts[0])
        p = _parse_numbers(parts[1])
        d = int(parts[2])
        if d <= 0:
            print("error: knapsack demand must be positive for file output", file=sys.stderr)
            return EXIT_USAGE
        fixed = oracles.gen_min_knapsack(mu, p, d, args.r)
        inst = Instance(
            n=2,
            arcs=fixed.arcs,
            s=0,
            t=1,
            r=fixed.r,
            c=(0.0,) * fixed.m,
            gamma=tuple(float(opts[0][1]) for opts in fixed.options),
            ybar=tuple(opts[0][0] for opts in fixed.options),
            B=fixed.B,
        )
        meta = {"family": "knapsack", "mu": mu, "p": p, "D": d, "r": args.r}
    elif args.family == "steiner":
        rng_n = max(4, args.size)
        gadget = _random_steiner(args.seed, rng_n, args.r)
        inst = gadget.instance
        meta = {
            "family": "steiner",
            "seed": args.seed,
            "n": rng_n,
            "r": args.r,
            "terminals": list(gadget.terminals),
        }
    else:
        inst, meta = oracles.gen_random_sp(args.seed, max(1, args.size), args.r)
    text = core.write_instance(inst)
    _emit(text, args.out)
    meta_text = json.dumps(meta, sort_keys=True)
    if args.out is not None and args.out != "-":
        with open(args.out + ".meta.json", "w", encoding="utf-8") as fh:
            fh.write(meta_text + "\n")
    else:
        print(meta_text, file=sys.stderr)
    return EXIT_OK


def _random_steiner(seed: int, n: int, r: float):
    import random

    from . import oracles

    rng = random.Random(seed)
    arcs = [(i, rng.randrange(i)) for i in range(1, n)]
    for _ in range(n // 2):
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            arcs.append((u, v))
    k = rng.randint(2, min(4, n))
    terminals = sorted(rng.sample(range(n), k))
    costs = [rng.randint(1, 10) for _ in arcs]
    return oracles.gen_steiner_gadget(n, arcs, terminals, costs, r)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="flowdesign",
        description="Minimum-cost design of potential-based flow networks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, needs_in=True):
        if needs_in:
            p.add_argument("--in", dest="infile", required=True, metavar="PATH")
        p.add_argument("--out", default=None, metavar="PATH")
        p.add_argument("--tol", type=float, default=1e-9)

    p_solve = sub.add_parser("solve", help="solve an instance file")
    common(p_solve)
    p_solve.add_argument(
        "--mode",
        choices=("auto", "path-exact", "path-fptas", "sp-exact", "sp-fptas", "brute"),
        default="auto",
    )
    p_solve.add_argument("--eps", type=float, default=0.25)

    p_res = sub.add_parser("resistance", help="effective resistance at ybar or a solution's y")
    common(p_res)
    p_res.add_argument("--sol", default=None, metavar="PATH")

    p_ver = sub.add_parser("verify", help="check a solution file against an instance")
    common(p_ver)
    p_ver.add_argument("--sol", required=True, metavar="PATH")

    p_gen = sub.add_parser("gen", help="generate a corpus instance")
    common(p_gen, needs_in=False)
    p_gen.add_argument(
        "--family",
        choices=("partition", "knapsack", "steiner", "random-sp"),
        required=True,
    )
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--r", type=float, default=1.0)
    p_gen.add_argument("--numbers", default=None)
    p_gen.add_argument("--size", type=int, default=6)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code in (0, None) else EXIT_USAGE
    try:
        if args.command == "solve":
            return _cmd_solve(args)
        if args.command == "resistance":
            return _cmd_resistance(args)
        if args.command == "verify":
            return _cmd_verify(args)
        return _cmd_gen(args)
    except (Infeasible, Disconnected) as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except (NotSeriesParallel, UnsupportedCase, OutOfRange, NonConvergence) as exc:
        print(f"unsupported: {exc}", file=sys.stderr)
        return EXIT_UNSUPPORTED
    except (BoundExceeded, VerificationFailed) as exc:
        print(f"defect: {exc}", file=sys.stderr)
        return EXIT_DEFECT
    except (
        DimensionMismatch,
        SchemaError,
        ValidationError,
        TooLarge,
        OSError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
