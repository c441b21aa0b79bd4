"""Command-line front end.

Subcommands: solve, resistance, gen, verify. Results go to stdout (or --out)
as JSON; everything else, including the run metadata line, goes to stderr so
that identical inputs always produce byte-identical stdout.

Exit codes: 0 success, 1 usage or IO error, 2 infeasible, 3 instance outside
what the requested mode handles (its shape, a cost beyond the float range,
or conductances whose y^r spread is beyond float resolution, so the energy
solve does not converge), 4 internal defect (a proven bound broke, or a
solver's answer failed its own final check).

Only verify takes --tol: it counts a design feasible when its resistance
is at most B (1 + tol). tol must be a finite number > 0
(``core.check_tol``); any other value exits 1 with ``error: --tol: ...``.

``run`` is the one process entry: ``python -m flowdesign`` and the
``flowdesign`` console script both call it. It runs ``main``, then the
atexit handlers, then flushes stdout and stderr, which is the order the
interpreter's own exit uses, and ends the process with ``os._exit``. That
skips only the teardown: clearing every module and freeing every object
the call loaded, memory the OS reclaims anyway. If a flush fails (stdout
is a pipe whose reader has gone), ``run`` exits through ``sys.exit``
instead, so the interpreter reports it as it always has: ``Exception
ignored ... BrokenPipeError`` on stderr and exit code 120. From main's
return to the parent seeing the exit, an sp-exact solve took about 2.2 ms
with the full teardown and 0.7 ms without it, and a resistance call about
5.3 and 1.5 ms (medians of 21 calls, 2-core Xeon). Files a command writes
are closed before main returns, so output and exit codes are unchanged.
``main`` changes nothing process-wide, so tests and library callers are
unaffected.

Each command loads only the modules it runs, so a call compiles no code it
never uses (a fresh checkout has no bytecode cache):
- path-exact and path-fptas load pathdesign and rsp;
- sp-exact and sp-fptas load spdesign, spbounds and sptree, and auto loads
  sptree for its SP check on bounded instances (``decompose`` imports it on
  the first call), so path solves and resistance never load sptree;
- brute and gen load oracles, which holds the generators and imports
  pathdesign, resistance, sptree and numpy; no other command loads oracles;
- sp-fptas, auto on an SP instance and verify load certify, the solution
  checker (``core.verify`` imports it on the first call); path solves,
  sp-exact and resistance never load it;
- resistance, and verify without a flow witness, load resistance and numpy
  for the energy solve.
Every solve mode but brute runs without numpy; sp-fptas certifies its answer
with a flow witness rather than the energy solver. The command line is read
against one table, _COMMANDS, which also writes the help, so no command loads
argparse, gettext or locale. Options take their exact names (no
abbreviations), as --opt VALUE or --opt=VALUE.
"""

from __future__ import annotations

import atexit
import json
import math
import os
import sys
import types

from . import core
from .core import Instance
from .errors import (
    BoundExceeded, DimensionMismatch, Disconnected, Infeasible, NonConvergence, NotSeriesParallel,
    OddSum, OutOfRange, SchemaError, TooLarge, UnsupportedCase, ValidationError, VerificationFailed,
)

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
    text = text if text.endswith("\n") else text + "\n"
    if out is None or out == "-":
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


def _jnum(v: float):
    return "inf" if math.isinf(v) else v


def decompose(n, arcs, s, t):
    """``sptree.decompose``, with sptree imported on the first call."""
    from . import sptree

    return sptree.decompose(n, arcs, s, t)


def _pick_mode(inst: Instance):
    """The mode `auto` runs, with the SP schedule it built (None for path modes)."""
    if inst.unbounded():
        if all(v == 0.0 for v in inst.c) or all(v == 0.0 for v in inst.gamma):
            return "path-exact", None
        return "path-fptas", None
    if all(math.isfinite(v) for v in inst.ybar) and all(v > 0.0 for v in inst.c):
        try:
            return "sp-fptas", decompose(inst.n, inst.arcs, inst.s, inst.t)
        except NotSeriesParallel:
            raise UnsupportedCase("bounded conductances on a non-series-parallel graph; no solver applies")
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
    mode, sched = args.mode, None
    if mode == "auto":
        mode, sched = _pick_mode(inst)
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
    elif mode in ("sp-exact", "sp-fptas"):
        from . import spdesign

        sol = (spdesign.solve_sp_exact(inst) if mode == "sp-exact"
               else spdesign.solve_sp_fptas(inst, args.eps, sched))
    else:
        sol = _solve_brute(inst)
    print(f"mode={mode} eps={args.eps}", file=sys.stderr)
    _emit(core.write_solution(sol), args.out)
    return EXIT_OK


def _cmd_resistance(args) -> int:
    inst = core.parse_instance(_read_text(args.infile))
    y = inst.ybar
    if args.sol is not None:
        y = core.read_solution(_read_text(args.sol)).y
        if len(y) != inst.m:
            raise ValidationError("solution arc count does not match the instance")
    from .resistance import support_resistance

    value = support_resistance(inst, y)
    _emit(json.dumps({"R": _jnum(value)}, sort_keys=True), args.out)
    return EXIT_OK


def _cmd_verify(args) -> int:
    try:
        core.check_tol(args.tol)
    except ValidationError as exc:
        print(f"error: --tol: {exc}", file=sys.stderr)
        return EXIT_USAGE
    inst = core.parse_instance(_read_text(args.infile))
    sol = core.read_solution(_read_text(args.sol))
    report = core.verify(inst, sol, tol=args.tol)
    doc = {
        "feasible": report.feasible, "achievedR": _jnum(report.achievedR),
        "cost": _jnum(report.cost), "reasons": list(report.reasons),
    }
    _emit(json.dumps(doc, sort_keys=True), args.out)
    return EXIT_OK if report.feasible else EXIT_INFEASIBLE


def _cmd_gen(args) -> int:
    from .oracles import generate

    inst, meta = generate(args.family, args.seed, args.size, args.r, args.numbers)
    _emit(core.write_instance(inst), args.out)
    meta_text = json.dumps(meta, sort_keys=True)
    if args.out is not None and args.out != "-":
        with open(args.out + ".meta.json", "w", encoding="utf-8") as fh:
            fh.write(meta_text + "\n")
    else:
        print(meta_text, file=sys.stderr)
    return EXIT_OK


_COMMON = {"--out": (str, None)}
_MODES = ("auto", "path-exact", "path-fptas", "sp-exact", "sp-fptas", "brute")

# command: (handler, summary, {option: (converter or choices, default)}),
# where a default of ... marks a required option. --in is read into `infile`.
_COMMANDS = {
    "solve": (_cmd_solve, "solve an instance file", {
        "--in": (str, ...), **_COMMON, "--mode": (_MODES, "auto"), "--eps": (float, 0.25),
    }),
    "resistance": (_cmd_resistance, "effective resistance at ybar or a solution's y", {
        "--in": (str, ...), **_COMMON, "--sol": (str, None),
    }),
    "verify": (_cmd_verify, "check a solution file against an instance", {
        "--in": (str, ...), **_COMMON, "--tol": (float, 1e-9), "--sol": (str, ...),
    }),
    "gen": (_cmd_gen, "generate a corpus instance", {
        **_COMMON, "--family": (("partition", "knapsack", "steiner", "random-sp"), ...),
        "--seed": (int, 0), "--r": (float, 1.0), "--numbers": (str, None), "--size": (int, 6),
    }),
}
_USAGE = "usage: flowdesign {solve,resistance,verify,gen} [--opt VALUE | --opt=VALUE ...] [-h]\n"
_ABOUT = "\nMinimum-cost design of potential-based flow networks. Options take their exact names.\n\n"


def _help(names) -> str:
    """Each named command's usage, summary and defaults, written from _COMMANDS."""
    out = []
    for name in names:
        _, summary, opts = _COMMANDS[name]
        line = f"flowdesign {name}"
        indent, defaults = " " * len(line), []
        for opt, (kind, default) in opts.items():
            meta = "|".join(kind) if isinstance(kind, tuple) else kind.__name__.upper()
            word = f"{opt} {meta}" if default is ... else f"[{opt} {meta}]"
            if len(line) + len(word) >= 79:
                out.append(line)
                line = indent
            line += " " + word
            if default not in (None, ...):
                defaults.append(f"{opt} {default}")
        out += [line, f"    {summary}; defaults: {' '.join(defaults)}" if defaults else f"    {summary}"]
    return "\n".join(out) + "\n"


def _usage_error(message: str, name: str | None = None) -> int:
    sys.stderr.write(("usage: " + _help([name]) if name else _USAGE) + f"flowdesign: error: {message}\n")
    return EXIT_USAGE


def _parse_args(argv):
    """The args namespace for argv, read against _COMMANDS, or an exit code once
    the help (0, on stdout) or a usage error (1, on stderr) is written. A value
    is the part after `=` or the next word, which must not start with -- or be -h."""
    name = argv[0] if argv else None
    if name in ("-h", "--help"):
        sys.stdout.write(_USAGE + _ABOUT + _help(_COMMANDS))
        return EXIT_OK
    if name not in _COMMANDS:
        what = "a command is required" if name is None else f"invalid command {name!r}"
        return _usage_error(f"{what} (choose from {', '.join(_COMMANDS)})")
    opts, values, words = _COMMANDS[name][2], {}, iter(argv[1:])
    for word in words:
        if word in ("-h", "--help"):
            sys.stdout.write("usage: " + _help([name]))
            return EXIT_OK
        opt, eq, value = word.partition("=")
        if opt not in opts:
            return _usage_error(f"unrecognized argument {word!r}", name)
        if not eq:
            value = next(words, None)
            if value is None or value.startswith("--") or value == "-h":
                return _usage_error(f"option {opt} expects one value", name)
        kind = opts[opt][0]
        if isinstance(kind, tuple):
            if value not in kind:
                return _usage_error(f"option {opt}: {value!r} is not one of {', '.join(kind)}", name)
        else:
            try:
                value = kind(value)
            except ValueError:
                return _usage_error(f"option {opt}: invalid {kind.__name__} value {value!r}", name)
        values[opt] = value
    missing = [opt for opt, (_, default) in opts.items() if default is ... and opt not in values]
    if missing:
        return _usage_error(f"the following options are required: {', '.join(missing)}", name)
    return types.SimpleNamespace(command=name, **{
        "infile" if opt == "--in" else opt[2:]: values.get(opt, default) for opt, (_, default) in opts.items()
    })


def main(argv=None) -> int:
    args = _parse_args(sys.argv[1:] if argv is None else list(argv))
    if isinstance(args, int):
        return args
    try:
        return _COMMANDS[args.command][0](args)
    except (Infeasible, Disconnected) as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except (NotSeriesParallel, UnsupportedCase, OutOfRange, NonConvergence) as exc:
        print(f"unsupported: {exc}", file=sys.stderr)
        return EXIT_UNSUPPORTED
    except (BoundExceeded, VerificationFailed) as exc:
        print(f"defect: {exc}", file=sys.stderr)
        return EXIT_DEFECT
    except (DimensionMismatch, SchemaError, ValidationError, TooLarge, OddSum, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def run() -> None:
    """Process entry of ``python -m flowdesign`` and the ``flowdesign`` script:
    run ``main`` on sys.argv and exit with its code."""
    code = main()
    # The interpreter's exit runs the atexit handlers, flushes stdout and
    # stderr, then clears every module and frees every object the call
    # loaded, which only returns memory the OS reclaims anyway. Do the first
    # two here and skip the third.
    atexit._run_exitfuncs()
    try:
        sys.stdout.flush()
        sys.stderr.flush()
    except Exception:
        # The interpreter's exit retries the flush and reports its failure
        # (exit 120, "Exception ignored"); the handlers above do not run twice.
        sys.exit(code)
    os._exit(code)
