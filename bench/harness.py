"""The benchmark's passes, checks and metrics; ``run.py`` is the entry point."""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

import numpy as np

import check
import corpus
import spans
from flowdesign import cli, core

SETUP_PER_PASS = 8
TAIL_BEYOND = 10


def environment(thread_vars) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (AttributeError, KeyError, TypeError):
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_start": list(os.getloadavg()),
        "blas_threads": {var: os.environ.get(var) for var in thread_vars},
    }


def child_env(src: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn(cmd, env, cwd, err_path):
    """Run one child to completion: (seconds, exit code, stdout, peak RSS MiB).

    The child is reaped with os.wait4 so its own peak RSS can be read.
    """
    with open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=err, env=env, cwd=cwd)
        try:
            out = proc.stdout.read()
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        elapsed = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    proc.stdout.close()
    return elapsed, proc.returncode, out, usage.ru_maxrss / 1024.0


SETUP_CMD = (sys.executable, "-c", "import flowdesign.cli")

# Every timed child is reported at a fixed nominal host speed. On a shared host
# the speed of a process swings by a third within seconds and by more between
# phases that last minutes, so raw times of runs made minutes apart differ by
# more than any useful bound. The reference task below runs no flowdesign code
# and is timed right before and right after each CLI call and set-up sample;
# the child's host factor is the mean of those two times over
# REFERENCE_NOMINAL_S, and its scaled time is its wall time over that factor.
# A CLI call is mostly interpreter start and imports, and the reference task
# follows those best: scaled by a pure-Python loop timed in this process, the
# startup-bound energy calls kept about twice the spread. Since the reference
# runs no flowdesign code, a change to the program moves the scaled times in
# the same proportion as the raw ones. The reference takes about REFERENCE_NOMINAL_S on a quiet
# 2-vCPU host with Python 3.11 and numpy 2.4; keep the constant fixed, since
# changing it rescales every reported time.
REFERENCE_CMD = (sys.executable, "-c", "import numpy")
REFERENCE_NOMINAL_S = 0.1


def sample(cmd, env, cwd, err_path) -> float:
    """Wall time of one run of a fixed command that must succeed."""
    elapsed, code, _, _ = spawn(list(cmd), env, cwd, err_path)
    if code != 0:
        raise RuntimeError(f"{cmd[-1]!r} exited {code}")
    return elapsed


def tail(values):
    """Highest whole percentile with at least TAIL_BEYOND samples beyond it.

    Returns (percentile, value) using nearest-rank, or (None, max) when there
    are too few samples for any percentile to qualify.
    """
    ordered = sorted(values)
    n = len(ordered)
    for p in range(99, 0, -1):
        rank = math.ceil(p * n / 100)
        if rank >= 1 and n - rank >= TAIL_BEYOND:
            return p, ordered[rank - 1]
    return None, ordered[-1]


class HostSpeed:
    """Host factors from runs of the reference task between timed children."""

    def __init__(self, env, cwd, err_path):
        self._args = (env, cwd, err_path)
        self.samples = [sample(REFERENCE_CMD, *self._args)]

    def factor(self) -> float:
        """Host factor of the child that ran since the last reference run."""
        self.samples.append(sample(REFERENCE_CMD, *self._args))
        return (self.samples[-2] + self.samples[-1]) / (2.0 * REFERENCE_NOMINAL_S)


def subprocess_passes(entries, env, cwd, err_dir, seconds):
    """Closed-loop passes over the corpus, one CLI subprocess at a time.

    After the first pass another starts only if it is expected to end within
    ``seconds`` of the first pass's start. At SETUP_PER_PASS evenly spaced
    points of each pass a set-up sample is taken, so that set-up and solve
    times cover the same stretch of the run. The reference task runs
    between any two timed children (see HostSpeed). Returns per pass the call
    tuples (see ``spawn``) and their host factors, the set-up samples as
    (seconds, host factor) pairs, and every reference sample.
    """
    setup_err = os.path.join(err_dir, "setup.err")
    marks = {len(entries) * j // SETUP_PER_PASS for j in range(SETUP_PER_PASS)}
    passes, factors, setup = [], [], []
    host = HostSpeed(env, cwd, os.path.join(err_dir, "reference.err"))
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        calls, pass_factors = [], []
        for i, ent in enumerate(entries):
            if i in marks:
                setup_s = sample(SETUP_CMD, env, cwd, setup_err)
                setup.append((setup_s, host.factor()))
            cmd = [sys.executable, "-m", "flowdesign", *ent["argv"]]
            calls.append(spawn(cmd, env, cwd, os.path.join(err_dir, ent["id"] + ".err")))
            pass_factors.append(host.factor())
        passes.append(calls)
        factors.append(pass_factors)
        pass_s = time.perf_counter() - t0
        if time.perf_counter() - start + pass_s > seconds:
            return passes, factors, setup, host.samples


def inprocess_pass(entries, main):
    """One pass through cli.main in this process: (seconds, [(code, stdout)])."""
    results = []
    t0 = time.perf_counter()
    for ent in entries:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(ent["argv"])
        results.append((code, out.getvalue()))
    return time.perf_counter() - t0, results


def check_entries(entries, instances, outputs):
    """Check every call's output; returns per-entry (problems, value)."""
    checked = []
    for ent, inst, (code, stdout) in zip(entries, instances, outputs):
        if code != ent["expect_exit"]:
            checked.append(([f"exit code {code}, expected {ent['expect_exit']}"], math.nan))
            continue
        try:
            if ent["kind"].startswith("energy"):
                problems, R_cert = check.certify_resistance(inst)
                more, err = check.check_resistance_output(stdout, R_cert)
                checked.append((problems + more, err))
            else:
                checked.append(check.check_solution(inst, stdout, ent["kind"]))
        except (ValueError, KeyError, TypeError) as exc:
            checked.append(([f"unparseable output: {exc}"], math.nan))
    return checked


def gmean(values):
    vals = [v for v in values if v > 0.0 and math.isfinite(v)]
    return math.exp(sum(math.log(v) for v in vals) / len(vals)) if vals else 0.0


def quality_metrics(entries, checked, problems):
    """Failed share, geometric-mean verified cost and worst R error.

    ``problems`` holds every problem found for each entry, including those
    found after the output check (passes or traced calls that disagree).
    """
    costs = [v for ent, (p, v) in zip(entries, checked)
             if not ent["kind"].startswith("energy") and not p]
    errs = [v for ent, (p, v) in zip(entries, checked)
            if ent["kind"].startswith("energy") and math.isfinite(v)]
    failed = sum(1 for p in problems if p)
    return {
        "check.failed_frac": failed / len(entries),
        "check.cost_gmean": gmean(costs),
        "check.res_err_max": max(errs, default=0.0),
    }


def traced_pass(entries):
    """In-process calls of every entry, plain and traced in turn.

    Returns the tracer with its spans, per entry the (code, stdout) of the
    plain and the traced call, and the traced time's excess over the plain.
    """
    inprocess_pass(entries[:1], cli.main)  # warm lazy imports
    tracer = spans.Tracer()
    traced_main = tracer.wrap("cli", cli.main)
    # Plain and traced calls alternate per instance so that drift in the
    # host's speed falls on both sides of the overhead ratio alike.
    plain_s = traced_s = 0.0
    results = []
    for ent in entries:
        dt, plain = inprocess_pass([ent], cli.main)
        plain_s += dt
        tracer.instance = ent["id"]
        tracer.install()
        try:
            dt, traced = inprocess_pass([ent], traced_main)
        finally:
            tracer.uninstall()
        traced_s += dt
        results.append((plain[0], traced[0]))
    return tracer, results, traced_s / plain_s - 1.0


def kind_breakdown(entries, tracer_spans):
    """Traced seconds per instance kind: total, and per-layer inclusive times."""
    kind_of = {ent["id"]: ent["kind"] for ent in entries}
    out = {}
    for sp in tracer_spans:
        row = out.setdefault(kind_of[sp.instance], {})
        row[sp.name] = row.get(sp.name, 0.0) + (sp.end - sp.start)
    return out


def declared_units(root) -> tuple[dict, dict]:
    """Units of the end-to-end and per-layer metrics named in BENCHMARK.json."""
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        doc = json.load(fh)
    return tuple({m["name"]: m["unit"] for m in doc[key]} for key in ("end_to_end", "per_layer"))


def run(args, root, src, out_root, thread_vars) -> int:
    e2e_units, layer_units = declared_units(root)
    env_info = environment(thread_vars)
    work = os.path.join(out_root, f"{args.workload}-s{args.seed}-t{args.trace}")
    shutil.rmtree(work, ignore_errors=True)
    err_dir = os.path.join(work, "stderr")
    os.makedirs(err_dir)
    entries = corpus.write_corpus(corpus.generate(args.workload, args.seed),
                                  os.path.join(work, "corpus"))
    instances = []
    for ent in entries:
        with open(ent["path"], encoding="utf-8") as fh:
            instances.append(core.parse_instance(fh.read()))
    env = child_env(src)

    spawn([sys.executable, "-m", "flowdesign", *entries[0]["argv"]], env, root,
          os.path.join(err_dir, "warmup.err"))
    sample(SETUP_CMD, env, root, os.path.join(err_dir, "warmup.err"))
    sample(REFERENCE_CMD, env, root, os.path.join(err_dir, "warmup.err"))

    # The traced run makes one subprocess pass, for the reference outputs.
    seconds = args.seconds if args.trace == 0 else 0.0
    passes, factors, setup, host = subprocess_passes(entries, env, root, err_dir, seconds)
    expected = [(code, out.decode("utf-8", "replace")) for _, code, out, _ in passes[0]]
    checked = check_entries(entries, instances, expected)
    problems = [list(p) for p, _ in checked]
    for calls in passes[1:]:
        for i, (_, code, out, _) in enumerate(calls):
            if (code, out.decode("utf-8", "replace")) != expected[i]:
                problems[i].append("output differs between passes")
    attempted = len(entries) * len(passes)

    # Each instance's time is the median over the passes of its calls' times
    # at the nominal host speed.
    per_instance = [statistics.median(calls[i][0] / fs[i] for calls, fs in zip(passes, factors))
                    for i in range(len(entries))]
    tail_p, tail_v = tail(per_instance)
    e2e = {
        "corpus_s": sum(per_instance),
        "instance_s.p50": statistics.median(per_instance),
        "instance_s.tail": tail_v,
        "setup_s": statistics.median(t / f for t, f in setup),
        "peak_rss_mb": max(call[3] for calls in passes for call in calls),
    }

    layers = {}
    breakdown = {}
    if args.trace == 1:
        tracer, results, overhead = traced_pass(entries)
        attempted += 2 * len(entries)
        for i, (plain, traced) in enumerate(results):
            if traced != expected[i]:
                problems[i].append("traced stdout differs from the CLI subprocess")
            if plain != expected[i]:
                problems[i].append("in-process stdout differs from the CLI subprocess")
        layers = spans.layer_metrics(tracer.spans)
        layers["trace.overhead_frac"] = overhead
        breakdown = kind_breakdown(entries, tracer.spans)
        tracer.write(os.path.join(work, "spans.jsonl"))

    quality = quality_metrics(entries, checked, problems)
    if args.trace == 1:
        layers.update(quality)
    failed = sum(1 for p in problems if p)
    for ent, p in zip(entries, problems):
        for msg in p:
            print(f"FAIL {ent['id']}: {msg}", file=sys.stderr)

    units = e2e_units if args.trace == 0 else layer_units
    metrics = e2e if args.trace == 0 else layers
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "environment": env_info,
        "params": corpus.PARAMS[args.workload],
        "passes": len(passes),
        "tail_percentile": tail_p,
        "tail_samples": len(per_instance),
        "setup_samples": setup,
        "reference_samples": host,
        "reference_nominal_s": REFERENCE_NOMINAL_S,
        "end_to_end": e2e,
        "quality": quality,
        "per_layer": layers,
        "traced_seconds_by_kind": breakdown,
        "instances": [
            {**{k: v for k, v in ent.items() if k not in ("argv", "path")},
             "seconds": [calls[i][0] for calls in passes],
             "host_factors": [fs[i] for fs in factors],
             "value": val if math.isfinite(val) else None, "problems": problems[i]}
            for i, (ent, (_, val)) in enumerate(zip(entries, checked))
        ],
    }
    with open(os.path.join(work, "result.json"), "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1, sort_keys=True)

    print(f"workload {args.workload} seed {args.seed}: {len(entries)} instances, "
          f"{len(passes)} pass(es), environment {json.dumps(env_info, sort_keys=True)}")
    print(f"instance_s.tail is p{tail_p} of {len(per_instance)} instances")
    print(f"times are at the nominal host speed: reference task median "
          f"{statistics.median(host):.4f} s, nominal {REFERENCE_NOMINAL_S} s; raw set-up "
          f"median {statistics.median(t for t, _ in setup):.4f} s")
    all_units = {**e2e_units, **layer_units}
    for name, val in {**e2e, **quality, **layers}.items():
        print(f"{name} = {val:.6g} {all_units[name]}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0
