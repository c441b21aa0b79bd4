"""Seeded, layered benchmark of the flowdesign CLI.

Usage (from the repository root):

    python3 bench/run.py --workload sp_design --seed 1 --seconds 30 --trace 0

For the chosen workload the benchmark writes a seeded corpus of instance
files under bench/out/, then solves every instance with a fresh
``python -m flowdesign`` subprocess, one at a time (a closed loop with one
client). It makes one pass over the corpus, more while the run length
allows. Set-up time comes from fresh interpreters importing flowdesign.cli,
sampled through the passes. Every timed child is reported at
a fixed nominal host speed: a reference task that runs no flowdesign code is
timed right before and after it (see harness.py). Each instance's time is the
median over the passes of its scaled calls. Every output is checked
independently and untimed (see check.py).

--trace 0 prints the end-to-end metrics (tracing off). --trace 1 runs one
untimed subprocess pass for reference outputs, then two in-process passes
through ``flowdesign.cli.main``: one plain and one with span wrappers around
each layer (see spans.py); it asserts that the traced stdout is
byte-identical to the subprocess stdout and prints the per-layer metrics.

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics. Full results, per-instance costs and the spans are
written to bench/out/.
"""

from __future__ import annotations

import argparse
import os
import sys

# Fixed BLAS thread count for this process and every CLI subprocess: set
# before numpy is imported anywhere. Energy runs at r = 2 (dense Newton
# solves) varied by about 15% with the default thread pool on a shared host.
BLAS_THREADS = "1"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = BLAS_THREADS

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, "bench", "out")


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "flowdesign", "__init__.py")):
        print(f"error: no flowdesign sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import harness

    if args.workload not in harness.corpus.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(harness.corpus.WORKLOADS)}", file=sys.stderr)
        return 2
    return harness.run(args, ROOT, SRC, OUT, THREAD_VARS)


if __name__ == "__main__":
    sys.exit(main())
