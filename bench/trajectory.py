"""Collect the results of finished runs into one trajectory point.

Usage (from the repository root, after runs of bench/run.py):

    python3 bench/trajectory.py --label <commit> --out bench/trajectory/BENCH_<commit>.json

Every bench/out/<workload>-s<seed>-t<trace>/result.json is read. For each
workload the point holds the median and quartiles over seeds of every
end-to-end and per-layer metric, the environment of the runs, and the
verified cost (or, for energy, the relative R error) of every instance.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import statistics

OUT = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench", "out")


def summary(values):
    if len(values) < 2:
        return {"median": values[0], "n": 1}
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / q2 if q2 else None, "n": len(values)}


def collect(out_dir):
    runs = []
    for path in sorted(glob.glob(os.path.join(out_dir, "*", "result.json"))):
        with open(path, encoding="utf-8") as fh:
            runs.append(json.load(fh))
    point = {}
    for run in sorted(runs, key=lambda r: (r["workload"], r["trace"], r["seed"])):
        w = point.setdefault(run["workload"], {
            "params": run["params"], "end_to_end": {}, "per_layer": {},
            "instances": {}, "runs": [],
        })
        section = "end_to_end" if run["trace"] == 0 else "per_layer"
        for name, val in (run["end_to_end"] if run["trace"] == 0 else run["per_layer"]).items():
            w[section].setdefault(name, []).append(val)
        w["runs"].append({
            "seed": run["seed"], "trace": run["trace"], "passes": run["passes"],
            "tail_percentile": run["tail_percentile"], "tail_samples": run["tail_samples"],
            "environment": run["environment"],
            "failed": sum(1 for inst in run["instances"] if inst["problems"]),
        })
        if run["trace"] == 0:
            w["instances"][str(run["seed"])] = {
                inst["id"]: inst["value"] for inst in run["instances"]
            }
    for w in point.values():
        for section in ("end_to_end", "per_layer"):
            w[section] = {name: summary(vals) for name, vals in w[section].items()}
    return point


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", required=True, help="commit the runs measured")
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    doc = {"label": args.label, "workloads": collect(OUT)}
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
