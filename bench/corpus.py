"""Seeded instance corpora for the benchmark workloads.

Every generator takes the workload seed and returns a list of corpus entries.
An entry names the instance document (a JSON string, the program's only
input), the CLI arguments that solve it, and the exit code the call must
return. ``write_corpus`` turns the entries into files; the same seed always
gives byte-identical files.

Each workload walks a fixed grid of shape parameters (sizes, r, eps) and
draws only the weights and the random structure from the seed, so corpora of
different seeds cost about the same to solve.
"""

from __future__ import annotations

import json
import os
import random

from flowdesign import core, oracles

# Shape parameters per workload; recorded in the trajectory file. Each corpus
# holds 36 to 48 instances, about as many as one pass fits in the benchmark's
# run length. Some instances take several times longer than others of the same
# shape (energy at r = 2 most of all), so a corpus's cost depends on its seed;
# the more instances, the less.
PARAMS = {
    "sp_design": {
        "family": "oracles.gen_random_sp",
        "m": [4, 5, 6],
        "r": [1.0, 2.0],
        "eps": [0.5, 0.25],
        "repeats": 3,
        "mode": "auto",
    },
    "knapsack_exact": {
        "family": "two-node parallel covering knapsack, c = 0",
        "m": [10, 14, 18, 22],
        "price": [1, 200],
        "mu": [0.5, 3.0],
        "demand_share": [0.3, 0.6],
        "r": [1.0, 2.0],
        "repeats": 6,
        "mode": "sp-exact",
    },
    "path_design": {
        "grid": {"k": [10, 12, 14], "r": [1.0, 2.0], "eps": [0.5, 0.1], "B": [1e2, 1e3]},
        "partition": {"count": [40, 80], "value": [1, 40], "r": [1.0, 2.0], "eps": [0.5]},
        "random": {"n": [50, 100], "degree": 3, "r": [1.0, 2.0], "eps": [0.5, 0.1]},
        "repeats": 2,
        "mode": "auto",
    },
    "energy": {
        "grid": {1.0: [20, 28, 35], 2.0: [10, 12, 14]},
        "random": {1.0: [600, 900, 1200], 2.0: [100, 150, 200]},
        "m_per_n": 2,
        "ybar": [0.5, 3.0],
        "repeats": 4,
    },
}


def _dump(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True)


def _entry(wid, index, text, argv, kind, **extra):
    return {
        "id": f"{wid}-{index:03d}",
        "instance": text,
        "argv": argv,
        "kind": kind,
        "expect_exit": 0,
        **extra,
    }


def _solve_argv(mode, eps):
    argv = ["solve", "--mode", mode]
    if eps is not None:
        argv += ["--eps", repr(eps)]
    return argv


def gen_sp_design(seed: int) -> list[dict]:
    p = PARAMS["sp_design"]
    rng = random.Random(f"sp_design:{seed}")
    out = []
    for _ in range(p["repeats"]):
        for m in p["m"]:
            for r in p["r"]:
                for eps in p["eps"]:
                    inst, _ = oracles.gen_random_sp(rng.randrange(1 << 30), m, r)
                    out.append(_entry(
                        "sp_design", len(out), core.write_instance(inst),
                        _solve_argv(p["mode"], eps), "sp", eps=eps, m=m, r=r,
                    ))
    return out


def gen_knapsack_exact(seed: int) -> list[dict]:
    p = PARAMS["knapsack_exact"]
    rng = random.Random(f"knapsack_exact:{seed}")
    out = []
    for _ in range(p["repeats"]):
        for m in p["m"]:
            for r in p["r"]:
                mu = [round(rng.uniform(*p["mu"]), 6) for _ in range(m)]
                price = [rng.randint(*p["price"]) for _ in range(m)]
                demand = rng.uniform(*p["demand_share"]) * sum(mu)
                doc = {
                    "n": 2, "arcs": [[0, 1]] * m, "s": 0, "t": 1, "r": r,
                    "c": [0.0] * m, "gamma": [float(v) for v in price],
                    "ybar": mu, "B": demand ** (-r),
                }
                out.append(_entry(
                    "knapsack_exact", len(out), _dump(doc),
                    _solve_argv(p["mode"], None), "knapsack", m=m, r=r,
                ))
    return out


def grid_arcs(k: int) -> list[list[int]]:
    """Arcs of a k-by-k grid, node (i, j) numbered i * k + j."""
    arcs = []
    for i in range(k):
        for j in range(k):
            v = i * k + j
            if j + 1 < k:
                arcs.append([v, v + 1])
            if i + 1 < k:
                arcs.append([v, v + k])
    return arcs


def random_connected_arcs(rng: random.Random, n: int, m: int) -> list[list[int]]:
    """A random spanning tree on n nodes plus m - (n - 1) random extra arcs."""
    order = list(range(n))
    rng.shuffle(order)
    arcs = [[order[i], order[rng.randrange(i)]] for i in range(1, n)]
    while len(arcs) < m:
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            arcs.append([u, v])
    return arcs


def _anticorrelated_grid(rng, k, r, B):
    arcs = grid_arcs(k)
    c = [round(rng.uniform(0.1, 10.0), 6) for _ in arcs]
    gamma = [round(100.0 / v * rng.uniform(0.5, 1.5), 6) for v in c]
    return {"n": k * k, "arcs": arcs, "s": 0, "t": k * k - 1, "r": r,
            "c": c, "gamma": gamma, "B": B}


def _random_sparse(rng, n, degree, r):
    arcs = random_connected_arcs(rng, n, n * degree // 2)
    c = [round(rng.uniform(0.1, 10.0), 6) for _ in arcs]
    gamma = [round(rng.uniform(0.1, 10.0), 6) for _ in arcs]
    s, t = rng.sample(range(n), 2)
    return {"n": n, "arcs": arcs, "s": s, "t": t, "r": r,
            "c": c, "gamma": gamma, "B": 10.0}


def gen_path_design(seed: int) -> list[dict]:
    p = PARAMS["path_design"]
    rng = random.Random(f"path_design:{seed}")
    g = p["grid"]
    out = []
    for _ in range(p["repeats"]):
        for k in g["k"]:
            for r in g["r"]:
                for eps in g["eps"]:
                    B = rng.choice(g["B"])
                    doc = _anticorrelated_grid(rng, k, r, B)
                    out.append(_entry(
                        "path_design", len(out), _dump(doc), _solve_argv(p["mode"], eps),
                        "path-grid", eps=eps, k=k, r=r,
                    ))
        q = p["partition"]
        for count in q["count"]:
            for r in q["r"]:
                for eps in q["eps"]:
                    nums = [rng.randint(*q["value"]) for _ in range(count)]
                    if sum(nums) % 2:
                        nums[0] += 1
                    inst = oracles.gen_partition(nums, r).instance
                    out.append(_entry(
                        "path_design", len(out), core.write_instance(inst),
                        _solve_argv(p["mode"], eps), "path-partition", eps=eps, count=count, r=r,
                    ))
        q = p["random"]
        for n in q["n"]:
            for r in q["r"]:
                for eps in q["eps"]:
                    doc = _random_sparse(rng, n, q["degree"], r)
                    out.append(_entry(
                        "path_design", len(out), _dump(doc), _solve_argv(p["mode"], eps),
                        "path-random", eps=eps, n=n, r=r,
                    ))
    return out


def gen_energy(seed: int) -> list[dict]:
    p = PARAMS["energy"]
    rng = random.Random(f"energy:{seed}")
    lo, hi = p["ybar"]
    out = []

    def add(nodes, arcs, s, t, r, kind, **extra):
        doc = {"n": nodes, "arcs": arcs, "s": s, "t": t, "r": r,
               "c": [1.0] * len(arcs), "gamma": [0.0] * len(arcs),
               "ybar": [round(rng.uniform(lo, hi), 6) for _ in arcs], "B": 1.0}
        out.append(_entry("energy", len(out), _dump(doc), ["resistance"], kind, r=r, **extra))

    for _ in range(p["repeats"]):
        for r, sizes in p["grid"].items():
            for k in sizes:
                add(k * k, grid_arcs(k), 0, k * k - 1, r, "energy-grid", k=k)
        for r, sizes in p["random"].items():
            for n in sizes:
                arcs = random_connected_arcs(rng, n, n * p["m_per_n"])
                s, t = rng.sample(range(n), 2)
                add(n, arcs, s, t, r, "energy-random", n=n)
    return out


GENERATORS = {
    "sp_design": gen_sp_design,
    "knapsack_exact": gen_knapsack_exact,
    "path_design": gen_path_design,
    "energy": gen_energy,
}
WORKLOADS = tuple(GENERATORS)


def generate(workload: str, seed: int) -> list[dict]:
    return GENERATORS[workload](seed)


def write_corpus(entries: list[dict], directory: str) -> list[dict]:
    """Write each instance to ``directory`` and return the entries with paths.

    The returned entries drop the inline document and carry ``path`` and the
    full ``argv`` (with ``--in``) instead.
    """
    os.makedirs(directory, exist_ok=True)
    written = []
    for ent in entries:
        path = os.path.join(directory, ent["id"] + ".json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(ent["instance"] + "\n")
        rest = {k: v for k, v in ent.items() if k != "instance"}
        rest["path"] = path
        rest["argv"] = ent["argv"] + ["--in", path]
        written.append(rest)
    return written

