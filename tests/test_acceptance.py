"""End-to-end acceptance gate.

One test per release criterion, each with its stated tolerance and trial
count, so a verbose pytest run shows one pass/fail line per criterion. The
random corpora use fixed seeds; everything here must stay deterministic.
"""

import json
import math
import os
import random
import subprocess
import sys

import pytest

import flowdesign
from flowdesign import (
    Infeasible,
    Instance,
    decompose,
    effective_resistance,
    verify,
)
from flowdesign.core import FixedInstance
from flowdesign.oracles import (
    brute_paths_unbounded,
    brute_subsets_continuous_sp,
    brute_subsets_fixed,
    gen_min_knapsack,
    gen_partition,
    gen_steiner_gadget,
    random_sp_structure,
    simple_paths,
    steiner_to_solution,
)
from flowdesign.pathdesign import (
    lambda_grid,
    optimal_y_for_path,
    solve_fixed_cost_only,
    solve_path_fptas,
    solve_variable_cost_only,
    to_solution,
)
from flowdesign.spdesign import (
    OptionSet,
    dp_exact,
    solve_fixed_conductance_fptas,
    solve_sp_fptas,
)
from flowdesign.sptree import resistance_sp


# ---------------------------------------------------------------- helpers


def random_connected(rng, n, extra):
    """Random tree on n nodes plus `extra` shuffled chords."""
    arcs = []
    for i in range(1, n):
        p = rng.randrange(i)
        arcs.append((i, p) if rng.random() < 0.5 else (p, i))
    for _ in range(extra):
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            arcs.append((u, v))
    return tuple(arcs)


def random_unbounded_instance(seed, zero_c=False, zero_gamma=False):
    rng = random.Random(seed)
    n = rng.randint(2, 8)
    arcs = random_connected(rng, n, rng.randint(0, n))
    m = len(arcs)
    r = rng.choice((1.0, 1.5, 2.0, 3.0))
    c = tuple(0.0 if zero_c else round(rng.uniform(0.1, 5.0), 4) for _ in range(m))
    gamma = tuple(0.0 if zero_gamma else round(rng.uniform(0.0, 3.0), 4) for _ in range(m))
    return Instance(
        n=n, arcs=arcs, s=0, t=n - 1, r=r, c=c, gamma=gamma,
        ybar=(math.inf,) * m, B=rng.uniform(0.5, 2.0),
    )


def random_fixed_sp(seed, m_max=12):
    """SP FixedInstance with integer prices <= 20, sized for the subset oracle."""
    rng = random.Random(seed)
    m = rng.randint(1, m_max)
    n, arcs, s, t = random_sp_structure(rng, m)
    per_arc = 2 if m > 8 else 3
    options = tuple(
        tuple(
            (round(rng.uniform(0.3, 3.0), 3), float(rng.randint(0, 20)))
            for _ in range(rng.randint(1, per_arc))
        )
        for _ in range(m)
    )
    r = rng.choice((1.0, 2.0))
    best_y = [max(o[0] for o in opts) for opts in options]
    tree = decompose(n, arcs, s, t)
    base = resistance_sp(tree, best_y, r)
    B = base * rng.uniform(1.0, 2.5)
    return FixedInstance(n=n, arcs=arcs, s=s, t=t, r=r, B=B, options=options), tree


def random_bounded_sp(seed, m):
    """Continuous SP design instance in the pipeline's supported regime."""
    rng = random.Random(seed)
    n, arcs, s, t = random_sp_structure(rng, m)
    c = tuple(round(rng.uniform(0.1, 10.0), 4) for _ in range(m))
    gamma = tuple(round(rng.uniform(0.0, 2.0), 4) for _ in range(m))
    ybar = tuple(round(rng.uniform(0.5, 3.0), 4) for _ in range(m))
    r = rng.choice((1.0, 2.0))
    tree = decompose(n, arcs, s, t)
    B = resistance_sp(tree, ybar, r) * rng.uniform(1.5, 3.0)
    return Instance(n=n, arcs=arcs, s=s, t=t, r=r, c=c, gamma=gamma, ybar=ybar, B=B)


def min_knapsack_dp(mu, p, D):
    """Textbook covering-knapsack DP over integer demand units; None if infeasible."""
    if D <= 0:
        return 0
    best = [math.inf] * (D + 1)
    best[0] = 0
    for m_i, p_i in zip(mu, p):
        for d in range(D, -1, -1):
            if best[d] < math.inf:
                nd = min(D, d + m_i)
                best[nd] = min(best[nd], best[d] + p_i)
    return None if math.isinf(best[D]) else best[D]


def rel_err(got, want):
    return abs(got - want) / max(abs(want), 1e-30)


# ---------------------------------------------------------------- criteria


def test_criterion_01_closed_form_agreement():
    """Pure paths match sum(1/y^r); pure parallels match conductance sum(y)."""
    for seed in range(100):
        rng = random.Random(10_000 + seed)
        m = rng.randint(1, 10)
        r = rng.choice((1.0, 1.5, 2.0, 3.0))
        y = tuple(rng.uniform(0.1, 10.0) for _ in range(m))
        if seed % 2 == 0:
            arcs = tuple((i, i + 1) for i in range(m))
            got = effective_resistance(m + 1, arcs, y, r, 0, m)
            want = sum(v ** -r for v in y)
        else:
            arcs = ((0, 1),) * m
            got = effective_resistance(2, arcs, y, r, 0, 1)
            want = sum(y) ** -r
        assert rel_err(got, want) <= 1e-8, (seed, got, want)
    print("ACCEPTANCE 1: PASS")


def test_criterion_02_composition_vs_energy():
    """SP-tree composition agrees with the energy solver on 100 graphs."""
    for seed in range(100):
        rng = random.Random(20_000 + seed)
        m = rng.randint(1, 16)
        n, arcs, s, t = random_sp_structure(rng, m)
        r = rng.choice((1.0, 1.5, 2.0, 3.0))
        y = tuple(rng.uniform(0.1, 10.0) for _ in range(m))
        tree = decompose(n, arcs, s, t)
        via_tree = resistance_sp(tree, y, r)
        via_energy = effective_resistance(n, arcs, y, r, s, t)
        assert rel_err(via_energy, via_tree) <= 1e-6, (seed, via_tree, via_energy)
    print("ACCEPTANCE 2: PASS")


def test_criterion_03_monotone_and_convex():
    """Resistance never rises when y grows, and is convex along segments."""
    hard = 0
    for seed in range(200):
        rng = random.Random(30_000 + seed)
        n = rng.randint(2, 7)
        arcs = random_connected(rng, n, rng.randint(0, n))
        m = len(arcs)
        r = rng.choice((1.0, 1.5, 2.0, 3.0))
        y = [rng.uniform(0.1, 10.0) for _ in range(m)]
        y_up = [v + rng.uniform(0.0, 5.0) for v in y]
        R = effective_resistance(n, arcs, y, r, 0, n - 1)
        R_up = effective_resistance(n, arcs, y_up, r, 0, n - 1)
        if R_up > R + 1e-7 * (1.0 + abs(R)):
            hard += 1
    assert hard == 0

    for seed in range(200):
        rng = random.Random(35_000 + seed)
        n = rng.randint(2, 7)
        arcs = random_connected(rng, n, rng.randint(0, n))
        m = len(arcs)
        r = rng.choice((1.0, 1.5, 2.0, 3.0))
        ya = [rng.uniform(0.1, 10.0) for _ in range(m)]
        yb = [rng.uniform(0.1, 10.0) for _ in range(m)]
        lam = rng.uniform(0.05, 0.95)
        mix = [lam * a + (1.0 - lam) * b for a, b in zip(ya, yb)]
        Ra = effective_resistance(n, arcs, ya, r, 0, n - 1)
        Rb = effective_resistance(n, arcs, yb, r, 0, n - 1)
        Rm = effective_resistance(n, arcs, mix, r, 0, n - 1)
        chord = lam * Ra + (1.0 - lam) * Rb
        if Rm > chord + 1e-7 * (1.0 + abs(chord)):
            hard += 1
    assert hard == 0
    print("ACCEPTANCE 3: PASS")


def test_criterion_04_exact_path_solvers():
    """Special-case exact solvers equal the path oracle, path included."""
    for seed in range(100):
        zero_c = seed % 2 == 0
        inst = random_unbounded_instance(40_000 + seed, zero_c=zero_c, zero_gamma=not zero_c)
        got = to_solution(
            inst,
            solve_fixed_cost_only(inst) if zero_c else solve_variable_cost_only(inst),
        )
        want = brute_paths_unbounded(inst)
        assert rel_err(got.cost, want.cost) <= 1e-9, (seed, got.cost, want.cost)
        # The chosen arcs must form one of the cost-optimal paths.
        objectives = {
            path: optimal_y_for_path(path, inst.c, inst.B, inst.r, inst.gamma)[1]
            for path in simple_paths(inst.n, inst.arcs, inst.s, inst.t)
        }
        best = min(objectives.values())
        optimal_sets = [
            frozenset(path)
            for path, obj in objectives.items()
            if obj <= best + 1e-9 * (1.0 + best)
        ]
        chosen = frozenset(a for a in range(inst.m) if got.x[a] == 1)
        assert chosen in optimal_sets, (seed, chosen, optimal_sets)
    print("ACCEPTANCE 4: PASS")


def test_criterion_05_path_fptas():
    """Guarantee, exact budget use, and the grid-size bound on every run."""
    for seed in range(100):
        inst = random_unbounded_instance(50_000 + seed)
        oracle = brute_paths_unbounded(inst).cost
        for eps in (0.5, 0.1, 0.01):
            sol = to_solution(inst, solve_path_fptas(inst, eps))
            assert sol.cost <= (1.0 + eps) * oracle * (1.0 + 1e-12), (seed, eps)
            spent = sum(v ** -inst.r for v in sol.y if v > 0.0 and math.isfinite(v))
            assert abs(spent - inst.B) <= 1e-9 * max(1.0, inst.B), (seed, eps, spent)
            grid = lambda_grid(inst, eps)  # also re-runs its internal bound check
            pos = [v for v in inst.c if v > 0.0]
            bound = (
                math.ceil(
                    3.0
                    * math.log2((inst.n - 1.0) ** ((inst.r + 1.0) / inst.r) * max(pos) / min(pos))
                    / eps
                )
                + 1
            )
            assert len(grid.points) - 1 <= bound, (seed, eps, len(grid.points), bound)
    print("ACCEPTANCE 5: PASS")


def test_criterion_06_sp_exact_dp():
    """Budgeted DP equals the subset oracle and the covering-knapsack DP."""
    for seed in range(50):
        fixed, tree = random_fixed_sp(60_000 + seed)
        U = sum(max(int(o[1]) for o in opts) for opts in fixed.options)
        options = OptionSet(fixed.options)
        try:
            got = dp_exact(tree, options, U, fixed.B, fixed.r).cost
        except Infeasible:
            got = None
        try:
            want = brute_subsets_fixed(fixed).cost
        except Infeasible:
            want = None
        assert got == want, (seed, got, want)

    for seed in range(30):
        rng = random.Random(65_000 + seed)
        k = rng.randint(1, 8)
        mu = [rng.randint(1, 9) for _ in range(k)]
        p = [rng.randint(0, 15) for _ in range(k)]
        D = rng.randint(0, sum(mu) + 2)
        fixed = gen_min_knapsack(mu, p, D)
        want = min_knapsack_dp(mu, p, D)
        try:
            got = brute_subsets_fixed(fixed).cost
        except Infeasible:
            got = None
        assert got == want, (seed, mu, p, D, got, want)
    print("ACCEPTANCE 6: PASS")


def test_criterion_07_scaling_fptas():
    """Scaled DP stays within (1+eps) of exact; price rounding is sound."""
    for seed in range(50):
        fixed, tree = random_fixed_sp(70_000 + seed, m_max=10)
        U = sum(max(int(o[1]) for o in opts) for opts in fixed.options)
        try:
            exact = dp_exact(tree, OptionSet(fixed.options), U, fixed.B, fixed.r).cost
        except Infeasible:
            exact = None
        for eps in (0.5, 0.25):
            # solve_fixed_conductance_fptas asserts delta*rho <= p <= delta*rho + delta
            # on every arc of every guess while it runs.
            try:
                got = solve_fixed_conductance_fptas(fixed, eps).cost
            except Infeasible:
                got = None
            if exact is None:
                assert got is None, (seed, eps)
            else:
                assert got is not None, (seed, eps)
                assert got <= (1.0 + eps) * exact + 1e-12, (seed, eps, got, exact)

    # The rounding inequality itself, checked standalone.
    rng = random.Random(71_000)
    for _ in range(200):
        p = rng.uniform(0.0, 100.0)
        delta = rng.uniform(1e-3, 10.0)
        rho = int(p / delta)
        assert delta * rho <= p * (1.0 + 1e-12)
        assert p <= delta * rho + delta * (1.0 + 1e-12)
    print("ACCEPTANCE 7: PASS")


def test_criterion_08_continuous_pipeline():
    """Full bounded-conductance pipeline within 1.25x of the subset oracle."""
    eps = 0.25
    for seed in range(30):
        m = 2 + seed % 7
        inst = random_bounded_sp(80_000 + seed, m)
        sol = solve_sp_fptas(inst, eps)
        report = verify(inst, sol)
        assert report.feasible, (seed, report.reasons, report.achievedR, inst.B)
        oracle = brute_subsets_continuous_sp(inst)
        assert sol.cost <= (1.0 + eps) * oracle.cost * (1.0 + 1e-9), (
            seed, sol.cost, oracle.cost,
        )
    print("ACCEPTANCE 8: PASS")


def test_criterion_09_partition_gadget():
    """Balanced subsets hit the threshold exactly; the map matches the oracle."""
    g = gen_partition((1, 1, 2), 1.0)
    assert g.threshold == 24.0
    assert g.objective({2}) == 24.0
    assert g.objective({0, 1}) == 24.0

    paths = list(simple_paths(g.instance.n, g.instance.arcs, g.instance.s, g.instance.t))
    assert len(paths) == 8
    best = math.inf
    for path in paths:
        chosen = {a // 2 for a in path if a % 2 == 0}
        _, obj = optimal_y_for_path(path, g.instance.c, g.instance.B, g.instance.r, g.instance.gamma)
        assert rel_err(obj, g.objective(chosen)) <= 1e-9, (path, obj)
        best = min(best, obj)
    assert rel_err(brute_paths_unbounded(g.instance).cost, best) <= 1e-9
    print("ACCEPTANCE 9: PASS")


def test_criterion_10_steiner_gadget():
    """Tree-based solutions of the gadget verify within the tuned budget."""
    for seed in range(10):
        rng = random.Random(90_000 + seed)
        n = rng.randint(3, 8)
        parents = {i: rng.randrange(i) for i in range(1, n)}
        arcs = [(i, parents[i]) for i in range(1, n)]
        tree_idx = set(range(len(arcs)))
        for _ in range(rng.randint(0, n // 2)):
            u, v = rng.randrange(n), rng.randrange(n)
            if u != v:
                arcs.append((u, v))
        k = rng.randint(2, min(4, n))
        terminals = sorted(rng.sample(range(n), k))
        costs = [rng.randint(1, 10) for _ in arcs]
        gadget = gen_steiner_gadget(n, arcs, terminals, costs, rng.choice((1.0, 2.0)))

        # Prune the spanning tree down to the subtree spanning the terminals.
        keep = set(tree_idx)
        while True:
            degree = {}
            for a in keep:
                for v in arcs[a]:
                    degree[v] = degree.get(v, 0) + 1
            drop = None
            for a in keep:
                u, v = arcs[a]
                if (degree[u] == 1 and u not in terminals) or (
                    degree[v] == 1 and v not in terminals
                ):
                    drop = a
                    break
            if drop is None:
                break
            keep.discard(drop)

        sol = steiner_to_solution(gadget, sorted(keep))
        report = verify(gadget.instance, sol)
        assert report.feasible, (seed, report.reasons)
        assert report.achievedR <= gadget.instance.B, (seed, report.achievedR, gadget.instance.B)
    print("ACCEPTANCE 10: PASS")


def test_criterion_11_byte_identical_runs(tmp_path):
    """The same seeded pipeline writes byte-identical files twice."""
    unbounded = random_unbounded_instance(110_000)
    from flowdesign import write_instance

    src = tmp_path / "unbounded.json"
    src.write_text(write_instance(unbounded), encoding="utf-8")

    src_dir = os.path.dirname(os.path.dirname(os.path.abspath(flowdesign.__file__)))
    pythonpath = os.pathsep.join(p for p in (src_dir, os.environ.get("PYTHONPATH")) if p)

    def one_run(root, hashseed):
        root.mkdir()
        env = dict(os.environ, PYTHONHASHSEED=hashseed, PYTHONPATH=pythonpath)

        def run(args):
            proc = subprocess.run(
                [sys.executable, "-m", "flowdesign", *args],
                capture_output=True, text=True, env=env, timeout=120,
            )
            assert proc.returncode == 0, (args, proc.stderr)

        run(["gen", "--family", "partition", "--numbers", "1,1,2",
             "--out", str(root / "part.json")])
        run(["gen", "--family", "knapsack", "--numbers", "3,4;1,2;4",
             "--out", str(root / "knap.json")])
        run(["gen", "--family", "random-sp", "--seed", "5", "--size", "6",
             "--out", str(root / "sp1.json")])
        run(["gen", "--family", "random-sp", "--seed", "6", "--size", "7", "--r", "2",
             "--out", str(root / "sp2.json")])
        run(["gen", "--family", "steiner", "--seed", "9", "--size", "6",
             "--out", str(root / "st.json")])
        run(["solve", "--in", str(root / "part.json"), "--mode", "brute",
             "--out", str(root / "part.sol.json")])
        run(["solve", "--in", str(root / "knap.json"), "--mode", "sp-exact",
             "--out", str(root / "knap.sol.json")])
        run(["solve", "--in", str(root / "sp1.json"), "--eps", "0.25",
             "--out", str(root / "sp1.sol.json")])
        run(["solve", "--in", str(root / "sp2.json"), "--eps", "0.5",
             "--out", str(root / "sp2.sol.json")])
        run(["solve", "--in", str(src), "--mode", "path-fptas", "--eps", "0.1",
             "--out", str(root / "unb.sol.json")])

    one_run(tmp_path / "run1", "1")
    one_run(tmp_path / "run2", "2")

    names = sorted(p.name for p in (tmp_path / "run1").iterdir())
    assert names == sorted(p.name for p in (tmp_path / "run2").iterdir())
    assert any(name.endswith(".sol.json") for name in names)
    for name in names:
        a = (tmp_path / "run1" / name).read_bytes()
        b = (tmp_path / "run2" / name).read_bytes()
        assert a == b, f"{name} differs between runs"
    print("ACCEPTANCE 11: PASS")
