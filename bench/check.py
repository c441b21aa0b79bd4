"""Independent checks of CLI outputs, run untimed in the benchmark process.

A call passes when it exits with the code its instance expects, its stdout
parses, and the answer survives the checks of its kind:

* a solution must pass ``core.verify``, respect 0 <= y <= ybar with y > 0
  only on installed arcs, and report a cost within 1e-9 (relative) of the
  cost recomputed here; for r = 1 its resistance is recomputed by a
  grounded-Laplacian solve; a covering-knapsack answer must also match the
  optimum of an independent 0/1 knapsack DP;
* a resistance value is certified from the KKT conditions of the
  ``min_energy_flow`` result (unit conservation and the potential law
  f_a = y_a * sign(dpi) * |dpi|^(1/r) on every supported arc) and, for
  r = 1, a grounded-Laplacian solve.
"""

from __future__ import annotations

import json
import math

import numpy as np

from flowdesign import core, resistance

COST_RTOL = 1e-9
KKT_TOL = 1e-6
RES_RTOL = 1e-6


def _finite_or_inf(v):
    if v == "inf":
        return math.inf
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ValueError(f"not a number: {v!r}")
    return float(v)


def laplacian_resistance(n, arcs, y, s, t) -> float:
    """Effective resistance for r = 1 from a grounded weighted Laplacian.

    Arcs with y = inf are contracted first; nodes the support does not
    connect to s are dropped so the grounded system stays nonsingular.
    """
    parent = list(range(n))

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for (u, v), ya in zip(arcs, y):
        if math.isinf(ya):
            parent[find(u)] = find(v)
    if find(s) == find(t):
        return 0.0
    edges = [(find(u), find(v), ya) for (u, v), ya in zip(arcs, y)
             if 0.0 < ya < math.inf and find(u) != find(v)]
    adj = {}
    for u, v, _ in edges:
        adj.setdefault(u, []).append(v)
        adj.setdefault(v, []).append(u)
    root_s, root_t = find(s), find(t)
    seen = {root_s}
    stack = [root_s]
    while stack:
        for w in adj.get(stack.pop(), ()):
            if w not in seen:
                seen.add(w)
                stack.append(w)
    if root_t not in seen:
        return math.inf
    index = {v: i for i, v in enumerate(sorted(seen - {root_t}))}
    L = np.zeros((len(index), len(index)))
    for u, v, ya in edges:
        if u not in seen:
            continue
        for a, b in ((u, v), (v, u)):
            if a in index:
                L[index[a], index[a]] += ya
                if b in index:
                    L[index[a], index[b]] -= ya
    rhs = np.zeros(len(index))
    rhs[index[root_s]] = 1.0
    return float(np.linalg.solve(L, rhs)[index[root_s]])


def knapsack_optimum(mu, price, B, r) -> float:
    """Cheapest total price of a subset whose (sum mu)^(-r) is at most B."""
    total = int(sum(price))
    best = np.zeros(total + 1)  # best[k]: largest sum of mu at price <= k
    for m_, p in zip(mu, price):
        p = int(p)
        cand = best[: total + 1 - p] + m_
        best[p:] = np.maximum(best[p:], cand)
    with np.errstate(divide="ignore"):
        res = best ** (-float(r))
    hits = np.nonzero(res <= B)[0]
    if len(hits) == 0:
        raise ValueError("knapsack instance is infeasible")
    return float(hits[0])


def check_solution(inst: core.Instance, stdout: str, kind: str) -> tuple[list[str], float]:
    """Problems found in a solve output, and the recomputed cost."""
    doc = json.loads(stdout)
    if set(doc) != {"x", "y", "cost", "achievedR"}:
        return [f"unexpected solution fields {sorted(doc)}"], math.nan
    x = doc["x"]
    y = [_finite_or_inf(v) for v in doc["y"]]
    cost = _finite_or_inf(doc["cost"])
    problems = []
    if len(x) != inst.m or len(y) != inst.m:
        return [f"solution has {len(x)}/{len(y)} entries for {inst.m} arcs"], math.nan
    recomputed = 0.0
    for a in range(inst.m):
        if x[a] not in (0, 1) or isinstance(x[a], bool):
            problems.append(f"x[{a}] is not 0/1")
        if not (0.0 <= y[a] <= inst.ybar[a]):
            problems.append(f"y[{a}] = {y[a]} outside [0, {inst.ybar[a]}]")
        if y[a] > 0.0 and x[a] != 1:
            problems.append(f"y[{a}] > 0 on an uninstalled arc")
        if math.isinf(y[a]) and inst.c[a] > 0.0:
            problems.append(f"y[{a}] unbounded on a priced arc")
        if x[a] == 1:
            recomputed += inst.gamma[a]
        if 0.0 < y[a] < math.inf:
            recomputed += inst.c[a] * y[a]
    if not abs(cost - recomputed) <= COST_RTOL * max(1.0, abs(recomputed)):
        problems.append(f"reported cost {cost!r} != recomputed {recomputed!r}")

    sol = core.Solution(x=tuple(x), y=tuple(y), cost=cost,
                        achievedR=_finite_or_inf(doc["achievedR"]))
    report = core.verify(inst, sol, tol=1e-9)
    if not report.feasible:
        problems.append(f"core.verify rejects: {list(report.reasons)} R={report.achievedR!r}")
    if inst.r == 1.0:
        R = laplacian_resistance(inst.n, inst.arcs, y, inst.s, inst.t)
        if not R <= inst.B * (1.0 + 1e-9):
            problems.append(f"Laplacian resistance {R!r} exceeds B = {inst.B!r}")
    if kind == "knapsack":
        best = knapsack_optimum(inst.ybar, inst.gamma, inst.B, inst.r)
        if recomputed != best:
            problems.append(f"knapsack cost {recomputed!r} is not the optimum {best!r}")
    return problems, recomputed


def certify_resistance(inst: core.Instance) -> tuple[list[str], float]:
    """KKT-certified effective resistance at y = ybar, with any problems."""
    y = inst.ybar
    r = inst.r
    state = resistance.min_energy_flow(inst.n, inst.arcs, y, r, inst.s, inst.t)
    f, pi = np.array(state.f), np.array(state.pi)
    problems = []
    net = np.zeros(inst.n)
    u = np.array([a[0] for a in inst.arcs])
    v = np.array([a[1] for a in inst.arcs])
    np.add.at(net, u, f)
    np.add.at(net, v, -f)
    want = np.zeros(inst.n)
    want[inst.s], want[inst.t] = 1.0, -1.0
    if np.max(np.abs(net - want)) > KKT_TOL:
        problems.append(f"flow conservation residual {np.max(np.abs(net - want)):.3e}")
    drop = pi[u] - pi[v]
    law = np.array(y) * np.sign(drop) * np.abs(drop) ** (1.0 / r)
    scale = max(1.0, float(np.max(np.abs(f))))
    gap = float(np.max(np.abs(f - law)))
    if gap > KKT_TOL * scale:
        problems.append(f"potential-law residual {gap:.3e}")
    R = float(pi[inst.s] - pi[inst.t])
    if r == 1.0:
        R_lap = laplacian_resistance(inst.n, inst.arcs, y, inst.s, inst.t)
        if abs(R_lap - R) > RES_RTOL * R:
            problems.append(f"Laplacian R {R_lap!r} disagrees with certified R {R!r}")
    return problems, R


def check_resistance_output(stdout: str, R_cert: float) -> tuple[list[str], float]:
    """Problems with a ``resistance`` output, and its relative error."""
    doc = json.loads(stdout)
    if set(doc) != {"R"}:
        return [f"unexpected resistance fields {sorted(doc)}"], math.nan
    R = _finite_or_inf(doc["R"])
    err = abs(R - R_cert) / R_cert
    if not err <= RES_RTOL:
        return [f"reported R {R!r} differs from certified {R_cert!r}"], err
    return [], err
