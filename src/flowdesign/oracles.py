"""Brute-force reference solvers and structured instance generators.

The oracles are deliberately naive: path enumeration for the unbounded
problem, full option-assignment enumeration for discrete menus, and support
enumeration plus a one-dimensional multiplier search for the continuous
bounded SP problem. Guards refuse anything beyond desk scale, because an
exponential search that silently hangs is worse than one that fails.

The generators build the reduction families used as structured corpora:
number-partition bundles, min-knapsack menus, terminal-to-sink gadgets, and
seeded random series-parallel instances.
"""

from __future__ import annotations

import itertools
import math
import random
import sys
from collections import namedtuple

import numpy as np

from .core import FixedInstance, Instance, Solution, adjacency
from .errors import (
    Disconnected,
    Infeasible,
    NotSeriesParallel,
    OddSum,
    OutOfRange,
    TooLarge,
    ValidationError,
)
from .pathdesign import optimal_y_for_path, to_solution, PathSolution
from .resistance import effective_resistance
from .sptree import decompose, resistance_sp, sp_unit_flow


def simple_paths(n, arcs, s, t):
    """Yield every simple s-t path as an arc tuple, lexicographically.

    Arcs may be walked in either direction.
    """
    adj = adjacency(n, arcs)
    path = []
    visited = {s}

    def walk(v):
        if v == t:
            yield tuple(path)
            return
        for a, w in adj[v]:
            if w in visited:
                continue
            visited.add(w)
            path.append(a)
            yield from walk(w)
            path.pop()
            visited.remove(w)

    yield from walk(s)


def brute_paths_unbounded(inst: Instance) -> Solution:
    """Exact optimum with ybar unbounded, by enumerating all simple paths."""
    if inst.n > 12:
        raise TooLarge("path enumeration is guarded at n <= 12")
    if not inst.unbounded():
        raise ValidationError("this oracle needs ybar unbounded everywhere")
    best = None
    too_costly = None
    for path in simple_paths(inst.n, inst.arcs, inst.s, inst.t):
        try:
            y, objective = optimal_y_for_path(path, inst.c, inst.B, inst.r, inst.gamma)
        except OutOfRange as exc:
            too_costly = exc  # costs more than any float, so never the optimum
            continue
        key = (objective, path)
        if best is None or key < best[0]:
            best = (key, y)
    if best is None:
        raise too_costly or Disconnected("no s-t path exists")
    (objective, path), y = best
    return to_solution(inst, PathSolution(path=path, y=y, objective=objective))


def _parallel_res(Ra, Rb, r: float):
    """sptree's parallel step on arrays of resistances, with its float rules:
    a conductance past the float range saturates at the largest float
    (``res_to_cond``), and a sum of two finite conductances past it is taken
    at half scale, (ca/2 + cb/2)^(-r) * 2^(-r) (``parallel_res``)."""
    with np.errstate(divide="ignore", over="ignore"):
        ca = np.where(Ra > 0.0, np.minimum(Ra ** (-1.0 / r), sys.float_info.max), np.inf)
        cb = np.where(Rb > 0.0, np.minimum(Rb ** (-1.0 / r), sys.float_info.max), np.inf)
        c = ca + cb
        half = np.isinf(c) & np.isfinite(ca) & np.isfinite(cb)
        return np.where(half, (ca / 2 + cb / 2) ** (-float(r)) * 2.0 ** -r, c ** (-float(r)))


def brute_subsets_fixed(inst: FixedInstance) -> Solution:
    """Exact optimum of a discrete menu by enumerating every assignment."""
    if inst.m > 14:
        raise TooLarge("assignment enumeration is guarded at m <= 14")
    total = 1
    for opts in inst.options:
        total *= 1 + len(opts)
        if total > 4_000_000:
            raise TooLarge("too many option assignments to enumerate")

    try:
        sched = decompose(inst.n, inst.arcs, inst.s, inst.t)
    except NotSeriesParallel:
        sched = None

    choice_lists = [range(-1, len(opts)) for opts in inst.options]
    assigns = np.array(list(itertools.product(*choice_lists)), dtype=np.int64)
    mus = []
    prices = []
    for a, opts in enumerate(inst.options):
        mu_row = np.array([0.0] + [mu for mu, _ in opts])
        p_row = np.array([0.0] + [p for _, p in opts])
        mus.append(mu_row[assigns[:, a] + 1])
        prices.append(p_row[assigns[:, a] + 1])
    Y = np.column_stack(mus)
    cost = np.sum(np.column_stack(prices), axis=1)

    if sched is not None:
        with np.errstate(divide="ignore", over="ignore"):
            vals = [Y[:, a] ** (-float(inst.r)) for a in range(inst.m)]
        for parallel, a, b in sched.steps:
            if parallel:
                vals.append(_parallel_res(vals[a], vals[b], inst.r))
            else:
                vals.append(vals[a] + vals[b])
        R = vals[-1]
    else:
        R = np.empty(len(assigns))
        for i in range(len(assigns)):
            R[i] = effective_resistance(
                inst.n, inst.arcs, Y[i], inst.r, inst.s, inst.t
            )

    feasible = np.nonzero(R <= inst.B)[0]
    if len(feasible) == 0:
        raise Infeasible("no option assignment meets the resistance budget")
    winner = feasible[np.argmin(cost[feasible])]

    x = tuple(int(v >= 0) for v in assigns[winner])
    y = tuple(float(v) for v in Y[winner])
    return Solution(x=x, y=y, cost=float(cost[winner]), achievedR=float(R[winner]))


def _support_minimum(inst, sched, support, warm):
    """Cheapest y on one support: bisection on the budget multiplier.

    Each multiplier evaluation alternates two exact blocks of the jointly
    convex energy form sum(c y) + lam * sum(|f|^{r+1} / y^r): the closed-form
    per-arc y update and the exact SP unit flow for f. The resistance of the
    resulting y falls as lam grows, so the feasibility boundary is a root.
    """
    r = inst.r
    ybar_s = [inst.ybar[a] if a in support else 0.0 for a in range(inst.m)]

    def evaluate(lam, y0):
        y = list(y0)
        for _ in range(400):
            f, _ = sp_unit_flow(sched, y, r)
            shift = 0.0
            for a in support:
                fa = abs(f[a])
                if inst.c[a] == 0.0:
                    ya = inst.ybar[a]
                elif fa == 0.0:
                    ya = 0.0
                else:
                    ya = min(inst.ybar[a], (r * lam * fa ** (r + 1.0) / inst.c[a]) ** (1.0 / (r + 1.0)))
                shift = max(shift, abs(ya - y[a]))
                y[a] = ya
            if shift <= 1e-11 * (1.0 + max(y)):
                break
        return y, resistance_sp(sched, y, r)

    gamma_s = sum(inst.gamma[a] for a in support)
    cap_cost = sum(inst.c[a] * inst.ybar[a] for a in support) + gamma_s
    best_y, best_cost = ybar_s, cap_cost

    lo, hi = 0.0, 1.0
    y_hi = warm if warm is not None else ybar_s
    found = False
    for _ in range(160):
        y_hi, R = evaluate(hi, y_hi)
        if R <= inst.B:
            found = True
            break
        hi *= 4.0
    if found:
        y_feas = y_hi
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            y_mid, R = evaluate(mid, y_feas)
            if R <= inst.B:
                hi, y_feas = mid, y_mid
            else:
                lo = mid
        cost = sum(inst.c[a] * y_feas[a] for a in support) + gamma_s
        if cost < best_cost:
            best_y, best_cost = y_feas, cost
    return best_y, best_cost


def brute_subsets_continuous_sp(inst: Instance) -> Solution:
    """Exact optimum with continuous bounded conductances on an SP graph.

    Enumerates supports; each one is a convex program solved to the
    feasibility boundary of its budget multiplier.
    """
    if inst.m > 10:
        raise TooLarge("support enumeration is guarded at m <= 10")
    for ub in inst.ybar:
        if math.isinf(ub):
            raise ValidationError("this oracle needs finite ybar everywhere")
    sched = decompose(inst.n, inst.arcs, inst.s, inst.t)

    best = None
    for mask in range(1, 1 << inst.m):
        support = {a for a in range(inst.m) if mask & (1 << a)}
        ybar_s = [inst.ybar[a] if a in support else 0.0 for a in range(inst.m)]
        if resistance_sp(sched, ybar_s, inst.r) > inst.B:
            continue
        y, cost = _support_minimum(inst, sched, support, None)
        if best is None or cost < best[0]:
            x = tuple(int(a in support) for a in range(inst.m))
            best = (cost, x, tuple(y))
    if best is None:
        raise Infeasible("no support meets the resistance budget")
    cost, x, y = best
    return Solution(x=x, y=y, cost=cost, achievedR=resistance_sp(sched, y, inst.r))


class PartitionGadget(namedtuple("PartitionGadget", "a T r instance threshold")):
    """Number-partition reduction: bundle i offers a priced and a free arc."""

    __slots__ = ()

    def objective(self, chosen) -> float:
        """Closed-form path objective for taking the priced arc on bundles in chosen."""
        x = float(sum(self.a[i] for i in chosen))
        e = (self.r + 1.0) / self.r
        return x ** e + self.threshold - self.T ** (1.0 / self.r) * x


def gen_partition(a, r: float) -> PartitionGadget:
    """Instance whose best path objective encodes an even split of ``a``."""
    nums = tuple(int(v) for v in a)
    if any(v <= 0 or v != w for v, w in zip(nums, a)):
        raise ValidationError("partition numbers must be positive integers")
    if sum(nums) % 2 != 0:
        raise OddSum("partition numbers must have an even sum")
    n = len(nums)
    T = sum(nums) / 2.0
    e = (r + 1.0) / r
    arcs = []
    c = []
    gamma = []
    for i, ai in enumerate(nums):
        arcs.append((i, i + 1))  # priced arc of bundle i
        c.append(float(ai) ** e)
        gamma.append(2.0 * T ** e - T ** (1.0 / r) * ai)
        arcs.append((i, i + 1))  # free arc of bundle i
        c.append(0.0)
        gamma.append(2.0 * T ** e)
    inst = Instance(
        n=n + 1,
        arcs=tuple(arcs),
        s=0,
        t=n,
        r=float(r),
        c=tuple(c),
        gamma=tuple(gamma),
        ybar=(math.inf,) * (2 * n),
        B=1.0,
    )
    return PartitionGadget(a=nums, T=T, r=float(r), instance=inst, threshold=2.0 * n * T ** e)


def gen_min_knapsack(mu, p, D, r: float = 1.0) -> FixedInstance:
    """Covering knapsack sum(mu x) >= D as a two-node parallel design."""
    if len(mu) != len(p):
        raise ValidationError("mu and p must have the same length")
    if D < 0:
        raise ValidationError("demand D must be >= 0")
    B = math.inf if D == 0 else float(D) ** (-float(r))
    return FixedInstance(
        n=2,
        arcs=((0, 1),) * len(mu),
        s=0,
        t=1,
        r=float(r),
        B=B,
        options=tuple(((float(m_), float(p_)),) for m_, p_ in zip(mu, p)),
    )


class SteinerGadget(namedtuple("SteinerGadget", "instance terminals new_arcs")):
    """Terminal-connection reduction: the instance, its terminals and the arcs
    added to join them to the new sink."""

    __slots__ = ()


def gen_steiner_gadget(n, arcs, terminals, edge_costs, r: float) -> SteinerGadget:
    """Terminal-connection gadget: a new sink hangs off every terminal but the first.

    Installing the bound conductance on a terminal-spanning subgraph plus the
    new arcs is feasible; the budget is tight enough that dropping any
    terminal's arc breaks it.
    """
    terms = tuple(terminals)
    if len(terms) < 2 or len(set(terms)) != len(terms):
        raise ValidationError("need at least two distinct terminals")
    if any(not (0 <= v < n) for v in terms):
        raise ValidationError("terminal out of range")
    if len(edge_costs) != len(arcs):
        raise ValidationError("edge costs must match the arcs")
    mt = len(terms) - 1
    big = float(n * mt)
    all_arcs = list(arcs) + [(v, n) for v in terms[1:]]
    orig = len(arcs)
    inst = Instance(
        n=n + 1,
        arcs=tuple(all_arcs),
        s=terms[0],
        t=n,
        r=float(r),
        c=(0.0,) * len(all_arcs),
        gamma=tuple(float(g) for g in edge_costs) + (0.0,) * mt,
        ybar=(big,) * orig + (1.0 / mt,) * mt,
        B=1.0 + (n - 1.0) / (float(n) ** r * float(mt) ** r),
    )
    return SteinerGadget(
        instance=inst, terminals=terms, new_arcs=tuple(range(orig, orig + mt))
    )


def steiner_to_solution(gadget: SteinerGadget, tree_arcs) -> Solution:
    """Install the bound conductance on tree_arcs plus all terminal arcs."""
    inst = gadget.instance
    keep = set(tree_arcs) | set(gadget.new_arcs)
    x = tuple(int(a in keep) for a in range(inst.m))
    y = tuple(inst.ybar[a] if a in keep else 0.0 for a in range(inst.m))
    cost = sum(inst.gamma[a] for a in keep)
    achieved = effective_resistance(inst.n, inst.arcs, y, inst.r, inst.s, inst.t)
    return Solution(x=x, y=y, cost=cost, achievedR=achieved)


def random_sp_structure(rng: random.Random, m: int):
    """A random SP composition with m leaves, realized as (n, arcs, s, t).

    Arc orientations are shuffled since direction never matters.
    """
    if m < 1:
        raise ValidationError("need at least one arc")

    def build(k):
        if k == 1:
            return "leaf"
        split = rng.randint(1, k - 1)
        kind = rng.choice(("series", "parallel"))
        return (kind, build(split), build(k - split))

    shape = build(m)
    arcs = []

    def realize(node, s, t, fresh):
        if node == "leaf":
            arcs.append((s, t) if rng.random() < 0.5 else (t, s))
            return fresh
        kind, left, right = node
        if kind == "series":
            mid = fresh
            fresh = realize(left, s, mid, fresh + 1)
            return realize(right, mid, t, fresh)
        fresh = realize(left, s, t, fresh)
        return realize(right, s, t, fresh)

    n = realize(shape, 0, 1, 2)
    return n, tuple(arcs), 0, 1


def gen_random_sp(seed: int, m: int, r: float = 1.0) -> tuple[Instance, dict]:
    """Seeded random bounded SP instance with a comfortably feasible budget."""
    rng = random.Random(seed)
    n, arcs, s, t = random_sp_structure(rng, m)
    c = tuple(round(rng.uniform(0.2, 3.0), 6) for _ in range(m))
    gamma = tuple(round(rng.uniform(0.1, 2.0), 6) for _ in range(m))
    ybar = tuple(round(rng.uniform(0.5, 3.0), 6) for _ in range(m))
    sched = decompose(n, arcs, s, t)
    slack = rng.uniform(1.5, 3.0)
    B = resistance_sp(sched, ybar, r) * slack
    inst = Instance(n=n, arcs=arcs, s=s, t=t, r=float(r), c=c, gamma=gamma, ybar=ybar, B=B)
    meta = {"family": "random-sp", "seed": seed, "m": m, "r": r, "slack": slack}
    return inst, meta
