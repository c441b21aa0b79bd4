"""Restricted shortest path as a (length, fixed cost) frontier problem.

Every path problem here minimizes phi(L_P) + F_P over simple s-t paths,
where L_P and F_P sum a nonnegative ``length`` and ``fixed`` cost over the
path's arcs and phi is nondecreasing. One label-setting pass
(``_frontier_pass``) keeps, per node, the Pareto frontier of (cost, length)
labels and settles them in (cost, length, arc-sequence) order; for every
reachable integer cost it implicitly knows the least length. The unbounded
design problem prices a path with phi(S) = S^((r+1)/r) / B^(1/r).

The restricted shortest path (RSP) is the same frontier with a budget phi:
phi(L) = 0 when L is within the budget and +inf otherwise. ``rsp_exact``
runs the pass once on integer costs; ``rsp_fptas`` is ``frontier_fptas``
with the budget phi. Lengths are never rounded anywhere, so a returned path
always satisfies the budget exactly; the FPTAS scales and rounds only the
cost axis.

Arcs are traversable in both directions and returned paths are simple.
"""

from __future__ import annotations

import heapq
import math
from collections import namedtuple

from .core import adjacency, check_epsilon
from .errors import Disconnected, Infeasible, ValidationError


class RspInstance(namedtuple("RspInstance", "n arcs s t cost length budget")):
    """Restricted shortest path: a cheapest s-t path of length within budget."""

    __slots__ = ()

    def __new__(
        cls,
        n: int,
        arcs: tuple[tuple[int, int], ...],
        s: int,
        t: int,
        cost: tuple[float, ...],
        length: tuple[float, ...],
        budget: float,
    ):
        if not (0 <= s < n and 0 <= t < n) or s == t:
            raise ValidationError("terminals must be distinct in-range nodes")
        if len(cost) != len(arcs) or len(length) != len(arcs):
            raise ValidationError("cost and length must have one entry per arc")
        for v in cost:
            if not (v >= 0.0) or math.isinf(v):
                raise ValidationError("costs must be finite and >= 0")
        for v in length:
            if not (v >= 0.0) or math.isinf(v):
                raise ValidationError("lengths must be finite and >= 0")
        if not (budget >= 0.0):
            raise ValidationError("budget must be >= 0")
        return super().__new__(cls, n, arcs, s, t, cost, length, budget)

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)


def _budget_phi(budget):
    """phi(L) = 0 within the length budget, +inf beyond it."""
    return lambda L: 0.0 if L <= budget else math.inf


def _frontier_pass(adj, s, t, level, length, fixed, phi, delta, cap):
    """One label-setting pass over (rounded fixed cost, exact length).

    ``level[a]`` is fixed[a] rounded down to a multiple of delta, counted in
    units of delta. Labels pop in (level, length, arc sequence) order, so
    every label already settled at a node has no larger level than the one
    in hand: the newcomer is dominated exactly when its length is not below
    the shortest one settled there. A label is also dropped once its lower
    bound phi(length) + level * delta reaches cap, which tightens to the
    best objective phi(length) + fixed found at t. Returns (objective, path)
    for the best label settled at t, or None when none was settled.
    """
    shortest = [math.inf] * len(adj)
    heap = [(0, 0.0, (), s, 1 << s, 0.0)]
    best = None
    while heap:
        g, dl, seq, v, mask, gam = heapq.heappop(heap)
        if g * delta >= cap:
            break
        if dl >= shortest[v]:
            continue
        shortest[v] = dl
        if v == t:
            value = phi(dl) + gam
            if best is None or value < best[0]:
                best = (value, seq)
                cap = min(cap, value)
            continue
        for a, w in adj[v]:
            nl = dl + length[a]
            if nl >= shortest[w] or mask & (1 << w):
                continue
            ng = g + level[a]
            if ng * delta + phi(nl) >= cap:
                continue
            heapq.heappush(heap, (ng, nl, seq + (a,), w, mask | (1 << w), gam + fixed[a]))
    return best


_label_search = _frontier_pass  # bench/spans.py wraps this binding


def rsp_exact(inst: RspInstance, cost_cap=None) -> tuple[int, ...]:
    """Minimum-cost path within the length budget, for integer costs.

    One pass with unit delta and the budget phi: the first label settled at
    t is the answer. Ties break toward the shorter, then lexicographically
    smaller path.
    """
    icost = []
    for v in inst.cost:
        iv = int(v)
        if iv != v:
            raise ValidationError("rsp_exact needs integer costs")
        icost.append(iv)
    if cost_cap is None:
        cost_cap = sum(icost)
    hit = _frontier_pass(
        adjacency(inst.n, inst.arcs), inst.s, inst.t, icost, inst.length, icost,
        _budget_phi(inst.budget), 1, cost_cap + 1,
    )
    if hit is None:
        raise Infeasible("no s-t path satisfies the length budget")
    return hit[1]


def lex_dijkstra(n, arcs, w1, w2, s, t):
    """Lexicographic bi-criteria shortest path: minimize (sum w1, sum w2, seq).

    Returns (sum w1, sum w2, seq), or None when t is unreachable from s.
    """
    adj = adjacency(n, arcs)
    best = {s: (0.0, 0.0, ())}
    heap = [(0.0, 0.0, (), s)]
    settled = set()
    while heap:
        d1, d2, seq, v = heapq.heappop(heap)
        if v in settled:
            continue
        settled.add(v)
        if v == t:
            return d1, d2, seq
        for a, w in adj[v]:
            if w in settled:
                continue
            cand = (d1 + w1[a], d2 + w2[a], seq + (a,))
            if w not in best or cand < best[w]:
                best[w] = cand
                heapq.heappush(heap, (*cand, w))
    return None


def rsp_fptas(inst: RspInstance, epsilon: float) -> tuple[int, ...]:
    """A feasible path of cost at most (1+epsilon) times the optimum.

    ``frontier_fptas`` with the budget phi, so an over-budget path costs
    +inf; raises Infeasible when s and t are disconnected or every path
    exceeds the budget.
    """
    try:
        path = frontier_fptas(
            inst.n, inst.arcs, inst.s, inst.t, inst.length, inst.cost,
            _budget_phi(inst.budget), epsilon,
        )
    except Disconnected:
        path = None
    if path is None or sum(inst.length[a] for a in path) > inst.budget:
        raise Infeasible("no s-t path satisfies the length budget")
    return path


def frontier_fptas(n, arcs, s, t, length, fixed, phi, epsilon) -> tuple[int, ...]:
    """A simple s-t path whose phi(L_P) + F_P is at most (1+epsilon) times the least.

    L_P and F_P sum the nonnegative ``length`` and ``fixed`` over the path's
    arcs; phi is nondecreasing and nonnegative, and may be +inf (a length
    budget, or the float range). Because phi is monotone, some optimal path
    P* lies on the (L, F) Pareto frontier, and one label-setting pass that
    rounds only F finds a frontier point close enough to it. When every path
    costs +inf, the returned path does too; callers check for that.

    Bounds. The least-length path (L_min) and the least-fixed-cost path
    (F_min) are both candidates, so the better of them gives UB >= OPT, and
    LB = max(phi(L_min), F_min) <= OPT. If that is 0 but UB > 0, a path
    either pays a positive fixed cost or is free of fixed cost and then no
    shorter than the least-fixed-cost path; so LB = min(phi(its length), the
    least positive fixed cost) is <= OPT, and both terms are positive since
    both seeds cost more than 0. An infinite LB means every path costs +inf,
    and the better seed is returned as it is.

    Bracket (Hassin's doubling; Lorenz and Raz). While UB > 2 LB, probe
    P = 2 LB with delta = P/n and cap P. If the probe settles nothing at t,
    OPT >= P (the frontier argument below, with cap P, would otherwise reach
    t), so LB := P. If it settles a label at t, that label has
    phi(L) + g delta < P and loses less than n delta = P to rounding, so
    UB < 2P = 4 LB. Either way the final pass sees UB <= 4 LB.

    Final pass and guarantee. Round F down to multiples of
    delta = epsilon LB / n, so a simple path (at most n-1 arcs) loses less
    than epsilon LB <= epsilon OPT. Labels pop in (g, L, arc sequence)
    order, so everything settled at a node has g no larger than the label in
    hand, and a label is dominated exactly when its length is not below the
    shortest settled there. By induction along P*, each prefix of P* has a
    settled label with no larger g and no larger L: the extension of the
    prefix's dominating label either is pushed and later settles, or is
    turned away by a settled label at the same node that dominates it (a
    node already on the label's own path is such a node). Unless a label's
    lower bound phi(L) + g delta reaches the cap first, which means the
    incumbent or an earlier path at t already costs at most OPT, the chain
    reaches t with g <= g(P*) and L <= L(P*), hence a cost below
    phi(L(P*)) + F(P*) + epsilon LB <= (1+epsilon) OPT. The pass stops once
    g delta reaches the best cost found; level counts stay below
    UB / delta <= 4n / epsilon.

    Paths stay simple: a label that returns to a node on its own path has a
    length no smaller than the settled prefix that visited it, so it is
    dominated there; the visited-node mask turns it away before the push.
    """
    check_epsilon(epsilon)
    adj = adjacency(n, arcs)
    by_len = lex_dijkstra(n, arcs, length, fixed, s, t)
    if by_len is None:
        raise Disconnected("no s-t path exists")
    by_fixed = lex_dijkstra(n, arcs, fixed, length, s, t)
    ub, best = min(
        (phi(by_len[0]) + by_len[1], by_len[2]),
        (phi(by_fixed[1]) + by_fixed[0], by_fixed[2]),
    )
    lb = max(phi(by_len[0]), by_fixed[0])
    if ub <= 0.0 or math.isinf(lb):
        return best  # every path costs 0, or +inf
    if lb <= 0.0:
        lb = min(phi(by_fixed[1]), min(v for v in fixed if v > 0.0))

    def solve(delta, cap):
        level = tuple(int(v / delta) for v in fixed)
        return _frontier_pass(adj, s, t, level, length, fixed, phi, delta, cap)

    while 2.0 * lb < ub:
        probe = 2.0 * lb
        hit = solve(probe / n, probe)
        if hit is None:
            lb = probe
        else:
            ub, best = min((ub, best), hit)
            break

    hit = solve(epsilon * lb / n, ub)
    if hit is not None:
        ub, best = min((ub, best), hit)
    return best
