"""Restricted shortest path as a (length, fixed cost) frontier problem.

Every path problem here minimizes phi(L_P) + F_P over simple s-t paths,
where L_P and F_P sum a nonnegative ``length`` and ``fixed`` cost over the
path's arcs and phi is nondecreasing. One label-setting pass
(``_label_search``) keeps, per node, the Pareto frontier of (cost, length)
labels and settles them in (cost, length, arc-sequence) order; for every
reachable integer cost it implicitly knows the least length. It drops a
label once a lower bound on the cost of every path to t through it reaches
the best cost known: what the label has spent plus the least cost and the
least length still left to t, from two Dijkstra passes from t, with a
margin for float rounding. The bound changes no answer, only how many
labels are settled. The unbounded design problem prices a path with
phi(S) = S^((r+1)/r) / B^(1/r).

The restricted shortest path (RSP) is the same frontier with a budget phi:
phi(L) = 0 when L is within the budget and +inf otherwise. ``rsp_exact``
runs the pass once on integer costs; ``rsp_fptas`` is ``frontier_fptas``
with the budget phi. Lengths are never rounded anywhere, so a returned path
always satisfies the budget exactly; the FPTAS scales and rounds only the
cost axis.

Arcs are traversable in both directions and returned paths are simple.
Every pass of a solve walks the one adjacency ``st_adjacency`` builds.
"""

from __future__ import annotations

import heapq
import math
from collections import namedtuple

from .core import Network, adjacency, check_epsilon, check_terminals, compact
from .errors import Disconnected, Infeasible, ValidationError


class RspInstance(Network, namedtuple("RspInstance", "n arcs s t cost length budget")):
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
        check_terminals(n, s, t)
        if not len(cost) == len(length) == len(arcs):
            raise ValidationError("cost and length must have one entry per arc")
        if not all(0.0 <= v < math.inf for v in cost):
            raise ValidationError("costs must be finite and >= 0")
        if not all(0.0 <= v < math.inf for v in length):
            raise ValidationError("lengths must be finite and >= 0")
        if not (budget >= 0.0):
            raise ValidationError("budget must be >= 0")
        return super().__new__(cls, n, arcs, s, t, cost, length, budget)


def _budget_phi(budget):
    """phi(L) = 0 within the length budget, +inf beyond it."""
    return lambda L: 0.0 if L <= budget else math.inf


def st_adjacency(n, arcs, s, t):
    """(adj, s, t): ``core.adjacency`` of arcs, renumbered by ``core.compact``
    when n is much larger than the arcs, so a path solve takes O(m) memory.
    Paths are arc sequences, and labels compare by node only when their arc
    sequences, and so their ends, agree: renumbering changes no answer."""
    n, arcs, s, t = compact(n, arcs, s, t)
    return adjacency(n, arcs), s, t


def _fold(values, seq):
    """values[a] summed over seq left to right, the order in which a label
    accumulates them; ``sum`` compensates rounding from Python 3.12 on, so
    it can disagree with the search in the last bit."""
    total = 0.0
    for a in seq:
        total += values[a]
    return total


def _dist_to(adj, t, weight):
    """The least sum of weight from each node to t (inf where t is out of
    reach), by one Dijkstra pass from t over adj, whose arcs run both ways.
    Sums start at the integer 0, so integer weights give exact integers."""
    dist = [math.inf] * len(adj)
    dist[t] = 0
    heap = [(0, t)]
    while heap:
        d, v = heapq.heappop(heap)
        if d > dist[v]:
            continue
        it = iter(adj[v])
        for w in it:
            nd = d + weight[next(it)]
            if nd < dist[w]:
                dist[w] = nd
                heapq.heappush(heap, (nd, w))
    return dist


def _label_search(adj, s, t, length, fixed, phi, delta, cap):
    """One label-setting pass over (rounded fixed cost, exact length).

    An arc's level is its fixed cost rounded down to a multiple of delta,
    counted in units of delta. Labels pop in (level, length, arc sequence)
    order, so every label already settled at a node has no larger level than
    the one in hand: the newcomer is dominated exactly when its length is not
    below the shortest one settled there, a test that also keeps paths
    simple (see ``frontier_fptas``). Returns (objective, path) for the best
    label settled at t, where the objective is phi(length) plus the fixed
    cost summed left to right over the arc sequence (``_fold``), or None
    when none was settled. The first label settled at t is kept even when
    its objective is at least cap; a later one replaces it only when
    cheaper, and cap falls to the best objective.

    Bound. A label of level g and length L has the own test g delta +
    phi(L). Two Dijkstra passes from t give each node w the least level sum
    to_t_lvl[w] (exact integers) and the least length to_t_len[w] of a w-t
    path, and a label pushed to w is dropped once

        (g + to_t_lvl[w]) delta + phi(max(L, (L + to_t_len[w]) shrink))

    reaches cap, with shrink = 1 - K 2^-51 for the K nodes of adj. The bound
    is at least the label's own test, equals it at t, and is at most the own
    test of every extension of the label by a walk from w to t: levels are
    exact, and a fold of nonnegative floats never falls as terms are added.
    With u = 2^-53, L and to_t_len[w] are folds of at most K-1 lengths, so
    L + to_t_len[w] is at most (1+u)^(K-1) times the exact length of the
    label's path plus a simple w-t path inside the walk; the extension's
    fold takes those at most 2K-2 lengths and maybe more, so it is at least
    (1-u)^(2K-3) times that length. Every float sum errs by at most u
    relatively, as a sum below 2^-1022 is exact, and the product by at most
    2u while L + to_t_len[w] >= 2^-1022; shrink covers all three factors. Below 2^-1022, L + to_t_len[w] is exact and at most the
    extension's length, and the product, being smaller, rounds to at most
    it.

    Why no answer moves. Call a label viable when some extension of it to
    t has an own test below the cap in force when the label pops. A viable
    label's bound is below cap when it is pushed, since cap never rises; a
    settled label that dominates it is viable; and a label pushed to t has
    a viable parent, its own test being below cap when the parent pops. So,
    in pop order, this search and one that applies only the own test settle
    the same viable labels, turn away the same ones, push the same labels
    to t and settle those under the same cap; the stop rule, g delta >=
    cap, then halts both before the same labels at t, so both return the
    same result. Labels only one of them settles are not viable, and
    nothing pushed to t descends from them.

    Levels stop at cap / delta + 1, where any label is dropped anyway, so
    v / delta never leaves the float range. Every float is a multiple of
    the least one, so a delta that underflows to 0 is raised to it
    losslessly.
    """
    delta = max(delta, math.ulp(0.0))
    top = cap / delta + 1.0
    level = [int(min(v / delta, top)) for v in fixed]
    to_t_lvl = _dist_to(adj, t, level)
    to_t_len = _dist_to(adj, t, length)
    shrink = 1.0 - len(adj) * 2.0 ** -51
    shortest = [math.inf] * len(adj)
    heap = [(0, 0.0, (), s)]
    best = None
    while heap:
        g, dl, seq, v = heapq.heappop(heap)
        if g * delta >= cap:
            break
        if dl >= shortest[v]:
            continue
        shortest[v] = dl
        if v == t:
            value = phi(dl) + _fold(fixed, seq)
            if best is None or value < best[0]:
                best = (value, seq)
                cap = min(cap, value)
            continue
        it = iter(adj[v])
        for w in it:
            a = next(it)
            nl = dl + length[a]
            if nl >= shortest[w]:
                continue
            ng = g + level[a]
            if (ng + to_t_lvl[w]) * delta + phi(max(nl, (nl + to_t_len[w]) * shrink)) >= cap:
                continue
            heapq.heappush(heap, (ng, nl, seq + (a,), w))
    return best


def rsp_exact(inst: RspInstance) -> tuple[int, ...]:
    """Minimum-cost path within the length budget, for integer costs.

    One pass with unit delta and the budget phi: the first label settled at
    t is the answer. Ties break toward the shorter, then lexicographically
    smaller path.
    """
    icost = [*map(int, inst.cost)]
    if icost != [*inst.cost]:
        raise ValidationError("rsp_exact needs integer costs")
    hit = _label_search(*st_adjacency(inst.n, inst.arcs, inst.s, inst.t), inst.length, icost,
                        _budget_phi(inst.budget), 1, sum(icost) + 1)
    if hit is None:
        raise Infeasible("no s-t path satisfies the length budget")
    return hit[1]


def lex_dijkstra(adj, s, t, w1, w2):
    """Lexicographic bi-criteria shortest path: minimize (sum w1, sum w2, seq).

    adj is as ``st_adjacency`` builds it. Returns (sum w1, sum w2, seq);
    raises Disconnected when t is unreachable from s.
    """
    heap = [(0.0, 0.0, (), s)]
    settled = set()
    while heap:
        d1, d2, seq, v = heapq.heappop(heap)
        if v in settled:
            continue
        settled.add(v)
        if v == t:
            return d1, d2, seq
        it = iter(adj[v])
        for w in it:
            a = next(it)
            if w not in settled:
                heapq.heappush(heap, (d1 + w1[a], d2 + w2[a], seq + (a,), w))
    raise Disconnected("no s-t path exists")


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
        if _fold(inst.length, path) <= inst.budget:
            return path
    except Disconnected:
        pass
    raise Infeasible("no s-t path satisfies the length budget")


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
    LB = max(phi(L_min), F_min) <= OPT. Once LB >= UB, the better seed is
    returned as it is: every path costs 0 or +inf, or one of the two costs
    vanishes, so both seeds are the same lexicographic shortest path and
    its cost is both bounds. If LB is 0 but UB > 0, a path either pays a
    positive fixed cost or is free of fixed cost and then no shorter than
    the least-fixed-cost path; so LB = min(phi(its length), the least
    positive fixed cost) is <= OPT, and both terms are positive since both
    seeds cost more than 0.

    Bracket (Hassin's doubling; Lorenz and Raz). k counts the nodes with an
    arc; no simple path has k arcs. While UB > 2 LB, probe P = 2 LB with
    delta = P/k and cap P. If the probe settles nothing at t, OPT >= P (the
    frontier argument below, with cap P, would otherwise reach t), so
    LB := P. If it settles a label at t, that label has phi(L) + g delta < P
    and loses less than k delta = P to rounding, so UB < 2P = 4 LB. Either
    way the final pass sees UB <= 4 LB.

    Final pass and guarantee. Round F down to multiples of
    delta = epsilon LB / k, so a simple path (at most k-1 arcs) loses less
    than epsilon LB <= epsilon OPT. Labels pop in (g, L, arc sequence)
    order, so everything settled at a node has g no larger than the label in
    hand, and a label is dominated exactly when its length is not below the
    shortest settled there. By induction along P*, each prefix of P* has a
    settled label with no larger g and no larger L: the extension of the
    prefix's dominating label either is pushed and later settles, or is
    turned away by a settled label at the same node that dominates it (a
    node already on the label's own path is such a node). Unless a label's
    bound reaches the cap first, the chain reaches t with g <= g(P*) and
    L <= L(P*). The bound (see ``_label_search``) is at most the lower
    bound phi(L) + g delta of the label extended by the rest of P*, which
    is at most OPT; so a bound at the cap means that the incumbent or an
    earlier path at t already costs at most OPT. A chain that reaches t
    has a cost below phi(L(P*)) + F(P*) + epsilon LB <= (1+epsilon) OPT.
    The pass stops once g delta reaches the best cost found; level counts
    stay below UB / delta <= 4k / epsilon.

    Paths stay simple: a label that returns to a node on its own path has a
    length no smaller than the settled prefix that visited it (lengths are
    >= 0 and float addition is monotone), so it is dominated there.
    """
    check_epsilon(epsilon)
    adj, s, t = st_adjacency(n, arcs, s, t)
    k = sum(map(bool, adj))
    by_len = lex_dijkstra(adj, s, t, length, fixed)
    by_fixed = lex_dijkstra(adj, s, t, fixed, length)
    ub, best = min(
        (phi(by_len[0]) + by_len[1], by_len[2]),
        (phi(by_fixed[1]) + by_fixed[0], by_fixed[2]),
    )
    lb = max(phi(by_len[0]), by_fixed[0])
    if lb >= ub:
        return best
    if lb <= 0.0:
        lb = min(phi(by_fixed[1]), min(v for v in fixed if v > 0.0))

    while 2.0 * lb < ub:
        probe = 2.0 * lb
        hit = _label_search(adj, s, t, length, fixed, phi, probe / k, probe)
        if hit is None:
            lb = probe
        else:
            ub, best = min((ub, best), hit)
            break

    hit = _label_search(adj, s, t, length, fixed, phi, epsilon * lb / k, ub)
    return best if hit is None else min((ub, best), hit)[1]
