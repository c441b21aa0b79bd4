"""Two-terminal series-parallel recognition and closed-form composition.

A graph is series-parallel between s and t exactly when it collapses to a
single s-t edge under two local moves: merging a pair of edges that share
both endpoints (parallel), and splicing out an interior node of degree two
(series). Arc direction is ignored throughout. The reduction history is a
full binary tree whose leaves are the original arcs, and ``decompose``
returns it flat, as the schedule of its moves (Valdes, Tarjan and Lawler
1982): node a < m is the leaf of arc a, node m + j is the j-th move
``steps[j] = (parallel, left, right)``, whose children both come before it,
and the root is the last node. Resistance composes over the schedule in one
forward loop, without solving any flow problem:

    leaf      R = 1 / y^r
    series    R = R_left + R_right
    parallel  C = C_left + C_right      with C = R^(-1/r)

The conventions y = 0 -> R = +inf and y = +inf -> R = 0 make the composition
total; 0 and +inf are always branched on, never raised to a power. A power
that leaves the float range saturates on the side that overstates R, and a
parallel sum that leaves it is taken at half scale (``key_res``).

The same schedule orients the flow: ``ends[i]`` is the terminal pair node i
joins, the root joins s and t, parallel children join their parent's pair,
and series children meet at the one terminal they share, so the backward
loop of ``sp_unit_flow`` runs the unit flow from the parent's entry into one
child, through the shared terminal, and out of the other.
"""

from __future__ import annotations

import math
import sys
from collections import namedtuple

from .core import check_terminals
from .errors import NotSeriesParallel, ValidationError


class SPSchedule(namedtuple("SPSchedule", "steps ends")):
    """An SP decomposition as a children-first node list.

    Nodes 0..m-1 are the leaves of arcs 0..m-1; node m + j is
    steps[j] = (parallel, left, right), a parallel or series join of two
    nodes below m + j. The root is the last node. ends[i] is the terminal
    pair node i joins; the root's is {s, t}.
    """

    __slots__ = ()

    @property
    def m(self) -> int:
        return len(self.ends) - len(self.steps)


def decompose(n: int, arcs, s: int, t: int) -> SPSchedule:
    """Reduce the graph to an SPSchedule, or raise NotSeriesParallel.

    The moves are confluent, so any application order yields a valid tree;
    this one exhausts parallel merges before each series splice and always
    picks the lowest-numbered candidates, which makes the result stable.
    """
    check_terminals(n, s, t)
    if not arcs:
        raise NotSeriesParallel("graph has no arcs")

    ends = [(u, v) for u, v in arcs]
    live = [True] * len(ends)
    steps: list[tuple[bool, int, int]] = []
    while True:
        alive = [e for e, here in enumerate(live) if here]
        move = None
        by_pair: dict[tuple[int, int], int] = {}
        for e in alive:
            u, v = ends[e]
            if u == v:
                continue  # a self-loop never reduces
            key = (u, v) if u <= v else (v, u)
            other = by_pair.setdefault(key, e)
            if other != e:
                move = (True, other, e, key)
                break

        if move is None:
            incident: dict[int, list[int]] = {}
            for e in alive:
                u, v = ends[e]
                incident.setdefault(u, []).append(e)
                if v != u:
                    incident.setdefault(v, []).append(e)
            for w in sorted(incident):
                here = incident[w]
                if w in (s, t) or len(here) != 2:
                    continue
                e1, e2 = here
                u = ends[e1][0] if ends[e1][1] == w else ends[e1][1]
                v = ends[e2][0] if ends[e2][1] == w else ends[e2][1]
                if u != w and v != w:
                    move = (False, e1, e2, (u, v))
                    break
            else:
                break  # no move applies
        parallel, a, b, pair = move
        steps.append((parallel, a, b))
        ends.append(pair)
        live[a] = live[b] = False
        live.append(True)

    # the one node left alive is the last one made, so the root is last
    if len(alive) != 1 or set(ends[alive[0]]) != {s, t}:
        raise NotSeriesParallel(
            "graph does not reduce to a single s-t edge by series/parallel moves"
        )
    return SPSchedule(steps=tuple(steps), ends=tuple(ends))


def res_to_cond(R: float, r: float) -> float:
    """R^(-1/r). Past the float range the largest finite float stands in: a
    smaller conductance only overstates the resistances composed from it."""
    if R == 0.0:
        return math.inf
    if math.isinf(R):
        return 0.0
    try:
        return R ** (-1.0 / r)
    except OverflowError:
        return sys.float_info.max


def cond_to_res(C: float, r: float) -> float:
    """C^(-r). Past the float range the resistance reads +inf, never less."""
    if C == 0.0:
        return math.inf
    if math.isinf(C):
        return 0.0
    try:
        return C ** (-float(r))
    except OverflowError:
        return math.inf


def key_res(key: float, r: float) -> float:
    """(-2 key)^(-r), the resistance of a parallel join whose children's half
    keys (``half_key``) sum to key.

    A -2 key past the float range, from a finite key, would read R = 0; it
    is taken at half scale instead, (-key)^(-r) * 2^(-r).
    """
    c = -2.0 * key
    if math.isinf(c) and not math.isinf(key):
        return cond_to_res(-key, r) * 2.0 ** -r
    return cond_to_res(c, r)


def half_key(R: float, r: float) -> float:
    """A parallel child's key in ``spdesign._combine``: minus its half
    conductance."""
    return -res_to_cond(R, r) / 2


def node_resistances(sched: SPSchedule, leaf_res, r: float) -> list[float]:
    """Every schedule node's resistance, composed from the leaves' by the
    DP's own rules: a parallel join sums its children's half keys and takes
    ``key_res`` of the sum."""
    vals = list(leaf_res)
    for parallel, a, b in sched.steps:
        if parallel:
            vals.append(key_res(half_key(vals[a], r) + half_key(vals[b], r), r))
        else:
            vals.append(vals[a] + vals[b])
    return vals


def resistance_sp(sched: SPSchedule, y, r: float) -> float:
    """Effective s-t resistance by composition over the schedule."""
    return node_resistances(sched, [cond_to_res(y[a], r) for a in range(sched.m)], r)[-1]


def _split(flow: float, ha: float, hb: float) -> tuple[float, float]:
    """Shares of flow for parallel children of half conductances ha and hb:
    in proportion to them, all of it to a child of infinite conductance
    (half each to two), none when both are 0. Two finite halves never sum
    past the float range."""
    total = ha + hb
    if total == 0.0:
        return 0.0, 0.0
    if math.isinf(total):
        if math.isinf(ha) and math.isinf(hb):
            return flow * 0.5, flow * 0.5
        return (flow, 0.0) if math.isinf(ha) else (0.0, flow)
    return flow * (ha / total), flow * (hb / total)


def sp_unit_flow(sched: SPSchedule, y, r: float, s: int) -> list[float]:
    """The minimum-energy unit s-t flow on every arc, signed: positive along
    the arc's orientation (tail to head), negative against it.

    Requires finite conductances. A parallel junction splits the incoming
    flow in proportion to its children's effective conductances, read as
    half keys off ``node_resistances``, which is exact on series-parallel
    graphs for every r >= 1; arcs in branches of zero conductance carry
    nothing, and a branch of infinite conductance (one whose resistance
    underflowed to 0) carries all of it. The same loop tracks entry[i], the
    terminal of ends[i] where the flow enters node i; a leaf's ends are its
    arc, so its entry signs it.
    """
    for v in y:
        if math.isinf(v):
            raise ValidationError("sp_unit_flow needs finite conductances")

    m, steps, ends = sched.m, sched.steps, sched.ends
    res = node_resistances(sched, [cond_to_res(y[a], r) for a in range(m)], r)
    f = [0.0] * len(res)
    f[-1] = 1.0
    entry = [s] * len(res)
    for i in range(len(res) - 1, m - 1, -1):
        parallel, a, b = steps[i - m]
        if parallel:
            entry[a] = entry[b] = entry[i]
            if f[i] != 0.0:
                f[a], f[b] = _split(f[i], -half_key(res[a], r), -half_key(res[b], r))
        else:
            f[a] = f[b] = f[i]
            first, second = (a, b) if entry[i] in ends[a] else (b, a)
            u, v = ends[first]
            entry[first] = entry[i]
            entry[second] = v if u == entry[i] else u
    return [f[a] if ends[a][0] == entry[a] else -f[a] for a in range(m)]
