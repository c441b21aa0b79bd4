"""Two-terminal series-parallel recognition and closed-form composition.

A graph is series-parallel between s and t exactly when it collapses to a
single s-t edge under two local moves: merging a pair of edges that share
both endpoints (parallel), and splicing out an interior node of degree two
(series). Arc direction is ignored throughout. The reduction history is a
full binary tree whose leaves are the original arcs; resistance composes
over that tree without solving any flow problem:

    leaf      R = 1 / y^r
    series    R = R_left + R_right
    parallel  C = C_left + C_right      with C = R^(-1/r)

The conventions y = 0 -> R = +inf and y = +inf -> R = 0 make the composition
total; 0 and +inf are always branched on, never raised to a power. A power
that leaves the float range saturates on the side that overstates R.

The same tree orients the flow: every node joins two terminals, the root
joins s and t, parallel children join their parent's pair, and series
children meet at the one terminal they share, so the unit flow runs from
the parent's entry into one child, through the shared terminal, and out of
the other.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

from .errors import NotSeriesParallel, ValidationError


class SPTree:
    """Base of the three composition-node kinds."""

    __slots__ = ()


@dataclass(frozen=True)
class Leaf(SPTree):
    arc: int


@dataclass(frozen=True)
class Series(SPTree):
    left: SPTree
    right: SPTree


@dataclass(frozen=True)
class Parallel(SPTree):
    left: SPTree
    right: SPTree


def postorder(tree: SPTree) -> list[SPTree]:
    """All nodes, children before parents; the root comes last."""
    out: list[SPTree] = []
    stack = [(tree, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded or isinstance(node, Leaf):
            out.append(node)
        else:
            stack.append((node, True))
            stack.append((node.right, False))
            stack.append((node.left, False))
    return out


def leaf_arcs(tree: SPTree) -> tuple[int, ...]:
    return tuple(n.arc for n in postorder(tree) if isinstance(n, Leaf))


def decompose(n: int, arcs, s: int, t: int) -> SPTree:
    """Reduce the graph to an SPTree, or raise NotSeriesParallel.

    The moves are confluent, so any application order yields a valid tree;
    this one exhausts parallel merges before each series splice and always
    picks the lowest-numbered candidates, which makes the result stable.
    """
    if not (0 <= s < n and 0 <= t < n) or s == t:
        raise ValidationError("terminals must be distinct in-range nodes")
    if not arcs:
        raise NotSeriesParallel("graph has no arcs")

    ends: list[tuple[int, int] | None] = []
    trees: list[SPTree] = []
    for a, (u, v) in enumerate(arcs):
        ends.append((u, v))
        trees.append(Leaf(a))

    def alive():
        return [e for e, uv in enumerate(ends) if uv is not None]

    while True:
        merged = False
        by_pair: dict[tuple[int, int], int] = {}
        for e in alive():
            u, v = ends[e]
            if u == v:
                continue  # a self-loop never reduces
            key = (u, v) if u <= v else (v, u)
            other = by_pair.get(key)
            if other is None:
                by_pair[key] = e
                continue
            ends.append(key)
            trees.append(Parallel(trees[other], trees[e]))
            ends[other] = ends[e] = None
            merged = True
            break
        if merged:
            continue

        spliced = False
        incident: dict[int, list[int]] = {}
        for e in alive():
            u, v = ends[e]
            incident.setdefault(u, []).append(e)
            if v != u:
                incident.setdefault(v, []).append(e)
        for w in sorted(incident):
            if w in (s, t):
                continue
            here = incident[w]
            if len(here) != 2:
                continue
            e1, e2 = here
            u = ends[e1][0] if ends[e1][1] == w else ends[e1][1]
            v = ends[e2][0] if ends[e2][1] == w else ends[e2][1]
            if u == w or v == w:
                continue
            ends.append((u, v))
            trees.append(Series(trees[e1], trees[e2]))
            ends[e1] = ends[e2] = None
            spliced = True
            break
        if spliced:
            continue

        live = alive()
        if len(live) == 1 and set(ends[live[0]]) == {s, t}:
            return trees[live[0]]
        raise NotSeriesParallel(
            "graph does not reduce to a single s-t edge by series/parallel moves"
        )


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


def resistance_sp(tree: SPTree, y, r: float) -> float:
    """Effective s-t resistance by composition over the SPTree."""
    vals: dict[int, float] = {}
    for node in postorder(tree):
        if isinstance(node, Leaf):
            vals[id(node)] = cond_to_res(y[node.arc], r)
        elif isinstance(node, Series):
            vals[id(node)] = vals[id(node.left)] + vals[id(node.right)]
        else:
            c = res_to_cond(vals[id(node.left)], r) + res_to_cond(vals[id(node.right)], r)
            vals[id(node)] = cond_to_res(c, r)
    return vals[id(tree)]


def sp_unit_flow(tree: SPTree, y, r: float) -> tuple[list[float], float]:
    """Magnitudes of the minimum-energy unit flow, plus the resistance.

    Requires finite conductances. A parallel junction splits the incoming
    flow in proportion to its children's effective conductances, which is
    exact on series-parallel graphs for every r >= 1; arcs in branches of
    zero conductance carry nothing.
    """
    for v in y:
        if math.isinf(v):
            raise ValidationError("sp_unit_flow needs finite conductances")

    nodes = postorder(tree)
    cond: dict[int, float] = {}
    for node in nodes:
        if isinstance(node, Leaf):
            cond[id(node)] = res_to_cond(cond_to_res(y[node.arc], r), r)
        elif isinstance(node, Series):
            rsum = cond_to_res(cond[id(node.left)], r) + cond_to_res(cond[id(node.right)], r)
            cond[id(node)] = res_to_cond(rsum, r)
        else:
            cond[id(node)] = cond[id(node.left)] + cond[id(node.right)]

    f = [0.0] * len(y)
    stack = [(tree, 1.0)]
    while stack:
        node, flow = stack.pop()
        if isinstance(node, Leaf):
            f[node.arc] = flow
        elif isinstance(node, Series):
            stack.append((node.left, flow))
            stack.append((node.right, flow))
        else:
            cl, cr = cond[id(node.left)], cond[id(node.right)]
            total = cl + cr
            if flow == 0.0 or total == 0.0:
                stack.append((node.left, 0.0))
                stack.append((node.right, 0.0))
            else:
                stack.append((node.left, flow * (cl / total)))
                stack.append((node.right, flow * (cr / total)))
    return f, cond_to_res(cond[id(tree)], r)


def arc_directions(tree: SPTree, arcs, s: int) -> list[int]:
    """Direction of each arc in the tree's s->t flow: +1 along the arc's
    orientation (tail to head), -1 against it.

    Signed by these, the magnitudes of ``sp_unit_flow`` form a unit s-t
    flow. Arcs the tree does not contain get +1.
    """
    nodes = postorder(tree)
    ends: dict[int, tuple[int, int]] = {}
    for node in nodes:
        if isinstance(node, Leaf):
            ends[id(node)] = tuple(arcs[node.arc])
        elif isinstance(node, Series):
            (a, b), (c, d) = ends[id(node.left)], ends[id(node.right)]
            shared = a if a in (c, d) else b
            ends[id(node)] = (b if a == shared else a, d if c == shared else c)
        else:
            ends[id(node)] = ends[id(node.left)]

    sign = [1] * len(arcs)
    stack = [(tree, s)]
    while stack:
        node, entry = stack.pop()
        if isinstance(node, Leaf):
            sign[node.arc] = 1 if arcs[node.arc][0] == entry else -1
        elif isinstance(node, Series):
            left = ends[id(node.left)]
            first, second = (node.left, node.right) if entry in left else (node.right, node.left)
            u, v = ends[id(first)]
            stack.append((first, entry))
            stack.append((second, v if u == entry else u))
        else:
            stack.append((node.left, entry))
            stack.append((node.right, entry))
    return sign
