"""Feasibility bounds for the SP dynamic program in ``spdesign``.

This is the bounding step of the knapsack list method (Nemhauser and
Ullmann 1969; Kellerer, Pferschy and Pisinger, Knapsack Problems, 2004).
Given the resistance bound B, ``bounds`` gives every schedule node the
largest resistance a list point may have, and every step the largest key a
candidate pair may have, and still lead to a root point within B.
``spdesign.fill_table`` cuts the points over their bound (``cut``) and
``spdesign._combine`` never forms the pairs over theirs.

Rmin(v) is composed bottom-up from each leaf's least resistance within the
budget, by the DP's own rules (``sptree.node_resistances``); no point of
v's list is below it. The bounds then go top-down from ub(root) = B. A
series child needs R + Rmin(sibling) <= ub(parent). At a parallel parent,
kappa is the largest pair key with ``parallel_res(-kappa, -kappa)`` <=
ub(parent), and a child needs key(R) + key(Rmin(sibling)) <= kappa, where
key(R) is minus half the conductance: its conductance must make up
C(ub(parent)) - Cmax(sibling), and it is unbounded when that is <= 0.

Each bound is the exact float boundary of its test, found by
``_last_within`` through the DP's own operations. The inverted formulas
(ub - Rmin, the resistance of C(ub) - Cmax) only seed that search, so their
rounding, and the cancellation in C(ub) - Cmax when the sibling nearly
meets the need alone, can cost a few more evaluations but never a wrong
cut. This relies on each operation being non-decreasing in each argument
in floating point: ``+`` is, as IEEE 754 rounds monotonically, negation and
halving are exact, and ``x ** e`` for a fixed exponent is assumed monotone
in x, as ``res_to_cond``, ``cond_to_res`` and ``parallel_res`` then are. A
point or pair over its node's bound then composes, with any points of the
other nodes, to a root resistance over B.
"""

from __future__ import annotations

import math
import struct

from .sptree import SPSchedule, cond_to_res, half_key, node_resistances, parallel_res

_F64 = struct.Struct("<d")
_I64 = struct.Struct("<q")


def _rank(x: float) -> int:
    """Rank of float x among all floats, in their order (-0.0 and 0.0 share
    rank 0), so adjacent floats have adjacent ranks."""
    n = _I64.unpack(_F64.pack(x))[0]
    return n if n >= 0 else -(n & 0x7FFF_FFFF_FFFF_FFFF)


def _unrank(n: int) -> float:
    """The float of rank n: the inverse of ``_rank``."""
    x = _F64.unpack(_I64.pack(abs(n)))[0]
    return x if n >= 0 else -x


def _last_within(f, T: float, hint: float, lo: float, hi: float) -> float:
    """Largest float x in [lo, hi] with f(x) <= T, for f non-decreasing.

    The search gallops from hint, an estimate that may be off by any amount
    (or nan), over the float ranks and then bisects, so it evaluates f only
    where the answer is decided. When no x qualifies it returns lo. Either
    way f(x) > T for every x in [lo, hi] above the result.
    """
    if f(hi) <= T:
        return hi
    lo_n, bad = _rank(lo), _rank(hi)
    h = _rank(hint) if lo <= hint <= hi else lo_n
    step = 1
    if f(_unrank(h)) <= T:
        good = h
        while bad - good > step:
            probe = good + step
            if f(_unrank(probe)) > T:
                bad = probe
                break
            good, step = probe, 2 * step
    else:
        bad = h
        while True:
            if bad == lo_n:
                return lo
            probe = max(bad - step, lo_n)
            if f(_unrank(probe)) <= T:
                good = probe
                break
            bad, step = probe, 2 * step
    while bad - good > 1:
        mid = (good + bad) // 2
        if f(_unrank(mid)) <= T:
            good = mid
        else:
            bad = mid
    return _unrank(good)


def bounds(sched: SPSchedule, leaf_rmin, r: float, B: float):
    """(res_ub, key_ub) per schedule node: the largest resistance of a list
    point, and (at steps) the largest key of a candidate pair, that can
    still lead to a root point within B. leaf_rmin holds each leaf's least
    resistance within the budget. With B = inf every bound is the largest
    value of its kind, inf or the key 0.0, and nothing is cut."""
    m = sched.m
    rmin = node_resistances(sched, leaf_rmin, r)
    res_ub = [math.inf] * len(rmin)
    key_ub = [math.inf] * len(rmin)
    res_ub[-1] = B
    for i in range(len(rmin) - 1, m - 1, -1):
        parallel, a, b = sched.steps[i - m]
        ub = res_ub[i]
        if parallel:
            kappa = _last_within(
                lambda key: parallel_res(-key, -key, r), ub,
                half_key(max(ub, 0.0), r), -math.inf, 0.0,
            )
            key_ub[i] = kappa
            for child, sib in ((a, b), (b, a)):
                ks = half_key(rmin[sib], r)
                res_ub[child] = _last_within(
                    lambda R: half_key(R, r) + ks, kappa,
                    cond_to_res(max(2 * (ks - kappa), 0.0), r), 0.0, math.inf,
                )
        else:
            key_ub[i] = ub
            for child, sib in ((a, b), (b, a)):
                rs = rmin[sib]
                res_ub[child] = _last_within(lambda R: R + rs, ub, ub - rs, 0.0, math.inf)
    return res_ub, key_ub


def cut(points, ub: float):
    """Drop every point after the price-0 one whose resistance exceeds ub.
    The price-0 point stays, as ``DPTable.at`` and ``_reconstruct`` read it
    at every budget. Resistance falls along the list, so the dropped points
    form a prefix of the rest."""
    prices, res, choice = points
    j = 1
    while j < len(res) and res[j] > ub:
        j += 1
    del prices[1:j], res[1:j], choice[1:j]
    return points
