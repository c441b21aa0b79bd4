"""The solution checker: ``verify`` and the flow-witness energy it can use.

``core.verify`` forwards here and imports this module on its first call, so
only the calls that check a solution compile it: the verify command,
sp-fptas (and auto on an SP instance), which certifies its answer with a
flow witness, and library callers. Path solves, sp-exact and resistance
never load it.
"""

from __future__ import annotations

import math
from collections import defaultdict

from .core import FLOW_SLACK_PER_ARC, Instance, Solution, VerificationReport, check_tol
from .errors import DimensionMismatch, NonConvergence


def _witness_energy(inst: Instance, sol: Solution, flow, reasons: list[str]) -> float:
    """Energy of a unit s-t flow witness, appending its defects to reasons.

    Arc a adds |f_a| (|f_a| / y_a)^r, which is +inf past the float range, so
    an overflow never understates the energy. A NaN entry fails conservation.
    """
    if len(flow) != inst.m:
        raise DimensionMismatch(f"flow has {len(flow)} entries for {inst.m} arcs")
    net = defaultdict(float)  # only the nodes the arcs touch, so O(m) whatever n is
    energy = 0.0
    for a, (u, v) in enumerate(inst.arcs):
        f = flow[a]
        if f == 0.0:
            continue
        if not (sol.y[a] > 0.0 and sol.x[a] == 1):
            reasons.append(f"flow {f!r} on arc {a}, which is not installed with y > 0")
            continue
        net[u] -= f
        net[v] += f
        af = abs(f)
        try:
            energy += af * (af / sol.y[a]) ** inst.r
        except OverflowError:
            energy = math.inf
    net[inst.s] += 1.0
    net[inst.t] -= 1.0
    slack = FLOW_SLACK_PER_ARC * inst.m
    if not all(abs(v) <= slack for v in net.values()):
        reasons.append(f"flow is not a unit s-t flow: a node's net flow is off by more than {slack:.3e}")
    return energy


def verify(inst: Instance, sol: Solution, tol: float = 1e-9, flow=None) -> VerificationReport:
    """Check a solution against an instance.

    Feasibility means: x is binary, y respects 0 <= y <= ybar, any positive
    conductance is on an installed arc, infinite conductance appears only on
    zero-variable-cost arcs, and the effective resistance of the installed
    network is at most B * (1 + tol). The reported cost is recomputed from
    scratch; it does not have to match sol.cost for the solution to verify.

    Without ``flow`` the resistance comes from the energy solver
    (``resistance.support_resistance``), which loads numpy. Where it raises
    NonConvergence, the reasons already found decide: the report is
    infeasible with achievedR = inf, and with no reason the error stands.
    With ``flow``, a signed per-arc unit s-t flow (positive along the arc's
    orientation), the check is O(m) and numeric-library free, by Thomson's
    principle: every unit s-t flow f has energy
    sum_a |f_a|^(r+1) / y_a^r >= R_eff, so a witness whose energy is at most
    B * (1 + tol) proves R_eff within budget. The witness must carry flow only on installed arcs with y > 0
    and must conserve, with net -1 at s and +1 at t, to within 2^-40 per
    arc (the float rounding of a unit flow); achievedR is then its energy,
    an upper bound on R_eff. A witness that fails proves nothing, so the
    solution is reported infeasible.
    """
    check_tol(tol)
    if len(sol.x) != inst.m or len(sol.y) != inst.m:
        raise DimensionMismatch(
            f"solution has {len(sol.x)} / {len(sol.y)} entries for {inst.m} arcs"
        )
    reasons = []
    cost = 0.0
    for a, (x, y) in enumerate(zip(sol.x, sol.y)):
        if x not in (0, 1):
            reasons.append(f"x[{a}] is not binary")
        elif x == 1:
            cost += inst.gamma[a]
        if math.isnan(y) or y < 0.0:
            reasons.append(f"y[{a}] is negative or NaN")
        elif y > inst.ybar[a]:
            reasons.append(f"y[{a}] exceeds its bound")
        if y > 0.0 and x != 1:
            reasons.append(f"y[{a}] > 0 on an uninstalled arc")
        if math.isinf(y) and inst.c[a] > 0.0:
            reasons.append(f"y[{a}] is unbounded but arc {a} has positive variable cost")
            if y > 0.0:
                cost = math.inf
        elif 0.0 < y < math.inf:
            cost += inst.c[a] * y

    if flow is None:
        from .resistance import support_resistance

        # a negative or NaN y, a reason above, installs nothing here
        try:
            achieved = support_resistance(inst, [v if v > 0.0 else 0.0 for v in sol.y])
        except NonConvergence:
            if not reasons:
                raise
            achieved = math.inf  # the reasons decide; the energy is unknown
    else:
        achieved = _witness_energy(inst, sol, flow, reasons)
    feasible = not reasons and achieved <= inst.B * (1.0 + tol)
    return VerificationReport(
        feasible=feasible, achievedR=achieved, cost=cost, reasons=tuple(reasons)
    )
