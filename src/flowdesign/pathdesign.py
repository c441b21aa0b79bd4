"""Design without conductance bounds: the optimal support is an s-t path.

With ybar unbounded, some optimal solution installs exactly the arcs of one
simple s-t path and gives every positive-variable-cost arc on it the
closed-form conductance

    y_a = (sum_{a' in P+} c_{a'}^{r/(r+1)})^{1/r} / (c_a^{1/(r+1)} * B^{1/r})

which meets the resistance budget with equality; zero-variable-cost arcs
get UNBOUNDED conductance and contribute only their fixed cost. The path
then costs phi(S_P) + Gamma_P, with S_P the sum of c_a^{r/(r+1)}, Gamma_P
the sum of gamma_a and phi(S) = S^{(r+1)/r} / B^{1/r} increasing. Every
entry finds the best path with ``rsp.frontier_fptas``, one label-setting
pass over the (S, Gamma) Pareto frontier, and checks only its own
preconditions. When one cost vector vanishes (``single_cost``), the
frontier's bounds meet and it returns the path exactly, with no pass.

``lambda_bounds`` and ``lambda_grid`` describe the KKT multiplier of the
budget constraint: the bracket and geometric grid of an earlier scheme that
solved one restricted shortest path per grid point.
"""

from __future__ import annotations

import math
from collections import namedtuple

from .core import UNBOUNDED, Instance, Solution, check_epsilon
from .errors import (
    AllVariableCostsZero, BoundExceeded, OutOfRange, UnsupportedCase, ValidationError,
)
from .rsp import frontier_fptas
from .rsp import rsp_fptas  # noqa: F401  (bench/spans.py wraps this binding)


class PathSolution(namedtuple("PathSolution", "path y objective")):
    """An s-t path (arc indices, in walk order) with conductances per path arc."""

    __slots__ = ()


class LambdaGrid(namedtuple("LambdaGrid", "L U epsilon points")):
    """lambda_grid's points: L * (1 + epsilon/3)^((r+1) i) up to U, then one above."""

    __slots__ = ()


def phi(S: float, B: float, r: float) -> float:
    """S^((r+1)/r) / B^(1/r), the variable cost of a path; +inf past the float range."""
    try:
        return S ** ((r + 1.0) / r) / B ** (1.0 / r)
    except OverflowError:
        return math.inf


def optimal_y_for_path(path, c, B: float, r: float, gamma=None):
    """Closed-form conductances and objective for a fixed path.

    gamma defaults to all zeros. Arcs with c_a = 0 get UNBOUNDED; when the
    whole path is free of variable costs the resistance is 0 and only fixed
    costs remain. Raises OutOfRange when the objective or a conductance does
    not fit in a float (a conductance that rounds to 0 or +inf).
    """
    if not (B > 0.0):
        raise ValidationError("budget B must be > 0")
    e = r / (r + 1.0)
    S = sum(c[a] ** e for a in path if c[a] > 0.0)
    num, Bq = S ** (1.0 / r), B ** (1.0 / r)
    y = []
    for a in path:
        if c[a] > 0.0:
            ca = c[a] ** (1.0 / (r + 1.0))
            # ca * Bq may leave the float range where y does not
            y.append(num / (ca * Bq) if 0.0 < ca * Bq < math.inf else num / ca / Bq)
        else:
            y.append(UNBOUNDED)
    objective = phi(S, B, r) if S > 0.0 else 0.0
    if gamma is not None:
        objective += sum(gamma[a] for a in path)
    if math.isinf(objective) or not all(0.0 < v < math.inf for v, a in zip(y, path) if c[a] > 0.0):
        raise OutOfRange(f"the cost of path {tuple(path)} leaves the float range")
    return tuple(y), objective


def to_solution(inst: Instance, ps: PathSolution) -> Solution:
    """Expand a PathSolution into full per-arc vectors. Raises OutOfRange
    when the achieved resistance, about B, rounds past the float range."""
    x = [0] * inst.m
    y = [0.0] * inst.m
    for a, ya in zip(ps.path, ps.y):
        x[a] = 1
        y[a] = ya
    try:
        achieved = sum((ya ** (-float(inst.r)) for ya in ps.y if not math.isinf(ya)), 0.0)
    except OverflowError:
        raise OutOfRange("the resistance of the design leaves the float range") from None
    return Solution(x=tuple(x), y=tuple(y), cost=ps.objective, achievedR=achieved)


def single_cost(inst: Instance) -> bool:
    """True when c or gamma vanishes on every arc. The two shortest paths
    that seed ``rsp.frontier_fptas`` are then one path whose cost is both
    bounds, so the path solve returns it, exactly, before any label pass."""
    return all(v == 0.0 for v in inst.c) or all(v == 0.0 for v in inst.gamma)


def solve_fixed_cost_only(inst: Instance) -> PathSolution:
    """Exact solver for c == 0: a shortest path under the fixed costs gamma."""
    if any(v > 0.0 for v in inst.c):
        raise ValidationError("solve_fixed_cost_only needs c == 0 on every arc")
    return solve_path_exact(inst)


def solve_variable_cost_only(inst: Instance) -> PathSolution:
    """Exact solver for gamma == 0: shortest path under lengths c^(r/(r+1))."""
    if any(v > 0.0 for v in inst.gamma):
        raise ValidationError("solve_variable_cost_only needs gamma == 0 on every arc")
    return solve_path_exact(inst)


def solve_path_exact(inst: Instance) -> PathSolution:
    """Exact optimum with ybar unbounded when one cost vector vanishes
    (``single_cost``); any other instance raises UnsupportedCase."""
    if not single_cost(inst):
        raise UnsupportedCase("path-exact needs ybar unbounded everywhere and c or gamma identically zero")
    return solve_path_fptas(inst, 1.0)  # LB = UB, so epsilon rounds nothing


def lambda_bounds(inst: Instance) -> tuple[float, float]:
    """Bracket [L, U] for the KKT multiplier of the budget constraint.

    L = min c / (r B^p) and U = max c (n-1)^p / (r B^p) with p = (r+1)/r,
    computed in log space so that B^p may underflow; raises OutOfRange when
    a bound itself leaves the float range.
    """
    pos = [v for v in inst.c if v > 0.0]
    if not pos:
        raise AllVariableCostsZero("every variable cost is zero; use solve_fixed_cost_only")
    p = (inst.r + 1.0) / inst.r
    log_denom = math.log(inst.r) + p * math.log(inst.B)
    try:
        L = math.exp(math.log(min(pos)) - log_denom)
        U = math.exp(math.log(max(pos)) + p * math.log(inst.n - 1.0) - log_denom)
    except OverflowError:
        raise OutOfRange("the multiplier bracket leaves the float range") from None
    if L == 0.0:
        raise OutOfRange("the multiplier bracket leaves the float range")
    return L, U


def lambda_grid(inst: Instance, epsilon: float) -> LambdaGrid:
    """Geometric grid covering [L, U] plus one point above U.

    The in-range point count is checked against its analytic bound; a grid
    that breaks it raises BoundExceeded.
    """
    L, U = lambda_bounds(inst)
    step = (1.0 + epsilon / 3.0) ** (inst.r + 1.0)
    points = []
    lam = L
    i = 0
    while lam <= U:
        points.append(lam)
        i += 1
        lam = L * step ** i
    inside = len(points)
    points.append(lam)

    pos = [v for v in inst.c if v > 0.0]
    ratio = max(pos) / min(pos)
    bound = math.ceil(3.0 * math.log2((inst.n - 1.0) ** ((inst.r + 1.0) / inst.r) * ratio) / epsilon) + 1
    if inside > bound:
        raise BoundExceeded(f"lambda grid has {inside} points, bound {bound}")
    return LambdaGrid(L=L, U=U, epsilon=epsilon, points=tuple(points))


def solve_path_fptas(inst: Instance, epsilon: float) -> PathSolution:
    """(1+epsilon)-approximation for general costs with ybar unbounded.

    The path minimizes phi(S_P) + Gamma_P up to a 1+epsilon factor, found by
    one label-setting pass over (Gamma rounded down, S exact); see
    ``rsp.frontier_fptas`` for the bounds, the bracket and the proof. The
    winning path's conductances are derived in closed form, so the budget is
    met exactly. When one cost vector vanishes (``single_cost``), the bounds
    of ``frontier_fptas`` meet and the answer is exact, whatever epsilon.
    """
    check_epsilon(epsilon)
    if not inst.unbounded():
        raise UnsupportedCase("the path solvers need ybar unbounded everywhere")
    r = inst.r
    e = r / (r + 1.0)
    lengths = tuple(v ** e for v in inst.c)
    path = frontier_fptas(
        inst.n, inst.arcs, inst.s, inst.t, lengths, inst.gamma,
        lambda S: phi(S, inst.B, r), epsilon,
    )
    y, objective = optimal_y_for_path(path, inst.c, inst.B, r, inst.gamma)
    return PathSolution(path=path, y=y, objective=objective)
