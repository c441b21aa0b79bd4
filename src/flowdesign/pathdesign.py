"""Design without conductance bounds: the optimal support is an s-t path.

With ybar unbounded, some optimal solution installs exactly the arcs of one
simple s-t path and gives every positive-variable-cost arc on it the
closed-form conductance

    y_a = (sum_{a' in P+} c_{a'}^{r/(r+1)})^{1/r} / (c_a^{1/(r+1)} * B^{1/r})

which meets the resistance budget with equality; zero-variable-cost arcs
get UNBOUNDED conductance and contribute only their fixed cost. The path
then costs phi(S_P) + Gamma_P, with S_P the sum of c_a^{r/(r+1)}, Gamma_P
the sum of gamma_a and phi(S) = S^{(r+1)/r} / B^{1/r} increasing. Finding
the best path is exact when one cost vector vanishes (a shortest-path
problem) and otherwise approximated by one label-setting pass over the
(S, Gamma) Pareto frontier (``rsp.frontier_fptas``).

``lambda_bounds`` and ``lambda_grid`` describe the KKT multiplier of the
budget constraint: the bracket and geometric grid of an earlier scheme that
solved one restricted shortest path per grid point.
"""

from __future__ import annotations

import math
from collections import namedtuple

from .core import UNBOUNDED, Instance, Solution, check_epsilon
from .errors import AllVariableCostsZero, BoundExceeded, Disconnected, OutOfRange, ValidationError
from .rsp import frontier_fptas, lex_dijkstra
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
    not fit in a float.
    """
    if not (B > 0.0):
        raise ValidationError("budget B must be > 0")
    e = r / (r + 1.0)
    S = sum(c[a] ** e for a in path if c[a] > 0.0)
    y = []
    for a in path:
        if c[a] > 0.0:
            y.append(S ** (1.0 / r) / (c[a] ** (1.0 / (r + 1.0)) * B ** (1.0 / r)))
        else:
            y.append(UNBOUNDED)
    objective = phi(S, B, r) if S > 0.0 else 0.0
    if gamma is not None:
        objective += sum(gamma[a] for a in path)
    if math.isinf(objective) or any(math.isinf(v) for v, a in zip(y, path) if c[a] > 0.0):
        raise OutOfRange(f"the cost of path {tuple(path)} leaves the float range")
    return tuple(y), objective


def to_solution(inst: Instance, ps: PathSolution) -> Solution:
    """Expand a PathSolution into full per-arc vectors."""
    x = [0] * inst.m
    y = [0.0] * inst.m
    for a, ya in zip(ps.path, ps.y):
        x[a] = 1
        y[a] = ya
    achieved = 0.0
    for a in ps.path:
        ya = y[a]
        if not math.isinf(ya):
            achieved += ya ** (-float(inst.r))
    return Solution(x=tuple(x), y=tuple(y), cost=ps.objective, achievedR=achieved)


def _shortest_path(inst: Instance, weights) -> tuple[float, tuple[int, ...]]:
    """Least-weight s-t path as (weight, arcs), ties by lexicographic arc sequence."""
    hit = lex_dijkstra(inst.n, inst.arcs, weights, (0.0,) * inst.m, inst.s, inst.t)
    if hit is None:
        raise Disconnected("no s-t path exists")
    return hit[0], hit[2]


def solve_fixed_cost_only(inst: Instance) -> PathSolution:
    """Exact solver for c == 0: a shortest path under the fixed costs gamma."""
    if any(v > 0.0 for v in inst.c):
        raise ValidationError("solve_fixed_cost_only needs c == 0 on every arc")
    if not inst.unbounded():
        raise ValidationError("conductance bounds are not supported here")
    d, seq = _shortest_path(inst, inst.gamma)
    if math.isinf(d):
        raise OutOfRange("the least fixed cost of an s-t path leaves the float range")
    y = (UNBOUNDED,) * len(seq)
    return PathSolution(path=seq, y=y, objective=d)


def solve_variable_cost_only(inst: Instance) -> PathSolution:
    """Exact solver for gamma == 0: shortest path under lengths c^(r/(r+1))."""
    if any(v > 0.0 for v in inst.gamma):
        raise ValidationError("solve_variable_cost_only needs gamma == 0 on every arc")
    if not inst.unbounded():
        raise ValidationError("conductance bounds are not supported here")
    e = inst.r / (inst.r + 1.0)
    weights = tuple(v ** e for v in inst.c)
    _, seq = _shortest_path(inst, weights)
    y, objective = optimal_y_for_path(seq, inst.c, inst.B, inst.r)
    return PathSolution(path=seq, y=y, objective=objective)


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
    met exactly.
    """
    check_epsilon(epsilon)
    if not inst.unbounded():
        raise ValidationError("conductance bounds are not supported here")
    if all(v == 0.0 for v in inst.c):
        return solve_fixed_cost_only(inst)

    r = inst.r
    e = r / (r + 1.0)
    lengths = tuple(v ** e for v in inst.c)
    path = frontier_fptas(
        inst.n, inst.arcs, inst.s, inst.t, lengths, inst.gamma,
        lambda S: phi(S, inst.B, r), epsilon,
    )
    y, objective = optimal_y_for_path(path, inst.c, inst.B, r, inst.gamma)
    return PathSolution(path=path, y=y, objective=objective)
