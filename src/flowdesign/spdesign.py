"""Design on series-parallel graphs with bounded conductances.

The workhorse is a budgeted DP over the SP composition tree: R(v, k) is the
best resistance the subtree under v can reach spending at most k, combined
by min-plus convolution in resistance space at series nodes and max-plus in
conductance space at parallel nodes. With integer prices the DP is exact;
real prices go through the classic scale-and-round layer (guess the largest
price used by the optimum, round everything down to multiples of delta).
Continuous conductance intervals [0, ybar] are handled by discretizing each
interval into a geometric option menu first; the menu always contains ybar
itself, and its price list folds the fixed cost in.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import FixedInstance, Instance, Solution, check_epsilon, verify
from .errors import (
    BoundExceeded,
    Infeasible,
    OutOfRange,
    UnsupportedCase,
    ValidationError,
    VerificationFailed,
)
from .sptree import (
    Leaf,
    Parallel,
    SPTree,
    Series,
    cond_to_res,
    decompose,
    postorder,
    res_to_cond,
    resistance_sp,
)


@dataclass(frozen=True)
class OptionSet:
    """Per-arc menus of (conductance mu, price p); skipping an arc is free."""

    options: tuple[tuple[tuple[float, float], ...], ...]

    @property
    def m(self) -> int:
        return len(self.options)


@dataclass(frozen=True)
class DPTable:
    """Filled DP arrays, aligned with ``nodes`` (a postorder of the tree).

    resistance[i][k] is the best subtree resistance at budget k; choice[i][k]
    holds the argmin: an option index (or -1 for skip) at leaves, the budget
    given to the left child elsewhere.
    """

    nodes: tuple[SPTree, ...]
    resistance: tuple[np.ndarray, ...]
    choice: tuple[np.ndarray, ...]
    iterations: int


def _res_to_cond_vec(R: np.ndarray, r: float) -> np.ndarray:
    with np.errstate(divide="ignore"):
        return R ** (-1.0 / r)


def _cond_to_res_vec(C: np.ndarray, r: float) -> np.ndarray:
    with np.errstate(divide="ignore"):
        return C ** (-float(r))


def _leaf_fill(opts, U: int, r: float):
    """Best option per budget: a running minimum over options sorted by price."""
    vals = np.full(U + 1, np.inf)
    pick = np.full(U + 1, -1, dtype=np.int64)
    order = sorted(range(len(opts)), key=lambda i: (opts[i][1], i))
    best = math.inf
    best_i = -1
    ptr = 0
    for k in range(U + 1):
        while ptr < len(order) and opts[order[ptr]][1] <= k:
            i = order[ptr]
            res = opts[i][0] ** (-float(r))
            if res < best:
                best = res
                best_i = i
            ptr += 1
        vals[k] = best
        pick[k] = best_i
    return vals, pick


def fill_table(tree: SPTree, options: OptionSet, U: int, r: float) -> DPTable:
    """Fill the budgeted-resistance DP bottom-up over the SP tree.

    Option prices must already be nonnegative integers (scale first if not).
    The amount of (node, k, k') work is counted and checked against its
    analytic envelope (2m - 1) * (U + 1)^2; exceeding it raises BoundExceeded.
    """
    if U < 0:
        raise ValidationError("budget U must be >= 0")
    nodes = postorder(tree)
    res: dict[int, np.ndarray] = {}
    cho: dict[int, np.ndarray] = {}
    iterations = 0
    for node in nodes:
        if isinstance(node, Leaf):
            vals, pick = _leaf_fill(options.options[node.arc], U, r)
            iterations += U + 1
        else:
            lv, rv = res[id(node.left)], res[id(node.right)]
            if isinstance(node, Series):
                a, b = lv, rv
            else:
                a, b = _res_to_cond_vec(lv, r), _res_to_cond_vec(rv, r)
            vals = np.empty(U + 1)
            pick = np.empty(U + 1, dtype=np.int64)
            for k in range(U + 1):
                diag = a[: k + 1] + b[k::-1]
                split = int(np.argmin(diag)) if isinstance(node, Series) else int(np.argmax(diag))
                vals[k] = diag[split]
                pick[k] = split
            if isinstance(node, Parallel):
                vals = _cond_to_res_vec(vals, r)
            iterations += (U + 1) * (U + 2) // 2
        res[id(node)] = vals
        cho[id(node)] = pick

    m = sum(1 for n in nodes if isinstance(n, Leaf))
    envelope = (2 * m - 1) * (U + 1) ** 2
    if iterations > envelope:
        raise BoundExceeded(f"DP did {iterations} iterations, envelope {envelope}")
    return DPTable(
        nodes=tuple(nodes),
        resistance=tuple(res[id(n)] for n in nodes),
        choice=tuple(cho[id(n)] for n in nodes),
        iterations=iterations,
    )


def _reconstruct(tree: SPTree, table: DPTable, k: int) -> dict[int, int]:
    """Installed option index per arc for the budget-k optimum at the root.

    Parallel branches whose table entry is infinite carry no flow; they are
    skipped outright so the rebuilt network composes to exactly R(root, k).
    """
    res = {id(n): v for n, v in zip(table.nodes, table.resistance)}
    cho = {id(n): v for n, v in zip(table.nodes, table.choice)}
    install: dict[int, int] = {}
    stack = [(tree, k)]
    while stack:
        node, kk = stack.pop()
        if isinstance(node, Leaf):
            pick = int(cho[id(node)][kk])
            if pick >= 0:
                install[node.arc] = pick
        else:
            split = int(cho[id(node)][kk])
            parts = ((node.left, split), (node.right, kk - split))
            for child, kc in parts:
                if isinstance(node, Parallel) and math.isinf(res[id(child)][kc]):
                    continue
                stack.append((child, kc))
    return install


def _to_solution(m, r, tree, options: OptionSet, install) -> Solution:
    x = [0] * m
    y = [0.0] * m
    cost = 0.0
    for arc, pick in sorted(install.items()):
        mu, p = options.options[arc][pick]
        x[arc] = 1
        y[arc] = mu
        cost += p
    achieved = resistance_sp(tree, y, r)
    return Solution(x=tuple(x), y=tuple(y), cost=cost, achievedR=achieved)


def dp_exact(tree: SPTree, options: OptionSet, U: int, B: float, r: float) -> Solution:
    """Exact cheapest feasible installation with integer option prices.

    The answer is the smallest budget k with R(root, k) <= B; spending is
    reconstructed by backpointers and priced as given.
    """
    for opts in options.options:
        for _, p in opts:
            if int(p) != p:
                raise ValidationError("dp_exact needs integer option prices")
    table = fill_table(tree, options, U, r)
    root_res = table.resistance[-1]
    hits = np.nonzero(root_res <= B)[0]
    if len(hits) == 0:
        raise Infeasible(f"no installation within budget {U} meets the resistance bound")
    k = int(hits[0])
    install = _reconstruct(tree, table, k)
    return _to_solution(options.m, r, tree, options, install)


def solve_fixed_conductance_fptas(inst: FixedInstance, epsilon: float) -> Solution:
    """(1+epsilon)-approximation for arbitrary nonnegative option prices.

    Guesses P = the largest price the optimum pays, trying every distinct
    option price in ascending order. For each guess, prices above P drop
    out, the rest scale to rho = floor(p / delta) with delta = eps * P / m,
    and the integer DP runs with budget m * floor(P / delta). Reconstructions
    are priced at the original costs, so every candidate is genuine; the run
    whose P matches the optimum proves the guarantee. Two sound prunes keep
    the loop fast: once a candidate costing UB exists, guesses P > UB cannot
    be the optimum's largest price (it pays P <= its total <= UB), and no
    optimal rho-total exceeds UB / delta, so the DP budget is clamped to
    ceil(UB / delta) + m.
    """
    check_epsilon(epsilon)
    tree = decompose(inst.n, inst.arcs, inst.s, inst.t)
    m = inst.m

    ycap = [max((mu for mu, _ in opts), default=0.0) for opts in inst.options]
    if resistance_sp(tree, ycap, inst.r) > inst.B:
        raise Infeasible("even the highest-conductance installation misses the budget")

    all_prices = sorted({p for opts in inst.options for _, p in opts})
    best = None
    best_cost = math.inf
    for P in all_prices:
        if P > best_cost:
            break
        included = [
            tuple((mu, p) for mu, p in opts if p <= P) for opts in inst.options
        ]
        idx_maps = [
            tuple(i for i, (_, p) in enumerate(opts) if p <= P) for opts in inst.options
        ]
        cap = [max((mu for mu, _ in opts), default=0.0) for opts in included]
        if resistance_sp(tree, cap, inst.r) > inst.B:
            continue

        if P == 0.0:
            delta = 1.0
            scaled = OptionSet(tuple(tuple((mu, 0) for mu, _ in opts) for opts in included))
            U = 0
        else:
            delta = epsilon * P / m
            rows = []
            for opts in included:
                row = []
                for mu, p in opts:
                    rho = int(p / delta)
                    if not (delta * rho <= p * (1.0 + 1e-9) and p <= delta * rho + delta * (1.0 + 1e-9)):
                        raise BoundExceeded(f"price {p} rounds to {rho} units of {delta}")
                    row.append((mu, rho))
                rows.append(tuple(row))
            scaled = OptionSet(tuple(rows))
            U = m * int(P / delta)
            if math.isfinite(best_cost):
                U = min(U, math.ceil(best_cost / delta) + m)

        table = fill_table(tree, scaled, U, inst.r)
        hits = np.nonzero(table.resistance[-1] <= inst.B)[0]
        if len(hits) == 0:
            continue
        install = _reconstruct(tree, table, int(hits[0]))
        cost = sum(inst.options[a][idx_maps[a][pick]][1] for a, pick in install.items())
        key = (cost, tuple(sorted((a, idx_maps[a][pick]) for a, pick in install.items())))
        if best is None or key < best:
            best = key
            best_cost = cost

    if best is None:
        raise Infeasible("no guess produced a feasible installation")
    chosen = dict(best[1])
    full = OptionSet(inst.options)
    return _to_solution(m, inst.r, tree, full, chosen)


def discretize_conductances(inst: Instance, epsilon: float) -> OptionSet:
    """Geometric conductance menus for the continuous bounded problem.

    The floor ylow_a = eps * L / (6 c_a m) with L = min_a (c_a D / m + gamma_a)
    and D = B^(-1/r) is low enough that rounding the optimum up to the grid
    costs at most a 1 + eps/3 factor; the cap ybar_a is always a menu entry.
    """
    check_epsilon(epsilon, "sp-fptas")
    for a in range(inst.m):
        if inst.c[a] <= 0.0:
            raise UnsupportedCase(
                f"arc {a} has zero variable cost; pre-install it at its bound "
                "and remove it from the discretization"
            )
        if math.isinf(inst.ybar[a]):
            raise UnsupportedCase(f"arc {a} has no conductance bound")

    m = inst.m
    try:
        D = inst.B ** (-1.0 / inst.r)
    except OverflowError:
        raise OutOfRange(f"B^(-1/r) for B = {inst.B!r} leaves the float range") from None
    L = min(inst.c[a] * D / m + inst.gamma[a] for a in range(inst.m))
    step = 1.0 + epsilon / 6.0
    menus = []
    for a in range(m):
        ylow = epsilon * L / (6.0 * inst.c[a] * m)
        ub = inst.ybar[a]
        mus = []
        if ub >= ylow:
            i = 0
            mu = ylow
            while mu <= ub:
                mus.append(mu)
                i += 1
                mu = ylow * step ** i
            grid_count = len(mus)
            bound = math.ceil((6.0 / epsilon) * math.log2(ub * 6.0 * inst.c[a] * m / (epsilon * L))) + 1
            if grid_count > bound:
                raise BoundExceeded(f"arc {a}: grid {grid_count} exceeds bound {bound}")
            if not mus or mus[-1] != ub:
                mus.append(ub)
        else:
            mus.append(ub)
        menus.append(tuple((mu, inst.c[a] * mu + inst.gamma[a]) for mu in mus))
    return OptionSet(tuple(menus))


def solve_sp_fptas(inst: Instance, epsilon: float) -> Solution:
    """(1+epsilon)-approximation with continuous bounded conductances.

    Discretize at eps, then run the fixed-menu scheme at eps/3; the combined
    loss (1 + eps/3)^2 stays within 1 + eps on (0, 1). The result is
    re-checked against the original instance before it is returned; a
    design that fails the check raises VerificationFailed.
    """
    check_epsilon(epsilon, "sp-fptas")
    for a in range(inst.m):
        if inst.c[a] <= 0.0:
            raise UnsupportedCase(
                f"arc {a} has zero variable cost; pre-install it at its bound "
                "and remove it from the discretization"
            )
        if math.isinf(inst.ybar[a]):
            raise UnsupportedCase(f"arc {a} has no conductance bound")
    tree = decompose(inst.n, inst.arcs, inst.s, inst.t)
    if resistance_sp(tree, inst.ybar, inst.r) > inst.B:
        raise Infeasible("even y = ybar misses the resistance budget")
    menus = discretize_conductances(inst, epsilon)
    fixed = FixedInstance(
        n=inst.n, arcs=inst.arcs, s=inst.s, t=inst.t, r=inst.r, B=inst.B,
        options=menus.options,
    )
    sol = solve_fixed_conductance_fptas(fixed, epsilon / 3.0)
    report = verify(inst, sol, tol=1e-9)
    if not report.feasible:
        raise VerificationFailed(f"reconstructed solution failed verification: {report.reasons}")
    return sol
