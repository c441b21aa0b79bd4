"""Design on series-parallel graphs with bounded conductances.

The workhorse is a budgeted DP over the SP composition tree: R(v, k) is the
best resistance the subtree under v can reach spending at most k, combined
by min-plus convolution in resistance space at series nodes and max-plus in
conductance space at parallel nodes. R(v, .) is a step function, so each
node keeps only its Pareto points (price, resistance), sorted by price: the
list method of Nemhauser and Ullmann for knapsack. A node's list comes from
all pairs of its children's points, pruned to the pairs that beat every
cheaper pair; among equal values the pair that gives the left child less
budget wins, which is the first best split of the per-budget recursion.
The pairs are formed in blocks of left-list rows, so a large budget does not
make one large outer sum. With integer prices the DP is exact; real prices
go through the classic scale-and-round layer: guess the largest price used
by the optimum by doubling from the smallest price, round everything down
to multiples of delta, and run one DP per guess, O(log(p_max / p_min)) in
all.
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
    given to the left child elsewhere (the smallest one that reaches the
    best value). Both rows are the step functions of the node's Pareto list.
    iterations counts the list points built at leaves plus the candidate
    pairs formed at inner nodes.
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


def _leaf_list(opts, U: int, r: float):
    """Pareto list of one arc: skip at price 0, then every option within U,
    cheapest first, whose resistance beats all options before it."""
    prices, vals, picks = [0], [math.inf], [-1]
    for i in sorted(range(len(opts)), key=[p for _, p in opts].__getitem__):
        p = int(opts[i][1])
        if p > U:
            break
        res = opts[i][0] ** (-float(r))
        if res < vals[-1]:
            if p == prices[-1]:
                vals[-1], picks[-1] = res, i
            else:
                prices.append(p)
                vals.append(res)
                picks.append(i)
    return np.array(prices, dtype=np.int64), np.array(vals), np.array(picks, dtype=np.int64)


# Candidate pairs formed at once in ``_combine``: the outer sum of two lists
# runs in blocks of left-list rows, so its memory stays bounded whatever the
# budget, at the cost of one pass over the per-price arrays per block.
_PAIR_BLOCK = 1 << 14


def _combine(left, right, parallel: bool, U: int, r: float):
    """Pareto list of a series or parallel node from its children's lists.

    Every pair of child points is a candidate priced at the sum of their
    prices; candidates above U drop out. A candidate survives when its
    (value, left price) beats, lexicographically, every candidate that
    costs no more: the value is the summed resistance (series) or the
    summed conductance (parallel, larger is better), and the left price
    breaks ties, so each row entry is the first best split over budgets.

    The pairs are formed in blocks of left-list rows, about ``_PAIR_BLOCK``
    pairs each. Arrays over the total prices 0..U keep the best (value,
    left price) found so far; a block replaces an entry only when its value
    is strictly better, so of equal values the earlier block, which gives
    the left child less, wins. The result does not depend on the block
    size.
    """
    lp, lv, _ = left
    rp, rv, _ = right
    if parallel:
        lv, rv = _res_to_cond_vec(lv, r), _res_to_cond_vec(rv, r)
    best_key = np.full(U + 1, math.inf)
    best_lprice = np.full(U + 1, -1, dtype=np.int64)
    rows = max(1, _PAIR_BLOCK // len(rp))
    for lo in range(0, len(lp), rows):
        bp = lp[lo:lo + rows]
        total = (bp[:, None] + rp[None, :]).ravel()
        value = (lv[lo:lo + rows, None] + rv[None, :]).ravel()
        pair = np.flatnonzero(total <= U)
        total, value = total[pair], value[pair]
        key = -value if parallel else value
        # Candidates are in pair order, so the stable lexsort breaks (price,
        # key) ties by the smaller left price; keep the block's best per price.
        order = np.lexsort((key, total))
        first = np.ones(len(order), dtype=bool)
        first[1:] = total[order[1:]] != total[order[:-1]]
        order = order[first]
        total, key = total[order], key[order]
        # A price seen for the first time is taken even at key inf (a series
        # node whose children both skip).
        better = (key < best_key[total]) | (best_lprice[total] < 0)
        total = total[better]
        best_key[total] = key[better]
        best_lprice[total] = bp[pair[order[better]] // len(rp)]
    total = np.flatnonzero(best_lprice >= 0)
    key, lprice = best_key[total], best_lprice[total]
    # Rank by (key, left price); the sort is stable, so of two equal points
    # the cheaper ranks first. A point stays while its rank beats every
    # cheaper point's.
    rank = np.empty(len(total), dtype=np.int64)
    rank[np.lexsort((lprice, key))] = np.arange(len(total))
    keep = np.ones(len(total), dtype=bool)
    keep[1:] = rank[1:] < np.minimum.accumulate(rank)[:-1]
    vals = key[keep]
    if parallel:
        vals = _cond_to_res_vec(-vals, r)
    return total[keep], vals, lprice[keep]


def fill_table(tree: SPTree, options: OptionSet, U: int, r: float) -> DPTable:
    """Fill the budgeted-resistance DP bottom-up over the SP tree.

    Each node keeps one list of Pareto points (price, resistance, choice),
    sorted by price, with the resistance falling or the choice's left
    budget shrinking from one point to the next (Nemhauser and Ullmann's
    list method for knapsack). Leaves list their menus; inner nodes combine
    their children's lists in ``_combine``, which forms the candidate pairs
    in blocks of about ``_PAIR_BLOCK`` and keeps the best per total price in
    arrays over 0..U, so its memory is O(U + block) rather than the product
    of the list lengths; the rows do not depend on the block size. Each
    list is then expanded to
    its dense rows over budgets 0..U, which equal the rows of the classic
    per-budget min-plus / max-plus recursion.

    Option prices must be nonnegative integers (scale first if not). The
    work, counted as leaf points plus candidate pairs, is checked against
    its analytic envelope (2m - 1) * (U + 1)^2; exceeding it raises
    BoundExceeded.
    """
    if U < 0:
        raise ValidationError("budget U must be >= 0")
    for opts in options.options:
        for _, p in opts:
            if not (p >= 0 and p % 1 == 0):  # inf % 1 and nan % 1 are nan
                raise ValidationError("fill_table needs nonnegative integer option prices")
    nodes = postorder(tree)
    lists: dict[int, tuple[np.ndarray, np.ndarray, np.ndarray]] = {}
    budgets = np.arange(U + 1)
    res: dict[int, np.ndarray] = {}
    cho: dict[int, np.ndarray] = {}
    iterations = 0
    for node in nodes:
        if isinstance(node, Leaf):
            points = _leaf_list(options.options[node.arc], U, r)
            iterations += len(points[0])
        else:
            left, right = lists[id(node.left)], lists[id(node.right)]
            points = _combine(left, right, isinstance(node, Parallel), U, r)
            iterations += len(left[0]) * len(right[0])
        lists[id(node)] = points
        at = np.searchsorted(points[0], budgets, side="right") - 1
        res[id(node)] = points[1][at]
        cho[id(node)] = points[2][at]

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
    table = fill_table(tree, options, U, r)
    root_res = table.resistance[-1]
    hits = np.nonzero(root_res <= B)[0]
    if len(hits) == 0:
        raise Infeasible(f"no installation within budget {U} meets the resistance bound")
    k = int(hits[0])
    install = _reconstruct(tree, table, k)
    return _to_solution(options.m, r, tree, options, install)


def _price_guesses(prices):
    """Doubling guesses for sorted distinct nonnegative prices: 0 if it is a
    price, then P = p_min * 2^j for each j whose bracket P/2 < p <= P holds
    a price, the last one capped at p_max."""
    if prices and prices[0] == 0.0:
        yield 0.0
    positive = [p for p in prices if p > 0.0]
    if not positive:
        return
    P = positive[0]
    yield P
    for p in positive:
        if p > P:
            while P < p:
                P *= 2.0
            P = min(P, positive[-1])
            yield P


def solve_fixed_conductance_fptas(inst: FixedInstance, epsilon: float) -> Solution:
    """(1+epsilon)-approximation for arbitrary nonnegative option prices.

    Guesses P, an upper bound on the largest price p* the optimum pays, by
    doubling (Hassin 1992; Lorenz and Raz 2001). With p_min and p_max the
    smallest and largest positive option prices, the guesses are
    P = p_min * 2^j, the last one capped at p_max (uncapped, p_min * 2^j can
    overflow to inf), plus P = 0 first when zero-price options exist. Each
    positive price p lies in exactly one bracket P/2 < p <= P; a guess whose
    bracket holds no option price cannot be the optimum's and is skipped.

    For a guess, options priced above P drop out (the menus are prefixes of
    each arc's options sorted by price, grown as P rises), the rest scale to
    rho = floor(p / delta) with delta = eps * P / (8m), and the integer DP
    runs with budget U = m * floor(P / delta); P = 0 runs the exact DP at
    U = 0. Reconstructions are priced at the original costs, so every
    candidate is genuine.

    Guarantee. If p* = 0, the P = 0 guess is exact. Otherwise take the guess
    of p*'s bracket: p* <= P < 2p*, and the cap keeps this, since it only
    lowers P to p_max >= p*. Every option of the optimum costs at most P, so
    the optimum is on the menu, and its rho-total is at most OPT / delta and
    at most U. The DP returns a design with rho-total no larger, and each of
    its at most m options lost less than delta to rounding, so it costs less
    than OPT + m * delta = OPT + eps * P / 8 < OPT + eps * p* / 4, which is at
    most (1 + eps/4) OPT. Any constant c >= 2 in delta = eps * P / (c m)
    gives 1 + eps; 8 buys answers as cheap as one DP per distinct price gave
    on random SP instances, at an 8x larger budget per DP.

    Three prunes keep this sound. With an incumbent costing UB >= OPT >= p*,
    the guess of p*'s bracket has P < 2p* <= 2UB, so the loop stops once
    P >= 2UB. The optimum's rho-total is at most OPT / delta <= UB / delta,
    so the DP budget is clamped to U <= ceil(UB / delta) + m. A guess whose
    menus miss the resistance bound even at their largest conductances has
    no feasible design and skips its DP.
    """
    check_epsilon(epsilon)
    tree = decompose(inst.n, inst.arcs, inst.s, inst.t)
    m = inst.m

    ycap = [max((mu for mu, _ in opts), default=0.0) for opts in inst.options]
    if resistance_sp(tree, ycap, inst.r) > inst.B:
        raise Infeasible("even the highest-conductance installation misses the budget")

    all_prices = sorted({p for opts in inst.options for _, p in opts})
    by_price = [sorted(range(len(opts)), key=lambda i: opts[i][1]) for opts in inst.options]
    taken = [0] * m
    cap = [0.0] * m
    best = None
    best_cost = math.inf
    for P in _price_guesses(all_prices):
        if P >= 2.0 * best_cost:
            break
        for a, opts in enumerate(inst.options):
            order = by_price[a]
            while taken[a] < len(order) and opts[order[taken[a]]][1] <= P:
                cap[a] = max(cap[a], opts[order[taken[a]]][0])
                taken[a] += 1
        if resistance_sp(tree, cap, inst.r) > inst.B:
            continue
        idx_maps = [sorted(order[:k]) for order, k in zip(by_price, taken)]
        included = [tuple(opts[i] for i in idx) for opts, idx in zip(inst.options, idx_maps)]

        if P == 0.0:
            delta = 1.0
            scaled = OptionSet(tuple(tuple((mu, 0) for mu, _ in opts) for opts in included))
            U = 0
        else:
            delta = epsilon * P / (8 * m)
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
                try:
                    mu = ylow * step ** i
                except OverflowError:
                    raise OutOfRange(
                        f"arc {a}: the grid from {ylow!r} to {ub!r} leaves the float range"
                    ) from None
            grid_count = len(mus)
            # log2(ub * 6 c_a m / (eps L)), taken term by term so no product overflows
            span = (
                math.log2(ub) + math.log2(6.0 * m) + math.log2(inst.c[a])
                - math.log2(epsilon) - math.log2(L)
            )
            bound = math.ceil((6.0 / epsilon) * span) + 1
            if grid_count > bound:
                raise BoundExceeded(f"arc {a}: grid {grid_count} exceeds bound {bound}")
            if not mus or mus[-1] != ub:
                mus.append(ub)
        else:
            mus.append(ub)
        menu = tuple((mu, inst.c[a] * mu + inst.gamma[a]) for mu in mus)
        if not math.isfinite(menu[-1][1]):
            raise OutOfRange(f"arc {a}: the menu price c * mu + gamma at mu = {ub!r} leaves the float range")
        menus.append(menu)
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
