"""Design on series-parallel graphs with bounded conductances.

The workhorse is a budgeted DP run forward over the SP schedule
(``sptree.SPSchedule``): R(v, k) is the best resistance the subtree under
node v can reach spending at most k, combined by min-plus convolution in
resistance space at series nodes and max-plus in conductance space at
parallel nodes. R(v, .) is a step function, so each node keeps only its
Pareto points (price, resistance), sorted by price, and R(v, k) is its
last point priced at most k: the list method of Nemhauser and Ullmann for
knapsack. A node's list comes from the pairs of its
children's points that fit the budget, pruned to the pairs that beat every
cheaper pair; among equal values the pair that gives the left child less
budget wins, which is the first best split of the per-budget recursion.
Given the resistance bound B, the DP also bounds, as the list method
does: a pair that cannot lead to a root point within B, even with every
other node at its least resistance, is never formed.
The bounds are exact float boundaries of the DP's own operations, so the
root points within B, and every answer, are those of the unbounded DP.
The kernel is plain Python, so the exact mode runs without numpy. With
integer prices the DP is exact; real prices go through the classic
scale-and-round layer: guess the largest price used by the optimum by
doubling from the smallest price, round everything down to multiples of
delta, and run one DP per guess, O(log(p_max / p_min)) in all.
Continuous conductance intervals [0, ybar] are handled by discretizing each
interval into a geometric option menu first; the menu always contains ybar
itself, and its price list folds the fixed cost in.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from collections import namedtuple
from itertools import accumulate
from operator import itemgetter

from .core import FixedInstance, Instance, Solution, check_epsilon, verify
from .errors import (
    BoundExceeded,
    Infeasible,
    OutOfRange,
    UnsupportedCase,
    ValidationError,
    VerificationFailed,
)
from .spbounds import bounds
from .sptree import (
    SPSchedule,
    cond_to_res,
    decompose,
    half_key,
    key_res,
    resistance_sp,
    sp_unit_flow,
)


class OptionSet(namedtuple("OptionSet", "options")):
    """Per-arc menus of (conductance mu, price p); skipping an arc is free."""

    __slots__ = ()


class DPTable(namedtuple("DPTable", "points iterations")):
    """Filled DP lists, one per node of the SP schedule, in its order.

    points[i] is schedule node i's Pareto list as three parallel lists
    (prices, resistances, choices), sorted by price and starting at price 0;
    ``at`` reads it at a budget, and points[-1] is the root's. A choice is an
    option index (or -1 for skip) at the leaves 0..m-1 and the budget given
    to the left child at the steps (the smallest one that reaches the best
    value). iterations counts the points of the full leaf lists plus, at
    each step, the product of its children's list lengths under the bound.
    """

    __slots__ = ()

    def at(self, i: int, k: int) -> tuple[float, int]:
        """(resistance, choice) of node i at budget k >= 0: those of its
        last point priced at most k."""
        prices, res, choice = self.points[i]
        j = bisect_right(prices, k) - 1
        return res[j], choice[j]


def _leaf_list(opts, U: int, r: float):
    """Pareto list of one arc: skip at price 0, then every option within U,
    cheapest first, whose resistance beats all options before it."""
    prices, vals, picks = [0], [math.inf], [-1]
    for i in sorted(range(len(opts)), key=[p for _, p in opts].__getitem__):
        p = int(opts[i][1])
        if p > U:
            break
        res = cond_to_res(opts[i][0], r)
        if res < vals[-1]:
            if p == prices[-1]:
                vals[-1], picks[-1] = res, i
            else:
                prices.append(p)
                vals.append(res)
                picks.append(i)
    return prices, vals, picks


def _combine(left, right, parallel: bool, U: int, r: float, key_ub: float):
    """Pareto list of a series or parallel node from its children's lists.

    Every pair of child points priced at most U in total whose key is at
    most key_ub is a candidate. Its key is the summed resistance (series) or
    minus the summed half conductances (parallel), so smaller is better in
    both; halving is exact and keeps every comparison, and a sum of halves
    stays in the float range where the full sum would overflow. Lists over
    the total prices 0..min(U, top left price + top right price) keep the
    best (key, left price) found so far. Left points come in ascending price
    and an entry is replaced only by a strictly smaller key, so of equal
    keys the pair that gives the left child less wins. Only the totals some
    pair reached are then scanned, in ascending order: a total survives
    when its (key, left price) is lexicographically below every cheaper
    total's, so each point is the first best split over budgets. A step's
    cost thus follows its pairs and its children's top prices, not U. Totals
    too many for memory to hold those lists, as huge integer prices give,
    raise OutOfRange.

    A pair keyed above key_ub cannot lead to a root point within B (see
    ``spbounds``). Keys fall along both lists, so for each left point the
    pairs over the bound are a prefix of the right list, and that prefix
    only shrinks as the left key falls: one pointer, moved down with the
    same ``k1 + k2 <= key_ub`` test the bound certifies, skips it. Without
    a bound key_ub is the largest key and no pair is skipped.
    """
    lp, lv, _ = left
    rp, rv, _ = right
    if parallel:
        lv = [half_key(v, r) for v in lv]
        rv = [half_key(v, r) for v in rv]
    top = min(U, lp[-1] + rp[-1])
    try:
        best_key = [math.inf] * (top + 1)
        best_lprice = [-1] * (top + 1)
    except (MemoryError, OverflowError):
        raise OutOfRange("the DP cannot allocate its lists over the total prices") from None
    # Total 0 has one pair, the two price-0 points. It is entered here, over
    # the bound or not, so every list keeps its true price-0 point: a
    # series key there can be inf, which no strict improvement records, and
    # a parallel total left at key inf would read R = 0.
    best_key[0] = lv[0] + rv[0]
    best_lprice[0] = 0
    touched = [0]
    right_points = list(zip(rp, rv))
    start = len(rv)
    for p1, k1 in zip(lp, lv):
        while start and k1 + rv[start - 1] <= key_ub:
            start -= 1
        for p2, k2 in right_points[start:bisect_right(rp, U - p1)]:
            total = p1 + p2
            key = k1 + k2
            if key < best_key[total]:
                if best_lprice[total] < 0:
                    touched.append(total)
                best_key[total] = key
                best_lprice[total] = p1
    prices, keys, lprices = [], [], []
    # Kept points fall strictly in (key, left price), so the last one kept
    # is the minimum over all cheaper totals.
    last_key, last_lprice = math.inf, U + 1
    for total in sorted(touched):
        lprice = best_lprice[total]
        key = best_key[total]
        if key < last_key or (key == last_key and lprice < last_lprice):
            prices.append(total)
            keys.append(key)
            lprices.append(lprice)
            last_key, last_lprice = key, lprice
    if parallel:
        keys = [key_res(key, r) for key in keys]
    return prices, keys, lprices


def fill_table(
    sched: SPSchedule, options: OptionSet, U: int, r: float, B: float = math.inf
) -> DPTable:
    """Fill the budgeted-resistance DP forward over the SP schedule.

    Each schedule node keeps one list of Pareto points (price, resistance,
    choice), sorted by price, with the resistance falling or the choice's
    left budget shrinking from one point to the next (Nemhauser and
    Ullmann's list method for knapsack). Leaves list their menus; each
    step, in schedule order, combines its children's lists in
    ``_combine``, which keeps the best pair per total price in lists over
    the totals its children can reach within U, so its memory is at most
    O(U) rather than the product of the list lengths. Read at any budget k
    through ``DPTable.at``, a node's list gives R(v, k) and the argmin of
    the classic per-budget min-plus / max-plus recursion; no per-budget
    rows are stored.

    The resistance bound B prunes, by the bounding step of the knapsack
    list method: ``spbounds.bounds`` gives each step the largest
    resistance, and the largest pair key, that can still lead to a root
    point within B, and pairs over their step's key bound are never formed
    (``_combine``). That one test keeps each step's points within its
    resistance bound: apart from the total-0 pair, which stays so that
    every list starts at price 0, every pair's key is at most the key
    bound. At a series step that key is the point's resistance and the key
    bound is the resistance bound; at a parallel step the key bound is
    kappa, the exact float boundary of the monotone test
    ``key_res(kappa) <= ub`` (for B >= 0, kappa = -inf passes it). Leaf
    lists stay full: a leaf point over the bound its test would give forms,
    with every sibling point (each at least the sibling's least
    resistance), a pair over the key bound, so no pair is formed from it.
    Call a point live when it can lead to a root point within B. Pruning
    changes no live point: a live point's pair is made of live points, and
    every pair the pruned lists form is one the full lists form too. So at
    a budget where the full list's point is live, the pruned list reaches
    the same (key, left price) at the same price; at any other budget it
    reaches no live point either. Every root point within B, and with it
    ``_cheapest_budget`` and ``_reconstruct`` at that budget, is the same
    as without the bound. With B = inf no pair is skipped, and the lists
    are full, as the per-budget tests read them.

    Option prices must be nonnegative integers (scale first if not). The
    work, counted as leaf points plus the products of the child lists at
    steps, is checked against its analytic envelope
    (2m - 1) * (U + 1)^2; exceeding it raises BoundExceeded.
    """
    if U < 0:
        raise ValidationError("budget U must be >= 0")
    for opts in options.options:
        for _, p in opts:
            if not (p >= 0 and p % 1 == 0):  # inf % 1 and nan % 1 are nan
                raise ValidationError("fill_table needs nonnegative integer option prices")
    m = sched.m
    lists = [_leaf_list(options.options[a], U, r) for a in range(m)]
    _, key_ub = bounds(sched, [res[-1] for _, res, _ in lists], r, B)
    iterations = sum(len(points[0]) for points in lists)
    for (parallel, a, b), kub in zip(sched.steps, key_ub):
        left, right = lists[a], lists[b]
        lists.append(_combine(left, right, parallel, U, r, kub))
        iterations += len(left[0]) * len(right[0])

    envelope = (2 * m - 1) * (U + 1) ** 2
    if iterations > envelope:
        raise BoundExceeded(f"DP did {iterations} iterations, envelope {envelope}")
    return DPTable(points=tuple(lists), iterations=iterations)


def _cheapest_budget(table: DPTable, B: float) -> int | None:
    """Smallest budget k with R(root, k) <= B: the price of the root's first
    point within B, or None when there is none."""
    prices, res, _ = table.points[-1]
    return next((p for p, v in zip(prices, res) if v <= B), None)


def _reconstruct(sched: SPSchedule, table: DPTable, k: int) -> dict[int, int]:
    """Installed option index per arc for the budget-k optimum at the root,
    in ascending arc order.

    A backward loop over the schedule hands each step's budget to its
    children, the left one the step's choice and the right one the rest.
    A parallel branch whose table entry is infinite carries no flow; it
    gets no budget, so the rebuilt network composes to exactly R(root, k).
    """
    m = sched.m
    budget: list[int | None] = [None] * len(table.points)
    budget[-1] = k
    for i in range(len(budget) - 1, m - 1, -1):
        kk = budget[i]
        if kk is None:
            continue
        parallel, a, b = sched.steps[i - m]
        _, pick = table.at(i, kk)
        for child, kc in ((a, pick), (b, kk - pick)):
            if not (parallel and math.isinf(table.at(child, kc)[0])):
                budget[child] = kc
    install: dict[int, int] = {}
    for a in range(m):
        if budget[a] is not None:
            _, pick = table.at(a, budget[a])
            if pick >= 0:
                install[a] = pick
    return install


def _to_solution(sched: SPSchedule, r: float, menus, install: dict[int, int]) -> Solution:
    x = [0] * sched.m
    y = [0.0] * sched.m
    cost = 0.0
    for arc, pick in install.items():
        mu, p = menus[arc][pick]
        x[arc] = 1
        y[arc] = mu
        cost += p
    achieved = resistance_sp(sched, y, r)
    return Solution(x=tuple(x), y=tuple(y), cost=cost, achievedR=achieved)


def dp_exact(sched: SPSchedule, options: OptionSet, U: int, B: float, r: float) -> Solution:
    """Exact cheapest feasible installation with integer option prices.

    The answer is the smallest budget k with R(root, k) <= B; spending is
    reconstructed by backpointers and priced as given.
    """
    table = fill_table(sched, options, U, r, B)
    k = _cheapest_budget(table, B)
    if k is None:
        raise Infeasible(f"no installation within budget {U} meets the resistance bound")
    install = _reconstruct(sched, table, k)
    return _to_solution(sched, r, options.options, install)


def solve_sp_exact(inst: Instance) -> Solution:
    """Exact design when every arc is all or nothing: c = 0 and integer
    gamma. Arc a's menu is its one option (ybar_a, gamma_a); an unbounded
    arc's is (inf, gamma_a), which ``cond_to_res`` composes as R = 0. The DP
    runs at the budget sum(gamma), which affords every arc."""
    if any(v != 0.0 for v in inst.c):
        raise UnsupportedCase("sp-exact prices arcs by gamma alone; c must be zero")
    prices = []
    for g in inst.gamma:
        if g != int(g):
            raise UnsupportedCase("sp-exact needs integer gamma prices")
        prices.append(int(g))
    sched = decompose(inst.n, inst.arcs, inst.s, inst.t)
    options = OptionSet(tuple(((inst.ybar[a], float(prices[a])),) for a in range(inst.m)))
    return dp_exact(sched, options, sum(prices), inst.B, inst.r)


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


def solve_fixed_conductance_fptas(
    inst: FixedInstance, epsilon: float, *, sched: SPSchedule | None = None
) -> Solution:
    """(1+epsilon)-approximation for arbitrary nonnegative option prices.

    sched is the instance's SP schedule when the caller already has one, as
    ``solve_sp_fptas`` does; without it the graph is decomposed here.

    Guesses P, an upper bound on the largest price p* the optimum pays, by
    doubling (Hassin 1992; Lorenz and Raz 2001). With p_min and p_max the
    smallest and largest positive option prices, the guesses are
    P = p_min * 2^j, the last one capped at p_max (uncapped, p_min * 2^j can
    overflow to inf), plus P = 0 first when zero-price options exist. Each
    positive price p lies in exactly one bracket P/2 < p <= P; a guess whose
    bracket holds no option price cannot be the optimum's and is skipped.

    Each arc's menu is sorted by price once per solve, stably, so options
    of equal price keep their index order, and the running largest
    conductance along it is kept. A guess keeps the prefix of each sorted
    menu priced at most P, found by bisection, and its cap is that
    prefix's largest conductance: a guess that fails its cap test costs
    O(m log k) for menus of at most k options. The kept options scale to
    rho = floor(p / delta) with delta = eps * P / (8m), and the integer DP
    runs with budget U = m * floor(P / delta). At P = 0, delta is 1: every
    kept price is 0, so rho and U are 0 and the DP is exact. A delta that
    underflows to 0 raises OutOfRange. The DP picks positions in the sorted
    menus, and reconstructions are priced at the original costs, so every
    candidate is genuine. Two tie rules read sorted positions, so they
    differ from index order only for a menu not sorted by price (a
    discretized menu is sorted already): a DP leaf keeps the first of its
    options with equal scaled price and resistance, which is the cheaper
    one, and of two guesses' candidates of equal cost the one whose
    (arc, position) picks, in arc order, compare lower is kept.

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
    no feasible design and skips its DP. Every guess keeps part of each
    menu, so an instance that misses the bound even at its largest
    conductances skips every DP and raises Infeasible.
    """
    check_epsilon(epsilon)
    if sched is None:
        sched = decompose(inst.n, inst.arcs, inst.s, inst.t)
    m = inst.m

    price = itemgetter(1)
    menus = [sorted(opts, key=price) for opts in inst.options]
    caps = [list(accumulate((mu for mu, _ in menu), max, initial=0.0)) for menu in menus]
    all_prices = sorted({p for menu in menus for _, p in menu})
    best = None
    best_cost = math.inf
    for P in _price_guesses(all_prices):
        if P >= 2.0 * best_cost:
            break
        ends = [bisect_right(menu, P, key=price) for menu in menus]
        if resistance_sp(sched, [cap[k] for cap, k in zip(caps, ends)], inst.r) > inst.B:
            continue

        delta = epsilon * P / (8 * m) if P else 1.0
        if delta == 0.0:
            raise OutOfRange(f"the price unit eps * P / (8m) at P = {P!r} underflows to 0")
        rows = []
        for menu, end in zip(menus, ends):
            row = []
            for mu, p in menu[:end]:
                rho = int(p / delta)
                if not (delta * rho <= p * (1.0 + 1e-9) and p <= delta * rho + delta * (1.0 + 1e-9)):
                    raise BoundExceeded(f"price {p} rounds to {rho} units of {delta}")
                row.append((mu, rho))
            rows.append(tuple(row))
        U = m * int(P / delta)
        if math.isfinite(best_cost):
            U = min(U, math.ceil(best_cost / delta) + m)

        table = fill_table(sched, OptionSet(tuple(rows)), U, inst.r, inst.B)
        k = _cheapest_budget(table, inst.B)
        if k is None:
            continue
        install = _reconstruct(sched, table, k)
        cost = sum(menus[a][pick][1] for a, pick in install.items())
        key = (cost, tuple(install.items()))
        if best is None or key < best:
            best = key
            best_cost = cost

    if best is None:
        raise Infeasible("no guess produced a feasible installation")
    return _to_solution(sched, inst.r, menus, dict(best[1]))


def _require_discretizable(inst: Instance) -> None:
    """The conductance grid needs c_a > 0 and a finite ybar_a on every arc."""
    for a in range(inst.m):
        if inst.c[a] <= 0.0:
            raise UnsupportedCase(
                f"arc {a} has zero variable cost; pre-install it at its bound "
                "and remove it from the discretization"
            )
        if math.isinf(inst.ybar[a]):
            raise UnsupportedCase(f"arc {a} has no conductance bound")


def discretize_conductances(inst: Instance, epsilon: float) -> OptionSet:
    """Geometric conductance menus for the continuous bounded problem.

    The floor ylow_a = eps * L / (6 c_a m) with L = min_a (c_a D / m + gamma_a)
    and D = B^(-1/r) is low enough that rounding the optimum up to the grid
    costs at most a 1 + eps/3 factor; the cap ybar_a is always a menu entry.
    """
    check_epsilon(epsilon, "sp-fptas")
    _require_discretizable(inst)

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
    re-checked against the original instance before it is returned: the
    schedule's signed minimum-energy unit flow on the design
    (``sp_unit_flow``) is handed to ``verify`` as a witness, which checks
    its conservation and energy on the graph itself and so does not trust
    the composition. A design that fails the check raises
    VerificationFailed. The arcs are checked before the graph, so an
    instance the grid cannot take is refused before ``decompose`` runs.
    """
    check_epsilon(epsilon, "sp-fptas")
    _require_discretizable(inst)
    sched = decompose(inst.n, inst.arcs, inst.s, inst.t)
    if resistance_sp(sched, inst.ybar, inst.r) > inst.B:
        raise Infeasible("even y = ybar misses the resistance budget")
    menus = discretize_conductances(inst, epsilon)
    fixed = FixedInstance(
        n=inst.n, arcs=inst.arcs, s=inst.s, t=inst.t, r=inst.r, B=inst.B,
        options=menus.options,
    )
    sol = solve_fixed_conductance_fptas(fixed, epsilon / 3.0, sched=sched)
    report = verify(inst, sol, tol=1e-9, flow=sp_unit_flow(sched, sol.y, inst.r, inst.s))
    if not report.feasible:
        raise VerificationFailed(
            f"reconstructed solution failed verification: {report.reasons}, "
            f"witness energy {report.achievedR!r} against B = {inst.B!r}"
        )
    return sol
