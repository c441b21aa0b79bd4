import itertools
import math
import random
import sys
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowdesign import (
    Infeasible,
    Instance,
    UnsupportedCase,
    ValidationError,
    decompose,
    discretize_conductances,
    dp_exact,
    resistance_sp,
    solve_fixed_conductance_fptas,
    solve_sp_fptas,
    verify,
)
from flowdesign.core import FixedInstance
from flowdesign.errors import OutOfRange
from flowdesign.oracles import (
    brute_subsets_continuous_sp,
    brute_subsets_fixed,
    gen_min_knapsack,
    gen_random_sp,
    random_sp_structure,
)
from flowdesign import spdesign
from flowdesign.spbounds import bounds
from flowdesign.spdesign import OptionSet, _cheapest_budget, _reconstruct, fill_table
from flowdesign.sptree import cond_to_res, key_res, res_to_cond


def parallel_tree(m):
    return decompose(2, ((0, 1),) * m, 0, 1)


def row(table, i, U):
    """Node i's resistances at budgets 0..U, read as _reconstruct reads them."""
    return [table.at(i, k)[0] for k in range(U + 1)]


def single_options(mus, prices):
    return OptionSet(tuple(((float(mu), float(p)),) for mu, p in zip(mus, prices)))


def textbook_min_knapsack(mu, p, D):
    """Covering knapsack over integer demand units; None when infeasible."""
    if D <= 0:
        return 0
    if sum(mu) < D:
        return None
    INF = float("inf")
    dp = [0] + [INF] * D
    for m_i, p_i in zip(mu, p):
        for j in range(D - 1, -1, -1):
            if dp[j] < INF:
                k = min(D, j + m_i)
                dp[k] = min(dp[k], dp[j] + p_i)
    return dp[D]


class TestDpExact:
    def test_three_parallel_pick_biggest(self):
        opts = single_options((1, 2, 3), (1, 1, 1))
        sol = dp_exact(parallel_tree(3), opts, 3, 3.0 ** -1.0, 1.0)
        assert sol.cost == 1.0
        assert sol.x == (0, 0, 1)

    def test_series_pair_unique_support(self):
        tree = decompose(3, ((0, 1), (1, 2)), 0, 2)
        opts = single_options((1, 1), (1, 1))
        sol = dp_exact(tree, opts, 2, 2.0, 1.0)
        assert sol.cost == 2.0
        assert sol.achievedR == pytest.approx(2.0)

    def test_series_pair_budget_just_too_small(self):
        tree = decompose(3, ((0, 1), (1, 2)), 0, 2)
        opts = single_options((1, 1), (1, 1))
        with pytest.raises(Infeasible):
            dp_exact(tree, opts, 2, 1.9, 1.0)

    def test_matches_subset_oracle(self):
        rng = random.Random(64)
        for trial in range(25):
            m = rng.randint(2, 8)
            n, arcs, s, t = random_sp_structure(rng, m)
            tree = decompose(n, arcs, s, t)
            mus = [rng.uniform(0.3, 4.0) for _ in range(m)]
            prices = [rng.randint(0, 9) for _ in range(m)]
            r = rng.choice([1.0, 2.0])
            fixed = FixedInstance(
                n=n, arcs=arcs, s=s, t=t, r=r,
                B=rng.uniform(0.2, 5.0),
                options=tuple(((mu, float(p)),) for mu, p in zip(mus, prices)),
            )
            opts = OptionSet(fixed.options)
            try:
                want = brute_subsets_fixed(fixed)
            except Infeasible:
                with pytest.raises(Infeasible):
                    dp_exact(tree, opts, sum(prices), fixed.B, r)
                continue
            got = dp_exact(tree, opts, sum(prices), fixed.B, r)
            assert got.cost == want.cost, f"trial {trial}"

    def test_sp_exact_with_unbounded_arcs_matches_subset_enumeration(self):
        # c = 0 and integer gamma with about 30% of the arcs unbounded: an
        # unbounded arc installs as (inf, gamma), which composes as R = 0.
        # Each answer costs what the cheapest subset meeting B costs, and
        # verify finds it feasible.
        rng = random.Random(23)
        for trial in range(300):
            m = rng.randint(1, 7)
            n, arcs, s, t = random_sp_structure(rng, m)
            ybar = tuple(math.inf if rng.random() < 0.3 else rng.uniform(0.3, 4.0) for _ in range(m))
            gamma = tuple(float(rng.randint(0, 9)) for _ in range(m))
            r = rng.choice([1.0, 2.0, 4.0])
            B = 10.0 ** rng.uniform(-9.0, 1.0)
            inst = Instance(n=n, arcs=arcs, s=s, t=t, r=r, c=(0.0,) * m, gamma=gamma, ybar=ybar, B=B)
            tree = decompose(n, arcs, s, t)
            costs = [
                sum(g for g, x in zip(gamma, xs) if x)
                for xs in itertools.product((0, 1), repeat=m)
                if resistance_sp(tree, [u if x else 0.0 for u, x in zip(ybar, xs)], r) <= B
            ]
            if not costs:
                with pytest.raises(Infeasible):
                    spdesign.solve_sp_exact(inst)
                continue
            sol = spdesign.solve_sp_exact(inst)
            assert sol.cost == min(costs), f"trial {trial}"
            assert verify(inst, sol).feasible, f"trial {trial}"

    def test_knapsack_family_matches_textbook_dp(self):
        rng = random.Random(4096)
        for _ in range(25):
            k = rng.randint(1, 6)
            mu = [rng.randint(1, 9) for _ in range(k)]
            p = [rng.randint(0, 9) for _ in range(k)]
            D = rng.randint(1, 20)
            fixed = gen_min_knapsack(mu, p, D)
            want = textbook_min_knapsack(mu, p, D)
            opts = OptionSet(fixed.options)
            tree = parallel_tree(k)
            if want is None:
                with pytest.raises(Infeasible):
                    dp_exact(tree, opts, sum(p), fixed.B, fixed.r)
            else:
                got = dp_exact(tree, opts, sum(p), fixed.B, fixed.r)
                assert got.cost == want

    def test_knapsack_family_matches_textbook_dp_at_bench_scale(self):
        # the sizes and prices of the knapsack_exact benchmark workload
        rng = random.Random(8192)
        for _ in range(8):
            k = rng.randint(10, 22)
            mu = [rng.randint(1, 9) for _ in range(k)]
            p = [rng.randint(1, 200) for _ in range(k)]
            D = rng.randint(1, sum(mu))
            fixed = gen_min_knapsack(mu, p, D, rng.choice([1.0, 2.0]))
            got = dp_exact(parallel_tree(k), OptionSet(fixed.options), sum(p), fixed.B, fixed.r)
            assert got.cost == textbook_min_knapsack(mu, p, D)

    def test_table_monotone_and_consistent(self):
        rng = random.Random(321)
        for _ in range(10):
            m = rng.randint(2, 7)
            n, arcs, s, t = random_sp_structure(rng, m)
            tree = decompose(n, arcs, s, t)
            opts = OptionSet(
                tuple(
                    tuple(
                        (rng.uniform(0.3, 3.0), float(rng.randint(0, 5)))
                        for _ in range(rng.randint(1, 3))
                    )
                    for _ in range(m)
                )
            )
            U = 3 * m
            table = fill_table(tree, opts, U, 1.0)
            for i in range(len(table.points)):
                values = row(table, i, U)
                for a, b in zip(values, values[1:]):
                    assert b <= a or (math.isinf(a) and math.isinf(b))
            assert table.iterations <= (2 * m - 1) * (U + 1) ** 2
            root = row(table, -1, U)
            feasible_ks = [k for k in range(U + 1) if not math.isinf(root[k])]
            if feasible_ks:
                k = feasible_ks[0]
                sol = dp_exact(tree, opts, U, root[k] * (1 + 1e-12) + 1e-12, 1.0)
                assert sol.achievedR == root[k]


def random_fill_cases(tied=False):
    """30 random SP trees with small integer menus (extra zero prices) and
    the budget U that affords every arc's dearest option; ``tied`` draws the
    conductances from {1, 2}, so many splits reach equal values."""
    rng = random.Random(2024)
    for _ in range(30):
        m = rng.randint(2, 6)
        n, arcs, s, t = random_sp_structure(rng, m)
        tree = decompose(n, arcs, s, t)
        r = rng.choice([1.0, 2.0])
        opts = tuple(
            tuple(
                (
                    float(rng.randint(1, 2)) if tied else rng.uniform(0.3, 3.0),
                    float(rng.choice([0, rng.randint(0, 6)])),
                )
                for _ in range(rng.randint(1, 3))
            )
            for _ in range(m)
        )
        U = int(sum(max(p for _, p in menu) for menu in opts)) + 1
        yield tree, opts, U, r


def per_budget_rows(tree, opts, U, r):
    """The classic per-budget recursion, as (resistance, choice) rows over
    budgets 0..U, one per schedule node. Each choice is the first best: the
    skip (-1), then options by (price, index), at leaves; the smallest left
    budget elsewhere. Parallel nodes compare summed conductances."""
    rows = []
    for arc in range(tree.m):
        menu = [(cond_to_res(mu, r), p, i) for i, (mu, p) in enumerate(opts[arc])]
        rows.append([
            min([(math.inf, 0, -1)] + [o for o in menu if o[1] <= k])[::2]
            for k in range(U + 1)
        ])
    for parallel, lchild, rchild in tree.steps:
        left, right = rows[lchild], rows[rchild]
        out = []
        for k in range(U + 1):
            splits = []
            for j in range(k + 1):
                a, b = left[j][0], right[k - j][0]
                key = -(res_to_cond(a, r) + res_to_cond(b, r)) if parallel else a + b
                splits.append((key, j))
            key, j = min(splits)
            out.append((cond_to_res(-key, r) if parallel else key, j))
        rows.append(out)
    return rows


class TestFillTable:
    def test_rows_match_enumeration_at_every_budget(self):
        for trial, (tree, opts, U, r) in enumerate(random_fill_cases()):
            best = [math.inf] * (U + 1)
            for picks in itertools.product(*(range(-1, len(menu)) for menu in opts)):
                y = [0.0 if i < 0 else opts[a][i][0] for a, i in enumerate(picks)]
                price = int(sum(opts[a][i][1] for a, i in enumerate(picks) if i >= 0))
                R = resistance_sp(tree, y, r)
                for k in range(price, U + 1):
                    best[k] = min(best[k], R)
            root = row(fill_table(tree, OptionSet(opts), U, r), -1, U)
            for k in range(U + 1):
                if math.isinf(best[k]):
                    assert math.isinf(root[k]), f"trial {trial}, budget {k}"
                else:
                    assert root[k] == pytest.approx(best[k], rel=1e-12), f"trial {trial}, budget {k}"

    def test_lists_match_the_per_budget_recursion(self):
        # arc 0 in series with arcs 1 and 2 in parallel: the parallel pair
        # reaches conductance 1 at budgets 1 and 2 with different splits,
        # so the series node sees the same (value, split) at totals 1 and 2
        chain = (
            decompose(3, ((0, 1), (1, 2), (1, 2)), 0, 2),
            (((1.0, 0.0),), ((1.0, 1.0),), ((1.0, 2.0),)),
            3,
            1.0,
        )
        cases = [chain, *random_fill_cases(), *random_fill_cases(tied=True)]
        for trial, (tree, opts, U, r) in enumerate(cases):
            table = fill_table(tree, OptionSet(opts), U, r)
            want = per_budget_rows(tree, opts, U, r)
            assert len(table.points) == len(want), f"trial {trial}"
            for i, steps in enumerate(want):
                got = [table.at(i, k) for k in range(U + 1)]
                assert got == steps, f"trial {trial}, node {i}"
                # one point per step, so the pair counts stay minimal
                changes = [k for k in range(U + 1) if k == 0 or steps[k] != steps[k - 1]]
                assert table.points[i][0] == changes, f"trial {trial}, node {i}"

    def test_equal_splits_give_the_left_child_the_smaller_budget(self):
        # series, r = 1: at budget 3 the only best split gives the left arc 2;
        # at budget 4 the splits 1 + 3 and 2 + 2 both reach exactly 1.5
        tree = decompose(3, ((0, 1), (1, 2)), 0, 2)
        opts = OptionSet((
            ((1.0, 1.0), (2.0, 2.0)),
            ((1.0, 1.0), (2.0, 3.0)),
        ))
        table = fill_table(tree, opts, 5, 1.0)
        assert row(table, -1, 5) == [math.inf, math.inf, 2.0, 1.5, 1.5, 1.0]
        assert table.at(-1, 3)[1] == 2 and table.at(-1, 4)[1] == 1
        assert _reconstruct(tree, table, 3) == {0: 1, 1: 0}
        assert _reconstruct(tree, table, 4) == {0: 0, 1: 1}
        # equal menus: at budget 3 the splits 1 + 2 and 2 + 1 both reach 1.5
        same = OptionSet((((1.0, 1.0), (2.0, 2.0)),) * 2)
        table = fill_table(tree, same, 3, 1.0)
        assert table.at(-1, 3) == (1.5, 1)
        assert _reconstruct(tree, table, 3) == {0: 0, 1: 1}

    @pytest.mark.parametrize("tree", [parallel_tree(2), decompose(3, ((0, 1), (1, 2)), 0, 2)])
    def test_a_huge_budget_costs_no_memory_beyond_the_lists(self, tree):
        # lists over every total 0..U would take about 16 MB at U = 10^6
        opts = OptionSet((((1.0, 3.0), (2.0, 7.0)), ((1.5, 2.0), (3.0, 9.0))))
        small = fill_table(tree, opts, 20, 2.0)
        tracemalloc.start()
        try:
            table = fill_table(tree, opts, 10**6, 2.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20
        assert table.points == small.points

    def test_bound_keeps_the_price_zero_point_of_a_parallel_node(self):
        # two arcs of conductance 1 in parallel, B = 0.6 at r = 1: the
        # price-0 pair (skip, skip) is over the bound, yet the root's
        # price-0 point must still read R = inf, not the R = 0 of an
        # unentered key, or budget 0 would look feasible
        opts = OptionSet((((1.0, 1.0),), ((1.0, 1.0),)))
        full = fill_table(parallel_tree(2), opts, 2, 1.0)
        table = fill_table(parallel_tree(2), opts, 2, 1.0, 0.6)
        assert table.at(-1, 0) == full.at(-1, 0) == (math.inf, 0)
        assert table.at(-1, 1)[0] == math.inf
        assert _cheapest_budget(table, 0.6) == _cheapest_budget(full, 0.6) == 2
        assert _reconstruct(parallel_tree(2), table, 2) == {0: 0, 1: 0}
        assert dp_exact(parallel_tree(2), opts, 2, 0.6, 1.0).cost == 2.0

    def test_bound_is_exact_where_the_need_cancels(self):
        # arc 1 alone falls short of B by about 1e-12 in conductance, so the
        # bound on arc 0 is C(B) - C1, which cancels to a few digits; B is
        # the DP's own value of the design with both arcs, which must stay
        rng = random.Random(17)
        tree = parallel_tree(2)
        for trial in range(200):
            r = rng.choice([1.0, 1.5, 2.0, 4.0])
            c1 = 10.0 ** rng.uniform(-5.0, 5.0)
            c0 = c1 * 10.0 ** rng.uniform(-14.0, -10.0)
            opts = OptionSet((((c0, 1.0),), ((c1, 0.0),)))
            B = dp_values(tree, (c0, c1), r)[-1]
            assert _cheapest_budget(fill_table(tree, opts, 1, r, B), B) == 1, f"trial {trial}"

    def test_a_binding_bound_never_adds_work(self):
        strict = 0
        for trial, (tree, opts, U, r) in enumerate(random_fill_cases()):
            full = fill_table(tree, OptionSet(opts), U, r)
            assert full.iterations <= (2 * tree.m - 1) * (U + 1) ** 2
            for B in {v for v in full.points[-1][1] if math.isfinite(v)}:
                table = fill_table(tree, OptionSet(opts), U, r, B)
                assert table.iterations <= full.iterations, f"trial {trial}, B {B}"
                strict += table.iterations < full.iterations
        assert strict > 0

    @pytest.mark.parametrize("price", [1.5, -1.0, math.inf])
    def test_rejects_prices_that_are_not_nonnegative_integers(self, price):
        opts = OptionSet((((1.0, price),), ((2.0, 1.0),)))
        with pytest.raises(ValidationError):
            fill_table(parallel_tree(2), opts, 3, 1.0)
        with pytest.raises(ValidationError):
            dp_exact(parallel_tree(2), opts, 3, 1.0, 1.0)


def leaves_under(tree, node):
    """The arcs in the subtree of schedule node ``node``."""
    if node < tree.m:
        return {node}
    _, a, b = tree.steps[node - tree.m]
    return leaves_under(tree, a) | leaves_under(tree, b)


def dp_values(tree, y, r):
    """Every schedule node's resistance at conductances y, composed by the
    DP's own rules: summed resistances in series, summed half conductances
    in parallel."""
    vals = [cond_to_res(v, r) for v in y]
    for parallel, a, b in tree.steps:
        if parallel:
            key = -res_to_cond(vals[a], r) / 2 + -res_to_cond(vals[b], r) / 2
            vals.append(key_res(key, r))
        else:
            vals.append(vals[a] + vals[b])
    return vals


@st.composite
def bounded_fills(draw):
    """A random SP schedule and menu with log-uniform conductances over
    1e-300..1e300, a budget U, an r and a resistance bound B.

    B is a root point's value, a random value, or the least resistance
    within U at a parallel node whose two children differ by about 1e-12 in
    conductance (the menus of the smaller one are rescaled to that ratio).
    There the larger child alone falls short of the need by about 1e-12, so
    the bound on the smaller one comes from a difference that cancels, and
    the best points sit on it. B is then left as it is or moved by one
    float either way.
    """
    m = draw(st.integers(1, 6))
    n, arcs, s, t = random_sp_structure(random.Random(draw(st.integers(0, 2 ** 16))), m)
    tree = decompose(n, arcs, s, t)
    option = st.tuples(st.floats(-300.0, 300.0).map(lambda e: 10.0 ** e), st.integers(0, 5).map(float))
    menus = [draw(st.lists(option, min_size=1, max_size=3)) for _ in range(m)]
    r = draw(st.sampled_from([1.0, 1.5, 2.0, 4.0]))
    how = draw(st.sampled_from(["point", "random", "need"]))
    steps = [i for i, (parallel, _, _) in enumerate(tree.steps, m) if parallel]
    B = None
    if how == "need" and steps:
        _, small, large = tree.steps[draw(st.sampled_from(steps)) - m]
        if draw(st.booleans()):
            small, large = large, small

        def best():
            return [max(mu for mu, _ in menu) for menu in menus]

        vals = dp_values(tree, best(), r)
        c_small, c_large = res_to_cond(vals[small], r), res_to_cond(vals[large], r)
        ratio = 10.0 ** draw(st.floats(-14.0, -10.0))
        scale = c_large / c_small * ratio if 0.0 < c_small < math.inf else math.nan
        if 0.0 < scale < math.inf:
            for a in leaves_under(tree, small):
                menus[a] = [(mu * scale, p) for mu, p in menus[a]]
        U = int(sum(max(p for _, p in menu) for menu in menus))
        B = dp_values(tree, best(), r)[-1]
    else:
        U = draw(st.integers(0, 12))
    opts = OptionSet(tuple(map(tuple, menus)))
    full = fill_table(tree, opts, U, r)
    if B is None:
        B = 10.0 ** draw(st.floats(-300.0, 300.0)) if how == "random" else draw(st.sampled_from(full.points[-1][1]))
    return tree, opts, U, r, math.nextafter(B, draw(st.sampled_from([-math.inf, B, math.inf]))), full


@given(bounded_fills())
@settings(max_examples=150, derandomize=True, deadline=None)
def test_bound_changes_no_answer_property(case):
    """fill_table with B keeps every root point within B, the cheapest
    budget and its reconstruction, exactly as with B = inf."""
    tree, opts, U, r, B, full = case
    table = fill_table(tree, opts, U, r, B)

    def within(t):
        return [point for point in zip(*t.points[-1]) if point[1] <= B]

    assert within(table) == within(full)
    k = _cheapest_budget(table, B)
    assert k == _cheapest_budget(full, B)
    if k is not None:
        assert _reconstruct(tree, table, k) == _reconstruct(tree, full, k)
    assert table.iterations <= full.iterations


@st.composite
def step_bound_cases(draw):
    """A random SP schedule and menu with conductances log-uniform up to the
    largest float, a budget U, an r, and a B that is a random value or the
    composed resistance of a random design from the menus."""
    m = draw(st.integers(1, 7))
    n, arcs, s, t = random_sp_structure(random.Random(draw(st.integers(0, 2 ** 16))), m)
    tree = decompose(n, arcs, s, t)
    mu = st.one_of(
        st.floats(-300.0, 308.0).map(lambda e: 10.0 ** e),
        st.floats(1e308, sys.float_info.max),
    )
    option = st.tuples(mu, st.integers(0, 6).map(float))
    menus = [draw(st.lists(option, min_size=1, max_size=3)) for _ in range(m)]
    r = draw(st.sampled_from([1.0, 1.5, 2.0, 4.0]))
    if draw(st.booleans()):
        design = [draw(st.sampled_from([0.0, *(mu for mu, _ in menu)])) for menu in menus]
        B = resistance_sp(tree, design, r)
    else:
        B = 10.0 ** draw(st.floats(-300.0, 300.0))
    return tree, OptionSet(tuple(map(tuple, menus))), draw(st.integers(0, 15)), r, B


@given(step_bound_cases())
@settings(max_examples=200, derandomize=True, deadline=None)
def test_step_lists_need_no_cut_property(case):
    """The pair bound keeps every step's points within the node's bound:
    each step list point past price 0 is within its step's exact bound, and
    the leaf lists stay full."""
    tree, opts, U, r, B = case
    leaves = [spdesign._leaf_list(menu, U, r) for menu in opts.options]
    res_ub, _ = bounds(tree, [res[-1] for _, res, _ in leaves], r, B)
    table = fill_table(tree, opts, U, r, B)
    assert table.points[:tree.m] == tuple(leaves)
    for (_, res, _), ub in zip(table.points[tree.m:], res_ub, strict=True):
        assert all(R <= ub for R in res[1:])


class TestScalingFptas:
    def test_knapsack_cover_guarantee(self):
        fixed = gen_min_knapsack((3, 4, 5), (3, 4, 7), 7)
        sol = solve_fixed_conductance_fptas(fixed, 0.25)
        assert sol.cost <= 8.75
        want = brute_subsets_fixed(fixed)
        assert want.cost == 7.0

    def test_lossless_when_delta_divides(self):
        # integer prices with max 16 and eps = m/16 makes delta exactly 1
        rng = random.Random(2)
        for _ in range(10):
            m = rng.randint(2, 6)
            n, arcs, s, t = random_sp_structure(rng, m)
            prices = [rng.choice([1, 2, 4, 8, 16]) for _ in range(m)]
            prices[rng.randrange(m)] = 16
            fixed = FixedInstance(
                n=n, arcs=arcs, s=s, t=t, r=1.0,
                B=rng.uniform(0.5, 6.0),
                options=tuple(
                    ((rng.uniform(0.3, 4.0), float(p)),) for p in prices
                ),
            )
            eps = m / 16.0
            tree = decompose(n, arcs, s, t)
            try:
                want = dp_exact(tree, OptionSet(fixed.options), sum(prices), fixed.B, 1.0)
            except Infeasible:
                with pytest.raises(Infeasible):
                    solve_fixed_conductance_fptas(fixed, eps)
                continue
            got = solve_fixed_conductance_fptas(fixed, eps)
            assert got.cost == want.cost

    @pytest.mark.parametrize(
        "eps, prices",
        [
            pytest.param(0.5, "integers", id="0.5"),
            pytest.param(0.1, "integers", id="0.1"),
            # prices on the guesses p_min * 2^j, and just above them, so an
            # option sits on either side of a bracket edge
            pytest.param(0.5, "doublings", id="0.5-doublings"),
            pytest.param(0.1, "doublings", id="0.1-doublings"),
            pytest.param(0.5, "above_doublings", id="0.5-above_doublings"),
            pytest.param(0.1, "above_doublings", id="0.1-above_doublings"),
        ],
    )
    def test_guarantee_random_multi_option(self, eps, prices):
        rng = random.Random(int(1000 * eps))

        def price():
            if prices == "integers":
                return float(rng.randint(0, 12))
            j = rng.randint(1, 6)
            return 0.75 * 2.0 ** j * (1.0 + 1e-9 if prices == "above_doublings" else 1.0)

        for trial in range(12):
            m = rng.randint(2, 6)
            n, arcs, s, t = random_sp_structure(rng, m)
            r = rng.choice([1.0, 2.0])
            B = rng.uniform(0.3, 6.0)
            options = [
                sorted((rng.uniform(0.3, 4.0), price()) for _ in range(rng.randint(1, 3)))
                for _ in range(m)
            ]
            if prices != "integers":
                options[0].append((rng.uniform(0.3, 4.0), 0.75))  # p_min = 0.75
            fixed = FixedInstance(
                n=n, arcs=arcs, s=s, t=t, r=r, B=B,
                options=tuple(tuple(opts) for opts in options),
            )
            try:
                want = brute_subsets_fixed(fixed)
            except Infeasible:
                with pytest.raises(Infeasible):
                    solve_fixed_conductance_fptas(fixed, eps)
                continue
            got = solve_fixed_conductance_fptas(fixed, eps)
            assert got.cost <= (1.0 + eps) * want.cost + 1e-9, f"trial {trial}"
            assert resistance_sp(decompose(n, arcs, s, t), got.y, fixed.r) <= fixed.B * (1 + 1e-9)

    def test_price_near_the_float_limit_is_still_guessed(self):
        # doubling from p_min = 1 overflows to inf before it passes 1e308;
        # both arcs are needed, so only the capped last guess P = 1e308 works
        fixed = FixedInstance(
            n=2, arcs=((0, 1), (0, 1)), s=0, t=1, r=1.0, B=0.4,
            options=(((1.0, 1.0),), ((2.0, 1e308),)),
        )
        for eps in (0.5, 0.1):
            sol = solve_fixed_conductance_fptas(fixed, eps)
            assert sol.x == (1, 1) and sol.y == (1.0, 2.0)
            assert sol.cost == 1e308
            assert sol.achievedR == pytest.approx(1.0 / 3.0, rel=1e-15)

    def test_price_unit_that_underflows_is_out_of_range(self):
        # the first guess P = 5e-324 is the least float, so its unit
        # eps * P / (8m) rounds to 0 and no price can be counted in it
        fixed = FixedInstance(
            n=2, arcs=((0, 1), (0, 1)), s=0, t=1, r=1.0, B=1.0,
            options=(((1.0, 5e-324),), ((1.0, 1e-323),)),
        )
        with pytest.raises(OutOfRange, match="underflows to 0"):
            solve_fixed_conductance_fptas(fixed, 0.5)

    def test_rounding_loss_stays_within_a_quarter_eps(self):
        # seven series arcs: one dear arc priced just above 32 (bracket guess
        # P = 64; its unused option at 1000 keeps P from being capped), six
        # cheap arcs offering mu 1 for free or mu 2 for 1. With delta =
        # eps * P / (8m) = 0.57 the price 1 rounds to one unit, so the DP
        # keeps the free options; a delta above 1 would round it to 0, the DP
        # would take mu 2 on all six arcs and pay 6 more than OPT.
        dear = 32.0 * (1.0 + 1e-9)
        fixed = FixedInstance(
            n=8, arcs=tuple((i, i + 1) for i in range(7)), s=0, t=7, r=1.0, B=7.0,
            options=(((1.0, dear), (1.0, 1000.0)),) + (((1.0, 0.0), (2.0, 1.0)),) * 6,
        )
        eps = 0.5
        want = brute_subsets_fixed(fixed)
        assert want.cost == dear
        sol = solve_fixed_conductance_fptas(fixed, eps)
        assert sol.cost <= (1.0 + eps / 4.0) * want.cost

    def test_fill_count_is_logarithmic_in_the_price_spread(self, monkeypatch):
        # four series arcs with 12 options each, 48 distinct prices 1..48;
        # meeting B needs mu near 24 on every arc, so OPT is near 100 and the
        # stop rule leaves every guess up to p_max to run
        options = tuple(
            tuple((float(p), float(p)) for p in range(a + 1, 49, 4)) for a in range(4)
        )
        fixed = FixedInstance(
            n=5, arcs=((0, 1), (1, 2), (2, 3), (3, 4)), s=0, t=4, r=1.0,
            B=4.0 / 24.0, options=options,
        )
        prices = {p for opts in options for _, p in opts}
        assert len(prices) == 48
        calls = []

        def counted(*args):
            calls.append(args)
            return fill_table(*args)

        monkeypatch.setattr(spdesign, "fill_table", counted)
        sol = solve_fixed_conductance_fptas(fixed, 0.1)
        assert len(calls) <= math.ceil(math.log2(max(prices) / min(prices))) + 2
        want = brute_subsets_fixed(fixed)
        assert sol.cost <= 1.1 * want.cost

    def test_each_menu_is_walked_a_bounded_number_of_times(self):
        # a float-edge draw whose menus hold 7,762, 4,228 and 7,596 options
        # and whose prices span 877 guesses: the menus are sorted once, and
        # each guess reads price prefixes of them. Sorting, the prefix maxima
        # and the price list read each option once, the one guess that runs
        # the DP scales its prefixes, and each guess bisects every menu.
        inst = Instance(
            n=4, arcs=((2, 0), (2, 1), (0, 3), (3, 1), (1, 3)), s=0, t=1, r=1.0,
            c=(5.59, 1.77e-117, 4.04, 2.26e-260, 1.56e-205), gamma=(3.0, 16.0, 20.0, 11.0, 2.0),
            ybar=(8.74e306, 3.81e301, 2.05e301, 9.95e-307, 7.66e-301), B=9.15e-301,
        )
        visits = [0]

        class Option(tuple):
            def __iter__(self):
                visits[0] += 1
                return super().__iter__()

            def __getitem__(self, i):
                visits[0] += 1
                return super().__getitem__(i)

        class Menu(tuple):
            walks = 0

            def __iter__(self):
                self.walks += 1
                return super().__iter__()

        menus = tuple(
            Menu(map(Option, menu)) for menu in discretize_conductances(inst, 0.5).options
        )
        fixed = FixedInstance(
            n=inst.n, arcs=inst.arcs, s=inst.s, t=inst.t, r=inst.r, B=inst.B, options=menus,
        )
        visits[0] = 0  # count the solve's work only
        for menu in menus:
            menu.walks = 0
        sol = solve_fixed_conductance_fptas(fixed, 0.5 / 3)
        sizes = [len(menu) for menu in menus]
        assert sizes == [7762, 4228, 7596, 1, 1]
        assert max(menu.walks for menu in menus) <= 2, [menu.walks for menu in menus]
        probes = sum(k.bit_length() for k in sizes)  # one bisection of every menu
        assert visits[0] <= 5 * sum(sizes) + 877 * probes, visits[0]
        assert sol.cost == 6.670688709769384e300


class TestDiscretize:
    def base(self, ybar, eps=0.6, c=1.0, gamma=0.0):
        return Instance(
            n=2, arcs=((0, 1),), s=0, t=1, r=1.0,
            c=(c,), gamma=(gamma,), ybar=(ybar,), B=1.0,
        )

    def test_floor_and_grid_shape(self):
        menu = discretize_conductances(self.base(5.0), 0.6).options[0]
        mus = [mu for mu, _ in menu]
        assert mus[0] == pytest.approx(0.1)  # L = 1, eps*L/(6*c*m) = 0.1
        assert mus[-1] == 5.0
        for lo, hi in zip(mus, mus[1:-1]):
            assert hi / lo == pytest.approx(1.1)

    def test_prices_fold_both_costs(self):
        menu = discretize_conductances(self.base(2.0, c=2.0, gamma=0.75), 0.5).options[0]
        for mu, p in menu:
            assert p == pytest.approx(2.0 * mu + 0.75, rel=1e-15)

    def test_tiny_bound_single_option(self):
        menu = discretize_conductances(self.base(0.05), 0.6).options[0]
        assert menu == ((0.05, 0.05),)

    def test_cap_always_present(self):
        rng = random.Random(31)
        for _ in range(10):
            m = rng.randint(1, 5)
            n, arcs, s, t = random_sp_structure(rng, m)
            inst = Instance(
                n=n, arcs=arcs, s=s, t=t, r=rng.choice([1.0, 2.0]),
                c=tuple(rng.uniform(0.1, 5.0) for _ in range(m)),
                gamma=tuple(rng.uniform(0.0, 2.0) for _ in range(m)),
                ybar=tuple(rng.uniform(0.05, 4.0) for _ in range(m)),
                B=rng.uniform(0.5, 4.0),
            )
            menus = discretize_conductances(inst, rng.uniform(0.1, 0.9)).options
            for a, menu in enumerate(menus):
                assert max(mu for mu, _ in menu) == inst.ybar[a]

    def test_floor_times_cost_is_uniform(self):
        inst = Instance(
            n=3, arcs=((0, 1), (1, 2)), s=0, t=2, r=2.0,
            c=(3.0, 0.7), gamma=(0.1, 0.4), ybar=(2.0, 2.0), B=1.5,
        )
        eps = 0.4
        D = inst.B ** (-1.0 / inst.r)
        L = min(c * D / inst.m + g for c, g in zip(inst.c, inst.gamma))
        menus = discretize_conductances(inst, eps).options
        for a, menu in enumerate(menus):
            ylow = min(mu for mu, _ in menu)
            assert inst.c[a] * ylow == pytest.approx(eps * L / (6 * inst.m), rel=1e-14)

    def test_grid_beyond_the_float_range_is_out_of_range(self):
        # B = 1e300 puts arc 1's grid floor below the smallest float
        inst = Instance(
            n=2, arcs=((0, 1), (0, 1)), s=0, t=1, r=1.0,
            c=(1e-10, 1e12), gamma=(0.0, 0.0), ybar=(1.0, 1.0), B=1e300,
        )
        with pytest.raises(OutOfRange, match="float range"):
            discretize_conductances(inst, 0.1)

    def test_rejects_free_arcs_and_missing_bounds(self):
        with pytest.raises(UnsupportedCase):
            discretize_conductances(self.base(5.0, c=0.0), 0.5)
        with pytest.raises(UnsupportedCase):
            discretize_conductances(self.base(math.inf), 0.5)


class TestPipeline:
    def test_single_arc(self):
        inst = Instance(
            n=2, arcs=((0, 1),), s=0, t=1, r=1.0,
            c=(1.0,), gamma=(0.0,), ybar=(5.0,), B=1.0,
        )
        sol = solve_sp_fptas(inst, 0.25)
        assert sol.cost <= 1.25
        assert verify(inst, sol).feasible

    def test_two_parallel_forced_pair(self):
        inst = Instance(
            n=2, arcs=((0, 1), (0, 1)), s=0, t=1, r=1.0,
            c=(1.0, 1.0), gamma=(0.0, 0.0), ybar=(0.6, 0.6), B=1.0,
        )
        sol = solve_sp_fptas(inst, 0.25)
        assert sol.x == (1, 1)
        assert sol.cost <= 1.25
        oracle = brute_subsets_continuous_sp(inst)
        assert oracle.cost == pytest.approx(1.0, rel=1e-6)

    def test_infeasible_even_at_cap(self):
        inst = Instance(
            n=2, arcs=((0, 1),), s=0, t=1, r=1.0,
            c=(1.0,), gamma=(0.0,), ybar=(0.5,), B=0.1,
        )
        with pytest.raises(Infeasible):
            solve_sp_fptas(inst, 0.25)

    def test_guarantee_vs_continuous_oracle(self):
        rng = random.Random(90210)
        checked = 0
        trial = 0
        while checked < 8:
            trial += 1
            inst, _ = gen_random_sp(rng.randrange(2 ** 32), rng.randint(2, 6), rng.choice([1.0, 2.0]))
            sol = solve_sp_fptas(inst, 0.25)
            want = brute_subsets_continuous_sp(inst)
            assert sol.cost <= 1.25 * want.cost * (1 + 1e-7), f"trial {trial}"
            assert verify(inst, sol).feasible
            checked += 1

    def test_lower_bound_chain(self):
        rng = random.Random(11211)
        for _ in range(6):
            inst, _ = gen_random_sp(rng.randrange(2 ** 32), rng.randint(2, 5))
            D = inst.B ** (-1.0 / inst.r)
            L = min(c * D / inst.m + g for c, g in zip(inst.c, inst.gamma))
            want = brute_subsets_continuous_sp(inst)
            assert L <= want.cost * (1 + 1e-9)

    def test_one_decomposition_per_solve(self, monkeypatch):
        calls = []

        def counted(*args):
            calls.append(args)
            return decompose(*args)

        monkeypatch.setattr(spdesign, "decompose", counted)
        inst, _ = gen_random_sp(7, 5, 2.0)
        solve_sp_fptas(inst, 0.5)
        assert len(calls) == 1

    def test_epsilon_domain(self):
        inst = Instance(
            n=2, arcs=((0, 1),), s=0, t=1, r=1.0,
            c=(1.0,), gamma=(0.0,), ybar=(5.0,), B=1.0,
        )
        with pytest.raises(Exception):
            solve_sp_fptas(inst, 1.0)
