import itertools
import math
import random

import pytest

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
from flowdesign.spdesign import OptionSet, _reconstruct, fill_table


def parallel_tree(m):
    return decompose(2, ((0, 1),) * m, 0, 1)


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
            for row in table.resistance:
                for a, b in zip(row, row[1:]):
                    assert b <= a or (math.isinf(a) and math.isinf(b))
            assert table.iterations <= (2 * m - 1) * (U + 1) ** 2
            root = table.resistance[-1]
            feasible_ks = [k for k in range(U + 1) if not math.isinf(root[k])]
            if feasible_ks:
                k = feasible_ks[0]
                sol = dp_exact(tree, opts, U, root[k] * (1 + 1e-12) + 1e-12, 1.0)
                assert sol.achievedR == pytest.approx(root[k], rel=1e-9)


class TestFillTable:
    def test_rows_match_enumeration_at_every_budget(self):
        rng = random.Random(2024)
        for trial in range(30):
            m = rng.randint(2, 6)
            n, arcs, s, t = random_sp_structure(rng, m)
            tree = decompose(n, arcs, s, t)
            r = rng.choice([1.0, 2.0])
            opts = tuple(
                tuple(
                    (rng.uniform(0.3, 3.0), float(rng.choice([0, rng.randint(0, 6)])))
                    for _ in range(rng.randint(1, 3))
                )
                for _ in range(m)
            )
            U = int(sum(max(p for _, p in menu) for menu in opts)) + 1
            best = [math.inf] * (U + 1)
            for picks in itertools.product(*(range(-1, len(menu)) for menu in opts)):
                y = [0.0 if i < 0 else opts[a][i][0] for a, i in enumerate(picks)]
                price = int(sum(opts[a][i][1] for a, i in enumerate(picks) if i >= 0))
                R = resistance_sp(tree, y, r)
                for k in range(price, U + 1):
                    best[k] = min(best[k], R)
            root = fill_table(tree, OptionSet(opts), U, r).resistance[-1]
            for k in range(U + 1):
                if math.isinf(best[k]):
                    assert math.isinf(root[k]), f"trial {trial}, budget {k}"
                else:
                    assert root[k] == pytest.approx(best[k], rel=1e-12), f"trial {trial}, budget {k}"

    def test_equal_splits_give_the_left_child_the_smaller_budget(self):
        # series, r = 1: at budget 3 the only best split gives the left arc 2;
        # at budget 4 the splits 1 + 3 and 2 + 2 both reach exactly 1.5
        tree = decompose(3, ((0, 1), (1, 2)), 0, 2)
        opts = OptionSet((
            ((1.0, 1.0), (2.0, 2.0)),
            ((1.0, 1.0), (2.0, 3.0)),
        ))
        table = fill_table(tree, opts, 5, 1.0)
        assert list(table.resistance[-1]) == [math.inf, math.inf, 2.0, 1.5, 1.5, 1.0]
        assert table.choice[-1][3] == 2 and table.choice[-1][4] == 1
        assert _reconstruct(tree, table, 3) == {0: 1, 1: 0}
        assert _reconstruct(tree, table, 4) == {0: 0, 1: 1}
        # equal menus: at budget 3 the splits 1 + 2 and 2 + 1 both reach 1.5
        same = OptionSet((((1.0, 1.0), (2.0, 2.0)),) * 2)
        table = fill_table(tree, same, 3, 1.0)
        assert table.resistance[-1][3] == 1.5 and table.choice[-1][3] == 1
        assert _reconstruct(tree, table, 3) == {0: 0, 1: 1}

    @pytest.mark.parametrize("price", [1.5, -1.0, math.inf])
    def test_rejects_prices_that_are_not_nonnegative_integers(self, price):
        opts = OptionSet((((1.0, price),), ((2.0, 1.0),)))
        with pytest.raises(ValidationError):
            fill_table(parallel_tree(2), opts, 3, 1.0)
        with pytest.raises(ValidationError):
            dp_exact(parallel_tree(2), opts, 3, 1.0, 1.0)


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

    @pytest.mark.parametrize("eps", [0.5, 0.1])
    def test_guarantee_random_multi_option(self, eps):
        rng = random.Random(int(1000 * eps))
        for trial in range(12):
            m = rng.randint(2, 6)
            n, arcs, s, t = random_sp_structure(rng, m)
            fixed = FixedInstance(
                n=n, arcs=arcs, s=s, t=t,
                r=rng.choice([1.0, 2.0]),
                B=rng.uniform(0.3, 6.0),
                options=tuple(
                    tuple(
                        sorted(
                            (rng.uniform(0.3, 4.0), float(rng.randint(0, 12)))
                            for _ in range(rng.randint(1, 3))
                        )
                    )
                    for _ in range(m)
                ),
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

    def test_epsilon_domain(self):
        inst = Instance(
            n=2, arcs=((0, 1),), s=0, t=1, r=1.0,
            c=(1.0,), gamma=(0.0,), ybar=(5.0,), B=1.0,
        )
        with pytest.raises(Exception):
            solve_sp_fptas(inst, 1.0)
