import math
import random

import pytest

from flowdesign import (
    Disconnected,
    Infeasible,
    Instance,
    OddSum,
    TooLarge,
    ValidationError,
    decompose,
    effective_resistance,
    resistance_sp,
    verify,
)
from flowdesign.oracles import (
    PartitionGadget,
    brute_paths_unbounded,
    brute_subsets_continuous_sp,
    brute_subsets_fixed,
    gen_min_knapsack,
    gen_partition,
    gen_random_sp,
    gen_steiner_gadget,
    random_sp_structure,
    simple_paths,
    steiner_to_solution,
)
from flowdesign.pathdesign import optimal_y_for_path


def test_simple_paths_lexicographic():
    arcs = ((0, 1), (1, 2), (0, 2))
    got = list(simple_paths(3, arcs, 0, 2))
    assert got == [(0, 1), (2,)]


def test_simple_paths_walks_arcs_backwards():
    # the only route uses arc (2, 1) against its direction
    arcs = ((0, 1), (2, 1))
    assert list(simple_paths(3, arcs, 0, 2)) == [(0, 1)]


class TestBrutePaths:
    def test_parallel_pair(self):
        inst = Instance(
            n=2, arcs=((0, 1), (0, 1)), s=0, t=1, r=1.0,
            c=(1.0, 4.0), gamma=(0.0, 0.0), ybar=(math.inf,) * 2, B=1.0,
        )
        sol = brute_paths_unbounded(inst)
        assert sol.cost == pytest.approx(1.0)
        assert sol.x == (1, 0)

    def test_single_path_closed_form(self):
        c = (0.3, 2.0, 1.1)
        gamma = (0.5, 0.0, 0.25)
        inst = Instance(
            n=4, arcs=((0, 1), (1, 2), (2, 3)), s=0, t=3, r=2.0,
            c=c, gamma=gamma, ybar=(math.inf,) * 3, B=0.8,
        )
        _, want = optimal_y_for_path((0, 1, 2), c, inst.B, inst.r, gamma)
        assert brute_paths_unbounded(inst).cost == pytest.approx(want, rel=1e-12)

    def test_guard(self):
        n = 13
        arcs = tuple((i, i + 1) for i in range(n - 1))
        inst = Instance(
            n=n, arcs=arcs, s=0, t=n - 1, r=1.0,
            c=(1.0,) * len(arcs), gamma=(0.0,) * len(arcs),
            ybar=(math.inf,) * len(arcs), B=1.0,
        )
        with pytest.raises(TooLarge):
            brute_paths_unbounded(inst)

    def test_disconnected(self):
        inst = Instance(
            n=3, arcs=((0, 1),), s=0, t=2, r=1.0,
            c=(1.0,), gamma=(0.0,), ybar=(math.inf,), B=1.0,
        )
        with pytest.raises(Disconnected):
            brute_paths_unbounded(inst)


class TestBruteSubsets:
    def test_parallel_menu(self):
        fixed = gen_min_knapsack((1, 2, 3), (1, 1, 1), 3)
        sol = brute_subsets_fixed(fixed)
        assert sol.cost == 1.0
        assert sol.x == (0, 0, 1)

    def test_infeasible_series(self):
        from flowdesign.core import FixedInstance

        fixed = FixedInstance(
            n=3, arcs=((0, 1), (1, 2)), s=0, t=2, r=1.0, B=1.9,
            options=(((1.0, 1.0),), ((1.0, 1.0),)),
        )
        with pytest.raises(Infeasible):
            brute_subsets_fixed(fixed)

    def test_non_sp_instance_uses_energy_solver(self):
        from flowdesign.core import FixedInstance

        # K4 on nodes 0..3 is not series-parallel, so the oracle falls back
        arcs = tuple((i, j) for i in range(4) for j in range(i + 1, 4))
        fixed = FixedInstance(
            n=4, arcs=arcs, s=0, t=3, r=1.0, B=0.6,
            options=tuple(((1.0, 1.0),) for _ in arcs),
        )
        sol = brute_subsets_fixed(fixed)
        assert verify(
            Instance(
                n=4, arcs=arcs, s=0, t=3, r=1.0,
                c=(0.0,) * 6, gamma=(1.0,) * 6, ybar=(1.0,) * 6, B=0.6,
            ),
            sol,
        ).feasible
        # full K4 at unit conductance has R = 1/2; cheaper subsets must stay <= 0.6
        assert sol.cost <= 6.0

    def test_overflowing_parallel_sum_is_taken_at_half_scale(self):
        # the two parallel conductances 1.7e308 sum past the float range;
        # summed in full they read R = 0, and all three arcs seem to reach
        # 5.88e-309 where the truth is 8.82e-309
        from flowdesign.core import FixedInstance

        arcs = ((0, 1), (0, 1), (1, 2))
        tree = decompose(3, arcs, 0, 2)

        def fixed(B):
            return FixedInstance(
                n=3, arcs=arcs, s=0, t=2, r=1.0, B=B, options=(((1.7e308, 1.0),),) * 3,
            )

        with pytest.raises(Infeasible):
            brute_subsets_fixed(fixed(6e-309))
        sol = brute_subsets_fixed(fixed(9e-309))
        assert sol.x == (1, 1, 1)
        assert sol.achievedR == resistance_sp(tree, sol.y, 1.0) == pytest.approx(1.5 / 1.7e308)

    def test_numpy_pass_matches_resistance_sp_across_the_float_range(self):
        """With B just above the composed R of the full design, the oracle
        finds a design and reports the R that resistance_sp gives it, up to
        numpy's power rounding, for conductances drawn log-uniform over the
        float range or close to its top."""
        from flowdesign.core import FixedInstance

        rng = random.Random(16)
        lo, hi = math.log(1e-300), math.log(1.7e308)
        checked = 0
        for trial in range(300):
            m = rng.randint(2, 8)
            n, arcs, s, t = random_sp_structure(rng, m)
            r = rng.choice([1.0, 2.0])
            y = tuple(
                math.exp(rng.uniform(lo, hi)) if rng.random() < 0.5 else rng.uniform(0.5, 1.0) * 1.7e308
                for _ in range(m)
            )
            tree = decompose(n, arcs, s, t)
            B = resistance_sp(tree, y, r) * (1.0 + 1e-9)
            if not (0.0 < B < math.inf):
                continue
            checked += 1
            fixed = FixedInstance(
                n=n, arcs=arcs, s=s, t=t, r=r, B=B, options=tuple(((v, 1.0),) for v in y),
            )
            sol = brute_subsets_fixed(fixed)
            want = resistance_sp(tree, sol.y, r)
            assert sol.achievedR == pytest.approx(want, rel=1e-12) and want <= B, f"trial {trial}"
        assert checked >= 100

    def test_guard(self):
        fixed = gen_min_knapsack((1,) * 15, (1,) * 15, 1)
        with pytest.raises(TooLarge):
            brute_subsets_fixed(fixed)


class TestBruteContinuous:
    def test_single_path_supports_match_closed_form(self):
        rng = random.Random(42)
        for _ in range(6):
            k = rng.randint(1, 4)
            arcs = tuple((i, i + 1) for i in range(k))
            c = tuple(rng.uniform(0.5, 3.0) for _ in range(k))
            gamma = tuple(rng.uniform(0.0, 1.0) for _ in range(k))
            inst = Instance(
                n=k + 1, arcs=arcs, s=0, t=k, r=1.0,
                c=c, gamma=gamma, ybar=(50.0,) * k, B=1.0,
            )
            _, want = optimal_y_for_path(tuple(range(k)), c, inst.B, inst.r, gamma)
            got = brute_subsets_continuous_sp(inst)
            assert got.cost == pytest.approx(want, rel=1e-6)

    def test_guard(self):
        m = 11
        inst = Instance(
            n=2, arcs=((0, 1),) * m, s=0, t=1, r=1.0,
            c=(1.0,) * m, gamma=(0.0,) * m, ybar=(1.0,) * m, B=1.0,
        )
        with pytest.raises(TooLarge):
            brute_subsets_continuous_sp(inst)

    def test_needs_finite_bounds(self):
        inst = Instance(
            n=2, arcs=((0, 1),), s=0, t=1, r=1.0,
            c=(1.0,), gamma=(0.0,), ybar=(math.inf,), B=1.0,
        )
        with pytest.raises(ValidationError):
            brute_subsets_continuous_sp(inst)


class TestPartitionGadget:
    def test_shape_and_parameters(self):
        g = gen_partition((1, 1, 2), 1.0)
        assert isinstance(g, PartitionGadget)
        inst = g.instance
        assert inst.n == 4 and inst.m == 6
        assert g.T == 2.0
        assert g.threshold == 24.0
        assert inst.c == (1.0, 0.0, 1.0, 0.0, 4.0, 0.0)
        assert inst.gamma == (6.0, 8.0, 6.0, 8.0, 4.0, 8.0)
        assert inst.B == 1.0
        assert inst.unbounded()

    def test_balanced_subset_attains_threshold_exactly(self):
        g = gen_partition((1, 1, 2), 1.0)
        assert g.objective({2}) == 24.0
        assert g.objective({0, 1}) == 24.0

    def test_unbalanced_subsets(self):
        g = gen_partition((1, 1, 2), 1.0)
        assert g.objective({0}) == pytest.approx(23.0)
        assert g.objective(set()) == 24.0

    def test_odd_sum_rejected(self):
        with pytest.raises(OddSum):
            gen_partition((1, 2), 1.0)

    def test_nonpositive_rejected(self):
        with pytest.raises(ValidationError):
            gen_partition((0, 2), 1.0)

    @pytest.mark.parametrize("r", [1.0, 2.0])
    def test_objective_map_matches_path_oracle(self, r):
        g = gen_partition((1, 1, 2), r)
        inst = g.instance
        n_bundles = len(g.a)
        for mask in range(1 << n_bundles):
            chosen = {i for i in range(n_bundles) if mask & (1 << i)}
            path = tuple(2 * i if i in chosen else 2 * i + 1 for i in range(n_bundles))
            _, obj = optimal_y_for_path(path, inst.c, inst.B, inst.r, inst.gamma)
            assert obj == pytest.approx(g.objective(chosen), rel=1e-9)

    def test_brute_paths_optimum_is_closed_form_minimum(self):
        g = gen_partition((1, 1, 2), 1.0)
        best = min(
            g.objective({i for i in range(3) if mask & (1 << i)}) for mask in range(8)
        )
        assert brute_paths_unbounded(g.instance).cost == pytest.approx(best, rel=1e-9)


class TestKnapsackGadget:
    def test_example(self):
        fixed = gen_min_knapsack((3, 4), (1, 2), 4)
        assert brute_subsets_fixed(fixed).cost == 2.0

    def test_zero_demand(self):
        fixed = gen_min_knapsack((3, 4), (1, 2), 0)
        assert math.isinf(fixed.B)
        assert brute_subsets_fixed(fixed).cost == 0.0

    def test_oversized_demand_infeasible(self):
        fixed = gen_min_knapsack((3, 4), (1, 2), 8)
        with pytest.raises(Infeasible):
            brute_subsets_fixed(fixed)

    def test_length_mismatch(self):
        with pytest.raises(ValidationError):
            gen_min_knapsack((1, 2), (1,), 1)


class TestSteinerGadget:
    def test_star_whole_graph_feasible(self):
        g = gen_steiner_gadget(4, [(0, 1), (0, 2), (0, 3)], [1, 2, 3], [1, 1, 1], 1.0)
        sol = steiner_to_solution(g, [0, 1, 2])
        rep = verify(g.instance, sol)
        assert rep.feasible
        assert rep.cost == 3.0

    def test_arc_count(self):
        g = gen_steiner_gadget(5, [(0, 1), (1, 2), (2, 3), (3, 4)], [0, 2, 4], [1] * 4, 2.0)
        assert g.instance.m == 4 + (3 - 1)

    def test_dropping_terminal_arc_breaks_it(self):
        g = gen_steiner_gadget(3, [(0, 1), (1, 2)], [0, 2], [1, 1], 1.0)
        sol = steiner_to_solution(g, [0, 1])
        assert verify(g.instance, sol).feasible
        y = list(sol.y)
        y[g.new_arcs[0]] = 0.0
        R = effective_resistance(g.instance.n, g.instance.arcs, y, 1.0, g.instance.s, g.instance.t)
        assert R > g.instance.B

    def test_needs_two_terminals(self):
        with pytest.raises(ValidationError):
            gen_steiner_gadget(3, [(0, 1)], [0], [1], 1.0)


def test_random_sp_generator_is_deterministic():
    a, meta_a = gen_random_sp(987654321, 6, 2.0)
    b, meta_b = gen_random_sp(987654321, 6, 2.0)
    assert a == b
    assert meta_a == meta_b
    c, _ = gen_random_sp(987654322, 6, 2.0)
    assert a != c


def test_random_sp_structure_is_decomposable():
    from flowdesign import decompose

    rng = random.Random(13)
    for _ in range(20):
        m = rng.randint(1, 12)
        n, arcs, s, t = random_sp_structure(rng, m)
        assert len(arcs) == m
        decompose(n, arcs, s, t)
