import math
import random

import pytest

from flowdesign import (
    AllVariableCostsZero,
    Disconnected,
    Instance,
    UNBOUNDED,
    solve_fixed_cost_only,
    solve_path_fptas,
    solve_variable_cost_only,
    verify,
)
from flowdesign.oracles import brute_paths_unbounded
from flowdesign.pathdesign import lambda_bounds, lambda_grid, optimal_y_for_path, to_solution


def unbounded_instance(n, arcs, c, gamma, r=1.0, B=1.0, s=0, t=None):
    return Instance(
        n=n,
        arcs=tuple(arcs),
        s=s,
        t=n - 1 if t is None else t,
        r=r,
        c=tuple(c),
        gamma=tuple(gamma),
        ybar=(math.inf,) * len(arcs),
        B=B,
    )


def random_unbounded(rng, n_max=8):
    n = rng.randint(3, n_max)
    arcs = [(i, rng.randrange(i)) for i in range(1, n)]
    for _ in range(rng.randint(1, 6)):
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            arcs.append((u, v))
    return n, arcs


class TestOptimalY:
    def test_single_arc(self):
        y, obj = optimal_y_for_path((0,), (1.0,), 1.0, 1.0)
        assert y == (1.0,)
        assert obj == pytest.approx(1.0)

    def test_equal_series_pair(self):
        y, obj = optimal_y_for_path((0, 1), (1.0, 1.0), 1.0, 1.0)
        assert y == pytest.approx((2.0, 2.0))
        assert obj == pytest.approx(4.0)

    def test_uneven_series_pair(self):
        # sum of sqrt(c) is 3, so y = 3/sqrt(c) and the objective is 3^2
        y, obj = optimal_y_for_path((0, 1), (1.0, 4.0), 1.0, 1.0)
        assert y == pytest.approx((3.0, 1.5))
        assert obj == pytest.approx(9.0)

    def test_free_arc_gets_sentinel(self):
        y, obj = optimal_y_for_path((0, 1), (0.0, 1.0), 1.0, 1.0)
        assert y[0] == UNBOUNDED
        assert obj == pytest.approx(1.0)

    def test_gamma_added_when_given(self):
        _, obj = optimal_y_for_path((0,), (1.0,), 1.0, 1.0, gamma=(2.5,))
        assert obj == pytest.approx(3.5)

    def test_constraint_tight_at_solution(self):
        rng = random.Random(10)
        for _ in range(25):
            k = rng.randint(1, 5)
            c = tuple(rng.uniform(0.0, 4.0) for _ in range(k))
            B = rng.uniform(0.25, 4.0)
            r = rng.choice([1.0, 1.5, 2.0, 3.0])
            y, _ = optimal_y_for_path(tuple(range(k)), c, B, r)
            used = sum(1.0 / v ** r for v, cv in zip(y, c) if cv > 0.0)
            if any(cv > 0.0 for cv in c):
                assert used == pytest.approx(B, rel=1e-9)

    def test_kkt_multiplier_common_across_arcs(self):
        rng = random.Random(11)
        for _ in range(25):
            k = rng.randint(2, 5)
            c = tuple(rng.uniform(0.1, 9.0) for _ in range(k))
            B = rng.uniform(0.5, 2.0)
            r = rng.choice([1.0, 2.0])
            y, _ = optimal_y_for_path(tuple(range(k)), c, B, r)
            lams = [cv * yv ** (r + 1.0) / r for cv, yv in zip(c, y)]
            assert max(lams) / min(lams) <= 1.0 + 1e-9


class TestExactSpecialCases:
    def test_fixed_cost_picks_cheaper_parallel(self):
        inst = unbounded_instance(2, [(0, 1), (0, 1)], (0.0, 0.0), (3.0, 5.0))
        ps = solve_fixed_cost_only(inst)
        assert ps.path == (0,)
        assert ps.objective == pytest.approx(3.0)
        assert ps.y == (UNBOUNDED,)

    def test_fixed_cost_zero_gamma(self):
        inst = unbounded_instance(3, [(0, 1), (1, 2)], (0.0, 0.0), (0.0, 0.0))
        assert solve_fixed_cost_only(inst).objective == 0.0

    def test_fixed_cost_matches_oracle(self):
        rng = random.Random(600)
        for _ in range(20):
            n, arcs = random_unbounded(rng)
            inst = unbounded_instance(
                n, arcs, (0.0,) * len(arcs), tuple(rng.uniform(0.0, 5.0) for _ in arcs)
            )
            got = solve_fixed_cost_only(inst)
            want = brute_paths_unbounded(inst)
            assert got.objective == pytest.approx(want.cost, rel=1e-9)

    def test_variable_cost_picks_smaller_transformed_length(self):
        inst = unbounded_instance(2, [(0, 1), (0, 1)], (1.0, 4.0), (0.0, 0.0))
        ps = solve_variable_cost_only(inst)
        assert ps.path == (0,)
        assert ps.y == pytest.approx((1.0,))
        assert ps.objective == pytest.approx(1.0)

    def test_variable_cost_series_closed_form(self):
        c = (2.0, 3.0, 0.5)
        r = 2.0
        B = 0.5
        inst = unbounded_instance(4, [(0, 1), (1, 2), (2, 3)], c, (0.0,) * 3, r=r, B=B)
        ps = solve_variable_cost_only(inst)
        e = r / (r + 1.0)
        want = sum(v ** e for v in c) ** (1.0 / e) / B ** (1.0 / r)
        assert ps.objective == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("r", [1.0, 2.0])
    def test_variable_cost_matches_oracle(self, r):
        rng = random.Random(int(700 + r))
        for _ in range(20):
            n, arcs = random_unbounded(rng)
            inst = unbounded_instance(
                n, arcs, tuple(rng.uniform(0.0, 5.0) for _ in arcs), (0.0,) * len(arcs), r=r
            )
            got = solve_variable_cost_only(inst)
            want = brute_paths_unbounded(inst)
            assert got.objective == pytest.approx(want.cost, rel=1e-9)

    def test_disconnected(self):
        inst = unbounded_instance(3, [(0, 1)], (0.0,), (1.0,), t=2)
        with pytest.raises(Disconnected):
            solve_fixed_cost_only(inst)


class TestLambdaMachinery:
    def test_bounds_single_arc(self):
        inst = unbounded_instance(2, [(0, 1)], (1.0,), (0.0,))
        assert lambda_bounds(inst) == (1.0, 1.0)

    def test_bounds_two_costs(self):
        inst = unbounded_instance(3, [(0, 1), (1, 2)], (1.0, 4.0), (0.0, 0.0))
        L, U = lambda_bounds(inst)
        assert L == pytest.approx(1.0)
        assert U == pytest.approx(16.0)

    def test_bounds_r2(self):
        inst = unbounded_instance(2, [(0, 1)], (2.0,), (0.0,), r=2.0, B=4.0)
        L, _ = lambda_bounds(inst)
        assert L == pytest.approx(1.0 / 8.0)

    def test_bounds_reject_all_zero(self):
        inst = unbounded_instance(2, [(0, 1)], (0.0,), (1.0,))
        with pytest.raises(AllVariableCostsZero):
            lambda_bounds(inst)

    def test_bounds_survive_an_underflowing_budget_power(self):
        # r B^((r+1)/r) underflows to 0 at B = 1e-300, r = 2; in log space
        # L = c / (r B^1.5) = 1e-300 / (2e-450) is still a float.
        inst = unbounded_instance(2, [(0, 1)], (1e-300,), (0.0,), r=2.0, B=1e-300)
        L, U = lambda_bounds(inst)
        assert L == pytest.approx(5e149, rel=1e-9)
        assert U == L

    def test_bounds_beyond_the_float_range_are_a_typed_error(self):
        from flowdesign.errors import OutOfRange

        inst = unbounded_instance(2, [(0, 1)], (1.0,), (0.0,), r=2.0, B=1e-300)
        with pytest.raises(OutOfRange):
            lambda_bounds(inst)

    def test_grid_covers_range(self):
        inst = unbounded_instance(3, [(0, 1), (1, 2)], (0.5, 7.0), (1.0, 0.0), r=1.5, B=0.75)
        grid = lambda_grid(inst, 0.25)
        L, U = lambda_bounds(inst)
        assert grid.points[0] == pytest.approx(L)
        assert grid.points[-1] > U
        ratio = (1.0 + 0.25 / 3.0) ** (inst.r + 1.0)
        for a, b in zip(grid.points, grid.points[1:]):
            assert b / a == pytest.approx(ratio, rel=1e-9)


class TestPathFptas:
    def test_consistent_with_fixed_cost_solver(self):
        inst = unbounded_instance(2, [(0, 1), (0, 1)], (0.0, 0.0), (3.0, 5.0))
        assert solve_path_fptas(inst, 0.5).objective == pytest.approx(3.0)

    def test_two_parallel_mixed_costs(self):
        # installing arc 0 costs 1*y + 10, arc 1 costs 4*y; true optimum is 4
        inst = unbounded_instance(2, [(0, 1), (0, 1)], (1.0, 4.0), (10.0, 0.0))
        ps = solve_path_fptas(inst, 0.1)
        assert ps.objective <= 4.4
        assert ps.path == (1,)

    @pytest.mark.parametrize("eps", [0.5, 0.1])
    def test_guarantee_on_random_instances(self, eps):
        rng = random.Random(int(eps * 1000))
        for trial in range(25):
            n, arcs = random_unbounded(rng)
            inst = unbounded_instance(
                n,
                arcs,
                tuple(rng.choice([0.0, rng.uniform(0.1, 8.0)]) for _ in arcs),
                tuple(rng.uniform(0.0, 4.0) for _ in arcs),
                r=rng.choice([1.0, 1.5, 2.0]),
                B=rng.uniform(0.5, 3.0),
            )
            want = brute_paths_unbounded(inst)
            got = solve_path_fptas(inst, eps)
            assert got.objective <= (1.0 + eps) * want.cost + 1e-9, f"trial {trial}"
            assert got.objective >= want.cost - 1e-9 * (1.0 + want.cost)
            used = sum(
                1.0 / v ** inst.r for v, a in zip(got.y, got.path) if inst.c[a] > 0.0
            )
            if used > 0.0:
                assert used == pytest.approx(inst.B, rel=1e-9)
            sol = to_solution(inst, got)
            assert verify(inst, sol).feasible

    def test_rejects_bad_epsilon(self):
        inst = unbounded_instance(2, [(0, 1)], (1.0,), (0.0,))
        with pytest.raises(Exception):
            solve_path_fptas(inst, 1.5)


from hypothesis import given, settings
from hypothesis import strategies as st


@given(
    k=st.integers(1, 6),
    r=st.sampled_from([1.0, 1.5, 2.0, 3.0]),
    B=st.floats(min_value=0.01, max_value=100.0),
    data=st.data(),
)
@settings(max_examples=80, derandomize=True, deadline=None)
def test_budget_spent_exactly_property(k, r, B, data):
    """The closed-form conductances always spend the budget exactly."""
    c = tuple(data.draw(st.floats(min_value=0.01, max_value=50.0)) for _ in range(k))
    y, _ = optimal_y_for_path(tuple(range(k)), c, B, r)
    assert sum(v ** -r for v in y) == pytest.approx(B, rel=1e-9)


@st.composite
def unbounded_instances(draw):
    """Connected instances with n <= 8, some zero costs, ybar unbounded."""
    n = draw(st.integers(2, 8))
    arcs = [(i, draw(st.integers(0, i - 1))) for i in range(1, n)]
    arcs += draw(st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda e: e[0] != e[1]),
        max_size=8,
    ))
    # Fixed costs run against variable costs (gamma near 3/c), so that the
    # (S, Gamma) frontier has real trade-offs; some arcs are free in c.
    c = tuple(
        draw(st.one_of(st.just(0.0), st.floats(min_value=0.1, max_value=5.0))) for _ in arcs
    )
    gamma = tuple(
        draw(st.floats(min_value=0.5, max_value=1.5)) * 3.0 / max(v, 0.1) for v in c
    )
    return unbounded_instance(
        n, arcs, c, gamma,
        r=draw(st.sampled_from([1.0, 1.5, 2.0, 3.0])),
        B=draw(st.floats(min_value=0.5, max_value=2.0)),
    )


@given(inst=unbounded_instances(), eps=st.sampled_from([0.5, 0.1, 0.01]))
@settings(max_examples=300, derandomize=True, deadline=None)
def test_path_fptas_against_path_enumeration(inst, eps):
    """The frontier pass stays within 1+eps of the brute-force optimum."""
    want = brute_paths_unbounded(inst).cost
    got = solve_path_fptas(inst, eps)
    assert want * (1.0 - 1e-12) <= got.objective <= (1.0 + eps) * want * (1.0 + 1e-12)
    nodes = path_nodes(inst, got.path)
    assert nodes[-1] == inst.t and len(set(nodes)) == len(nodes)
    assert verify(inst, to_solution(inst, got)).feasible


def path_nodes(inst, path):
    """Nodes of an arc sequence walked from s, checking each arc continues the walk."""
    nodes = [inst.s]
    for a in path:
        u, v = inst.arcs[a]
        assert nodes[-1] in (u, v)
        nodes.append(v if nodes[-1] == u else u)
    return nodes


def test_zero_cost_cycle_keeps_the_path_simple():
    # 1-2-3 is a triangle of arcs that cost nothing on either axis, hung
    # between two priced arcs; walking round it is free but not simple.
    arcs = [(0, 1), (1, 2), (2, 3), (3, 1), (1, 4), (3, 4), (0, 4)]
    c = (1.0, 0.0, 0.0, 0.0, 2.0, 1.0, 9.0)
    gamma = (1.0, 0.0, 0.0, 0.0, 1.0, 0.5, 9.0)
    inst = unbounded_instance(5, arcs, c, gamma)
    for eps in (0.5, 0.1, 0.01):
        got = solve_path_fptas(inst, eps)
        nodes = path_nodes(inst, got.path)
        assert nodes[-1] == inst.t
        assert len(set(nodes)) == len(nodes), nodes
        assert got.objective == pytest.approx(brute_paths_unbounded(inst).cost, rel=1e-12)


def test_wide_bracket_is_narrowed_before_the_final_pass(monkeypatch):
    # Arc 0 is nearly free in c but carries a huge gamma, arc 1 the reverse,
    # so both seed paths cost about 1e3 while LB = phi(min S) is 1e-6.
    # The cheap middle arc (cost 2) is found only after the doubling bracket.
    from flowdesign import rsp

    inst = unbounded_instance(2, [(0, 1), (0, 1), (0, 1)], (1e-6, 1e6, 1.0), (1e3, 0.0, 1.0))
    calls = []
    orig = rsp._label_search

    def spy(*args):
        calls.append(args[-2:])  # (delta, cap)
        return orig(*args)

    monkeypatch.setattr(rsp, "_label_search", spy)
    for eps in (0.5, 0.01):
        calls.clear()
        got = solve_path_fptas(inst, eps)
        assert got.path == (2,)
        assert got.objective == pytest.approx(2.0)
        assert len(calls) > 10
        delta, cap = calls[-1]
        assert cap / delta <= 4.0 * inst.n / eps


def test_isolated_nodes_change_neither_the_rounding_nor_the_path():
    # The rounding step is epsilon LB / k with k the nodes an arc touches;
    # rounded by n = 11,000 instead, this gadget's answer moved from
    # 149560 to 149488.
    from flowdesign.oracles import gen_partition

    inst = gen_partition([11, 11, 19, 21, 13, 35, 14, 12, 13, 25], 1.0).instance
    got = solve_path_fptas(inst, 0.5)
    assert solve_path_fptas(inst._replace(n=1000 * inst.n), 0.5) == got
    assert got.objective == 149560.0


def test_grid_bound_violation_is_a_typed_error(monkeypatch):
    from flowdesign import pathdesign
    from flowdesign.errors import BoundExceeded

    inst = unbounded_instance(2, [(0, 1)], (1.0,), (0.0,))
    monkeypatch.setattr(pathdesign, "lambda_bounds", lambda _: (1.0, 1e12))
    with pytest.raises(BoundExceeded):
        lambda_grid(inst, 0.5)
