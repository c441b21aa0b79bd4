import math
import random
import sys

import pytest

from flowdesign import (
    Instance, NotSeriesParallel, ValidationError, decompose, effective_resistance, min_energy_flow,
    resistance_sp, sp_unit_flow, verify,
)
from flowdesign.core import Solution
from flowdesign.oracles import random_sp_structure
from flowdesign.sptree import cond_to_res, key_res, res_to_cond


def test_two_parallel_arcs():
    sched = decompose(2, ((0, 1), (0, 1)), 0, 1)
    # the root, node 2, joins the leaves of arcs 0 and 1 in parallel
    assert sched.m == 2
    assert sched.steps == ((True, 0, 1),)


def test_triangle_with_chord():
    # s -> v -> t in series, bridged by a direct s -> t arc
    tree = decompose(3, ((0, 1), (1, 2), (0, 2)), 0, 2)
    assert tree.m == 3
    assert sorted(parallel for parallel, _, _ in tree.steps) == [False, True]
    # combined value: series 1+1 = 2 in parallel with 1 -> C = 1/2 + 1 = 1.5
    assert resistance_sp(tree, (1.0, 1.0, 1.0), 1.0) == pytest.approx(1 / 1.5)


def assert_schedule_invariants(sched, arcs, s, t):
    m = len(arcs)
    assert sched.m == m and len(sched.steps) == m - 1
    assert len(sched.ends) == m + len(sched.steps)
    # each arc is a leaf exactly once: node a < m is arc a's leaf
    assert [set(sched.ends[a]) for a in range(m)] == [set(uv) for uv in arcs]
    children = []
    for j, (parallel, a, b) in enumerate(sched.steps):
        node = m + j
        # children come before their parents
        assert 0 <= a < node and 0 <= b < node and a != b
        children += [a, b]
        ea, eb = set(sched.ends[a]), set(sched.ends[b])
        if parallel:
            assert ea == eb == set(sched.ends[node])
        else:
            assert len(ea & eb) == 1 and ea ^ eb == set(sched.ends[node])
    # each non-root node is a child exactly once; the root is last
    assert sorted(children) == list(range(len(sched.ends) - 1))
    assert set(sched.ends[-1]) == {s, t}


def test_schedule_invariants_on_random_sp_and_relabelled_copies():
    rng = random.Random(2715)
    for trial in range(40):
        m = rng.randint(1, 16)
        n, arcs, s, t = random_sp_structure(rng, m)
        assert_schedule_invariants(decompose(n, arcs, s, t), arcs, s, t)
        perm = list(range(m))
        rng.shuffle(perm)
        relabelled = tuple((arcs[p][1], arcs[p][0]) if rng.random() < 0.5 else arcs[p] for p in perm)
        assert_schedule_invariants(decompose(n, relabelled, s, t), relabelled, s, t)


def test_k4_rejected():
    arcs = tuple((i, j) for i in range(4) for j in range(i + 1, 4))
    with pytest.raises(NotSeriesParallel):
        decompose(4, arcs, 0, 3)


def test_wrong_terminals_rejected():
    # series path 0-1-2 is SP for (0, 2) but not for terminals (0, 1): the
    # dangling arc 1-2 can never be absorbed
    with pytest.raises(NotSeriesParallel):
        decompose(3, ((0, 1), (1, 2)), 0, 1)


def test_series_chain_value():
    tree = decompose(4, ((0, 1), (1, 2), (2, 3)), 0, 3)
    assert resistance_sp(tree, (1.0, 2.0, 4.0), 1.0) == pytest.approx(1.75)


def test_diamond_value():
    tree = decompose(4, ((0, 1), (1, 3), (0, 2), (2, 3)), 0, 3)
    assert resistance_sp(tree, (1.0,) * 4, 1.0) == pytest.approx(1.0)


def test_zero_leaf_on_series_spine():
    tree = decompose(3, ((0, 1), (1, 2)), 0, 2)
    assert resistance_sp(tree, (1.0, 0.0), 1.0) == math.inf


def test_unbounded_leaf_shorts_its_branch():
    tree = decompose(2, ((0, 1), (0, 1)), 0, 1)
    assert resistance_sp(tree, (math.inf, 1.0), 2.0) == 0.0


def test_matches_energy_solver_on_random_sp():
    rng = random.Random(60062)
    for trial in range(40):
        m = rng.randint(2, 16)
        n, arcs, s, t = random_sp_structure(rng, m)
        y = tuple(rng.uniform(0.1, 10.0) for _ in range(m))
        r = rng.choice([1.0, 1.5, 2.0, 3.0])
        tree = decompose(n, arcs, s, t)
        composed = resistance_sp(tree, y, r)
        solved = effective_resistance(n, arcs, y, r, s, t)
        assert abs(composed - solved) <= 1e-6 * (1.0 + composed), f"trial {trial}"


def test_composition_identities_both_spaces():
    rng = random.Random(8)
    for _ in range(15):
        m = rng.randint(2, 12)
        n, arcs, s, t = random_sp_structure(rng, m)
        y = tuple(rng.uniform(0.1, 10.0) for _ in range(m))
        r = rng.choice([1.0, 2.0, 3.0])
        tree = decompose(n, arcs, s, t)
        value = [1.0 / y[arc] ** r for arc in range(m)]
        for parallel, left, right in tree.steps:
            a, b = value[left], value[right]
            if parallel:
                value.append(cond_to_res(res_to_cond(a, r) + res_to_cond(b, r), r))
            else:
                direct = a + b
                via_c = cond_to_res(res_to_cond(a, r), r) + cond_to_res(res_to_cond(b, r), r)
                assert direct == pytest.approx(via_c, rel=1e-12)
                value.append(direct)
        assert value[-1] == pytest.approx(resistance_sp(tree, y, r), rel=1e-12)


def test_arc_relabeling_invariance():
    rng = random.Random(17)
    for _ in range(10):
        m = rng.randint(2, 10)
        n, arcs, s, t = random_sp_structure(rng, m)
        y = [rng.uniform(0.1, 10.0) for _ in range(m)]
        r = rng.choice([1.0, 2.0])
        base = resistance_sp(decompose(n, arcs, s, t), y, r)
        perm = list(range(m))
        rng.shuffle(perm)
        arcs2 = tuple(arcs[p] for p in perm)
        y2 = [y[p] for p in perm]
        shuffled = resistance_sp(decompose(n, arcs2, s, t), y2, r)
        assert shuffled == pytest.approx(base, rel=1e-12)


def test_unit_flow_matches_energy_solver():
    rng = random.Random(2024)
    for _ in range(20):
        m = rng.randint(2, 12)
        n, arcs, s, t = random_sp_structure(rng, m)
        y = tuple(rng.uniform(0.1, 10.0) for _ in range(m))
        r = rng.choice([1.0, 1.5, 2.0])
        tree = decompose(n, arcs, s, t)
        f = sp_unit_flow(tree, y, r, s)
        state = min_energy_flow(n, arcs, y, r, s, t)
        assert resistance_sp(tree, y, r) == pytest.approx(state.energy, rel=1e-8)
        for got, want in zip(f, state.f):
            assert got == pytest.approx(want, abs=1e-7)


def test_unit_flow_conservation():
    rng = random.Random(555)
    for _ in range(15):
        m = rng.randint(2, 10)
        n, arcs, s, t = random_sp_structure(rng, m)
        y = tuple(rng.uniform(0.1, 5.0) for _ in range(m))
        tree = decompose(n, arcs, s, t)
        f = sp_unit_flow(tree, y, 2.0, s)
        net = [0.0] * n
        for (u, v), flow in zip(arcs, f):
            net[u] -= flow
            net[v] += flow
        assert net[s] == pytest.approx(-1.0, abs=1e-6)
        assert net[t] == pytest.approx(1.0, abs=1e-6)


def test_signed_unit_flow_on_reversed_arcs():
    """sp_unit_flow's signed flow conserves on the graph itself, arcs
    reversed at random included, and is the minimum-energy flow."""
    rng = random.Random(4141)
    for trial in range(30):
        m = rng.randint(1, 14)
        n, arcs, s, t = random_sp_structure(rng, m)
        arcs = tuple((v, u) if rng.random() < 0.5 else (u, v) for u, v in arcs)
        y = tuple(rng.uniform(0.1, 10.0) for _ in range(m))
        r = rng.choice([1.0, 1.5, 2.0, 3.0])
        tree = decompose(n, arcs, s, t)
        flow = sp_unit_flow(tree, y, r, s)
        net = [0.0] * n
        for (u, v), f in zip(arcs, flow):
            net[u] -= f
            net[v] += f
        net[s] += 1.0
        net[t] -= 1.0
        assert max(abs(x) for x in net) <= 1e-12, f"trial {trial}"
        energy = sum(abs(f) * (abs(f) / ya) ** r for f, ya in zip(flow, y))
        assert energy == pytest.approx(resistance_sp(tree, y, r), rel=1e-12)
        state = min_energy_flow(n, arcs, y, r, s, t)
        for got, want in zip(flow, state.f):
            assert got == pytest.approx(want, abs=1e-8), f"trial {trial}"


def test_signed_unit_flow_on_a_reversed_series_chain():
    arcs = ((1, 0), (1, 2), (3, 2))
    tree = decompose(4, arcs, 0, 3)
    assert sp_unit_flow(tree, (1.0, 2.0, 3.0), 2.0, 0) == [-1.0, 1.0, -1.0]
    assert sp_unit_flow(tree, (1.0, 2.0, 3.0), 2.0, 3) == [1.0, -1.0, 1.0]


def test_powers_past_the_float_range_overstate_resistance():
    # 1e-300^-2 and 5e-324^-1 overflow; R must saturate high, C low
    assert cond_to_res(1e-300, 2.0) == math.inf
    assert res_to_cond(5e-324, 1.0) == sys.float_info.max
    tree = decompose(3, ((0, 1), (0, 1), (1, 2)), 0, 2)
    assert resistance_sp(tree, (1e-300,) * 3, 2.0) == math.inf


def test_overflowing_parallel_sum_is_taken_at_half_scale():
    # 1.7e308 + 1.7e308 overflows; the pair is 1 / 3.4e308, not 0, and the
    # flow splits evenly instead of 0 / inf each
    tree = decompose(3, ((0, 1), (0, 1), (1, 2)), 0, 2)
    y = (1.7e308,) * 3
    assert resistance_sp(tree, y, 1.0) == pytest.approx(1.5 / 1.7e308, rel=1e-12)
    assert sp_unit_flow(tree, y, 1.0, 0) == [0.5, 0.5, 1.0]


def test_infinite_conductance_child_takes_the_flow():
    # 1e200^-2 underflows to R = 0, so arc 0 reads infinite conductance
    tree = decompose(2, ((0, 1), (0, 1), (0, 1)), 0, 1)
    assert sp_unit_flow(tree, (1e200, 1.0, 1.0), 2.0, 0) == [1.0, 0.0, 0.0]
    assert sp_unit_flow(tree, (1.0, 1e200, 1e200), 2.0, 0) == [0.0, 0.5, 0.5]


def test_witness_conserves_across_the_float_range():
    """sp_unit_flow's signed flow passes verify's conservation
    check whenever resistance_sp is finite, with conductances log-uniform
    over the whole float range. Draws with R = +inf have no unit flow of
    finite energy and are left out."""
    rng = random.Random(3000)
    lo, hi = math.log(1e-300), math.log(1.7e308)
    checked = 0
    for trial in range(600):
        m = rng.randint(2, 12)
        n, arcs, s, t = random_sp_structure(rng, m)
        r = rng.choice([1.0, 2.0])
        y = tuple(math.exp(rng.uniform(lo, hi)) for _ in range(m))
        tree = decompose(n, arcs, s, t)
        if math.isinf(resistance_sp(tree, y, r)):
            continue
        checked += 1
        flow = sp_unit_flow(tree, y, r, s)
        inst = Instance(
            n=n, arcs=arcs, s=s, t=t, r=r,
            c=(1.0,) * m, gamma=(0.0,) * m, ybar=y, B=sys.float_info.max,
        )
        sol = Solution(x=(1,) * m, y=y, cost=0.0, achievedR=0.0)
        assert verify(inst, sol, flow=flow).reasons == (), f"trial {trial}"
    assert checked >= 200


def test_unit_flow_rejects_unbounded():
    tree = decompose(2, ((0, 1),), 0, 1)
    with pytest.raises(ValidationError):
        sp_unit_flow(tree, (math.inf,), 1.0, 0)


from hypothesis import example, given, settings
from hypothesis import strategies as st


@given(
    value=st.floats(min_value=1e-9, max_value=1e9),
    r=st.sampled_from([1.0, 1.5, 2.0, 3.0]),
)
@settings(max_examples=80, derandomize=True, deadline=None)
def test_resistance_conductance_maps_invert_property(value, r):
    """res_to_cond and cond_to_res are inverse bijections on (0, inf)."""
    assert cond_to_res(res_to_cond(value, r), r) == pytest.approx(value, rel=1e-12)
    assert res_to_cond(cond_to_res(value, r), r) == pytest.approx(value, rel=1e-12)


_MAX = sys.float_info.max


@given(
    key=st.one_of(st.floats(max_value=0.0), st.floats(-_MAX, -_MAX / 2)),
    r=st.sampled_from([1.0, 1.5, 2.0, 4.0]),
)
@example(key=-_MAX, r=1.0)
@example(key=-_MAX / 2, r=2.0)
@example(key=math.nextafter(-_MAX / 2, -math.inf), r=4.0)
@example(key=-math.inf, r=1.0)
@example(key=-0.0, r=1.0)
@example(key=-5e-324, r=1.5)
@settings(max_examples=300, derandomize=True, deadline=None)
def test_key_res_is_the_parallel_sum_of_two_halves_property(key, r):
    """key_res(key) is (ca + cb)^(-r) with ca = cb = -key, and a finite
    sum past the float range is taken at half scale."""
    ca = cb = -key
    c = ca + cb
    if math.isinf(c) and not math.isinf(ca):
        want = cond_to_res(ca / 2 + cb / 2, r) * 2.0 ** -r
    else:
        want = cond_to_res(c, r)
    assert key_res(key, r) == want
