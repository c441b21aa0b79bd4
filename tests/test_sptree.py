import math
import random
import sys

import pytest

from flowdesign import NotSeriesParallel, ValidationError, decompose, effective_resistance, min_energy_flow, resistance_sp, sp_unit_flow
from flowdesign.oracles import random_sp_structure
from flowdesign.sptree import (
    Leaf, Parallel, Series, arc_directions, cond_to_res, leaf_arcs, postorder, res_to_cond,
)


def test_two_parallel_arcs():
    tree = decompose(2, ((0, 1), (0, 1)), 0, 1)
    assert isinstance(tree, Parallel)
    assert isinstance(tree.left, Leaf) and isinstance(tree.right, Leaf)
    assert sorted(leaf_arcs(tree)) == [0, 1]


def test_triangle_with_chord():
    # s -> v -> t in series, bridged by a direct s -> t arc
    tree = decompose(3, ((0, 1), (1, 2), (0, 2)), 0, 2)
    kinds = [type(node).__name__ for node in postorder(tree)]
    assert kinds.count("Leaf") == 3
    assert kinds.count("Series") == 1
    assert kinds.count("Parallel") == 1
    # combined value: series 1+1 = 2 in parallel with 1 -> C = 1/2 + 1 = 1.5
    assert resistance_sp(tree, (1.0, 1.0, 1.0), 1.0) == pytest.approx(1 / 1.5)


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
        value = {}
        for node in postorder(tree):
            if isinstance(node, Leaf):
                value[id(node)] = 1.0 / y[node.arc] ** r
            elif isinstance(node, Series):
                a, b = value[id(node.left)], value[id(node.right)]
                direct = a + b
                via_c = cond_to_res(res_to_cond(a, r), r) + cond_to_res(res_to_cond(b, r), r)
                assert direct == pytest.approx(via_c, rel=1e-12)
                value[id(node)] = direct
            else:
                a, b = value[id(node.left)], value[id(node.right)]
                combined = cond_to_res(res_to_cond(a, r) + res_to_cond(b, r), r)
                value[id(node)] = combined
        assert value[id(tree)] == pytest.approx(resistance_sp(tree, y, r), rel=1e-12)


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
        f, R = sp_unit_flow(tree, y, r)
        state = min_energy_flow(n, arcs, y, r, s, t)
        assert R == pytest.approx(state.energy, rel=1e-8)
        for got, want in zip(f, state.f):
            assert got == pytest.approx(abs(want), abs=1e-7)


def test_unit_flow_conservation():
    rng = random.Random(555)
    for _ in range(15):
        m = rng.randint(2, 10)
        n, arcs, s, t = random_sp_structure(rng, m)
        y = tuple(rng.uniform(0.1, 5.0) for _ in range(m))
        tree = decompose(n, arcs, s, t)
        f, _ = sp_unit_flow(tree, y, 2.0)
        state = min_energy_flow(n, arcs, y, 2.0, s, t)
        net = [0.0] * n
        for (u, v), mag, signed in zip(arcs, f, state.f):
            flow = math.copysign(mag, signed) if signed != 0.0 else 0.0
            net[u] -= flow
            net[v] += flow
        assert net[s] == pytest.approx(-1.0, abs=1e-6)
        assert net[t] == pytest.approx(1.0, abs=1e-6)


def test_arc_directions_sign_a_unit_flow():
    """Signed by arc_directions, sp_unit_flow conserves on the graph itself,
    arcs reversed at random included, and is the minimum-energy flow."""
    rng = random.Random(4141)
    for trial in range(30):
        m = rng.randint(1, 14)
        n, arcs, s, t = random_sp_structure(rng, m)
        arcs = tuple((v, u) if rng.random() < 0.5 else (u, v) for u, v in arcs)
        y = tuple(rng.uniform(0.1, 10.0) for _ in range(m))
        r = rng.choice([1.0, 1.5, 2.0, 3.0])
        tree = decompose(n, arcs, s, t)
        mags, _ = sp_unit_flow(tree, y, r)
        sign = arc_directions(tree, arcs, s)
        assert set(sign) <= {1, -1}
        flow = [d * f for d, f in zip(sign, mags)]
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


def test_arc_directions_on_a_reversed_series_chain():
    arcs = ((1, 0), (1, 2), (3, 2))
    tree = decompose(4, arcs, 0, 3)
    assert arc_directions(tree, arcs, 0) == [-1, 1, -1]
    assert arc_directions(tree, arcs, 3) == [1, -1, 1]


def test_powers_past_the_float_range_overstate_resistance():
    # 1e-300^-2 and 5e-324^-1 overflow; R must saturate high, C low
    assert cond_to_res(1e-300, 2.0) == math.inf
    assert res_to_cond(5e-324, 1.0) == sys.float_info.max
    tree = decompose(3, ((0, 1), (0, 1), (1, 2)), 0, 2)
    assert resistance_sp(tree, (1e-300,) * 3, 2.0) == math.inf


def test_unit_flow_rejects_unbounded():
    tree = decompose(2, ((0, 1),), 0, 1)
    with pytest.raises(ValidationError):
        sp_unit_flow(tree, (math.inf,), 1.0)


from hypothesis import given, settings
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
