import math
import random
import sys

import numpy as np
import pytest

from flowdesign import (
    Disconnected,
    Instance,
    ValidationError,
    effective_conductance,
    effective_resistance,
    kron,
    min_energy_flow,
    resistance,
)
from flowdesign.core import adjacency


def laplacian_resistance(n, arcs, y, s, t):
    """Independent r=1 oracle: solve the weighted graph Laplacian directly."""
    L = np.zeros((n, n))
    for (u, v), w in zip(arcs, y):
        if u == v or w == 0.0:
            continue
        L[u, u] += w
        L[v, v] += w
        L[u, v] -= w
        L[v, u] -= w
    rhs = np.zeros(n)
    rhs[s], rhs[t] = 1.0, -1.0
    pi = np.linalg.pinv(L) @ rhs
    return pi[s] - pi[t]


def random_connected(rng, n, extra):
    arcs = [(i, rng.randrange(i)) for i in range(1, n)]
    for _ in range(extra):
        u, v = rng.randrange(n), rng.randrange(n)
        arcs.append((u, v))
    return tuple(arcs)


def test_single_arc_state():
    state = min_energy_flow(2, ((0, 1),), (1.0,), 2.0, 0, 1)
    assert state.f == pytest.approx((1.0,))
    assert state.pi == pytest.approx((1.0, 0.0))
    assert state.energy == pytest.approx(1.0)


def test_diamond_splits_evenly():
    arcs = ((0, 1), (1, 3), (0, 2), (2, 3))
    state = min_energy_flow(4, arcs, (1.0,) * 4, 1.0, 0, 3)
    assert [abs(v) for v in state.f] == pytest.approx([0.5] * 4)
    assert state.energy == pytest.approx(1.0)


def test_three_arc_path_energy():
    arcs = ((0, 1), (1, 2), (2, 3))
    state = min_energy_flow(4, arcs, (1.0, 2.0, 4.0), 1.0, 0, 3)
    assert state.energy == pytest.approx(1.75)


def test_two_parallel_r2():
    R = effective_resistance(2, ((0, 1), (0, 1)), (1.0, 1.0), 2.0, 0, 1)
    assert R == pytest.approx(0.25)


def test_zero_support_is_infinite():
    assert effective_resistance(2, ((0, 1),), (0.0,), 1.0, 0, 1) == math.inf


@pytest.mark.parametrize("r", [1.0, 2.0, 3.5])
def test_parallel_conductance_adds(r):
    C = effective_conductance(2, ((0, 1),) * 3, (1.0, 2.0, 3.0), r, 0, 1)
    assert C == pytest.approx(6.0)


def test_disconnected_values():
    arcs = ((0, 1), (2, 3))
    assert effective_resistance(4, arcs, (1.0, 1.0), 1.0, 0, 3) == math.inf
    assert effective_conductance(4, arcs, (1.0, 1.0), 1.0, 0, 3) == 0.0
    with pytest.raises(Disconnected):
        min_energy_flow(4, arcs, (1.0, 1.0), 1.0, 0, 3)


def test_conductance_past_the_float_range_saturates():
    # R = 2.94e-309 is subnormal, and R ** -1 overflows.
    C = effective_conductance(2, ((0, 1), (0, 1)), (1.7e308, 1.7e308), 1.0, 0, 1)
    assert C == sys.float_info.max


def test_two_arc_path():
    R = effective_resistance(3, ((0, 1), (1, 2)), (1.0, 1.0), 1.0, 0, 2)
    assert R == pytest.approx(2.0)
    C = effective_conductance(3, ((0, 1), (1, 2)), (1.0, 1.0), 1.0, 0, 2)
    assert C == pytest.approx(0.5)


def test_matches_laplacian_on_random_graphs():
    rng = random.Random(20260401)
    for trial in range(25):
        n = rng.randint(3, 9)
        arcs = random_connected(rng, n, rng.randint(0, 6))
        y = tuple(rng.uniform(0.1, 10.0) for _ in arcs)
        got = effective_resistance(n, arcs, y, 1.0, 0, n - 1)
        want = laplacian_resistance(n, arcs, y, 0, n - 1)
        assert got == pytest.approx(want, rel=1e-8), f"trial {trial}"


def test_flow_caps_and_potential_coupling():
    rng = random.Random(7)
    for _ in range(20):
        n = rng.randint(3, 8)
        arcs = random_connected(rng, n, rng.randint(1, 5))
        y = tuple(rng.uniform(0.1, 10.0) for _ in arcs)
        r = rng.choice([1.0, 1.5, 2.0, 3.0])
        state = min_energy_flow(n, arcs, y, r, 0, n - 1)
        fmax = max(abs(v) for v in state.f)
        assert fmax <= 1.0 + 1e-9
        for (u, v), fa, ya in zip(arcs, state.f, y):
            if u == v:
                assert fa == 0.0
                continue
            drop = state.pi[u] - state.pi[v]
            want = ya * math.copysign(abs(drop) ** (1.0 / r), drop)
            assert abs(fa - want) <= 1e-6 * (1.0 + fmax)


def test_energy_equals_potential_drop():
    rng = random.Random(99)
    for _ in range(10):
        n = rng.randint(3, 7)
        arcs = random_connected(rng, n, 3)
        y = tuple(rng.uniform(0.5, 4.0) for _ in arcs)
        r = rng.choice([1.0, 2.0])
        state = min_energy_flow(n, arcs, y, r, 0, n - 1)
        assert state.energy == pytest.approx(state.pi[0] - state.pi[n - 1], rel=1e-8)


def test_monotone_in_conductance():
    rng = random.Random(314)
    for _ in range(30):
        n = rng.randint(3, 8)
        arcs = random_connected(rng, n, rng.randint(0, 4))
        y = [rng.uniform(0.1, 5.0) for _ in arcs]
        bigger = [v * rng.uniform(1.0, 3.0) for v in y]
        r = rng.choice([1.0, 1.5, 2.0])
        R1 = effective_resistance(n, arcs, y, r, 0, n - 1)
        R2 = effective_resistance(n, arcs, bigger, r, 0, n - 1)
        assert R2 <= R1 * (1.0 + 1e-7)


def test_convex_in_conductance():
    rng = random.Random(2718)
    for _ in range(30):
        n = rng.randint(3, 7)
        arcs = random_connected(rng, n, rng.randint(0, 4))
        y1 = [rng.uniform(0.1, 5.0) for _ in arcs]
        y2 = [rng.uniform(0.1, 5.0) for _ in arcs]
        lam = rng.uniform(0.05, 0.95)
        mix = [lam * a + (1 - lam) * b for a, b in zip(y1, y2)]
        r = rng.choice([1.0, 2.0])
        Rmix = effective_resistance(n, arcs, mix, r, 0, n - 1)
        R1 = effective_resistance(n, arcs, y1, r, 0, n - 1)
        R2 = effective_resistance(n, arcs, y2, r, 0, n - 1)
        bound = lam * R1 + (1 - lam) * R2
        assert Rmix <= bound + 1e-7 * (1.0 + abs(bound))


def test_series_parallel_closed_form_bounds():
    rng = random.Random(5)
    for _ in range(20):
        n = rng.randint(3, 8)
        arcs = random_connected(rng, n, rng.randint(1, 5))
        y = tuple(rng.uniform(0.1, 10.0) for _ in arcs)
        r = rng.choice([1.0, 1.5, 2.0, 3.0])
        R = effective_resistance(n, arcs, y, r, 0, n - 1)
        C = effective_conductance(n, arcs, y, r, 0, n - 1)
        assert R <= sum(1.0 / v ** r for v in y) * (1 + 1e-9)
        assert C <= sum(y) * (1 + 1e-9)


def test_self_loop_carries_nothing():
    arcs = ((0, 1), (1, 1))
    state = min_energy_flow(2, arcs, (2.0, 5.0), 1.0, 0, 1)
    assert state.f[1] == 0.0
    assert state.energy == pytest.approx(0.5)


# --- support_resistance: the installed arcs, with infinite ones contracted ---

def support_instance(n, arcs, r=1.0):
    m = len(arcs)
    return Instance(n=n, arcs=tuple(arcs), s=0, t=n - 1, r=r, c=(0.0,) * m, gamma=(0.0,) * m,
                    ybar=(math.inf,) * m, B=1.0)


def test_support_resistance_without_infinite_arcs_contracts_nothing(monkeypatch):
    """No union-find is built, the nodes keep their numbers and y = 0 arcs
    are dropped, so the energy solve sees exactly the installed arcs."""
    inst = support_instance(4, [(0, 1), (1, 3), (0, 2), (2, 3), (1, 2)], r=2.0)
    y = (1.0, 2.0, 0.0, 3.0, 0.5)
    calls = []

    def recorded(*args, **kwargs):
        calls.append((args, kwargs))
        return 1.25

    def no_union_find(n):
        raise AssertionError("contracted without an infinite arc")

    monkeypatch.setattr(resistance, "effective_resistance", recorded)
    monkeypatch.setattr(resistance, "DisjointSets", no_union_find)
    assert resistance.support_resistance(inst, y) == 1.25
    assert calls == [((4, [(0, 1), (1, 3), (2, 3), (1, 2)], [1.0, 2.0, 3.0, 0.5], 2.0, 0, 3), {})]


def test_support_resistance_contracts_infinite_arcs():
    inst = support_instance(4, [(0, 1), (1, 2), (2, 3), (1, 3)])
    # arc 0 shorts s to node 1; the rest is 2 + 1 in series parallel to 1
    R = resistance.support_resistance(inst, (math.inf, 0.5, 1.0, 1.0))
    assert R == pytest.approx(1.0 / (1.0 / 3.0 + 1.0))
    assert resistance.support_resistance(inst, (math.inf, 0.0, 0.0, math.inf)) == 0.0
    assert resistance.support_resistance(inst, (math.inf, 0.0, 0.0, 0.0)) == math.inf


# --- node-space solver: decorated graphs checked through their KKT residuals ---

KKT_TOL = 1e-6


def kkt_residuals(n, arcs, y, r, s, t, state):
    """Largest conservation residual, and the largest potential-law gap over
    max(1, |f|), the way the benchmark checker certifies a flow."""
    net = [0.0] * n
    for (u, v), fa in zip(arcs, state.f):
        net[u] += fa
        net[v] -= fa
    net[s] -= 1.0
    net[t] += 1.0
    scale = max(1.0, max(abs(v) for v in state.f))
    law = 0.0
    for (u, v), fa, ya in zip(arcs, state.f, y):
        drop = state.pi[u] - state.pi[v]
        want = ya * math.copysign(abs(drop) ** (1.0 / r), drop)
        law = max(law, abs(fa - want))
    return max(abs(v) for v in net), law / scale


def decorated_graph(rng, core_nodes=5):
    """Two random connected pieces joined by a chain of bridges (s in the
    first, t in the second), decorated with pendant trees, a dead cycle on a
    cut vertex, parallel arcs, self-loops and a separate component. Arcs point
    either way. Returns (n, arcs, s, t, dead), where dead holds arcs known to
    lie on no simple s-t path."""
    arcs, dead = [], set()
    n = 0

    def piece(size):
        nonlocal n
        base = n
        n += size
        for i in range(1, size):
            arcs.append((base + i, base + rng.randrange(i)))
        for _ in range(rng.randint(1, size)):
            arcs.append((base + rng.randrange(size), base + rng.randrange(size)))
            if arcs[-1][0] == arcs[-1][1]:
                dead.add(len(arcs) - 1)
        return base

    first = piece(rng.randint(2, core_nodes))
    chain = [n - 1]
    for _ in range(rng.randint(1, 2)):
        chain.append(n)
        n += 1
    second = piece(rng.randint(2, core_nodes))
    chain.append(second)
    for u, v in zip(chain, chain[1:]):
        arcs.append((u, v))
    s, t = first, n - 1

    for _ in range(rng.randint(1, 4)):  # pendant trees
        arcs.append((rng.randrange(n), n))
        dead.add(len(arcs) - 1)
        n += 1
    hub = rng.randrange(n)  # a dead cycle on a cut vertex
    arcs += [(hub, n), (n, n + 1), (n + 1, hub)]
    dead.update(range(len(arcs) - 3, len(arcs)))
    n += 2
    arcs += [(n, n + 1), (n + 1, n)]  # a separate component
    dead.update(range(len(arcs) - 2, len(arcs)))
    n += 2
    for _ in range(rng.randint(1, 3)):  # parallel copies and self-loops
        a = rng.randrange(len(arcs))
        arcs.append(arcs[a])
        if a in dead:
            dead.add(len(arcs) - 1)
        v = rng.randrange(n)
        arcs.append((v, v))
        dead.add(len(arcs) - 1)
    arcs = [(v, u) if rng.random() < 0.5 else (u, v) for u, v in arcs]
    return n, tuple(arcs), s, t, dead


@pytest.mark.parametrize("r", [1.0, 1.5, 2.0, 3.0])
def test_decorated_graphs_meet_kkt(r):
    rng = random.Random(f"decorated:{r}")
    for trial in range(40):
        n, arcs, s, t, dead = decorated_graph(rng)
        y = tuple(rng.uniform(0.1, 10.0) for _ in arcs)
        state = min_energy_flow(n, arcs, y, r, s, t)
        conservation, law = kkt_residuals(n, arcs, y, r, s, t, state)
        assert conservation <= KKT_TOL, f"trial {trial}"
        assert law <= KKT_TOL, f"trial {trial}"
        assert all(state.f[a] == 0.0 for a in dead), f"trial {trial}"
        R = state.pi[s] - state.pi[t]
        assert state.energy == pytest.approx(R, rel=1e-9), f"trial {trial}"
        if r == 1.0:
            assert R == pytest.approx(laplacian_resistance(n, arcs, y, s, t), rel=1e-9)


def test_block_arcs_are_those_on_simple_paths():
    from flowdesign.oracles import simple_paths

    rng = random.Random(404)
    for trial in range(60):
        n, arcs, s, t, _ = decorated_graph(rng, core_nodes=4)
        on_path = set()
        for path in simple_paths(n, arcs, s, t):
            on_path.update(path)
        assert resistance.st_block_arcs(adjacency(n, arcs), s, t) == sorted(on_path), f"trial {trial}"
    assert resistance.st_block_arcs(adjacency(4, ((0, 1), (2, 3))), 0, 3) == []


def test_large_r2_instance_meets_kkt():
    rng = random.Random(2002)
    n = 200
    arcs = random_connected(rng, n, 200)
    y = tuple(rng.uniform(0.1, 10.0) for _ in arcs)
    state = min_energy_flow(n, arcs, y, 2.0, 0, n - 1)
    conservation, law = kkt_residuals(n, arcs, y, 2.0, 0, n - 1, state)
    assert conservation <= KKT_TOL
    assert law <= KKT_TOL
    assert state.energy == pytest.approx(state.pi[0] - state.pi[n - 1], rel=1e-9)


def test_tiny_newton_budget_raises(monkeypatch):
    from flowdesign.errors import NonConvergence

    rng = random.Random(77)
    arcs = random_connected(rng, 12, 12)
    y = tuple(rng.uniform(0.1, 10.0) for _ in arcs)
    monkeypatch.setattr(resistance, "_MAX_STEPS", 1)
    with pytest.raises(NonConvergence):
        min_energy_flow(12, arcs, y, 2.0, 0, 11)
    monkeypatch.setattr(resistance, "_MAX_STEPS", 0)
    min_energy_flow(12, arcs, y, 1.0, 0, 11)  # r = 1 takes no steps


@pytest.mark.parametrize("r", [3.0, 4.0])
def test_wide_conductance_spread_converges_in_few_steps(r, monkeypatch):
    # y^r spans 1e6-1e8 here: a curvature floor high enough to bind leaves
    # the small-flow arcs it clips to crawl towards their optimum.
    rng = random.Random(f"spread:{r}")
    monkeypatch.setattr(resistance, "_MAX_STEPS", 60)
    for trial in range(30):
        n, arcs, s, t, _ = decorated_graph(rng, core_nodes=8)
        y = tuple(10.0 ** rng.uniform(-2.0, 0.0) for _ in arcs)
        state = min_energy_flow(n, arcs, y, r, s, t)
        conservation, _ = kkt_residuals(n, arcs, y, r, s, t, state)
        assert conservation <= KKT_TOL, f"trial {trial}"
        assert state.energy == pytest.approx(state.pi[s] - state.pi[t], rel=1e-9), f"trial {trial}"


@pytest.mark.parametrize("eps", [1e-4, 1e-6, 1e-8])
def test_near_balanced_bridge_keeps_the_potential_law(eps):
    # The bridge 1-2 carries about eps/4 and drops (eps/8)^3: far below the
    # rounding of the other potentials, so the bridge must be a tree arc
    # when the potentials are read off the flow.
    arcs = ((0, 1), (0, 2), (1, 3), (2, 3), (1, 2))
    y = (1.0, 1.0, 1.0 + eps, 1.0, 2.0)
    state = min_energy_flow(4, arcs, y, 3.0, 0, 3)
    assert 0.0 < abs(state.f[4]) < eps
    conservation, law = kkt_residuals(4, arcs, y, 3.0, 0, 3, state)
    assert conservation <= KKT_TOL
    assert law <= KKT_TOL


def test_resistance_is_the_energy_under_wide_conductance_spread():
    # A rung 1e12 times weaker than its parallel twin: pi_s - pi_t read along
    # the least-|f| spanning tree gave 4.44698; the energy and the closed form
    # agree on 4.8675893994.
    arcs = [(0, 1), (0, 1), (1, 2)]
    y = [0.641, 0.641e-12, 0.641]
    closed = (1.0 / (0.641 + 0.641e-12)) ** 2 + (1.0 / 0.641) ** 2
    got = effective_resistance(3, arcs, y, 2.0, 0, 2)
    assert got == pytest.approx(closed, rel=1e-12)
    assert got == pytest.approx(4.8675893994, rel=1e-10)


# --- level-block elimination against a dense reference ---


def grid_graph(k):
    arcs = []
    for i in range(k):
        for j in range(k):
            v = i * k + j
            if j + 1 < k:
                arcs.append((v, v + 1))
            if i + 1 < k:
                arcs.append((v, v + k))
    return k * k, tuple(arcs), 0, k * k - 1


def ladder_graph(length):
    rungs = [(2 * i, 2 * i + 1) for i in range(length)]
    rails = [(2 * i + j, 2 * i + 2 + j) for i in range(length - 1) for j in (0, 1)]
    return 2 * length, tuple(rungs + rails), 0, 2 * length - 1


def star_graph(spokes):
    """A hub 0 with spokes to the rim nodes 1..spokes, which form a path;
    t = 1, so every rim node past 2 shares one BFS level wider than a block."""
    arcs = [(0, i) for i in range(1, spokes + 1)] + [(i, i + 1) for i in range(1, spokes)]
    return spokes + 1, tuple(arcs), spokes, 1


def wide_random(rng, n=300):
    """A random connected graph with m = 2n, whose BFS levels from t are
    wider than a block, so that the solver reduces its low-degree nodes."""
    return n, list(random_connected(rng, n, n + 1)), 0, n - 1


def with_parallel_arcs(rng):
    n, arcs, s, t = wide_random(rng)
    arcs += [arcs[rng.randrange(len(arcs))] for _ in range(len(arcs) // 3)]
    return n, tuple(arcs), s, t


def with_pendant_paths(rng):
    """Paths of 1 to 4 new nodes off random nodes: half end there, off the
    s-t block, and half rejoin the graph, as chains of degree-2 nodes."""
    n, arcs, s, t = wide_random(rng)
    for i in range(40):
        path = [rng.randrange(n), *range(n, n + rng.randint(1, 4))]
        n = path[-1] + 1
        if i % 2:
            path.append(rng.randrange(n))
        arcs += zip(path, path[1:])
    return n, tuple(arcs), s, t


def with_cut_cycle(rng):
    n, arcs, s, t = wide_random(rng)
    hub = rng.randrange(n)
    arcs += [(hub, n), (n, n + 1), (n + 1, n + 2), (n + 2, hub)]
    return n + 3, tuple(arcs), s, t


def with_pendant_terminals(rng):
    """s and t each hang off the graph by one arc, so both have degree 1."""
    n, arcs, s, t = wide_random(rng)
    return n + 2, tuple(arcs + [(n, s), (t, n + 1)]), n, n + 1


def with_terminal_arc(rng):
    n, arcs, s, t = wide_random(rng)
    return n, tuple(arcs + [(t, s)]), s, t


def fan_graph(rng, paths=150):
    """s joined to t by paths of 1 to 3 arcs: every node but t has degree 2
    or, once its paths are reduced, 1, so the whole block reduces to t."""
    arcs, n = [], 2
    for _ in range(paths):
        path = [0, *range(n, n + rng.randint(0, 2)), 1]
        n += len(path) - 2
        arcs += zip(path, path[1:])
    return n, tuple(arcs), 0, 1


FAMILIES = {
    "grid": lambda rng: grid_graph(12),
    "random": lambda rng: (300, random_connected(rng, 300, 301), 0, 299),  # m = 2n
    "ladder": lambda rng: ladder_graph(100),
    "star": lambda rng: star_graph(150),
    "parallel": with_parallel_arcs,
    "pendant-paths": with_pendant_paths,
    "cut-cycle": with_cut_cycle,
    "pendant-terminals": with_pendant_terminals,
    "terminal-arc": with_terminal_arc,
    "fan": fan_graph,
}


def block_system(n, arcs, s, t):
    adj = adjacency(n, arcs)
    sys_ = resistance._BlockSystem(n, arcs, resistance.st_block_arcs(adj, s, t), adj, s, t)
    assert sys_._reduction or len(sys_._shapes) > 1  # the reduction or several blocks
    return sys_


def dense_laplacian(sys_, cond):
    """The grounded L(cond) assembled entry by entry."""
    L = np.zeros((sys_.k + 1, sys_.k + 1))
    for u, v, c in zip(sys_.u, sys_.v, cond):
        L[u, u] += c
        L[v, v] += c
        L[u, v] -= c
        L[v, u] -= c
    return L[:-1, :-1]


def backward_error(L, phi, rhs):
    """Normwise backward error of phi as a solution of L phi = rhs."""
    scale = np.abs(L).sum(axis=1).max() * np.abs(phi).max() + np.abs(rhs).max()
    return np.abs(L @ phi - rhs).max() / scale


@pytest.mark.parametrize("family", FAMILIES)
def test_block_elimination_is_as_stable_as_a_dense_solve(family):
    # Conductances log-uniform over 1e-6..1e6 make L as ill-conditioned as
    # k * 1e12, so two solves may differ in their leading digits; what a
    # stable solve guarantees is a backward error near the float epsilon.
    rng = random.Random(f"blocks:{family}")
    n, arcs, s, t = FAMILIES[family](rng)
    sys_ = block_system(n, arcs, s, t)
    for trial in range(3):
        cond = np.array([10.0 ** rng.uniform(-6.0, 6.0) for _ in sys_.u])
        L = dense_laplacian(sys_, cond)
        other = np.array([rng.uniform(-1.0, 1.0) for _ in range(sys_.k)])
        phi, fac = sys_.factor(cond, sys_.rhs)
        for got, rhs in ((phi, sys_.rhs), (sys_.resolve(fac, other), other)):
            assert backward_error(L, np.linalg.solve(L, rhs), rhs) <= 1e-14
            assert backward_error(L, got, rhs) <= 1e-14, f"trial {trial}"


@pytest.mark.parametrize("family", FAMILIES)
def test_block_elimination_matches_a_dense_solve(family):
    rng = random.Random(f"blocks-fwd:{family}")
    n, arcs, s, t = FAMILIES[family](rng)
    sys_ = block_system(n, arcs, s, t)
    for trial in range(3):
        cond = np.array([10.0 ** rng.uniform(-1.0, 1.0) for _ in sys_.u])
        L = dense_laplacian(sys_, cond)
        other = np.array([rng.uniform(-1.0, 1.0) for _ in range(sys_.k)])
        phi, fac = sys_.factor(cond, sys_.rhs)
        for got, rhs in ((phi, sys_.rhs), (sys_.resolve(fac, other), other)):
            want = np.linalg.solve(L, rhs)
            assert np.abs(got - want).max() <= 1e-10 * np.abs(want).max(), f"trial {trial}"


class DenseSystem(resistance._BlockSystem):
    """The solver's grounded system solved by ``np.linalg.solve`` on the
    dense Laplacian: the reference for the block elimination."""

    def factor(self, cond, rhs):
        L = dense_laplacian(self, cond)
        return np.linalg.solve(L, rhs), L

    def resolve(self, L, rhs):
        return np.linalg.solve(L, rhs)


# These fail at r = 4 (see ROADMAP, item 2). Stars with a rim and the
# parallel family stall on both draws with either solve. Of the
# pendant-terminal draws, draw 0 converges (block and dense agree to 1.1e-15)
# and draw 1 is refused as a singular block Laplacian (the dense solve
# raises LinAlgError).
STALLS_AT_R4 = {"star", "parallel", "pendant-terminals"}


@pytest.mark.parametrize(
    "family,r",
    [(f, r) for f in FAMILIES for r in (1.0, 1.5, 2.0, 4.0) if not (f in STALLS_AT_R4 and r > 2.0)],
)
def test_energy_matches_the_dense_reference(family, r, monkeypatch):
    # y^r, the conductance of the first solve, log-uniform over 1e-6..1e6.
    # At r = 1 the answer is that one solve, whose condition number reaches
    # k * 1e12, so the two agree to about 1e-5. At r > 1 Newton steps wash
    # the solve's error out of the energy, and the flows agree to the
    # tolerance at which the steps stop.
    rng = random.Random(f"dense-ref:{family}:{r}")
    n, arcs, s, t = FAMILIES[family](rng)
    block_system(n, arcs, s, t)
    rel, gap = (1e-3, 1e-3) if r == 1.0 else (1e-9, KKT_TOL)
    for trial in range(2):
        y = tuple(10.0 ** (rng.uniform(-6.0, 6.0) / r) for _ in arcs)
        got = min_energy_flow(n, arcs, y, r, s, t)
        with monkeypatch.context() as patch:
            patch.setattr(resistance, "_BlockSystem", DenseSystem)
            want = min_energy_flow(n, arcs, y, r, s, t)
        assert got.energy == pytest.approx(want.energy, rel=rel), f"trial {trial}"
        assert np.abs(np.subtract(got.f, want.f)).max() <= gap, f"trial {trial}"


@pytest.mark.parametrize("k,r,bound_mib", [(60, 1.0, 16), (40, 2.0, 16)])
def test_grid_solve_memory_stays_below_the_dense_laplacian(k, r, bound_mib):
    # The dense grounded Laplacian alone takes 8 (k^2 - 1)^2 bytes: 99 MiB at
    # k = 60, and at k = 40 the r > 1 projection kept a dense 20 MiB inverse.
    import tracemalloc

    rng = random.Random(f"memory:{k}")
    n, arcs, s, t = grid_graph(k)
    y = tuple(rng.uniform(0.5, 3.0) for _ in arcs)
    min_energy_flow(3, ((0, 1), (1, 2), (0, 2)), (1.0,) * 3, r, 0, 2)  # load numpy first
    tracemalloc.start()
    try:
        state = min_energy_flow(n, arcs, y, r, s, t)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < bound_mib * 2**20
    conservation, law = kkt_residuals(n, arcs, y, r, s, t, state)
    assert conservation <= KKT_TOL
    assert law <= KKT_TOL


@pytest.mark.parametrize("r,bound_mib", [(1.0, 6), (2.0, 12)])
def test_random_solve_memory_stays_below_the_level_blocks(r, bound_mib):
    # A random graph with m = 2n has BFS levels of a third of its nodes. As
    # dense blocks they peaked at 9.4 MiB at r = 1 and 22.5 MiB at r = 2;
    # with the low-degree nodes reduced first, at 3.8 and 8.1 MiB.
    import tracemalloc

    import flowdesign.kron  # noqa: F401  (compile the reduction before tracing)

    rng = random.Random(f"memory-random:{r}")
    n = 1200
    arcs = random_connected(rng, n, n + 1)
    y = tuple(rng.uniform(0.5, 3.0) for _ in arcs)
    min_energy_flow(3, ((0, 1), (1, 2), (0, 2)), (1.0,) * 3, r, 0, 2)  # load numpy first
    tracemalloc.start()
    try:
        state = min_energy_flow(n, arcs, y, r, 0, n - 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < bound_mib * 2**20
    conservation, law = kkt_residuals(n, arcs, y, r, 0, n - 1, state)
    assert conservation <= KKT_TOL
    assert law <= KKT_TOL


# The corpus shapes of the benchmark's energy workload: grids of side k and
# random graphs with m = 2n, at the r each is solved at there.
CORPUS_SHAPES = [("grid", k, 1.0) for k in (20, 28, 35)] + [("grid", k, 2.0) for k in (10, 12, 14)] \
    + [("random", n, 1.0) for n in (600, 900, 1200)] + [("random", n, 2.0) for n in (100, 150, 200)]


def energy_cases():
    """Family draws at r = 1, 1.5 and 2, at r = 4 where they converge, and
    the corpus shapes with y in [0.5, 3]."""
    for family in FAMILIES:
        for r in (1.0, 1.5, 2.0, 4.0):
            if not (family in STALLS_AT_R4 and r > 2.0):
                rng = random.Random(f"energy-bits:{family}:{r}")
                n, arcs, s, t = FAMILIES[family](rng)
                yield f"{family}-r{r}", n, arcs, tuple(10.0 ** (rng.uniform(-6.0, 6.0) / r) for _ in arcs), r, s, t
    for shape, size, r in CORPUS_SHAPES:
        rng = random.Random(f"energy-bits:{shape}:{size}")
        if shape == "grid":
            n, arcs, s, t = grid_graph(size)
        else:
            n, arcs, s, t = size, random_connected(rng, size, size + 1), 0, size - 1
        yield f"{shape}-{size}-r{r}", n, arcs, tuple(rng.uniform(0.5, 3.0) for _ in arcs), r, s, t


@pytest.mark.parametrize("case", list(energy_cases()), ids=lambda case: case[0])
def test_effective_resistance_is_the_flow_energy_bit_for_bit(case):
    _, n, arcs, y, r, s, t = case
    assert effective_resistance(n, arcs, y, r, s, t) == min_energy_flow(n, arcs, y, r, s, t).energy


def reference_rounds(n, tails, heads, nodes, t):
    """The Kron rounds recorded one node at a time, with a dict of neighbour
    to edge per node: the reference for the array recording. Returns the
    arc edges, the edge ends, the rounds as flat lists, and the neighbours
    each node has left."""
    nbrs = [{} for _ in range(n)]
    edge, eu, ev = [], [], []
    for x, z in zip(tails, heads):
        e = nbrs[x].setdefault(z, len(eu))
        if e == len(eu):
            nbrs[z][x] = e
            eu.append(x)
            ev.append(z)
        edge.append(e)
    low = {x for x in nodes if len(nbrs[x]) <= kron._DEGREE}
    low.discard(t)
    rounds = []
    while low:
        chosen, taken = [], set()
        for v in sorted(low, key=lambda v: (len(nbrs[v]), v)):
            if v not in taken:
                chosen.append(v)
                taken.add(v)
                taken.update(nbrs[v])
        width = max(len(nbrs[v]) for v in chosen)
        near_rows, edge_rows, fill_rows, touched = [], [], [], set()
        for v in chosen:
            star = nbrs[v]
            near = list(star)
            for a in near:
                del nbrs[a][v]
            for j, b in enumerate(near):
                around = nbrs[b]
                for a in near[:j]:
                    e = around.get(a)
                    if e is None:
                        e = around[a] = nbrs[a][b] = len(eu)
                        eu.append(a)
                        ev.append(b)
                    fill_rows.append(e)
            pad = width - len(near)
            fill_rows += [-1] * (width * (width - 1) - len(near) * (len(near) - 1) >> 1)
            near_rows += near + [t] * pad
            edge_rows += list(star.values()) + [-1] * pad
            touched.update(near)
            nbrs[v] = {}  # the solver's loop kept v's map; no search reached it
        low.difference_update(chosen)
        for a in touched:
            if len(nbrs[a]) <= kron._DEGREE and a != t:
                low.add(a)
            else:
                low.discard(a)
        rounds.append((chosen, near_rows, edge_rows, fill_rows))
    return edge, (eu, ev), rounds, [list(d) for d in nbrs]


def kron_cases():
    for family in FAMILIES:
        for draw in range(2):
            yield (f"{family}-{draw}", *FAMILIES[family](random.Random(f"kron:{family}:{draw}")))
    for n in (100, 600, 1200):
        for draw in range(2):
            rng = random.Random(f"kron:random:{n}:{draw}")
            yield f"random-{n}-{draw}", n, random_connected(rng, n, n + 1), 0, n - 1


@pytest.mark.parametrize("case", list(kron_cases()), ids=lambda case: case[0])
def test_array_rounds_are_the_reference_rounds(case):
    # The reduction is run on the whole block, reduced or not in a solve.
    _, n, arcs, s, t = case
    block = resistance.st_block_arcs(adjacency(n, arcs), s, t)
    tails = np.array([arcs[a][0] for a in block], dtype=np.intp)
    heads = np.array([arcs[a][1] for a in block], dtype=np.intp)
    edge, ends, rounds, left = reference_rounds(n, tails.tolist(), heads.tolist(),
                                                set(tails.tolist()) | set(heads.tolist()), t)
    got = kron.Reduction(n, tails, heads, t)
    assert got.reduced == [v for chosen, *_ in rounds for v in chosen]
    assert got.edge.tolist() == edge
    assert [[rows.ravel().tolist() for rows in r] for r in got._rounds] == [list(r) for r in rounds]
    assert [row[::2] for row in adjacency(n, got.left)] == left
    assert [got._eu.tolist(), got._ev.tolist()] == list(ends)


def test_a_wide_level_without_low_degree_nodes_reduces_nothing():
    # s and t joined through 70 middle nodes, each also joined to the two
    # on either side: one BFS level of 70 nodes, and every node but t has
    # more than 4 neighbours, so the reduction has no round.
    mid = 70
    arcs = [(0, 2 + i) for i in range(mid)] + [(2 + i, 1) for i in range(mid)]
    arcs += [(2 + i, 2 + (i + d) % mid) for i in range(mid) for d in (1, 2)]
    rng = random.Random("no-rounds")
    y = [rng.uniform(0.5, 3.0) for _ in arcs]
    sys_ = block_system(mid + 2, arcs, 0, 1)
    assert sys_._reduction is not None and sys_._reduction._rounds == []
    R = effective_resistance(mid + 2, arcs, y, 1.0, 0, 1)
    assert R == pytest.approx(laplacian_resistance(mid + 2, arcs, y, 0, 1), rel=1e-12)


@pytest.mark.parametrize("r", [1.0, 2.0])
def test_conductances_that_underflow_on_a_reduced_node_are_refused(r):
    # s and t joined by 100 paths of two arcs, so the middles are reduced.
    # Scaled by the largest, the first middle's conductances underflow to 0,
    # a zero row of L: refused like a singular block, never a NaN.
    from flowdesign.errors import NonConvergence

    arcs = [(0, 2 + i // 2) if i % 2 == 0 else (2 + i // 2, 1) for i in range(200)]
    y = [1e-300] * 2 + [1e300] * 198
    with pytest.raises(NonConvergence, match="singular"):
        min_energy_flow(102, arcs, y, r, 0, 1)


@pytest.mark.parametrize("at", [0, 2, 4])
@pytest.mark.parametrize("bad, message", [
    (math.nan, "conductances must be >= 0"),
    (-1.0, "conductances must be >= 0"),
    (-math.inf, "conductances must be >= 0"),
    (math.inf, "contract infinite conductances before solving"),
])
def test_one_bad_conductance_anywhere_is_named(bad, message, at):
    y = [1.0, 0.0, 2.0, 0.5, 1.0]
    y[at] = bad
    with pytest.raises(ValidationError) as info:
        min_energy_flow(3, ((0, 1), (1, 2), (0, 2), (0, 1), (1, 2)), y, 2.0, 0, 2)
    assert str(info.value) == message


# Conductances spread past what the solve can resolve: a series path whose
# y span 1e-264 to 1e-53 (the solve ends in NaN), and one whose y span
# 3.7 to 9.5e75 (the flow misses conservation by about 1.2e4 at a node).
UNRESOLVED = [
    (8, ((1, 0), (2, 0), (3, 1), (4, 1), (5, 0), (6, 2), (7, 2)), 3, 7,
     (2.5898e-264, 1.9614e-147, 6.1615e-53, 0.0, 0.0, 0.0, 5.9740e-117)),
    (8, ((1, 0), (2, 1), (3, 2), (4, 3), (5, 4), (6, 4), (7, 0)), 3, 7,
     (3.7288, 9.5048e75, 1.0, 0.0, 0.0, 0.0, 46353.76)),
]


def test_r1_flow_under_a_wide_spread_is_projected_until_it_conserves():
    # y log-uniform over 1e-6..1e6 on a ladder: the one r = 1 solve leaves
    # about 2e-5 of its residual in the flow, which the projections remove
    from flowdesign.core import FLOW_SLACK_PER_ARC

    rng = random.Random("dense-ref:ladder:1.0")
    n, arcs, s, t = ladder_graph(100)
    y = tuple(10.0 ** rng.uniform(-6.0, 6.0) for _ in arcs)
    state = min_energy_flow(n, arcs, y, 1.0, s, t)
    conservation, _ = kkt_residuals(n, arcs, y, 1.0, s, t, state)
    assert conservation <= FLOW_SLACK_PER_ARC * len(arcs)


@pytest.mark.parametrize("case", UNRESOLVED)
def test_a_flow_that_does_not_conserve_has_no_energy(case):
    from flowdesign.errors import NonConvergence

    n, arcs, s, t, y = case
    for solve in (effective_resistance, min_energy_flow):
        with pytest.raises(NonConvergence, match="misses conservation"):
            solve(n, arcs, y, 1.0, s, t)


def test_newton_budget_ends_a_descent_that_never_stops():
    # three arcs in series and parallel at r = 2 whose y spread by 1e58: the
    # steps neither meet the stop test nor stall, so the budget ends them
    from flowdesign.errors import NonConvergence

    arcs = ((1, 0), (2, 1), (3, 0), (4, 0), (3, 0))
    y = (3.1148, 3.1333e58, 0.0, 0.0, 1.4987e58)
    with pytest.raises(NonConvergence, match=f"budget of {resistance._MAX_STEPS} Newton steps"):
        effective_resistance(5, arcs, y, 2.0, 2, 3)
