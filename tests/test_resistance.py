import math
import random
import sys

import numpy as np
import pytest

from flowdesign import (
    Disconnected,
    Instance,
    effective_conductance,
    effective_resistance,
    min_energy_flow,
    resistance,
)


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
    from flowdesign.core import st_block_arcs
    from flowdesign.oracles import simple_paths

    rng = random.Random(404)
    for trial in range(60):
        n, arcs, s, t, _ = decorated_graph(rng, core_nodes=4)
        on_path = set()
        for path in simple_paths(n, arcs, s, t):
            on_path.update(path)
        assert st_block_arcs(n, arcs, s, t) == sorted(on_path), f"trial {trial}"
    assert st_block_arcs(4, ((0, 1), (2, 3)), 0, 3) == []


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


FAMILIES = {
    "grid": lambda rng: grid_graph(12),
    "random": lambda rng: (300, random_connected(rng, 300, 301), 0, 299),  # m = 2n
    "ladder": lambda rng: ladder_graph(100),
    "star": lambda rng: star_graph(150),
}


def block_system(n, arcs, s, t):
    from flowdesign.core import st_block_arcs

    sys_ = resistance._BlockSystem(n, arcs, st_block_arcs(n, arcs, s, t), s, t)
    assert len(sys_._shapes) > 1
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


# Stars with a rim stall at r >= 3 with either solve (see ROADMAP, item 2).
@pytest.mark.parametrize(
    "family,r",
    [(f, r) for f in FAMILIES for r in (1.0, 1.5, 2.0, 4.0) if not (f == "star" and r > 2.0)],
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
