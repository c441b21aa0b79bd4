import heapq
import itertools
import math
import random
import types

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowdesign import (
    Disconnected, Infeasible, Instance, RspInstance, ValidationError, rsp, rsp_exact, rsp_fptas,
)
from flowdesign.pathdesign import phi as design_phi
from flowdesign.pathdesign import solve_path_fptas


def path_cost(inst, path):
    return sum(inst.cost[a] for a in path)


def path_length(inst, path):
    return sum(inst.length[a] for a in path)


def path_nodes(inst, path):
    """The nodes an s-t arc sequence visits, s first; it must end at t."""
    nodes = [inst.s]
    for a in path:
        u, v = inst.arcs[a]
        assert nodes[-1] in (u, v), f"arc {a} does not leave node {nodes[-1]}"
        nodes.append(v if nodes[-1] == u else u)
    assert nodes[-1] == inst.t
    return nodes


def assert_simple(inst, path):
    nodes = path_nodes(inst, path)
    assert len(set(nodes)) == len(nodes), f"path {path} repeats a node of {nodes}"


def enumerate_paths(inst):
    """All simple s-t paths by brute force, arcs usable in both directions."""
    adj = [[] for _ in range(inst.n)]
    for a, (u, v) in enumerate(inst.arcs):
        if u != v:
            adj[u].append((a, v))
            adj[v].append((a, u))
    out = []

    def walk(v, used_nodes, path):
        if v == inst.t:
            out.append(tuple(path))
            return
        for a, w in adj[v]:
            if w not in used_nodes:
                walk(w, used_nodes | {w}, path + [a])

    walk(inst.s, {inst.s}, [])
    return out


def best_by_enumeration(inst):
    feasible = [p for p in enumerate_paths(inst) if path_length(inst, p) <= inst.budget]
    if not feasible:
        return None
    return min((path_cost(inst, p), p) for p in feasible)


TWO_PARALLEL = RspInstance(
    n=2, arcs=((0, 1), (0, 1)), s=0, t=1, cost=(1.0, 2.0), length=(5.0, 1.0), budget=1.0
)


def test_tight_budget_forces_short_arc():
    assert rsp_exact(TWO_PARALLEL) == (1,)


def test_loose_budget_picks_cheap_arc():
    loose = RspInstance(
        n=2, arcs=((0, 1), (0, 1)), s=0, t=1, cost=(1.0, 2.0), length=(5.0, 1.0), budget=5.0
    )
    assert rsp_exact(loose) == (0,)


def test_exact_rejects_fractional_costs():
    inst = RspInstance(
        n=2, arcs=((0, 1),), s=0, t=1, cost=(1.5,), length=(1.0,), budget=2.0
    )
    with pytest.raises(ValidationError):
        rsp_exact(inst)


def test_zero_budget_infeasible():
    inst = RspInstance(
        n=2, arcs=((0, 1),), s=0, t=1, cost=(1.0,), length=(2.0,), budget=0.0
    )
    with pytest.raises(Infeasible):
        rsp_fptas(inst, 0.5)
    with pytest.raises(Infeasible):
        rsp_exact(inst)


def test_exact_tie_breaks_toward_the_shorter_path():
    # 0-1-3 and 0-2-3 both cost 2; the second is shorter
    inst = RspInstance(
        n=4, arcs=((0, 1), (1, 3), (0, 2), (2, 3)), s=0, t=3,
        cost=(1.0, 1.0, 1.0, 1.0), length=(2.0, 2.0, 1.0, 2.0), budget=10.0,
    )
    assert rsp_exact(inst) == (2, 3)


def test_exact_tie_breaks_toward_the_smaller_arc_sequence():
    # three parallel routes of equal cost and length; arcs listed out of order
    inst = RspInstance(
        n=4, arcs=((0, 2), (2, 3), (0, 1), (1, 3), (0, 3)), s=0, t=3,
        cost=(1.0, 1.0, 0.0, 2.0, 2.0), length=(1.0, 1.0, 1.0, 1.0, 2.0), budget=10.0,
    )
    assert rsp_exact(inst) == (0, 1)
    swapped = RspInstance(
        n=4, arcs=((0, 1), (1, 3), (0, 2), (2, 3), (0, 3)), s=0, t=3,
        cost=inst.cost, length=inst.length, budget=10.0,
    )
    assert rsp_exact(swapped) == (0, 1)


def test_fptas_disconnected_is_infeasible():
    inst = RspInstance(
        n=4, arcs=((0, 1), (2, 3)), s=0, t=3, cost=(1.0, 1.0), length=(1.0, 1.0), budget=10.0
    )
    with pytest.raises(Infeasible):
        rsp_fptas(inst, 0.5)
    with pytest.raises(Infeasible):
        rsp_exact(inst)


def test_diamond_matches_enumeration():
    rng = random.Random(41)
    arcs = ((0, 1), (1, 3), (0, 2), (2, 3), (0, 3))
    for _ in range(40):
        cost = tuple(float(rng.randint(0, 9)) for _ in arcs)
        length = tuple(float(rng.randint(0, 9)) for _ in arcs)
        inst = RspInstance(
            n=4, arcs=arcs, s=0, t=3, cost=cost, length=length, budget=float(rng.randint(0, 20))
        )
        want = best_by_enumeration(inst)
        if want is None:
            with pytest.raises(Infeasible):
                rsp_exact(inst)
        else:
            got = rsp_exact(inst)
            assert path_length(inst, got) <= inst.budget
            assert path_cost(inst, got) == want[0]


def test_fptas_two_arc_instances_exact():
    rng = random.Random(5150)
    for _ in range(25):
        inst = RspInstance(
            n=2,
            arcs=((0, 1), (0, 1)),
            s=0,
            t=1,
            cost=(rng.uniform(0, 5), rng.uniform(0, 5)),
            length=(rng.uniform(0, 5), rng.uniform(0, 5)),
            budget=rng.uniform(0, 6),
        )
        try:
            got = rsp_fptas(inst, 1.0)
        except Infeasible:
            assert best_by_enumeration(inst) is None
            continue
        want = best_by_enumeration(inst)
        assert path_cost(inst, got) == pytest.approx(want[0], rel=1e-12)


@pytest.mark.parametrize("eps", [0.5, 0.1])
def test_fptas_guarantee_random_graphs(eps):
    rng = random.Random(9000 + int(eps * 10))
    for trial in range(30):
        n = rng.randint(3, 8)
        arcs = [(i, rng.randrange(i)) for i in range(1, n)]
        for _ in range(rng.randint(1, 6)):
            u, v = rng.randrange(n), rng.randrange(n)
            if u != v:
                arcs.append((u, v))
        inst = RspInstance(
            n=n,
            arcs=tuple(arcs),
            s=0,
            t=n - 1,
            cost=tuple(rng.uniform(0.0, 10.0) for _ in arcs),
            length=tuple(rng.uniform(0.0, 10.0) for _ in arcs),
            budget=rng.uniform(1.0, 15.0),
        )
        want = best_by_enumeration(inst)
        try:
            got = rsp_fptas(inst, eps)
        except Infeasible:
            assert want is None, f"trial {trial}"
            continue
        assert want is not None
        assert_simple(inst, got)
        assert path_length(inst, got) <= inst.budget + 1e-12, "length is never rounded"
        assert path_cost(inst, got) <= (1.0 + eps) * want[0] + 1e-9, f"trial {trial}"


def test_fptas_tiny_epsilon_agrees_with_exact():
    rng = random.Random(321)
    for _ in range(20):
        n = rng.randint(3, 6)
        arcs = [(i, rng.randrange(i)) for i in range(1, n)]
        arcs += [(rng.randrange(n), rng.randrange(n)) for _ in range(3)]
        arcs = [(u, v) for u, v in arcs if u != v]
        inst = RspInstance(
            n=n,
            arcs=tuple(arcs),
            s=0,
            t=n - 1,
            cost=tuple(float(rng.randint(0, 8)) for _ in arcs),
            length=tuple(float(rng.randint(0, 8)) for _ in arcs),
            budget=float(rng.randint(2, 16)),
        )
        try:
            exact = rsp_exact(inst)
        except Infeasible:
            continue
        approx = rsp_fptas(inst, 1e-3)
        assert_simple(inst, exact)
        assert_simple(inst, approx)
        assert path_cost(inst, approx) == pytest.approx(path_cost(inst, exact), rel=1e-3)


@pytest.mark.parametrize("cost_in, length_in", [(0.0, 0.0), (1.0, 1.0)])
def test_zero_cycle_between_s_and_t_is_never_walked(cost_in, length_in):
    # s = 0 enters the all-zero cycle 1-2-3-1 (arcs 1, 2, 3) by arc 0 and t = 4
    # leaves it by arc 4, so going round the cycle costs and lengthens
    # nothing: only the domination test keeps labels from walking it
    inst = RspInstance(
        n=5, arcs=((0, 1), (1, 2), (2, 3), (3, 1), (3, 4)), s=0, t=4,
        cost=(cost_in, 0.0, 0.0, 0.0, cost_in), length=(length_in, 0.0, 0.0, 0.0, length_in),
        budget=2.0 * length_in,
    )
    want = best_by_enumeration(inst)
    for got in (rsp_exact(inst), rsp_fptas(inst, 0.5), rsp_fptas(inst, 1e-3)):
        assert_simple(inst, got)
        assert path_cost(inst, got) == want[0]
        assert got in ((0, 3, 4), (0, 1, 2, 4)), got


def test_budget_monotonicity():
    rng = random.Random(77)
    arcs = ((0, 1), (1, 3), (0, 2), (2, 3), (0, 3), (1, 2))
    for _ in range(15):
        cost = tuple(float(rng.randint(0, 9)) for _ in arcs)
        length = tuple(float(rng.randint(1, 9)) for _ in arcs)
        prev = None
        for budget in (2.0, 4.0, 8.0, 16.0, 32.0):
            inst = RspInstance(
                n=4, arcs=arcs, s=0, t=3, cost=cost, length=length, budget=budget
            )
            try:
                value = path_cost(inst, rsp_exact(inst))
            except Infeasible:
                assert prev is None
                continue
            if prev is not None:
                assert value <= prev
            prev = value


def test_fptas_budget_check_sums_lengths_as_the_search_does():
    # 1.0 + 1e-16 rounds to 1.0 twice, so the search finds the one path
    # within budget; a compensated sum (Python 3.12's ``sum``) puts it at
    # 1.0000000000000002, over the budget. The search keeps the path only
    # through its bound's margin: at node 1, 1.0 plus the 2e-16 still left
    # to t is over the budget too.
    inst = RspInstance(n=4, arcs=((0, 1), (1, 2), (2, 3)), s=0, t=3, cost=(1.0, 1.0, 1.0),
                       length=(1.0, 1e-16, 1e-16), budget=1.0)
    assert math.fsum(inst.length) > inst.budget
    assert rsp_fptas(inst, 0.5) == (0, 1, 2)
    assert rsp_exact(inst) == (0, 1, 2)


def test_a_path_just_over_the_budget_is_infeasible():
    # The bound's float margin shrinks the length a label has spent plus the
    # length still left; at t it must leave the label's own test as it is
    inst = RspInstance(n=2, arcs=((0, 1),), s=0, t=1, cost=(1.0,),
                       length=(math.nextafter(1.0, 2.0),), budget=1.0)
    with pytest.raises(Infeasible):
        rsp_exact(inst)
    with pytest.raises(Infeasible):
        rsp_fptas(inst, 0.5)


def reference_label_search(adj, s, t, length, fixed, phi, delta, cap, settled=None):
    """``rsp._label_search`` without the remaining-cost bound: each label is
    dropped only by its own test. ``settled``, when given, collects the
    node of every label settled."""
    delta = max(delta, math.ulp(0.0))
    top = cap / delta + 1.0
    level = [int(min(v / delta, top)) for v in fixed]
    shortest = [math.inf] * len(adj)
    heap = [(0, 0.0, (), s)]
    best = None
    while heap:
        g, dl, seq, v = heapq.heappop(heap)
        if g * delta >= cap:
            break
        if dl >= shortest[v]:
            continue
        shortest[v] = dl
        if settled is not None:
            settled.append(v)
        if v == t:
            gam = 0.0
            for a in seq:
                gam += fixed[a]
            value = phi(dl) + gam
            if best is None or value < best[0]:
                best = (value, seq)
                cap = min(cap, value)
            continue
        it = iter(adj[v])
        for w in it:
            a = next(it)
            nl = dl + length[a]
            if nl >= shortest[w]:
                continue
            ng = g + level[a]
            if ng * delta + phi(nl) >= cap:
                continue
            heapq.heappush(heap, (ng, nl, seq + (a,), w))
    return best


@st.composite
def label_search_cases(draw):
    """Multigraphs (parallel arcs and self-loops) with small integer weights,
    so that labels tie, real ones, or subnormal ones, whose sums are exact;
    and either phi: a length budget or the design phi."""
    n = draw(st.integers(2, 7))
    arcs = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                         min_size=1, max_size=14))
    s, t = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
    weight = draw(st.sampled_from([
        st.integers(0, 6).map(float),
        st.floats(0.0, 6.0),
        st.integers(0, 6).map(lambda v: v * math.ulp(0.0)),
    ]))
    length = tuple(draw(weight) for _ in arcs)
    fixed = tuple(draw(weight) for _ in arcs)
    if draw(st.booleans()):
        phi = rsp._budget_phi(3.0 * draw(weight))
    else:
        B, r = draw(st.sampled_from([0.5, 1.0, 10.0, 100.0])), draw(st.sampled_from([1.0, 2.0]))
        phi = lambda S: design_phi(S, B, r)  # noqa: E731
    return n, tuple(arcs), s, t, length, fixed, phi


@given(case=label_search_cases(), data=st.data())
@settings(max_examples=200, derandomize=True, deadline=None)
def test_label_search_returns_what_the_unbounded_search_returns(case, data):
    n, arcs, s, t, length, fixed, phi = case
    adj, s, t = rsp.st_adjacency(n, arcs, s, t)
    delta, cap = data.draw(st.one_of(
        st.just((1, sum(map(int, fixed)) + 1)),  # as rsp_exact calls it
        st.tuples(st.floats(1e-3, 20.0), st.floats(0.0, 200.0) | st.just(math.inf)),
    ))
    want = reference_label_search(adj, s, t, length, fixed, phi, delta, cap)
    assert rsp._label_search(adj, s, t, length, fixed, phi, delta, cap) == want


def _frontier_or_error(*args):
    try:
        return rsp.frontier_fptas(*args)
    except Disconnected:
        return Disconnected


@given(case=label_search_cases(), eps=st.sampled_from([0.5, 0.1, 0.01]))
@settings(max_examples=200, derandomize=True, deadline=None)
def test_frontier_fptas_returns_the_path_of_the_unbounded_search(case, eps):
    n, arcs, s, t, length, fixed, phi = case
    got = _frontier_or_error(n, arcs, s, t, length, fixed, phi, eps)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(rsp, "_label_search", reference_label_search)
        assert _frontier_or_error(n, arcs, s, t, length, fixed, phi, eps) == got


def anticorrelated_grid(k, rng, r=1.0, B=100.0):
    """A k-by-k grid whose fixed costs run against its variable costs
    (gamma near 100 / c), so that many (S, Gamma) labels stay Pareto."""
    arcs = []
    for v in range(k * k):
        if v % k + 1 < k:
            arcs.append((v, v + 1))
        if v + k < k * k:
            arcs.append((v, v + k))
    c = [round(rng.uniform(0.1, 10.0), 6) for _ in arcs]
    gamma = [round(100.0 / v * rng.uniform(0.5, 1.5), 6) for v in c]
    return Instance(n=k * k, arcs=tuple(arcs), s=0, t=k * k - 1, r=r, c=tuple(c),
                    gamma=tuple(gamma), ybar=(math.inf,) * len(arcs), B=B)


def test_bound_settles_at_most_half_the_labels_of_the_unbounded_search():
    # A count, not a timing: every label the bounded search settles is
    # popped from its heap, so its label pops bound what it settles
    inst = anticorrelated_grid(20, random.Random(20))
    search, calls, pops = rsp._label_search, [], []

    def counted_pop(heap):
        item = heapq.heappop(heap)
        if len(item) == 4:  # a label; the Dijkstra passes pop (distance, node)
            pops.append(item[3])
        return item

    def spy(*args):
        calls.append(args)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(rsp, "heapq", types.SimpleNamespace(heappush=heapq.heappush, heappop=counted_pop))
            return search(*args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(rsp, "_label_search", spy)
        got = solve_path_fptas(inst, 0.1)
    settled = []
    for args in calls:
        reference_label_search(*args, settled=settled)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(rsp, "_label_search", reference_label_search)
        assert solve_path_fptas(inst, 0.1) == got
    assert calls and 2 * len(pops) <= len(settled), (len(pops), len(settled))
