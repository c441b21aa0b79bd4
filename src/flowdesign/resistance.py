"""Minimum-energy unit flows and effective resistance.

For conductances y and exponent r, a flow f routed from s to t has energy
sum_a |f_a|^{r+1} / y_a^r over the supported arcs (y_a > 0). The unique
minimizer of that energy among unit s-t flows induces node potentials pi with
pi_tail - pi_head = sign(f_a) * (|f_a| / y_a)^r on every supported arc. The
effective resistance R is that minimum energy; it equals pi_s - pi_t at the
optimum, but ``effective_resistance`` returns the energy. The energy is
stationary in the flow, so a flow error moves it only to second order,
while pi_s - pi_t sums the potential law along one spanning tree and
carries its errors, which grow when conductances spread widely.

The solver works in node space, on the s-t block only: the supported arcs
that lie on some simple s-t path (``st_block_arcs``). Every other arc
(self-loops, pendant trees, cycles hanging off a cut vertex) carries exactly
zero flow at the optimum, since any flow there only adds energy. On the
block, let B be the node-arc incidence and L(c) = B diag(c) B^T the weighted
Laplacian grounded at t. One pass over the arcs builds the adjacency of the
supported ones (``core.adjacency`` with y); the block search and the BFS
levels below both walk it, the levels skipping the nodes off the block.

No solve forms L densely. ``_BlockSystem`` records two exact eliminations
once per block, and every solve replays them: the r = 1 solve, each Newton
step and each projection alike.

* The reduction (``kron``), when some BFS level from t is wider than
  ``_BLOCK`` nodes, as on random graphs: the nodes other than t with at
  most ``kron._DEGREE`` neighbours are eliminated exactly, lowest degree
  first, by star-mesh steps on the edge weights (Kron reduction). It adds
  no cancellation, and its potentials come back by back-substitution.
  Where levels are narrower, each node costs at most O(_BLOCK^2) in the
  blocks already, and the block is not reduced.
* The core, the nodes left, by BFS level from t, farthest level first, so
  every edge joins one level or two adjacent ones, with consecutive
  levels merged into diagonal blocks of at most ``_BLOCK`` nodes (a wider
  level is one block). The core's L is then block tridiagonal (Cuthill
  and McKee 1969). A solve eliminates the blocks in order, solving each
  Schur complement once with the coupling to the next block and the
  right-hand side stacked, then recovers phi by back-substitution; block
  LU needs no pivoting across blocks on a symmetric positive definite L
  (Demmel, Higham and Schreiber 1995).

With core block widths w_i a solve takes O(sum_i w_i^3 + w_i^2 w_{i+1})
time and O(sum_i w_i^2 + w_i w_{i+1}) memory, plus O(1) per reduced node,
against O(k^3) and O(k^2) dense. Grids and other near-planar graphs, whose
levels are much narrower than k, need no reduction. On random graphs with
m = 2n the middle BFS levels hold a third of the nodes; the reduction
removes about half of the nodes, and at n = 1,200 it narrowed the widest
block from 459 to 342 nodes and cut the solve's peak traced memory from
9.4 to 3.8 MiB.

* r = 1: one solve L(y) phi = e_s - e_t gives the flow f = y B^T phi,
  projected onto conservation while that shrinks its leak (``unit_flow``).
* r > 1: start from the flow of the same solve with conductances y^r, then
  take Newton steps on sum w |f|^{r+1} (w = y^-r) under conservation. With
  g = w sign(f) |f|^r and h = r w |f|^{r-1}, a step solves
  L(1/h) lambda = B (g/h) and moves by delta = (B^T lambda - g) / h. It is
  solved for the change of lambda against the residual g - B^T lambda_prev,
  so its rounding error shrinks with the residual.
  - h vanishes with f, so it is floored at 1e-15 max h, only to keep 1/h
    finite. A floor high enough to bind (1e-6 max h) clips the curvature of
    small-flow arcs, which then crawl towards their optimum at r >= 3.
  - Each step backtracks on the energy, then re-projects any conservation
    drift with the fixed L(y^r), replaying the reduction's shares and
    reusing the Schur complements and couplings its first solve eliminated.
  - The loop stops once max |delta| <= 1e-12 max(1, |f|), or once the
    energy stalls with max |delta| <= 1e-10 max(1, |f|). It raises
    NonConvergence after 10,000 steps, or after 100 stalls with larger
    steps. Such stalls were logged on wheels (a hub with spokes to a rim
    path) at r = 3 and 4 with y^r spreads of 1e4 to 1e8, see ROADMAP item
    2: within 10 to 24 steps the decrement delta^T H delta had fallen below
    1e-15 times the energy, so the energy had converged, but arcs whose h
    is floored kept max |delta| above 1e-10, and the stop test never
    passed.

Two entries share that solve (``_block_flow``), which ends at the block's
flow and its energy, and raises NonConvergence unless that flow is finite
and conserves. ``effective_resistance`` returns the energy and
builds nothing more. ``min_energy_flow`` also builds the flow on every arc
and the potentials, in ``potentials``, which it imports on its first call;
its energy is the same float, bit for bit.

``support_resistance`` is the entry point of the `resistance` command and of
``core.verify`` without a flow witness: it drops uninstalled arcs, contracts
infinite ones (with ``DisjointSets``, the union-find that also picks the
potential tree) on the node numbering of ``core.node_ids``, and returns
the energy from ``effective_resistance``. ``_block_flow`` numbers the nodes
afresh (``core.compact``) when n is larger than the arcs can touch, so
neither entry's cost grows with n. The block search,
``DisjointSets`` and ``support_resistance`` live here rather than in core,
so that only the commands that solve for energy compile them, and the
potentials live in their own module, so that those commands do not compile
them either.
"""

from __future__ import annotations

import math
from collections import namedtuple

import numpy as np

from .core import FLOW_SLACK_PER_ARC, adjacency, check_exponent, check_terminals, compact, node_ids
from .errors import Disconnected, NonConvergence, ValidationError

# Floor of the Newton curvature h relative to max h, which keeps 1/h finite.
_H_FLOOR = 1e-15
# Widest diagonal block that consecutive BFS levels are merged into, and the
# level width past which a block is reduced first. Fewer, larger blocks
# save numpy calls per block but cost O(w^3) each; on the benchmark's grids
# (never reduced) and on its random graphs, reduced or not, 32 to 128 were
# within noise of each other, and 16 and 256 slower. Reducing blocks whose
# levels stay within 64 nodes made random graphs of 100 nodes (r = 2)
# slower: 3.0 ms at 32 against 2.4 ms at 64.
_BLOCK = 64
# The Newton stop rule of the module docstring: step and stall limits
# relative to max(1, |f|), and the step budget.
_STEP_TOL = 1e-12
_STALL_TOL = 1e-10
# Converged solves took at most 9 steps on the benchmark's `energy` seeds
# 11-20, 45 in the test suite and 886 on the wheels of ROADMAP item 2.
_MAX_STEPS = 10_000
# Steps that fail to lower the energy while max |delta| stays above
# _STALL_TOL. In the stalls logged so far (ROADMAP item 2) the decrement was
# already below 1e-15 times the energy, and arcs with a floored h kept
# max |delta| large.
_MAX_STALLS = 100


class FlowState(namedtuple("FlowState", "f pi energy")):
    """A unit s-t flow with its induced potentials and energy.

    f is aligned with arc orientation (negative = against the arrow); pi is
    indexed by node with pi_t = 0 and zeros on nodes the support does not
    connect to t.

    pi meets the potential law pi_u - pi_v = sign(f_a) (|f_a| / y_a)^r only
    to the float64 rounding of max|pi|, about 1e-16 max|pi|. On an arc whose
    drop is that small, the flow the law implies, y_a |drop|^(1/r), can
    miss f_a by more than 1e-6 max(1, max|f|) at r = 4 (on 4 of 200 seeded
    graphs with y in [0.1, 10]; on none at r = 2 or 3). energy, which
    ``effective_resistance`` returns, does not go through pi and is
    unaffected.
    """

    __slots__ = ()


def _check_nonnegative(y):
    if any(map(math.isnan, y)) or min(y, default=0.0) < 0.0:
        raise ValidationError("conductances must be >= 0")


class DisjointSets:
    """Union-find over the nodes 0..n-1, with path halving."""

    def __init__(self, n: int):
        self.parent = list(range(n))

    def find(self, v: int) -> int:
        """The least node of v's set, which is its root."""
        parent = self.parent
        while parent[v] != v:
            parent[v] = v = parent[parent[v]]  # path halving
        return v

    def union(self, a: int, b: int) -> bool:
        """Merge the sets of a and b; False when they were already one set."""
        ra, rb = sorted((self.find(a), self.find(b)))
        self.parent[rb] = ra
        return ra != rb


def st_block_arcs(adj, s, t) -> list[int]:
    """Indices of the arcs that lie on some simple s-t path, ascending.

    adj is as ``core.adjacency`` builds it; direction is ignored. An arc lies
    on a simple s-t path exactly when it shares a biconnected component with
    a virtual arc s-t, so this is one iterative Hopcroft-Tarjan pass that
    enters t from s by that arc and stops when t's subtree closes its
    component. Self-loops, pendant trees, cycles hanging off a cut vertex
    and other components are left out; the list is empty when s and t are
    not connected.
    """
    disc = [-1] * len(adj)
    low = [0] * len(adj)
    disc[s] = 0
    disc[t] = low[t] = 1
    clock = 2
    edges = [-1]  # the arcs of open components; -1 is the virtual arc
    frames = [(s, None, None), (t, -1, iter(adj[t]))]
    while True:
        u, via, it = frames[-1]
        for v in it:
            a = next(it)
            if a == via:
                continue
            if disc[v] < 0:
                disc[v] = low[v] = clock
                clock += 1
                edges.append(a)
                frames.append((v, a, iter(adj[v])))
                break
            if disc[v] < disc[u]:
                edges.append(a)
                if disc[v] < low[u]:
                    low[u] = disc[v]
        else:
            frames.pop()
            p = frames[-1][0]
            if low[u] < low[p]:
                low[p] = low[u]
            if low[u] >= disc[p]:
                # u's subtree closes a component whose first arc is `via`;
                # t's is the last to close and holds all arcs left
                if via < 0:
                    return sorted(edges[1:])
                while edges.pop() != via:
                    pass


def _levels(adj, t, seen):
    """The BFS levels from t over adj (as ``core.adjacency`` builds it),
    skipping the nodes seen marks, farthest first ([t] last)."""
    seen[t] = True
    levels = [[t]]
    while True:
        ahead = []
        for x in levels[-1]:
            for z in adj[x][::2]:
                if not seen[z]:
                    seen[z] = True
                    ahead.append(z)
        if not ahead:
            break
        levels.append(ahead)
    levels.reverse()
    return levels


class _BlockSystem:
    """Incidence operators and the elimination of L on the s-t block.

    Block nodes are numbered in the order they are eliminated, t = k last:
    the grounded system keeps the first k rows and columns, and potentials
    carry an implicit 0 at t. The reduced nodes come first, in the order
    ``kron.Reduction`` reduced them, then the core. Without a reduction the
    whole block is core, and the core's edges are its arcs; with one, they
    are the reduced graph's edges, on which parallel arcs are merged and
    fill is added.

    The core is numbered by BFS level from t, farthest level first, and
    consecutive levels are merged into diagonal blocks A_i while a block
    stays within ``_BLOCK`` nodes (a wider level is a block by itself), so
    the core's grounded L is block tridiagonal. The coupling C_i of blocks
    i and i + 1 is nonzero only between the last level of block i and the
    first level of block i + 1, and only that part is stored.

    Far levels go first so that the edges to t, the grounding, sit in the
    diagonal of the blocks eliminated last. Eliminated the other way, the
    grounding of the far blocks is the small difference of large sums in
    their Schur complements, which can round to an exactly singular block
    on the Newton systems, whose conductances 1/h spread up to 1e15. The
    reduction has no such differences: it works on edge weights, not on
    Laplacian entries.
    """

    def __init__(self, n, arcs, block, adj, s, t):
        tails = np.array([arcs[a][0] for a in block], dtype=np.intp)
        heads = np.array([arcs[a][1] for a in block], dtype=np.intp)
        # adj holds every supported arc, and every arc that joins two nodes
        # of the block is in the block, so a BFS that skips the nodes off
        # the block sees the block's arcs, in their order.
        off = np.ones(n, dtype=bool)
        off[tails] = off[heads] = False
        levels = _levels(adj, t, off.tolist())
        reduced, red = [], None
        if max(map(len, levels)) > _BLOCK:
            from .kron import Reduction

            red = Reduction(n, tails, heads, t)
            reduced = red.reduced
            levels = _levels(adjacency(n, red.left), t, [False] * n)
        self._reduction = red
        first = len(reduced)  # the core's first node
        order = reduced + [x for level in levels for x in level]
        self.k = k = len(order) - 1
        index = np.zeros(n, dtype=np.intp)
        index[order] = np.arange(k + 1)
        self.u, self.v = iu, iv = index[tails], index[heads]
        self.rhs = np.zeros(k)
        self.rhs[index[s]] = 1.0
        self.slack = FLOW_SLACK_PER_ARC * len(block)  # the leak a verify witness may have
        if red:
            iu, iv = red.number(index)

        # The core's edges in its own numbering (t = k - first), and its
        # blocks as [start, end, first-level end, last-level start].
        core = np.flatnonzero(np.minimum(iu, iv) >= first)
        cu, cv = iu[core] - first, iv[core] - first
        kc = k - first
        spans = []
        lo = 0
        for level in levels[:-1]:
            hi = lo + len(level)
            if spans and hi - spans[-1][0] <= _BLOCK:
                spans[-1][1], spans[-1][3] = hi, lo
            else:
                spans.append([lo, hi, hi, lo])
            lo = hi
        self._shapes, self._offsets, self._size = [], [0], 0
        self._pos = self._arc = np.zeros(0, dtype=np.intp)
        self._sign = np.zeros(0)
        if not spans:
            return
        start, end, first_end, last = (np.array(col) for col in zip(*spans))
        width = end - start
        # C_i is p[i] x q_next[i]: block i's last level by block i + 1's first.
        p, q_next = end - last, np.append((first_end - start)[1:], 0)
        # Shapes as (start, end) in the block's numbering, p and q_next.
        self._shapes = list(zip((start + first).tolist(), (end + first).tolist(), p.tolist(),
                                q_next.tolist()))

        # One flat buffer holds A_0, C_0, A_1, C_1, ... row-major. Per node:
        # its block, its column there, and where its row starts in its A_i
        # and, on a block's last level, in its C_i.
        sizes = np.stack([width * width, p * q_next], axis=1).ravel()
        self._offsets = np.concatenate(([0], np.cumsum(sizes))).tolist()
        self._size = self._offsets[-1]
        of = np.repeat(np.arange(len(spans)), width)
        col = np.arange(kc) - start[of]
        row = np.array(self._offsets[0:-1:2])[of] + col * width[of]
        c_row = np.array(self._offsets[1::2])[of] + (np.arange(kc) - last[of]) * q_next[of]

        # L's nonzeros as (position, sign, edge), in O(m): +w on the diagonal
        # of each grounded end, -w off it. The lower end of an edge lies in
        # the same block as the higher one or in the block before.
        pos, arc = [], []
        for x in (cu, cv):
            keep = x < kc
            pos.append(row[x[keep]] + col[x[keep]])
            arc.append(core[keep])
        diagonal = sum(map(len, pos))
        inner = (cu < kc) & (cv < kc)
        lo, hi = np.minimum(cu, cv)[inner], np.maximum(cu, cv)[inner]
        same, a = of[lo] == of[hi], core[inner]
        pos += [row[lo[same]] + col[hi[same]], row[hi[same]] + col[lo[same]],
                c_row[lo[~same]] + col[hi[~same]]]
        arc += [a[same], a[same], a[~same]]
        self._pos = np.concatenate(pos)
        self._arc = np.concatenate(arc)
        self._sign = np.repeat([1.0, -1.0], [diagonal, len(self._pos) - diagonal])

    def _blocks(self, cond):
        """Views of the diagonal blocks A_i and stored couplings C_i of L(cond)
        on the core, where cond holds the conductances of its edges."""
        buf = np.bincount(self._pos, weights=self._sign * cond[self._arc], minlength=self._size)
        o = self._offsets
        A, C = [], []
        for i, (lo, hi, p, q) in enumerate(self._shapes):
            A.append(buf[o[2 * i]:o[2 * i + 1]].reshape(hi - lo, hi - lo))
            C.append(buf[o[2 * i + 1]:o[2 * i + 2]].reshape(p, q))
        return A, C

    def factor(self, cond, rhs):
        """Solve L(cond) phi = rhs: the reduction's rounds, if any, then the
        core's blocks in order.

        The Schur complements S_i = A_i - C_{i-1}^T S_{i-1}^{-1} C_{i-1} of a
        symmetric positive definite L are too, so block LU needs no pivoting
        across blocks (Demmel, Higham and Schreiber 1995). Each S_i is solved
        once with X_i = S_i^{-1} C_i and the reduced right-hand side stacked;
        a back-substitution then recovers phi. Returns phi and the factor
        (the reduction's shares, and the S_i, C_i and X_i), which
        ``resolve`` reuses for other right-hand sides.
        """
        shares = None
        if self._reduction:
            cond, shares = self._reduction.weights(cond)
            rhs = self._reduction.push(shares, rhs)
        A, C = self._blocks(cond)
        X, z = [], []
        for i, (lo, hi, p, q) in enumerate(self._shapes):
            S, y = A[i], rhs[lo:hi].copy()  # S overwrites A_i in place
            if i:
                c = C[i - 1]
                S[:c.shape[1], :c.shape[1]] -= c.T @ X[-1][-len(c):]
                y[:c.shape[1]] -= c.T @ z[-1][-len(c):]
            stack = np.zeros((hi - lo, q + 1))
            stack[hi - lo - p:, :q] = C[i]
            stack[:, q] = y
            sol = _solve(S, stack)
            X.append(sol[:, :q])
            z.append(sol[:, q])
        return self._back(shares, rhs, X, z), (shares, A, C, X)

    def resolve(self, fac, rhs):
        """Solve L(cond) phi = rhs with the factor an earlier ``factor`` returned."""
        shares, S, C, X = fac
        if self._reduction:
            rhs = self._reduction.push(shares, rhs)
        z = []
        for i, (lo, hi, _, _) in enumerate(self._shapes):
            y = rhs[lo:hi].copy()
            if i:
                c = C[i - 1]
                y[:c.shape[1]] -= c.T @ z[-1][-len(c):]
            z.append(_solve(S[i], y))
        return self._back(shares, rhs, X, z)

    def _back(self, shares, b, X, z):
        """phi_i = z_i - X_i phi_{i+1}, from the core's last block back to its
        first, then the reduced nodes from the pushed right-hand side b."""
        phi = np.zeros(self.k + 1)
        for (lo, hi, _, q), Xi, zi in zip(self._shapes[::-1], X[::-1], z[::-1]):
            phi[lo:hi] = zi - Xi @ phi[hi:hi + q]
        if self._reduction:
            self._reduction.back(shares, b, phi)
        return phi[:-1]

    def divergence(self, f):
        """Net outflow at each grounded node (t's row dropped)."""
        k = self.k
        return np.bincount(self.u, f, k + 1)[:k] - np.bincount(self.v, f, k + 1)[:k]

    def drop(self, phi):
        """B^T phi: potential drop tail to head, with phi_t = 0."""
        full = np.append(phi, 0.0)
        return full[self.u] - full[self.v]

    def leak(self, f):
        """The most a node's net flow misses the unit s-t flow's by, or NaN."""
        return float(np.max(np.abs(self.divergence(f) - self.rhs)))

    def project(self, cond, fac, f):
        """f plus the flow of L(cond) that cancels its leak, solved with the
        factor of L(cond) an earlier ``factor`` returned."""
        return f + cond * self.drop(self.resolve(fac, self.rhs - self.divergence(f)))

    def unit_flow(self, cond):
        """The unit s-t flow of L(cond), and the factor of L(cond). A wide
        spread of cond leaves the solve's residual in the flow, about 1e-5
        at a spread of 1e12; it is projected out while that shrinks the
        leak, in one to three projections, down to ``slack``."""
        phi, fac = self.factor(cond, self.rhs)
        f = cond * self.drop(phi)
        while self.leak(f) > self.slack:
            trial = self.project(cond, fac, f)
            if not self.leak(trial) < self.leak(f):
                break
            f = trial
        return f, fac


def _solve(L, rhs):
    try:
        return np.linalg.solve(L, rhs)
    except np.linalg.LinAlgError as exc:
        raise NonConvergence(f"singular block Laplacian: {exc}") from None


def _newton(sys_, y, r):
    """Minimum-energy unit flow on the block for r > 1 (see module docstring)."""
    c0 = (y / y.max()) ** r  # conductances y^r, rescaled; the flow does not change
    if not c0.all():
        raise NonConvergence("singular block Laplacian: a conductance y^r underflows to 0 when rescaled")
    w = 1.0 / c0
    f, fac0 = sys_.unit_flow(c0)

    def energy(f):
        return float(np.sum(w * np.abs(f) ** (r + 1.0)))

    e = energy(f)
    pi = np.zeros(sys_.k)  # multipliers of the last step, for the residual form
    steps = stalls = 0
    while True:
        af = np.abs(f)
        h = r * w * af ** (r - 1.0)
        h = np.maximum(h, _H_FLOOR * float(h.max()))
        # Solve for the change mu of the multipliers against the residual
        # rho = g - B^T pi, so that rounding error shrinks with the residual.
        rho = w * np.sign(f) * af ** r - sys_.drop(pi)
        mu, _ = sys_.factor(1.0 / h, sys_.divergence(rho / h))
        pi += mu
        delta = (sys_.drop(mu) - rho) / h
        size = float(np.max(np.abs(delta)))
        scale = max(1.0, float(af.max()))
        if size <= _STEP_TOL * scale:
            return f
        if steps >= _MAX_STEPS:
            raise NonConvergence(f"energy descent exhausted its budget of {_MAX_STEPS} Newton steps")
        steps += 1

        # The decrement delta^T H delta, not -g^T delta: the latter is a sum
        # of cancelling terms on bridges, where delta is rounding noise.
        decrement = float(delta @ (h * delta))
        alpha = 1.0
        trial = f + delta
        e_trial = energy(trial)
        while e_trial > e and alpha * decrement > 1e-15 * e:
            alpha *= 0.5
            trial = f + alpha * delta
            e_trial = energy(trial)
        f = sys_.project(c0, fac0, trial)
        e, e_old = energy(f), e
        if e >= e_old:
            if size <= _STALL_TOL * scale:
                return f  # the energy stalls at the floating-point floor
            stalls += 1
            if stalls > _MAX_STALLS:
                raise NonConvergence(
                    f"energy descent stalled {stalls} times with steps of {size:.3e} left"
                )


def _block_flow(n, arcs, y, r, s, t):
    """The s-t block's arcs, their minimum-energy flow and its energy.

    Raises NonConvergence unless the flow is finite and leaks at most
    ``_BlockSystem.slack``: past the float range the leak is NaN, or grows
    under projection.

    The nodes are numbered by ``core.compact``, in their order, so the
    solve takes O(m) memory however large n is, with the same floats.
    ``st_block_arcs`` and ``_BlockSystem`` share one adjacency.
    """
    if len(y) != len(arcs):
        raise ValidationError("y must have one entry per arc")
    _check_nonnegative(y)
    if not all(map(math.isfinite, y)):
        raise ValidationError("contract infinite conductances before solving")
    check_exponent(r)
    check_terminals(n, s, t)
    n, arcs, s, t = compact(n, arcs, s, t)
    adj = adjacency(n, arcs, y)
    block = st_block_arcs(adj, s, t)
    if not block:
        raise Disconnected("s and t are not connected by installed arcs")

    # Past the float range the numbers turn NaN or inf; the leak test below
    # refuses such a flow, so numpy's warnings would only precede its error.
    with np.errstate(all="ignore"):
        sys_ = _BlockSystem(n, arcs, block, adj, s, t)
        yb = np.array([y[a] for a in block], dtype=float)
        fb = sys_.unit_flow(yb / yb.max())[0] if r == 1.0 else _newton(sys_, yb, r)
        leak = sys_.leak(fb)
        if not leak <= sys_.slack:  # a NaN leak fails too
            raise NonConvergence(f"the block's flow misses conservation by {leak!r} at a node")
        af = np.abs(fb)
        return block, fb, float(np.sum(af * (af / yb) ** r))


def min_energy_flow(n, arcs, y, r, s, t) -> FlowState:
    """Minimum-energy unit s-t flow on the supported arcs (y_a > 0).

    Raises Disconnected when the support does not connect s to t, and
    NonConvergence if the Newton steps (r > 1; r = 1 takes none) do not
    converge (see the module docstring). The potentials hold
    the potential law only to the rounding of max|pi|, which at r = 4 can
    exceed 1e-6 relative on arcs with tiny drops (see FlowState); use
    energy, not pi_s - pi_t, for the resistance. f and pi are built in
    ``potentials``; pi has an entry per node, so it takes O(n) memory.
    """
    from .potentials import flow_state

    return flow_state(n, arcs, y, r, t, *_block_flow(n, arcs, y, r, s, t))


def effective_resistance(n, arcs, y, r, s, t) -> float:
    """The energy of the minimum-energy unit flow; +inf when disconnected.
    It takes O(m) memory however large n is, builds neither the flow tuple
    nor the potentials, and equals
    ``min_energy_flow(...).energy`` bit for bit."""
    try:
        return _block_flow(n, arcs, y, r, s, t)[2]
    except Disconnected:
        return math.inf


def support_resistance(inst, y) -> float:
    """Effective s-t resistance of the arcs of inst that y installs (y_a > 0).

    An arc with infinite y is a short circuit: the ends of such arcs are
    contracted into one node first, on the numbering ``core.node_ids`` gives
    their ends, s, t and the installed arcs' ends, and the result is 0.0
    when that joins s and t. The solve then takes O(m) time and memory
    however large inst.n is (``effective_resistance``). A negative or NaN
    y raises ValidationError, as in ``effective_resistance``.
    """
    arcs, n, s, t = inst.arcs, inst.n, inst.s, inst.t
    keep = [a for a, v in enumerate(y) if 0.0 < v < math.inf]
    if len(keep) < len(y):  # else every arc is installed, none infinite
        _check_nonnegative(y)
        short = [arcs[a] for a, v in enumerate(y) if math.isinf(v)]
        arcs, y = [arcs[a] for a in keep], [y[a] for a in keep]
        if short:
            ids = node_ids(n, arcs, s, t, short)
            ds = DisjointSets(len(ids))
            for u, v in short:
                ds.union(ids[u], ids[v])
            label = {}
            node = {x: label.setdefault(ds.find(i), len(label)) for x, i in ids.items()}
            n, s, t = len(label), node[s], node[t]
            if s == t:
                return 0.0
            arcs = [(node[u], node[v]) for u, v in arcs]
    return effective_resistance(n, arcs, y, inst.r, s, t)


def effective_conductance(n, arcs, y, r, s, t) -> float:
    """R^(-1/r) by ``sptree.res_to_cond``: 0 -> +inf, +inf -> 0, and the
    largest finite float past the float range."""
    from .sptree import res_to_cond  # here, so the resistance command never loads sptree

    return res_to_cond(effective_resistance(n, arcs, y, r, s, t), r)
