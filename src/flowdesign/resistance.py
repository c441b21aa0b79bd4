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
that lie on some simple s-t path (``core.st_block_arcs``). Every other arc
(self-loops, pendant trees, cycles hanging off a cut vertex) carries exactly
zero flow at the optimum, since any flow there only adds energy. On the
block, let B be the node-arc incidence and L(c) = B diag(c) B^T the weighted
Laplacian grounded at t.

No solve forms L densely. The block's nodes are ordered by BFS level from
t, farthest level first, so every arc joins one level or two adjacent
ones, and consecutive levels are merged into diagonal blocks of at most
``_BLOCK`` nodes (a wider level is one block). L is then block
tridiagonal (Cuthill and McKee 1969). A solve eliminates the blocks in
order, solving each Schur complement once with the coupling to the next
block and the right-hand side stacked, then recovers phi by
back-substitution; block LU needs no pivoting across blocks on a symmetric
positive definite L (Demmel, Higham and Schreiber 1995). With block widths
w_i it takes O(sum_i w_i^3 + w_i^2 w_{i+1}) time and O(sum_i w_i^2 +
w_i w_{i+1}) memory, against O(k^3) and O(k^2) dense: grids and other
near-planar graphs, whose levels are much narrower than k, gain the most.

* r = 1: one solve L(y) phi = e_s - e_t gives the exact flow f = y B^T phi.
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
    drift with the fixed L(y^r), reusing the Schur complements and
    couplings its first solve eliminated.
  - The loop stops once max |delta| <= 1e-12 max(1, |f|), or once the
    energy stalls with max |delta| <= 1e-10 max(1, |f|). It raises
    NonConvergence after 1,000,000 steps, or after 100 stalls with larger
    steps. Such stalls were logged on wheels (a hub with spokes to a rim
    path) at r = 3 and 4 with y^r spreads of 1e4 to 1e8, see ROADMAP item
    2: within 10 to 24 steps the decrement delta^T H delta had fallen below
    1e-15 times the energy, so the energy had converged, but arcs whose h
    is floored kept max |delta| above 1e-10, and the stop test never
    passed.

Potentials are read off the final flow along a spanning tree that takes the
arcs of least |f| first. The potential law is then exact where it is most
sensitive: a potential error on an arc with a small drop moves the flow it
implies by a factor |drop|^{1/r - 1}.

``support_resistance`` is the entry point of the `resistance` command and of
``core.verify`` without a flow witness: it drops uninstalled arcs, contracts
infinite ones (with ``DisjointSets``, the union-find that also picks the
potential tree) and returns the energy. Both live here rather than in core,
so that only the commands that solve for energy compile them.
"""

from __future__ import annotations

import math
from collections import namedtuple

import numpy as np

from .core import st_block_arcs
from .errors import Disconnected, NonConvergence, ValidationError

# Floor of the Newton curvature h relative to max h, which keeps 1/h finite.
_H_FLOOR = 1e-15
# Widest diagonal block that consecutive BFS levels are merged into. Fewer,
# larger blocks save numpy calls per block but cost O(w^3) each; on the
# benchmark's grids and random graphs 32 to 128 were within noise of each
# other, and 16 and 256 slower.
_BLOCK = 64
# The Newton stop rule of the module docstring: step and stall limits
# relative to max(1, |f|), and the step budget.
_STEP_TOL = 1e-12
_STALL_TOL = 1e-10
_MAX_STEPS = 1_000_000
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


def _check_inputs(n, arcs, y, r, s, t):
    if len(y) != len(arcs):
        raise ValidationError("y must have one entry per arc")
    for v in y:
        if math.isnan(v) or v < 0.0:
            raise ValidationError("conductances must be >= 0")
        if math.isinf(v):
            raise ValidationError("contract infinite conductances before solving")
    if not (r >= 1.0) or not math.isfinite(r):
        raise ValidationError("flow exponent r must be a finite real >= 1")
    if not (0 <= s < n and 0 <= t < n) or s == t:
        raise ValidationError("terminals must be distinct in-range nodes")


class DisjointSets:
    """Union-find over the nodes 0..n-1, with path compression."""

    def __init__(self, n: int):
        self.parent = list(range(n))

    def find(self, v: int) -> int:
        root = v
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[v] != root:
            self.parent[v], v = root, self.parent[v]
        return root

    def union(self, a: int, b: int) -> bool:
        """Merge the sets of a and b; False when they were already one set."""
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        self.parent[max(ra, rb)] = min(ra, rb)
        return True


def _arc_drops(f, y, r):
    """sign(f) * (|f| / y)^r, the potential drop each arc's flow implies."""
    return np.sign(f) * (np.abs(f) / y) ** r


class _BlockSystem:
    """Incidence operators and block elimination on the s-t block.

    Block nodes are numbered by BFS level from t, farthest level first, with
    t = k last: the grounded system keeps the first k rows and columns, and
    potentials carry an implicit 0 at t. Every arc joins one level or two
    adjacent ones. Consecutive levels are merged into diagonal blocks A_i
    while a block stays within ``_BLOCK`` nodes (a wider level is a block by
    itself), so the grounded L(c) is block tridiagonal. The coupling C_i of
    blocks i and i + 1 is nonzero only between the last level of block i
    and the first level of block i + 1, and only that part is stored.

    Far levels go first so that the arcs to t, the grounding, sit in the
    diagonal of the blocks eliminated last. Eliminated the other way, the
    grounding of the far blocks is the small difference of large sums in
    their Schur complements, which can round to an exactly singular block
    on the Newton systems, whose conductances 1/h spread up to 1e15.
    """

    def __init__(self, n, arcs, block, s, t):
        adj = [[] for _ in range(n)]
        for a in block:
            u, v = arcs[a]
            adj[u].append(v)
            adj[v].append(u)
        seen = [False] * n
        seen[t] = True
        levels = [[t]]
        while True:
            ahead = []
            for x in levels[-1]:
                for z in adj[x]:
                    if not seen[z]:
                        seen[z] = True
                        ahead.append(z)
            if not ahead:
                break
            levels.append(ahead)
        levels.reverse()
        index = [0] * n
        for i, x in enumerate(x for level in levels for x in level):
            index[x] = i
        k = index[t]
        self.k = k
        self.u = np.array([index[arcs[a][0]] for a in block], dtype=np.intp)
        self.v = np.array([index[arcs[a][1]] for a in block], dtype=np.intp)
        self.rhs = np.zeros(k)
        self.rhs[index[s]] = 1.0

        # Blocks as [start, end, first-level end, last-level start].
        spans = []
        lo = 0
        for level in levels[:-1]:
            hi = lo + len(level)
            if spans and hi - spans[-1][0] <= _BLOCK:
                spans[-1][1], spans[-1][3] = hi, lo
            else:
                spans.append([lo, hi, hi, lo])
            lo = hi
        start, end, first_end, last = (np.array(col) for col in zip(*spans))
        width = end - start
        # C_i is p[i] x q_next[i]: block i's last level by block i + 1's first.
        p, q_next = end - last, np.append((first_end - start)[1:], 0)
        self._shapes = list(zip(start.tolist(), end.tolist(), p.tolist(), q_next.tolist()))

        # One flat buffer holds A_0, C_0, A_1, C_1, ... row-major. Per node:
        # its block, its column there, and where its row starts in its A_i
        # and, on a block's last level, in its C_i.
        sizes = np.stack([width * width, p * q_next], axis=1).ravel()
        self._offsets = np.concatenate(([0], np.cumsum(sizes))).tolist()
        self._size = self._offsets[-1]
        of = np.repeat(np.arange(len(spans)), width)
        col = np.arange(k) - start[of]
        row = np.array(self._offsets[0:-1:2])[of] + col * width[of]
        c_row = np.array(self._offsets[1::2])[of] + (np.arange(k) - last[of]) * q_next[of]

        # L's nonzeros as (position, sign, arc), in O(m): +c on the diagonal
        # of each grounded end, -c off it. The lower end of an arc lies in the
        # same block as the higher one or in the block before.
        ids = np.arange(len(block))
        pos, arc = [], []
        for x in (self.u, self.v):
            keep = x < k
            pos.append(row[x[keep]] + col[x[keep]])
            arc.append(ids[keep])
        diagonal = sum(map(len, pos))
        inner = (self.u < k) & (self.v < k)
        lo, hi = np.minimum(self.u, self.v)[inner], np.maximum(self.u, self.v)[inner]
        same, a = of[lo] == of[hi], ids[inner]
        pos += [row[lo[same]] + col[hi[same]], row[hi[same]] + col[lo[same]],
                c_row[lo[~same]] + col[hi[~same]]]
        arc += [a[same], a[same], a[~same]]
        self._pos = np.concatenate(pos)
        self._arc = np.concatenate(arc)
        self._sign = np.repeat([1.0, -1.0], [diagonal, len(self._pos) - diagonal])

    def _blocks(self, cond):
        """Views of the diagonal blocks A_i and stored couplings C_i of L(cond)."""
        buf = np.bincount(self._pos, weights=self._sign * cond[self._arc], minlength=self._size)
        o = self._offsets
        A, C = [], []
        for i, (lo, hi, p, q) in enumerate(self._shapes):
            A.append(buf[o[2 * i]:o[2 * i + 1]].reshape(hi - lo, hi - lo))
            C.append(buf[o[2 * i + 1]:o[2 * i + 2]].reshape(p, q))
        return A, C

    def factor(self, cond, rhs):
        """Solve L(cond) phi = rhs by eliminating the blocks in order.

        The Schur complements S_i = A_i - C_{i-1}^T S_{i-1}^{-1} C_{i-1} of a
        symmetric positive definite L are too, so block LU needs no pivoting
        across blocks (Demmel, Higham and Schreiber 1995). Each S_i is solved
        once with X_i = S_i^{-1} C_i and the reduced right-hand side stacked;
        a back-substitution then recovers phi. Returns phi and the factor
        (the S_i, C_i and X_i), which ``resolve`` reuses for other
        right-hand sides.
        """
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
        return self._back(X, z), (A, C, X)

    def resolve(self, fac, rhs):
        """Solve L(cond) phi = rhs with the factor an earlier ``factor`` returned."""
        S, C, X = fac
        z = []
        for i, (lo, hi, _, _) in enumerate(self._shapes):
            y = rhs[lo:hi].copy()
            if i:
                c = C[i - 1]
                y[:c.shape[1]] -= c.T @ z[-1][-len(c):]
            z.append(_solve(S[i], y))
        return self._back(X, z)

    @staticmethod
    def _back(X, z):
        """phi_i = z_i - X_i phi_{i+1}, from the last block back to the first."""
        phi = [z[-1]]
        for Xi, zi in zip(X[-2::-1], z[-2::-1]):
            phi.append(zi - Xi @ phi[-1][:Xi.shape[1]])
        return np.concatenate(phi[::-1])

    def divergence(self, f):
        """Net outflow at each grounded node (t's row dropped)."""
        k = self.k
        return np.bincount(self.u, f, k + 1)[:k] - np.bincount(self.v, f, k + 1)[:k]

    def drop(self, phi):
        """B^T phi: potential drop tail to head, with phi_t = 0."""
        full = np.append(phi, 0.0)
        return full[self.u] - full[self.v]


def _solve(L, rhs):
    try:
        return np.linalg.solve(L, rhs)
    except np.linalg.LinAlgError as exc:
        raise NonConvergence(f"singular block Laplacian: {exc}") from None


def _newton(sys_, y, r):
    """Minimum-energy unit flow on the block for r > 1 (see module docstring)."""
    c0 = (y / y.max()) ** r  # conductances y^r, rescaled; the flow does not change
    w = 1.0 / c0
    phi0, fac0 = sys_.factor(c0, sys_.rhs)

    def project(f):
        return f + c0 * sys_.drop(sys_.resolve(fac0, sys_.rhs - sys_.divergence(f)))

    def energy(f):
        return float(np.sum(w * np.abs(f) ** (r + 1.0)))

    f = c0 * sys_.drop(phi0)
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
        f = project(trial)
        e, e_old = energy(f), e
        if e >= e_old:
            if size <= _STALL_TOL * scale:
                return f  # the energy stalls at the floating-point floor
            stalls += 1
            if stalls > _MAX_STALLS:
                raise NonConvergence(
                    f"energy descent stalled {stalls} times with steps of {size:.3e} left"
                )


def min_energy_flow(n, arcs, y, r, s, t) -> FlowState:
    """Minimum-energy unit s-t flow on the supported arcs (y_a > 0).

    Raises Disconnected when the support does not connect s to t, and
    NonConvergence if the Newton steps (r > 1; r = 1 takes none) do not
    converge (see the module docstring). The potentials hold
    the potential law only to the rounding of max|pi|, which at r = 4 can
    exceed 1e-6 relative on arcs with tiny drops (see FlowState); use
    energy, not pi_s - pi_t, for the resistance.
    """
    _check_inputs(n, arcs, y, r, s, t)
    m = len(arcs)
    support = [a for a in range(m) if y[a] > 0.0 and arcs[a][0] != arcs[a][1]]
    block = [support[i] for i in st_block_arcs(n, [arcs[a] for a in support], s, t)]
    if not block:
        raise Disconnected("s and t are not connected by installed arcs")

    sys_ = _BlockSystem(n, arcs, block, s, t)
    yb = np.array([y[a] for a in block], dtype=float)
    if r == 1.0:
        cond = yb / yb.max()
        fb = cond * sys_.drop(sys_.factor(cond, sys_.rhs)[0])
    else:
        fb = _newton(sys_, yb, r)

    f = np.zeros(m)
    f[block] = fb
    ys = np.array([y[a] for a in support], dtype=float)
    drops = _arc_drops(f[support], ys, r)

    # Potentials along a spanning forest of the support, least |f| first.
    ds = DisjointSets(n)
    tree = [[] for _ in range(n)]
    for i in np.argsort(np.abs(f[support]), kind="stable").tolist():
        u, v = arcs[support[i]]
        if ds.union(u, v):
            d = float(drops[i])
            tree[u].append((v, -d))
            tree[v].append((u, d))
    pi = [0.0] * n
    seen = [False] * n
    seen[t] = True
    stack = [t]
    while stack:
        x = stack.pop()
        for z, d in tree[x]:
            if not seen[z]:
                seen[z] = True
                pi[z] = pi[x] + d
                stack.append(z)

    energy = float(np.sum(np.abs(fb) * _arc_drops(np.abs(fb), yb, r)))
    return FlowState(f=tuple(f.tolist()), pi=tuple(pi), energy=energy)


def effective_resistance(n, arcs, y, r, s, t) -> float:
    """The energy of the minimum-energy unit flow; +inf when disconnected."""
    try:
        state = min_energy_flow(n, arcs, y, r, s, t)
    except Disconnected:
        return math.inf
    return state.energy


def support_resistance(inst, y) -> float:
    """Effective s-t resistance of the arcs of inst that y installs (y_a > 0).

    An arc with infinite y is a short circuit: the ends of such arcs are
    contracted into one node first, and the result is 0.0 when that joins s
    and t. Without infinite arcs the nodes keep their numbers.
    """
    keep = [a for a, v in enumerate(y) if 0.0 < v < math.inf]
    arcs = [inst.arcs[a] for a in keep]
    n, s, t = inst.n, inst.s, inst.t
    if any(math.isinf(v) for v in y):
        ds = DisjointSets(n)
        for a, (u, v) in enumerate(inst.arcs):
            if math.isinf(y[a]):
                ds.union(u, v)
        label = {}
        for v in range(n):
            label.setdefault(ds.find(v), len(label))
        node = [label[ds.find(v)] for v in range(n)]
        n, s, t = len(label), node[s], node[t]
        if s == t:
            return 0.0
        arcs = [(node[u], node[v]) for u, v in arcs]
    return effective_resistance(n, arcs, [y[a] for a in keep], inst.r, s, t)


def effective_conductance(n, arcs, y, r, s, t) -> float:
    """R^(-1/r) by ``sptree.res_to_cond``: 0 -> +inf, +inf -> 0, and the
    largest finite float past the float range."""
    from .sptree import res_to_cond  # here, so the resistance command never loads sptree

    return res_to_cond(effective_resistance(n, arcs, y, r, s, t), r)
