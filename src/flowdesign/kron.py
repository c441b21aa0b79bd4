"""Kron reduction of the s-t block's low-degree nodes, for the energy solver.

``resistance._BlockSystem`` reduces a block only when one of its BFS levels
from t is wider than a block, as on random graphs, and imports this module
then, so a solve whose levels stay narrow, such as a grid's, never compiles
it.

The reduction works on the block as a weighted graph in which parallel arcs
share one edge. The nodes other than t with at most ``_DEGREE`` neighbours
are eliminated, lowest degree first (minimum-degree order, George and Liu
1989), in rounds of nonadjacent nodes (Liu's multiple elimination, 1985).
Eliminating a node v whose edges weigh w_a, with W_v their sum, is a
star-mesh step (Kron reduction, Dorfler and Bullo 2013): each pair of its
neighbours gains w_a w_b / W_v, and its right-hand side moves onto them in
the shares w_a / W_v. Every new weight is a product or a sum of positive
numbers, so the reduction adds no cancellation. The potentials of the
eliminated nodes come back by back-substitution, phi_v = b_v / W_v +
sum_a (w_a / W_v) phi_a, last round first.

``Reduction`` records the rounds once, symbolically, and ``weights``,
``push`` and ``back`` replay them on numbers. Nodes of one round do not
touch each other, so numpy both records and eliminates a round at once:
the round's nodes are the ones a greedy pass in degree order picks, found
in a few array passes, and their neighbour, edge and fill rows are read
from the edge arrays. Only the edges are numbered in Python, through one
dict of node pairs. The rounds are those of a node-by-node greedy loop, kept
in the tests as the reference: the same nodes, rows and edge numbers in the
same order, so the energies are the same floats.
"""

from __future__ import annotations

import numpy as np

from .errors import NonConvergence

# Most neighbours a node may have and still be reduced. On the benchmark's
# random graphs (m = 2n, r = 1; one BLAS thread, 2-core Xeon) a solve at
# n = 600 / 900 / 1,200 took 3.9 / 7.2 / 12.2 ms at 3, 3.6 / 6.1 / 9.7 at
# 4, 3.6 / 6.0 / 9.4 at 5 and 3.7 / 6.1 / 8.5 at 6, against 5.4 / 11.8 /
# 27.3 with no node reduced (minima of 21 solves). The peak RSS of a
# resistance call on them fell from 42.5 MiB (two BLAS threads: 43.7) to
# 36.0 at 4 (36.8; 38.3 at 3, 36.0 at 5, 35.7 at 6). 5 and 6 are a little
# faster at n = 1,200, but another value reduces other nodes, and so changes
# the last bits of every reduced solve's energy.
_DEGREE = 4
# The pairs (i, j), i < j, of a reduced node's neighbours, ordered by j, so
# that the d (d - 1) / 2 pairs of a node with d neighbours come first.
_PAIRS = np.tril_indices(_DEGREE, -1)[::-1]


class Reduction:
    """The reduction of a block whose arc a joins tails[a] and heads[a].

    After construction, ``reduced`` lists the reduced nodes in their order
    and ``left`` the ends of the edges left, in the order of the edges, for
    the caller to number the core. ``number`` then fixes the rounds in the
    caller's numbering.
    """

    def __init__(self, n, tails, heads, t):
        # Edge ends, and the edge of each pair of nodes lo < hi that has one,
        # by the key lo * n + hi.
        self._n, self._pairs = n, {}
        self._eu = self._ev = np.zeros(0, dtype=np.intp)
        self.edge = self._join(tails, heads)
        alive = np.ones(len(self._eu), dtype=bool)
        # Each round as the chosen nodes and, per chosen node, a row of its
        # neighbours, of the edges to them and of the fill edge of each pair
        # in _PAIRS, padded to the round's widest degree with t and edge -1.
        rounds = []
        while True:
            arc = np.flatnonzero(alive)
            u, v = self._eu[arc], self._ev[arc]
            deg = np.bincount(u, minlength=n) + np.bincount(v, minlength=n)
            deg[t] = 0
            order = np.flatnonzero((deg > 0) & (deg <= _DEGREE))
            if not len(order):
                break
            # Pick the nodes that a greedy pass over order, lowest degree
            # first, picks when it skips every node joined to one picked
            # before: the lexicographically first independent set. By rank,
            # a node is picked once no undecided neighbour precedes it, so
            # each pass decides the first node of every chain at once.
            order = order[np.argsort(deg[order] * n + order)]
            rank = np.full(n, len(order))
            rank[order] = np.arange(len(order))
            lo, hi = np.minimum(rank[u], rank[v]), np.maximum(rank[u], rank[v])
            out = np.zeros(len(order) + 1, dtype=bool)
            out[-1] = True  # the rank of every node not in order
            while len(lo):
                picked = ~out
                picked[hi] = False
                out[hi[picked[lo]]] = True
                keep = ~(out[lo] | out[hi])
                lo, hi = lo[keep], hi[keep]
            chosen = order[~out[:-1]]
            # Each chosen node's edges, by chosen node, then by edge. No edge
            # joins two chosen nodes, and eliminating one adds no edge to
            # another, so all rows are read before the first elimination.
            at = np.full(n, -1)
            at[chosen] = np.arange(len(chosen))
            row = np.maximum(at[u], at[v])
            mine = np.flatnonzero(row >= 0)
            mine = mine[np.argsort(row[mine] * len(row) + mine)]  # ties by edge
            d = deg[chosen]
            cell = row[mine], np.arange(len(mine)) - (np.cumsum(d) - d)[row[mine]]
            near = np.full((len(chosen), d.max()), t)
            edges = np.full(near.shape, -1)
            near[cell] = u[mine] + v[mine] - chosen[cell[0]]
            edges[cell] = arc[mine]
            i, j = (p[:d.max() * (d.max() - 1) >> 1] for p in _PAIRS)
            pair = j < d[:, None]
            fill = np.full(pair.shape, -1)
            fill[pair] = self._join(near[:, i][pair], near[:, j][pair])
            alive = np.append(alive, np.ones(len(self._eu) - len(alive), dtype=bool))
            alive[arc[mine]] = False
            rounds.append((chosen, near, edges, fill))
        self._rounds = rounds
        self.reduced = [v for chosen, *_ in rounds for v in chosen.tolist()]
        arc = np.flatnonzero(alive)
        self.left = list(zip(self._eu[arc].tolist(), self._ev[arc].tolist()))

    def _join(self, a, b):
        """The edge joining a[i] and b[i] for each i: the one there is, or a
        new one, numbered in the order of the pairs' first appearance."""
        pairs = self._pairs
        key = (np.minimum(a, b) * self._n + np.maximum(a, b)).tolist()
        ids = np.array([pairs.setdefault(x, len(pairs)) for x in key], dtype=np.intp)
        # A new edge first appears where the running maximum of ids rises.
        rise = np.maximum.accumulate(np.append(len(self._eu) - 1, ids))
        new = np.flatnonzero(rise[1:] > rise[:-1])
        self._eu, self._ev = np.append(self._eu, a[new]), np.append(self._ev, b[new])
        return ids

    def number(self, index):
        """Fix the rounds with node x numbered index[x], and return the ends
        of every edge, fill included, in that numbering."""
        self._rounds = [(index[chosen], index[near], *rest) for chosen, near, *rest in self._rounds]
        self._edges = len(self._eu)
        return index[self._eu], index[self._ev]

    def weights(self, cond):
        """The edge weights left after the rounds, from arc conductances
        cond, and each round's shares w_a / W_v and totals W_v."""
        w = np.bincount(self.edge, cond, self._edges + 1)  # w[-1] stays 0
        shares = []
        for _, _, edges, fill in self._rounds:
            i, j = (p[:fill.shape[1]] for p in _PAIRS)
            wv = w[edges]
            total = wv.sum(axis=1)
            if not total.all():
                raise NonConvergence("singular block Laplacian: a node's conductances underflow")
            share = wv / total[:, None]
            np.add.at(w, fill, wv[:, i] * share[:, j])
            shares.append((share, total))
        return w, shares

    def push(self, shares, rhs):
        """rhs, with an entry for t appended, after each round moved its
        nodes' entries onto their neighbours by their shares."""
        b = np.append(rhs, 0.0)
        for (nodes, near, *_), (share, _) in zip(self._rounds, shares):
            np.add.at(b, near, share * b[nodes, None])
        return b

    def back(self, shares, b, phi):
        """Fill in phi, which holds the core's potentials (and 0 at t), on
        the reduced nodes, last round first."""
        for (nodes, near, *_), (share, total) in zip(self._rounds[::-1], shares[::-1]):
            phi[nodes] = b[nodes] / total + (share * phi[near]).sum(axis=1)
