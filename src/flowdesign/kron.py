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

``Reduction`` records the rounds once, symbolically; ``weights``, ``push``
and ``back`` replay them on numbers. Nodes of one round do not touch each
other, so numpy eliminates a round at once.
"""

from __future__ import annotations

import numpy as np

from .errors import NonConvergence

# Most neighbours a node may have and still be reduced. On the benchmark's
# random graphs (m = 2n; one BLAS thread, 2-core Xeon) a solve at n = 600 /
# 900 / 1,200 took 6.7 / 11.9 / 20.2 ms at 3, 5.7 / 9.8 / 17.1 at 4, 6.3 /
# 11.4 / 16.9 at 5 and 6.7 / 11.7 / 15.9 at 6, against 7.2 / 15.2 / 28.6
# unreduced; the peak RSS of a resistance call on them fell from 42.5 MiB
# (two BLAS threads: 43.7) to 36.0 at 4 (36.8; 38.3 at 3, 36.0 at 5, 35.7
# at 6).
_DEGREE = 4
# The pairs (i, j), i < j, of a reduced node's neighbours, ordered by j, so
# that the d (d - 1) / 2 pairs of a node with d neighbours come first.
_PAIRS = np.tril_indices(_DEGREE, -1)[::-1]


class Reduction:
    """The reduction of a block whose arc a joins tails[a] and heads[a].

    After construction, ``reduced`` lists the reduced nodes in their order
    and ``nbrs[x]`` maps each neighbour x has left to the edge joining them,
    for the caller to number the core. ``number`` then fixes the rounds in
    the caller's numbering and drops the graph.
    """

    def __init__(self, n, tails, heads, nodes, t):
        nbrs = [{} for _ in range(n)]
        self.edge, eu, ev = [], [], []
        for x, z in zip(tails, heads):
            e = nbrs[x].setdefault(z, len(eu))
            if e == len(eu):
                nbrs[z][x] = e
                eu.append(x)
                ev.append(z)
            self.edge.append(e)
        low = {x for x in nodes if len(nbrs[x]) <= _DEGREE}
        low.discard(t)
        # Each round as the chosen nodes and, per chosen node, flat: its
        # neighbours, the edges to them and the fill edge of each pair in
        # _PAIRS, padded to the round's widest degree with t and edge -1.
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
            low.difference_update(chosen)
            for a in touched:
                if len(nbrs[a]) <= _DEGREE and a != t:
                    low.add(a)
                else:
                    low.discard(a)
            rounds.append((chosen, near_rows, edge_rows, fill_rows))
        self._ends, self.nbrs, self._rounds = (eu, ev), nbrs, rounds
        self.reduced = [v for chosen, *_ in rounds for v in chosen]

    def number(self, index):
        """Fix the rounds as arrays, with node x numbered index[x], and return
        the ends of every edge, fill included, in that numbering."""
        self._rounds = [
            (index[chosen], index[near].reshape(len(chosen), -1),
             np.array(edges, dtype=np.intp).reshape(len(chosen), -1),
             np.array(fill, dtype=np.intp).reshape(len(chosen), len(fill) // len(chosen)))
            for chosen, near, edges, fill in self._rounds
        ]
        self.edge = np.array(self.edge, dtype=np.intp)
        eu, ev = self._ends
        self._edges = len(eu)
        self._ends = self.nbrs = None
        return index[eu], index[ev]

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
