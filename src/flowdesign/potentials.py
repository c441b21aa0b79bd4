"""The flow vector and node potentials of an energy solve.

``resistance.min_energy_flow`` imports this module on its first call and
builds its ``FlowState`` here. The `resistance` command and ``verify``
without a flow witness need only the energy, which
``resistance.effective_resistance`` returns without building f or pi, so
they never compile this module.

Potentials are read off the final flow along a spanning tree that takes the
arcs of least |f| first. The potential law is then exact where it is most
sensitive: a potential error on an arc with a small drop moves the flow it
implies by a factor |drop|^{1/r - 1}.
"""

from __future__ import annotations

import numpy as np

from .resistance import DisjointSets, FlowState


def flow_state(n, arcs, y, r, t, block, fb, energy) -> FlowState:
    """The FlowState of a solve whose flow on the arcs of block is fb."""
    m = len(arcs)
    support = [a for a in range(m) if y[a] > 0.0 and arcs[a][0] != arcs[a][1]]
    f = np.zeros(m)
    f[block] = fb
    ys = np.array([y[a] for a in support], dtype=float)
    drops = np.sign(f[support]) * (np.abs(f[support]) / ys) ** r

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
    return FlowState(f=tuple(f.tolist()), pi=tuple(pi), energy=energy)
