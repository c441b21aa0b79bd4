"""Instance/solution data model, JSON I/O, and the entry to the solution checker.

An instance is a directed multigraph with designated terminals s and t, a
flow exponent r >= 1, per-arc variable costs c, fixed costs gamma, upper
conductance bounds ybar, and a resistance budget B. A solution installs a
subset of arcs (x) with chosen conductances (y); it is feasible when the
effective resistance of the installed network between s and t stays within
the budget. Arc direction never matters for feasibility: flow may traverse
an arc against its orientation.

Conductances may be UNBOUNDED (infinite). That is only meaningful on arcs
with zero variable cost and no upper bound; such an arc behaves like a
short circuit and is serialized as the string "inf".

The records here and in the other modules are namedtuple subclasses with no
per-instance dict: immutable, built by keyword or position, compared and
hashed by value. A record with invariants checks them in ``__new__`` and
routes ``_make`` (and so ``_replace``) through it.

The checker itself lives in ``certify``; ``verify`` here forwards to it and
imports it on the first call, so the calls that never check a solution
(path solves, sp-exact, resistance) do not compile it.
"""

from __future__ import annotations

import json
import math
from collections import namedtuple

from .errors import SchemaError, ValidationError

UNBOUNDED = math.inf

_INSTANCE_REQUIRED = ("n", "arcs", "s", "t", "r", "c", "gamma", "B")
_INSTANCE_OPTIONAL = ("ybar",)
_SOLUTION_FIELDS = ("x", "y", "cost", "achievedR")


_EPSILON_DOMAINS = {
    "path-fptas": ("(0, 1]", lambda eps: 0.0 < eps <= 1.0),
    "sp-fptas": ("(0, 1)", lambda eps: 0.0 < eps < 1.0),
}


def check_epsilon(epsilon: float, mode: str = "path-fptas") -> None:
    """Raise ValidationError unless epsilon lies in the accuracy domain of mode.

    The domains live only here. Every approximation scheme takes epsilon in
    (0, 1], as path-fptas does, except the continuous series-parallel
    pipeline (sp-fptas), whose discretization is stated for (0, 1).
    """
    domain, contains = _EPSILON_DOMAINS[mode]
    if not contains(epsilon):
        raise ValidationError(f"epsilon must be in {domain}, got {epsilon}")


def check_tol(tol: float) -> None:
    """Raise ValidationError unless tol is a finite number > 0.

    The domain of the tolerance ``verify`` and verify's --tol take. Outside
    it the check is void: a NaN tol fails every budget check, a negative
    one shrinks the budget below B, and tol = inf passes any finite
    resistance.
    """
    if not (0.0 < tol < math.inf):
        raise ValidationError(f"tol must be a finite number > 0, got {tol}")


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _is_real(v) -> bool:
    return (isinstance(v, float) or _is_int(v)) and math.isfinite(v)


def _check_network(inst) -> None:
    """The checks Instance and FixedInstance share: nodes, terminals, r, arcs, B."""
    if inst.n < 2:
        raise ValidationError("need at least two nodes")
    if not (0 <= inst.s < inst.n and 0 <= inst.t < inst.n):
        raise ValidationError("terminal out of range")
    if inst.s == inst.t:
        raise ValidationError("s and t must differ")
    if not (inst.r >= 1.0) or not math.isfinite(inst.r):
        raise ValidationError("flow exponent r must be a finite real >= 1")
    for u, v in inst.arcs:
        if not (0 <= u < inst.n and 0 <= v < inst.n):
            raise ValidationError("arc endpoint out of range")
    if not (inst.B > 0.0):
        raise ValidationError("budget B must be > 0")


class Instance(namedtuple("Instance", "n arcs s t r c gamma ybar B")):
    """A design instance. Arrays are indexed by arc in file order."""

    __slots__ = ()

    def __new__(
        cls,
        n: int,
        arcs: tuple[tuple[int, int], ...],
        s: int,
        t: int,
        r: float,
        c: tuple[float, ...],
        gamma: tuple[float, ...],
        ybar: tuple[float, ...],
        B: float,
    ):
        self = super().__new__(cls, n, arcs, s, t, r, c, gamma, ybar, B)
        _check_network(self)
        m = len(arcs)
        for name, values in (("c", c), ("gamma", gamma), ("ybar", ybar)):
            if len(values) != m:
                raise ValidationError(f"{name} must have one entry per arc")
        for a in range(m):
            if not (c[a] >= 0.0) or not math.isfinite(c[a]):
                raise ValidationError("variable costs must be finite and >= 0")
            if not (gamma[a] >= 0.0) or not math.isfinite(gamma[a]):
                raise ValidationError("fixed costs must be finite and >= 0")
            if not (ybar[a] > 0.0):
                raise ValidationError("conductance bounds must be > 0")
        return self

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)

    @property
    def m(self) -> int:
        return len(self.arcs)

    def unbounded(self) -> bool:
        """True when no arc has a finite conductance bound."""
        return all(math.isinf(ub) for ub in self.ybar)


class Solution(namedtuple("Solution", "x y cost achievedR")):
    """A design: x[a] in {0, 1} installs arc a at conductance y[a], for a
    total cost; achievedR is the resistance the solver reports for it."""

    __slots__ = ()


class FixedInstance(namedtuple("FixedInstance", "n arcs s t r B options")):
    """A design instance whose conductances come from a discrete menu.

    ``options[a]`` lists the installable (mu, p) pairs for arc a: conductance
    mu at price p. Installing nothing is always allowed. Fixed costs are
    folded into the prices.
    """

    __slots__ = ()

    def __new__(
        cls,
        n: int,
        arcs: tuple[tuple[int, int], ...],
        s: int,
        t: int,
        r: float,
        B: float,
        options: tuple[tuple[tuple[float, float], ...], ...],
    ):
        self = super().__new__(cls, n, arcs, s, t, r, B, options)
        _check_network(self)
        if len(options) != len(arcs):
            raise ValidationError("options must have one entry per arc")
        for opts in options:
            for mu, p in opts:
                if not (mu > 0.0) or not math.isfinite(mu):
                    raise ValidationError("option conductances must be finite and > 0")
                if not (p >= 0.0) or not math.isfinite(p):
                    raise ValidationError("option prices must be finite and >= 0")
        return self

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)

    @property
    def m(self) -> int:
        return len(self.arcs)


class VerificationReport(
    namedtuple("VerificationReport", "feasible achievedR cost reasons", defaults=((),))
):
    """verify's verdict: feasible, the resistance and cost it recomputed, and
    a tuple of reasons (empty unless a structural check failed)."""

    __slots__ = ()


def _require_fields(doc: dict, required, optional, what: str) -> None:
    for key in required:
        if key not in doc:
            raise SchemaError(f"{what} is missing field {key!r}")
    allowed = set(required) | set(optional)
    for key in doc:
        if key not in allowed:
            raise SchemaError(f"{what} has unknown field {key!r}")


def _loads(text: str) -> dict:
    def bad_const(name):
        raise SchemaError(f"non-finite literal {name!r} is not allowed")

    try:
        doc = json.loads(text, parse_constant=bad_const)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise SchemaError("top-level value must be an object")
    return doc


def parse_instance(text: str) -> Instance:
    """Parse an instance document, rejecting unknown fields.

    Omitting "ybar" means every arc is unbounded; an explicit entry may be
    the string "inf" for the same effect on a single arc.
    """
    doc = _loads(text)
    _require_fields(doc, _INSTANCE_REQUIRED, _INSTANCE_OPTIONAL, "instance")

    n = doc["n"]
    if not _is_int(n):
        raise SchemaError("n must be an integer")
    raw_arcs = doc["arcs"]
    if not isinstance(raw_arcs, list):
        raise SchemaError("arcs must be a list")
    arcs = []
    for ent in raw_arcs:
        if not isinstance(ent, list) or len(ent) != 2 or not all(_is_int(e) for e in ent):
            raise SchemaError("each arc must be a [tail, head] pair of integers")
        arcs.append((ent[0], ent[1]))
    for key in ("s", "t"):
        if not _is_int(doc[key]):
            raise SchemaError(f"{key} must be an integer")
    for key in ("r", "B"):
        if not _is_real(doc[key]):
            raise SchemaError(f"{key} must be a finite number")

    def number_list(key):
        val = doc[key]
        if not isinstance(val, list) or not all(_is_real(v) for v in val):
            raise SchemaError(f"{key} must be a list of finite numbers")
        return tuple(float(v) for v in val)

    c = number_list("c")
    gamma = number_list("gamma")
    if "ybar" in doc:
        raw = doc["ybar"]
        if not isinstance(raw, list):
            raise SchemaError("ybar must be a list")
        ybar = []
        for v in raw:
            if v == "inf":
                ybar.append(math.inf)
            elif _is_real(v):
                ybar.append(float(v))
            else:
                raise SchemaError('ybar entries must be numbers or "inf"')
        ybar = tuple(ybar)
    else:
        ybar = (math.inf,) * len(arcs)

    return Instance(
        n=n,
        arcs=tuple(arcs),
        s=doc["s"],
        t=doc["t"],
        r=float(doc["r"]),
        c=c,
        gamma=gamma,
        ybar=ybar,
        B=float(doc["B"]),
    )


def write_instance(inst: Instance) -> str:
    """Serialize an instance. The ybar field is omitted when all-unbounded."""
    if not math.isfinite(inst.B):
        raise ValidationError("cannot serialize an infinite budget")
    doc = {
        "n": inst.n,
        "arcs": [[u, v] for u, v in inst.arcs],
        "s": inst.s,
        "t": inst.t,
        "r": inst.r,
        "c": list(inst.c),
        "gamma": list(inst.gamma),
        "B": inst.B,
    }
    if not inst.unbounded():
        doc["ybar"] = ["inf" if math.isinf(ub) else ub for ub in inst.ybar]
    return json.dumps(doc, sort_keys=True)


def read_solution(text: str) -> Solution:
    doc = _loads(text)
    _require_fields(doc, _SOLUTION_FIELDS, (), "solution")
    raw_x = doc["x"]
    if not isinstance(raw_x, list) or not all(_is_int(v) and v in (0, 1) for v in raw_x):
        raise SchemaError("x must be a list of 0/1 integers")
    raw_y = doc["y"]
    if not isinstance(raw_y, list):
        raise SchemaError("y must be a list")
    y = []
    for v in raw_y:
        if v == "inf":
            y.append(math.inf)
        elif _is_real(v):
            y.append(float(v))
        else:
            raise SchemaError('y entries must be numbers or "inf"')
    if not _is_real(doc["cost"]):
        raise SchemaError("cost must be a finite number")
    ar = doc["achievedR"]
    if ar == "inf":
        ar = math.inf
    elif _is_real(ar):
        ar = float(ar)
    else:
        raise SchemaError('achievedR must be a number or "inf"')
    return Solution(x=tuple(raw_x), y=tuple(y), cost=float(doc["cost"]), achievedR=ar)


def write_solution(sol: Solution) -> str:
    """Serialize a solution so that reading it back is value-exact.

    Finite floats go through repr (shortest round-trip form); infinite
    conductances and an infinite achievedR become the string "inf".
    """
    if not math.isfinite(sol.cost):
        raise ValidationError("cannot serialize a non-finite cost")
    for v in sol.y:
        if math.isnan(v):
            raise ValidationError("conductances must not be NaN")
    doc = {
        "x": list(sol.x),
        "y": ["inf" if math.isinf(v) else v for v in sol.y],
        "cost": sol.cost,
        "achievedR": "inf" if math.isinf(sol.achievedR) else sol.achievedR,
    }
    return json.dumps(doc, sort_keys=True)


def adjacency(n: int, arcs) -> list[list[tuple[int, int]]]:
    """Per-node lists of (arc, other end) in arc order; self-loops are skipped."""
    adj = [[] for _ in range(n)]
    for a, (u, v) in enumerate(arcs):
        if u != v:
            adj[u].append((a, v))
            adj[v].append((a, u))
    return adj


def st_block_arcs(n: int, arcs, s: int, t: int) -> list[int]:
    """Indices of the arcs that lie on some simple s-t path, ascending.

    Direction is ignored. An arc lies on a simple s-t path exactly when it
    shares a biconnected component with a virtual arc s-t, so this is one
    iterative Hopcroft-Tarjan pass from s that stops at that component.
    Self-loops, pendant trees, cycles hanging off a cut vertex and other
    components are left out; the list is empty when s and t are not
    connected.
    """
    virtual = len(arcs)
    adj = adjacency(n, arcs)
    adj[s].append((virtual, t))
    adj[t].append((virtual, s))

    disc = [-1] * n
    low = [0] * n
    disc[s] = 0
    clock = 1
    edges: list[int] = []
    frames = [(s, -1, iter(adj[s]))]
    while frames:
        u, via, it = frames[-1]
        for a, v in it:
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
                low[u] = min(low[u], disc[v])
        else:
            frames.pop()
            if not frames:
                break
            p = frames[-1][0]
            low[p] = min(low[p], low[u])
            if low[u] >= disc[p]:
                # u's subtree closes a block whose first arc is `via`
                block = []
                while True:
                    a = edges.pop()
                    block.append(a)
                    if a == via:
                        break
                if virtual in block:
                    block.remove(virtual)
                    return sorted(block)
    return []


def verify(inst: Instance, sol: Solution, tol: float = 1e-9, flow=None) -> VerificationReport:
    """``certify.verify``, with certify imported on the first call, so a call
    that never checks a solution never compiles the checker."""
    from . import certify

    return certify.verify(inst, sol, tol, flow)
