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
routes ``_make`` (and so ``_replace``) through it, as ``Network`` does.

The checker itself lives in ``certify``; ``verify`` here forwards to it and
imports it on the first call, so the calls that never check a solution
(path solves, sp-exact, resistance) do not compile it.
"""

from __future__ import annotations

import json
import math
import sys
from collections import namedtuple
from itertools import chain, filterfalse

from .errors import SchemaError, ValidationError

UNBOUNDED = math.inf

# Net flow a unit s-t flow may miss at any node, per arc it spans. A unit
# flow computed in floating point is off by a few ulps of 1 per arc it
# splits through; 2^-40 per arc leaves room for that and still rejects any
# real leak, such as a half-unit flow.
FLOW_SLACK_PER_ARC = 2.0 ** -40

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


_NUMBER_TYPES = {int, float}  # what JSON numbers parse to; bool is neither


def _finite_floats(values, message: str) -> tuple[float, ...]:
    """values as floats, when values is a list of ints and floats (no bools)
    within the float range; SchemaError(message) otherwise. Each check is one
    pass in C: the types, the conversion (an int past the float range raises
    OverflowError) and finiteness (a literal such as 1e400 parses to inf)."""
    if type(values) is not list or not _NUMBER_TYPES.issuperset(map(type, values)):
        raise SchemaError(message)
    try:
        floats = tuple(map(float, values))
    except OverflowError:
        raise SchemaError(message) from None
    if not all(map(math.isfinite, floats)):
        raise SchemaError(message)
    return floats


def _finite_or_inf(values, message: str) -> tuple[float, ...]:
    """values as floats, when each is a finite number or the string "inf"
    (read as math.inf); SchemaError(message) otherwise."""
    _finite_floats([*filterfalse(("inf",).__contains__, values)], message)
    return tuple(map(float, values))


def _finite(value, message: str) -> float:
    return _finite_floats([value], message)[0]


def check_terminals(n: int, s: int, t: int) -> None:
    """Raise ValidationError unless s and t are distinct nodes of 0..n-1."""
    if not (0 <= s < n and 0 <= t < n):
        raise ValidationError("terminal out of range")
    if s == t:
        raise ValidationError("s and t must differ")


def check_exponent(r: float) -> None:
    """Raise ValidationError unless the flow exponent r is finite and >= 1."""
    if not (1.0 <= r < math.inf):
        raise ValidationError("flow exponent r must be a finite real >= 1")


def _check_network(inst) -> None:
    """The checks Instance and FixedInstance share: nodes, terminals, r, arcs, B."""
    if inst.n < 2:
        raise ValidationError("need at least two nodes")
    check_terminals(inst.n, inst.s, inst.t)
    check_exponent(inst.r)
    if not {2}.issuperset(map(len, inst.arcs)):
        raise ValidationError("each arc must be a (tail, head) pair")
    ends = [*chain.from_iterable(inst.arcs)]
    if ends and not (0 <= min(ends) and max(ends) < inst.n):
        raise ValidationError("arc endpoint out of range")
    if not (inst.B > 0.0):
        raise ValidationError("budget B must be > 0")


class Network:
    """Base of the network records: ``_make`` (so ``_replace``) runs ``__new__``'s checks."""

    __slots__ = ()

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)

    @property
    def m(self) -> int:
        return len(self.arcs)


class Instance(Network, namedtuple("Instance", "n arcs s t r c gamma ybar B")):
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
        # isfinite rules out NaN first, which min would otherwise skip
        if not (all(map(math.isfinite, c)) and min(c, default=0.0) >= 0.0):
            raise ValidationError("variable costs must be finite and >= 0")
        if not (all(map(math.isfinite, gamma)) and min(gamma, default=0.0) >= 0.0):
            raise ValidationError("fixed costs must be finite and >= 0")
        if any(map(math.isnan, ybar)) or not (min(ybar, default=1.0) > 0.0):
            raise ValidationError("conductance bounds must be > 0")
        return self

    def unbounded(self) -> bool:
        """True when no arc has a finite conductance bound."""
        return all(math.isinf(ub) for ub in self.ybar)


class Solution(namedtuple("Solution", "x y cost achievedR")):
    """A design: x[a] in {0, 1} installs arc a at conductance y[a], for a
    total cost; achievedR is the resistance the solver reports for it."""

    __slots__ = ()


class FixedInstance(Network, namedtuple("FixedInstance", "n arcs s t r B options")):
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
        pairs = [*chain.from_iterable(options)]
        mus, prices = zip(*pairs) if pairs else ((), ())
        if not (all(map(math.isfinite, mus)) and min(mus, default=1.0) > 0.0):
            raise ValidationError("option conductances must be finite and > 0")
        if not (all(map(math.isfinite, prices)) and min(prices, default=0.0) >= 0.0):
            raise ValidationError("option prices must be finite and >= 0")
        return self


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
    if type(n) is not int:
        raise SchemaError("n must be an integer")
    if n > sys.maxsize:
        raise SchemaError(f"n must be at most {sys.maxsize}")
    raw_arcs = doc["arcs"]
    if type(raw_arcs) is not list:
        raise SchemaError("arcs must be a list")
    if not ({list}.issuperset(map(type, raw_arcs)) and {2}.issuperset(map(len, raw_arcs))
            and {int}.issuperset(map(type, chain.from_iterable(raw_arcs)))):
        raise SchemaError("each arc must be a [tail, head] pair of integers")
    for key in ("s", "t"):
        if type(doc[key]) is not int:
            raise SchemaError(f"{key} must be an integer")
    r = _finite(doc["r"], "r must be a finite number")
    B = _finite(doc["B"], "B must be a finite number")
    c = _finite_floats(doc["c"], "c must be a list of finite numbers")
    gamma = _finite_floats(doc["gamma"], "gamma must be a list of finite numbers")
    if "ybar" in doc:
        if type(doc["ybar"]) is not list:
            raise SchemaError("ybar must be a list")
        ybar = _finite_or_inf(doc["ybar"], 'ybar entries must be numbers or "inf"')
    else:
        ybar = (math.inf,) * len(raw_arcs)

    return Instance(
        n=n, arcs=tuple(map(tuple, raw_arcs)), s=doc["s"], t=doc["t"], r=r,
        c=c, gamma=gamma, ybar=ybar, B=B,
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
    if not (type(raw_x) is list and {int}.issuperset(map(type, raw_x)) and {0, 1}.issuperset(raw_x)):
        raise SchemaError("x must be a list of 0/1 integers")
    if type(doc["y"]) is not list:
        raise SchemaError("y must be a list")
    y = _finite_or_inf(doc["y"], 'y entries must be numbers or "inf"')
    cost = _finite(doc["cost"], "cost must be a finite number")
    ar = _finite_or_inf([doc["achievedR"]], 'achievedR must be a number or "inf"')[0]
    return Solution(x=tuple(raw_x), y=y, cost=cost, achievedR=ar)


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


def adjacency(n: int, arcs, y=None) -> list[list[int]]:
    """The arcs as an adjacency, in one pass: adj[x] holds each neighbour of
    node x and the arc to it, v0, a0, v1, a1, ..., in arc order. Self-loops
    are skipped, and with conductances y so are the arcs with y_a <= 0."""
    adj = [[] for _ in range(n)]
    for a, (u, v) in enumerate(arcs):
        if u != v and (y is None or y[a] > 0.0):
            adj[u] += v, a
            adj[v] += u, a
    return adj


def node_ids(n: int, arcs, s: int, t: int, merged=()):
    """{node: number} over s, t and the ends of arcs and merged, ascending, when
    there are arcs to merge or n > 2 len(arcs) + 2, so that a solve on these
    numbers takes O(m) time and memory however large n is; else None."""
    if merged or n > 2 * len(arcs) + 2:
        used = sorted({s, t}.union(*arcs, *merged))
        return dict(zip(used, range(len(used))))
    return None


def compact(n: int, arcs, s: int, t: int):
    """(n, arcs, s, t) on the numbering of ``node_ids``, which keeps the
    nodes' order, when it numbers them; else as given."""
    ids = node_ids(n, arcs, s, t)
    if ids:
        return len(ids), [(ids[u], ids[v]) for u, v in arcs], ids[s], ids[t]
    return n, arcs, s, t


def verify(inst: Instance, sol: Solution, tol: float = 1e-9, flow=None) -> VerificationReport:
    """``certify.verify``, with certify imported on the first call, so a call
    that never checks a solution never compiles the checker."""
    from . import certify

    return certify.verify(inst, sol, tol, flow)
