"""Span recording around the program's layer functions, from outside the program.

``Tracer.install`` replaces the module-level bindings that callers actually
look up (several modules import names directly, so the same function can sit
behind more than one binding) with wrappers that record a span per call:
name, start, end, parent span and instance id. ``Tracer.uninstall`` puts the
originals back. Spans stay in memory until the run writes them out.

Per-layer metrics are derived from the spans afterwards: a ``*_s`` metric is
the summed inclusive duration of its spans, a ``*self_s`` metric subtracts
the part of each span that its child spans cover.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field

from flowdesign import cli, core, pathdesign, resistance, rsp, spdesign


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int
    instance: str | None
    outcome: str = "ok"
    note: dict = field(default_factory=dict)


# A note taker turns a call's arguments and result into the counters its span
# carries; it runs after the span's end time is taken.
def _dp_note(args, kwargs, result):
    return {"cells": result.iterations}


def _menu_note(args, kwargs, result):
    return {"options": sum(len(opts) for opts in result.options)}


def _grid_note(args, kwargs, result):
    return {"points": len(result.points)}


def _energy_note(args, kwargs, result):
    n, arcs, y = args[0], args[1], args[2]
    return {"cycle_dim": cycle_dimension(n, arcs, y)}


# (module, attribute, span name, note taker)
BINDINGS = (
    (cli, "decompose", "sptree.decompose", None),
    (core, "parse_instance", "core.parse_instance", None),
    (spdesign, "decompose", "sptree.decompose", None),
    (spdesign, "resistance_sp", "sptree.resistance_sp", None),
    (spdesign, "verify", "core.verify", None),
    (spdesign, "fill_table", "spdesign.fill_table", _dp_note),
    (spdesign, "discretize_conductances", "spdesign.discretize", _menu_note),
    (spdesign, "solve_fixed_conductance_fptas", "spdesign.fixed_fptas", None),
    (spdesign, "solve_sp_fptas", "spdesign.sp_fptas", None),
    (spdesign, "dp_exact", "spdesign.dp_exact", None),
    (pathdesign, "solve_path_fptas", "pathdesign.path_fptas", None),
    (pathdesign, "lambda_grid", "pathdesign.lambda_grid", _grid_note),
    (pathdesign, "rsp_fptas", "rsp.fptas", None),
    (rsp, "_label_search", "rsp.label_search", None),
    (resistance, "min_energy_flow", "resistance.min_energy_flow", _energy_note),
)


def cycle_dimension(n, arcs, y) -> int:
    """m - n + components of the support (arcs with y > 0, no self-loops)."""
    parent = list(range(n))

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    # components = nodes - merges, so m - n + components = edges - merges
    edges = merges = 0
    for (u, v), ya in zip(arcs, y):
        if ya > 0.0 and u != v:
            edges += 1
            ru, rv = find(u), find(v)
            if ru != rv:
                parent[ru] = rv
                merges += 1
    return edges - merges


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []
        self.instance: str | None = None

    def wrap(self, name, fn, note=None):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            span = Span(name, time.perf_counter(), math.nan,
                        stack[-1] if stack else -1, self.instance)
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.outcome = type(exc).__name__
                raise
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if note is not None:
                span.note = note(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer is already installed")
        for module, attr, name, note in BINDINGS:
            orig = getattr(module, attr)
            self._saved.append((module, attr, orig))
            setattr(module, attr, self.wrap(name, orig, note))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, orig = self._saved.pop()
            setattr(module, attr, orig)

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, sp in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "name": sp.name, "start": sp.start, "end": sp.end,
                    "parent": sp.parent, "instance": sp.instance,
                    "outcome": sp.outcome, "note": sp.note,
                }) + "\n")


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it covered by its children."""
    children: dict[int, list[Span]] = {}
    for sp in spans:
        if sp.parent >= 0:
            children.setdefault(sp.parent, []).append(sp)
    out = []
    for i, sp in enumerate(spans):
        covered = 0.0
        cur_start = cur_end = None
        for ch in sorted(children.get(i, ()), key=lambda c: c.start):
            lo, hi = max(ch.start, sp.start), min(ch.end, sp.end)
            if hi <= lo:
                continue
            if cur_end is None or lo > cur_end:
                if cur_end is not None:
                    covered += cur_end - cur_start
                cur_start, cur_end = lo, hi
            else:
                cur_end = max(cur_end, hi)
        if cur_end is not None:
            covered += cur_end - cur_start
        out.append((sp.end - sp.start) - covered)
    return out


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer totals over every span of a traced pass."""
    selfs = self_times(spans)
    calls: dict[str, int] = {}
    total: dict[str, float] = {}
    own: dict[str, float] = {}
    notes: dict[str, float] = {}
    infeasible: dict[str, int] = {}
    for sp, st in zip(spans, selfs):
        calls[sp.name] = calls.get(sp.name, 0) + 1
        total[sp.name] = total.get(sp.name, 0.0) + (sp.end - sp.start)
        own[sp.name] = own.get(sp.name, 0.0) + st
        if sp.outcome == "Infeasible":
            infeasible[sp.name] = infeasible.get(sp.name, 0) + 1
        for key, val in sp.note.items():
            notes[f"{sp.name}.{key}"] = notes.get(f"{sp.name}.{key}", 0) + val

    def n(name):
        return calls.get(name, 0)

    def s(name):
        return total.get(name, 0.0)

    fill_s = s("spdesign.fill_table")
    dp_cells = notes.get("spdesign.fill_table.cells", 0)
    rsp_calls = n("rsp.fptas")
    return {
        "cli.self_s": own.get("cli", 0.0),
        "core.parse_s": s("core.parse_instance"),
        "core.verify_calls": n("core.verify"),
        "core.verify_s": s("core.verify"),
        "sptree.decompose_calls": n("sptree.decompose"),
        "sptree.decompose_s": s("sptree.decompose"),
        "sptree.resistance_sp_calls": n("sptree.resistance_sp"),
        "sptree.resistance_sp_s": s("sptree.resistance_sp"),
        "spdesign.discretize_s": s("spdesign.discretize"),
        "spdesign.menu_options": notes.get("spdesign.discretize.options", 0),
        "spdesign.fill_calls": n("spdesign.fill_table"),
        "spdesign.fill_s": fill_s,
        "spdesign.dp_cells": dp_cells,
        "spdesign.dp_cells_per_s": dp_cells / fill_s if fill_s > 0.0 else 0.0,
        "spdesign.fptas_self_s": own.get("spdesign.fixed_fptas", 0.0),
        "pathdesign.grid_points": notes.get("pathdesign.lambda_grid.points", 0),
        "pathdesign.fptas_self_s": own.get("pathdesign.path_fptas", 0.0),
        "rsp.calls": rsp_calls,
        "rsp.infeasible": infeasible.get("rsp.fptas", 0),
        "rsp.s": s("rsp.fptas"),
        "rsp.label_searches": n("rsp.label_search"),
        "rsp.label_frac": n("rsp.label_search") / rsp_calls if rsp_calls else 0.0,
        "rsp.label_s": s("rsp.label_search"),
        "resistance.calls": n("resistance.min_energy_flow"),
        "resistance.cycle_dim": notes.get("resistance.min_energy_flow.cycle_dim", 0),
        "resistance.s": s("resistance.min_energy_flow"),
        "trace.total_s": s("cli"),
    }
