"""Tests of the benchmark's own arithmetic, checker and corpus generators.

Run from the repository root: python -m pytest -q bench/tests
"""

import contextlib
import io
import itertools
import json
import math

import pytest

import check
import corpus
import harness
import spans
from flowdesign import cli, core


def span(name, start, end, parent, instance="i0"):
    return spans.Span(name, start, end, parent, instance)


def test_self_times_subtract_covered_child_intervals():
    tree = [
        span("cli", 0.0, 10.0, -1),
        span("spdesign.fixed_fptas", 1.0, 8.0, 0),
        span("spdesign.fill_table", 2.0, 4.0, 1),
        span("spdesign.fill_table", 5.0, 6.5, 1),
        span("core.verify", 8.5, 9.5, 0),
        span("resistance.min_energy_flow", 8.75, 9.25, 4),
    ]
    assert spans.self_times(tree) == pytest.approx([2.0, 3.5, 2.0, 1.5, 0.5, 0.5])
    m = spans.layer_metrics(tree)
    assert m["cli.self_s"] == pytest.approx(2.0)
    assert m["spdesign.fptas_self_s"] == pytest.approx(3.5)
    assert m["spdesign.fill_calls"] == 2
    assert m["spdesign.fill_s"] == pytest.approx(3.5)
    assert m["core.verify_s"] == pytest.approx(1.0)
    assert m["resistance.s"] == pytest.approx(0.5)
    assert m["trace.total_s"] == pytest.approx(10.0)


def test_self_times_merge_overlapping_children():
    tree = [span("cli", 0.0, 10.0, -1), span("a", 1.0, 5.0, 0), span("b", 3.0, 7.0, 0)]
    assert spans.self_times(tree)[0] == pytest.approx(4.0)


def test_tracer_records_nesting_and_restores_bindings():
    from flowdesign import spdesign

    original = spdesign.fill_table
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert spdesign.fill_table is not original
    finally:
        tracer.uninstall()
    assert spdesign.fill_table is original


def test_cycle_dimension_of_a_grid():
    k = 5
    arcs = corpus.grid_arcs(k)
    assert spans.cycle_dimension(k * k, arcs, [1.0] * len(arcs)) == (k - 1) ** 2


def test_tail_percentile_leaves_ten_samples_beyond():
    p, v = harness.tail([float(i) for i in range(1, 41)])
    assert p == 75 and v == 30.0
    assert harness.tail([1.0, 2.0]) == (None, 2.0)


def test_host_factor_is_the_mean_of_the_reference_runs_around_a_child(monkeypatch):
    times = iter([0.1, 0.3, 0.2])
    monkeypatch.setattr(harness, "sample", lambda *args: next(times))
    host = harness.HostSpeed({}, ".", "reference.err")
    assert host.factor() == pytest.approx(0.2 / harness.REFERENCE_NOMINAL_S)
    assert host.factor() == pytest.approx(0.25 / harness.REFERENCE_NOMINAL_S)
    assert host.samples == [0.1, 0.3, 0.2]


def solved_sp(tmp_path):
    inst_text = core.write_instance(
        core.Instance(n=3, arcs=((0, 1), (1, 2), (0, 2)), s=0, t=2, r=1.0,
                      c=(1.0, 2.0, 1.5), gamma=(0.5, 0.25, 1.0),
                      ybar=(2.0, 2.0, 1.0), B=1.2)
    )
    path = tmp_path / "inst.json"
    path.write_text(inst_text)
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        assert cli.main(["solve", "--in", str(path), "--eps", "0.5"]) == 0
    return core.parse_instance(inst_text), out.getvalue()


def test_untampered_solution_passes(tmp_path):
    inst, stdout = solved_sp(tmp_path)
    problems, cost = check.check_solution(inst, stdout, "sp")
    assert problems == []
    assert cost == json.loads(stdout)["cost"]


def test_solution_above_ybar_fails(tmp_path):
    inst, stdout = solved_sp(tmp_path)
    doc = json.loads(stdout)
    a = doc["x"].index(1)
    doc["y"][a] = inst.ybar[a] * 1.5
    problems, _ = check.check_solution(inst, json.dumps(doc), "sp")
    assert any("outside" in p for p in problems)


def test_wrong_cost_fails(tmp_path):
    inst, stdout = solved_sp(tmp_path)
    doc = json.loads(stdout)
    doc["cost"] *= 1.0 + 1e-6
    problems, _ = check.check_solution(inst, json.dumps(doc), "sp")
    assert any("recomputed" in p for p in problems)


def test_tampered_call_counts_as_failed(tmp_path):
    inst, stdout = solved_sp(tmp_path)
    doc = json.loads(stdout)
    doc["cost"] += 1.0
    ent = {"id": "x", "kind": "sp", "expect_exit": 0}
    checked = harness.check_entries(
        [ent, ent, ent], [inst, inst, inst],
        [(0, stdout), (0, json.dumps(doc)), (2, "")],
    )
    assert [bool(p) for p, _ in checked] == [False, True, True]
    problems = [p for p, _ in checked]
    quality = harness.quality_metrics([ent] * 3, checked, problems)
    assert quality["check.failed_frac"] == pytest.approx(2 / 3)


def test_knapsack_optimum_matches_enumeration():
    mu = [1.5, 0.7, 2.2, 1.1, 0.4]
    price = [7, 3, 11, 5, 2]
    for r in (1.0, 2.0):
        B = 2.9 ** (-r)
        best = min(
            sum(p for p, x in zip(price, xs) if x)
            for xs in itertools.product((0, 1), repeat=len(mu))
            if any(xs) and sum(m for m, x in zip(mu, xs) if x) ** (-r) <= B
        )
        assert check.knapsack_optimum(mu, price, B, r) == best


def test_energy_certificate_agrees_with_laplacian():
    k = 4
    arcs = [tuple(a) for a in corpus.grid_arcs(k)]
    inst = core.Instance(n=k * k, arcs=tuple(arcs), s=0, t=k * k - 1, r=1.0,
                         c=(1.0,) * len(arcs), gamma=(0.0,) * len(arcs),
                         ybar=tuple(1.0 + 0.1 * i for i in range(len(arcs))), B=1.0)
    problems, R = check.certify_resistance(inst)
    assert problems == []
    assert R == pytest.approx(check.laplacian_resistance(inst.n, arcs, inst.ybar, 0, k * k - 1))
    bad, err = check.check_resistance_output(json.dumps({"R": R * 1.01}), R)
    assert bad and err == pytest.approx(0.01)


@pytest.mark.parametrize("workload", corpus.WORKLOADS)
def test_same_seed_gives_byte_identical_corpus(tmp_path, workload):
    def files(seed, name):
        entries = corpus.write_corpus(corpus.generate(workload, seed), str(tmp_path / name))
        return [open(ent["path"], "rb").read() for ent in entries]

    first, again, other = files(7, "a"), files(7, "b"), files(8, "c")
    assert first == again
    assert first != other
