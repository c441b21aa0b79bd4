import json
import math
import os
import random
import subprocess
import sys

import pytest

from flowdesign import (
    Disconnected, Instance, Solution, parse_instance, read_solution, verify, write_instance,
    write_solution,
)
from flowdesign import cli
from flowdesign.cli import main
from flowdesign.oracles import brute_paths_unbounded, random_sp_structure
from flowdesign.pathdesign import solve_variable_cost_only, to_solution


def child_env():
    """The environment for a fresh interpreter that imports this flowdesign.

    PYTHONUNBUFFERED is dropped, so the child's stdout is block-buffered as
    in a user's shell and a run that failed to flush it would lose output."""
    import flowdesign

    src = os.path.dirname(os.path.dirname(os.path.abspath(flowdesign.__file__)))
    env = dict(os.environ)
    env.pop("PYTHONUNBUFFERED", None)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return env


def run_in_512_mib(argv, head=("-m", "flowdesign")):
    """``python -m flowdesign argv`` (``python *head argv``) in an address
    space of 512 MiB."""
    import resource

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (512 * 2**20, 512 * 2**20))

    return subprocess.run(
        [sys.executable, *head, *argv], capture_output=True,
        text=True, timeout=120, env=child_env(), preexec_fn=limit,
    )


def write_file(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def diamond_unbounded(tmp_path):
    inst = Instance(
        n=3, arcs=((0, 1), (1, 2), (0, 2)), s=0, t=2, r=1.0,
        c=(1.0, 2.0, 5.0), gamma=(0.0, 0.0, 0.0), ybar=(math.inf,) * 3, B=1.0,
    )
    return inst, write_file(tmp_path, "inst.json", write_instance(inst))


def bounded_series(tmp_path, B):
    inst = Instance(
        n=3, arcs=((0, 1), (1, 2)), s=0, t=2, r=1.0,
        c=(1.0, 1.0), gamma=(0.5, 0.5), ybar=(1.0, 1.0), B=B,
    )
    return inst, write_file(tmp_path, "inst.json", write_instance(inst))


def solved_sp_files(tmp_path, capsys):
    """An SP instance, its solution, the solution with y halved and the
    solution with a negative y on its first arc."""
    inst = str(tmp_path / "inst.json")
    assert main(["gen", "--family", "random-sp", "--seed", "11", "--size", "6", "--out", inst]) == 0
    sol = str(tmp_path / "sol.json")
    assert main(["solve", "--in", inst, "--out", sol]) == 0
    capsys.readouterr()
    full = read_solution((tmp_path / "sol.json").read_text())
    half = write_solution(full._replace(y=tuple(v * 0.5 for v in full.y)))
    negative = write_solution(full._replace(y=(-1.0, *full.y[1:])))
    return {"inst": inst, "sol": sol, "half": write_file(tmp_path, "half.json", half),
            "negative": write_file(tmp_path, "negative.json", negative)}


class TestSolve:
    def test_auto_mode_on_free_install_costs(self, tmp_path, capsys):
        inst, path = diamond_unbounded(tmp_path)
        assert main(["solve", "--in", path]) == 0
        cap = capsys.readouterr()
        assert "mode=path-exact" in cap.err
        got = read_solution(cap.out)
        want = to_solution(inst, solve_variable_cost_only(inst))
        assert got.cost == pytest.approx(want.cost, rel=1e-12)
        assert got.x == want.x

    def test_auto_mode_on_bounded_sp(self, tmp_path, capsys):
        _, path = bounded_series(tmp_path, B=3.0)
        assert main(["solve", "--in", path, "--eps", "0.5"]) == 0
        cap = capsys.readouterr()
        assert "mode=sp-fptas" in cap.err
        assert read_solution(cap.out).cost > 0.0

    def test_auto_mode_decomposes_once(self, tmp_path, capsys, monkeypatch):
        from flowdesign import spdesign, sptree

        calls = []

        def counted(*args):
            calls.append(args)
            return sptree.decompose(*args)

        monkeypatch.setattr(cli, "decompose", counted)
        monkeypatch.setattr(spdesign, "decompose", counted)
        _, path = bounded_series(tmp_path, B=3.0)
        assert main(["solve", "--in", path, "--eps", "0.5"]) == 0
        assert "mode=sp-fptas" in capsys.readouterr().err
        assert len(calls) == 1

    def test_path_fptas_builds_one_adjacency(self, tmp_path, capsys, monkeypatch):
        # the seeds, the bracket's probes and the final pass share one adjacency
        from flowdesign import core, rsp

        inst = Instance(n=4, arcs=((0, 1), (1, 3), (0, 2), (2, 3), (1, 2)), s=0, t=3, r=1.0,
                        c=(1.0, 2.0, 3.0, 1.0, 1.0), gamma=(1.0, 1.0, 2.0, 2.0, 0.5),
                        ybar=(math.inf,) * 5, B=1.0)
        path = write_file(tmp_path, "inst.json", write_instance(inst))
        calls = {"adjacency": 0, "_label_search": 0}
        for name, module in (("adjacency", core), ("adjacency", rsp), ("_label_search", rsp)):
            def counted(*args, _orig=getattr(module, name), _name=name):
                calls[_name] += 1
                return _orig(*args)

            monkeypatch.setattr(module, name, counted)
        assert main(["solve", "--mode", "path-fptas", "--in", path]) == 0
        assert capsys.readouterr().err == "mode=path-fptas eps=0.25\n"
        assert calls["adjacency"] == 1 and calls["_label_search"] >= 1

    def test_eps_out_of_range(self, tmp_path, capsys):
        _, path = diamond_unbounded(tmp_path)
        assert main(["solve", "--in", path, "--mode", "path-fptas", "--eps", "1.5"]) == 1
        assert "--eps" in capsys.readouterr().err

    def test_eps_one_is_in_the_path_fptas_domain(self, tmp_path, capsys):
        inst = Instance(
            n=3, arcs=((0, 1), (1, 2), (0, 2)), s=0, t=2, r=1.0,
            c=(1.0, 2.0, 5.0), gamma=(1.0, 0.5, 0.0), ybar=(math.inf,) * 3, B=1.0,
        )
        path = write_file(tmp_path, "inst.json", write_instance(inst))
        assert main(["solve", "--in", path, "--mode", "path-fptas", "--eps", "1.0"]) == 0
        got = read_solution(capsys.readouterr().out)
        assert got.cost <= 2.0 * brute_paths_unbounded(inst).cost * (1.0 + 1e-12)

    def test_eps_one_is_outside_the_sp_fptas_domain(self, tmp_path, capsys):
        _, path = bounded_series(tmp_path, B=3.0)
        for mode in ("sp-fptas", "auto"):
            assert main(["solve", "--in", path, "--mode", mode, "--eps", "1.0"]) == 1
            err = capsys.readouterr().err
            assert "--eps" in err and "(0, 1)" in err
        assert main(["solve", "--in", path, "--mode", "sp-fptas", "--eps", "0.99"]) == 0

    def test_infeasible_exits_2(self, tmp_path, capsys):
        _, path = bounded_series(tmp_path, B=1.9)
        assert main(["solve", "--in", path]) == 2
        assert "infeasible" in capsys.readouterr().err

    def test_non_sp_bounded_exits_3(self, tmp_path, capsys):
        arcs = tuple((i, j) for i in range(4) for j in range(i + 1, 4))
        inst = Instance(
            n=4, arcs=arcs, s=0, t=3, r=1.0,
            c=(1.0,) * 6, gamma=(0.0,) * 6, ybar=(2.0,) * 6, B=1.0,
        )
        path = write_file(tmp_path, "k4.json", write_instance(inst))
        assert main(["solve", "--in", path]) == 3
        assert "unsupported" in capsys.readouterr().err

    @pytest.mark.parametrize("mode", ["path-fptas", "brute", "auto"])
    def test_cost_beyond_the_float_range_exits_3(self, tmp_path, capsys, mode):
        # phi(S) = S^2 / B = (2e154)^2 overflows: no float holds the cost
        inst = Instance(
            n=3, arcs=((0, 1), (1, 2)), s=0, t=2, r=1.0,
            c=(1e308, 1e308), gamma=(1.0, 1.0), ybar=(math.inf,) * 2, B=1.0,
        )
        path = write_file(tmp_path, "huge.json", write_instance(inst))
        assert main(["solve", "--in", path, "--mode", mode]) == 3
        cap = capsys.readouterr()
        assert "unsupported" in cap.err and "float range" in cap.err
        assert cap.out == ""

    @pytest.mark.parametrize("mode", ["sp-fptas", "auto"])
    def test_budget_scale_beyond_the_float_range_exits_3(self, tmp_path, capsys, mode):
        # feasible (R = 2.94e-309 at ybar), but B^(-1/r) = 1/3e-309 overflows
        inst = Instance(
            n=2, arcs=((0, 1), (0, 1)), s=0, t=1, r=1.0,
            c=(1.0, 1.0), gamma=(0.0, 0.0), ybar=(1.7e308, 1.7e308), B=3e-309,
        )
        path = write_file(tmp_path, "tiny_b.json", write_instance(inst))
        assert main(["resistance", "--in", path]) == 0
        assert json.loads(capsys.readouterr().out)["R"] <= inst.B
        assert main(["solve", "--in", path, "--mode", mode]) == 3
        cap = capsys.readouterr()
        assert "unsupported" in cap.err and "float range" in cap.err
        assert cap.out == ""

    @pytest.mark.parametrize("mode", ["sp-fptas", "auto"])
    def test_menu_price_beyond_the_float_range_exits_3(self, tmp_path, capsys, mode):
        # B^(-1/r) = 1e300 is finite, but arc 0's top menu price c_0 * ybar_0 is not
        inst = Instance(
            n=2, arcs=((0, 1), (0, 1)), s=0, t=1, r=1.0,
            c=(1e10, 1.0), gamma=(0.0, 0.0), ybar=(1.7e308, 1.7e308), B=1e-300,
        )
        path = write_file(tmp_path, "huge_price.json", write_instance(inst))
        assert main(["solve", "--in", path, "--mode", mode]) == 3
        cap = capsys.readouterr()
        assert "unsupported" in cap.err and "float range" in cap.err
        assert cap.out == ""

    @staticmethod
    def rung_instance(r, c, ybar, B):
        """Two parallel arcs 0-1 in series with arc 1-2; gamma prices arc 1."""
        return Instance(
            n=3, arcs=((0, 1), (0, 1), (1, 2)), s=0, t=2, r=r,
            c=c, gamma=(0.0, 1.0, 0.0), ybar=ybar, B=B,
        )

    @pytest.mark.parametrize("mode", ["sp-fptas", "auto"])
    def test_leaf_resistance_beyond_the_float_range_exits_2(self, tmp_path, capsys, mode):
        # y^-r = (1e-300)^-2 overflows; it reads +inf, so R at ybar misses B = 1e308
        inst = self.rung_instance(2.0, (1.0,) * 3, (1e-300,) * 3, 1e308)
        path = write_file(tmp_path, "tiny_y.json", write_instance(inst))
        assert main(["solve", "--in", path, "--mode", mode]) == 2
        cap = capsys.readouterr()
        assert "infeasible" in cap.err and cap.out == ""

    @pytest.mark.parametrize("mode", ["sp-fptas", "auto"])
    def test_menu_resistance_beyond_the_float_range_is_skipped(self, tmp_path, capsys, mode):
        # R at ybar just meets B = 1.5e300; the menus start near 3e-313, whose
        # y^-1 overflows and reads +inf, so the DP must pick ybar everywhere
        inst = self.rung_instance(1.0, (1e-10, 1.0, 1e-10), (1e-300,) * 3, 1.5e300)
        path = write_file(tmp_path, "tiny_menu.json", write_instance(inst))
        assert main(["solve", "--in", path, "--mode", mode]) == 0
        sol = read_solution(capsys.readouterr().out)
        assert sol.y == inst.ybar
        assert verify(inst, sol).feasible

    @pytest.mark.parametrize("mode", ["sp-fptas", "auto"])
    def test_overflowing_parallel_sum_is_solved_or_refused(self, tmp_path, capsys, mode):
        # At ybar the parallel pair's conductances 1.7e308 sum past the float
        # range; R there is about 8.8e-309, not the series arc's 5.88e-309
        def rung(B):
            inst = Instance(
                n=3, arcs=((0, 1), (0, 1), (1, 2)), s=0, t=2, r=1.0,
                c=(1e-10, 1.0, 1e-10), gamma=(0.0,) * 3, ybar=(1.7e308,) * 3, B=B,
            )
            return inst, write_file(tmp_path, f"rung_{B!r}.json", write_instance(inst))

        _, path = rung(5.9e-309)
        assert main(["solve", "--in", path, "--mode", mode]) == 2
        cap = capsys.readouterr()
        assert "infeasible" in cap.err and cap.out == ""

        inst, path = rung(9.5e-309)
        assert main(["solve", "--in", path, "--mode", mode]) == 0
        sol = read_solution(capsys.readouterr().out)
        assert verify(inst, sol).feasible

    def test_sp_fptas_answer_on_wide_spread_verifies(self, tmp_path, capsys):
        # Conductances spread by 1e12: R read as pi_s - pi_t is off by several
        # percent here and would fail the final check; the energy is not.
        inst = self.rung_instance(2.0, (1e-10, 1.0, 1e-10), (1e150,) * 3, 5e-300)
        path = write_file(tmp_path, "wide.json", write_instance(inst))
        assert main(["solve", "--in", path, "--mode", "sp-fptas"]) == 0
        sol = read_solution(capsys.readouterr().out)
        report = verify(inst, sol)
        assert report.feasible
        assert report.achievedR == pytest.approx(sol.achievedR, rel=1e-9)

    def test_brute_skips_paths_beyond_the_float_range(self, tmp_path, capsys):
        inst = Instance(
            n=3, arcs=((0, 1), (1, 2), (0, 2)), s=0, t=2, r=1.0,
            c=(1e308, 1e308, 4.0), gamma=(1.0, 1.0, 1.0), ybar=(math.inf,) * 3, B=1.0,
        )
        path = write_file(tmp_path, "mixed.json", write_instance(inst))
        for mode in ("brute", "path-fptas"):
            assert main(["solve", "--in", path, "--mode", mode]) == 0
            assert read_solution(capsys.readouterr().out).x == (0, 0, 1)

    def test_sp_exact_solves_knapsack_encoding(self, tmp_path, capsys):
        inst = Instance(
            n=2, arcs=((0, 1), (0, 1)), s=0, t=1, r=1.0,
            c=(0.0, 0.0), gamma=(1.0, 2.0), ybar=(3.0, 4.0), B=0.25,
        )
        path = write_file(tmp_path, "ks.json", write_instance(inst))
        assert main(["solve", "--in", path, "--mode", "sp-exact"]) == 0
        assert read_solution(capsys.readouterr().out).cost == 2.0

    KNAPSACK = dict(
        n=2, arcs=((0, 1), (0, 1)), s=0, t=1, r=1.0,
        c=(0.0, 0.0), gamma=(1.0, 2.0), ybar=(3.0, 4.0), B=0.25,
    )

    @pytest.mark.parametrize("field, value, message", [
        ("c", (0.0, 1.0), "sp-exact prices arcs by gamma alone; c must be zero"),
        ("gamma", (1.0, 2.5), "sp-exact needs integer gamma prices"),
    ])
    def test_sp_exact_refusals_exit_3(self, tmp_path, capsys, field, value, message):
        fields = {**self.KNAPSACK, field: value}
        path = write_file(tmp_path, "ks.json", write_instance(Instance(**fields)))
        assert main(["solve", "--in", path, "--mode", "sp-exact"]) == 3
        cap = capsys.readouterr()
        assert cap.err == f"unsupported: {message}\n" and cap.out == ""

    def test_sp_exact_installs_an_unbounded_arc_at_resistance_0(self, tmp_path, capsys):
        fields = {**self.KNAPSACK, "ybar": (math.inf, 4.0)}
        path = write_file(tmp_path, "ks.json", write_instance(Instance(**fields)))
        assert main(["solve", "--in", path, "--mode", "sp-exact"]) == 0
        sol = read_solution(capsys.readouterr().out)
        assert sol.cost == 1.0 and sol.x == (1, 0) and sol.achievedR == 0.0

    @pytest.mark.parametrize("price", [1e15, 1e300])
    def test_sp_exact_refuses_prices_too_large_for_its_lists(self, tmp_path, capsys, price):
        # the DP's lists over the total prices 0..2 * price cannot be built:
        # 1e15 runs out of memory, 1e300 past the index range
        fields = {**self.KNAPSACK, "gamma": (price, price), "ybar": (1.0, 1.0), "B": 0.6}
        path = write_file(tmp_path, "ks.json", write_instance(Instance(**fields)))
        assert main(["solve", "--in", path, "--mode", "sp-exact"]) == 3
        cap = capsys.readouterr()
        assert cap.out == "" and cap.err.startswith("unsupported: ") and cap.err.count("\n") == 1

    def test_brute_mode_on_partition_instance(self, tmp_path, capsys):
        assert main(["gen", "--family", "partition", "--numbers", "1,1,2",
                     "--out", str(tmp_path / "p.json")]) == 0
        capsys.readouterr()
        assert main(["solve", "--in", str(tmp_path / "p.json"), "--mode", "brute"]) == 0
        assert read_solution(capsys.readouterr().out).cost == pytest.approx(23.0, rel=1e-9)

    def test_reads_stdin(self, tmp_path, capsys, monkeypatch):
        inst, _ = diamond_unbounded(tmp_path)
        import io

        monkeypatch.setattr(sys, "stdin", io.StringIO(write_instance(inst)))
        assert main(["solve", "--in", "-"]) == 0
        assert read_solution(capsys.readouterr().out).cost > 0.0


# Each shape is small enough for brute: a triangle, two arcs 0-1-2 in
# parallel with one 0-2 (series-parallel), or a Wheatstone bridge (not).
TRIANGLE = dict(n=3, arcs=((0, 1), (1, 2), (0, 2)), s=0, t=2)
BRIDGE = dict(n=4, arcs=((0, 1), (0, 2), (1, 2), (1, 3), (2, 3)), s=0, t=3)
SHAPES = {
    "unbounded": Instance(
        **TRIANGLE, r=1.0, c=(1.0, 2.0, 5.0), gamma=(1.0, 0.5, 2.0), ybar=(math.inf,) * 3, B=1.0),
    "unbounded-gamma-0": Instance(
        **TRIANGLE, r=1.0, c=(1.0, 2.0, 5.0), gamma=(0.0,) * 3, ybar=(math.inf,) * 3, B=1.0),
    "unbounded-c-0": Instance(
        **TRIANGLE, r=2.0, c=(0.0,) * 3, gamma=(1.0, 0.5, 2.0), ybar=(math.inf,) * 3, B=1.0),
    "bounded-sp": Instance(
        **TRIANGLE, r=1.0, c=(1.0, 2.0, 5.0), gamma=(1.0, 0.5, 2.0), ybar=(2.0,) * 3, B=1.0),
    "bounded-non-sp": Instance(
        **BRIDGE, r=1.0, c=(1.0,) * 5, gamma=(0.5,) * 5, ybar=(2.0,) * 5, B=1.0),
    "bounded-sp-c-0-arc": Instance(
        **TRIANGLE, r=1.0, c=(0.0, 2.0, 5.0), gamma=(1.0, 0.5, 2.0), ybar=(2.0,) * 3, B=1.0),
    "mixed-ybar": Instance(
        **TRIANGLE, r=1.0, c=(1.0, 2.0, 5.0), gamma=(1.0, 0.5, 2.0), ybar=(math.inf, 2.0, 2.0), B=1.0),
}


class TestModeMatrix:
    """Every mode on every shape solves it (exit 0), proves it infeasible
    (exit 2) or refuses it (exit 3, one unsupported: line, no stdout);
    no mode mismatch is a usage error."""

    @pytest.mark.parametrize("mode", cli._MODES)
    @pytest.mark.parametrize("shape", SHAPES)
    def test_solves_or_exits_2_or_3(self, tmp_path, capsys, shape, mode):
        inst = SHAPES[shape]
        path = write_file(tmp_path, "inst.json", write_instance(inst))
        code = main(["solve", "--in", path, "--mode", mode])
        cap = capsys.readouterr()
        if code == 0:
            assert cap.err.startswith("mode=") and verify(inst, read_solution(cap.out)).feasible
        elif code == 2:
            assert cap.err.startswith("infeasible: ") and cap.out == ""
        else:
            assert code == 3, cap.err
            assert cap.err.startswith("unsupported: ") and cap.err.count("\n") == 1
            assert cap.out == ""

    @pytest.mark.parametrize("shape", ["unbounded-gamma-0", "unbounded-c-0"])
    def test_path_modes_agree_where_one_cost_vanishes(self, tmp_path, capsys, shape):
        path = write_file(tmp_path, "inst.json", write_instance(SHAPES[shape]))
        outs = []
        for mode in ("path-exact", "path-fptas", "auto"):
            assert main(["solve", "--in", path, "--mode", mode]) == 0
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1] == outs[2]


def log_uniform(rng, lo=1e-300, hi=1e300):
    return 10.0 ** rng.uniform(math.log10(lo), math.log10(hi))


def small_unbounded_doc(rng, cost, n_max=8, isolated=0):
    """A connected random graph on at most n_max nodes, plus `isolated` nodes
    with no arc (so s or t may be one), with c and gamma drawn by cost()."""
    n = rng.randint(2, n_max)
    arcs = [[i, rng.randrange(i)] for i in range(1, n)]
    arcs += [[rng.randrange(n), rng.randrange(n)] for _ in range(rng.randint(0, 6))]
    n += isolated
    s, t = rng.sample(range(n), 2)
    return {"n": n, "arcs": arcs, "s": s, "t": t, "r": rng.choice([1.0, 1.5, 2.0, 4.0]),
            "c": [cost() for _ in arcs], "gamma": [cost() for _ in arcs], "B": log_uniform(rng)}


class TestPathModes:
    """path-exact, path-fptas and auto run one solve, ``rsp.frontier_fptas``;
    where one cost vector vanishes its bounds meet before any label pass."""

    @pytest.mark.parametrize("mode", ["auto", "path-exact", "path-fptas"])
    @pytest.mark.parametrize("c, gamma", [
        pytest.param((0.0,) * 3, (1.0, 0.5, 2.0), id="c-0"),
        pytest.param((1.0, 2.0, 5.0), (0.0,) * 3, id="gamma-0"),
        pytest.param((0.0,) * 3, (0.0,) * 3, id="all-0"),
    ])
    def test_single_cost_runs_no_label_pass(self, tmp_path, capsys, monkeypatch, mode, c, gamma):
        from flowdesign import rsp

        def unrun(*args):
            raise AssertionError("a label pass ran")

        inst = Instance(**TRIANGLE, r=1.0, c=c, gamma=gamma, ybar=(math.inf,) * 3, B=1.0)
        path = write_file(tmp_path, "inst.json", write_instance(inst))
        monkeypatch.setattr(rsp, "_label_search", unrun)
        assert main(["solve", "--in", path, "--mode", mode]) == 0
        assert verify(inst, read_solution(capsys.readouterr().out)).feasible

    def test_single_cost_modes_agree_with_path_enumeration(self, tmp_path, capsys):
        # c or gamma vanishes; the other is drawn near 1, or log-uniform over
        # the float range; up to 4 isolated nodes, so s or t may be cut off
        rng = random.Random(29)
        path = str(tmp_path / "inst.json")
        for i in range(240):
            def cost():
                return rng.choice([0.0, rng.uniform(0.0, 5.0), log_uniform(rng)])

            doc = small_unbounded_doc(rng, cost, isolated=rng.choice([0, 0, 4]))
            doc["c" if i % 2 else "gamma"] = [0.0] * len(doc["arcs"])
            write_file(tmp_path, "inst.json", json.dumps(doc))
            runs = []
            for mode in ("path-exact", "path-fptas", "auto"):
                code = main(["solve", "--in", path, "--mode", mode])
                runs.append((code, *capsys.readouterr()))
            assert runs[0][:2] == runs[1][:2] == runs[2][:2], doc
            code, out, err = runs[0]
            inst = parse_instance(json.dumps(doc))
            if code == 0:
                want = brute_paths_unbounded(inst)
                assert read_solution(out).cost == pytest.approx(want.cost, rel=1e-12), doc
            elif code == 2:
                with pytest.raises(Disconnected):
                    brute_paths_unbounded(inst)
            else:
                # the optimal path's cost or a conductance on it leaves the float range
                assert (code, err.endswith("leaves the float range\n")) == (3, True), (doc, err)

    @pytest.mark.parametrize("mode", ["auto", "path-exact", "path-fptas", "brute"])
    def test_resistance_that_rounds_past_the_float_range(self, tmp_path, capsys, mode):
        # y^-4 is B = the largest float, rounded up past it
        doc = {"n": 2, "arcs": [[0, 1]], "s": 0, "t": 1, "r": 4.0, "c": [3.0], "gamma": [0.0],
               "B": sys.float_info.max}
        path = write_file(tmp_path, "inst.json", json.dumps(doc))
        assert main(["solve", "--in", path, "--mode", mode]) == 3
        assert capsys.readouterr() == (
            "", "unsupported: the resistance of the design leaves the float range\n")

    @pytest.mark.parametrize("mode", ["auto", "path-exact", "path-fptas", "brute"])
    @pytest.mark.parametrize("c, B, y", [(1e300, 1e300, 1e-300), (1e-300, 1e-300, 1e300)])
    def test_conductance_whose_factors_leave_the_float_range(self, tmp_path, capsys, mode, c, B, y):
        # c^(1/2) B is 1e450 or 1e-450, while y = c^(1/2) / (c^(1/2) B) is in range
        doc = {"n": 2, "arcs": [[0, 1]], "s": 0, "t": 1, "r": 1.0, "c": [c], "gamma": [0.0], "B": B}
        path = write_file(tmp_path, "inst.json", json.dumps(doc))
        assert main(["solve", "--in", path, "--mode", mode]) == 0
        sol = read_solution(capsys.readouterr().out)
        assert sol.y[0] == pytest.approx(y, rel=1e-12)
        assert sol.achievedR == pytest.approx(B, rel=1e-12)

    def test_rounding_step_below_the_least_float(self, tmp_path, capsys):
        # LB = 1e-322, so epsilon LB / 2 underflows to 0 at eps = 0.01
        doc = {"n": 2, "arcs": [[0, 1], [0, 1]], "s": 0, "t": 1, "r": 1.0, "c": [1e-300, 0.0],
               "gamma": [0.0, 1e-300], "B": 1e22}
        path = write_file(tmp_path, "inst.json", json.dumps(doc))
        assert main(["solve", "--in", path, "--eps", "0.01"]) == 0
        sol = read_solution(capsys.readouterr().out)
        assert (sol.x, sol.cost) == ((1, 0), 1e-322)

    def test_costs_across_the_float_range_never_raise(self, tmp_path, capsys):
        # c and gamma in {0} and [1e-300, 1e300], B in [1e-300, 1e300]: every
        # mode exits 0, 2 or 3, never with a traceback, and no output holds a NaN
        rng = random.Random(9)
        path = str(tmp_path / "inst.json")
        for _ in range(400):
            doc = small_unbounded_doc(rng, lambda: rng.choice([0.0, log_uniform(rng)]))
            write_file(tmp_path, "inst.json", json.dumps(doc))
            for mode in ("auto", "path-exact", "path-fptas", "brute"):
                code = main(["solve", "--in", path, "--mode", mode])
                out, err = capsys.readouterr()
                assert code in (0, 2, 3), (doc, mode, err)
                assert "NaN" not in out, (doc, mode)


def near_a_float_end(rng):
    """Log-uniform within a factor 1e8 of the largest float or of the
    smallest normal one."""
    if rng.random() < 0.5:
        return sys.float_info.max / 10.0 ** rng.uniform(0.0, 8.0)
    return sys.float_info.min * 10.0 ** rng.uniform(0.0, 8.0)


class TestSpModes:
    def test_bounds_near_the_float_ends_never_raise(self, tmp_path, capsys):
        # random SP graphs with m <= 7, ybar and B near either float end, c
        # tiny or ordinary and integer gamma: auto and sp-fptas solve the
        # draw, sp-exact its copy with c = 0 (it prices by gamma alone).
        # Every call solves or refuses (exit 0, 2 or 3) with no NaN in
        # stdout; Tier-1 turns a RuntimeWarning into an error. A feasible
        # draw with ybar near the top discretizes into thousands of options
        # per arc, and 300 draws take the parallel half-scale branch over
        # 1,000 times.
        rng = random.Random(31)
        path = str(tmp_path / "inst.json")
        for _ in range(300):
            m = rng.randint(1, 7)
            n, arcs, s, t = random_sp_structure(rng, m)
            doc = {"n": n, "arcs": [list(a) for a in arcs], "s": s, "t": t,
                   "r": rng.choice([1.0, 1.5, 2.0, 4.0]),
                   "c": [rng.choice([log_uniform(rng, 1e-300, 1e-100), rng.uniform(0.1, 10.0)])
                         for _ in arcs],
                   "gamma": [float(rng.randint(0, 20)) for _ in arcs],
                   "ybar": [near_a_float_end(rng) for _ in arcs], "B": near_a_float_end(rng)}
            for mode in ("auto", "sp-fptas", "sp-exact"):
                if mode == "sp-exact":
                    doc["c"] = [0.0] * m
                write_file(tmp_path, "inst.json", json.dumps(doc))
                code = main(["solve", "--in", path, "--mode", mode, "--eps", "0.9"])
                out, err = capsys.readouterr()
                assert code in (0, 2, 3), (doc, mode, err)
                assert "NaN" not in out and "Traceback" not in err, (doc, mode)


class TestVerify:
    def build(self, tmp_path, capsys):
        inst, path = diamond_unbounded(tmp_path)
        assert main(["solve", "--in", path, "--out", str(tmp_path / "sol.json")]) == 0
        capsys.readouterr()
        return inst, path, str(tmp_path / "sol.json")

    def test_roundtrip_feasible(self, tmp_path, capsys):
        _, path, sol_path = self.build(tmp_path, capsys)
        assert main(["verify", "--in", path, "--sol", sol_path]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["feasible"] is True
        assert doc["reasons"] == []

    def test_tampered_solution_exits_2(self, tmp_path, capsys):
        _, path, sol_path = self.build(tmp_path, capsys)
        sol = read_solution((tmp_path / "sol.json").read_text())
        shrunk = Solution(
            x=sol.x,
            y=tuple(v * 0.5 for v in sol.y),
            cost=sol.cost,
            achievedR=sol.achievedR,
        )
        bad_path = write_file(tmp_path, "bad.json", write_solution(shrunk))
        assert main(["verify", "--in", path, "--sol", bad_path]) == 2
        doc = json.loads(capsys.readouterr().out)
        assert doc["feasible"] is False
        # halving every conductance doubles the resistance past B = 1
        assert doc["achievedR"] > 1.0

    def test_arc_count_mismatch_is_usage_error(self, tmp_path, capsys):
        _, path, _ = self.build(tmp_path, capsys)
        lone = write_file(
            tmp_path, "lone.json",
            write_solution(Solution(x=(1,), y=(1.0,), cost=1.0, achievedR=1.0)),
        )
        assert main(["verify", "--in", path, "--sol", lone]) == 1


class TestResistance:
    def test_at_bounds(self, tmp_path, capsys):
        _, path = bounded_series(tmp_path, B=3.0)
        assert main(["resistance", "--in", path]) == 0
        assert json.loads(capsys.readouterr().out)["R"] == pytest.approx(2.0)

    def test_at_solution(self, tmp_path, capsys):
        inst, path = diamond_unbounded(tmp_path)
        sol = write_file(
            tmp_path, "sol.json",
            write_solution(Solution(x=(1, 1, 0), y=(2.0, 2.0, 0.0), cost=6.0, achievedR=1.0)),
        )
        assert main(["resistance", "--in", path, "--sol", sol]) == 0
        assert json.loads(capsys.readouterr().out)["R"] == pytest.approx(1.0)


    def test_energy_non_convergence_exits_3(self, tmp_path, capsys, monkeypatch):
        from flowdesign import resistance
        from flowdesign.errors import NonConvergence

        def stalled(*args, **kwargs):
            raise NonConvergence("forced: the y^r spread is beyond float resolution")

        monkeypatch.setattr(resistance, "_block_flow", stalled)
        _, path = bounded_series(tmp_path, B=3.0)
        assert main(["resistance", "--in", path]) == 3
        cap = capsys.readouterr()
        assert "unsupported" in cap.err and "forced" in cap.err
        assert cap.out == ""

    @pytest.mark.parametrize("command", ["resistance", "verify"])
    @pytest.mark.parametrize("arcs, y", [
        # y from 1e-264 to 1e-53 on the path 3-1-0-2-7: the solve ends in NaN
        ([[1, 0], [2, 0], [3, 1], [4, 1], [5, 0], [6, 2], [7, 2]],
         [2.5898e-264, 1.9614e-147, 6.1615e-53, 0, 0, 0, 5.9740e-117]),
        # a short circuit and y up to 9.5e75 on the path 3-2-1-0-7, whose
        # series sum is 0.268: the flow misses conservation by 12,432
        ([[1, 0], [2, 1], [3, 2], [4, 3], [5, 4], [6, 4], [7, 0]],
         [3.7288, 9.5048e75, "inf", 0, 0, 0, 46353.76]),
    ])
    def test_energy_of_a_flow_that_does_not_conserve_exits_3(self, tmp_path, capsys, command, arcs, y):
        doc = {"n": 8, "arcs": arcs, "s": 3, "t": 7, "r": 1.0,
               "c": [0.0 if v == "inf" else 1.0 for v in y], "gamma": [0.0] * 7,
               "ybar": ["inf"] * 7, "B": 1.0}
        sol = {"x": [int(v != 0) for v in y], "y": y, "cost": 0.0, "achievedR": 1.0}
        path = write_file(tmp_path, "inst.json", json.dumps(doc))
        sol_path = write_file(tmp_path, "sol.json", json.dumps(sol))
        assert main([command, "--in", path, "--sol", sol_path]) == 3
        cap = capsys.readouterr()
        assert cap.out == ""
        # the typed refusal is all of stderr: numpy's warnings stay silent
        assert cap.err.startswith("unsupported: the block's flow misses conservation")
        assert cap.err.count("\n") == 1

    def test_verify_of_an_exact_answer_past_the_float_range_refuses_silently(self, tmp_path, capsys):
        # sp-exact answers this series path (R = 9.18e30); its energy solve
        # ends in NaN, which verify refuses with exit 3 and nothing else
        doc = {"n": 4, "arcs": [[0, 1], [1, 2], [2, 3]], "s": 0, "t": 3, "r": 1.0,
               "c": [0.0] * 3, "gamma": [18.0, 14.0, 11.0],
               "ybar": [1.5524978660701941e308, 1.0525917615558071, 1.0896691548374328e-31],
               "B": 1.417067317114291e308}
        path = write_file(tmp_path, "inst.json", json.dumps(doc))
        assert main(["solve", "--mode", "sp-exact", "--in", path]) == 0
        sol_path = write_file(tmp_path, "sol.json", capsys.readouterr().out)
        assert main(["verify", "--in", path, "--sol", sol_path]) == 3
        cap = capsys.readouterr()
        assert cap.out == ""
        assert cap.err == "unsupported: the block's flow misses conservation by nan at a node\n"

    def test_a_structural_reason_decides_where_the_energy_solve_refuses(self, tmp_path, capsys):
        # The short-circuit design above with c = 1 on every arc: y[2] = inf
        # on a priced arc is a reason, so the refused energy solve leaves
        # achievedR at inf and verify exits 2 on that reason
        doc = {"n": 8, "arcs": [[1, 0], [2, 1], [3, 2], [4, 3], [5, 4], [6, 4], [7, 0]],
               "s": 3, "t": 7, "r": 1.0, "c": [1.0] * 7, "gamma": [0.0] * 7,
               "ybar": ["inf"] * 7, "B": 1.0}
        sol = {"x": [1, 1, 1, 0, 0, 0, 1], "y": [3.7288, 9.5048e75, "inf", 0, 0, 0, 46353.76],
               "cost": 0.0, "achievedR": 1.0}
        path = write_file(tmp_path, "inst.json", json.dumps(doc))
        sol_path = write_file(tmp_path, "sol.json", json.dumps(sol))
        assert main(["verify", "--in", path, "--sol", sol_path]) == 2
        cap = capsys.readouterr()
        assert json.loads(cap.out) == {
            "achievedR": "inf", "cost": "inf", "feasible": False,
            "reasons": ["y[2] is unbounded but arc 2 has positive variable cost"],
        }
        assert cap.err == ""

    @pytest.mark.parametrize("argv", [["resistance"], ["resistance", "--sol", "{sol}"],
                                      ["verify", "--sol", "{sol}"]])
    def test_energy_commands_never_build_the_flow_state(self, tmp_path, capsys, monkeypatch, argv):
        # A bridge (not series-parallel) with conductances to install: the
        # energy solver answers, and the flow and potentials stay unbuilt.
        from flowdesign import resistance

        inst = Instance(n=4, arcs=((0, 1), (0, 2), (1, 2), (1, 3), (2, 3)), s=0, t=3, r=2.0,
                        c=(1.0,) * 5, gamma=(0.0,) * 5, ybar=(1.0, 2.0, 0.5, 3.0, 1.5), B=2.0)
        path = write_file(tmp_path, "inst.json", write_instance(inst))
        sol = Solution(x=(1,) * 5, y=(0.5, 2.0, 0.5, 3.0, 1.0), cost=7.0, achievedR=1.0)
        argv = [a.format(sol=write_file(tmp_path, "sol.json", write_solution(sol))) for a in argv]
        code = main([*argv, "--in", path])
        want = capsys.readouterr().out

        def unbuilt(*args, **kwargs):
            raise AssertionError("the flow state was built")

        monkeypatch.setattr(resistance, "min_energy_flow", unbuilt)
        assert main([*argv, "--in", path]) == code == 0
        assert capsys.readouterr().out == want

    @pytest.mark.parametrize("argv, ybar, y, field, R", [
        (["resistance"], [1.0, 4.0, 4.0], None, "R", 1.125),
        (["resistance", "--sol", "{sol}"], ["inf", 2.0, 2.0], ["inf", 2.0, 2.0], "R", 0.25),
        (["verify", "--sol", "{sol}"], ["inf", 2.0, 2.0], ["inf", 2.0, 2.0], "achievedR", 0.25),
    ])
    def test_huge_n_takes_memory_of_the_arcs_only(self, tmp_path, argv, ybar, y, field, R):
        # n = 10^12 with three arcs: only s, t and the arcs' ends are
        # numbered, so the call fits in an address space of 512 MiB.
        n = 10**12
        doc = {"n": n, "arcs": [[5, 9], [9, n - 1], [n - 1, 9]], "s": 5, "t": n - 1, "r": 1.0,
               "c": [0.0, 0.0, 0.0], "gamma": [0.0, 0.0, 0.0], "ybar": ybar, "B": 1.0}
        inst = write_file(tmp_path, "inst.json", json.dumps(doc))
        if y is not None:
            sol = {"x": [1, 1, 1], "y": y, "cost": 0.0, "achievedR": 0.25}
            argv = [a.format(sol=write_file(tmp_path, "sol.json", json.dumps(sol))) for a in argv]

        proc = run_in_512_mib([*argv, "--in", inst])
        assert (proc.returncode, proc.stderr) == (0, "")
        assert json.loads(proc.stdout)[field] == pytest.approx(R, rel=1e-12)

    def test_huge_n_energy_takes_memory_of_the_arcs_only(self):
        # effective_resistance numbers the nodes the arcs touch itself, so a
        # library call with n = 10^9 needs no support_resistance in front
        code = ("from flowdesign.resistance import effective_resistance as er; n = 10**9; "
                "print(er(n, [(5, 9), (9, n - 1), (n - 1, 9)], [1, 4, 4], 1.0, 5, n - 1))")
        proc = run_in_512_mib([code], head=("-c",))
        assert (proc.returncode, proc.stderr, proc.stdout) == (0, "", "1.125\n")

    @pytest.mark.parametrize("mode, ybar, gamma, picked", [
        pytest.param("auto", [1.0, 4.0, 4.0], 0.0, "sp-fptas", id="auto"),
        pytest.param("sp-fptas", [1.0, 4.0, 4.0], 0.0, "sp-fptas", id="sp-fptas"),
        pytest.param("auto", ["inf"] * 3, 1.0, "path-fptas", id="auto-unbounded"),
        pytest.param("path-fptas", ["inf"] * 3, 1.0, "path-fptas", id="path-fptas"),
        pytest.param("path-exact", ["inf"] * 3, 0.0, "path-exact", id="path-exact"),
    ])
    def test_huge_n_solve_takes_memory_of_the_arcs_only(self, tmp_path, mode, ybar, gamma, picked):
        # sp-fptas checks its answer's flow witness at the nodes the arcs
        # touch, and the path modes number only those nodes
        n = 10**12
        doc = {"n": n, "arcs": [[5, 9], [9, n - 1], [n - 1, 9]], "s": 5, "t": n - 1, "r": 1.0,
               "c": [1.0, 1.0, 1.0], "gamma": [gamma] * 3, "ybar": ybar, "B": 2.0}
        inst = write_file(tmp_path, "inst.json", json.dumps(doc))
        proc = run_in_512_mib(["solve", "--mode", mode, "--in", inst])
        assert (proc.returncode, proc.stderr) == (0, f"mode={picked} eps=0.25\n")
        assert read_solution(proc.stdout).achievedR <= doc["B"]

    @pytest.mark.parametrize("command, code, reasons", [
        ("resistance", 1, None),
        ("verify", 2, ["y[2] is negative or NaN"]),
    ])
    def test_negative_conductance_is_refused(self, tmp_path, capsys, command, code, reasons):
        # resistance refuses y < 0 as effective_resistance does; verify
        # reports it and takes the arc as not installed
        inst = Instance(n=3, arcs=((0, 1), (1, 2), (0, 2)), s=0, t=2, r=1.0, c=(1.0,) * 3,
                        gamma=(0.0,) * 3, ybar=(math.inf,) * 3, B=10.0)
        path = write_file(tmp_path, "inst.json", write_instance(inst))
        sol = write_file(tmp_path, "sol.json", write_solution(
            Solution(x=(1, 1, 1), y=(1.0, 1.0, -5.0), cost=0.0, achievedR=2.0)))
        assert main([command, "--in", path, "--sol", sol]) == code
        cap = capsys.readouterr()
        if reasons is None:
            assert cap == ("", "error: conductances must be >= 0\n")
        else:
            doc = json.loads(cap.out)
            assert (doc["reasons"], doc["achievedR"]) == (reasons, 2.0)


class TestTol:
    """Only verify takes --tol, and it must be a finite number > 0. Outside
    that domain nan and -1 would make verify call a feasible design
    infeasible, and inf would pass any finite R. resistance refuses --tol at
    any value."""

    @pytest.fixture(params=[1.0, 2.0], ids=["r1", "r2"])
    def design(self, request, tmp_path, capsys):
        inst = str(tmp_path / "inst.json")
        sol = str(tmp_path / "sol.json")
        assert main(["gen", "--family", "random-sp", "--seed", "3", "--size", "5",
                     "--r", repr(request.param), "--out", inst]) == 0
        assert main(["solve", "--in", inst, "--out", sol]) == 0
        assert main(["verify", "--in", inst, "--sol", sol]) == 0
        capsys.readouterr()
        return inst, sol

    @pytest.mark.parametrize("tol", ["nan", "-1", "0", "inf"])
    @pytest.mark.parametrize("command", ["verify", "resistance"])
    def test_outside_domain_exits_1(self, design, command, tol, capsys):
        inst, sol = design
        argv = [command, "--in", inst, "--tol", tol] + (["--sol", sol] if command == "verify" else [])
        assert main(argv) == 1
        cap = capsys.readouterr()
        assert cap.out == ""
        if command == "verify":
            assert cap.err.startswith("error: --tol: tol must be a finite number > 0, got ")
        else:
            assert cap.err.endswith("\nflowdesign: error: unrecognized argument '--tol'\n")

    def test_positive_tol_is_accepted(self, design, capsys):
        inst, sol = design
        assert main(["verify", "--in", inst, "--sol", sol, "--tol", "1e-6"]) == 0
        capsys.readouterr()


class TestGen:
    def test_partition_sidecar(self, tmp_path):
        out = str(tmp_path / "p.json")
        assert main(["gen", "--family", "partition", "--numbers", "1 1 2", "--out", out]) == 0
        inst = parse_instance((tmp_path / "p.json").read_text())
        assert inst.m == 6
        meta = json.loads((tmp_path / "p.json.meta.json").read_text())
        assert meta["threshold"] == 24.0
        assert meta["numbers"] == [1, 1, 2]

    def test_partition_needs_numbers(self, capsys):
        assert main(["gen", "--family", "partition"]) == 1
        assert "--numbers" in capsys.readouterr().err

    def test_knapsack_rejects_zero_demand(self, capsys):
        assert main(["gen", "--family", "knapsack", "--numbers", "3,4;1,2;0"]) == 1
        capsys.readouterr()

    def test_knapsack_instance_roundtrips(self, tmp_path, capsys):
        out = str(tmp_path / "k.json")
        assert main(["gen", "--family", "knapsack", "--numbers", "3,4;1,2;4", "--out", out]) == 0
        capsys.readouterr()
        inst = parse_instance((tmp_path / "k.json").read_text())
        assert inst.B == pytest.approx(0.25)
        assert main(["solve", "--in", out, "--mode", "sp-exact"]) == 0
        assert read_solution(capsys.readouterr().out).cost == 2.0

    def test_steiner_meta(self, tmp_path):
        out = str(tmp_path / "st.json")
        assert main(["gen", "--family", "steiner", "--seed", "7", "--size", "5", "--out", out]) == 0
        inst = parse_instance((tmp_path / "st.json").read_text())
        meta = json.loads((tmp_path / "st.json.meta.json").read_text())
        assert inst.n == meta["n"] + 1
        assert len(meta["terminals"]) >= 2

    def test_random_sp_meta_on_stderr(self, capsys):
        assert main(["gen", "--family", "random-sp", "--seed", "3", "--size", "5"]) == 0
        cap = capsys.readouterr()
        parse_instance(cap.out)
        assert json.loads(cap.err)["seed"] == 3

    @pytest.mark.parametrize("argv, message", [
        (["--family", "partition", "--numbers", "1,a"], "partition --numbers must be integers"),
        (["--family", "knapsack", "--numbers", "3,4;1,2;x"], "knapsack demand D must be an integer"),
        (["--family", "knapsack", "--numbers", "3,a;1,2;4"], "knapsack MU must be integers"),
        (["--family", "partition", "--numbers", "1,2"], "even sum"),
        (["--family", "partition", "--numbers", "1" + "0" * 400 + ",2"], "beyond the float range"),
        (["--family", "steiner", "--r", "1e308"], "beyond the float range"),
    ])
    def test_bad_input_is_a_typed_error(self, capsys, argv, message):
        assert main(["gen", *argv]) == 1
        cap = capsys.readouterr()
        assert cap.err.startswith("error: ") and message in cap.err
        assert "Traceback" not in cap.err
        assert cap.out == ""

    def test_missing_numbers_messages_are_kept(self, capsys):
        assert main(["gen", "--family", "knapsack"]) == 1
        assert capsys.readouterr().err == "error: --family knapsack needs --numbers MU;P;D\n"
        assert main(["gen", "--family", "partition", "--numbers", ""]) == 1
        assert capsys.readouterr().err == "error: --family partition needs --numbers\n"
        assert main(["gen", "--family", "knapsack", "--numbers", "3,4;1,2;0"]) == 1
        assert capsys.readouterr().err == "error: knapsack demand must be positive for file output\n"


class TestDeterminism:
    def test_identical_runs_identical_bytes(self, tmp_path, capsys):
        out = str(tmp_path / "g.json")
        assert main(["gen", "--family", "random-sp", "--seed", "11", "--size", "6", "--out", out]) == 0
        capsys.readouterr()
        outs = []
        for _ in range(2):
            assert main(["solve", "--in", out, "--eps", "0.25"]) == 0
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1]


class TestParserEdges:
    """The command line read against cli._COMMANDS: -h exits 0 with the help on
    stdout; every usage error exits 1 with the usage and the error on stderr."""

    def test_no_command_is_usage_error(self, capsys):
        assert main([]) == 1
        capsys.readouterr()

    def test_help_exits_zero(self, capsys):
        assert main(["-h"]) == 0
        capsys.readouterr()

    def test_missing_file_is_usage_error(self, capsys):
        assert main(["solve", "--in", "/nonexistent/inst.json"]) == 1
        assert "error" in capsys.readouterr().err

    def test_defaults_and_attribute_names(self):
        args = cli._parse_args(["solve", "--in", "inst.json"])
        assert (args.command, args.infile, args.out, args.mode, args.eps) == (
            "solve", "inst.json", None, "auto", 0.25,
        )
        assert cli._parse_args(["verify", "--in", "i", "--sol", "s"]).tol == 1e-9
        args = cli._parse_args(["gen", "--family", "steiner", "--seed", "7", "--r", "2"])
        assert (args.family, args.seed, args.r, args.numbers, args.size) == ("steiner", 7, 2.0, None, 6)
        assert not hasattr(args, "infile")

    def test_opt_equals_value_matches_opt_space_value(self, tmp_path, capsys):
        _, path = bounded_series(tmp_path, B=3.0)
        assert main(["solve", f"--in={path}", "--mode=sp-fptas", "--eps=0.5"]) == 0
        joined = capsys.readouterr()
        assert main(["solve", "--in", path, "--mode", "sp-fptas", "--eps", "0.5"]) == 0
        spaced = capsys.readouterr()
        assert joined.out == spaced.out and read_solution(joined.out).cost > 0.0
        assert "mode=sp-fptas eps=0.5\n" in joined.err

    def test_last_repeat_wins(self):
        assert cli._parse_args(["solve", "--in", "a", "--eps", "0.1", "--eps=0.3"]).eps == 0.3

    @pytest.mark.parametrize("argv, message", [
        ([], "a command is required"),
        (["bogus", "--in", "x"], "invalid command 'bogus'"),
        (["--in", "x", "solve"], "invalid command '--in'"),
        (["solve", "--in", "x", "--bogus", "1"], "unrecognized argument '--bogus'"),
        (["solve", "--mo", "sp-exact", "--in", "x"], "unrecognized argument '--mo'"),
        (["solve", "--in", "x", "stray"], "unrecognized argument 'stray'"),
        (["solve", "--in"], "option --in expects one value"),
        (["solve", "--in", "--mode", "auto"], "option --in expects one value"),
        (["solve", "--in", "x", "--eps", "abc"], "option --eps: invalid float value 'abc'"),
        (["solve", "--in", "x", "--eps="], "option --eps: invalid float value ''"),
        (["gen", "--family", "steiner", "--seed", "1.5"], "option --seed: invalid int value '1.5'"),
        (["solve", "--in", "x", "--mode", "fast"], "option --mode: 'fast' is not one of auto, "),
        (["gen", "--family", "tree"], "option --family: 'tree' is not one of partition, "),
        (["solve"], "the following options are required: --in"),
        (["resistance", "--sol", "y"], "the following options are required: --in"),
        (["verify", "--in", "x"], "the following options are required: --sol"),
        (["gen", "--seed", "1"], "the following options are required: --family"),
        (["solve", "--in", "x", "--tol", "1e-9"], "unrecognized argument '--tol'"),
        (["gen", "--family", "steiner", "--tol", "1e-9"], "unrecognized argument '--tol'"),
    ])
    def test_usage_error_exits_1_with_usage_on_stderr(self, capsys, argv, message):
        assert main(argv) == 1
        cap = capsys.readouterr()
        assert cap.out == ""
        assert cap.err.startswith("usage: flowdesign ")
        assert f"\nflowdesign: error: {message}" in cap.err
        if argv and argv[0] in cli._COMMANDS:
            assert cap.err.startswith(f"usage: flowdesign {argv[0]} ")

    @pytest.mark.parametrize("argv", [
        [flag, *rest] for flag in ("-h", "--help") for rest in ([], ["solve"])
    ] + [
        [name, *rest, flag] for name in ("solve", "resistance", "verify", "gen")
        for flag in ("-h", "--help") for rest in ([], ["--out", "1"])
    ])
    def test_help_exits_0_with_usage_on_stdout(self, capsys, argv):
        assert main(argv) == 0
        cap = capsys.readouterr()
        assert cap.err == "" and cap.out.startswith("usage: flowdesign ")
        names = list(cli._COMMANDS) if argv[0] not in cli._COMMANDS else [argv[0]]
        for name in cli._COMMANDS:
            assert (f"flowdesign {name} " in cap.out) == (name in names)

    def test_help_names_every_option_in_the_table(self, capsys):
        assert main(["--help"]) == 0
        full = capsys.readouterr().out
        for name, (_, summary, opts) in cli._COMMANDS.items():
            assert main([name, "--help"]) == 0
            own = capsys.readouterr().out
            assert own.removeprefix("usage: ") in full and summary in own
            for opt, (kind, default) in opts.items():
                meta = "|".join(kind) if isinstance(kind, tuple) else kind.__name__.upper()
                assert (f"{opt} {meta}" in own) and ((f"[{opt} {meta}]" in own) == (default is not ...))
                if default not in (None, ...):
                    assert f"{opt} {default}" in own

    def test_every_command_reads_every_option(self, tmp_path):
        # An option its handler never reads parses and shows in the help but
        # changes nothing.
        class Reads:
            def __init__(self, args):
                self.args, self.names = args, set()

            def __getattr__(self, name):
                self.names.add(name)
                return getattr(self.args, name)

        _, inst = bounded_series(tmp_path, B=3.0)
        sol = str(tmp_path / "sol.json")
        assert main(["solve", "--in", inst, "--out", sol]) == 0
        argvs = {
            "solve": ["--in", inst], "resistance": ["--in", inst],
            "verify": ["--in", inst, "--sol", sol], "gen": ["--family", "partition", "--numbers", "1,1,2"],
        }
        assert set(argvs) == set(cli._COMMANDS)
        for name, (handler, _, opts) in cli._COMMANDS.items():
            args = Reads(cli._parse_args([name, *argvs[name]]))
            assert handler(args) == 0
            assert {"infile" if opt == "--in" else opt[2:] for opt in opts} <= args.names, name

    def test_readme_shows_the_generated_help(self, capsys):
        readme = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")
        with open(readme, encoding="utf-8") as fh:
            text = fh.read()
        assert main(["-h"]) == 0
        assert "```\n" + capsys.readouterr().out + "```\n" in text

    def test_main_reads_sys_argv(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "argv", ["flowdesign", "verify", "--help"])
        assert main() == 0
        assert capsys.readouterr().out.startswith("usage: flowdesign verify ")


class TestOutOfRangeNumbers:
    """A JSON integer past the float range (or n past the index range) is a
    schema error: exit 1 with an error line, never a traceback."""

    BIG = "1" + "0" * 400
    INSTANCE = {"n": 3, "arcs": [[0, 1], [1, 2]], "s": 0, "t": 2, "r": 1, "c": [1, 1],
                "gamma": [0.5, 0.5], "ybar": [1, 1], "B": 3}
    SOLUTION = {"x": [1, 1], "y": [1, 1], "cost": 3, "achievedR": 2}

    @classmethod
    def with_big(cls, doc, key):
        doc = json.loads(json.dumps(doc))
        if isinstance(doc[key], list):
            doc[key][-1] = "BIG"
        else:
            doc[key] = "BIG"
        return json.dumps(doc).replace('"BIG"', cls.BIG)

    @pytest.mark.parametrize("command", ["solve", "resistance"])
    @pytest.mark.parametrize("key, message", [
        ("n", f"n must be at most {sys.maxsize}"),
        ("r", "r must be a finite number"),
        ("B", "B must be a finite number"),
        ("c", "c must be a list of finite numbers"),
        ("gamma", "gamma must be a list of finite numbers"),
        ("ybar", 'ybar entries must be numbers or "inf"'),
    ])
    def test_instance_field(self, tmp_path, capsys, command, key, message):
        inst = write_file(tmp_path, "inst.json", self.with_big(self.INSTANCE, key))
        assert main([command, "--in", inst]) == 1
        assert capsys.readouterr() == ("", f"error: {message}\n")

    @pytest.mark.parametrize("command", ["verify", "resistance"])
    @pytest.mark.parametrize("key, message", [
        ("y", 'y entries must be numbers or "inf"'),
        ("cost", "cost must be a finite number"),
        ("achievedR", 'achievedR must be a number or "inf"'),
    ])
    def test_solution_field(self, tmp_path, capsys, command, key, message):
        inst = write_file(tmp_path, "inst.json", json.dumps(self.INSTANCE))
        sol = write_file(tmp_path, "sol.json", self.with_big(self.SOLUTION, key))
        assert main([command, "--in", inst, "--sol", sol]) == 1
        assert capsys.readouterr() == ("", f"error: {message}\n")

    def test_largest_index_sized_n_is_read(self):
        doc = dict(self.INSTANCE, n=sys.maxsize)
        assert parse_instance(json.dumps(doc)).n == sys.maxsize


def test_console_script_installed(tmp_path):
    proc = subprocess.run(
        ["flowdesign", "gen", "--family", "partition", "--numbers", "1,1,2"],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0
    parse_instance(proc.stdout)
    assert json.loads(proc.stderr)["threshold"] == 24.0


class TestProcessEntry:
    """cli.run, behind python -m flowdesign and the console script, ends the
    process with os._exit; it must still run the atexit handlers and flush
    every byte main wrote."""

    @pytest.mark.parametrize("code, argv", [
        (0, ["solve", "--in", "{inst}", "--eps", "0.5", "--out", "{out}"]),
        (0, ["resistance", "--in", "{inst}", "--sol", "{sol}"]),
        (1, ["resistance", "--in", "{inst}", "--tol", "nan"]),
        (1, ["solve", "--in", "{inst}", "--mode", "bogus"]),
        (2, ["verify", "--in", "{inst}", "--sol", "{half}"]),
        (3, ["solve", "--in", "{inst}", "--mode", "path-exact"]),
        (0, ["resistance", "--in", "{inst}", "--out", "{out}"]),
        (1, ["resistance", "--in", "{inst}", "--sol", "{inst}"]),
        (0, ["verify", "--in", "{inst}", "--sol", "{sol}"]),
        (0, ["verify", "--in", "{inst}", "--sol", "{sol}", "--out", "{out}"]),
        (1, ["verify", "--in", "{inst}", "--sol", "{inst}"]),
        (2, ["verify", "--in", "{inst}", "--sol", "{half}", "--out", "{out}"]),
        (1, ["resistance", "--in", "{inst}", "--sol", "{negative}"]),
        (2, ["verify", "--in", "{inst}", "--sol", "{negative}"]),
    ])
    def test_subprocess_matches_in_process(self, tmp_path, capsys, code, argv):
        files = solved_sp_files(tmp_path, capsys)
        env = child_env()
        outs = {}
        for side in ("process", "subprocess"):
            out = tmp_path / f"out-{side}.json"
            args = [a.format(out=out, **files) for a in argv]
            if side == "process":
                got = (main(args), *(t.encode() for t in capsys.readouterr()))
            else:
                proc = subprocess.run([sys.executable, "-m", "flowdesign", *args], env=env,
                                      capture_output=True, timeout=60)
                got = (proc.returncode, proc.stdout, proc.stderr)
            outs[side] = got, (out.read_bytes() if out.exists() else None)
        assert outs["process"] == outs["subprocess"]
        assert outs["process"][0][0] == code
        if "--out" in argv:
            assert outs["process"][1].endswith(b"}\n")

    @staticmethod
    def run_entry(tmp_path, setup, argv, **kwargs):
        """A fresh interpreter that runs setup, then cli.run on argv."""
        _, inst = bounded_series(tmp_path, B=3.0)
        argv = ["flowdesign", *argv, "--in", inst]
        code = f"import sys\n{setup}\nfrom flowdesign import cli\nsys.argv = {argv!r}\ncli.run()\n"
        kwargs.setdefault("stdout", subprocess.PIPE)
        return subprocess.run([sys.executable, "-c", code], env=child_env(), stderr=subprocess.PIPE,
                              timeout=60, **kwargs)

    def test_atexit_handler_runs_once_after_main(self, tmp_path):
        proc = self.run_entry(
            tmp_path, "import atexit\natexit.register(lambda: print('handler ran'))", ["resistance"],
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == b'{"R": 2.0}\nhandler ran\n'
        assert proc.stderr == b""

    @pytest.mark.parametrize("argv", [["solve"], ["resistance"]])
    def test_stdout_pipe_closed_by_its_reader_exits_120(self, tmp_path, argv):
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = self.run_entry(tmp_path, "", argv, stdout=write_end)
        finally:
            os.close(write_end)
        assert proc.returncode == 120
        assert b"Exception ignored" in proc.stderr and b"BrokenPipeError" in proc.stderr
        assert b"Traceback" not in proc.stderr

    def test_module_teardown_is_skipped(self, tmp_path):
        # `loud` is held by a module whose dict is in no reference cycle, so
        # the interpreter's teardown of sys.modules frees it whatever the GC does
        setup = (
            "import os, types\n"
            "class Loud:\n"
            "    def __del__(self, write=os.write):\n"
            "        write(2, b'torn down\\n')\n"
            "sys.modules['loud'] = types.ModuleType('loud')\n"
            "sys.modules['loud'].loud = Loud()"
        )
        proc = self.run_entry(tmp_path, setup, ["resistance"])
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == b'{"R": 2.0}\n'
        assert proc.stderr == b""

    def test_main_runs_with_the_collector_off(self, tmp_path):
        _, inst = bounded_series(tmp_path, B=3.0)
        code = (
            "import gc, runpy, sys\n"
            "from flowdesign import cli\n"
            "main = cli.main\n"
            "print('before run:', gc.isenabled())\n"
            "cli.main = lambda: (print('in main:', gc.isenabled()), main())[1]\n"
            f"sys.argv = ['flowdesign', 'resistance', '--in', {inst!r}]\n"
            "runpy.run_module('flowdesign', run_name='__main__', alter_sys=True)\n"
        )
        proc = subprocess.run([sys.executable, "-c", code], env=child_env(), capture_output=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == b'before run: True\nin main: False\n{"R": 2.0}\n'

    def test_main_leaves_gc_state_alone(self, tmp_path, capsys):
        import gc

        before = (gc.isenabled(), gc.get_freeze_count())
        inst = str(tmp_path / "inst.json")
        sol = str(tmp_path / "sol.json")
        for argv in (
            ["gen", "--family", "random-sp", "--seed", "11", "--size", "6", "--out", inst],
            ["solve", "--in", inst, "--out", sol],
            ["resistance", "--in", inst],
            ["verify", "--in", inst, "--sol", sol],
        ):
            assert main(argv) == 0
            assert (gc.isenabled(), gc.get_freeze_count()) == before, argv[0]
        capsys.readouterr()

    def test_entries_name_run(self):
        import flowdesign

        pkg = os.path.dirname(os.path.abspath(flowdesign.__file__))
        with open(os.path.join(pkg, "__main__.py"), encoding="utf-8") as fh:
            assert fh.read() == "from .cli import run\n\nrun()\n"
        with open(os.path.join(pkg, "..", "..", "pyproject.toml"), encoding="utf-8") as fh:
            scripts = fh.read().split("[project.scripts]\n", 1)[1].split("\n\n", 1)[0]
        assert scripts == 'flowdesign = "flowdesign.cli:run"'
        with open(cli.__file__, encoding="utf-8") as fh:
            assert "__main__" not in fh.read()  # no third entry in cli.py


class TestNoCyclicGarbage:
    """cli.run turns the cyclic collector off for the whole call, which
    leaves no garbage behind only while no command makes reference cycles:
    with the collector off, a collection right after main must find nothing.
    The first call of each command imports its modules, whose one-off
    garbage the check leaves out."""

    @pytest.fixture
    def files(self, tmp_path, capsys):
        files = solved_sp_files(tmp_path, capsys)
        paths = Instance(
            n=4, arcs=((0, 1), (1, 3), (0, 2), (2, 3), (1, 2)), s=0, t=3, r=1.0,
            c=(1.0, 2.0, 3.0, 1.0, 1.0), gamma=(1.0, 1.0, 2.0, 2.0, 0.5), ybar=(math.inf,) * 5, B=1.0,
        )
        files["paths"] = write_file(tmp_path, "paths.json", write_instance(paths))
        fixed = Instance(
            n=3, arcs=((0, 1), (1, 2), (0, 2)), s=0, t=2, r=1.0,
            c=(0.0, 0.0, 0.0), gamma=(1.0, 2.0, 3.0), ybar=(1.0, 1.0, 1.0), B=1.0,
        )
        files["fixed"] = write_file(tmp_path, "fixed.json", write_instance(fixed))
        for name, make in (("diamond", diamond_unbounded), ("tight", lambda d: bounded_series(d, B=0.5))):
            (tmp_path / name).mkdir()
            files[name] = make(tmp_path / name)[1]
        files["out"] = str(tmp_path / "out.json")
        return files

    @pytest.mark.parametrize("code, argv", [
        *[(0, ["solve", "--in", "{inst}", "--mode", mode]) for mode in ("auto", "sp-fptas", "brute")],
        (0, ["solve", "--in", "{fixed}", "--mode", "sp-exact"]),
        *[(0, ["solve", "--in", "{paths}", "--mode", mode]) for mode in ("auto", "path-fptas", "brute")],
        (0, ["solve", "--in", "{diamond}", "--mode", "path-exact"]),
        (0, ["resistance", "--in", "{inst}"]),
        (0, ["resistance", "--in", "{inst}", "--sol", "{sol}"]),
        (0, ["verify", "--in", "{inst}", "--sol", "{sol}"]),
        (0, ["gen", "--family", "partition", "--numbers", "3,1,2"]),
        (0, ["gen", "--family", "knapsack", "--numbers", "3,4;1,2;4", "--out", "{out}"]),
        (0, ["gen", "--family", "steiner", "--seed", "2"]),
        (0, ["gen", "--family", "random-sp", "--seed", "3", "--size", "8"]),
        (1, ["solve", "--in", "{inst}", "--mode", "bogus"]),
        (1, ["resistance", "--in", "{inst}", "--sol", "{inst}"]),
        (2, ["verify", "--in", "{inst}", "--sol", "{half}"]),
        (2, ["solve", "--in", "{tight}"]),
        (3, ["solve", "--in", "{inst}", "--mode", "path-exact"]),
    ])
    def test_call_leaves_no_cycles(self, files, capsys, code, argv):
        import gc

        argv = [a.format(**files) for a in argv]
        assert main(argv) == code
        enabled = gc.isenabled()
        gc.collect()
        gc.disable()
        try:
            assert main(argv) == code
            found = gc.collect()
        finally:
            if enabled:
                gc.enable()
        capsys.readouterr()
        assert found == 0


class TestGuardsUnderOptimize:
    """Defect guards raise typed errors under python -O and exit 4."""

    def run_optimized(self, tmp_path, patch):
        _, path = bounded_series(tmp_path, B=3.0)
        code = (
            "import sys\n"
            "assert not __debug__\n"
            "from flowdesign import cli, core, spdesign\n"
            f"{patch}\n"
            f"sys.exit(cli.main(['solve', '--in', {path!r}, '--mode', 'sp-fptas', '--eps', '0.5']))\n"
        )
        return subprocess.run(
            [sys.executable, "-O", "-c", code], env=child_env(), capture_output=True, text=True, timeout=60,
        )

    def test_failed_final_verify_exits_4(self, tmp_path):
        proc = self.run_optimized(
            tmp_path,
            "spdesign.verify = lambda inst, sol, tol, flow: core.VerificationReport(False, 0.0, 0.0, ('forced',))",
        )
        assert proc.returncode == 4, proc.stderr
        assert "defect" in proc.stderr and "verification" in proc.stderr
        assert proc.stdout == ""

    def test_corrupted_witness_exits_4(self, tmp_path):
        # half a unit flow would understate the energy by 2^(r+1)
        proc = self.run_optimized(
            tmp_path,
            "unit_flow = spdesign.sp_unit_flow\n"
            "def half_flow(tree, y, r, s):\n"
            "    return [v / 2 for v in unit_flow(tree, y, r, s)]\n"
            "spdesign.sp_unit_flow = half_flow",
        )
        assert proc.returncode == 4, proc.stderr
        assert "defect" in proc.stderr and "unit s-t flow" in proc.stderr
        assert proc.stdout == ""

    def test_broken_grid_bound_exits_4(self, tmp_path):
        proc = self.run_optimized(
            tmp_path,
            "import math, types\n"
            "ns = {k: getattr(math, k) for k in dir(math) if not k.startswith('_')}\n"
            "ns['log2'] = lambda x: 0.0  # shrinks the analytic grid bound to 1\n"
            "spdesign.math = types.SimpleNamespace(**ns)",
        )
        assert proc.returncode == 4, proc.stderr
        assert "defect" in proc.stderr and "exceeds bound" in proc.stderr


def imports_after_package(stderr):
    """Modules a fresh interpreter imported after the flowdesign package, read
    from its -X importtime lines, so a module a site hook loads never counts."""
    names = [
        line.rsplit("|", 1)[1].strip() for line in stderr.splitlines() if line.startswith("import time:")
    ]
    return set(names[names.index("flowdesign") + 1:])


# argparse and the gettext and locale it loads: no command's start path has them
PARSER_MODULES = {"argparse", "gettext", "locale"}


class TestColdStart:
    """The CLI, path mode and the SP modes run without importing numpy, and
    no command loads dataclasses, inspect, argparse, gettext or locale. Each
    command loads only its own modules: sptree only for the SP modes and
    auto's SP check, oracles only for brute and gen, certify only for the
    calls that check a solution (sp-fptas, auto on SP, verify), and kron
    only for an energy solve whose block is reduced."""

    def test_cli_import_leaves_numpy_out(self):
        code = (
            "import sys, flowdesign.cli\n"
            "assert 'numpy' not in sys.modules, 'numpy imported by flowdesign.cli'\n"
            "from flowdesign import min_energy_flow\n"
            "assert callable(min_energy_flow) and 'numpy' in sys.modules\n"
            "import flowdesign\n"
            "assert all(hasattr(flowdesign, name) for name in flowdesign.__all__)\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], env=child_env(), capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr

    def test_cli_import_leaves_dataclasses_out(self):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import flowdesign.cli"],
            env=child_env(), capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        imported = imports_after_package(proc.stderr)
        assert "flowdesign.cli" in imported
        assert not imported & {"dataclasses", "inspect"}
        assert not imported & PARSER_MODULES

    def test_cli_import_leaves_sptree_and_oracles_out(self):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import flowdesign.cli"],
            env=child_env(), capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        imported = imports_after_package(proc.stderr)
        assert "flowdesign.cli" in imported
        assert not imported & {"flowdesign.sptree", "flowdesign.oracles", "flowdesign.certify"}

    def test_spdesign_import_leaves_numpy_out(self):
        code = (
            "import sys, flowdesign.spdesign\n"
            "assert 'numpy' not in sys.modules, 'numpy imported by flowdesign.spdesign'\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], env=child_env(), capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr

    @staticmethod
    def solve_imports(tmp_path, inst, *argv):
        """Modules a fresh `flowdesign solve` imports after the package."""
        path = write_file(tmp_path, "inst.json", write_instance(inst))
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-m", "flowdesign", "solve", "--in", path, *argv],
            env=child_env(), capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert read_solution(proc.stdout).cost > 0.0
        return imports_after_package(proc.stderr)

    def test_path_mode_solve_leaves_numpy_out(self, tmp_path):
        inst = Instance(
            n=4, arcs=((0, 1), (1, 3), (0, 2), (2, 3), (1, 2)), s=0, t=3, r=2.0,
            c=(1.0, 4.0, 3.0, 0.5, 1.0), gamma=(2.0, 0.0, 0.5, 1.0, 0.1),
            ybar=(math.inf,) * 5, B=1.0,
        )
        imported = self.solve_imports(tmp_path, inst, "--mode", "path-fptas", "--eps", "0.1")
        assert "flowdesign.pathdesign" in imported
        assert not {name for name in imported if name.split(".")[0] == "numpy"}
        assert not imported & {"dataclasses", "inspect"}
        assert not imported & PARSER_MODULES

    @pytest.mark.parametrize("mode", ["path-exact", "path-fptas", "auto"])
    def test_path_solve_leaves_sptree_and_oracles_out(self, tmp_path, mode):
        inst = Instance(
            n=4, arcs=((0, 1), (1, 3), (0, 2), (2, 3), (1, 2)), s=0, t=3, r=2.0,
            c=(1.0, 4.0, 3.0, 0.5, 1.0), gamma=(0.0,) * 5, ybar=(math.inf,) * 5, B=1.0,
        )
        imported = self.solve_imports(tmp_path, inst, "--mode", mode)
        assert "flowdesign.pathdesign" in imported
        assert not imported & {"flowdesign.sptree", "flowdesign.oracles", "flowdesign.certify"}

    @pytest.mark.parametrize("mode", ["sp-exact", "sp-fptas", "auto"])
    def test_sp_solve_loads_sptree_but_not_oracles(self, tmp_path, mode):
        c = (0.0, 0.0) if mode == "sp-exact" else (1.0, 1.0)
        inst = Instance(
            n=3, arcs=((0, 1), (1, 2)), s=0, t=2, r=1.0, c=c, gamma=(1.0, 2.0), ybar=(1.0, 1.0), B=3.0,
        )
        imported = self.solve_imports(tmp_path, inst, "--mode", mode, "--eps", "0.5")
        assert {"flowdesign.spdesign", "flowdesign.sptree"} <= imported
        assert "flowdesign.oracles" not in imported
        # only the FPTAS certifies its answer, so sp-exact never loads the checker
        assert ("flowdesign.certify" in imported) == (mode != "sp-exact")

    def test_sp_exact_solve_leaves_numpy_out(self, tmp_path):
        inst = Instance(
            n=3, arcs=((0, 1), (0, 1), (1, 2), (1, 2)), s=0, t=2, r=2.0,
            c=(0.0,) * 4, gamma=(3.0, 5.0, 2.0, 4.0), ybar=(1.0, 2.0, 1.5, 0.5), B=1.0,
        )
        imported = self.solve_imports(tmp_path, inst, "--mode", "sp-exact")
        assert "flowdesign.spdesign" in imported
        assert not {name for name in imported if name.split(".")[0] == "numpy"}
        assert not imported & {"dataclasses", "inspect"}
        assert not imported & PARSER_MODULES

    @pytest.mark.parametrize("mode", ["sp-fptas", "auto"])
    def test_sp_fptas_solve_leaves_numpy_and_path_modules_out(self, tmp_path, mode):
        inst = Instance(
            n=4, arcs=((0, 1), (1, 3), (2, 0), (2, 3), (0, 3)), s=0, t=3, r=2.0,
            c=(1.0, 4.0, 3.0, 0.5, 1.0), gamma=(2.0, 0.0, 0.5, 1.0, 0.1),
            ybar=(2.0, 1.0, 3.0, 1.5, 1.0), B=1.0,
        )
        imported = self.solve_imports(tmp_path, inst, "--mode", mode, "--eps", "0.5")
        assert "flowdesign.spdesign" in imported
        assert not {name for name in imported if name.split(".")[0] == "numpy"}
        assert not imported & {"dataclasses", "inspect"}
        assert not imported & PARSER_MODULES
        assert not imported & {"flowdesign.resistance", "flowdesign.pathdesign", "flowdesign.rsp"}

    def test_resistance_loads_numpy_but_no_front_end_modules(self, tmp_path):
        _, path = bounded_series(tmp_path, B=3.0)
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-m", "flowdesign", "resistance", "--in", path],
            env=child_env(), capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["R"] == pytest.approx(2.0)
        imported = imports_after_package(proc.stderr)
        assert {"numpy", "flowdesign.resistance"} <= imported
        assert not imported & PARSER_MODULES
        assert not imported & {"flowdesign.sptree", "flowdesign.oracles", "flowdesign.certify"}

    @pytest.mark.parametrize("wide", [False, True])
    def test_resistance_loads_kron_only_for_a_wide_level(self, tmp_path, wide):
        # A 12 x 12 grid has BFS levels of at most 12 nodes; s and t joined
        # by 100 two-arc paths have a level of 100, which is reduced.
        if wide:
            n, arcs = 102, [[0, 2 + i // 2] if i % 2 == 0 else [2 + i // 2, 1] for i in range(200)]
            s, t = 0, 1
        else:
            n, arcs = 144, [[v, v + d] for v in range(144) for d in (1, 12)
                            if v + d < 144 and (d == 12 or v % 12 < 11)]
            s, t = 0, 143
        m = len(arcs)
        doc = {"n": n, "arcs": arcs, "s": s, "t": t, "r": 1.0, "c": [1.0] * m,
               "gamma": [0.0] * m, "ybar": [1.0] * m, "B": 1.0}
        path = write_file(tmp_path, "inst.json", json.dumps(doc))
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-m", "flowdesign", "resistance", "--in", path],
            env=child_env(), capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        if wide:
            assert json.loads(proc.stdout)["R"] == pytest.approx(0.02)
        assert ("flowdesign.kron" in imports_after_package(proc.stderr)) == wide

    def test_verify_loads_certify(self, tmp_path):
        _, path = bounded_series(tmp_path, B=3.0)
        sol = write_file(tmp_path, "sol.json", write_solution(Solution(
            x=(1, 1), y=(1.0, 1.0), cost=3.0, achievedR=2.0,
        )))
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-m", "flowdesign", "verify", "--in", path, "--sol", sol],
            env=child_env(), capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["feasible"] is True
        imported = imports_after_package(proc.stderr)
        assert {"flowdesign.certify", "flowdesign.resistance"} <= imported
        assert not imported & {"flowdesign.sptree", "flowdesign.oracles", "flowdesign.spdesign"}
