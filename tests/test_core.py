import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowdesign import (
    DimensionMismatch,
    Instance,
    RspInstance,
    SchemaError,
    Solution,
    UNBOUNDED,
    ValidationError,
    decompose,
    effective_resistance,
    parse_instance,
    read_solution,
    verify,
    write_instance,
    write_solution,
)

MINIMAL = {
    "n": 2,
    "arcs": [[0, 1]],
    "s": 0,
    "t": 1,
    "r": 1,
    "c": [1],
    "gamma": [0],
    "B": 1,
}


def doc(**overrides):
    d = dict(MINIMAL)
    d.update(overrides)
    return json.dumps(d)


def test_parse_minimal():
    inst = parse_instance(doc())
    assert inst.m == 1
    assert inst.arcs == ((0, 1),)
    assert inst.unbounded()
    assert inst.ybar == (math.inf,)


def test_parse_negative_budget():
    with pytest.raises(ValidationError):
        parse_instance(doc(B=-1))


def test_parse_ybar_roundtrip():
    inst = parse_instance(doc(ybar=[2.5]))
    assert inst.ybar == (2.5,)


def test_parse_ybar_inf_string():
    inst = parse_instance(doc(ybar=["inf"]))
    assert inst.ybar == (math.inf,)


def test_parse_unknown_field():
    with pytest.raises(SchemaError):
        parse_instance(doc(color="red"))


def test_parse_missing_field():
    d = dict(MINIMAL)
    del d["gamma"]
    with pytest.raises(SchemaError):
        parse_instance(json.dumps(d))


def test_parse_rejects_infinity_literal():
    text = doc().replace("1}", "Infinity}")
    with pytest.raises(SchemaError):
        parse_instance(text)


def test_parse_rejects_equal_terminals():
    with pytest.raises(ValidationError):
        parse_instance(doc(t=0))


def test_parse_rejects_subunit_exponent():
    with pytest.raises(ValidationError):
        parse_instance(doc(r=0.5))


_PATH_ARCS = ((0, 1), (1, 2))
# Each entry that takes a network, as build(n, s, t, r) on a 3-node path;
# the entries without an exponent ignore r.
NETWORK_ENTRIES = {
    "Instance": lambda n, s, t, r: Instance(n=n, arcs=_PATH_ARCS, s=s, t=t, r=r, c=(1.0, 1.0),
                                            gamma=(0.0, 0.0), ybar=(1.0, 1.0), B=1.0),
    "effective_resistance": lambda n, s, t, r: effective_resistance(n, _PATH_ARCS, (1.0, 1.0), r, s, t),
    "decompose": lambda n, s, t, r: decompose(n, _PATH_ARCS, s, t),
    "RspInstance": lambda n, s, t, r: RspInstance(n, _PATH_ARCS, s, t, (1.0, 1.0), (1.0, 1.0), 1.0),
}
_TERMINAL_CASES = [(0, 3, "terminal out of range"), (-1, 2, "terminal out of range"),
                   (1, 1, "s and t must differ")]


@pytest.mark.parametrize("entry, s, t, r, message", [
    *[(entry, s, t, 1.0, message) for entry in NETWORK_ENTRIES for s, t, message in _TERMINAL_CASES],
    *[(entry, 0, 2, r, "flow exponent r must be a finite real >= 1")
      for entry in ("Instance", "effective_resistance") for r in (0.5, math.nan, math.inf)],
])
def test_network_checks_share_one_message(entry, s, t, r, message):
    with pytest.raises(ValidationError) as err:
        NETWORK_ENTRIES[entry](3, s, t, r)
    assert str(err.value) == message


def test_write_omits_ybar_when_unbounded():
    inst = parse_instance(doc())
    assert "ybar" not in json.loads(write_instance(inst))
    bounded = parse_instance(doc(ybar=[2.5]))
    assert json.loads(write_instance(bounded))["ybar"] == [2.5]


def test_roundtrip_idempotent():
    texts = [
        doc(),
        doc(ybar=[2.5]),
        doc(n=3, arcs=[[0, 1], [1, 2], [0, 2]], t=2, c=[1, 0.25, 7], gamma=[0, 1, 0.5], r=2.5, B=0.125),
    ]
    for text in texts:
        once = parse_instance(text)
        again = parse_instance(write_instance(once))
        assert once == again
        assert write_instance(once) == write_instance(again)


def single_arc(r=1.0, B=1.0, c=1.0, gamma=0.0):
    return Instance(
        n=2, arcs=((0, 1),), s=0, t=1, r=r, c=(c,), gamma=(gamma,), ybar=(math.inf,), B=B
    )


def test_verify_single_arc_feasible():
    inst = single_arc(c=2.0, gamma=0.5)
    rep = verify(inst, Solution(x=(1,), y=(1.0,), cost=2.5, achievedR=1.0))
    assert rep.feasible
    assert rep.achievedR == pytest.approx(1.0)
    assert rep.cost == pytest.approx(2.5)


def test_verify_single_arc_tight_budget():
    inst = single_arc(r=2.0, B=0.5)
    rep = verify(inst, Solution(x=(1,), y=(1.0,), cost=1.0, achievedR=1.0))
    assert not rep.feasible


def test_verify_two_series_exact():
    inst = Instance(
        n=3,
        arcs=((0, 1), (1, 2)),
        s=0,
        t=2,
        r=1.0,
        c=(1.0, 1.0),
        gamma=(0.0, 0.0),
        ybar=(math.inf, math.inf),
        B=1.0,
    )
    rep = verify(inst, Solution(x=(1, 1), y=(2.0, 2.0), cost=4.0, achievedR=1.0))
    assert rep.feasible
    assert rep.achievedR == pytest.approx(1.0, abs=1e-12)


def test_verify_reports_bound_violation():
    inst = Instance(
        n=2, arcs=((0, 1),), s=0, t=1, r=1.0, c=(1.0,), gamma=(0.0,), ybar=(0.5,), B=10.0
    )
    rep = verify(inst, Solution(x=(1,), y=(1.0,), cost=1.0, achievedR=1.0))
    assert not rep.feasible
    assert any("exceeds its bound" in reason for reason in rep.reasons)


def test_verify_monotone_in_tol():
    # resistance overshoots the budget by 2e-10 relative: inside 1e-9, outside 1e-12
    y = 1.0 / (1.0 + 2e-10)
    inst = single_arc()
    sol = Solution(x=(1,), y=(y,), cost=y, achievedR=1.0 / y)
    assert not verify(inst, sol, tol=1e-12).feasible
    assert verify(inst, sol, tol=1e-9).feasible


@pytest.mark.parametrize("tol", [math.nan, -1.0, 0.0, math.inf])
@pytest.mark.parametrize("flow", [None, (1.0,)])
def test_verify_rejects_tol_outside_domain(tol, flow):
    # each of these voids the budget check: nan and -1 fail a feasible
    # design, inf passes any finite resistance
    sol = Solution(x=(1,), y=(1.0,), cost=1.0, achievedR=1.0)
    with pytest.raises(ValidationError, match="tol must be a finite number > 0"):
        verify(single_arc(), sol, tol=tol, flow=flow)


def test_verify_recomputes_cost():
    inst = Instance(
        n=3,
        arcs=((0, 1), (1, 2), (0, 2)),
        s=0,
        t=2,
        r=1.0,
        c=(2.0, 3.0, 0.0),
        gamma=(0.25, 0.0, 1.0),
        ybar=(math.inf,) * 3,
        B=4.0,
    )
    sol = Solution(x=(0, 0, 1), y=(0.0, 0.0, 0.5), cost=99.0, achievedR=2.0)
    rep = verify(inst, sol)
    assert rep.cost == pytest.approx(0.0 * 2.0 + 0.5 * 0.0 + 1.0, rel=1e-12)
    assert rep.feasible  # the stated cost field is reported, not judged


def test_verify_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        verify(single_arc(), Solution(x=(1, 1), y=(1.0, 1.0), cost=1.0, achievedR=1.0))


def diamond_witness_case(r=2.0, B=1.0):
    """A diamond s=0 -> t=3 with arc (2, 1) against the flow's direction on
    the middle rung, every arc at y = 1, and its minimum-energy unit flow."""
    inst = Instance(
        n=4, arcs=((0, 1), (0, 2), (1, 3), (2, 3), (2, 1)), s=0, t=3, r=r,
        c=(1.0,) * 5, gamma=(0.0,) * 5, ybar=(2.0,) * 5, B=B,
    )
    sol = Solution(x=(1,) * 5, y=(1.0,) * 5, cost=5.0, achievedR=1.0)
    # by symmetry the rung carries nothing and each side carries one half
    flow = [0.5, 0.5, 0.5, 0.5, 0.0]
    return inst, sol, flow


class TestFlowWitness:
    def test_a_unit_flow_certifies_its_energy(self):
        inst, sol, flow = diamond_witness_case(r=2.0)
        rep = verify(inst, sol, flow=flow)
        assert rep.feasible and rep.reasons == ()
        assert rep.achievedR == 4 * 0.5 ** 3  # the energy, which equals R here
        assert rep.achievedR == pytest.approx(verify(inst, sol).achievedR, rel=1e-12)

    def test_direction_is_checked(self):
        inst, sol, flow = diamond_witness_case()
        flow[2] = -flow[2]
        rep = verify(inst, sol, flow=flow)
        assert not rep.feasible
        assert any("unit s-t flow" in reason for reason in rep.reasons)

    def test_half_unit_flow_is_rejected(self):
        # halving understates the energy by 2^(r+1); conservation catches it
        inst, sol, flow = diamond_witness_case(r=2.0)
        half = [f / 2 for f in flow]
        rep = verify(inst, sol, flow=half)
        assert not rep.feasible
        assert any("unit s-t flow" in reason for reason in rep.reasons)
        assert rep.achievedR == pytest.approx(0.5 / 2 ** 3)

    def test_flow_on_uninstalled_arc_is_rejected(self):
        inst, _, _ = diamond_witness_case()
        sol = Solution(x=(1, 1, 1, 0, 0), y=(1.0, 1.0, 1.0, 0.0, 0.0), cost=3.0, achievedR=2.0)
        # conserves, but routes half the flow through arc 3, which is not installed
        rep = verify(inst, sol, flow=[0.5, 0.5, 0.5, 0.5, 0.0])
        assert not rep.feasible
        assert any("arc 3" in reason and "not installed" in reason for reason in rep.reasons)

    def test_energy_above_budget_is_rejected(self):
        inst, sol, flow = diamond_witness_case(r=1.0, B=0.99)
        rep = verify(inst, sol, flow=flow)
        assert rep.achievedR == pytest.approx(1.0)
        assert not rep.feasible and rep.reasons == ()
        inst, sol, flow = diamond_witness_case(r=1.0, B=1.0)
        assert verify(inst, sol, flow=flow).feasible

    def test_energy_overflow_counts_as_infinite(self):
        inst = Instance(
            n=2, arcs=((0, 1),), s=0, t=1, r=2.0, c=(1.0,), gamma=(0.0,), ybar=(1.0,), B=1e308,
        )
        sol = Solution(x=(1,), y=(1e-300,), cost=1e-300, achievedR=math.inf)
        rep = verify(inst, sol, flow=[1.0])
        assert rep.achievedR == math.inf and not rep.feasible

    def test_flow_dimension_mismatch(self):
        inst, sol, flow = diamond_witness_case()
        with pytest.raises(DimensionMismatch):
            verify(inst, sol, flow=flow[:-1])


@pytest.mark.parametrize("witness", ["none", "unit", "half"])
def test_verify_entries_agree(witness):
    """core.verify forwards to certify.verify, which flowdesign.verify names."""
    import flowdesign
    from flowdesign import certify, core

    inst, sol, flow = diamond_witness_case(r=2.0)
    flow = {"none": None, "unit": flow, "half": [f / 2 for f in flow]}[witness]
    reports = [entry(inst, sol, 1e-9, flow) for entry in (core.verify, flowdesign.verify, certify.verify)]
    assert reports[0] == reports[1] == reports[2]
    assert reports[0].feasible == (witness != "half")
    assert flowdesign.verify is certify.verify


def test_write_solution_roundtrip():
    sol = Solution(x=(1,), y=(2.0,), cost=4.0, achievedR=1.0)
    text = write_solution(sol)
    assert json.loads(text)["y"] == [2.0]
    assert read_solution(text) == sol


def test_write_solution_unbounded_sentinel():
    sol = Solution(x=(1,), y=(UNBOUNDED,), cost=3.0, achievedR=0.0)
    assert json.loads(write_solution(sol))["y"] == ["inf"]


def test_write_solution_empty_support():
    sol = Solution(x=(0,), y=(0.0,), cost=0.0, achievedR=math.inf)
    assert json.loads(write_solution(sol))["achievedR"] == "inf"


def test_read_solution_rejects_nonbinary_x():
    text = json.dumps({"x": [2], "y": [1.0], "cost": 1.0, "achievedR": 1.0})
    with pytest.raises(SchemaError):
        read_solution(text)


def test_read_solution_rejects_extra_field():
    text = json.dumps({"x": [1], "y": [1.0], "cost": 1.0, "achievedR": 1.0, "note": "hi"})
    with pytest.raises(SchemaError):
        read_solution(text)


def test_unbounded_y_on_priced_arc_is_rejected():
    inst = single_arc(c=1.0)
    rep = verify(inst, Solution(x=(1,), y=(UNBOUNDED,), cost=0.0, achievedR=0.0))
    assert not rep.feasible


class TestRoundTripProperties:
    """Serialization must be lossless for every representable value."""

    pos = st.floats(min_value=0.001, max_value=1000.0)
    nonneg = st.floats(min_value=0.0, allow_infinity=False)
    positive = st.floats(min_value=5e-324, allow_infinity=False)

    @given(m=st.integers(0, 12), r=st.one_of(st.sampled_from([1.0, 1.5, 2.0, 3.0]), st.floats(1.0, 8.0)),
           data=st.data())
    @settings(max_examples=80, derandomize=True, deadline=None)
    def test_instance_survives_write_then_parse(self, m, r, data):
        n = max(m + 1, 2)
        arcs = tuple((data.draw(st.integers(0, n - 1)), a % n) for a in range(m))
        inst = Instance(
            n=n,
            arcs=arcs,
            s=0,
            t=n - 1,
            r=r,
            c=tuple(data.draw(st.one_of(self.pos, self.nonneg)) for _ in range(m)),
            gamma=tuple(data.draw(st.one_of(self.pos, self.nonneg)) for _ in range(m)),
            ybar=tuple(
                data.draw(st.one_of(st.just(math.inf), self.pos, self.positive)) for _ in range(m)
            ),
            B=data.draw(st.one_of(self.pos, self.positive)),
        )
        assert parse_instance(write_instance(inst)) == inst

    @given(x=st.lists(st.sampled_from([0, 1]), min_size=1, max_size=8), data=st.data())
    @settings(max_examples=60, derandomize=True, deadline=None)
    def test_solution_survives_write_then_read(self, x, data):
        y = tuple(data.draw(self.pos) if flag else 0.0 for flag in x)
        sol = Solution(
            x=tuple(x),
            y=y,
            cost=data.draw(self.pos),
            achievedR=data.draw(self.pos),
        )
        assert read_solution(write_solution(sol)) == sol


FIVE_ARCS = {
    "n": 4, "arcs": [[0, 1], [1, 2], [2, 3], [0, 2], [1, 3]], "s": 0, "t": 3, "r": 2,
    "c": [1, 2.5, 0, 1, 3], "gamma": [0, 1, 0.5, 2, 1], "ybar": [1, "inf", 2.5, 3, 1], "B": 4,
}
BAD_ARC = (SchemaError, "each arc must be a [tail, head] pair of integers")
BAD_YBAR = (SchemaError, 'ybar entries must be numbers or "inf"')
MALFORMED_INSTANCE_ENTRIES = [
    *[("arcs", bad, BAD_ARC) for bad in (True, "0", [[0], 1], [0, True], [0, 1.0], [0, 1, 2], [0], [])],
    ("arcs", [0, 4], (ValidationError, "arc endpoint out of range")),
    ("arcs", [-1, 2], (ValidationError, "arc endpoint out of range")),
    *[(key, bad, (SchemaError, f"{key} must be a list of finite numbers"))
      for key in ("c", "gamma") for bad in (True, "1", [1.0], None)],
    ("c", -1, (ValidationError, "variable costs must be finite and >= 0")),
    ("gamma", -0.5, (ValidationError, "fixed costs must be finite and >= 0")),
    *[("ybar", bad, BAD_YBAR) for bad in (True, "1", "Infinity", [1.0], None)],
    ("ybar", 0, (ValidationError, "conductance bounds must be > 0")),
    ("ybar", -2.5, (ValidationError, "conductance bounds must be > 0")),
]


class TestMalformedEntries:
    """Array validation runs one pass per check over a whole field; a single
    malformed entry must still raise what a check of each entry in turn
    raised, wherever in the field it sits."""

    @pytest.mark.parametrize("at", [0, 2, 4])
    @pytest.mark.parametrize("key, bad, expected", MALFORMED_INSTANCE_ENTRIES)
    def test_instance_entry(self, key, bad, expected, at):
        d = json.loads(json.dumps(FIVE_ARCS))
        d[key][at] = bad
        with pytest.raises(expected[0]) as info:
            parse_instance(json.dumps(d))
        assert (type(info.value), str(info.value)) == expected

    @pytest.mark.parametrize("at", [0, 2, 4])
    @pytest.mark.parametrize("key, bad, expected", [
        *[("x", bad, (SchemaError, "x must be a list of 0/1 integers")) for bad in (True, "1", [1], 2, -1, 1.0)],
        *[("y", bad, (SchemaError, 'y entries must be numbers or "inf"')) for bad in (True, "1", [1.0], None)],
    ])
    def test_solution_entry(self, key, bad, expected, at):
        d = {"x": [1, 0, 1, 1, 0], "y": [1.0, 0, "inf", 2, 0.0], "cost": 3.5, "achievedR": 1.25}
        d[key][at] = bad
        with pytest.raises(expected[0]) as info:
            read_solution(json.dumps(d))
        assert (type(info.value), str(info.value)) == expected

    @pytest.mark.parametrize("at", [0, 2, 4])
    @pytest.mark.parametrize("key, bad, message", [
        ("c", math.nan, "variable costs must be finite and >= 0"),
        ("c", math.inf, "variable costs must be finite and >= 0"),
        ("gamma", math.nan, "fixed costs must be finite and >= 0"),
        ("gamma", math.inf, "fixed costs must be finite and >= 0"),
        ("ybar", math.nan, "conductance bounds must be > 0"),
        ("ybar", -math.inf, "conductance bounds must be > 0"),
    ])
    def test_non_finite_values_built_directly(self, key, bad, message, at):
        fields = {key: [1.0] * 5 for key in ("c", "gamma", "ybar")}
        fields[key][at] = bad
        with pytest.raises(ValidationError) as info:
            Instance(n=6, arcs=((0, 1),) * 5, s=0, t=1, r=1.0, B=1.0,
                     **{key: tuple(values) for key, values in fields.items()})
        assert str(info.value) == message

    @pytest.mark.parametrize("at", [0, 2, 4])
    @pytest.mark.parametrize("pair, message", [
        ((math.nan, 1.0), "option conductances must be finite and > 0"),
        ((math.inf, 1.0), "option conductances must be finite and > 0"),
        ((0.0, 1.0), "option conductances must be finite and > 0"),
        ((1.0, math.nan), "option prices must be finite and >= 0"),
        ((1.0, math.inf), "option prices must be finite and >= 0"),
        ((1.0, -1.0), "option prices must be finite and >= 0"),
    ])
    def test_fixed_instance_options(self, pair, message, at):
        from flowdesign.core import FixedInstance

        options = [((1.0, 2.0), (3.0, 4.0))] * 5
        options[at] = ((2.0, 1.0), pair)
        with pytest.raises(ValidationError) as info:
            FixedInstance(n=2, arcs=((0, 1),) * 5, s=0, t=1, r=1.0, B=1.0, options=tuple(options))
        assert str(info.value) == message

    def test_arc_arity_is_checked_when_built_directly(self):
        with pytest.raises(ValueError):
            Instance(n=3, arcs=((0, 1, 2),), s=0, t=1, r=1.0, c=(1.0,), gamma=(0.0,), ybar=(1.0,), B=1.0)


def test_every_exported_name_is_its_submodule_object():
    import importlib

    import flowdesign

    for module, names in flowdesign._SUBMODULE_EXPORTS.items():
        for name in names:
            assert getattr(flowdesign, name) is getattr(importlib.import_module(f"flowdesign.{module}"), name)
