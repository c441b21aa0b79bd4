"""The record contract: every record is built by keyword, reads its fields
back, cannot be assigned to, and the validated ones refuse a bad value on
every public way to build one."""

import math
import pickle

import pytest

from flowdesign import ValidationError
from flowdesign.core import FixedInstance, Instance, Solution, VerificationReport
from flowdesign.oracles import PartitionGadget, SteinerGadget
from flowdesign.pathdesign import LambdaGrid, PathSolution
from flowdesign.resistance import FlowState
from flowdesign.rsp import RspInstance
from flowdesign.spdesign import DPTable, OptionSet
from flowdesign.sptree import SPSchedule

INSTANCE = dict(
    n=3, arcs=((0, 1), (1, 2)), s=0, t=2, r=2.0,
    c=(1.0, 0.5), gamma=(0.0, 2.0), ybar=(1.5, math.inf), B=2.0,
)
FIXED = dict(n=2, arcs=((0, 1), (0, 1)), s=0, t=1, r=1.0, B=1.0, options=(((1.0, 2.0),), ()))
RSP = dict(n=3, arcs=((0, 1), (1, 2)), s=0, t=2, cost=(1.0, 2.0), length=(0.5, 0.5), budget=1.0)
SOLUTION = dict(x=(1, 1), y=(1.5, math.inf), cost=3.5, achievedR=0.5)

RECORDS = {
    "Instance": (Instance, INSTANCE),
    "Solution": (Solution, SOLUTION),
    "FixedInstance": (FixedInstance, FIXED),
    "VerificationReport": (
        VerificationReport, dict(feasible=False, achievedR=3.0, cost=1.0, reasons=("x[0] is not binary",)),
    ),
    "SPSchedule": (SPSchedule, dict(steps=((False, 0, 1),), ends=((0, 1), (1, 2), (0, 2)))),
    "OptionSet": (OptionSet, dict(options=FIXED["options"])),
    "DPTable": (DPTable, dict(points=(([0, 2], [math.inf, 1.0], [-1, 0]),), iterations=2)),
    "PathSolution": (PathSolution, dict(path=(0, 1), y=(1.0, 2.0), objective=4.0)),
    "LambdaGrid": (LambdaGrid, dict(L=1.0, U=3.0, epsilon=0.5, points=(1.0, 2.0, 4.0))),
    "RspInstance": (RspInstance, RSP),
    "FlowState": (FlowState, dict(f=(1.0, 1.0), pi=(3.0, 1.0, 0.0), energy=3.0)),
    "PartitionGadget": (
        PartitionGadget, dict(a=(1, 1), T=1.0, r=2.0, instance=Instance(**INSTANCE), threshold=4.0),
    ),
    "SteinerGadget": (
        SteinerGadget, dict(instance=Instance(**INSTANCE), terminals=(0, 2), new_arcs=(1,)),
    ),
}


@pytest.mark.parametrize("name", RECORDS)
def test_keyword_construction_reads_every_field_back(name):
    cls, fields = RECORDS[name]
    rec = cls(**fields)
    assert {key: getattr(rec, key) for key in fields} == fields
    assert rec == cls(**fields)
    assert repr(rec).startswith(f"{name}(")


@pytest.mark.parametrize("name", RECORDS)
def test_fields_cannot_be_assigned_or_added(name):
    cls, fields = RECORDS[name]
    rec = cls(**fields)
    for key, value in fields.items():
        with pytest.raises(AttributeError):
            setattr(rec, key, value)
        with pytest.raises(AttributeError):
            delattr(rec, key)
    with pytest.raises(AttributeError):
        rec.extra = 1
    assert {key: getattr(rec, key) for key in fields} == fields


BAD_VALUES = [
    (Instance, INSTANCE, {"n": 1}),
    (Instance, INSTANCE, {"s": 2}),
    (Instance, INSTANCE, {"t": 3}),
    (Instance, INSTANCE, {"r": 0.5}),
    (Instance, INSTANCE, {"arcs": ((0, 1), (1, 5))}),
    (Instance, INSTANCE, {"B": 0.0}),
    (Instance, INSTANCE, {"c": (1.0,)}),
    (Instance, INSTANCE, {"c": (1.0, math.inf)}),
    (Instance, INSTANCE, {"gamma": (-1.0, 0.0)}),
    (Instance, INSTANCE, {"ybar": (0.0, 1.0)}),
    (Instance, INSTANCE, {"ybar": (1.0, math.nan)}),
    (FixedInstance, FIXED, {"s": 1}),
    (FixedInstance, FIXED, {"B": -1.0}),
    (FixedInstance, FIXED, {"options": ((),)}),
    (FixedInstance, FIXED, {"options": (((0.0, 1.0),), ())}),
    (FixedInstance, FIXED, {"options": (((1.0, -2.0),), ())}),
    (FixedInstance, FIXED, {"options": (((math.inf, 1.0),), ())}),
    (RspInstance, RSP, {"t": 0}),
    (RspInstance, RSP, {"s": 3}),
    (RspInstance, RSP, {"cost": (1.0,)}),
    (RspInstance, RSP, {"length": (0.5, math.inf)}),
    (RspInstance, RSP, {"cost": (-1.0, 2.0)}),
    (RspInstance, RSP, {"budget": -1.0}),
    (RspInstance, RSP, {"budget": math.nan}),
]


@pytest.mark.parametrize(
    "cls, fields, bad", BAD_VALUES, ids=[f"{c.__name__}-{next(iter(b))}" for c, _, b in BAD_VALUES],
)
def test_bad_value_is_refused_on_every_constructor_path(cls, fields, bad):
    good = cls(**fields)
    wrong = {**fields, **bad}
    ordered = [wrong[key] for key in fields]
    builds = {
        "keyword": lambda: cls(**wrong),
        "positional": lambda: cls(*ordered),
        "_make": lambda: cls._make(ordered),
        "_replace": lambda: good._replace(**bad),
    }
    for path, build in builds.items():
        with pytest.raises(ValidationError):
            build()
            pytest.fail(f"{path} built a record with {bad}")


@pytest.mark.parametrize("cls, fields", [(Instance, INSTANCE), (FixedInstance, FIXED), (RspInstance, RSP)])
def test_validated_records_round_trip_through_make_replace_and_pickle(cls, fields):
    rec = cls(**fields)
    assert rec._replace() == rec and type(rec._replace()) is cls
    assert cls._make(rec) == rec
    back = pickle.loads(pickle.dumps(rec))
    assert back == rec and type(back) is cls


@pytest.mark.parametrize(
    "cls, fields, change", [(Instance, INSTANCE, {"B": 3.0}), (Solution, SOLUTION, {"cost": 4.0})],
)
def test_instance_and_solution_compare_and_hash_by_value(cls, fields, change):
    a, b = cls(**fields), cls(**fields)
    assert a == b and not a != b
    assert hash(a) == hash(b)
    assert len({a, b}) == 1 and {a: 1}[b] == 1
    other = cls(**{**fields, **change})
    assert a != other and other not in {a}
