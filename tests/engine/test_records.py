"""The contract of the engine's per-op and per-window records.

``PendingOp`` (one per submitted op), ``OpFootprint`` (one per planned
op), ``WaveStats`` (one per window) and ``ScheduledUnit`` (one per placed
op of a traced window) are built per op or per window, so how they are
built may change; what they are may not.  Each record stays a frozen value: assignment raises,
equal fields give equal objects with equal hashes, and ``repr``, the
dataclass fields, pickling and ``dataclasses.replace`` are the ones the
plain ``@dataclass(frozen=True, slots=True)`` gives.
"""

from __future__ import annotations

import dataclasses
import pickle

import pytest

from repro.engine import PendingOp, WaveStats
from repro.engine.pipeline import ScheduledUnit
from repro.objects.footprint import OpFootprint, bal
from repro.spec.operation import op

WAVE_FIELDS = (
    "index",
    "window",
    "wave_ops",
    "barrier_ops",
    "escalated_ops",
    "lanes_used",
    "critical_path",
    "virtual_time",
    "stall_time",
    "stall_time_contended",
    "overlap_time",
    "inflight",
    "completed_at",
    "dag_critical_path",
    "dag_width",
    "dag_chain_ops",
    "dag_critical_ops",
)


def wave(**changes) -> WaveStats:
    values = dict.fromkeys(WAVE_FIELDS, 1)
    values.update(virtual_time=2.5, completed_at=7.0)
    values.update(changes)
    return WaveStats(**values)


def pending(seq: int = 3) -> PendingOp:
    return PendingOp(seq, 1, op("transfer", 2, 5))


def footprint() -> OpFootprint:
    return OpFootprint(
        observes=frozenset({bal(1)}), adds=frozenset({bal(1), bal(2)})
    )


#: Each record: a factory of one value, a field and a new value for it.
RECORDS = {
    "PendingOp": (pending, "seq", 4),
    "OpFootprint": (footprint, "sets", frozenset({bal(3)})),
    "WaveStats": (wave, "inflight", 2),
}


@pytest.fixture(params=sorted(RECORDS))
def record(request):
    return RECORDS[request.param]


def test_assigning_a_field_raises(record):
    make, name, value = record
    built = make()
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(built, name, value)
    assert type(built).__dataclass_params__.frozen


def test_equal_fields_give_equal_objects_and_hashes(record):
    make, name, value = record
    a, b = make(), make()
    assert a is not b
    assert a == b and hash(a) == hash(b)
    assert dataclasses.replace(a, **{name: value}) != a


def test_pickle_and_replace_round_trip(record):
    make, name, value = record
    built = make()
    assert pickle.loads(pickle.dumps(built)) == built
    changed = dataclasses.replace(built, **{name: value})
    assert getattr(changed, name) == value
    assert dataclasses.replace(changed, **{name: getattr(built, name)}) == built


def test_records_keep_slots_not_dicts(record):
    make, _, _ = record
    built = make()
    assert not hasattr(built, "__dict__")
    assert "__slots__" in type(built).__dict__


def test_reprs_are_unchanged():
    # PendingOp's repr is the total-order digest of escalated ops.
    assert repr(pending()) == "op(3,1,transfer(2, 5))"
    assert str(pending()) == "#3 p1.transfer(2, 5)"
    assert repr(OpFootprint(adds=frozenset({bal(2)}))) == (
        "OpFootprint(observes=frozenset(), adds=frozenset({('bal', 2)}), "
        "sets=frozenset())"
    )
    assert repr(wave(index=0)) == (
        "WaveStats(index=0, window=1, wave_ops=1, barrier_ops=1, "
        "escalated_ops=1, lanes_used=1, critical_path=1, virtual_time=2.5, "
        "stall_time=1, stall_time_contended=1, overlap_time=1, inflight=1, "
        "completed_at=7.0, dag_critical_path=1, dag_width=1, "
        "dag_chain_ops=1, dag_critical_ops=1)"
    )


def test_fields_keep_their_names_and_defaults():
    def shape(cls):
        return [(f.name, f.default) for f in dataclasses.fields(cls)]

    missing = dataclasses.MISSING
    assert shape(PendingOp) == [
        ("seq", missing),
        ("pid", missing),
        ("operation", missing),
    ]
    empty = frozenset()
    assert shape(OpFootprint) == [
        ("observes", empty),
        ("adds", empty),
        ("sets", empty),
    ]
    assert shape(WaveStats) == [(name, missing) for name in WAVE_FIELDS]


def test_positional_and_keyword_construction_agree():
    assert PendingOp(seq=3, pid=1, operation=op("transfer", 2, 5)) == pending()
    assert OpFootprint(frozenset({bal(1)})) == OpFootprint(
        observes=frozenset({bal(1)})
    )
    with pytest.raises(TypeError):
        PendingOp(3, 1)
    with pytest.raises(TypeError):
        OpFootprint(nope=frozenset())


def test_unused_footprint_kinds_are_the_one_shared_empty_set():
    blank = OpFootprint()
    assert blank.observes is blank.adds is blank.sets
    assert blank.sets == frozenset()
    assert footprint().sets is blank.sets
    assert OpFootprint(sets=frozenset({bal(0)})).adds is blank.adds


def test_scheduled_unit_is_the_eight_field_tuple():
    assert ScheduledUnit._fields == (
        "start",
        "finish",
        "lane",
        "op",
        "footprint",
        "contended",
        "sync_stall",
        "frontier_stall",
    )
    unit = ScheduledUnit(0.0, 1.0, 2, pending(), None, False, 0.0, 0.5)
    assert isinstance(unit, tuple)
    assert tuple(unit) == (0.0, 1.0, 2, pending(), None, False, 0.0, 0.5)
    assert unit.frontier_stall == 0.5
