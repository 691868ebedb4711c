"""The contract of the records built through ``repro._records.frozen_record``.

``PendingOp`` (one per submitted op), ``OpFootprint`` (one per planned
op), ``WaveStats`` (one per window), ``Operation`` and ``WorkloadItem``
(one per generated op) are built per op or per window, so how they are
built may change; what they are may not.  Each record stays a frozen
value: assignment raises, equal fields give equal objects with equal
hashes, and ``repr``, the dataclass fields, pickling and
``dataclasses.replace`` are the ones the plain
``@dataclass(frozen=True, slots=True)`` gives.  ``ScheduledUnit`` (one
per placed op of a traced window) is a named tuple.
"""

from __future__ import annotations

import dataclasses
import pickle
import re
from pathlib import Path

import pytest

from repro.engine import PendingOp, WaveStats
from repro.engine.pipeline import ScheduledUnit
from repro.objects.footprint import OpFootprint, bal
from repro.spec.operation import Operation, op
from repro.workloads import WorkloadItem

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"

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
    return OpFootprint(observes=frozenset({bal(1)}), adds=frozenset({bal(2)}))


#: Each record: a factory of one value, a field and a new value for it,
#: and the value's ``repr``.
RECORDS = {
    "PendingOp": (
        pending,
        "seq",
        4,
        # PendingOp's repr is the total-order digest of escalated ops.
        "op(3,1,transfer(2, 5))",
    ),
    "OpFootprint": (
        footprint,
        "sets",
        frozenset({bal(3)}),
        "OpFootprint(observes=frozenset({('bal', 1)}), "
        "adds=frozenset({('bal', 2)}), sets=frozenset())",
    ),
    "WaveStats": (
        lambda: wave(index=0),
        "inflight",
        2,
        "WaveStats(index=0, window=1, wave_ops=1, barrier_ops=1, "
        "escalated_ops=1, lanes_used=1, critical_path=1, virtual_time=2.5, "
        "stall_time=1, stall_time_contended=1, overlap_time=1, inflight=1, "
        "completed_at=7.0, dag_critical_path=1, dag_width=1, "
        "dag_chain_ops=1, dag_critical_ops=1)",
    ),
    "Operation": (
        lambda: op("transfer", 2, 5),
        "args",
        (3, 5),
        "Operation(name='transfer', args=(2, 5))",
    ),
    "WorkloadItem": (
        lambda: WorkloadItem(1, op("transfer", 2, 5)),
        "pid",
        0,
        "WorkloadItem(pid=1, operation=Operation(name='transfer', "
        "args=(2, 5)))",
    ),
}


def test_every_frozen_record_is_held_here():
    built = re.compile(r"^@frozen_record\nclass (\w+)", re.M)
    names = {
        name
        for path in SRC.rglob("*.py")
        for name in built.findall(path.read_text())
    }
    assert names == set(RECORDS)


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_a_record_is_a_frozen_value(name):
    make, field, value, text = RECORDS[name]
    built = make()
    cls = type(built)
    # frozen_record compiled the __init__ that stores through the slots.
    assert cls.__init__.__code__.co_filename == f"<{name}.__init__>"
    assert cls.__dataclass_params__.frozen
    assert not hasattr(built, "__dict__") and "__slots__" in cls.__dict__
    twin = make()
    assert twin is not built
    assert twin == built and hash(twin) == hash(built)
    assert repr(built) == text
    assert pickle.loads(pickle.dumps(built)) == built
    changed = dataclasses.replace(built, **{field: value})
    assert changed != built and getattr(changed, field) == value
    back = dataclasses.replace(changed, **{field: getattr(built, field)})
    assert back == built
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(built, field, value)


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
    assert shape(Operation) == [("name", missing), ("args", ())]
    assert shape(WorkloadItem) == [("pid", missing), ("operation", missing)]


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
