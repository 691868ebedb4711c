"""Every record class is what ``@dataclass`` with its options gives.

``repro._records.record`` builds the record classes of ``src/repro``
with one compile each.  Each ``@record`` class in the source is held to
its twin, built when its module runs again with ``@record`` read as
``@dataclass``: the ``__init__`` signature, ``fields``,
``__dataclass_params__``, ``__match_args__``, doc and slots, and on
values ``repr``, ``==``, ``hash``, assignment (``FrozenInstanceError``),
pickling, ``replace`` and ``asdict``.
"""

from __future__ import annotations

import dataclasses
import importlib
import inspect
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
DECORATED = re.compile(r"^@record(?:\(.*\))?\nclass (\w+)", re.M)
DIRECT = re.compile(
    r"^\s*@(dataclasses\.)?dataclass\b|^from .* import .*\bdataclass\b", re.M
)


def found_records() -> dict[str, tuple[type, type]]:
    """``{module.Class: (class, twin)}`` of every ``@record`` class; the
    twin comes from running its module's source again with each
    ``@record`` read as ``@dataclass``."""
    found = {}
    for path in sorted(SRC.rglob("*.py")):
        text = path.read_text()
        names = DECORATED.findall(text)
        assert len(names) == text.count("@record")
        if not names:
            continue
        module = ".".join(path.relative_to(SRC.parent).with_suffix("").parts)
        built = importlib.import_module(module)
        twins = {"__name__": module, "dataclass": dataclasses.dataclass}
        source = text.replace("\n@record", "\n@dataclass")
        exec(compile(source, str(path), "exec"), twins)
        for name in names:
            found[f"{module}.{name}"] = getattr(built, name), twins[name]
    return found


RECORDS = found_records()


def outcome(act, *args):
    """What ``act(*args)`` gives: the ``repr`` of its value, or the type
    and text of what it raises."""
    try:
        return "value", repr(act(*args))
    except Exception as error:
        return type(error), str(error)


def instance(cls: type, bump: int = -1):
    """A value of ``cls`` built without ``__init__``: each field holds
    its name, and field number ``bump`` a ``+`` more."""
    made = object.__new__(cls)
    for k, spec in enumerate(dataclasses.fields(cls)):
        object.__setattr__(made, spec.name, spec.name + "+" * (k == bump))
    return made


@pytest.mark.parametrize("qualified", sorted(RECORDS))
def test_a_record_is_what_dataclass_gives(qualified):
    cls, ref = RECORDS[qualified]
    assert repr(cls.__dataclass_params__) == repr(ref.__dataclass_params__)
    assert str(dataclasses.fields(cls)) == str(dataclasses.fields(ref))
    assert cls.__match_args__ == ref.__match_args__
    assert cls.__doc__ == ref.__doc__
    assert getattr(cls, "__slots__", None) == getattr(ref, "__slots__", None)
    assert str(inspect.signature(cls.__init__)) == str(
        inspect.signature(ref.__init__)
    )
    assert cls.__init__.__annotations__ == ref.__init__.__annotations__
    # One compiled __init__; a frozen, slotted one stores through the
    # slots' descriptors, never through object.__setattr__.
    init = cls.__init__.__code__
    assert init.co_filename == f"<{cls.__qualname__}.__init__>"
    if cls.__dataclass_params__.frozen and "__slots__" in vars(cls):
        assert "__setattr__" not in init.co_names
    assert (cls.__hash__ is None) == (ref.__hash__ is None)
    values = range(len(dataclasses.fields(cls)))
    assert outcome(cls, *values) == outcome(ref, *values)
    assert outcome(cls) == outcome(ref)
    # Each field in turn moves repr, asdict, astuple, hash and ==.
    acts = [repr, dataclasses.asdict, dataclasses.astuple]
    acts += [hash] * (cls.__hash__ is not object.__hash__)
    for k in range(-1, len(dataclasses.fields(cls))):
        one, ref_one = instance(cls, k), instance(ref, k)
        for act in acts:
            assert outcome(act, one) == outcome(act, ref_one)
        assert (one == instance(cls)) == (ref_one == instance(ref))
    assert outcome(one.__eq__, ref_one) == outcome(ref_one.__eq__, one)
    one, ref_one = instance(cls), instance(ref)
    state = one.__reduce_ex__(4)[2:]
    assert state == ref_one.__reduce_ex__(4)[2:]
    assert pickle.loads(pickle.dumps(one)).__reduce_ex__(4)[2:] == state
    guarded = cls.__match_args__ and hasattr(ref.__repr__, "__wrapped__")
    for made in (one, ref_one) * bool(guarded):  # each holds itself
        object.__setattr__(made, cls.__match_args__[0], made)
    assert outcome(repr, one) == outcome(repr, ref_one)
    for name in cls.__match_args__:
        replace = lambda o: dataclasses.replace(o, **{name: 7})
        for act, *args in (replace,), (setattr, name, 7), (delattr, name):
            one, ref_one = instance(cls), instance(ref)
            assert outcome(act, one, *args) == outcome(act, ref_one, *args)
            assert outcome(repr, one) == outcome(repr, ref_one)


def test_no_class_in_src_is_a_dataclass_directly():
    assert [
        path.name
        for path in SRC.rglob("*.py")
        if path.name != "_records.py" and DIRECT.search(path.read_text())
    ] == []
    assert len(RECORDS) >= 88


def test_the_per_op_records_keep_their_fields_and_text():
    """The records built once per op or window; their text is what
    digests and traces are made of."""
    missing, empty = dataclasses.MISSING, frozenset()
    assert {
        cls.__name__: {f.name: f.default for f in dataclasses.fields(cls)}
        for cls in (PendingOp, OpFootprint, Operation, WorkloadItem)
    } == {
        "PendingOp": dict.fromkeys(("seq", "pid", "operation"), missing),
        "OpFootprint": dict.fromkeys(("observes", "adds", "sets"), empty),
        "Operation": {"name": missing, "args": ()},
        "WorkloadItem": {"pid": missing, "operation": missing},
    }
    assert len(dataclasses.fields(WaveStats)) == 17
    assert repr(WorkloadItem(1, op("transfer", 2, 5))) == (
        "WorkloadItem(pid=1, operation=Operation(name='transfer', "
        "args=(2, 5)))"
    )


def pending() -> PendingOp:
    return PendingOp(3, 1, op("transfer", 2, 5))


def test_unused_footprint_kinds_are_the_one_shared_empty_set():
    blank = OpFootprint()
    assert blank.observes is blank.adds is blank.sets
    assert blank.sets == frozenset()
    kinds = OpFootprint(observes=frozenset({bal(1)}), adds=frozenset({bal(2)}))
    assert kinds.sets is blank.sets
    assert OpFootprint(sets=frozenset({bal(0)})).adds is blank.adds


def test_scheduled_unit_is_the_eight_field_tuple():
    names = "start finish lane op footprint contended sync_stall"
    assert ScheduledUnit._fields == (*names.split(), "frontier_stall")
    unit = ScheduledUnit(0.0, 1.0, 2, pending(), None, False, 0.0, 0.5)
    assert isinstance(unit, tuple)
    assert tuple(unit) == (0.0, 1.0, 2, pending(), None, False, 0.0, 0.5)
    assert unit.frontier_stall == 0.5
