"""The placement walk's frontier and stall sums, against a written-out fold.

``PipelinedExecutor._place_window_dag`` walks each window's placements
once, in window-index order, moving the cross-window frontier and
finding the stalled ops, whose stalls it then sums in ``(start, window
index)`` order.  This test taps the units (``tests/engine/
placement_tap.py`` reads each window's return as the tracer's units, in
``(start, window index)`` order) and re-derives, by a plain fold over
them in that order, everything the walk leaves behind:

* the three frontier tables — per location, the latest finish of a unit
  that observes it, that writes it (``adds`` or ``sets``), and that
  ``sets`` it;
* ``_frontier_top`` (the latest unknown-footprint finish) and
  ``_frontier_max`` (the latest finish of all);
* ``stats.stall_time`` and ``stall_time_contended``, summed per window
  and then across windows, as the stats fold them.

Every comparison is by ``repr``, so an int that became a float counts as
a difference.  A frontier table is compared as its sorted items: the
engine only ever probes it with ``get``, so the order its entries were
first inserted in is not part of the walk's result.
"""

from __future__ import annotations

from repro.config import EngineConfig
from repro.engine import PipelinedExecutor
from repro.objects.erc20 import ERC20TokenType
from repro.spec.operation import op
from repro.workloads import (
    APPROVAL_HEAVY_MIX,
    TokenWorkloadGenerator,
    WorkloadItem,
)
from tests.engine.placement_tap import tap_placements


class _SupplyBlindERC20(ERC20TokenType):
    """ERC20 whose ``totalSupply`` footprint is unknown (``None``)."""

    def footprint(self, pid, operation):
        if operation.name == "totalSupply":
            return None
        return super().footprint(pid, operation)


def _latest(table: dict, locations, finish) -> None:
    for loc in locations:
        if finish > table.get(loc, 0.0):
            table[loc] = finish


def test_the_walk_equals_a_fold_over_the_tapped_units():
    items = TokenWorkloadGenerator(
        6, seed=5, mix=APPROVAL_HEAVY_MIX, hotspot_fraction=0.5
    ).generate(160)
    # Unknown footprints, spread over the run: each waits for everything
    # before it and gates everything after it.
    for at in (7, 50, 51, 120):
        items.insert(at, WorkloadItem(at % 6, op("totalSupply")))
    engine = PipelinedExecutor(
        _SupplyBlindERC20(6, total_supply=60),
        EngineConfig(num_lanes=4, window=8, pipeline_depth=3),
    )
    tap = tap_placements(engine)
    sizes = []
    place = engine._place_window_dag

    def tapped(plan, t_classify, op_sync):
        sizes.append(len(plan.ops))
        return place(plan, t_classify, op_sync)

    engine._place_window_dag = tapped
    engine.run_workload(items)
    assert tap.flagged == []
    assert len(tap.units) == sum(sizes)
    windows, at = [], 0
    for size in sizes:
        windows.append(tap.units[at : at + size])
        at += size

    observed, wrote, sets = {}, {}, {}
    top = everything = 0.0
    stall = contended_stall = 0.0
    for window in windows:
        in_window = in_window_contended = 0.0
        for unit in window:
            waited = unit.sync_stall + unit.frontier_stall
            in_window += waited
            if unit.contended:
                in_window_contended += waited
            if unit.finish > everything:
                everything = unit.finish
            footprint = unit.footprint
            if footprint is None:
                if unit.finish > top:
                    top = unit.finish
                continue
            _latest(observed, footprint.observes, unit.finish)
            _latest(wrote, footprint.adds, unit.finish)
            _latest(wrote, footprint.sets, unit.finish)
            _latest(sets, footprint.sets, unit.finish)
        stall += in_window
        contended_stall += in_window_contended

    def table(frontier: dict) -> str:
        return repr(sorted(frontier.items()))

    assert table(engine._frontier_obs) == table(observed)
    assert table(engine._frontier_wrote) == table(wrote)
    assert table(engine._frontier_set) == table(sets)
    assert repr(engine._frontier_top) == repr(top)
    assert repr(engine._frontier_max) == repr(everything)
    assert repr(engine.stats.stall_time) == repr(stall)
    assert repr(engine.stats.stall_time_contended) == repr(contended_stall)

    # The run exercises every branch the fold covers: contended units
    # that waited, absolute writes, unknown footprints, and a cell both
    # delta-written and set.
    assert any(unit.contended and unit.sync_stall > 0 for unit in tap.units)
    assert sets and top > 0.0 and contended_stall > 0.0
    assert any(
        unit.footprint is not None and unit.footprint.adds & set(sets)
        for unit in tap.units
    )
