"""The order the engine reads a window's placement in.

``PipelinedExecutor._place_window_dag`` returns a window's placements
aligned with the window, walks them in window-index order, and sums the
stalls of its stalled ops in ascending ``(start, window index)`` — the
order its stall dict keeps, and the order in which
:func:`~repro.engine.pipeline.scheduled_units` hands the tracer its
units.  The run below places ops behind floors (sync lanes, the
cross-window frontier, a DAG predecessor), so gaps open and later ops
backfill them: start order is not submission order, and the sort is what
this test holds.  It is a read order only: the engine applies each
window, and a cluster node each unit, in submission order
(``engine/shard.py``'s module docstring).
"""

from __future__ import annotations

from repro.config import EngineConfig
from repro.engine import PipelinedExecutor
from repro.engine.pipeline import ScheduledUnit, scheduled_units
from repro.objects.erc20 import ERC20TokenType
from repro.workloads import APPROVAL_HEAVY_MIX, TokenWorkloadGenerator


def test_engine_units_ascend_by_start_then_window_index():
    token = ERC20TokenType(6, total_supply=60)
    generator = TokenWorkloadGenerator(6, seed=3, mix=APPROVAL_HEAVY_MIX)
    items = generator.generate(96)
    engine = PipelinedExecutor(
        token, EngineConfig(num_lanes=8, window=8, pipeline_depth=4)
    )
    windows = []
    place = engine._place_window_dag

    def tapped(plan, t_classify, op_sync):
        placed, stalls = place(plan, t_classify, op_sync)
        windows.append((plan, op_sync, placed, stalls))
        return placed, stalls

    engine._place_window_dag = tapped
    engine.run_workload(items)

    backfilled = floored = 0
    for plan, op_sync, placed, stalls in windows:
        assert len(placed) == len(plan.ops)
        stalled = [(placed[i][0], i) for i in stalls]
        assert all(a < b for a, b in zip(stalled, stalled[1:]))
        scheduled = scheduled_units(plan, op_sync, placed, stalls)
        assert all(type(unit) is ScheduledUnit for unit in scheduled)
        index = {pending.seq: i for i, pending in enumerate(plan.ops)}
        keys = [(unit.start, index[unit.op.seq]) for unit in scheduled]
        assert sorted(index.values()) == sorted(i for _, i in keys)
        assert all(a < b for a, b in zip(keys, keys[1:]))
        assert keys == sorted((p[0], i) for i, p in enumerate(placed))
        backfilled += [i for _, i in keys] != sorted(index.values())
        # The stall dict holds exactly the ops that waited.
        waited = [
            index[unit.op.seq]
            for unit in scheduled
            if unit.frontier_stall > 0 or unit.sync_stall > 0
        ]
        assert waited == list(stalls)
        floored += len(stalls)
    # The run exercises what the order is for: floored ops, and windows
    # whose start order differs from their submission order.
    assert floored > 0
    assert backfilled > 0
