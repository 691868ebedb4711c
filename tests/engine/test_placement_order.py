"""The order the engine reads a window's placement in.

The engine walks a window's placed units in ascending ``(start, window
index)`` — the order its stall attribution and the tracer read.  The run
below places ops behind floors (sync lanes, the cross-window frontier, a
DAG predecessor), so gaps open and later ops backfill them: start order
is not submission order, and the sort is what this test holds.  It is a
read order only: the engine applies each window, and a cluster node each
unit, in submission order (``engine/shard.py``'s module docstring).
"""

from __future__ import annotations

from repro.config import EngineConfig
from repro.engine import PipelinedExecutor
from repro.engine.pipeline import ScheduledUnit
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
        scheduled = place(plan, t_classify, op_sync)
        windows.append((plan, scheduled))
        return scheduled

    engine._place_window_dag = tapped
    engine.run_workload(items)

    backfilled = floored = 0
    for plan, scheduled in windows:
        assert all(type(unit) is ScheduledUnit for unit in scheduled)
        index = {pending.seq: i for i, pending in enumerate(plan.ops)}
        keys = [(unit.start, index[unit.op.seq]) for unit in scheduled]
        assert sorted(index.values()) == sorted(i for _, i in keys)
        assert all(a < b for a, b in zip(keys, keys[1:]))
        backfilled += [i for _, i in keys] != sorted(index.values())
        floored += sum(
            unit.frontier_stall > 0 or unit.sync_stall > 0
            for unit in scheduled
        )
    # The run exercises what the order is for: floored ops, and windows
    # whose start order differs from their submission order.
    assert floored > 0
    assert backfilled > 0

