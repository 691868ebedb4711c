"""The engine's one placement walk, against the walk it replaced.

``PipelinedExecutor._place_window_dag`` schedules a window in window
indices, takes each op's lane predecessor from the list scheduler
(``dag_list_schedule(..., lane_prev=)``), walks the ops in index order
and sums the stalls of the stalled ops in ``(start, window index)``
order.  :func:`_reference_place` is the walk it replaced, written out:
it relabels the window to task order (chains, then singletons),
schedules, sorts every op by ``(start, window index)``, tracks each
lane's slot (the finish of the op before on that lane) and attributes
every op's stall.  Every window of every drawn run is placed by both, on
the same frontier and lane timeline, and compared by ``repr`` (an int
that became a float counts): the window's stall sums, each op's sync and
frontier stall, the three frontier tables (as sorted items: the engine
only probes them, so insertion order is no result), ``_frontier_top`` /
``_frontier_max``, ``lanes_used``, the completion, the placements and
the carried-out lane timeline.

The scheduler fixes up a lane predecessor only for a task placed past
its lane's idle time, whose sliver later tasks may fill.
:func:`_fixups` classifies those tasks off the reference walk, and
:func:`test_both_fix_up_branches_are_exercised` holds that a fixed run
hits a sliver left partly filled and one filled exactly to its start.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import EngineConfig
from repro.engine import PipelinedExecutor
from repro.engine.shard import dag_list_schedule
from repro.objects.erc20 import ERC20TokenType
from repro.spec.operation import op
from repro.workloads import (
    APPROVAL_HEAVY_MIX,
    CHAIN_HEAVY_MIX,
    OWNER_ONLY_MIX,
    SPENDER_HEAVY_MIX,
    TokenWorkloadGenerator,
    WorkloadItem,
)


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


def _reference_place(frontier, lane_free, plan, t_classify, op_sync):
    """The replaced walk on copies of the engine's pre-window state:
    ``frontier = (observed, wrote, sets, top, everything)``."""
    observed, wrote, sets, top, everything = frontier
    floors = []
    for footprint in plan.footprints:
        ready = everything if footprint is None else top
        floor = max(ready, t_classify)
        if footprint is not None:
            for loc in footprint.observes:
                floor = max(floor, wrote.get(loc, 0.0))
            for loc in footprint.adds:
                floor = max(floor, observed.get(loc, 0.0), sets.get(loc, 0.0))
            for loc in footprint.sets:
                floor = max(floor, observed.get(loc, 0.0), wrote.get(loc, 0.0))
        floors.append(floor)
    for i, done in op_sync.items():
        floors[i] = max(floors[i], done)
    # Task order: each chain's window indices, then the singletons; a
    # chain's positional DAG shifted by its first task position.
    order, preds, priorities = [], [], []
    for chain, dag in zip(plan.chains, plan.dags):
        offset = len(order)
        order += chain
        priorities += dag.priorities
        preds += [tuple(p + offset for p in below) for below in dag.preds]
    order += plan.singletons
    preds += [()] * len(plan.singletons)
    priorities += [1] * len(plan.singletons)
    carried, slot = list(lane_free), list(lane_free)
    placed = dag_list_schedule(
        order,
        preds,
        priorities,
        lane_free,
        floors=[floors[i] for i in order],
    )
    stall = stall_contended = 0.0
    completed = t_classify
    stalls, slots = {}, {}
    walk = sorted(
        (start, i, k) for k, ((start, _, _), i) in enumerate(zip(placed, order))
    )
    for start, i, k in walk:
        _, finish, lane = placed[k]
        slots[i] = slot[lane]
        base = max(slot[lane], t_classify)
        for p in preds[k]:
            base = max(base, placed[p][1])
        slot[lane] = finish
        sync_ready = op_sync.get(i)
        sync_stall, held = 0.0, base
        if sync_ready is not None and sync_ready > base:
            sync_stall, held = sync_ready - base, sync_ready
        blocked = max(floors[i] - held, 0.0)
        stalls[i] = (sync_stall, blocked)
        stall += sync_stall + blocked
        if sync_ready is not None:
            stall_contended += sync_stall + blocked
        completed = max(completed, finish)
        footprint = plan.footprints[i]
        if footprint is None:
            top = max(top, finish)
        else:
            _latest(observed, footprint.observes, finish)
            _latest(wrote, footprint.adds, finish)
            _latest(wrote, footprint.sets, finish)
            _latest(sets, footprint.sets, finish)
    lanes_used = sum(a != b for a, b in zip(carried, slot))
    window_placed = [None] * len(order)
    for k, i in enumerate(order):
        window_placed[i] = placed[k]
    return dict(
        sums=(stall, stall_contended),
        stalls=stalls,
        frontier=(observed, wrote, sets, top, max(everything, completed)),
        lanes_used=lanes_used,
        completed=completed,
        placed=window_placed,
        lane_free=lane_free,
        carried=carried,
        slots=slots,
        order=order,
        static_order=sorted(
            range(len(order)), key=lambda k: (-priorities[k], order[k])
        ),
    )


def _fixups(reference) -> tuple[int, int, int]:
    """``(unfilled, partly, exactly)``: tail-placed tasks that left an
    idle sliver before them, by what later tasks left of it — found by
    replaying the static order against each lane's tail (a task placed
    in a gap starts before its lane's tail, a tail-placed one at or
    after it)."""
    placed, order = reference["placed"], reference["order"]
    tails = list(reference["carried"])
    unfilled = partly = exactly = 0
    for k in reference["static_order"]:
        i = order[k]
        start, finish, lane = placed[i]
        if start < tails[lane]:
            continue
        before = reference["slots"][i]
        if start > tails[lane]:
            if before == tails[lane]:
                unfilled += 1
            elif before == start:
                exactly += 1
            else:
                partly += 1
        tails[lane] = finish
    return unfilled, partly, exactly


def _frontier_state(engine):
    return (
        dict(engine._frontier_obs),
        dict(engine._frontier_wrote),
        dict(engine._frontier_set),
        engine._frontier_top,
        engine._frontier_max,
    )


def _table(frontier: dict) -> str:
    return repr(sorted(frontier.items()))


def _run_against_reference(engine, items) -> list[tuple[int, int, int]]:
    """Run ``items``, placing every window by both walks; returns each
    window's :func:`_fixups` counts."""
    place = engine._place_window_dag
    fixups = []

    def checked(plan, t_classify, op_sync):
        reference = _reference_place(
            _frontier_state(engine),
            list(engine._lane_free),
            plan,
            t_classify,
            op_sync,
        )
        placed, stalls = place(plan, t_classify, op_sync)
        stall, stall_contended, completed, lanes_used = engine._placed
        assert repr(placed) == repr(reference["placed"])
        assert repr(engine._lane_free) == repr(reference["lane_free"])
        assert repr((stall, stall_contended)) == repr(reference["sums"])
        waited = {
            i: stalled
            for i, stalled in reference["stalls"].items()
            if stalled != (0.0, 0.0)
        }
        assert repr(stalls) == repr(waited)
        assert all(
            repr(stalled) == repr((0.0, 0.0))
            for i, stalled in reference["stalls"].items()
            if i not in stalls
        )
        observed, wrote, sets, top, everything = reference["frontier"]
        assert _table(engine._frontier_obs) == _table(observed)
        assert _table(engine._frontier_wrote) == _table(wrote)
        assert _table(engine._frontier_set) == _table(sets)
        assert repr(engine._frontier_top) == repr(top)
        assert repr(engine._frontier_max) == repr(everything)
        assert lanes_used == reference["lanes_used"]
        assert repr(completed) == repr(reference["completed"])
        fixups.append(_fixups(reference))
        return placed, stalls

    engine._place_window_dag = checked
    engine.run_workload(items)
    return fixups


_MIXES = [
    APPROVAL_HEAVY_MIX,
    CHAIN_HEAVY_MIX,
    OWNER_ONLY_MIX,
    SPENDER_HEAVY_MIX,
]


@settings(max_examples=60, deadline=None)
@given(
    accounts=st.integers(2, 8),
    mix=st.sampled_from(_MIXES),
    seed=st.integers(0, 10_000),
    ops=st.integers(1, 120),
    unknown=st.lists(st.integers(0, 119), max_size=4),
    window=st.sampled_from([4, 8, 32]),
    lanes=st.sampled_from([1, 2, 8]),
    depth=st.sampled_from([1, 2, 4]),
    threshold=st.sampled_from([0, 8]),
)
def test_the_walk_equals_the_replaced_walk(
    accounts, mix, seed, ops, unknown, window, lanes, depth, threshold
):
    items = TokenWorkloadGenerator(
        accounts, seed=seed, mix=mix, hotspot_fraction=0.5
    ).generate(ops)
    # Unknown footprints wait for everything before them and gate
    # everything after them.
    for at in sorted(unknown):
        items.insert(min(at, len(items)), WorkloadItem(0, op("totalSupply")))
    engine = PipelinedExecutor(
        _SupplyBlindERC20(accounts, total_supply=10 * accounts),
        EngineConfig(
            num_lanes=lanes,
            window=window,
            pipeline_depth=depth,
            team_threshold=threshold,
            seed=seed,
        ),
    )
    _run_against_reference(engine, items)


def test_both_fix_up_branches_are_exercised():
    """A fixed run in which a floored op opens a sliver that later ops
    fill partly, and one that they fill exactly to its start — the two
    cases where the scheduler's recorded lane predecessor is fixed up."""
    items = TokenWorkloadGenerator(
        6, seed=5, mix=APPROVAL_HEAVY_MIX, hotspot_fraction=0.5
    ).generate(400)
    engine = PipelinedExecutor(
        ERC20TokenType(6, total_supply=60),
        EngineConfig(num_lanes=4, window=16, pipeline_depth=3),
    )
    counts = _run_against_reference(engine, items)
    unfilled, partly, exactly = (sum(column) for column in zip(*counts))
    assert partly > 0
    assert exactly > 0
    assert unfilled > 0
