"""The engine's placement walk, against the reference.

``PipelinedExecutor._place_window_dag`` floors each op of a window by
its admission, the cross-window frontier and its sync lane, places the
window through the list scheduler (``dag_list_schedule(...,
lane_prev=)``), finds the stalled ops and moves the frontier in one
walk.  Every window of every run here is also placed the reference way
(``tests/reference.py``), on the test's own lane timeline: floors from a
:class:`~tests.reference.Frontier` folded over every op placed before,
placements from :func:`~tests.reference.list_schedule` over the
reference plan, and each op's stall off its baseline — the finish
before it on its lane (:func:`~tests.reference.lane_prev`), admission
and its predecessors' finishes — charged to the sync lane first, then to
the frontier.  Both are compared by ``repr`` (an int that became a float
counts): the placements, the carried-out lane timeline, the stalled
ops' ``(sync_stall, frontier_stall)``, the window's stall sums (in
``(start, window index)`` order), the three frontier tables (as sorted
items: the engine only probes them, so insertion order is no result),
``_frontier_top`` / ``_frontier_max``, ``lanes_used`` and the
completion; at the end of the run, the stats' two stall totals.

The scheduler fixes up a lane predecessor only for a task placed past
its lane's idle time, whose sliver later tasks may fill.
:func:`_fixups` classifies those tasks off the reference, and
:func:`test_a_fixed_run_exercises_every_branch` holds that a fixed run
hits a sliver left partly filled and one filled exactly to its start,
and every branch of the frontier fold.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import EngineConfig
from repro.engine import PipelinedExecutor
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
from tests import reference


class _SupplyBlindERC20(ERC20TokenType):
    """ERC20 whose ``totalSupply`` footprint is unknown (``None``)."""

    def footprint(self, pid, operation):
        if operation.name == "totalSupply":
            return None
        return super().footprint(pid, operation)


def _fixups(placed, priorities, carried, before) -> tuple[int, int, int]:
    """``(unfilled, partly, exactly)``: tail-placed tasks that left an
    idle sliver before them, by what later tasks left of it — found by
    replaying the static order against each lane's tail (a task placed
    in a gap starts before its lane's tail, a tail-placed one at or
    after it)."""
    tails = list(carried)
    unfilled = partly = exactly = 0
    for i in sorted(range(len(placed)), key=lambda i: (-priorities[i], i)):
        start, finish, lane = placed[i]
        if start < tails[lane]:
            continue
        if start > tails[lane]:
            if before[i] == tails[lane]:
                unfilled += 1
            elif before[i] == start:
                exactly += 1
            else:
                partly += 1
        tails[lane] = finish
    return unfilled, partly, exactly


def _table(frontier: dict) -> str:
    return repr(sorted(frontier.items()))


class _Run:
    """The reference's side of one engine run: its frontier, its lane
    timeline, and per window the fix-up counts and the stalls."""

    def __init__(self, engine) -> None:
        self.engine = engine
        self.frontier = reference.Frontier()
        self.lanes = [0.0] * len(engine._lane_free)
        self.fixups: list[tuple[int, int, int]] = []
        self.stall = self.stall_contended = 0.0
        self.footprints: list = []
        #: ``(contended, sync_stall, frontier_stall)`` of every stalled op.
        self.stalled: list[tuple] = []
        engine._place_window_dag = self.wrap(engine._place_window_dag)

    def wrap(self, place):
        def checked(plan, t_classify, op_sync):
            expected = self.place(plan.ops, t_classify, op_sync)
            placed, stalls = place(plan, t_classify, op_sync)
            stall, stall_contended, completed, lanes_used = self.engine._placed
            assert repr(placed) == repr(expected["placed"])
            assert repr(self.engine._lane_free) == repr(self.lanes)
            assert repr(stalls) == repr(expected["stalls"])
            assert repr((stall, stall_contended)) == repr(expected["sums"])
            assert lanes_used == expected["lanes_used"]
            assert repr(completed) == repr(expected["completed"])
            frontier, engine = self.frontier, self.engine
            assert _table(engine._frontier_obs) == _table(frontier.observed)
            assert _table(engine._frontier_wrote) == _table(frontier.wrote)
            assert _table(engine._frontier_set) == _table(frontier.sets)
            assert repr(engine._frontier_top) == repr(frontier.top)
            assert repr(engine._frontier_max) == repr(frontier.everything)
            return placed, stalls

        return checked

    def place(self, ops, t_classify, op_sync) -> dict:
        expected = reference.plan(self.engine.object_type, ops)
        footprints, preds = expected.footprints, expected.preds
        floors = [self.frontier.floor(fp, t_classify) for fp in footprints]
        for i, done in op_sync.items():
            floors[i] = max(floors[i], done)
        carried = list(self.lanes)
        placed = reference.list_schedule(
            preds, expected.priorities, self.lanes, floors
        )
        before = reference.lane_prev(placed, carried)
        stalls, stall, stall_contended = {}, 0.0, 0.0
        for _, i in sorted((start, i) for i, (start, *_) in enumerate(placed)):
            finishes = [placed[p][1] for p in preds[i]]
            base = max([before[i], t_classify] + finishes)
            sync_ready = op_sync.get(i)
            sync_stall, held = 0.0, base
            if sync_ready is not None and sync_ready > base:
                sync_stall, held = sync_ready - base, sync_ready
            blocked = max(floors[i] - held, 0.0)
            stall += sync_stall + blocked
            if sync_ready is not None:
                stall_contended += sync_stall + blocked
            if (sync_stall, blocked) != (0.0, 0.0):
                stalls[i] = (sync_stall, blocked)
        for (_, finish, _), footprint in zip(placed, footprints):
            self.frontier.record(footprint, finish)
        self.fixups.append(
            _fixups(placed, expected.priorities, carried, before)
        )
        self.stall += stall
        self.stall_contended += stall_contended
        self.footprints += footprints
        self.stalled += [
            (i in op_sync, *waited) for i, waited in stalls.items()
        ]
        return dict(
            placed=placed,
            stalls=stalls,
            sums=(stall, stall_contended),
            lanes_used=sum(a != b for a, b in zip(carried, self.lanes)),
            completed=max([t_classify] + [f for _, f, _ in placed]),
        )

    def run(self, items) -> None:
        stats = self.engine.run_workload(items)[2]
        assert repr(stats.stall_time) == repr(self.stall)
        assert repr(stats.stall_time_contended) == repr(self.stall_contended)


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
def test_the_walk_equals_the_reference(
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
    _Run(engine).run(items)


def test_a_fixed_run_exercises_every_branch():
    """A fixed run in which a floored op opens a sliver that later ops
    fill partly, one that they fill exactly to its start, and one they
    leave — the cases where the scheduler's recorded lane predecessor is
    fixed up — and which reaches every branch of the frontier fold:
    contended ops that waited on their sync lane, absolute writes,
    unknown footprints, and a cell both delta-written and set."""
    items = TokenWorkloadGenerator(
        6, seed=5, mix=APPROVAL_HEAVY_MIX, hotspot_fraction=0.5
    ).generate(400)
    for at in (7, 50, 51, 120):
        items.insert(at, WorkloadItem(at % 6, op("totalSupply")))
    run = _Run(
        PipelinedExecutor(
            _SupplyBlindERC20(6, total_supply=60),
            EngineConfig(num_lanes=4, window=16, pipeline_depth=3),
        )
    )
    run.run(items)
    unfilled, partly, exactly = (sum(column) for column in zip(*run.fixups))
    assert partly > 0 and exactly > 0 and unfilled > 0
    assert any(contended and waited > 0 for contended, waited, _ in run.stalled)
    frontier = run.frontier
    assert frontier.sets and frontier.top > 0.0 and run.stall_contended > 0.0
    assert any(
        footprint is not None and footprint.adds & set(frontier.sets)
        for footprint in run.footprints
    )
