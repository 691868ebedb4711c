"""Op-granular DAG scheduling: structure and equivalence tests.

Machine-checked guarantees of the op-granular scheduler:

* **DAG structure** — :class:`~repro.engine.conflict_graph.ComponentDAG`
  orients every non-commute edge by submission order over positions in
  its chain, its width is an antichain of one depth, critical path /
  width report the component's intrinsic makespan bound and parallelism,
  and every window's DAGs equal the brute-force fold of their edges
  (:func:`~tests.engine.graph_views.reference_dag`);
* **linear extension** — every DAG schedule starts an op only after
  every DAG predecessor finished, so the placement honors every
  component DAG edge, of which submission order is a linear extension
  (``engine/shard.py``'s module docstring);
* **the list scheduler** — for random DAGs, priorities that rank every
  predecessor first (bottom levels plus slack), floors and carried-in
  lane timelines, :func:`dag_list_schedule` never overlaps
  two tasks on a lane, honors every floor and predecessor, never moves
  ``lane_free`` backward, is deterministic — and places every task
  exactly where a ready heap scanning every lane does
  (:func:`_lane_scan_schedule`, the reference for its static order), on
  inputs shaped to make the gap walk's horizon skip fire, reset and
  re-arm too; priorities that break the rule raise;
* **serial equivalence** — for *any* lane count, window size, mix, and
  pipeline depth, the DAG-scheduled final state and every response equal
  a plain sequential execution in submission order.
"""

from __future__ import annotations

import heapq
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.analysis.commutativity import PairKind
from repro.config import EngineConfig
from repro.engine import (
    ComponentDAG,
    PipelinedExecutor,
    dag_list_schedule,
    plan_window,
)
from repro.engine.conflict_graph import ConflictGraph
from repro.engine.classifier import OpClassifier
from repro.engine.mempool import Mempool, PendingOp
from repro.engine.rounds import plan_window
from repro.engine.shard import lane_fill
from repro.errors import EngineError
from repro.objects.asset_transfer import AssetTransferType
from repro.objects.erc20 import ERC20TokenType
from repro.objects.erc721 import ERC721TokenType
from repro.spec.operation import op
from repro.workloads import (
    APPROVAL_HEAVY_MIX,
    CHAIN_HEAVY_MIX,
    OWNER_ONLY_MIX,
    SPENDER_HEAVY_MIX,
    TokenWorkloadGenerator,
    WorkloadItem,
    WorkloadMix,
    serial_reference,
)
from tests.engine import graph_views as views
from tests.engine.graph_views import reference_dag

MIXES = {
    "owner_only": OWNER_ONLY_MIX,
    "default": WorkloadMix(),
    "spender_heavy": SPENDER_HEAVY_MIX,
    "approval_heavy": APPROVAL_HEAVY_MIX,
}
MIXES_WITH_CHAINS = {**MIXES, "chain_heavy": CHAIN_HEAVY_MIX}


def window_dags(token, calls):
    """``(graph, chains, dags)`` of the window ``calls`` (``(pid,
    operation)`` pairs), the DAGs as the program built them — each held
    to the brute-force fold of ``graph.edges`` first."""
    ops = [
        PendingOp(seq, pid, operation)
        for seq, (pid, operation) in enumerate(calls)
    ]
    graph = ConflictGraph.build(OpClassifier(token), ops)
    chains = [c for c in graph.components() if len(c) > 1]
    dags = graph.component_dags()
    assert dags == [reference_dag(graph, chain) for chain in chains]
    return graph, chains, dags


def depths(dag: ComponentDAG) -> list[int]:
    """Longest path ending at each position, in nodes, from ``preds``."""
    found: list[int] = []
    for below in dag.preds:
        found.append(1 + max((found[p] for p in below), default=0))
    return found


class TestComponentDAG:
    TOKEN = ERC20TokenType(8, total_supply=80)

    def test_path_component_is_a_total_order(self):
        # 0 -> 1 -> 2 hand a balance on: each transfer conflicts with the
        # next, the first and the last commute.
        graph, _, (dag,) = window_dags(
            self.TOKEN,
            [(pid, op("transfer", pid + 1, 1)) for pid in range(3)],
        )
        assert list(graph.edges) == [(0, 1), (1, 2)]
        assert dag.critical_path == 3
        assert dag.width == 1
        assert dag.preds == ((), (0,), (1,))
        assert dag.priorities == (3, 2, 1)

    def test_commuting_pairs_carry_no_edge(self):
        # 0-1 and 0-2 are read-only edges; the two reads commute (no
        # edge): width 2.
        _, _, (dag,) = window_dags(
            self.TOKEN,
            [
                (0, op("transfer", 1, 1)),
                (2, op("balanceOf", 0)),
                (3, op("balanceOf", 1)),
            ],
        )
        assert dag.critical_path == 2
        assert dag.width == 2
        assert depths(dag) == [1, 2, 2]
        assert dag.preds[1] == (0,) and dag.preds[2] == (0,)

    def test_edges_orient_by_submission_order(self):
        # Window indices 3, 7, 9 form the one chain — positions 0, 1, 2;
        # the fillers read accounts nobody writes.
        calls = [(1, op("balanceOf", 6 + i % 2)) for i in range(10)]
        calls[3] = (0, op("transfer", 2, 1))
        calls[7] = (6, op("balanceOf", 5))
        calls[9] = (5, op("transfer", 0, 1))
        graph, chains, (dag,) = window_dags(self.TOKEN, calls)
        assert chains == [[3, 7, 9]]
        assert views.kind(graph, 3, 9) is PairKind.CONFLICT
        assert views.kind(graph, 7, 9) is PairKind.READ_ONLY
        assert dag.preds == ((), (), (0, 1))
        assert dag.priorities == (2, 2, 1)

    def test_width_is_an_antichain_of_one_depth(self):
        # Approvals to distinct spenders commute with each other, each
        # orders before its spender's transferFrom, and the
        # transferFroms chain on the debited balance.
        graph, (chain,), (dag,) = window_dags(
            self.TOKEN,
            [(0, op("approve", spender, 5)) for spender in range(1, 6)]
            + [
                (spender, op("transferFrom", 0, 7, 1))
                for spender in range(1, 6)
            ],
        )
        found = depths(dag)
        assert max(found) == dag.critical_path
        waves: dict[int, list[int]] = {}
        for k, depth in enumerate(found):
            waves.setdefault(depth, []).append(chain[k])
        assert max(len(wave) for wave in waves.values()) == dag.width >= 2
        for wave in waves.values():
            for a in wave:
                for b in wave:
                    if a < b:
                        assert (a, b) not in graph.edges

    def test_foreign_edges_are_ignored(self):
        # Two interleaved components: each DAG holds its own edges only,
        # over positions in its own chain.
        graph, chains, dags = window_dags(
            self.TOKEN,
            [
                (0, op("transfer", 1, 2)),
                (3, op("transfer", 4, 1)),
                (0, op("transfer", 2, 1)),
                (4, op("transfer", 5, 1)),
            ],
        )
        assert chains == [[0, 2], [1, 3]]
        assert [dag.preds for dag in dags] == [((), (0,)), ((), (0,))]

    def test_window_dags_match_multi_op_components(self):
        token = ERC20TokenType(8, total_supply=80)
        classifier = OpClassifier(token)
        pool = Mempool()
        for pid, operation in [
            (0, op("transfer", 1, 2)),   # observes/adds bal 0
            (0, op("transfer", 2, 1)),   # conflicts with the first
            (3, op("transfer", 4, 1)),   # independent component
            (5, op("balanceOf", 6)),     # singleton
        ]:
            pool.submit(pid, operation)
        graph = ConflictGraph.build(classifier, pool.pop_window(8))
        chains = [c for c in graph.components() if len(c) > 1]
        dags = graph.component_dags()
        assert [dag.size for dag in dags] == [len(c) for c in chains]
        assert dags == [reference_dag(graph, chain) for chain in chains]


class TestReferenceFold:
    """Every ``plan.dags[k]`` is the brute-force fold of its chain's
    edges: positions, predecessors, bottom levels, critical path and
    width, on random windows of each workload mix."""

    @settings(max_examples=60, deadline=None)
    @given(
        mix=st.sampled_from(sorted(MIXES_WITH_CHAINS)),
        seed=st.integers(min_value=0, max_value=2**16),
        size=st.integers(min_value=1, max_value=64),
    )
    def test_every_plan_dag_is_the_reference_fold(self, mix, seed, size):
        token = ERC20TokenType(12, total_supply=240)
        items = TokenWorkloadGenerator(
            12, seed=seed, mix=MIXES_WITH_CHAINS[mix]
        ).generate(size)
        ops = [
            PendingOp(seq, item.pid, item.operation)
            for seq, item in enumerate(items)
        ]
        plan = plan_window(OpClassifier(token), ops)
        graph = ConflictGraph.build(OpClassifier(token), ops)
        assert len(plan.dags) == len(plan.chains)
        for chain, dag in zip(plan.chains, plan.dags):
            assert dag == reference_dag(graph, chain)


class TestDagPlanner:
    def _window(self, items, token):
        classifier = OpClassifier(token)
        pool = Mempool()
        for item in items:
            pool.submit(item.pid, item.operation)
        ops = pool.pop_window(len(items))
        graph = ConflictGraph.build(classifier, ops)
        chains = [c for c in graph.components() if len(c) > 1]
        singles = [c[0] for c in graph.components() if len(c) == 1]
        return classifier, ops, graph, chains, singles

    @staticmethod
    def _schedule(lanes, classifier, ops):
        """The window's placements, window-aligned, as the engine gets
        them: its plan's preds and priorities over window indices."""
        plan = plan_window(classifier, ops)
        return dag_list_schedule(
            range(len(ops)), plan.preds, plan.priorities, [0] * lanes
        )

    def test_start_order_is_a_linear_extension(self):
        token = ERC20TokenType(12, total_supply=240)
        items = TokenWorkloadGenerator(
            12, seed=3, mix=APPROVAL_HEAVY_MIX
        ).generate(60)
        classifier, ops, graph, chains, singles = self._window(items, token)
        placed = self._schedule(4, classifier, ops)
        assert len(placed) == len(ops)
        at = {o.seq: slot for o, slot in zip(ops, placed)}
        apply_order = sorted(ops, key=lambda t: (at[t.seq][0], t.seq))
        position = {t.seq: k for k, t in enumerate(apply_order)}
        for (a, b) in graph.edges:
            assert at[ops[a].seq][1] <= at[ops[b].seq][0]
            assert position[ops[a].seq] < position[ops[b].seq]

    def test_dag_makespan_beats_the_op_count_on_wide_components(self):
        # k approvals (to distinct spenders: mutually commuting) each
        # enabling one transferFrom (the transferFroms chain on the
        # debited balance): a lane-atomic chain would pay the component's
        # full op count; the DAG schedule runs the approvals lane-parallel
        # against the transferFrom chain.
        token = ERC20TokenType(8, total_supply=80)
        items = [
            WorkloadItem(0, op("approve", spender, 5))
            for spender in range(1, 6)
        ] + [
            WorkloadItem(spender, op("transferFrom", 0, 7, 1))
            for spender in range(1, 6)
        ]
        classifier, ops, graph, chains, singles = self._window(items, token)
        assert len(chains) == 1 and len(chains[0]) == len(items)
        placed = self._schedule(4, classifier, ops)
        assert max(finish for _, finish, _ in placed) < len(items)
        assert graph.component_dags()[0].width >= 2

    def test_pure_conflict_chain_gains_nothing(self):
        token = ERC20TokenType(4, total_supply=40)
        items = [WorkloadItem(0, op("transfer", 1, 1)) for _ in range(5)]
        classifier, ops, graph, chains, singles = self._window(items, token)
        placed = self._schedule(4, classifier, ops)
        # A total order stays a total order: back to back, in seq order.
        assert [start for start, _, _ in placed] == [0, 1, 2, 3, 4]

    def test_per_op_floors_hold_back_exactly_the_floored_ops(self):
        token = ERC20TokenType(8, total_supply=80)
        items = [WorkloadItem(i, op("balanceOf", i)) for i in range(4)]
        classifier, ops, graph, chains, singles = self._window(items, token)
        assert singles == [0, 1, 2, 3]
        placed = dag_list_schedule(
            range(4), [()] * 4, [1] * 4, [0, 0], floors=[0, 7, 0, 0]
        )
        starts = {o.seq: start for o, (start, _, _) in zip(ops, placed)}
        assert starts[1] == 7
        assert sorted(starts[seq] for seq in (0, 2, 3)) == [0, 0, 1]


class TestBackfill:
    """Insertion/backfill in :func:`dag_list_schedule`: the idle interval
    a floored task leaves behind is a gap later ready tasks may fill."""

    def test_singleton_backfills_a_floored_lanes_gap(self):
        lane_free = [0]
        out = dag_list_schedule(
            seqs=[0, 1],
            preds=[(), ()],
            priorities=[2, 1],
            lane_free=lane_free,
            floors=[5, 0],
        )
        # The high-priority floored task runs at its floor; the singleton
        # no longer queues behind it but fills the [0, 5) idle interval.
        assert out == [(5, 6, 0), (0, 1, 0)]
        assert lane_free == [6]
        assert all(isinstance(t, int) for s, f, _ in out for t in (s, f))

    def test_residual_gap_slivers_stay_fillable(self):
        out = dag_list_schedule(
            seqs=[0, 1, 2, 3],
            preds=[(), (), (), ()],
            priorities=[9, 1, 1, 1],
            lane_free=[0],
            floors=[5, 0, 0, 0],
        )
        # Each fill splits the gap in place; three singletons pack the
        # front of the [0, 5) interval back to back.
        assert out[0] == (5, 6, 0)
        assert [out[i][0] for i in (1, 2, 3)] == [0, 1, 2]

    def test_backfill_honors_precedence(self):
        out = dag_list_schedule(
            seqs=[0, 1, 2],
            preds=[(), (0,), ()],
            priorities=[3, 2, 1],
            lane_free=[0],
            floors=[5, 0, 0],
        )
        # Task 1 depends on the floored task, so the gap cannot hold it
        # (est = the predecessor's finish); only the free singleton fills.
        assert out[0] == (5, 6, 0)
        assert out[1] == (6, 7, 0)
        assert out[2] == (0, 1, 0)

    def test_no_floors_is_plain_list_scheduling(self):
        out = dag_list_schedule(
            seqs=[0, 1, 2, 3],
            preds=[(), (), (), ()],
            priorities=[1, 1, 1, 1],
            lane_free=[0, 0],
        )
        # Without floors no gaps ever open: contiguous packing, lane
        # choice deterministic by (start, free time, lane id).
        assert out == [(0, 1, 0), (0, 1, 1), (1, 2, 0), (1, 2, 1)]


def _lane_scan_schedule(
    seqs: list[int],
    preds: list[tuple[int, ...]],
    priorities: list[int],
    lane_free: list[float],
    floors: list[float] | None = None,
) -> list[tuple[float, float, int]]:
    """The ready-heap list scheduler, scanning every lane per task — the
    reference for :func:`dag_list_schedule`'s static order (the
    ``engine/shard.py`` docstring): on priorities that rank every
    predecessor strictly above its successors, the property below holds
    the one sorted pass to this heap, placement for placement."""
    n = len(seqs)
    succs: list[list[int]] = [[] for _ in range(n)]
    missing = [0] * n
    for i, below in enumerate(preds):
        missing[i] = len(below)
        for p in below:
            succs[p].append(i)
    est = list(floors) if floors is not None else [0.0] * n
    ready = [(-priorities[i], seqs[i], i) for i in range(n) if not missing[i]]
    heapq.heapify(ready)
    out: list[tuple[float, float, int] | None] = [None] * n
    #: Per lane: idle ``[start, end)`` intervals behind its free time,
    #: ascending (this call's own making — a persistent caller's lanes
    #: start gapless, which keeps incremental scheduling conservative).
    gaps: list[list[tuple[float, float]]] = [[] for _ in lane_free]
    scheduled = 0
    while ready:
        _, _, i = heapq.heappop(ready)
        best: tuple | None = None
        for lane_id in range(len(lane_free)):
            placed_in: int | None = None
            start = max(lane_free[lane_id], est[i])
            # Gaps are ascending, so the first fitting gap is this lane's
            # earliest feasible start — and any fitting gap beats the tail.
            for gap_index, (gap_start, gap_end) in enumerate(gaps[lane_id]):
                slot = max(gap_start, est[i])
                if slot + 1 <= gap_end:
                    start, placed_in = slot, gap_index
                    break
            key = (start, lane_free[lane_id], lane_id)
            if best is None or key < best[0]:
                best = (key, lane_id, placed_in)
        assert best is not None
        (start, _, lane), _, gap_index = best
        finish = start + 1
        if gap_index is not None:
            gap_start, gap_end = gaps[lane].pop(gap_index)
            # Residual idle slivers stay fillable (sub-intervals of the
            # old gap, so the list stays ascending in place).
            if finish < gap_end:
                gaps[lane].insert(gap_index, (finish, gap_end))
            if gap_start < start:
                gaps[lane].insert(gap_index, (gap_start, start))
        else:
            if start > lane_free[lane]:
                gaps[lane].append((lane_free[lane], start))
            lane_free[lane] = finish
        out[i] = (start, finish, lane)
        scheduled += 1
        for s in succs[i]:
            if finish > est[s]:
                est[s] = finish
            missing[s] -= 1
            if not missing[s]:
                heapq.heappush(ready, (-priorities[s], seqs[s], s))
    if scheduled != n:
        raise EngineError("dependency cycle in DAG schedule")
    return out  # type: ignore[return-value]


@st.composite
def list_schedule_inputs(draw):
    n = draw(st.integers(0, 24))
    # Edges only from lower to higher index: acyclic by construction.
    preds = [
        tuple(
            sorted(
                draw(st.sets(st.integers(0, i - 1), max_size=3)) if i else ()
            )
        )
        for i in range(n)
    ]
    # Half-integer times tie often (lane tails against each other, floors
    # against gap ends); arbitrary floats almost never do.
    times = st.one_of(
        st.integers(0, 12),
        st.integers(0, 24).map(lambda k: k / 2),
        st.floats(0, 20, allow_nan=False, allow_infinity=False),
    )
    # Bottom levels plus random slack: every predecessor ranks strictly
    # above its successors, the scheduler's priority contract.
    slack = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
    priorities = [1 + extra for extra in slack]
    for i in range(n - 1, -1, -1):
        for p in preds[i]:
            priorities[p] = max(priorities[p], priorities[i] + 1 + slack[p])
    return dict(
        seqs=draw(st.permutations(range(n))),
        preds=preds,
        priorities=priorities,
        lane_free=draw(st.lists(times, min_size=1, max_size=6)),
        floors=draw(
            st.one_of(st.none(), st.lists(times, min_size=n, max_size=n))
        ),
    )


@st.composite
def gapped_schedule_inputs(draw):
    """Independent tasks popped in phases (priority descending, then seq):
    floored tasks opening gaps; tasks floored past every gap end (the
    horizon skip); unfloored fillers that close the gaps (the horizon
    resets once the last one closes); then floored tasks opening new gaps,
    and tasks of every floor around them.  Integer floors and the unit
    cost keep every gap closable."""
    lanes = draw(st.integers(1, 3))
    phases = [
        draw(st.lists(st.integers(1, 8), min_size=1, max_size=lanes + 2)),
        sorted(draw(st.lists(st.integers(9, 12), max_size=3))),
        [0] * draw(st.integers(0, 40)),
        draw(st.lists(st.integers(60, 68), min_size=1, max_size=lanes + 1)),
        draw(st.lists(st.integers(50, 70), max_size=12)),
    ]
    floors = [floor for phase in phases for floor in phase]
    n = len(floors)
    return dict(
        seqs=list(range(n)),
        preds=[()] * n,
        priorities=[
            len(phases) - k for k, phase in enumerate(phases) for _ in phase
        ],
        lane_free=draw(
            st.lists(st.integers(0, 2), min_size=lanes, max_size=lanes)
        ),
        floors=floors,
    )


class TestListScheduleProperties:
    """:func:`dag_list_schedule` places every op in the system — the
    engine's rolling timeline and the cluster node's units."""

    @settings(max_examples=200, deadline=None)
    @given(inputs=list_schedule_inputs())
    def test_placements_are_feasible_and_deterministic(self, inputs):
        carried_in = list(inputs["lane_free"])
        lane_free = list(carried_in)
        out = dag_list_schedule(**{**inputs, "lane_free": lane_free})
        again = list(carried_in)
        assert dag_list_schedule(**{**inputs, "lane_free": again}) == out
        assert again == lane_free

        n = len(inputs["seqs"])
        floors = inputs["floors"] or [0.0] * n
        assert len(out) == n
        for i, (start, finish, lane) in enumerate(out):
            assert finish == start + 1
            assert start >= floors[i]
            assert start >= carried_in[lane]
            for p in inputs["preds"][i]:
                assert start >= out[p][1]
        for lane in range(len(carried_in)):
            timeline = sorted(
                (start, finish) for start, finish, on in out if on == lane
            )
            for (_, before), (after, _) in zip(timeline, timeline[1:]):
                assert before <= after  # no two tasks overlap on a lane
            # The carried timeline only ever moves forward, to the last
            # finish on the lane.
            assert lane_free[lane] >= carried_in[lane]
            assert lane_free[lane] == max(
                [carried_in[lane]] + [finish for _, finish in timeline]
            )

    @settings(max_examples=800, deadline=None)
    @given(
        inputs=st.one_of(list_schedule_inputs(), gapped_schedule_inputs())
    )
    @example(
        # One lane: a gap opens at 3; the task floored at 4 skips the walk;
        # three fillers close the gap (the horizon resets); a gap opens at
        # 8, and a task floored at 7 fits it exactly (``est + 1 ==
        # horizon`` must still walk).
        inputs=dict(
            seqs=list(range(8)),
            preds=[()] * 8,
            priorities=[9, 8, 7, 6, 5, 4, 3, 2],
            lane_free=[0],
            floors=[3, 4, 0, 0, 0, 8, 7, 0],
        )
    )
    @example(
        # Two lanes: gaps end at 10, then at 5.  The last task fits only
        # the older gap, which a horizon taken from the last opened gap
        # (5) instead of the maximum would skip.
        inputs=dict(
            seqs=[0, 1, 2, 3],
            preds=[()] * 4,
            priorities=[4, 3, 2, 1],
            lane_free=[0, 0],
            floors=[10, 5, 6, 6],
        )
    )
    @example(
        # Task 2's predecessors finish at 2 (task 0, an int) and 2.0 (task
        # 1, a float, placed first by priority).  Folded in placement
        # order, task 2 starts at 2.0 as under the heap; folded in
        # position order it would start at the int 2.
        inputs=dict(
            seqs=[0, 1, 2],
            preds=[(), (), (0, 1)],
            priorities=[2, 3, 1],
            lane_free=[0, 0, 0],
            floors=[1, 1.0, 0],
        )
    )
    def test_lane_choice_equals_the_scan_over_all_lanes(self, inputs):
        """The scheduler against its own past: same ``(start, finish,
        lane)`` per task and same carried-out ``lane_free`` — compared by
        ``repr``, so an int that became a float (a committed trace would
        show it) counts as a difference.  The gapped inputs make the gap
        walk's horizon skip fire, reset and re-arm."""
        lane_free = list(inputs["lane_free"])
        reference_free = list(lane_free)
        out = dag_list_schedule(**{**inputs, "lane_free": lane_free})
        reference = _lane_scan_schedule(
            **{**inputs, "lane_free": reference_free}
        )
        assert repr(out) == repr(reference)
        assert repr(lane_free) == repr(reference_free)

    @settings(max_examples=400, deadline=None)
    @given(
        inputs=st.one_of(list_schedule_inputs(), gapped_schedule_inputs())
    )
    def test_lane_prev_is_the_finish_before_each_task_on_its_lane(
        self, inputs
    ):
        """``lane_prev`` against the placements: per lane, in start
        order, the finish of the task before (the carried-in free time
        for the first); asking for it moves no placement.  Compared by
        value: a sliver filled exactly to a task's start records that
        start, equal to the filler's finish but not always of its type."""
        carried = list(inputs["lane_free"])
        n = len(inputs["seqs"])
        lane_prev: list = [None] * n
        out = dag_list_schedule(
            **{**inputs, "lane_free": list(carried), "lane_prev": lane_prev}
        )
        assert out == dag_list_schedule(**{**inputs, "lane_free": carried[:]})
        expected: list = [None] * n
        for lane, free in enumerate(carried):
            on_lane = sorted(
                (start, i) for i, (start, _, on) in enumerate(out) if on == lane
            )
            for _, i in on_lane:
                expected[i] = free
                free = out[i][1]
        assert lane_prev == expected

    def test_a_dependency_cycle_is_an_error(self):
        with pytest.raises(EngineError):
            dag_list_schedule(
                seqs=[0, 1],
                preds=[(1,), (0,)],
                priorities=[1, 1],
                lane_free=[0],
            )

    @pytest.mark.parametrize("priorities", [[1, 1], [1, 2], [2, 2]])
    def test_priorities_that_do_not_rank_a_predecessor_first_raise(
        self, priorities
    ):
        """The one sorted pass needs every predecessor ranked strictly
        above its successors; a tie or an inversion is refused, not
        scheduled in a different order than the heap would."""
        lane_free = [0, 0]
        with pytest.raises(EngineError, match="predecessor 0"):
            dag_list_schedule(
                seqs=[1, 0],
                preds=[(), (0,)],
                priorities=priorities,
                lane_free=lane_free,
            )


def lane_times():
    """A lane tail or a floor: an int, a half-integer or any float."""
    return st.one_of(
        st.integers(0, 12),
        st.integers(0, 24).map(lambda halves: halves / 2),
        st.floats(0, 12, allow_nan=False),
    )


class TestLaneFill:
    """:func:`lane_fill` is the list scheduler on edge-free ops that share
    one floor (``engine/shard.py``'s docstring) — the node's residual
    units take it instead of :func:`dag_list_schedule`."""

    @settings(max_examples=600, deadline=None)
    @given(
        n=st.integers(1, 24),
        lane_free=st.lists(lane_times(), min_size=1, max_size=6),
        ready=lane_times(),
    )
    # An int floor equal to a float tail: the start is the tail (a float),
    # as ``max`` would not guarantee.
    @example(n=2, lane_free=[1.0, 3], ready=1)
    # Every lane busy past the floor, ties on the least free time.
    @example(n=5, lane_free=[4, 2.5, 2.5, 7.25], ready=0.5)
    def test_it_places_as_the_list_scheduler(self, n, lane_free, ready):
        """Same ``(start, finish, lane)`` per op and the same carried-out
        ``lane_free``, compared by ``repr`` (an int that became a float
        counts as a difference).  Starts never decrease with position: a
        property of the fill, not a precondition of apply, which ignores
        the placement."""
        filled_free, listed_free = list(lane_free), list(lane_free)
        filled = lane_fill(n, filled_free, ready)
        listed = dag_list_schedule(
            range(n),
            [()] * n,
            [1] * n,
            listed_free,
            floors=[ready] * n,
        )
        assert repr(filled) == repr(listed)
        assert repr(filled_free) == repr(listed_free)
        starts = [start for start, _, _ in filled]
        assert starts == sorted(starts)


def test_integer_inputs_keep_integer_times():
    """Every op costs one unit, so integer lane tails and floors give
    integer placements (a float anywhere would show in a trace)."""
    placed = dag_list_schedule(
        range(4), [(), (0,), (), ()], [2, 1, 1, 1], [0, 3], floors=[1, 0, 5, 0]
    )
    filled = lane_fill(3, [2, 0], 1)
    for start, finish, _ in placed + filled:
        assert type(start) is int and finish == start + 1


class TestSerialEquivalence:
    @pytest.mark.parametrize("mix_name", sorted(MIXES))
    def test_engine_matches_spec(self, mix_name):
        token = ERC20TokenType(12, total_supply=240)
        items = TokenWorkloadGenerator(
            12, seed=41, mix=MIXES[mix_name]
        ).generate(300)
        ref_state, ref_responses = serial_reference(token, items)
        engine = PipelinedExecutor(
            ERC20TokenType(12, total_supply=240),
            EngineConfig(num_lanes=4, window=32),
        )
        state, responses, stats = engine.run_workload(items)
        assert state == ref_state
        assert responses == ref_responses
        assert stats.dag_speedup >= 1.0

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        depth=st.integers(1, 6),
        lanes=st.sampled_from([1, 2, 4, 8]),
        window=st.integers(4, 48),
    )
    def test_pipelined_hypothesis_sweep(self, seed, depth, lanes, window):
        token = ERC20TokenType(8, total_supply=80)
        items = TokenWorkloadGenerator(
            8, seed=seed, mix=SPENDER_HEAVY_MIX, hotspot_fraction=0.4,
            hotspot_accounts=2,
        ).generate(100)
        ref_state, ref_responses = serial_reference(token, items)
        engine = PipelinedExecutor(
            ERC20TokenType(8, total_supply=80),
            EngineConfig(pipeline_depth=depth, num_lanes=lanes, window=window),
        )
        state, responses, _ = engine.run_workload(items)
        assert state == ref_state
        assert responses == ref_responses

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 10_000), depth=st.integers(1, 5))
    def test_erc721_races(self, seed, depth):
        rng = random.Random(seed)
        factory = lambda: ERC721TokenType(  # noqa: E731
            4, initial_owners=[0, 1, 2, 3, 0, 1]
        )
        names = ["transferFrom", "approve", "ownerOf", "setApprovalForAll"]
        items = []
        for _ in range(60):
            name = rng.choice(names)
            pid = rng.randrange(4)
            if name == "transferFrom":
                operation = op(
                    name, rng.randrange(4), rng.randrange(4), rng.randrange(6)
                )
            elif name == "approve":
                operation = op(name, rng.randrange(4), rng.randrange(6))
            elif name == "ownerOf":
                operation = op(name, rng.randrange(6))
            else:
                operation = op(name, rng.randrange(4), rng.random() < 0.5)
            items.append(WorkloadItem(pid, operation))
        ref_state, ref_responses = serial_reference(factory(), items)
        engine = PipelinedExecutor(
            factory(),
            EngineConfig(pipeline_depth=depth, num_lanes=4, window=16),
        )
        state, responses, _ = engine.run_workload(items)
        assert state == ref_state
        assert responses == ref_responses

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 10_000), lanes=st.sampled_from([1, 2, 4]))
    def test_asset_transfer_shared_accounts(self, seed, lanes):
        rng = random.Random(seed)
        owner_map = [{0, 1}, {1}, {2}, {3}, {0, 3}]
        factory = lambda: AssetTransferType(  # noqa: E731
            [20] * 5, owner_map=owner_map, num_processes=4
        )
        items = [
            WorkloadItem(
                rng.randrange(4),
                op(
                    "transfer",
                    rng.randrange(5),
                    rng.randrange(5),
                    rng.randint(0, 6),
                ),
            )
            for _ in range(80)
        ]
        ref_state, ref_responses = serial_reference(factory(), items)
        engine = PipelinedExecutor(
            factory(), EngineConfig(num_lanes=lanes, window=16)
        )
        state, responses, _ = engine.run_workload(items)
        assert state == ref_state
        assert responses == ref_responses


class TestDagStats:
    def test_contended_rounds_have_width_to_exploit(self):
        items = TokenWorkloadGenerator(
            16, seed=7, mix=APPROVAL_HEAVY_MIX
        ).generate(400)
        dag = PipelinedExecutor(
            ERC20TokenType(16, total_supply=1600),
            EngineConfig(num_lanes=4, window=64),
        ).run_workload(items)[2]
        assert dag.dag_speedup > 1.0
        assert dag.max_dag_width >= 2
        assert dag.max_dag_critical_path >= 1
        assert dag.dag_chain_ops > dag.dag_critical_ops

    def test_dag_stats_survive_the_pipeline(self):
        items = TokenWorkloadGenerator(
            16, seed=11, mix=APPROVAL_HEAVY_MIX
        ).generate(300)
        _, _, stats = PipelinedExecutor(
            ERC20TokenType(16, total_supply=1600),
            EngineConfig(pipeline_depth=3, num_lanes=4, window=64),
        ).run_workload(items)
        assert stats.max_dag_width >= 2
        assert stats.dag_speedup > 1.0
