"""The engine executor: commute in parallel, order only conflicts, no
global barrier between windows.

Execution proceeds in rounds.  Each round pops a window from the mempool,
builds the conflict graph under *static* (state-independent)
classification — so reordering is sound at every intermediate state — and
schedules its connected components:

* **singletons** — operations commuting with the entire window; they run
  in any lane (the engine's fast path).
* **chains** — multi-operation components.  Operations in different
  components statically commute and run in parallel; within a component
  only the non-commuting pairs need an order, so the component's
  operations schedule individually along its precedence DAG
  (:class:`~repro.engine.conflict_graph.ComponentDAG`).
* **escalated** — chain members on a cross-process CONFLICT edge with
  *contention* (two enabled spenders debiting one account, approve racing
  transferFrom on an allowance cell, one NFT): the only traffic that pays
  for an ordering lane.  Each contended component goes through the tiered
  sync layer (:mod:`repro.sync`): a component whose spender bound has size
  ``k ≤ team_threshold`` is ordered by a k-participant *team lane*
  (``O(k²)`` messages, concurrent with every other team), the rest take
  the global lane — the pool's top lane, every replica on its team.
  With ``team_threshold = 0`` every contended component takes the global
  lane.

Conflict-free windows pay no messages at all — the paper's
consensus-number-1 regime executes entirely on the fast path.

There is no *global round barrier*: window N+1 does not wait until every
lane has finished window N, because one slow chain or one consensus round
would stall traffic that provably commutes with it.  The executor keeps
the weakest dependency the serial-equivalence contract needs:

**Frontier rule.**  An operation of window N+1 may start executing as
soon as every window-N (or earlier) operation *touching its footprint*
has finished.  Operations with disjoint footprints statically commute
(:func:`repro.objects.footprint.static_pair_kind`), so running them in
overlapped windows reorders only commuting pairs; operations with
overlapping footprints are forced to start after their predecessors
finish, which preserves submission order between them.  Unknown
footprints degrade soundly: such an op waits for *everything* earlier
and gates everything later.

Mechanically the executor keeps a per-location **frontier** (the finish
of the last op that read, wrote or set each location) plus per-lane free
times.  Every op is its own timeline *unit* with a floor ``max(classify
time, frontier of its footprint, its sync lane's completion)``, and
:func:`~repro.engine.shard.dag_list_schedule` places each window's ops on
the rolling lane timeline in ``engine/shard.py``'s static order
(critical-path first along the component DAGs), backfilling idle gaps
behind floored ops.  A window is planned once, by
:func:`~repro.engine.rounds.plan_window`, and everything per op lives in
lists aligned with the window (the scheduler's tasks are its indices), so
an op that commutes with its whole window (the paper's consensus-number-1
case) costs one footprint, one frontier probe per cell it reads, one
``min`` over the lane tails and one step of one index-order walk: no edge,
no union-find entry, no DAG, no record unless traced.
Window N+1 is classified (conflict graph, tiered synchronization) as soon
as the pipeline has a free slot — i.e. while window N's lanes are still
executing — and the shared synchronization lanes serialize across windows
(they are one physical resource) but overlap with lane execution, which
is where most of the win on contended mixes comes from.

``pipeline_depth`` bounds how many windows may be in flight at once.
``pipeline_depth=1`` is the same loop with one window in flight: window
N+1 classifies when window N completes, but its lanes still roll on from
wherever window N left them.

State is applied once, when a window is planned: :meth:`step` folds the
window into the engine's one batch in submission order, right after its
sync phase, and :meth:`PipelinedExecutor.run` publishes the state and
responses at commit.  Submission order is a linear extension of the
schedule (``engine/shard.py``'s module docstring argues it), so the
placement only sizes virtual time.

Serial-equivalence contract: the final state *and every response* are
identical to executing the whole workload sequentially in submission
order, for any lane count and depth.  ``tests/integration/
test_serial_equivalence.py`` and the property suites machine-check this
against the sequential specification.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Iterable, NamedTuple

from repro.config import EngineConfig
from repro.engine.classifier import OpClassifier
from repro.engine.mempool import Mempool, PendingOp
from repro.engine.rounds import WallAdapters, WindowPlan, plan_window
from repro.engine.shard import dag_list_schedule
from repro.engine.stats import EngineStats, WaveStats
from repro.objects.footprint import OpFootprint
from repro.spec.object_type import SequentialObjectType
from repro.sync.escalation import SyncRoundResult, TieredEscalator
from repro.workloads.generators import WorkloadItem

if TYPE_CHECKING:  # pragma: no cover
    from repro.obs.trace import TraceRecorder


class ScheduledUnit(NamedTuple):
    """One execution unit (a single operation) on the timeline — an
    immutable record, built only for a traced window."""

    start: float
    finish: float
    lane: int
    op: PendingOp
    #: The op's static footprint (the window graph's object; ``None`` =
    #: unknown) — what the cross-window frontier records at ``finish``.
    footprint: OpFootprint | None
    contended: bool
    #: Stall attributed to this unit: time spent waiting on its sync lane
    #: and on cross-round frontier dependencies beyond what admission and
    #: lane availability already imposed.
    sync_stall: float
    frontier_stall: float


def scheduled_units(plan: WindowPlan, op_sync, placed, stalls) -> list:
    """A window's placement and stalls, as :meth:`PipelinedExecutor.
    _place_window_dag` returns them, as units in ``(start, window index)``
    order, the tracer's; an op not in ``stalls`` waited for nothing."""
    ops, footprints = plan.ops, plan.footprints
    return [
        ScheduledUnit(
            *placed[i],
            ops[i],
            footprints[i],
            i in op_sync,
            *stalls.get(i, (0.0, 0.0)),
        )
        for _, i in sorted([(p[0], i) for i, p in enumerate(placed)])
    ]


class PipelinedExecutor:
    """Commutativity-aware pipelined executor for one token object.

    Configured by one :class:`~repro.config.EngineConfig`; the tracer
    and ``replicas``, the Tier ∞ lane's size, are keyword arguments.
    ``run()`` / ``run_workload()`` are the intended API; ``step()``
    applies one window to the engine's batch and schedules it onto the
    pipeline timeline, and state/responses become readable at commit
    (the end of ``run()``) — the engine's virtual clock then reads the
    pipelined *makespan*, not the sum of per-round times.
    """

    def __init__(
        self,
        object_type: SequentialObjectType,
        config: EngineConfig | None = None,
        *,
        replicas: int = 4,
        tracer: TraceRecorder | None = None,
    ) -> None:
        self.config = cfg = config if config is not None else EngineConfig()
        self.object_type = object_type
        self.classifier = OpClassifier(object_type)
        #: The tiered sync layer; ``replicas`` sizes its Tier ∞ fallback
        #: (``team_threshold=0`` = always-global escalation).
        self.sync = TieredEscalator(
            replicas,
            team_threshold=cfg.team_threshold,
            seed=cfg.seed,
        )
        self.lifecycle = self.scheduler = WallAdapters(
            self.classifier, self.sync, object_type
        )
        self.mempool = Mempool(capacity=cfg.mempool_capacity)
        self.state = object_type.initial_state()
        self.responses: dict[int, Any] = {}
        #: The committed makespan; moves at commit (:meth:`run`), not per
        #: round — :meth:`stream_now` is the running admission time.
        self.clock = 0.0
        self.stats = EngineStats(
            num_lanes=cfg.num_lanes,
            window=cfg.window,
            pipeline_depth=cfg.pipeline_depth,
        )
        #: Optional observability hook (:mod:`repro.obs`).  ``None`` (the
        #: default) records nothing and changes nothing — stats, state
        #: and responses are the untraced run's.
        self.tracer = tracer
        if tracer is not None:
            self.sync.pool.tracer = tracer
        #: Earliest free time per lane (the pipeline never resets these —
        #: lanes flow from one window into the next).
        self._lane_free = [0.0] * cfg.num_lanes
        #: Per-location frontier, split by access kind so that the
        #: dependency test is *exactly* the static commutativity test
        #: (:func:`repro.objects.footprint.static_pair_kind`): reads gate
        #: on earlier writes, writes gate on earlier reads, absolute
        #: writes gate on everything — but read-read and delta-delta
        #: (credit-credit) sharing stays dependency-free, which is what
        #: lets disjoint-owner traffic run ahead across windows.  Reads
        #: gate on ``_frontier_wrote`` alone: any write, delta or absolute.
        self._frontier_obs: dict[tuple, float] = {}
        self._frontier_wrote: dict[tuple, float] = {}
        self._frontier_set: dict[tuple, float] = {}
        #: Finish high-water marks: of unknown-footprint units (which gate
        #: everything after them) and of all units (which gate unknown ones).
        self._frontier_top = 0.0
        self._frontier_max = 0.0
        #: What :meth:`_place_window_dag`'s walk leaves for :meth:`step`.
        self._placed: tuple = ()
        #: Completion time of each drained window, in window order.
        self._completions: list[float] = []
        self._classify_clock = 0.0
        #: The shared sync lanes are one physical resource: their phases
        #: serialize across windows (but overlap lane execution).
        self._sync_free = 0.0
        #: The one fold of every drained op in submission order, for the
        #: engine's life: :meth:`step` advances it, team sizing reads its
        #: snapshot (the window's prefix state), :meth:`run` publishes it.
        self._batch = object_type.batch(self.state)
        #: ``(seq, response)`` of ops applied but not yet committed.
        self._uncommitted: list[tuple[int, Any]] = []
        #: What a window's apply raised: the batch has no rollback, so the
        #: ops before it stay applied and every later step re-raises it.
        self._failed: Exception | None = None

    # -- intake ----------------------------------------------------------

    def submit(
        self, pid: int, operation, arrival: float | None = None
    ) -> PendingOp:
        """Admit one operation.  ``arrival`` back-dates the traced
        ``submit`` lifecycle stage to the op's open-loop arrival time
        (it must not exceed the current admission time,
        :meth:`stream_now`), so traced latency reads commit − arrival;
        the default ``None`` stamps the admission time itself."""
        pending = self.mempool.submit(pid, operation)
        if self.tracer is not None:
            self.tracer.op_submit(
                pending.seq, self.stream_now() if arrival is None else arrival
            )
        return pending

    def run_workload(
        self, items: Iterable[WorkloadItem]
    ) -> tuple[Any, list[Any], EngineStats]:
        """Feed a workload, drain it, and return
        ``(final_state, responses, stats)`` — responses aligned with
        ``items`` (prior workloads on a reused engine are excluded).

        A bounded mempool paces the intake instead of rejecting: when the
        pool is full, rounds are scheduled until there is room again, so
        a capacity-limited engine still processes workloads of any
        length.  Direct ``submit`` against a full pool keeps its typed
        rejection.
        """
        pending = []
        submit = self.submit if self.tracer is not None else self.mempool.submit
        for item in items:
            if self.mempool.capacity is not None:
                while len(self.mempool) >= self.mempool.capacity:
                    self.step()
            pending.append(submit(item.pid, item.operation))
        self.run()
        return (
            self.state,
            [self.responses[p.seq] for p in pending],
            self.stats,
        )

    def responses_in_order(self) -> list[Any]:
        """Responses of all executed operations, in submission order."""
        return [self.responses[seq] for seq in sorted(self.responses)]

    # -- open-loop harness -----------------------------------------------

    def stream_now(self) -> float:
        """The next window's classification instant: the monotonic
        classification clock, held back by the depth gate (window
        ``i`` classifies no earlier than window ``i − depth``
        completes).  The open-loop driver
        (:class:`repro.workloads.arrivals.StreamDriver`) releases the
        arrivals due by this time — they can still make the next
        window."""
        gate = 0.0
        index = self.stats.waves
        depth = self.config.pipeline_depth
        if index >= depth:
            gate = self._completions[index - depth]
        return max(self._classify_clock, gate)

    def stream_advance(self, ts: float) -> None:
        """Advance an idle pipeline's classification clock to ``ts``
        (never backward) — the quiet gap until the next arrival."""
        self._classify_clock = max(self._classify_clock, ts)

    # -- scheduling ------------------------------------------------------

    def step(self) -> WaveStats | None:
        """Schedule one window onto the pipeline; ``None`` when drained.

        The window is drained, classified, and synchronized immediately
        (subject only to the depth gate), applied to the batch in
        submission order, and its units are placed on the lane timeline
        under the frontier rule; its responses wait for :meth:`run`'s
        commit.  An invalid op raises here, with the committed state and
        responses untouched; the batch keeps the ops applied before it,
        so from then on every ``step`` / ``run`` re-raises and the engine
        must be discarded.
        """
        if self._failed is not None:
            raise self._failed
        self.stats.rejected_ops = self.mempool.rejected
        index = self.stats.waves
        ops = self.mempool.pop_window(self.config.window)
        if not ops:
            return None

        # Depth gate: at most ``pipeline_depth`` windows in flight.  The
        # classification clock is monotonic — windows classify in order.
        t_classify = self._classify_clock = self.stream_now()
        # Windows still executing at ``t_classify``.  Completions are not
        # monotone (a later window may finish first), but the clock is,
        # and it has passed ``_completions[index - depth]`` and — by the
        # same gate one step earlier — every completion before that: only
        # the last ``pipeline_depth - 1`` entries can still be running.
        recent = max(0, index - self.config.pipeline_depth + 1)
        inflight = 1 + sum(
            1 for done in self._completions[recent:] if done > t_classify
        )

        plan = plan_window(self.classifier, ops)
        sync_start = max(t_classify, self._sync_free)
        # Synchronize: contended groups through the tiered sync layer, teams
        # sized at the live batch (it holds the window's prefix state).
        escalation = SyncRoundResult()
        if plan.contended_groups:
            state = self._batch if self.sync.team_threshold else None
            escalation = self.sync.order_round(plan, state, self.object_type)
        if escalation.virtual_time > 0:
            self._sync_free = sync_start + escalation.virtual_time
        # Whole before it is buffered, so no response of a window that
        # raises reaches ``_uncommitted``.
        apply = self._batch.apply
        try:
            responses = [(op.seq, apply(op.pid, op.operation)) for op in ops]
        except Exception as exc:
            self._failed = exc
            raise
        self._uncommitted += responses

        # Sync completion per contended window index: a component's
        # contended members may not start before their lane committed the
        # order.
        op_sync: dict[int, float] = {}
        for group, component in zip(
            plan.contended_groups, escalation.components
        ):
            done = sync_start + component.completed
            for i in group:
                op_sync[i] = done

        placed, stalls = self._place_window_dag(plan, t_classify, op_sync)
        stall, stall_contended, completed, lanes_used = self._placed
        overlap = 0.0
        if self._completions:
            overlap = max(0.0, self._completions[-1] - min(placed)[0])
        self._completions.append(completed)

        escalated = len(plan.escalated_idx)
        paths = [dag.critical_path for dag in plan.dags]
        critical_path = max(paths, default=0)
        round_stats = WaveStats(
            index=index,
            window=len(ops),
            wave_ops=len(plan.singletons),
            barrier_ops=plan.chained_ops - escalated,
            escalated_ops=escalated,
            lanes_used=lanes_used,
            critical_path=critical_path or 1,
            virtual_time=completed - t_classify,
            stall_time=stall,
            stall_time_contended=stall_contended,
            overlap_time=overlap,
            inflight=inflight,
            completed_at=completed,
            dag_critical_path=critical_path,
            dag_width=max((dag.width for dag in plan.dags), default=0),
            dag_chain_ops=plan.chained_ops,
            dag_critical_ops=sum(paths),
        )
        if self.tracer is not None:
            scheduled = scheduled_units(plan, op_sync, placed, stalls)
            self._trace_pipelined_round(
                plan, index, escalation, scheduled, t_classify, sync_start
            )
        self.stats.record_round(round_stats, escalation)
        return round_stats

    def _trace_pipelined_round(
        self,
        plan: WindowPlan,
        index: int,
        escalation: SyncRoundResult,
        scheduled: list[ScheduledUnit],
        t_classify: float,
        sync_start: float,
    ) -> None:
        """Record one placed window.  Unit starts compose exactly as
        ``start = base + sync_stall + frontier_stall`` (the placement
        invariant), so the stalls ride on each unit's first op in
        backward-walk order and the attribution report partitions the
        pipelined makespan without slack."""
        tracer = self.tracer
        assert tracer is not None
        tracer.instant(
            "engine",
            f"round {index} classified",
            t_classify,
            args={"window": len(plan.ops)},
        )
        for op in plan.ops:
            tracer.op_stage(op.seq, "classify", t_classify)
        # The sync phase: one informational span per contended group on
        # its lane's track, and each member's ``sync`` stage at the
        # group's commit time.
        for group, component in zip(
            plan.contended_groups, escalation.components
        ):
            if component.team is None:
                track = "sync.global"
            else:
                members = "-".join(str(p) for p in sorted(component.team))
                track = f"sync.team {members}"
            done = sync_start + component.completed
            tracer.span(
                track,
                f"order r{index}",
                "sync_wait",
                sync_start,
                done,
                chain=False,
                args={"ops": len(group), "round": index},
            )
            for i in group:
                tracer.op_stage(plan.ops[i].seq, "sync", done)
        for unit in scheduled:
            stalls = []
            if unit.frontier_stall > 0:
                stalls.append(("frontier_stall", unit.frontier_stall))
            if unit.sync_stall > 0:
                stalls.append(("sync_wait", unit.sync_stall))
            op = unit.op
            tracer.span(
                f"lane{unit.lane}",
                f"op {op.seq}",
                "execute",
                unit.start,
                unit.finish,
                stalls=tuple(stalls),
                args={"seq": op.seq, "pid": op.pid, "round": index},
            )
            tracer.op_stage(op.seq, "schedule", unit.start)
            tracer.op_stage(op.seq, "execute", unit.start)
            tracer.op_commit(op.seq, unit.finish)
        tracer.instant(
            "engine",
            f"round {index} placed",
            max(unit.finish for unit in scheduled),
        )

    # -- window placement ------------------------------------------------

    def _place_window_dag(
        self,
        plan: WindowPlan,
        t_classify: float,
        op_sync: dict[int, float],
    ) -> tuple[list[tuple[float, float, int]], dict[int, tuple]]:
        """Op-granular placement through the shared list scheduler.

        Every operation is its own timeline unit.  Intra-window order
        comes from the component DAGs (predecessor finish times); the
        cross-window order from the per-*op* frontier and a contended
        op's sync lane, which — with the classification instant — form
        the op's *floor*.  The frontier is not read inside a window, so
        :func:`~repro.engine.shard.dag_list_schedule` places the window
        onto the rolling lane timeline by floors alone (idle gaps behind
        floored ops backfilled), its tasks the window indices.  ``op_sync``
        maps a contended op's window index to its sync lane's completion.
        The ops floored past admission are checked for a stall, and one
        walk in index order moves the frontier.  Returns the window-aligned
        ``(start, finish, lane)`` and each stalled op's ``(sync_stall,
        frontier_stall)``, by ``(start, window index)``; totals: ``_placed``.
        """
        # An op's floor: admission, then the cross-window frontier —
        # exactly the static commutativity test per access kind: reads
        # gate on earlier writes, deltas on earlier reads and absolute
        # writes (delta-delta sharing is free), absolute writes on every
        # earlier access; an unknown footprint waits for everything.  Each
        # test keeps the first of equal values, as ``max`` does.
        footprints = plan.footprints
        obs, wrote = self._frontier_obs, self._frontier_wrote
        sets = self._frontier_set
        top, everything = self._frontier_top, self._frontier_max
        floors = []
        for footprint in footprints:
            ready = everything if footprint is None else top
            floor = ready if ready > t_classify else t_classify
            if footprint is not None:
                for loc in footprint.observes:
                    if (done := wrote.get(loc, 0.0)) > floor:
                        floor = done
                for loc in footprint.adds:
                    if (done := obs.get(loc, 0.0)) > floor:
                        floor = done
                    if (done := sets.get(loc, 0.0)) > floor:
                        floor = done
                for loc in footprint.sets:
                    if (done := obs.get(loc, 0.0)) > floor:
                        floor = done
                    if (done := wrote.get(loc, 0.0)) > floor:
                        floor = done
            floors.append(floor)
        for i, done in op_sync.items():
            if done > floors[i]:
                floors[i] = done
        n, preds = len(footprints), plan.preds
        carried = list(self._lane_free)
        slot = [0.0] * n  # per op, the finish before it on its lane
        placed = dag_list_schedule(
            range(n),
            preds,
            plan.priorities,
            self._lane_free,
            floors=floors,
            lane_prev=slot,
        )

        # Admission, the op's lane slot and its intra-window predecessor
        # finishes form its baseline; an op is stalled iff its floor lies
        # past it, so only an op floored past admission can be.
        stalled = []
        for i in [i for i, floor in enumerate(floors) if floor > t_classify]:
            base = slot[i]
            if t_classify > base:
                base = t_classify
            for p in preds[i]:
                if placed[p][1] > base:
                    base = placed[p][1]
            if floors[i] > base:
                stalled.append((placed[i][0], i, base))
        # The frontier only takes maxima, and only later windows read it
        # (distinct components statically commute, and one component's
        # order is its DAG's job), so index order serves.
        completed = t_classify  # every finish lies past it
        for (_, finish, _), footprint in zip(placed, footprints):
            if finish > completed:
                completed = finish
            if footprint is None:
                if finish > top:
                    top = finish
            else:
                for loc in footprint.observes:
                    if finish > obs.get(loc, 0.0):
                        obs[loc] = finish
                for loc in footprint.adds:
                    if finish > wrote.get(loc, 0.0):
                        wrote[loc] = finish
                for loc in footprint.sets:
                    if finish > wrote.get(loc, 0.0):
                        wrote[loc] = finish
                    if finish > sets.get(loc, 0.0):
                        sets[loc] = finish
        # Waiting beyond the baseline is stall, attributed to the sync
        # lane first, then the frontier — ``start = base + sync_stall +
        # frontier_stall`` exactly — and summed in ``(start, window
        # index)`` order, a key without ties: every other op adds 0.0.
        stall = stall_contended = 0.0
        stalls: dict[int, tuple] = {}
        for _, i, base in sorted(stalled):
            sync_ready = op_sync.get(i)
            sync_stall, held = 0.0, base
            if sync_ready is not None and sync_ready > base:
                sync_stall, held = sync_ready - base, sync_ready
            blocked = floors[i] - held
            blocked = blocked if blocked > 0.0 else 0.0
            waited = sync_stall + blocked
            stall += waited
            if sync_ready is not None:
                stall_contended += waited
            stalls[i] = (sync_stall, blocked)
        self._frontier_top = top
        self._frontier_max = max(everything, completed)
        # A lane moved iff an op landed on it (every op costs one unit).
        lanes_used = sum(a != b for a, b in zip(carried, self._lane_free))
        self._placed = (stall, stall_contended, completed, lanes_used)
        return placed, stalls

    def run(self) -> EngineStats:
        """Drain the mempool through the pipeline, then commit: publish the
        batch's state and the drained ops' responses, and set the engine
        clock to the makespan of the overlapped timeline (not the
        overcounting sum of per-round times)."""
        while self.step() is not None:
            pass
        self.state = self._batch.state()
        self.responses.update(self._uncommitted)
        self._uncommitted.clear()
        if self._completions:
            self.clock = self.stats.virtual_time = max(self._completions)
        self.stats.rejected_ops = self.mempool.rejected
        return self.stats
