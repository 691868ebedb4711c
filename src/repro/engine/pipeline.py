"""Cross-round pipelined execution: no global barrier between windows.

The barrier executor (:class:`~repro.engine.executor.BatchExecutor`) pays
a *global round barrier*: window N+1's classification waits until every
lane — and, in the cluster, every node — has finished window N, so one
slow chain or one consensus round stalls traffic that provably commutes
with it.  :class:`PipelinedExecutor` removes the barrier and replaces it
with the weakest dependency the serial-equivalence contract needs:

**Frontier rule.**  An operation of window N+1 may start executing as
soon as every window-N (or earlier) component *touching its footprint*
has committed.  Operations with disjoint footprints statically commute
(:func:`repro.objects.footprint.static_pair_kind`), so running them in
overlapped windows reorders only commuting pairs; operations with
overlapping footprints are forced to start after their predecessors
finish, which preserves submission order between them.  Unknown
footprints degrade soundly: such a unit waits for *everything* earlier
and gates everything later.

Mechanically the executor keeps a per-location **frontier** — the virtual
time at which the last scheduled unit touching that location finishes —
plus per-lane free times, and schedules each window's units greedily onto
the earliest free lane at ``max(classify time, frontier of its footprint,
its sync lane's completion)``.  Window N+1 is classified (conflict graph,
tiered synchronization) as soon as the pipeline has a free slot — i.e.
while window N's lanes are still executing — and the shared
synchronization lanes serialize across windows (they are one physical
resource) but overlap with lane execution, which is where most of the win
on contended mixes comes from.

Every operation is its own timeline *unit*.  Within a component, the
precedence DAG (:class:`~repro.engine.conflict_graph.ComponentDAG`)
supplies the intra-window dependencies and a critical-path-first
priority; the frontier keys on per-*op* footprints, so an op of window
N+1 starts behind only the specific earlier ops it touches — not behind
the union footprint of every chain those ops belong to.

``pipeline_depth`` bounds how many windows may be in flight at once.
``pipeline_depth=1`` is the same loop with one window in flight: window
N+1 classifies when window N completes, but its lanes still roll on from
wherever window N left them.  It is held to serial equivalence with the
sequential spec like every other depth, not to the barrier executor's
makespan (:class:`BatchExecutor` is the barrier reference).

State application happens at commit time in ascending unit start time
(ties broken by submission order).  That order is serially equivalent to
submission order: two units applied out of submission order either share
no location (they statically commute) or the frontier rule forced the
later one to start after the earlier one finished, in which case the sort
never swaps them.  The property suite machine-checks this against the
sequential specification for random workloads, depths, and lane counts.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

from repro.config import UNSET, EngineConfig, _with_overrides
from repro.engine.executor import BatchExecutor
from repro.engine.mempool import PendingOp
from repro.engine.stats import EngineStats, WaveStats
from repro.errors import EngineError
from repro.objects.footprint import FootprintSummary


@dataclass(frozen=True, slots=True)
class ScheduledUnit:
    """One execution unit (a single operation) on the timeline."""

    start: float
    finish: float
    lane: int
    first_seq: int
    ops: tuple[PendingOp, ...]
    contended: bool
    #: Stall attributed to this unit: time spent waiting on its sync lane
    #: and on cross-round frontier dependencies beyond what admission and
    #: lane availability already imposed.
    sync_stall: float
    frontier_stall: float


class PipelinedExecutor(BatchExecutor):
    """Cross-round pipelined executor for one token object.

    Drop-in replacement for :class:`BatchExecutor` (same constructor
    arguments plus ``pipeline_depth``).  ``run()`` / ``run_workload()``
    are the intended API; ``step()`` schedules one window onto the
    pipeline timeline, and state/responses materialize at commit (the end
    of ``run()``) — the engine's virtual clock then reads the pipelined
    *makespan*, not the sum of per-round times.
    """

    def __init__(
        self,
        object_type,
        config: EngineConfig | None = None,
        *,
        pipeline_depth=UNSET,
        num_lanes=UNSET,
        window=UNSET,
        op_cost=UNSET,
        classifier=None,
        planner=None,
        escalator=None,
        validate=UNSET,
        seed=UNSET,
        mempool_capacity=UNSET,
        team_threshold=UNSET,
        sync=None,
        lane_ttl=UNSET,
        tracer=None,
    ) -> None:
        # The full config surface, spelled out: a mistyped knob raises a
        # TypeError here instead of vanishing into a ``**kwargs`` sink.
        cfg = _with_overrides(
            config if config is not None else EngineConfig(),
            dict(
                pipeline_depth=pipeline_depth,
                num_lanes=num_lanes,
                window=window,
                op_cost=op_cost,
                validate=validate,
                seed=seed,
                mempool_capacity=mempool_capacity,
                team_threshold=team_threshold,
                lane_ttl=lane_ttl,
            ),
        )
        super().__init__(
            object_type,
            cfg,
            classifier=classifier,
            planner=planner,
            escalator=escalator,
            sync=sync,
            tracer=tracer,
        )
        self.pipeline_depth = cfg.pipeline_depth
        self.stats.pipeline_depth = cfg.pipeline_depth
        #: Earliest free time per lane (the pipeline never resets these —
        #: lanes flow from one window into the next).
        self._lane_free = [0.0] * self.num_lanes
        #: Per-location frontier, split by access kind so that the
        #: dependency test is *exactly* the static commutativity test
        #: (:func:`repro.objects.footprint.static_pair_kind`): reads gate
        #: on earlier writes, writes gate on earlier reads, absolute
        #: writes gate on everything — but read-read and delta-delta
        #: (credit-credit) sharing stays dependency-free, which is what
        #: lets disjoint-owner traffic run ahead across windows.
        self._frontier_obs: dict[tuple, float] = {}
        self._frontier_add: dict[tuple, float] = {}
        self._frontier_set: dict[tuple, float] = {}
        #: Finish high-water marks: of unknown-footprint units (which gate
        #: everything after them) and of all units (which gate unknown ones).
        self._frontier_top = 0.0
        self._frontier_max = 0.0
        #: Completion time of each drained window, in window order.
        self._completions: list[float] = []
        self._classify_clock = 0.0
        #: The shared sync lanes are one physical resource: their phases
        #: serialize across windows (but overlap lane execution).
        self._sync_free = 0.0
        #: Units scheduled but not yet applied (committed at end of run).
        self._pending_units: list[ScheduledUnit] = []
        #: The serial prefix state — what the barrier executor would hold
        #: before the next round — kept lazily.  Only oracle validation
        #: and spender-bound team sizing ever read it, so drained windows
        #: wait in the backlog and :meth:`_prefix_state` folds them in when
        #: one of the two asks; a run that never asks (owner-only traffic)
        #: applies every operation once, at commit, not twice.
        self._classify_state = object_type.initial_state()
        self._state_backlog: list[list[PendingOp]] = []

    def _prefix_state(self):
        """The state after every drained window, in submission order —
        equal to the barrier executor's state before the next round."""
        if self._state_backlog:
            self._classify_state, _ = self.object_type.run(
                (
                    (op.pid, op.operation)
                    for ops in self._state_backlog
                    for op in ops
                ),
                self._classify_state,
            )
            self._state_backlog.clear()
        return self._classify_state

    # -- open-loop harness -----------------------------------------------

    def stream_now(self) -> float:
        """The next window's classification instant: the monotonic
        classification clock, held back by the depth gate exactly as
        :meth:`step` will compute it.  Arrivals due by this time can
        still make the next window."""
        gate = 0.0
        index = self.stats.waves
        if index >= self.pipeline_depth:
            gate = self._completions[index - self.pipeline_depth]
        return max(self._classify_clock, gate)

    def stream_advance(self, ts: float) -> None:
        """Advance an idle pipeline's classification clock to ``ts``
        (never backward) — the quiet gap until the next arrival."""
        self._classify_clock = max(self._classify_clock, ts)

    # -- scheduling ------------------------------------------------------

    def step(self) -> WaveStats | None:
        """Schedule one window onto the pipeline; ``None`` when drained.

        The window is drained, classified, and synchronized immediately
        (subject only to the depth gate), its units are placed on the
        lane timeline under the frontier rule, and application is
        deferred to :meth:`run`'s commit.
        """
        self.stats.rejected_ops = self.mempool.rejected
        index = self.stats.waves
        round_ = self.lifecycle.drain(self.mempool, self.window, index)
        if round_ is None:
            return None

        # Depth gate: at most ``pipeline_depth`` windows in flight.  The
        # classification clock is monotonic — windows classify in order.
        gate = 0.0
        if index >= self.pipeline_depth:
            gate = self._completions[index - self.pipeline_depth]
        t_classify = max(self._classify_clock, gate)
        self._classify_clock = t_classify
        inflight = 1 + sum(1 for done in self._completions if done > t_classify)

        self.lifecycle.classify(
            round_, self._prefix_state() if self.classifier.validate else None
        )
        sync_start = max(t_classify, self._sync_free)
        sizes_teams = round_.contended_groups and self.sync.team_threshold > 0
        self.lifecycle.synchronize(
            round_, self._prefix_state() if sizes_teams else None
        )
        escalation = round_.escalation
        assert escalation is not None
        if escalation.virtual_time > 0:
            self._sync_free = sync_start + escalation.virtual_time
        self._state_backlog.append(round_.ops)

        # Per-op sync completion: a component's contended members may not
        # start before their lane committed the order.
        op_sync: dict[int, float] = {}
        for group, component in zip(
            round_.contended_groups, escalation.components
        ):
            done = sync_start + component.completed
            for i in group:
                op_sync[i] = done

        (
            scheduled,
            frontier_updates,
            stall,
            stall_contended,
            lanes_used,
            critical_path,
        ) = self._place_window_dag(round_, t_classify, op_sync)

        # Frontier updates apply after the whole window: units of one
        # window never gate each other through the frontier — distinct
        # components statically commute (the barrier executor's own
        # argument), and same-component ordering is the DAG edges' job.
        for observes, adds, sets, finish in frontier_updates:
            self._frontier_max = max(self._frontier_max, finish)
            if observes is None:
                self._frontier_top = max(self._frontier_top, finish)
                continue
            for frontier, locations in (
                (self._frontier_obs, observes),
                (self._frontier_add, adds),
                (self._frontier_set, sets),
            ):
                for loc in locations:
                    if finish > frontier.get(loc, 0.0):
                        frontier[loc] = finish

        completed = max(unit.finish for unit in scheduled)
        first_start = min(unit.start for unit in scheduled)
        overlap = 0.0
        if self._completions:
            overlap = max(0.0, self._completions[-1] - first_start)
        self._completions.append(completed)
        self._pending_units.extend(scheduled)

        escalated = len(round_.escalated_idx)
        round_stats = WaveStats(
            index=index,
            window=len(round_.ops),
            wave_ops=len(round_.singleton_idx),
            barrier_ops=round_.chained_ops - escalated,
            escalated_ops=escalated,
            lanes_used=len(lanes_used),
            critical_path=critical_path,
            virtual_time=completed - t_classify,
            escalation_time=escalation.virtual_time,
            escalation_messages=escalation.messages,
            team_ops=escalation.team_ops,
            global_ops=escalation.global_ops,
            team_messages=escalation.team_messages,
            global_messages=escalation.global_messages,
            teams=escalation.teams,
            team_sizes=escalation.team_sizes,
            stall_time=stall,
            stall_time_contended=stall_contended,
            overlap_time=overlap,
            inflight=inflight,
            completed_at=completed,
            dag_critical_path=max(
                (dag.critical_path for dag in round_.dags), default=0
            ),
            dag_width=max((dag.width for dag in round_.dags), default=0),
            dag_chain_ops=sum(dag.size for dag in round_.dags),
            dag_critical_ops=sum(dag.critical_path for dag in round_.dags),
        )
        if self.tracer is not None:
            self._trace_pipelined_round(
                round_, scheduled, t_classify, sync_start
            )
        self.stats.record_round(round_stats)
        return round_stats

    def _trace_pipelined_round(
        self,
        round_,
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
            f"round {round_.index} classified",
            t_classify,
            args={"window": len(round_.ops)},
        )
        for op in round_.ops:
            tracer.op_stage(op.seq, "classify", t_classify)
        if round_.escalation.components:
            self._trace_sync_phase(round_, sync_start)
        for unit in scheduled:
            stalls = []
            if unit.frontier_stall > 0:
                stalls.append(("frontier_stall", unit.frontier_stall))
            if unit.sync_stall > 0:
                stalls.append(("sync_wait", unit.sync_stall))
            for j, op in enumerate(unit.ops):
                start = unit.start + j * self.op_cost
                tracer.span(
                    f"lane{unit.lane}",
                    f"op {op.seq}",
                    "execute",
                    start,
                    start + self.op_cost,
                    stalls=tuple(stalls) if j == 0 else (),
                    args={
                        "seq": op.seq,
                        "pid": op.pid,
                        "round": round_.index,
                    },
                )
                tracer.op_stage(op.seq, "schedule", unit.start)
                tracer.op_stage(op.seq, "execute", start)
                tracer.op_commit(op.seq, unit.finish)
        tracer.instant(
            "engine",
            f"round {round_.index} placed",
            max(unit.finish for unit in scheduled),
        )

    # -- window placement ------------------------------------------------

    def _dep_ready(self, summary: FootprintSummary) -> float:
        """Earliest start the cross-window frontier allows for a unit with
        this may-access summary — exactly the static commutativity test
        per access kind: reads gate on earlier writes, deltas on earlier
        reads and absolute writes (delta-delta sharing is free), absolute
        writes on every earlier access; unknown footprints degrade to
        waiting for everything."""
        if summary.unknown:
            return self._frontier_max
        dep_ready = self._frontier_top
        for loc in summary.observes:
            dep_ready = max(
                dep_ready,
                self._frontier_add.get(loc, 0.0),
                self._frontier_set.get(loc, 0.0),
            )
        for loc in summary.adds:
            dep_ready = max(
                dep_ready,
                self._frontier_obs.get(loc, 0.0),
                self._frontier_set.get(loc, 0.0),
            )
        for loc in summary.sets:
            dep_ready = max(
                dep_ready,
                self._frontier_obs.get(loc, 0.0),
                self._frontier_add.get(loc, 0.0),
                self._frontier_set.get(loc, 0.0),
            )
        return dep_ready

    def _place_window_dag(
        self,
        round_,
        t_classify: float,
        op_sync: dict[int, float],
    ):
        """Op-granular placement: critical-path-first list scheduling.

        Every operation is its own timeline unit.  Intra-window order
        comes from the component DAGs (predecessor finish times), the
        cross-window order from the per-*op* frontier, and contended ops
        additionally wait for their component's sync lane.  Priority is
        the DAG bottom level (deepest remaining chain first), ties broken
        by submission order; singletons carry bottom level 1 and backfill.
        """
        ops = round_.ops
        tasks: list[int] = []
        priorities: list[int] = []
        task_of: dict[int, int] = {}
        for dag in round_.dags:
            bottom = dag.bottom_levels()
            for node in dag.nodes:
                task_of[node] = len(tasks)
                tasks.append(node)
                priorities.append(bottom[node])
        for i in round_.singleton_idx:
            task_of[i] = len(tasks)
            tasks.append(i)
            priorities.append(1)
        preds: list[tuple[int, ...]] = [()] * len(tasks)
        succs: list[list[int]] = [[] for _ in range(len(tasks))]
        for dag in round_.dags:
            for node in dag.nodes:
                t = task_of[node]
                preds[t] = tuple(task_of[p] for p in dag.preds[node])
                for s in dag.succs[node]:
                    succs[t].append(task_of[s])

        scheduled: list[ScheduledUnit] = []
        frontier_updates: list[
            tuple[frozenset | None, frozenset, frozenset, float]
        ] = []
        stall = stall_contended = 0.0
        lanes_used: set[int] = set()
        est = [0.0] * len(tasks)
        missing = [len(found) for found in preds]
        ready = [
            (-priorities[t], ops[tasks[t]].seq, t)
            for t in range(len(tasks))
            if not missing[t]
        ]
        heapq.heapify(ready)
        placed = 0
        while ready:
            _, _, t = heapq.heappop(ready)
            i = tasks[t]
            op = ops[i]
            summary = FootprintSummary.over([self.classifier.footprint(op)])
            dep_ready = self._dep_ready(summary)
            contended = i in op_sync
            sync_ready = op_sync.get(i, 0.0)
            # Earliest-start lane choice (not least-loaded): an op floored
            # far in the future by its dependencies must not strand the
            # earliest-free lane idle when another lane starts it no later.
            ready_at = max(t_classify, est[t], dep_ready, sync_ready)
            lane = min(
                range(self.num_lanes),
                key=lambda lane_id: (
                    max(self._lane_free[lane_id], ready_at),
                    self._lane_free[lane_id],
                    lane_id,
                ),
            )
            # Admission, lane availability, and intra-window predecessor
            # finishes form the baseline; waiting beyond it is stall,
            # attributed to the sync lane first, then the frontier.
            base = max(t_classify, self._lane_free[lane], est[t])
            sync_stall = max(0.0, sync_ready - base) if contended else 0.0
            frontier_stall = max(0.0, dep_ready - max(base, sync_ready))
            start = max(base, dep_ready, sync_ready)
            finish = start + self.op_cost
            self._lane_free[lane] = finish
            lanes_used.add(lane)
            scheduled.append(
                ScheduledUnit(
                    start=start,
                    finish=finish,
                    lane=lane,
                    first_seq=op.seq,
                    ops=(op,),
                    contended=contended,
                    sync_stall=sync_stall,
                    frontier_stall=frontier_stall,
                )
            )
            frontier_updates.append(
                (
                    None if summary.unknown else summary.observes,
                    summary.adds,
                    summary.sets,
                    finish,
                )
            )
            stall += sync_stall + frontier_stall
            if contended:
                stall_contended += sync_stall + frontier_stall
            placed += 1
            for s in succs[t]:
                if finish > est[s]:
                    est[s] = finish
                missing[s] -= 1
                if not missing[s]:
                    heapq.heappush(
                        ready, (-priorities[s], ops[tasks[s]].seq, s)
                    )
        if placed != len(tasks):
            raise EngineError("dependency cycle in pipelined DAG schedule")

        critical_path = max(
            (dag.critical_path for dag in round_.dags), default=1
        )
        return (
            scheduled,
            frontier_updates,
            stall,
            stall_contended,
            lanes_used,
            critical_path,
        )

    def run(self) -> EngineStats:
        """Drain the mempool through the pipeline, then commit.

        Commit applies every scheduled unit in ascending start time
        (submission order on ties) — the serially-equivalent merge of the
        pipelined timeline — and sets the engine clock to the makespan.
        """
        while self.step() is not None:
            pass
        self._commit()
        self.stats.rejected_ops = self.mempool.rejected
        return self.stats

    # -- commit ----------------------------------------------------------

    def _commit(self) -> None:
        for unit in sorted(
            self._pending_units, key=lambda u: (u.start, u.first_seq)
        ):
            for op in unit.ops:
                self._apply(op)
        self._pending_units.clear()
        # Every drained window is now applied: the committed state *is*
        # the serial prefix state, and nothing is left to fold in.
        self._classify_state = self.state
        self._state_backlog.clear()
        if self._completions:
            self.clock = max(self._completions)
            # The aggregate clock is the *makespan* of the overlapped
            # timeline, not the (overcounting) sum of per-round times.
            self.stats.virtual_time = self.clock
