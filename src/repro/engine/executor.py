"""The sharded batch executor: commute in parallel, order only conflicts.

Execution proceeds in rounds.  Each round pops a window from the mempool,
builds the conflict graph under *static* (state-independent)
classification — so reordering is sound at every intermediate state — and
schedules its connected components:

* **singletons** — operations commuting with the entire window; they run
  in any lane (the engine's fast path).
* **chains** — multi-operation components.  Operations in different
  components statically commute and run in parallel; within a component
  only the non-commuting pairs need an order, so the component's
  operations schedule individually along its precedence DAG.
* **escalated** — chain members on a cross-process CONFLICT edge with
  *contention* (two enabled spenders debiting one account, approve racing
  transferFrom on an allowance cell, one NFT): the only traffic that pays
  for an ordering lane.  Each contended component goes through the tiered
  sync layer (:mod:`repro.sync`): a component whose spender bound has size
  ``k ≤ team_threshold`` is ordered by a k-participant *team lane*
  (``O(k²)`` messages, concurrent with every other team), the rest merge
  into one batch on the global
  :class:`~repro.engine.escalation.ConsensusEscalator` lane.  The phase's
  makespan (global lane and team pool run concurrently) and message bill
  are charged to the engine clock.  With ``team_threshold = 0`` every
  contended component takes the global lane.

A round costs the lane critical path (the scheduled makespan, in
operation units) plus the consensus latency of its escalations;
conflict-free windows pay no messages at all — the paper's
consensus-number-1 regime executes entirely on the fast path.

Serial-equivalence contract: the final state *and every response* are
identical to executing the whole workload sequentially in submission
order, for any lane count — operations are only ever reordered across
statically-commuting pairs.  The property tests in
``tests/engine/test_engine_properties.py`` machine-check this against the
sequential specification.
"""

from __future__ import annotations

from typing import Any, Iterable

from repro.config import UNSET, EngineConfig, _with_overrides
from repro.engine.classifier import OpClassifier
from repro.engine.escalation import ConsensusEscalator, tiered_escalator
from repro.engine.mempool import Mempool, PendingOp
from repro.engine.rounds import RoundLifecycle, RoundScheduler
from repro.engine.shard import ShardPlanner
from repro.engine.stats import EngineStats, WaveStats
from repro.obs.trace import TraceRecorder
from repro.spec.object_type import SequentialObjectType
from repro.sync.escalation import TieredEscalator
from repro.workloads.generators import WorkloadItem


class BatchExecutor:
    """Commutativity-aware parallel executor for one token object."""

    def __init__(
        self,
        object_type: SequentialObjectType,
        config: EngineConfig | None = None,
        *,
        num_lanes=UNSET,
        window=UNSET,
        op_cost=UNSET,
        classifier: OpClassifier | None = None,
        planner: ShardPlanner | None = None,
        escalator: ConsensusEscalator | None = None,
        validate=UNSET,
        seed=UNSET,
        mempool_capacity=UNSET,
        team_threshold=UNSET,
        sync: TieredEscalator | None = None,
        lane_ttl=UNSET,
        tracer: TraceRecorder | None = None,
    ) -> None:
        #: The resolved run configuration: explicit kwargs override the
        #: ``config=`` value, which overrides :class:`EngineConfig`'s
        #: defaults.
        self.config = cfg = _with_overrides(
            config if config is not None else EngineConfig(),
            dict(
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
        self.object_type = object_type
        self.num_lanes = cfg.num_lanes
        self.window = cfg.window
        self.op_cost = cfg.op_cost
        self.classifier = (
            classifier
            if classifier is not None
            else OpClassifier(object_type, validate=cfg.validate)
        )
        self.planner = (
            planner if planner is not None else ShardPlanner(cfg.num_lanes)
        )
        self.scheduler = RoundScheduler(self.classifier, self.planner)
        self.escalator = (
            escalator
            if escalator is not None
            else ConsensusEscalator(seed=cfg.seed)
        )
        #: The tiered sync layer; its Tier ∞ fallback is ``self.escalator``
        #: (``team_threshold=0`` = always-global escalation).
        self.sync = (
            sync
            if sync is not None
            else tiered_escalator(
                self.escalator,
                team_threshold=cfg.team_threshold,
                seed=cfg.seed,
                lane_ttl=cfg.lane_ttl,
            )
        )
        #: The shared round stage machine (drain → classify → sync → plan);
        #: the pipelined executor drives the same lifecycle.
        self.lifecycle = RoundLifecycle(
            self.scheduler, self.sync, object_type, op_cost=cfg.op_cost
        )
        self.mempool = Mempool(capacity=cfg.mempool_capacity)
        self.state = object_type.initial_state()
        self.responses: dict[int, Any] = {}
        self.clock = 0.0
        self.stats = EngineStats(
            num_lanes=cfg.num_lanes, window=cfg.window, op_cost=cfg.op_cost
        )
        #: Optional observability hook (:mod:`repro.obs`).  ``None`` (the
        #: default) records nothing and changes nothing — stats, state,
        #: and responses stay bit-identical.
        self.tracer = tracer
        if tracer is not None and getattr(self.sync, "pool", None) is not None:
            self.sync.pool.tracer = tracer

    # -- intake ----------------------------------------------------------

    def submit(
        self, pid: int, operation, arrival: float | None = None
    ) -> PendingOp:
        """Admit one operation.  ``arrival`` back-dates the traced
        ``submit`` lifecycle stage to the op's open-loop arrival time
        (it must not exceed the current admission time,
        :meth:`stream_now`), so traced latency reads commit − arrival;
        the default ``None`` stamps the current clock — the historical
        closed-loop behavior, bit for bit."""
        pending = self.mempool.submit(pid, operation)
        if self.tracer is not None:
            self.tracer.op_submit(
                pending.seq, self.clock if arrival is None else arrival
            )
        return pending

    def feed(self, items: Iterable[WorkloadItem]) -> list[PendingOp]:
        pending = self.mempool.feed(items)
        if self.tracer is not None:
            for op in pending:
                self.tracer.op_submit(op.seq, self.clock)
        return pending

    # -- open-loop harness -----------------------------------------------

    def stream_now(self) -> float:
        """The virtual time the next admitted operation is classified
        at — the open-loop driver (:class:`repro.workloads.arrivals.
        StreamDriver`) releases arrivals due by this instant."""
        return self.clock

    def stream_advance(self, ts: float) -> None:
        """Advance an *idle* engine's clock to ``ts`` (never backward):
        the driver models the quiet gap until the next arrival.  The
        subsequent round then starts at ``ts``, exactly as if the engine
        had been created then."""
        self.clock = max(self.clock, ts)

    # -- scheduling ------------------------------------------------------

    def step(self) -> WaveStats | None:
        """Execute one round; returns its stats, or ``None`` when drained.

        One full pass of the round stage machine (:mod:`repro.engine.
        rounds`): drain a window, classify it, synchronize the contended
        components (phase 1 — team lanes for small spender bounds, the
        global lane above the threshold; every lane commits in submission
        order, fixing the relative order of contended chain members before
        the lanes start), schedule the window on the lanes, and apply it
        in the plan's order (phase 2 — a linear extension of every
        component DAG: any two operations applied out of submission order
        have no non-commute edge between them).
        """
        self.stats.rejected_ops = self.mempool.rejected
        round_ = self.lifecycle.drain(
            self.mempool, self.window, self.stats.waves
        )
        if round_ is None:
            return None
        self.lifecycle.classify(round_, self.state)
        self.lifecycle.synchronize(round_, self.state)
        self.lifecycle.plan(round_)
        for op in round_.plan.apply_order:
            self._apply(op)
        round_stats = self.lifecycle.barrier_stats(round_)
        if self.tracer is not None:
            self._trace_barrier_round(round_, round_stats)
        self.clock += round_stats.virtual_time
        self.stats.record_round(round_stats)
        return round_stats

    def run(self) -> EngineStats:
        """Drain the mempool; returns the aggregate statistics."""
        while self.step() is not None:
            pass
        self.stats.rejected_ops = self.mempool.rejected
        return self.stats

    def run_workload(
        self, items: Iterable[WorkloadItem]
    ) -> tuple[Any, list[Any], EngineStats]:
        """Feed a workload, drain it, and return
        ``(final_state, responses, stats)`` — responses aligned with
        ``items`` (prior workloads on a reused engine are excluded).

        A bounded mempool paces the intake instead of rejecting: when the
        pool is full, rounds execute until there is room again, so a
        capacity-limited engine still processes workloads of any length.
        Direct ``submit`` against a full pool keeps its typed rejection.
        """
        pending = []
        for item in items:
            if self.mempool.capacity is not None:
                while len(self.mempool) >= self.mempool.capacity:
                    self.step()
            pending.append(self.submit(item.pid, item.operation))
        self.run()
        return (
            self.state,
            [self.responses[p.seq] for p in pending],
            self.stats,
        )

    # -- internals -------------------------------------------------------

    def _trace_sync_phase(self, round_, sync_start: float) -> None:
        """Record the round's sync phase: one informational span per
        contended component on its lane's track, plus the per-op ``sync``
        lifecycle stage at the component's commit time."""
        tracer = self.tracer
        assert tracer is not None
        escalation = round_.escalation
        for group, component in zip(
            round_.contended_groups, escalation.components
        ):
            if component.team is None:
                track = "sync.global"
            else:
                members = "-".join(str(p) for p in sorted(component.team))
                track = f"sync.team {members}"
            tracer.span(
                track,
                f"order r{round_.index}",
                "sync_wait",
                sync_start,
                sync_start + component.completed,
                chain=False,
                args={"ops": len(group), "round": round_.index},
            )
            for i in group:
                tracer.op_stage(
                    round_.ops[i].seq,
                    "sync",
                    sync_start + component.completed,
                )

    def _trace_barrier_round(self, round_, round_stats: WaveStats) -> None:
        """Record one committed barrier round: sync phase first, then the
        lane layout, starts composed exactly as the clock accounting does
        (``virtual_time = critical_path * op_cost + escalation``), so the
        last span ends at the post-round clock and the attribution walk
        re-derives the makespan without slack."""
        tracer = self.tracer
        assert tracer is not None
        t0 = self.clock
        escalation_time = round_.escalation.virtual_time
        t_end = t0 + round_stats.virtual_time
        tracer.instant(
            "engine",
            f"round {round_.index} classified",
            t0,
            args={"window": len(round_.ops)},
        )
        for op in round_.ops:
            tracer.op_stage(op.seq, "classify", t0)
        if round_.escalation.components:
            self._trace_sync_phase(round_, t0)
            tracer.instant(
                "engine",
                f"round {round_.index} synced",
                t0 + escalation_time,
            )
        # The whole execution phase waits out the sync phase, so the
        # first op on every lane carries the wait (the walk crosses it
        # once, on whichever lane it descends).
        stalls = (
            (("sync_wait", escalation_time),) if escalation_time > 0 else ()
        )
        exec_start = t0 + escalation_time
        plan = round_.plan
        for op, (start, finish, lane) in zip(plan.apply_order, plan.placements):
            start_vt = exec_start + start * self.op_cost
            tracer.span(
                f"lane{lane}",
                f"op {op.seq}",
                "execute",
                start_vt,
                exec_start + finish * self.op_cost,
                stalls=stalls if start == 0 else (),
                args={"seq": op.seq, "pid": op.pid, "round": round_.index},
            )
            tracer.op_stage(op.seq, "schedule", start_vt)
            tracer.op_stage(op.seq, "execute", start_vt)
        for op in round_.ops:
            tracer.op_commit(op.seq, t_end)
        tracer.instant("engine", f"round {round_.index} committed", t_end)

    def _apply(self, op: PendingOp) -> None:
        self.state, response = self.object_type.apply(
            self.state, op.pid, op.operation
        )
        self.responses[op.seq] = response

    def responses_in_order(self) -> list[Any]:
        """Responses of all executed operations, in submission order."""
        return [self.responses[seq] for seq in sorted(self.responses)]
