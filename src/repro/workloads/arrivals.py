"""Open-loop arrival processes and the stream driver.

The closed-loop benches feed a whole workload at virtual time zero and
measure the drain; production token traffic is an *open loop* — ops
arrive on their own schedule whether or not the system keeps up
("Rectifying Administrated ERC20 Tokens" measures exactly this bursty,
Zipf-skewed shape).  This module supplies the two halves:

* **the arrival process** — :func:`poisson_arrivals` (memoryless at a
  fixed offered rate).  It takes its *items* from any workload
  generator, so account skew comes from the
  existing :mod:`repro.workloads.skew` knobs
  (``TokenWorkloadGenerator(zipf_s=…, hotspot_fraction=…)``) and the
  timing knobs stay orthogonal to the content knobs;
* **the driver** — :class:`StreamDriver` feeds timed arrivals into a
  :class:`~repro.engine.pipeline.PipelinedExecutor` or a
  :class:`~repro.cluster.TokenCluster` through the existing mempool +
  ``submit(…, arrival=…)`` lifecycle stamp.  No engine rewrite: the
  driver releases the arrivals due by the target's current virtual
  admission time (``stream_now()``), advances the idle clock across
  quiet gaps (``stream_advance``), and otherwise drives the exact same
  ``step()`` / round loops the closed-loop path uses — an undriven run
  stays bit-identical.

Latency is commit − arrival, read from the tracer's per-op lifecycle,
so a driven target **must** carry a :class:`~repro.obs.TraceRecorder`.
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING, Any, Iterable

from repro._records import field, record
from repro.errors import MempoolFullError, StreamError
from repro.workloads.generators import WorkloadItem

if TYPE_CHECKING:  # avoid the engine <-> workloads import cycle
    from repro.engine.mempool import PendingOp


@record(frozen=True, slots=True)
class Arrival:
    """One timed submission: ``item`` offered at virtual time ``time``."""

    time: float
    item: WorkloadItem


def poisson_arrivals(
    items: Iterable[WorkloadItem],
    rate: float,
    seed: int = 0,
    start: float = 0.0,
) -> list[Arrival]:
    """Stamp ``items`` with Poisson arrival times at ``rate`` ops per
    virtual-time unit (exponential gaps, seeded and deterministic)."""
    if rate <= 0:
        raise StreamError("the offered rate must be positive")
    rng = random.Random(seed)
    clock = start
    arrivals = []
    for item in items:
        clock += rng.expovariate(rate)
        arrivals.append(Arrival(time=clock, item=item))
    return arrivals


@record(slots=True)
class StreamReport:
    """What one driven run did: admission tallies and the final clock."""

    offered: int
    admitted: list[PendingOp] = field(default_factory=list)
    dropped: int = 0
    makespan: float = 0.0
    #: The target's own aggregate statistics object.
    stats: Any = None

    def as_dict(self) -> dict:
        return {
            "offered": self.offered,
            "admitted": len(self.admitted),
            "dropped": self.dropped,
            "makespan": self.makespan,
        }


class StreamDriver:
    """Feed timed arrivals into an executor or cluster, open loop.

    The driver's contract with the target is three methods —
    ``stream_now()`` (the current virtual admission time),
    ``stream_advance(ts)`` (advance the idle clock across a quiet gap),
    and ``submit(pid, op, arrival=ts)`` (the lifecycle stamp) — plus
    the target's own round loop.  Arrivals are released in time order,
    never before their arrival time and never late: an arrival due
    during a round is admitted before the next admission point, which
    is also the earliest instant the target could classify it.

    Backpressure stays open-loop: a bounded mempool that sheds an
    arrival counts a drop and the stream keeps going (the client does
    not politely wait, unlike ``run_workload``'s closed-loop pacing).
    """

    def __init__(self, target: Any, arrivals: Iterable[Arrival]) -> None:
        self.target = target
        self.arrivals = sorted(arrivals, key=lambda a: a.time)
        if self.arrivals and self.arrivals[0].time < 0:
            raise StreamError("arrival times must be non-negative")
        if getattr(target, "tracer", None) is None:
            raise StreamError(
                "open-loop latency is commit - arrival, read from the "
                "tracer's per-op lifecycle; construct the target with "
                "tracer=TraceRecorder()"
            )

    def run(self) -> StreamReport:
        """Drive the whole stream to quiescence; returns the report."""
        report = StreamReport(offered=len(self.arrivals))
        if hasattr(self.target, "router"):
            self._run_cluster(report)
        else:
            self._run_engine(report)
        return report

    # -- engines ---------------------------------------------------------

    def _release_due(self, now: float, index: int, report) -> int:
        """Submit every arrival due by ``now``; returns the new cursor."""
        target = self.target
        arrivals = self.arrivals
        while index < len(arrivals) and arrivals[index].time <= now:
            arrival = arrivals[index]
            index += 1
            try:
                pending = target.submit(
                    arrival.item.pid,
                    arrival.item.operation,
                    arrival=arrival.time,
                )
            except MempoolFullError:
                report.dropped += 1
                continue
            if pending is None:  # the cluster router sheds, not raises
                report.dropped += 1
            else:
                report.admitted.append(pending)
        return index

    def _run_engine(self, report: StreamReport) -> None:
        engine = self.target
        index = 0
        while True:
            index = self._release_due(engine.stream_now(), index, report)
            if not engine.mempool:
                if index >= len(self.arrivals):
                    break
                engine.stream_advance(self.arrivals[index].time)
                continue
            engine.step()
        # Commit (state and responses materialize here); the mempool is
        # already empty, so this schedules nothing new.
        engine.run()
        report.makespan = engine.clock
        report.stats = engine.stats

    # -- cluster ---------------------------------------------------------

    def _run_cluster(self, report: StreamReport) -> None:
        cluster = self.target
        router = cluster.router
        simulator = cluster.simulator
        index = 0
        while True:
            index = self._release_due(
                cluster.stream_now(), index, report
            )
            next_time = (
                self.arrivals[index].time
                if index < len(self.arrivals)
                else None
            )
            router.pump()
            if simulator.pending_events:
                # Run the protocol up to the next arrival (events beyond
                # it stay queued), so admissions interleave with rounds
                # at the granularity of the event loop itself.
                processed = simulator.run(until=next_time)
                if processed == 0 and next_time is not None:
                    cluster.stream_advance(next_time)
                continue
            if next_time is not None:
                cluster.stream_advance(next_time)
                continue
            if router.mempool or not router.idle:
                raise StreamError(
                    "stream stalled: work pending but no events queued"
                )
            break
        report.stats = cluster.stream_finish()
        report.makespan = simulator.now
