"""Virtual-time span tracing for engine, pipeline, and cluster runs.

A :class:`TraceRecorder` collects *completed* spans — the executors know
the exact virtual start/finish of every scheduled unit the moment they
place it, so there is no begin/end pairing to get wrong — plus instant
events (round stage transitions, lease protocol messages) and a per-op
lifecycle (``submit → classify → sync → schedule → execute → commit``).

Two properties the rest of the observability layer leans on:

* **Stalls ride on spans.**  A span's ``stalls`` tuple records the named
  waits that immediately preceded its start, in backward-walk order
  (latest wait first).  The executors compose starts as
  ``start = base + stall₁ + stall₂ + …`` exactly, which is what lets
  :func:`repro.obs.report.critical_path_report` partition the makespan
  without guessing.
* **No tracer, no cost.**  Every instrumentation site in the executors is
  guarded by ``if self.tracer is not None``; the stats dicts are
  bit-identical with ``tracer=None``, enforced by the identity tests in
  ``tests/obs/test_identity.py``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ReproError
from repro.obs.metrics import MetricsRegistry

#: Canonical lifecycle stage order; later stages may never precede
#: earlier ones on a single op (``sync`` is optional — fast-path ops
#: skip it).
LIFECYCLE_STAGES: tuple[str, ...] = (
    "submit",
    "classify",
    "sync",
    "schedule",
    "execute",
    "commit",
)

#: Attribution categories a span (or its stalls) may carry.  ``network``
#: is never recorded directly by the executors — the report assigns it to
#: timeline gaps (message flight, routing) between chained spans — but
#: client-side traces (e.g. the dynamic-network bench, where the
#: observed interval *is* flight time) may record it explicitly.
CATEGORIES: tuple[str, ...] = (
    "execute",
    "sync_wait",
    "frontier_stall",
    "lease_wait",
    "dispatch_stall",
    "recovery",
    "network",
)


class TraceError(ReproError):
    """A malformed span or lifecycle transition."""


@dataclass(frozen=True, slots=True)
class Span:
    """One completed interval on a named track of the virtual timeline.

    ``chain=True`` spans participate in the critical-path walk (per-op
    execution, dispatch decisions); ``chain=False`` spans are purely
    informational overlays (sync-phase extents, team-lane internals on
    the pool's private clock).
    """

    track: str
    name: str
    category: str
    start: float
    end: float
    #: Named waits immediately preceding ``start``, latest first:
    #: ``start - sum(amounts)`` is the instant the unit was ready apart
    #: from these waits.
    stalls: tuple[tuple[str, float], ...] = ()
    args: dict = field(default_factory=dict)
    chain: bool = True

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass(frozen=True, slots=True)
class Instant:
    """A zero-duration marker (stage transition, protocol message)."""

    track: str
    name: str
    ts: float
    args: dict = field(default_factory=dict)


class TraceRecorder:
    """Accumulates spans, instants, and per-op lifecycles for one run.

    Pass one recorder to at most one executor run; the makespan and the
    attribution report are properties of a single virtual timeline.

    ``max_spans`` turns on **sampling**: the span list becomes a ring
    buffer of the most recent ``max_spans`` spans, so a long open-loop
    run can stay traced with bounded memory.  Two things survive
    eviction exactly: the per-track *occupancy* totals (busy time per
    span category plus stall time per stall category, accumulated at
    record time) and the metrics registry — so
    :func:`repro.obs.utilization.utilization_report` and the category
    totals stay exact while span *detail* is bounded.  The critical-path
    walk, which needs the full span set, refuses an evicted recorder.
    ``max_spans=None`` (the default) retains everything and is
    bit-identical to the historical recorder.
    """

    def __init__(
        self,
        metrics: MetricsRegistry | None = None,
        max_spans: int | None = None,
    ) -> None:
        if max_spans is not None and max_spans < 1:
            raise TraceError(
                "max_spans must be positive (or None for full retention)"
            )
        self.spans: list[Span] = []
        self.instants: list[Instant] = []
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.max_spans = max_spans
        #: Spans ever recorded / evicted by the ring buffer; their
        #: difference is ``len(self.spans)`` (the retained detail).
        self.spans_recorded = 0
        self.spans_evicted = 0
        #: op seq -> {stage: virtual timestamp}
        self._oplife: dict[int, dict[str, float]] = {}
        #: Exact additive occupancy, maintained at record time so it
        #: survives ring-buffer eviction: track -> category -> summed
        #: span durations (chained spans only) / summed stall amounts.
        self._busy: dict[str, dict[str, float]] = {}
        self._stall: dict[str, dict[str, float]] = {}
        self._chain_end = 0.0

    # -- recording ------------------------------------------------------

    def span(
        self,
        track: str,
        name: str,
        category: str,
        start: float,
        end: float,
        stalls: tuple[tuple[str, float], ...] = (),
        args: dict | None = None,
        chain: bool = True,
    ) -> Span:
        if category not in CATEGORIES:
            raise TraceError(f"unknown span category {category!r}")
        if end < start:
            raise TraceError(
                f"span {name!r} on {track!r} ends before it starts "
                f"({end} < {start})"
            )
        for stall_category, amount in stalls:
            if stall_category not in CATEGORIES:
                raise TraceError(
                    f"unknown stall category {stall_category!r}"
                )
            if amount < 0:
                raise TraceError(
                    f"span {name!r} has negative {stall_category} stall"
                )
        span = Span(
            track=track,
            name=name,
            category=category,
            start=start,
            end=end,
            stalls=tuple(stalls),
            args=dict(args) if args else {},
            chain=chain,
        )
        self.spans.append(span)
        self.spans_recorded += 1
        if chain:
            if end > self._chain_end:
                self._chain_end = end
            busy = self._busy.setdefault(track, {})
            busy[category] = busy.get(category, 0.0) + (end - start)
            if span.stalls:
                stall = self._stall.setdefault(track, {})
                for stall_category, amount in span.stalls:
                    stall[stall_category] = (
                        stall.get(stall_category, 0.0) + amount
                    )
        if self.max_spans is not None and len(self.spans) > self.max_spans:
            del self.spans[0]
            self.spans_evicted += 1
        return span

    def instant(
        self, track: str, name: str, ts: float, args: dict | None = None
    ) -> None:
        self.instants.append(
            Instant(
                track=track, name=name, ts=ts, args=dict(args) if args else {}
            )
        )

    # -- per-op lifecycle ----------------------------------------------

    def op_stage(self, seq: int, stage: str, ts: float) -> None:
        """Mark an op's lifecycle stage at a virtual timestamp.  Stages
        must be non-decreasing in time; re-marking a stage keeps the
        first timestamp (a chain op's schedule time is its unit's)."""
        if stage not in LIFECYCLE_STAGES:
            raise TraceError(f"unknown lifecycle stage {stage!r}")
        life = self._oplife.setdefault(seq, {})
        if stage in life:
            return
        latest = max(life.values(), default=None)
        if latest is not None and ts < latest:
            raise TraceError(
                f"op {seq} stage {stage!r} at {ts} precedes an earlier "
                f"stage at {latest}"
            )
        life[stage] = ts
        if stage == "commit" and "submit" in life:
            self.metrics.histogram("op_latency").observe(
                ts - life["submit"], ts=ts
            )
            self.metrics.counter("ops_committed").inc(ts=ts)

    def op_submit(self, seq: int, ts: float) -> None:
        self.op_stage(seq, "submit", ts)
        self.metrics.counter("ops_submitted").inc(ts=ts)

    def op_commit(self, seq: int, ts: float) -> None:
        self.op_stage(seq, "commit", ts)

    def lifecycle(self, seq: int) -> dict[str, float]:
        """A copy of one op's recorded stage timestamps."""
        return dict(self._oplife.get(seq, {}))

    @property
    def op_seqs(self) -> list[int]:
        return sorted(self._oplife)

    def unterminated(self) -> list[int]:
        """Ops that were submitted but never reached ``commit`` — empty
        after any completed run (the well-formedness tests assert so)."""
        return sorted(
            seq
            for seq, life in self._oplife.items()
            if "commit" not in life
        )

    def stage_totals(self) -> dict[str, dict[str, float]]:
        """Aggregate per-op lifecycle waterfalls: for every consecutive
        pair of *recorded* stages (``submit->classify``,
        ``classify->schedule``, …) the number of ops that traversed it
        and the total virtual time they spent in it.  This is the
        stage-level view the trace differ aligns on."""
        totals: dict[str, dict[str, float]] = {}
        for life in self._oplife.values():
            present = [
                stage for stage in LIFECYCLE_STAGES if stage in life
            ]
            for earlier, later in zip(present, present[1:]):
                entry = totals.setdefault(
                    f"{earlier}->{later}", {"count": 0, "total": 0.0}
                )
                entry["count"] += 1
                entry["total"] += life[later] - life[earlier]
        return totals

    # -- derived --------------------------------------------------------

    @property
    def sampled(self) -> bool:
        """True once the ring buffer has actually dropped span detail.
        A bounded recorder that never overflowed still holds the full
        trace, so it is not sampled."""
        return self.spans_evicted > 0

    @property
    def makespan(self) -> float:
        """Last chained-span finish on the run's virtual timeline (the
        informational overlays, e.g. team-lane internals on the pool's
        private clock, do not count).  Maintained as a running maximum
        so it stays exact under ring-buffer eviction."""
        return self._chain_end

    def busy_totals(self) -> dict[str, dict[str, float]]:
        """Exact per-track busy time by span category (chained spans
        only), accumulated at record time — exact even when sampled."""
        return {
            track: dict(totals) for track, totals in self._busy.items()
        }

    def stall_totals(self) -> dict[str, dict[str, float]]:
        """Exact per-track stall time by stall category (chained spans
        only), accumulated at record time — exact even when sampled."""
        return {
            track: dict(totals) for track, totals in self._stall.items()
        }

    def category_totals(self) -> dict[str, float]:
        """Exact occupancy totals by category across all tracks: summed
        span durations plus summed stall amounts.  Unlike the
        critical-path attribution (which charges one backward walk),
        these are *additive* — every lane's busy time counts — and they
        survive ring-buffer eviction exactly."""
        totals: dict[str, float] = {}
        for per_track in (self._busy, self._stall):
            for track_totals in per_track.values():
                for category, amount in track_totals.items():
                    totals[category] = totals.get(category, 0.0) + amount
        return {
            category: totals[category]
            for category in CATEGORIES
            if category in totals
        }

    def interval_occupancy(self, t0: float, t1: float) -> dict[str, float]:
        """Occupancy by category restricted to the half-open virtual-time
        interval ``[t0, t1)``: chained span durations clipped to the
        interval, plus their recorded stalls, which tile the timeline
        backward from each span's start (``start − stall₁ − stall₂ …``,
        the same composition the executors use), clipped the same way.

        Summing this query over any partition of the timeline reproduces
        :meth:`category_totals` exactly (up to float re-association) —
        the conservation guarantee :class:`repro.obs.series.TimeSeries`
        builds its windows on.  Needs every span, so an evicted
        (ring-buffer-sampled) recorder is refused, like the
        critical-path walk.
        """
        if t1 < t0:
            raise TraceError(
                f"interval_occupancy wants t0 <= t1, got [{t0}, {t1})"
            )
        if self.sampled:
            raise TraceError(
                f"interval occupancy needs every span, but this recorder "
                f"evicted {self.spans_evicted} of {self.spans_recorded} "
                f"(ring buffer max_spans={self.max_spans}); use the exact "
                f"category_totals() instead"
            )
        totals: dict[str, float] = {}

        def clip(category: str, lo: float, hi: float) -> None:
            overlap = min(hi, t1) - max(lo, t0)
            if overlap > 0:
                totals[category] = totals.get(category, 0.0) + overlap

        for span in self.spans:
            if not span.chain:
                continue
            clip(span.category, span.start, span.end)
            cursor = span.start
            for stall_category, amount in span.stalls:
                clip(stall_category, cursor - amount, cursor)
                cursor -= amount
        return {
            category: totals[category]
            for category in CATEGORIES
            if category in totals
        }

    def tracks(self) -> list[str]:
        """All track names, spans first, in first-appearance order."""
        seen: dict[str, None] = {}
        for span in self.spans:
            seen.setdefault(span.track, None)
        for instant in self.instants:
            seen.setdefault(instant.track, None)
        return list(seen)
