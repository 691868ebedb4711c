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

from repro._records import field, record
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


@record(frozen=True, slots=True)
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


@record(frozen=True, slots=True)
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
    The span list is the whole record: every total below is derived from
    it when asked, never accumulated beside it.
    """

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.instants: list[Instant] = []
        self.metrics = MetricsRegistry()
        #: op seq -> {stage: virtual timestamp}
        self._oplife: dict[int, dict[str, float]] = {}

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
            self.metrics.histogram("op_latency").observe(ts - life["submit"])
            self.metrics.counter("ops_committed").inc()

    def op_submit(self, seq: int, ts: float) -> None:
        self.op_stage(seq, "submit", ts)
        self.metrics.counter("ops_submitted").inc()

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

    def _fold(self) -> tuple[dict, dict, float]:
        """One walk over the chained spans in list order: per-track busy
        time by span category, per-track stall time by stall category
        (a track appears once one of its spans records a stall), and the
        last chained finish."""
        busy: dict[str, dict[str, float]] = {}
        stall: dict[str, dict[str, float]] = {}
        chain_end = 0.0
        for span in self.spans:
            if not span.chain:
                continue
            if span.end > chain_end:
                chain_end = span.end
            totals = busy.setdefault(span.track, {})
            totals[span.category] = totals.get(span.category, 0.0) + (
                span.end - span.start
            )
            if span.stalls:
                totals = stall.setdefault(span.track, {})
                for category, amount in span.stalls:
                    totals[category] = totals.get(category, 0.0) + amount
        return busy, stall, chain_end

    @property
    def makespan(self) -> float:
        """Last chained-span finish on the run's virtual timeline (the
        informational overlays, e.g. team-lane internals on the pool's
        private clock, do not count)."""
        return self._fold()[2]

    def busy_totals(self) -> dict[str, dict[str, float]]:
        """Per-track busy time by span category (chained spans only)."""
        return self._fold()[0]

    def stall_totals(self) -> dict[str, dict[str, float]]:
        """Per-track stall time by stall category (chained spans only)."""
        return self._fold()[1]

    def category_totals(self) -> dict[str, float]:
        """Occupancy totals by category across all tracks: summed span
        durations plus summed stall amounts.  Unlike the critical-path
        attribution (which charges one backward walk), these are
        *additive* — every lane's busy time counts."""
        busy, stall, _ = self._fold()
        totals: dict[str, float] = {}
        for per_track in (busy, stall):
            for track_totals in per_track.values():
                for category, amount in track_totals.items():
                    totals[category] = totals.get(category, 0.0) + amount
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
