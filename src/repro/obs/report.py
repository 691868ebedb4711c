"""Makespan attribution: walk a committed run's spans backward and name
every unit of virtual time.

The executors compose every chained span's start as
``start = ready + stall₁ + stall₂ + …`` and record the stalls on the
span, so the walk is exact rather than heuristic: begin at the span that
finishes last, charge its duration to ``execute``, charge its stalls to
their categories, then jump to the latest span finishing at or before
the remaining frontier.  Any gap the jump crosses is time no recorded
activity explains locally — message flight and routing — charged to
``network``.  By construction the category totals partition
``[0, makespan]``, which CI re-checks on every exported smoke trace.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.obs.trace import CATEGORIES, Span, TraceError, TraceRecorder

#: Slack for float comparisons on the virtual timeline.  Virtual times
#: are small sums of small floats; anything beyond 1e-9 is a real gap.
_EPS = 1e-9


@dataclass(frozen=True, slots=True)
class PathSegment:
    """One attributed interval of the walked critical path (latest
    first in :attr:`AttributionReport.segments`)."""

    category: str
    start: float
    end: float
    track: str
    name: str

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass(frozen=True, slots=True)
class AttributionReport:
    """Category totals partitioning one run's virtual makespan."""

    makespan: float
    totals: dict[str, float] = field(default_factory=dict)
    segments: tuple[PathSegment, ...] = ()

    @property
    def attributed(self) -> float:
        return sum(self.totals.values())

    def check(self, tolerance: float = 1e-6) -> "AttributionReport":
        """Assert the category totals sum to the makespan (exact up to
        float re-association); raises :class:`TraceError` otherwise.
        Returns the report so call sites can chain."""
        if abs(self.attributed - self.makespan) > tolerance * max(
            1.0, self.makespan
        ):
            raise TraceError(
                f"attribution totals do not partition the makespan: "
                f"sum {self.attributed!r} vs makespan {self.makespan!r}"
            )
        return self

    def share(self, category: str) -> float:
        if self.makespan <= 0:
            return 0.0
        return self.totals.get(category, 0.0) / self.makespan

    def as_dict(self) -> dict:
        return {
            "makespan": self.makespan,
            "totals": {
                category: self.totals.get(category, 0.0)
                for category in CATEGORIES
            },
        }

    def render(self) -> list[str]:
        """Human-readable summary lines for bench/example output."""
        lines = [
            f"makespan attribution (virtual time {self.makespan:.2f})",
            "  category         time      share",
        ]
        for category in CATEGORIES:
            amount = self.totals.get(category, 0.0)
            if amount <= 0 and category != "execute":
                continue
            lines.append(
                f"  {category:<15}{amount:>9.2f}   {self.share(category):>6.1%}"
            )
        return lines


def _latest_ending_at_or_before(
    spans: list[Span], frontier: float, visited: set[int]
) -> tuple[int, Span] | None:
    """The unvisited chained span with the greatest finish ≤ frontier;
    ties prefer the later start (a zero-length dispatch decision over a
    long lane span ending at the same instant), then recording order."""
    best: tuple[float, float, int] | None = None
    best_span: Span | None = None
    for index, span in enumerate(spans):
        if index in visited or span.end > frontier + _EPS:
            continue
        key = (span.end, span.start, index)
        if best is None or key > best:
            best = key
            best_span = span
    if best is None or best_span is None:
        return None
    return best[2], best_span


def critical_path_report(tracer: TraceRecorder) -> AttributionReport:
    """Attribute a finished run's makespan to named categories.

    Walks the chained spans backward from the run's last finish,
    charging execution, recorded stalls, and unexplained gaps
    (``network``) until the timeline origin.  The returned totals
    partition ``[0, makespan]`` exactly (up to float re-association).
    """
    spans = [span for span in tracer.spans if span.chain]
    totals: dict[str, float] = {}
    segments: list[PathSegment] = []
    if not spans:
        return AttributionReport(makespan=0.0)

    def charge(
        category: str, start: float, end: float, track: str, name: str
    ) -> None:
        if end - start <= _EPS:
            return
        totals[category] = totals.get(category, 0.0) + (end - start)
        segments.append(
            PathSegment(
                category=category,
                start=start,
                end=end,
                track=track,
                name=name,
            )
        )

    makespan = max(span.end for span in spans)
    frontier = makespan
    visited: set[int] = set()
    while frontier > _EPS:
        found = _latest_ending_at_or_before(spans, frontier, visited)
        if found is None:
            # Nothing recorded explains [0, frontier): before the first
            # span there is only arrival/flight time.
            charge("network", 0.0, frontier, "", "origin gap")
            frontier = 0.0
            break
        index, span = found
        visited.add(index)
        if span.end < frontier - _EPS:
            charge("network", span.end, frontier, span.track, "gap")
            frontier = span.end
        charge(span.category, span.start, frontier, span.track, span.name)
        frontier = min(frontier, span.start)
        for stall_category, amount in span.stalls:
            if amount <= _EPS:
                continue
            charge(
                stall_category,
                frontier - amount,
                frontier,
                span.track,
                span.name,
            )
            frontier -= amount
    return AttributionReport(
        makespan=makespan, totals=totals, segments=tuple(segments)
    )
