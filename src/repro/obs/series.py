"""Virtual-time series: windowed op counters, latency and occupancy.

The registry (:mod:`repro.obs.metrics`) and the trace recorder
(:mod:`repro.obs.trace`) answer *how much* a run accumulated; an
open-loop arrival stream also needs *when* — per-window commit counts,
per-window latency percentiles, per-window occupancy — because a
saturating system looks fine in aggregate long after its tail windows
have collapsed.  :class:`TimeSeries` buckets those quantities over
fixed-width virtual-time windows, rebuilt by :meth:`TimeSeries.from_trace`
from a completed :class:`~repro.obs.trace.TraceRecorder`: lifecycle
timestamps for the op counters and the latency histogram, and
:meth:`~repro.obs.trace.TraceRecorder.interval_occupancy` for per-window
busy/stall occupancy.

The windows carry a **conservation guarantee**: summing any windowed
quantity over all windows reproduces the trace's own unwindowed total
exactly (up to float re-association) — the recorder's op counters and
latency histogram, and ``category_totals()``.  :meth:`check` enforces
it, like the attribution report's ``check()``: an instrumentation
change that drops or double-counts a sample breaks the sum before it
misleads anyone reading the dashboard.

Everything here measures virtual time; there is no wall-clock anywhere.
"""

from __future__ import annotations

import math

from repro.errors import ReproError
from repro.obs.metrics import Histogram
from repro.obs.trace import TraceRecorder

#: Relative tolerance for the conservation sums (floating-point
#: re-association across windows, not measurement slack).
TOLERANCE = 1e-6


class SeriesError(ReproError):
    """Misuse of a series, or a broken conservation sum."""


class TimeSeries:
    """Fixed-width virtual-time windows over one completed trace.

    Window ``i`` covers ``[origin + i*width, origin + (i+1)*width)``.
    Op counters and latency samples land in the window of their
    lifecycle timestamp; occupancy is the exact
    :meth:`~repro.obs.trace.TraceRecorder.interval_occupancy` of each
    window.  Build one with :meth:`from_trace`.
    """

    def __init__(
        self, tracer: TraceRecorder, width: float, origin: float
    ) -> None:
        self.width = float(width)
        self.origin = float(origin)
        self._tracer = tracer
        #: High-water window count (windows are stored sparsely).
        self._windows = 0
        self._counters: dict[str, dict[int, float]] = {}
        self._histograms: dict[str, dict[int, Histogram]] = {}
        self._occupancy: dict[str, dict[int, float]] = {}

    @classmethod
    def from_trace(
        cls, tracer: TraceRecorder, width: float
    ) -> "TimeSeries":
        """Rebuild the windows from a completed recorder.

        The origin extends below zero when a recorded stall tiles past
        the timeline start, so every clipped interval is covered and the
        occupancy windows sum to ``category_totals()`` exactly.
        """
        if width <= 0:
            raise SeriesError("window width must be positive")
        low = 0.0
        for span in tracer.spans:
            if span.chain and span.stalls:
                extent = span.start - sum(a for _, a in span.stalls)
                low = min(low, extent)
        origin = (
            math.floor(low / width) * width if low < 0 else 0.0
        )
        series = cls(tracer, width, origin)
        count = max(
            1, math.ceil((tracer.makespan - origin) / width - TOLERANCE)
        )
        series._windows = count
        for index in range(count):
            t0 = origin + index * width
            occupancy = tracer.interval_occupancy(t0, t0 + width)
            for category, amount in occupancy.items():
                series._occupancy.setdefault(category, {})[index] = amount
        for seq in tracer.op_seqs:
            life = tracer.lifecycle(seq)
            if "submit" not in life:
                continue
            series._record_counter("ops_submitted", 1.0, life["submit"])
            if "commit" in life:
                commit = life["commit"]
                series._record_counter("ops_committed", 1.0, commit)
                series._record_histogram(
                    "op_latency", commit - life["submit"], commit
                )
        return series

    # -- recording ------------------------------------------------------

    def _index(self, ts: float) -> int:
        if ts < self.origin:
            raise SeriesError(
                f"sample at {ts} precedes the series origin {self.origin}"
            )
        index = int((ts - self.origin) // self.width)
        self._windows = max(self._windows, index + 1)
        return index

    def _record_counter(self, name: str, amount: float, ts: float) -> None:
        index = self._index(ts)
        window = self._counters.setdefault(name, {})
        window[index] = window.get(index, 0.0) + amount

    def _record_histogram(self, name: str, value: float, ts: float) -> None:
        index = self._index(ts)
        window = self._histograms.setdefault(name, {})
        histogram = window.get(index)
        if histogram is None:
            histogram = window[index] = Histogram(name)
        histogram.observe(value)

    # -- views ----------------------------------------------------------

    @property
    def window_count(self) -> int:
        return self._windows

    def window_bounds(self, index: int) -> tuple[float, float]:
        t0 = self.origin + index * self.width
        return (t0, t0 + self.width)

    def _dense(self, sparse: dict[int, float]) -> list[float]:
        return [
            sparse.get(index, 0.0) for index in range(self._windows)
        ]

    def counter_series(self, name: str) -> list[float]:
        """Per-window increments of one counter (0.0 where silent)."""
        return self._dense(self._counters.get(name, {}))

    def histogram_series(self, name: str) -> list[Histogram | None]:
        """Per-window histograms (``None`` where no sample landed)."""
        window = self._histograms.get(name, {})
        return [window.get(index) for index in range(self._windows)]

    def percentile_series(self, name: str, q: float) -> list[float]:
        """Per-window percentile of one histogram (0.0 where empty)."""
        return [
            histogram.percentile(q) if histogram is not None else 0.0
            for histogram in self.histogram_series(name)
        ]

    def occupancy_series(self, category: str) -> list[float]:
        """Per-window occupancy of one category."""
        return self._dense(self._occupancy.get(category, {}))

    # -- conservation ---------------------------------------------------

    def _expected_totals(
        self,
    ) -> tuple[dict[str, float], dict[str, tuple[float, float]], dict]:
        """The trace's unwindowed totals the windows must sum to:
        ``(counters, histograms as (count, total), occupancy)``."""
        metrics = self._tracer.metrics
        counters = {
            name: metrics.counter(name).value
            for name in ("ops_submitted", "ops_committed")
            if name in metrics
        }
        histograms: dict[str, tuple[float, float]] = {}
        if "op_latency" in metrics:
            histogram = metrics.histogram("op_latency")
            histograms["op_latency"] = (
                float(histogram.count),
                histogram.total,
            )
        return counters, histograms, self._tracer.category_totals()

    def check(self) -> "TimeSeries":
        """Enforce the conservation guarantee: every windowed sum equals
        its unwindowed source total exactly (within float tolerance).
        Raises :class:`SeriesError` listing each broken sum."""
        counters, histograms, occupancy = self._expected_totals()
        failures: list[str] = []

        def verify(label: str, windowed: float, total: float) -> None:
            bound = TOLERANCE * max(abs(total), 1.0)
            if abs(windowed - total) > bound:
                failures.append(
                    f"{label}: windows sum to {windowed!r}, source "
                    f"total is {total!r}"
                )

        for name, total in counters.items():
            verify(
                f"counter {name!r}",
                sum(self.counter_series(name)),
                total,
            )
        for name, (count, total) in histograms.items():
            windows = [
                histogram
                for histogram in self.histogram_series(name)
                if histogram is not None
            ]
            verify(
                f"histogram {name!r} count",
                float(sum(h.count for h in windows)),
                count,
            )
            verify(
                f"histogram {name!r} total",
                sum(h.total for h in windows),
                total,
            )
        for category, total in occupancy.items():
            verify(
                f"occupancy {category!r}",
                sum(self.occupancy_series(category)),
                total,
            )
        stray = set(self._occupancy) - set(occupancy)
        if stray:
            failures.append(
                f"windowed occupancy for categories the source never "
                f"recorded: {sorted(stray)}"
            )
        if failures:
            raise SeriesError(
                "series conservation violated:\n  " + "\n  ".join(failures)
            )
        return self

    # -- export ---------------------------------------------------------

    def as_dict(self) -> dict:
        """JSON-ready export: dense per-window arrays plus the source
        totals, so ``scripts/validate_series.py`` can re-verify the
        conservation sums without re-running anything."""
        counters, histograms, occupancy = self._expected_totals()
        return {
            "width": self.width,
            "origin": self.origin,
            "windows": self._windows,
            "counters": {
                name: self.counter_series(name)
                for name in sorted(self._counters)
            },
            "histograms": {
                name: [
                    histogram.summary()
                    if histogram is not None
                    else None
                    for histogram in self.histogram_series(name)
                ]
                for name in sorted(self._histograms)
            },
            "occupancy": {
                category: self.occupancy_series(category)
                for category in sorted(self._occupancy)
            },
            "totals": {
                "counters": dict(sorted(counters.items())),
                "histograms": {
                    name: {"count": count, "total": total}
                    for name, (count, total) in sorted(histograms.items())
                },
                "occupancy": dict(sorted(occupancy.items())),
            },
        }
