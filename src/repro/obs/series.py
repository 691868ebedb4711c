"""Per-window commit latency over a finished trace, and its p99 verdict.

An open-loop stream needs *when*, not just *how much*: a saturating
system looks fine in aggregate long after its tail windows collapsed.
:class:`TimeSeries` files each committed op's latency (commit − submit)
into the fixed-width virtual-time window its commit falls in, so the
window counts sum to the recorder's ``ops_committed`` by construction.
:class:`SLOMonitor` judges each window's p99 against a target: breach
windows (an empty window cannot breach), error-budget burn over a
rolling horizon (breach rate over the budgeted rate; burn above 1.0 is
the saturation signal), and optionally one ``slo`` instant per breach
in the run's trace.  Both are pure readers of virtual time.
"""

from __future__ import annotations

import math

from repro._records import field, record
from repro.errors import ReproError
from repro.obs.metrics import Histogram
from repro.obs.trace import TraceRecorder

#: Relative slack on the window count: a makespan that is a whole number
#: of widths up to float re-association opens no empty trailing window.
TOLERANCE = 1e-6


class SeriesError(ReproError):
    """A bad window width, a bad objective, or a commit before time 0."""


class TimeSeries:
    """Per-window commit latency over one completed trace.

    Window ``i`` covers ``[i*width, (i+1)*width)``; ``latency[i]`` is the
    histogram of the latencies of the ops that committed in it (``None``
    where none did).  Build one with :meth:`from_trace`.
    """

    def __init__(self, width: float, latency: list[Histogram | None]) -> None:
        self.width = width
        self.latency = latency

    @classmethod
    def from_trace(
        cls, tracer: TraceRecorder, width: float
    ) -> "TimeSeries":
        """One walk over the recorder's lifecycles.  The windows cover
        the makespan, and extend to the last commit if it lands later."""
        if width <= 0:
            raise SeriesError("window width must be positive")
        width = float(width)
        count = max(1, math.ceil(tracer.makespan / width - TOLERANCE))
        latency: list[Histogram | None] = [None] * count
        for seq in tracer.op_seqs:
            life = tracer.lifecycle(seq)
            if "submit" not in life or "commit" not in life:
                continue
            commit = life["commit"]
            if commit < 0:
                raise SeriesError(
                    f"op {seq} commits at {commit}, before time 0"
                )
            index = int(commit // width)
            if index >= len(latency):
                latency.extend([None] * (index + 1 - len(latency)))
            histogram = latency[index]
            if histogram is None:
                histogram = latency[index] = Histogram("op_latency")
            histogram.observe(commit - life["submit"])
        return cls(width, latency)

    @property
    def window_count(self) -> int:
        return len(self.latency)

    def committed(self) -> list[float]:
        """Ops committed per window (0.0 where silent)."""
        return [
            float(histogram.count) if histogram is not None else 0.0
            for histogram in self.latency
        ]

    def percentile(self, q: float) -> list[float]:
        """Per-window latency percentile (0.0 where silent)."""
        return [
            histogram.percentile(q) if histogram is not None else 0.0
            for histogram in self.latency
        ]


@record(frozen=True, slots=True)
class SLOWindow:
    """One window's verdict against the objective."""

    index: int
    start: float
    end: float
    count: int
    p99: float
    breached: bool
    #: Error-budget burn of the horizon ending at this window.
    burn: float


@record(slots=True)
class SLOReport:
    """The scan's outcome; ``met`` is the headline verdict."""

    target_p99: float
    horizon: int
    budget: float
    windows: list[SLOWindow] = field(default_factory=list)

    @property
    def breaches(self) -> list[int]:
        return [w.index for w in self.windows if w.breached]

    @property
    def max_burn(self) -> float:
        return max((w.burn for w in self.windows), default=0.0)

    @property
    def met(self) -> bool:
        """True when no rolling horizon burned past its error budget."""
        return self.max_burn <= 1.0

    def as_dict(self) -> dict:
        return {
            "target_p99": self.target_p99,
            "horizon": self.horizon,
            "budget": self.budget,
            "breaches": self.breaches,
            "breach_windows": len(self.breaches),
            "max_burn": self.max_burn,
            "met": self.met,
        }


class SLOMonitor:
    """Scan a series' latency windows against a per-window p99 bound.

    ``budget`` is the tolerated breach fraction over any rolling
    ``horizon`` of windows: ``budget=0.1, horizon=10`` tolerates one
    breached window per ten before :attr:`SLOReport.met` flips false."""

    def __init__(
        self, target_p99: float, horizon: int = 8, budget: float = 0.1
    ) -> None:
        if target_p99 <= 0:
            raise SeriesError("the p99 target must be positive")
        if horizon < 1:
            raise SeriesError("the rolling horizon needs at least one window")
        if not 0 < budget <= 1:
            raise SeriesError("the error budget is a fraction in (0, 1]")
        self.target_p99 = float(target_p99)
        self.horizon = horizon
        self.budget = float(budget)

    def scan(
        self, series: TimeSeries, tracer: TraceRecorder | None = None
    ) -> SLOReport:
        """Judge every window; optionally record breach instants into
        ``tracer`` (one ``slo`` instant per breach, at the window end)."""
        report = SLOReport(self.target_p99, self.horizon, self.budget)
        breached: list[bool] = []
        for index, histogram in enumerate(series.latency):
            start = index * series.width
            end = start + series.width
            count = histogram.count if histogram is not None else 0
            p99 = histogram.p99 if histogram is not None else 0.0
            is_breach = count > 0 and p99 > self.target_p99
            breached.append(is_breach)
            window = breached[max(0, index + 1 - self.horizon) :]
            burn = (sum(window) / len(window)) / self.budget
            report.windows.append(
                SLOWindow(index, start, end, count, p99, is_breach, burn)
            )
            if is_breach and tracer is not None:
                tracer.instant(
                    "slo",
                    f"p99 breach w{index}",
                    end,
                    args={
                        "p99": p99,
                        "target": self.target_p99,
                        "count": count,
                        "burn": burn,
                    },
                )
        return report
