"""Unified metrics registry: counters, gauges, fixed-bucket histograms.

The hand-maintained stats aggregates (:class:`repro.engine.stats.EngineStats`,
:class:`repro.cluster.stats.ClusterStats`) answer *how much* of each quantity
a run accumulated; the registry is the shared vocabulary those aggregates
project into (``EngineStats.registry()`` / ``ClusterStats.registry()``) and
the sink the tracer feeds as ops commit — most importantly the per-op
latency histogram behind the p50/p99 figures the open-loop SLO work gates on.

Everything here measures virtual time (operation units + simulated
consensus latency); there is deliberately no wall-clock anywhere.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from numbers import Real
from typing import Iterator, Mapping

from repro.errors import ReproError

#: Default histogram bucket upper bounds: powers of two in virtual-time
#: units, wide enough for any workload the benches run (the final implicit
#: bucket is unbounded).  Fixed buckets keep percentile estimates
#: deterministic — the same run always reports the same p50/p99.
DEFAULT_BUCKETS: tuple[float, ...] = tuple(
    float(1 << exp) for exp in range(15)
)


class MetricsError(ReproError):
    """Misuse of the registry (type clash, bad quantile, bad bucket)."""


@dataclass(slots=True)
class Counter:
    """A monotonically non-decreasing total."""

    name: str
    value: float = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise MetricsError(f"counter {self.name!r} cannot decrease")
        self.value += amount


@dataclass(slots=True)
class Gauge:
    """A point-in-time value (set freely, last write wins)."""

    name: str
    value: float = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)


@dataclass(slots=True)
class Histogram:
    """Fixed-bucket histogram over non-negative virtual-time samples.

    ``buckets`` holds the *upper bounds* of each bucket; a final implicit
    unbounded bucket catches overflow.  Percentiles interpolate linearly
    inside the covering bucket (the overflow bucket reports the observed
    maximum), so estimates are deterministic functions of the samples.
    """

    name: str
    buckets: tuple[float, ...] = DEFAULT_BUCKETS
    counts: list[int] = field(default_factory=list)
    count: int = 0
    total: float = 0.0
    min: float = 0.0
    max: float = 0.0

    def __post_init__(self) -> None:
        bounds = tuple(float(b) for b in self.buckets)
        if not bounds or any(
            b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])
        ):
            raise MetricsError(
                f"histogram {self.name!r} needs strictly increasing buckets"
            )
        self.buckets = bounds
        if not self.counts:
            self.counts = [0] * (len(bounds) + 1)

    def observe(self, value: float) -> None:
        value = float(value)
        if value < 0:
            raise MetricsError(
                f"histogram {self.name!r} takes non-negative samples"
            )
        if not self.count or value < self.min:
            self.min = value
        if not self.count or value > self.max:
            self.max = value
        self.count += 1
        self.total += value
        self.counts[bisect_left(self.buckets, value)] += 1

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def percentile(self, q: float) -> float:
        """The q-th percentile (q in [0, 1]), linearly interpolated
        within the covering bucket; 0.0 on an empty histogram.

        Estimates are clamped to the observed ``[min, max]``: bucket
        interpolation knows only the bucket bounds, so a lone sample (or
        a bucket holding every sample) would otherwise report a value
        below anything actually observed."""
        if not 0.0 <= q <= 1.0:
            raise MetricsError(f"percentile wants q in [0, 1], got {q}")
        if not self.count:
            return 0.0
        rank = q * self.count
        cumulative = 0
        for index, bucket_count in enumerate(self.counts):
            previous = cumulative
            cumulative += bucket_count
            if cumulative >= rank and bucket_count:
                if index >= len(self.buckets):
                    return self.max
                low = self.buckets[index - 1] if index else 0.0
                high = self.buckets[index]
                fraction = (rank - previous) / bucket_count
                estimate = low + (high - low) * fraction
                return min(max(estimate, self.min), self.max)
        return self.max

    @property
    def p50(self) -> float:
        return self.percentile(0.50)

    @property
    def p99(self) -> float:
        return self.percentile(0.99)

    @property
    def p999(self) -> float:
        return self.percentile(0.999)

    def summary(self) -> dict:
        return {
            "count": self.count,
            "mean": self.mean,
            "min": self.min,
            "max": self.max,
            "p50": self.p50,
            "p99": self.p99,
            "p999": self.p999,
        }


class MetricsRegistry:
    """A namespace of counters, gauges, and histograms.

    Instruments are created on first use and addressed by name; asking
    for an existing name with a different instrument kind is an error
    (silent aliasing would corrupt both series).
    """

    def __init__(self) -> None:
        self._instruments: dict[str, Counter | Gauge | Histogram] = {}

    def _get(self, name: str, kind: type, factory):
        existing = self._instruments.get(name)
        if existing is not None:
            if not isinstance(existing, kind):
                raise MetricsError(
                    f"metric {name!r} already registered as "
                    f"{type(existing).__name__}, not {kind.__name__}"
                )
            return existing
        instrument = self._instruments[name] = factory()
        return instrument

    def counter(self, name: str) -> Counter:
        return self._get(name, Counter, lambda: Counter(name))

    def gauge(self, name: str) -> Gauge:
        return self._get(name, Gauge, lambda: Gauge(name))

    def histogram(
        self, name: str, buckets: tuple[float, ...] = DEFAULT_BUCKETS
    ) -> Histogram:
        return self._get(
            name, Histogram, lambda: Histogram(name, buckets=buckets)
        )

    # ------------------------------------------------------------------

    def __contains__(self, name: str) -> bool:
        return name in self._instruments

    def __iter__(self) -> Iterator[str]:
        return iter(self._instruments)

    def get(self, name: str) -> Counter | Gauge | Histogram | None:
        return self._instruments.get(name)

    def value(self, name: str) -> float:
        """Scalar view: counter/gauge value, histogram mean."""
        instrument = self._instruments.get(name)
        if instrument is None:
            raise MetricsError(f"no metric named {name!r}")
        if isinstance(instrument, Histogram):
            return instrument.mean
        return instrument.value

    def as_dict(self) -> dict:
        """JSON-ready snapshot: scalars for counters/gauges, summary
        dicts (count/mean/min/max/p50/p99) for histograms."""
        snapshot: dict = {}
        for name in sorted(self._instruments):
            instrument = self._instruments[name]
            if isinstance(instrument, Histogram):
                snapshot[name] = instrument.summary()
            else:
                snapshot[name] = instrument.value
        return snapshot

    # ------------------------------------------------------------------

    @classmethod
    def from_summary(
        cls, summary: Mapping, prefix: str = ""
    ) -> "MetricsRegistry":
        """Project a nested stats summary (``EngineStats.as_dict()`` /
        ``ClusterStats.as_dict()`` output) into a registry of gauges,
        flattening nested mappings with dotted names.  Non-numeric leaves
        are skipped — the registry carries measurements, not labels."""
        registry = cls()
        registry.merge_summary(summary, prefix)
        return registry

    def merge_summary(self, summary: Mapping, prefix: str = "") -> None:
        for key, value in summary.items():
            name = f"{prefix}{key}"
            if isinstance(value, Mapping):
                self.merge_summary(value, f"{name}.")
            elif isinstance(value, bool):
                self.gauge(name).set(1.0 if value else 0.0)
            elif isinstance(value, Real):
                self.gauge(name).set(float(value))
