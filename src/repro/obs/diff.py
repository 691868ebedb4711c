"""Deterministic trace/attribution diffing: explain *why* a run moved.

The bench-regression gate can say "makespan drifted +12%"; this module
says where the time went.  Two runs are reduced to :class:`RunProfile`s
— the makespan, the category totals of the exact critical-path
attribution, the same totals refined per track (from the walk's
segments), and the per-op lifecycle stage aggregates — and
:func:`diff_profiles` aligns them into a ranked
:class:`RegressionExplanation`.

The headline property is inherited from the attribution's exactness:
each profile's category totals partition its own makespan, so the
per-category deltas **re-partition the makespan delta** exactly —
``sum(delta per category) == makespan_b − makespan_a`` up to float
re-association, enforced by :meth:`RegressionExplanation.check` and the
test suite.

Profiles come from finished recorders (:func:`profile_tracer`), from
exported Chrome-trace documents (:func:`profile_document`), or from the
``profile`` block every bench JSON embeds (:meth:`RunProfile.as_dict` /
:meth:`RunProfile.from_dict`) — a committed ``BENCH_<name>.json``
carries everything the differ reads, so ``scripts/obs.py gate`` diffs
the baseline's profile against the run's on every run, in-process, and
``scripts/obs.py diff`` takes a bench JSON or a trace on either side.
"""

from __future__ import annotations

from dataclasses import replace

from repro._records import record
from repro.obs.export import trace_from_chrome
from repro.obs.report import critical_path_report
from repro.obs.trace import TraceError, TraceRecorder


@record(frozen=True, slots=True)
class CategoryDelta:
    """One attribution category's movement between two runs."""

    category: str
    base: float
    other: float

    @property
    def delta(self) -> float:
        return self.other - self.base

    def as_dict(self) -> dict:
        return {
            "category": self.category,
            "base": self.base,
            "run": self.other,
            "delta": self.delta,
        }


@record(frozen=True, slots=True)
class TrackDelta:
    """One (track, category) cell's movement between two runs."""

    track: str
    category: str
    base: float
    other: float

    @property
    def delta(self) -> float:
        return self.other - self.base

    def as_dict(self) -> dict:
        return {
            "track": self.track,
            "category": self.category,
            "base": self.base,
            "run": self.other,
            "delta": self.delta,
        }


@record(frozen=True, slots=True)
class StageDelta:
    """One lifecycle stage transition's mean-per-op movement."""

    stage: str
    base_mean: float
    other_mean: float
    base_count: int
    other_count: int

    @property
    def delta(self) -> float:
        return self.other_mean - self.base_mean

    def as_dict(self) -> dict:
        return {
            "stage": self.stage,
            "base_mean": self.base_mean,
            "run_mean": self.other_mean,
            "base_count": self.base_count,
            "run_count": self.other_count,
            "delta": self.delta,
        }


@record(frozen=True, slots=True)
class RunProfile:
    """One run reduced to the aligned quantities the differ consumes."""

    label: str
    makespan: float
    #: category -> virtual time of the critical-path attribution
    #: (partitions the makespan).
    totals: dict[str, float]
    #: (track, category) -> additive occupancy per track; annotates each
    #: category delta with the track that moved it most.
    track_totals: dict[tuple[str, str], float]
    #: stage transition -> {"count", "total"} per-op lifecycle aggregates.
    stages: dict[str, dict]
    spans: int

    def as_dict(self) -> dict:
        """A plain-JSON snapshot of everything but the label (which
        names a side of one diff, not the run); ``from_dict`` inverts.
        ``track_totals`` nests as ``track -> category -> amount``."""
        tracks: dict[str, dict[str, float]] = {}
        for (track, category), amount in self.track_totals.items():
            tracks.setdefault(track, {})[category] = amount
        return {
            "makespan": self.makespan,
            "totals": dict(self.totals),
            "track_totals": tracks,
            "stages": {k: dict(v) for k, v in self.stages.items()},
            "spans": self.spans,
        }

    @classmethod
    def from_dict(cls, data: dict, label: str = "run") -> "RunProfile":
        try:
            return cls(
                label=label,
                makespan=float(data["makespan"]),
                totals=dict(data["totals"]),
                track_totals={
                    (track, category): amount
                    for track, categories in data["track_totals"].items()
                    for category, amount in categories.items()
                },
                stages={k: dict(v) for k, v in data["stages"].items()},
                spans=int(data["spans"]),
            )
        except (KeyError, TypeError, AttributeError, ValueError) as exc:
            raise TraceError(f"not a run profile: {exc!r}") from exc


def profile_tracer(
    tracer: TraceRecorder, label: str = "run"
) -> RunProfile:
    """Profile a finished recorder: its exact critical-path attribution,
    per-track occupancy and per-op lifecycle stage aggregates."""
    track_totals: dict[tuple[str, str], float] = {}
    for per_track in (tracer.busy_totals(), tracer.stall_totals()):
        for track, categories in per_track.items():
            for category, amount in categories.items():
                key = (track, category)
                track_totals[key] = track_totals.get(key, 0.0) + amount
    return RunProfile(
        label=label,
        makespan=tracer.makespan,
        totals=dict(critical_path_report(tracer).check().totals),
        track_totals=track_totals,
        stages=tracer.stage_totals(),
        spans=len(tracer.spans),
    )


def profile_document(document: dict, label: str = "run") -> RunProfile:
    """Profile an exported Chrome-trace document (see
    :func:`repro.obs.export.trace_from_chrome`).  The makespan comes
    from ``otherData.makespan`` (the span events carry it only through
    the display scale) and the per-op lifecycle aggregates from
    ``otherData.op_stages`` (lifecycles are not reconstructible from
    span events)."""
    profile = profile_tracer(trace_from_chrome(document), label=label)
    other = document.get("otherData", {})
    return replace(
        profile,
        makespan=float(other.get("makespan", profile.makespan)),
        stages={
            str(stage): dict(entry)
            for stage, entry in other.get("op_stages", {}).items()
        },
    )


def _ranked(deltas):
    return tuple(
        sorted(deltas, key=lambda d: (-abs(d.delta), str(d.as_dict())))
    )


def diff_profiles(
    base: RunProfile, other: RunProfile
) -> "RegressionExplanation":
    """Align two profiles category by category, track by track, and
    stage by stage; every key present on either side appears (missing
    side contributes 0), so nothing a run gained or lost can hide."""
    categories = _ranked(
        CategoryDelta(
            category=category,
            base=base.totals.get(category, 0.0),
            other=other.totals.get(category, 0.0),
        )
        for category in sorted(set(base.totals) | set(other.totals))
    )
    tracks = _ranked(
        TrackDelta(
            track=track,
            category=category,
            base=base.track_totals.get((track, category), 0.0),
            other=other.track_totals.get((track, category), 0.0),
        )
        for track, category in sorted(
            set(base.track_totals) | set(other.track_totals)
        )
    )
    stages = []
    for stage in sorted(set(base.stages) | set(other.stages)):
        base_entry = base.stages.get(stage, {"count": 0, "total": 0.0})
        other_entry = other.stages.get(stage, {"count": 0, "total": 0.0})
        stages.append(
            StageDelta(
                stage=stage,
                base_mean=(
                    base_entry["total"] / base_entry["count"]
                    if base_entry["count"]
                    else 0.0
                ),
                other_mean=(
                    other_entry["total"] / other_entry["count"]
                    if other_entry["count"]
                    else 0.0
                ),
                base_count=int(base_entry["count"]),
                other_count=int(other_entry["count"]),
            )
        )
    return RegressionExplanation(
        base=base,
        other=other,
        categories=categories,
        tracks=tracks,
        stages=_ranked(stages),
    )


@record(frozen=True, slots=True)
class RegressionExplanation:
    """A ranked, exact explanation of where two runs' time diverged."""

    base: RunProfile
    other: RunProfile
    #: Ranked by |delta|, largest mover first.
    categories: tuple[CategoryDelta, ...]
    tracks: tuple[TrackDelta, ...]
    stages: tuple[StageDelta, ...]

    @property
    def makespan_delta(self) -> float:
        return self.other.makespan - self.base.makespan

    @property
    def attributed_delta(self) -> float:
        return sum(delta.delta for delta in self.categories)

    def check(self, tolerance: float = 1e-6) -> "RegressionExplanation":
        """Assert the per-category deltas re-partition the makespan
        delta exactly (float re-association aside)."""
        bound = tolerance * max(
            1.0, abs(self.base.makespan), abs(self.other.makespan)
        )
        if abs(self.attributed_delta - self.makespan_delta) > bound:
            raise TraceError(
                f"category deltas do not re-partition the makespan "
                f"delta: sum {self.attributed_delta!r} vs "
                f"{self.makespan_delta!r}"
            )
        return self

    def worst_track(self, category: str) -> TrackDelta | None:
        """The track where ``category`` moved the most (same sign
        preference: the largest absolute contributor)."""
        candidates = [
            delta for delta in self.tracks if delta.category == category
        ]
        if not candidates:
            return None
        return max(candidates, key=lambda d: abs(d.delta))

    def render(self, top: int | None = None) -> list[str]:
        """Ranked human-readable explanation lines.  ``top`` bounds the
        category lines (None = all); the makespan header and the stage
        summary always print, so even a zero-delta diff reads clearly."""
        relative = (
            self.makespan_delta / self.base.makespan
            if self.base.makespan > 0
            else 0.0
        )
        lines = [
            f"trace diff ({self.base.label} -> {self.other.label}): "
            f"makespan {self.base.makespan:.2f} -> "
            f"{self.other.makespan:.2f} vt "
            f"({self.makespan_delta:+.2f}, {relative:+.1%})"
        ]
        shown = self.categories if top is None else self.categories[:top]
        for rank, delta in enumerate(shown, start=1):
            line = (
                f"  {rank}. {delta.category:<15}{delta.delta:>+9.2f} vt "
                f"({delta.base:.2f} -> {delta.other:.2f})"
            )
            worst = self.worst_track(delta.category)
            if worst is not None and abs(worst.delta) > 1e-9:
                line += (
                    f", worst on {worst.track} ({worst.delta:+.2f})"
                )
            lines.append(line)
        movers = [d for d in self.stages if abs(d.delta) > 0]
        if movers:
            lines.append(
                "  stages: "
                + ", ".join(
                    f"{d.stage} {d.delta:+.3f} vt/op"
                    for d in movers[: top if top is not None else None]
                )
            )
        if all(d.delta == 0 for d in self.categories):
            lines.append(
                "  no attribution movement: the run's profile matches "
                "the baseline's"
            )
        return lines


def explain_regression(
    base, other, labels: tuple[str, str] = ("base", "run")
) -> RegressionExplanation:
    """Diff two runs given recorders, profiles, exported Chrome-trace
    documents, or bench JSONs (their embedded ``profile`` block) — any
    mix; the one-call form of profile→diff ``scripts/obs.py`` uses.  The
    explanation is returned checked."""

    def as_profile(source, label: str) -> RunProfile:
        if isinstance(source, RunProfile):
            return source
        if isinstance(source, TraceRecorder):
            return profile_tracer(source, label=label)
        if isinstance(source, dict):
            if "traceEvents" in source:
                return profile_document(source, label=label)
            return RunProfile.from_dict(source.get("profile"), label=label)
        raise TraceError(
            f"cannot profile a {type(source).__name__}; pass a "
            f"TraceRecorder, a RunProfile, a Chrome-trace document or a "
            f"bench JSON"
        )

    # The deltas claim to re-partition the makespan delta: hold the
    # claim before anyone reads.
    return diff_profiles(
        as_profile(base, labels[0]), as_profile(other, labels[1])
    ).check()
