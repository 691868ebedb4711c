"""Per-track timeline occupancy and team-lane pool lifecycle attribution.

The critical-path report answers *what the makespan is made of* along
one backward walk; this module answers *what every lane was doing* for
the whole run: each chained track's virtual timeline splits into
**busy** (span durations, by span category), **stall** (recorded waits,
by stall category), and **idle** (the remainder), and the three
fractions sum to 1 per track by construction — the same exact-sum
discipline :meth:`repro.obs.report.AttributionReport.check` enforces,
here as "a track cannot be more than 100% occupied".  Tracks that never
execute anything (the router's dispatch gate, whose recorded waits
belong to concurrently queued units and overlap freely) are reported as
:class:`QueueWait` aggregates instead of fractions.

The inputs are the recorder's per-track occupancy totals
(:meth:`TraceRecorder.busy_totals` / :meth:`~TraceRecorder.stall_totals`),
derived from its span list.

Team-lane pools (:class:`repro.net.team_lanes.TeamLanePool`) run on a
private clock, so their lanes appear here not as timeline tracks but as
*lifecycle churn*: spin-up and idle-GC instants recorded by the pool
(``lane spin-up`` / ``lane gc`` on the ``teamlanes.pool`` track),
summarized per run by :func:`lane_churn`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.obs.trace import TraceError, TraceRecorder

#: Track the team-lane pool records its lifecycle instants on (the pool
#: itself has no timeline extent — its lanes run on a private clock).
POOL_TRACK = "teamlanes.pool"


@dataclass(frozen=True, slots=True)
class TrackUtilization:
    """One chained track's occupancy over ``[0, extent]``."""

    track: str
    #: The run's makespan — every track is judged against the same
    #: global timeline, so an early-finishing lane shows up as idle.
    extent: float
    busy: dict[str, float]
    stalls: dict[str, float]

    @property
    def busy_time(self) -> float:
        return sum(self.busy.values())

    @property
    def stall_time(self) -> float:
        return sum(self.stalls.values())

    @property
    def idle_time(self) -> float:
        return self.extent - self.busy_time - self.stall_time

    def fractions(self) -> dict[str, float]:
        """``{"busy", "stall", "idle"}`` fractions of the extent; they
        sum to 1 by construction (idle is the remainder)."""
        if self.extent <= 0:
            return {"busy": 0.0, "stall": 0.0, "idle": 0.0}
        return {
            "busy": self.busy_time / self.extent,
            "stall": self.stall_time / self.extent,
            "idle": self.idle_time / self.extent,
        }

    def as_dict(self) -> dict:
        return {
            "busy": dict(self.busy),
            "stalls": dict(self.stalls),
            "idle": self.idle_time,
            "fractions": self.fractions(),
        }


@dataclass(frozen=True, slots=True)
class QueueWait:
    """A track that never executes — it only queues.

    The router's dispatch gate records zero-length chained spans whose
    stalls belong to *concurrently waiting* units, so the waits overlap
    and cannot be read as timeline occupancy (their sum routinely
    exceeds the makespan).  Such tracks are reported as aggregate wait
    by category instead of busy/stall/idle fractions.
    """

    track: str
    waits: dict[str, float]

    @property
    def total(self) -> float:
        return sum(self.waits.values())

    def as_dict(self) -> dict:
        return {"waits": dict(self.waits), "total": self.total}


@dataclass(frozen=True, slots=True)
class LaneChurn:
    """Team-lane pool lifecycle over one run, from the pool's instants."""

    #: Lane provisioning events (``lane spin-up``) — repeat contention
    #: among the same spenders reuses a live lane and records nothing.
    spinups: int
    #: Idle-GC events (``lane gc``) — each reclaims one lane's replicas
    #: and private network after ``idle_ttl`` unused rounds.
    collections: int
    #: High-water mark of lanes held live at any instant.
    peak_live: int
    #: Distinct teams that ever got a lane (re-provisioning after GC
    #: names the same team again).
    teams: tuple[str, ...]

    def as_dict(self) -> dict:
        return {
            "spinups": self.spinups,
            "collections": self.collections,
            "peak_live": self.peak_live,
            "teams": len(self.teams),
        }


@dataclass(frozen=True, slots=True)
class UtilizationReport:
    """Per-track occupancy plus pool churn for one traced run."""

    makespan: float
    tracks: tuple[TrackUtilization, ...]
    queues: tuple[QueueWait, ...] = ()
    lanes: LaneChurn | None = None

    def check(self, tolerance: float = 1e-6) -> "UtilizationReport":
        """Enforce the exact-sum discipline: on every track the busy /
        stall / idle split must tile ``[0, makespan]`` — idle is the
        remainder by construction, so the real invariants are that no
        component is negative (an over-committed track means an
        instrumentation site double-billed time) and the fractions sum
        to 1.  Raises :class:`TraceError`; returns self for chaining."""
        bound = tolerance * max(1.0, self.makespan)
        for track in self.tracks:
            if track.idle_time < -bound:
                raise TraceError(
                    f"track {track.track!r} is over-committed: busy "
                    f"{track.busy_time!r} + stall {track.stall_time!r} "
                    f"exceeds the makespan {self.makespan!r}"
                )
            if any(
                amount < 0
                for totals in (track.busy, track.stalls)
                for amount in totals.values()
            ):
                raise TraceError(
                    f"track {track.track!r} carries a negative "
                    f"occupancy total"
                )
            fractions = track.fractions()
            if self.makespan > 0 and (
                abs(sum(fractions.values()) - 1.0) > tolerance
            ):
                raise TraceError(
                    f"track {track.track!r} fractions do not sum to 1: "
                    f"{fractions}"
                )
        for queue in self.queues:
            if any(amount < 0 for amount in queue.waits.values()):
                raise TraceError(
                    f"queue track {queue.track!r} carries a negative wait"
                )
        return self

    def track(self, name: str) -> TrackUtilization:
        for entry in self.tracks:
            if entry.track == name:
                return entry
        raise TraceError(f"no chained track named {name!r}")

    def as_dict(self) -> dict:
        return {
            "makespan": self.makespan,
            "tracks": {
                entry.track: entry.as_dict() for entry in self.tracks
            },
            "queues": {
                entry.track: entry.as_dict() for entry in self.queues
            },
            "lanes": self.lanes.as_dict() if self.lanes else None,
        }

    def render(self) -> list[str]:
        """Human-readable occupancy table for bench/example output."""
        lines = [
            f"utilization (virtual time {self.makespan:.2f})",
            "  track                      busy    stall     idle",
        ]
        for entry in self.tracks:
            fractions = entry.fractions()
            lines.append(
                f"  {entry.track:<24}{fractions['busy']:>7.1%}"
                f"{fractions['stall']:>9.1%}{fractions['idle']:>9.1%}"
            )
        for queue in self.queues:
            waited = ", ".join(
                f"{category} {amount:.2f}"
                for category, amount in sorted(queue.waits.items())
                if amount > 0
            )
            lines.append(
                f"  {queue.track:<24}queue wait: {waited or 'none'} "
                f"(concurrent units, overlaps allowed)"
            )
        if self.lanes is not None:
            lines.append(
                f"  team lanes: {self.lanes.spinups} spun up, "
                f"{self.lanes.collections} collected, "
                f"peak {self.lanes.peak_live} live, "
                f"{len(self.lanes.teams)} distinct teams"
            )
        return lines


def lane_churn(tracer: TraceRecorder) -> LaneChurn | None:
    """Summarize the team-lane pool's lifecycle instants, or None when
    the run never touched a pool."""
    spinups = 0
    collections = 0
    peak_live = 0
    teams: dict[str, None] = {}
    for instant in tracer.instants:
        if instant.track != POOL_TRACK:
            continue
        live = int(instant.args.get("live", 0))
        if live > peak_live:
            peak_live = live
        if instant.name == "lane spin-up":
            spinups += 1
            teams.setdefault(str(instant.args.get("team", "")), None)
        elif instant.name == "lane gc":
            collections += 1
    if not spinups and not collections:
        return None
    return LaneChurn(
        spinups=spinups,
        collections=collections,
        peak_live=peak_live,
        teams=tuple(teams),
    )


def utilization_report(tracer: TraceRecorder) -> UtilizationReport:
    """Build the per-track occupancy report for one traced run.

    Only *chained* tracks appear — informational overlays (sync-phase
    extents, team-lane internals) live on private clocks and would make
    fractions meaningless.  Tracks that execute (nonzero busy time) get
    busy/stall/idle fractions; tracks that only queue (the router's
    dispatch gate, whose per-unit waits overlap) are reported as
    :class:`QueueWait` aggregates.
    """
    busy = tracer.busy_totals()
    stall = tracer.stall_totals()
    makespan = tracer.makespan
    tracks: list[TrackUtilization] = []
    queues: list[QueueWait] = []
    # busy_totals is keyed in first-chained-appearance order; a track
    # with only stalls cannot exist (stalls ride on spans).
    for track in busy:
        busy_time = sum(busy[track].values())
        stalls = stall.get(track, {})
        if busy_time <= 0 and sum(stalls.values()) > 0:
            queues.append(QueueWait(track=track, waits=dict(stalls)))
            continue
        tracks.append(
            TrackUtilization(
                track=track,
                extent=makespan,
                busy=busy[track],
                stalls=stalls,
            )
        )
    return UtilizationReport(
        makespan=makespan,
        tracks=tuple(tracks),
        queues=tuple(queues),
        lanes=lane_churn(tracer),
    )
