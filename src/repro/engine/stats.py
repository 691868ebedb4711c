"""Engine measurements: what the theory's trichotomy buys in practice.

Every round the executor records how the window split (wave / barrier /
escalated), the wave's critical path, and the virtual time each phase
consumed.  The aggregate exposes the headline quantities of the paper's
scalability argument: the conflict rate (how much of the traffic actually
needs total order), the escalation rate, and the speedup of lane-parallel
execution over the serial baseline.

All times are in the engine's virtual clock (operation units + simulated
consensus latency), matching the repository's simulation philosophy —
wall-clock threading in Python would measure the GIL, not the algorithm.
"""

from __future__ import annotations

from dataclasses import fields
from typing import TYPE_CHECKING

from repro._records import field, record

if TYPE_CHECKING:  # pragma: no cover
    from repro.sync.escalation import SyncRoundResult


@record(frozen=True, slots=True)
class WaveStats:
    """One scheduling round.

    ``wave_ops`` counts the fast path (singleton components, freely
    parallel); ``barrier_ops`` the chain members ordered locally without
    consensus; ``escalated_ops`` the chain members that paid for an
    ordering lane.  What that ordering cost is the round's
    :class:`~repro.sync.escalation.SyncRoundResult`, which
    :meth:`EngineStats.record_round` folds and this record does not keep.
    """

    index: int
    window: int
    wave_ops: int
    barrier_ops: int
    escalated_ops: int
    lanes_used: int
    critical_path: int
    virtual_time: float
    #: Virtual time this round's ops spent blocked on cross-round
    #: frontier dependencies or their sync lanes (``stall_time_contended``
    #: is the share attributed to contended components), how long this
    #: round's execution overlapped the previous round's, how many
    #: windows were in flight when this one was classified, and the
    #: round's absolute completion on the engine clock.
    stall_time: float
    stall_time_contended: float
    overlap_time: float
    inflight: int
    completed_at: float
    #: Longest component critical path and widest component antichain
    #: this round, plus the round's chained-op count against the sum of
    #: component critical paths — the intrinsic intra-component
    #: parallelism the DAG schedule can exploit.
    dag_critical_path: int
    dag_width: int
    dag_chain_ops: int
    dag_critical_ops: int


def summary_dict(
    stats, derived: tuple[str, ...], logs: tuple[str, ...]
) -> dict:
    """The JSON-ready summary of an aggregate stats dataclass: every
    field but the per-round ``logs``, plus the ``derived`` properties.

    Derived from :func:`dataclasses.fields`, so a counter added to the
    class *cannot* drift out of the bench JSON; histograms (dicts keyed
    by team size) get sorted string keys.
    """
    summary = {}
    for entry in fields(stats):
        if entry.name in logs:
            continue
        value = getattr(stats, entry.name)
        if isinstance(value, dict):
            value = {str(k): v for k, v in sorted(value.items())}
        summary[entry.name] = value
    for name in derived:
        summary[name] = getattr(stats, name)
    return summary


def fold_sync_bill(
    stats, sync: SyncRoundResult, histogram: dict[int, int]
) -> None:
    """Fold one round's sync bill into an aggregate stats object: the
    tier split of ops and messages, one ``histogram`` count per team
    lane by size, the concurrent-team high-water mark, and the phase's
    virtual time and messages."""
    stats.team_ops += sync.team_ops
    stats.global_ops += sync.global_ops
    stats.team_messages += sync.team_messages
    stats.global_messages += sync.global_messages
    for size in sync.team_sizes:
        histogram[size] = histogram.get(size, 0) + 1
    stats.max_concurrent_teams = max(stats.max_concurrent_teams, sync.teams)
    stats.escalation_time += sync.virtual_time
    stats.escalation_messages += sync.messages


@property
def escalation_rate(stats) -> float:
    """Share of the executed ops that paid for an ordering lane."""
    return (
        stats.escalated_ops / stats.ops_executed if stats.ops_executed else 0.0
    )


def histogram_mean(histogram: dict[int, int]) -> float:
    """Mean key of a ``key -> count`` histogram (0.0 when empty)."""
    total = sum(histogram.values())
    if not total:
        return 0.0
    return sum(size * count for size, count in histogram.items()) / total


@record
class EngineStats:
    """Aggregate over a full engine run."""

    num_lanes: int = 1
    window: int = 0
    #: One op's virtual time, always 1 (``benchmarks/wall`` reads it).
    op_cost: float = 1.0

    ops_executed: int = 0
    #: Submissions shed by a bounded mempool (backpressure; see
    #: :class:`repro.engine.mempool.Mempool`).
    rejected_ops: int = 0
    waves: int = 0
    wave_ops: int = 0
    barrier_ops: int = 0
    escalated_ops: int = 0
    #: Tiered split of the escalated traffic (:mod:`repro.sync`): team-lane
    #: ops pay ``O(k²)`` among their spender bound, global ops pay the
    #: shared Tier ∞ lane.
    team_ops: int = 0
    global_ops: int = 0
    team_messages: int = 0
    global_messages: int = 0
    #: ``team size k -> team-lane instances of that size`` over the run.
    k_histogram: dict[int, int] = field(default_factory=dict)
    #: High-water mark of team lanes active in a single round.
    max_concurrent_teams: int = 0
    #: Cross-round pipelining: configured window overlap depth (1 = one
    #: window in flight), total stall time (split by contended
    #: attribution), total execution overlap between consecutive windows,
    #: and the high-water mark of in-flight windows.
    pipeline_depth: int = 1
    stall_time: float = 0.0
    stall_time_contended: float = 0.0
    overlap_time: float = 0.0
    max_inflight_windows: int = 0
    #: Op-granular DAG scheduling (:mod:`repro.engine.conflict_graph`
    #: ``ComponentDAG``): high-water marks of component critical path and
    #: antichain width, plus the run totals behind :attr:`dag_speedup`.
    max_dag_critical_path: int = 0
    max_dag_width: int = 0
    dag_chain_ops: int = 0
    dag_critical_ops: int = 0
    virtual_time: float = 0.0
    escalation_time: float = 0.0
    escalation_messages: int = 0
    rounds: list[WaveStats] = field(default_factory=list)

    # ------------------------------------------------------------------

    def record_round(
        self, round_stats: WaveStats, sync: SyncRoundResult
    ) -> None:
        self.waves += 1
        self.ops_executed += (
            round_stats.wave_ops
            + round_stats.barrier_ops
            + round_stats.escalated_ops
        )
        self.wave_ops += round_stats.wave_ops
        self.barrier_ops += round_stats.barrier_ops
        self.escalated_ops += round_stats.escalated_ops
        fold_sync_bill(self, sync, self.k_histogram)
        self.stall_time += round_stats.stall_time
        self.stall_time_contended += round_stats.stall_time_contended
        self.overlap_time += round_stats.overlap_time
        self.max_inflight_windows = max(
            self.max_inflight_windows, round_stats.inflight
        )
        self.max_dag_critical_path = max(
            self.max_dag_critical_path, round_stats.dag_critical_path
        )
        self.max_dag_width = max(self.max_dag_width, round_stats.dag_width)
        self.dag_chain_ops += round_stats.dag_chain_ops
        self.dag_critical_ops += round_stats.dag_critical_ops
        self.virtual_time += round_stats.virtual_time
        self.rounds.append(round_stats)

    # -- derived ---------------------------------------------------------

    @property
    def serial_virtual_time(self) -> float:
        """What the same workload costs with one lane and no overlap (the
        escalation time is paid either way)."""
        return self.ops_executed * self.op_cost + self.escalation_time

    @property
    def speedup(self) -> float:
        if self.virtual_time <= 0:
            return 1.0
        return self.serial_virtual_time / self.virtual_time

    @property
    def throughput(self) -> float:
        """Operations per virtual time unit."""
        if self.virtual_time <= 0:
            return 0.0
        return self.ops_executed / self.virtual_time

    escalation_rate = escalation_rate

    @property
    def fast_path_rate(self) -> float:
        if not self.ops_executed:
            return 0.0
        return self.wave_ops / self.ops_executed

    @property
    def mean_wave_size(self) -> float:
        if not self.waves:
            return 0.0
        return self.wave_ops / self.waves

    @property
    def dag_speedup(self) -> float:
        """Chained ops over summed component critical paths — how much
        op-granular scheduling shortens components *intrinsically* (1.0
        when every component is a total order)."""
        if not self.dag_critical_ops:
            return 1.0
        return self.dag_chain_ops / self.dag_critical_ops

    @property
    def mean_team_size(self) -> float:
        """Mean *k* over all team-lane instances — the quantity the tiered
        claim turns on: tiered sync wins once mean k ≪ n."""
        return histogram_mean(self.k_histogram)

    @property
    def max_critical_path(self) -> int:
        return max((r.critical_path for r in self.rounds), default=0)

    #: Properties :meth:`as_dict` reports beside the counters.
    _DERIVED = (
        "mean_team_size",
        "dag_speedup",
        "escalation_rate",
        "fast_path_rate",
        "mean_wave_size",
        "max_critical_path",
        "serial_virtual_time",
        "speedup",
        "throughput",
    )

    def as_dict(self) -> dict:
        """JSON-ready summary (used by ``benchmarks/bench_engine.py``):
        the counters and the derived rates — not the per-round logs."""
        return summary_dict(self, self._DERIVED, logs=("rounds",))
