"""Unified run configuration: one home for the run knobs.

Op-granular DAG scheduling and component-granular dispatch are not knobs
— they are how the system schedules.  What stays configurable (lanes,
window, pipeline depth, team-lane threshold, team-lane GC, fault plan)
lives here, with the fast configuration as the defaults:

* :class:`EngineConfig` — the single-process executor
  (:class:`~repro.engine.pipeline.PipelinedExecutor`);
* :class:`ClusterConfig` — the distributed cluster
  (:class:`~repro.cluster.cluster.TokenCluster`).

Both are frozen dataclasses: a config is a *value*, hashable and
comparable, and ``as_dict()`` / ``from_dict()`` round-trip it losslessly
so benchmark baselines can embed the exact configuration that produced
them (``scripts/obs.py gate`` refuses a baseline whose config block
disagrees with the run's — a silent default flip can never skew one
number in one place).

The constructors take the config and nothing that restates it: a run
knob is spelled ``EngineConfig(window=32)``, never ``window=32`` on the
executor, so a mistyped or misplaced field fails as a ``TypeError``.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

from repro.errors import ClusterError, EngineError

def _jsonify(value):
    """Recursively coerce a config field into JSON-canonical form."""
    if isinstance(value, _ConfigBase):
        return value.as_dict()
    if isinstance(value, tuple):
        return [_jsonify(item) for item in value]
    return value


class _ConfigBase:
    """Shared validation + dict round-trip of the frozen config values."""

    #: Raised on invalid values — the cluster config narrows it to
    #: :class:`~repro.errors.ClusterError`, the error every other cluster
    #: entry point raises.
    _error: type[Exception] = EngineError

    def as_dict(self) -> dict:
        """A plain-JSON snapshot (bench metadata; ``from_dict`` inverts).

        Derived from :func:`dataclasses.fields`, so a field added to any
        config *cannot* drift out of the bench config block: nested
        configs recurse through their own ``as_dict`` and tuples become
        JSON lists (``from_dict`` restores both).
        """
        return {
            field.name: _jsonify(getattr(self, field.name))
            for field in fields(self)
        }

    @classmethod
    def from_dict(cls, data: dict):
        """Rebuild a config from :meth:`as_dict` output.  Unknown keys
        fail loudly — a baseline written by a different config surface
        should never be silently reinterpreted."""
        known = {field.name: field for field in fields(cls)}
        unknown = sorted(set(data) - set(known))
        if unknown:
            raise cls._error(
                f"{cls.__name__} does not know the keys {unknown}"
            )
        kwargs = {}
        for name, value in data.items():
            default = known[name].default
            if isinstance(default, _ConfigBase) and isinstance(value, dict):
                value = type(default).from_dict(value)
            kwargs[name] = value
        return cls(**kwargs)

    def _check_common(self) -> None:
        if self.window < 1:
            raise self._error("window must be positive")
        if not self.op_cost > 0:
            raise self._error("op_cost must be positive")
        if self.team_threshold < 0:
            raise self._error("team_threshold must be non-negative")
        if self.pipeline_depth < 1:
            raise self._error("pipeline_depth must be >= 1")
        if self.lane_ttl is not None and self.lane_ttl < 1:
            raise self._error("lane_ttl must be positive (or None)")
        if (
            self.mempool_capacity is not None
            and self.mempool_capacity < 1
        ):
            raise self._error("mempool_capacity must be positive (or None)")


@dataclass(frozen=True)
class EngineConfig(_ConfigBase):
    """Configuration of the single-process executor.

    The defaults are the *fast* configuration: op-granular DAG
    scheduling, two pipelined windows in flight, team lanes for spender
    bounds up to 4 with per-account sync-group splitting, and team lanes
    garbage-collected after 32 idle sync rounds.
    """

    num_lanes: int = 4
    window: int = 64
    op_cost: float = 1.0
    seed: int = 0
    mempool_capacity: int | None = None
    #: Largest spender bound ordered on a k-participant team lane
    #: (``0`` = every contended component pays the global lane).
    team_threshold: int = 4
    #: Windows in flight at once (``1`` = one window in flight: window
    #: N+1 classifies when window N completes).
    pipeline_depth: int = 2
    #: Garbage-collect a team lane idle for this many sync rounds
    #: (``None`` = keep every lane forever).
    lane_ttl: int | None = 32

    def __post_init__(self) -> None:
        if self.num_lanes < 1:
            raise EngineError("need at least one lane")
        self._check_common()


@dataclass(frozen=True)
class FaultConfig(_ConfigBase):
    """A deterministic fault plan for the cluster's virtual-time network.

    Everything is declared up front in virtual timestamps and replayed
    identically on every run: crash/restart events, message-type drop
    rules, and message-type delay rules (randomized rules draw from a
    dedicated seeded stream, so the fault dice never perturb the
    latency-model stream).  ``enabled=False`` (the default) injects
    nothing and is bit-identical to a cluster without the fault layer.
    """

    enabled: bool = False
    #: ``(node, crash_at, restart_at)`` triples (``restart_at=None`` =
    #: the node never comes back).  ``(node, crash_at)`` pairs are
    #: normalized to never-restarting triples.
    crashes: tuple = ()
    #: ``(message_type, probability, start, end)`` — drop matching
    #: messages sent in ``[start, end)`` with the given probability.
    drops: tuple = ()
    #: ``(message_type, extra_delay, probability)`` — add ``extra_delay``
    #: to matching messages with the given probability.
    delays: tuple = ()
    #: Seed of the drop/delay dice (independent of the latency stream).
    seed: int = 0

    _error = ClusterError

    def __post_init__(self) -> None:
        crashes = []
        for crash in self.crashes:
            crash = tuple(crash)
            if len(crash) == 2:
                crash = crash + (None,)
            if len(crash) != 3:
                raise ClusterError(
                    "a crash is (node, crash_at[, restart_at]): "
                    f"got {crash!r}"
                )
            node, at, restart_at = crash
            if node < 0:
                raise ClusterError("crash node must be non-negative")
            if at < 0:
                raise ClusterError("crash_at must be non-negative")
            if restart_at is not None and restart_at <= at:
                raise ClusterError("restart_at must be after crash_at")
            crashes.append(crash)
        object.__setattr__(self, "crashes", tuple(crashes))
        drops = tuple(tuple(rule) for rule in self.drops)
        object.__setattr__(self, "drops", drops)
        for rule in drops:
            if len(rule) != 4:
                raise ClusterError(
                    "a drop rule is (message_type, probability, start, "
                    f"end): got {rule!r}"
                )
            _, probability, start, end = rule
            if not 0.0 <= probability <= 1.0:
                raise ClusterError("drop probability must be in [0, 1]")
            if start < 0 or end < start:
                raise ClusterError("drop window must satisfy 0 <= start <= end")
        delays = tuple(tuple(rule) for rule in self.delays)
        object.__setattr__(self, "delays", delays)
        for rule in delays:
            if len(rule) != 3:
                raise ClusterError(
                    "a delay rule is (message_type, extra_delay, "
                    f"probability): got {rule!r}"
                )
            _, extra, probability = rule
            if extra < 0:
                raise ClusterError("extra_delay must be non-negative")
            if not 0.0 <= probability <= 1.0:
                raise ClusterError("delay probability must be in [0, 1]")


@dataclass(frozen=True)
class ClusterConfig(_ConfigBase):
    """Configuration of the distributed :class:`~repro.cluster.cluster.
    TokenCluster`.

    Defaults mirror :class:`EngineConfig`'s: component-granular unit
    dispatch under a depth-2 pipeline, owner-node team lanes up to 4
    participants, and idle-lane GC.
    """

    num_nodes: int = 4
    lanes_per_node: int = 4
    window: int = 64
    #: ``None`` derives ``max(16, 8 * num_nodes)`` at construction.
    num_shards: int | None = None
    op_cost: float = 1.0
    seed: int = 0
    mempool_capacity: int | None = None
    #: A chain migrates leases only when its majority owner already has
    #: at least this many of its operations.
    lease_min_gain: int = 2
    #: Rounds a freshly migrated shard is pinned to its new owner.
    lease_cooldown: int = 0
    #: Largest owner-node set ordered on a team lane (``0`` = global).
    team_threshold: int = 4
    pipeline_depth: int = 2
    lane_ttl: int | None = 32
    #: Declare a node dead when a dispatched unit's ``cl_result`` is this
    #: late (virtual time); ``None`` disables failure detection entirely.
    result_timeout: float | None = None
    #: The deterministic fault plan (disabled by default — bit-identical
    #: to a cluster without the fault layer).
    fault: FaultConfig = FaultConfig()

    _error = ClusterError

    def __post_init__(self) -> None:
        if self.num_nodes < 1:
            raise ClusterError("cluster needs at least one node")
        if self.lanes_per_node < 1:
            raise ClusterError("need at least one lane per node")
        if self.lease_min_gain < 1:
            raise ClusterError("lease_min_gain must be positive")
        if self.lease_cooldown < 0:
            raise ClusterError("lease_cooldown must be non-negative")
        if not isinstance(self.fault, FaultConfig):
            raise ClusterError("fault must be a FaultConfig")
        if self.result_timeout is not None and self.result_timeout <= 0:
            raise ClusterError("result_timeout must be positive (or None)")
        if (
            self.fault.enabled
            and self.fault.crashes
            and self.result_timeout is None
        ):
            raise ClusterError(
                "a crash schedule needs result_timeout so the router "
                "can detect the dead node and recover"
            )
        self._check_common()
