"""Host-time spans recorded from *outside* the program.

The benchmark times the layers of ``repro`` without a line of
instrumentation inside ``src/``: :class:`SpanRecorder` wraps the public
callables at each layer boundary — bound methods on the constructed
executor / cluster objects, plus three methods of ``ConflictGraph``, whose
instances are created per window and can only be reached through the class
— and keeps ``[name, start, end, parent, id]`` records in memory.  They are
written out once, after the timed call.

A span is named ``<layer>.<callable>``; the layer is the repo module the
callable belongs to (``classifier``, ``conflict_graph``, ``rounds``,
``pipeline``, ``mempool``, ``sync``, ``state``, ``router``, ``node``,
``net``, ``faults``, ``cluster``).  A span's *self time* is its duration
minus the part its child spans cover, so per-layer self times partition the
run: they add up to the duration of the outermost span.

Granularity is the window / message / unit — except ``state.apply`` and
``mempool.submit``, which are the layer boundary per *operation*.  The
classifier is wrapped at ``classify_window`` only, never per pair: its
per-pair ``classify`` is called half a million times a run and a wrapper
there would measure itself.  ``classifier.footprint`` / ``needs_consensus``
calls made by placement and ``split_sync`` therefore stay in the caller's
self time.

Instrumenting patches ``ConflictGraph`` for the life of the process; it is
meant for a one-shot measurement child, not for a long-lived interpreter.
"""

from __future__ import annotations

import json
from collections import defaultdict
from pathlib import Path
from time import perf_counter
from typing import Any, Callable

NAME, START, END, PARENT, IDENT = range(5)

#: ``ident(args, kwargs, result)`` — the round / unit / node a span is about.
Ident = Callable[[tuple, dict, Any], Any]


class SpanRecorder:
    """In-memory span log for one single-threaded run."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._open: list[int] = []

    def wrap(self, name: str, fn: Callable, ident: Ident | None = None):
        """``fn`` with a span recorded around every call."""
        spans, stack = self.spans, self._open

        def traced(*args, **kwargs):
            record = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(record)
            record[START] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[END] = perf_counter()
                stack.pop()
            if ident is not None:
                record[IDENT] = ident(args, kwargs, result)
            return result

        return traced

    def wrap_attr(
        self, obj, attr: str, name: str, ident: Ident | None = None
    ) -> None:
        """Replace ``obj.attr`` (an instance's bound method, or a function
        on a class) by its traced twin."""
        setattr(obj, attr, self.wrap(name, getattr(obj, attr), ident))

    def wrap_timers(self, node, name: str) -> None:
        """Trace the callbacks a network node schedules on the simulator
        (unit completions, result / lease timeouts): they run from the
        event loop, outside any message handler, and would otherwise be
        billed to the network layer."""
        schedule = node.schedule
        tag = _const(node.node_id)

        def traced_schedule(delay, callback):
            return schedule(delay, self.wrap(name, callback, tag))

        node.schedule = traced_schedule

    # -- reading ---------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Span name -> summed self time (duration minus child spans)."""
        covered = [0.0] * len(self.spans)
        for span in self.spans:
            if span[PARENT] >= 0:
                covered[span[PARENT]] += span[END] - span[START]
        totals: dict[str, float] = defaultdict(float)
        for span, inner in zip(self.spans, covered):
            totals[span[NAME]] += span[END] - span[START] - inner
        return dict(totals)

    def layer_self_times(self) -> dict[str, float]:
        totals: dict[str, float] = defaultdict(float)
        for name, seconds in self.self_times().items():
            totals[layer_of(name)] += seconds
        return dict(totals)

    def named(self, name: str) -> list[list]:
        return [span for span in self.spans if span[NAME] == name]

    def durations(self, name: str) -> list[float]:
        return [span[END] - span[START] for span in self.named(name)]

    def inside(self, span: list, layer: str) -> bool:
        """Whether ``span`` has an ancestor in ``layer``."""
        parent = span[PARENT]
        while parent >= 0:
            if layer_of(self.spans[parent][NAME]) == layer:
                return True
            parent = self.spans[parent][PARENT]
        return False

    def write_chrome_trace(self, path: Path, meta: dict) -> None:
        """Chrome-trace-event JSON (``chrome://tracing``, Perfetto): one
        complete event per span on a single track, microseconds from the
        first span."""
        origin = self.spans[0][START] if self.spans else 0.0
        events = [
            {
                "name": span[NAME],
                "cat": layer_of(span[NAME]),
                "ph": "X",
                "pid": 1,
                "tid": 1,
                "ts": (span[START] - origin) * 1e6,
                "dur": (span[END] - span[START]) * 1e6,
                "args": {"id": span[IDENT], "parent": span[PARENT]},
            }
            for span in self.spans
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(
            json.dumps({"traceEvents": events, "otherData": meta})
        )


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def _const(value) -> Ident:
    return lambda args, kwargs, result: value


def _first_arg_index(args, kwargs, result):
    return args[0].index


def _payload_round(args, kwargs, result):
    payload = args[0].payload
    return payload.get("round") if isinstance(payload, dict) else None


# -- instrumentation ---------------------------------------------------------


def _instrument_conflict_graph(rec: SpanRecorder) -> None:
    from repro.engine.conflict_graph import ConflictGraph

    # ``build`` is a classmethod looked up on the class by its callers;
    # the wrapper delegates to the bound original.
    ConflictGraph.build = staticmethod(
        rec.wrap(
            "conflict_graph.build",
            ConflictGraph.build,
            lambda args, kwargs, graph: len(graph.edges),
        )
    )
    rec.wrap_attr(
        ConflictGraph,
        "components",
        "conflict_graph.components",
        lambda args, kwargs, found: len(found),
    )
    rec.wrap_attr(
        ConflictGraph, "component_dags", "conflict_graph.component_dags"
    )


def _instrument_scheduler(rec: SpanRecorder, scheduler, classifier) -> None:
    rec.wrap_attr(scheduler, "split", "rounds.split")
    rec.wrap_attr(scheduler, "split_sync", "rounds.split_sync")
    rec.wrap_attr(
        classifier,
        "classify_window",
        "classifier.classify_window",
        lambda args, kwargs, kinds: len(args[0]),
    )


def _instrument_sync(rec: SpanRecorder, sync) -> None:
    rec.wrap_attr(sync, "order_round", "sync.order_round")
    rec.wrap_attr(sync, "order_assignments", "sync.order_assignments")
    rec.wrap_attr(sync.pool, "order", "sync.team_lanes_order")
    rec.wrap_attr(sync.global_lane, "order", "sync.total_order")


def _instrument_mempool(rec: SpanRecorder, mempool) -> None:
    rec.wrap_attr(mempool, "submit", "mempool.submit")
    rec.wrap_attr(mempool, "pop_window", "mempool.pop_window")


def instrument_engine(rec: SpanRecorder, executor) -> None:
    """Span every layer boundary of a ``PipelinedExecutor``."""
    _instrument_conflict_graph(rec)
    rec.wrap_attr(executor, "run_workload", "pipeline.run_workload")
    rec.wrap_attr(executor, "run", "pipeline.run")
    rec.wrap_attr(
        executor,
        "step",
        "pipeline.step",
        lambda args, kwargs, wave: None if wave is None else wave.index,
    )
    lifecycle = executor.lifecycle
    rec.wrap_attr(
        lifecycle,
        "drain",
        "rounds.drain",
        lambda args, kwargs, round_: args[2],
    )
    rec.wrap_attr(lifecycle, "classify", "rounds.classify", _first_arg_index)
    rec.wrap_attr(
        lifecycle, "synchronize", "rounds.synchronize", _first_arg_index
    )
    _instrument_scheduler(rec, executor.scheduler, executor.classifier)
    _instrument_sync(rec, executor.sync)
    _instrument_mempool(rec, executor.mempool)
    rec.wrap_attr(executor.object_type, "apply", "state.apply")


def instrument_cluster(rec: SpanRecorder, cluster) -> None:
    """Span every layer boundary of a ``TokenCluster``."""
    _instrument_conflict_graph(rec)
    rec.wrap_attr(cluster, "run_workload", "cluster.run_workload")
    rec.wrap_attr(cluster, "run", "cluster.run")
    rec.wrap_attr(cluster.simulator, "run", "net.run")
    rec.wrap_attr(
        cluster.network,
        "send",
        "net.send",
        lambda args, kwargs, result: args[2],
    )
    router = cluster.router
    rec.wrap_attr(router, "admit", "router.admit")
    # ``pump`` returns the number of windows it classified; spans with a
    # non-zero id are the cluster's scheduling rounds.
    rec.wrap_attr(
        router, "pump", "router.pump", lambda args, kwargs, count: count
    )
    rec.wrap_attr(router, "node_rejoined", "router.node_rejoined")
    rec.wrap_timers(router, "router.timer")
    _instrument_scheduler(rec, router.scheduler, router.classifier)
    _instrument_sync(rec, router.sync)
    _instrument_mempool(rec, router.mempool)
    for node in cluster.nodes:
        rec.wrap_timers(node, "node.timer")
        _instrument_scheduler(rec, node.scheduler, node.classifier)
    for member, layer in [(router, "router")] + [
        (node, "node") for node in cluster.nodes
    ]:
        for attr in dir(member):
            if attr.startswith("handle_"):
                rec.wrap_attr(
                    member, attr, f"{layer}.{attr}", _payload_round
                )
    if cluster.injector is not None:
        rec.wrap_attr(cluster.injector, "on_crash", "faults.on_crash")
        rec.wrap_attr(cluster.injector, "on_restart", "faults.on_restart")
    rec.wrap_attr(cluster.object_type, "apply", "state.apply")
