"""One measurement: build a workload, time one ``run_workload``, report.

``run.py`` starts this file once per measurement in a fresh interpreter
(``PYTHONHASHSEED=0``, never two at once) with one JSON job on the command
line, and reads one JSON result from the last line of stdout.  The job
names a scenario from ``scenarios.py`` and a mode:

* ``plain`` — nothing attached; the run every end-to-end metric comes from;
* ``spans`` — the layer boundaries wrapped by ``spans.SpanRecorder``; gives
  the per-layer self times and writes the Chrome trace;
* ``obs``   — the program's own virtual-time ``TraceRecorder`` attached,
  to price ROADMAP item 5's tracer-overhead budget in host time.

Everything outside ``target.run_workload(items)`` — imports, generation,
construction, the reference loop on either side of the call, the oracle
comparison, span folding — is outside the timed region.  Only the
surviving public API is used: ``PipelinedExecutor(token,
EngineConfig(...))``, ``TokenCluster(token, ClusterConfig(...))``,
``.run_workload(items)`` and the public ``stats`` objects.
"""

from __future__ import annotations

import gc
import hashlib
import json
import resource
import statistics
import sys
import time
from pathlib import Path

from scenarios import SCENARIOS, Scenario

#: Exit status of a run that completed but is not a valid measurement of
#: its workload (the fault schedule did not bite, Tier 0 sent messages).
EXIT_INVALID = 3


#: ``ops_per_s_norm`` and ``setup_s`` are throughput and set-up seconds on
#: a box where the reference loop makes this many passes a second (about
#: what this box does in a good minute).
REF_NOMINAL_RATE = 150.0


class InvalidRun(Exception):
    """The run finished but does not measure what its workload is for."""


# -- inputs (shared with the parent's oracle) --------------------------------


def make_token(scenario: Scenario):
    from repro.objects.erc20 import ERC20TokenType

    return ERC20TokenType(
        scenario.accounts, total_supply=100 * scenario.accounts
    )


def make_items(scenario: Scenario, ops: int, seed: int) -> list:
    import repro.workloads as workloads

    mix = (
        getattr(workloads, scenario.mix)
        if isinstance(scenario.mix, str)
        else workloads.WorkloadMix(**scenario.mix)
    )
    return workloads.TokenWorkloadGenerator(
        scenario.accounts, seed=seed, mix=mix, **scenario.generator
    ).generate(ops)


def state_digest(state) -> str:
    return hashlib.sha256(
        repr((state.balances, state.allowances)).encode()
    ).hexdigest()


def write_oracle(scenario: Scenario, ops: int, seed: int, path: Path) -> None:
    """The sequential specification's verdict on a workload: every
    response, and a digest of the final state."""
    items = make_items(scenario, ops, seed)
    state, responses = make_token(scenario).run(
        [(item.pid, item.operation) for item in items]
    )
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(
        json.dumps({"state": state_digest(state), "responses": responses})
    )


# -- the system under test ---------------------------------------------------


def build(scenario: Scenario, token, faults: dict | None, tracer):
    if scenario.kind == "engine":
        from repro.config import EngineConfig
        from repro.engine import PipelinedExecutor

        return PipelinedExecutor(
            token, EngineConfig(**scenario.config), tracer=tracer
        )
    from repro.cluster import TokenCluster
    from repro.config import ClusterConfig, FaultConfig

    config = dict(scenario.config)
    if faults is not None:
        config["fault"] = FaultConfig(**faults)
    return TokenCluster(token, ClusterConfig(**config), tracer=tracer)


# -- the reference loop ------------------------------------------------------


def reference_rate(seconds: float) -> float:
    """Passes per second of a fixed pure-Python loop (tuple-keyed dict
    inserts, a scan, integer arithmetic — the program's diet).

    The box this benchmark runs on changes speed by +-20 % in waves of a
    minute or two, and by 40 % within an hour, all processes alike.
    Running the same loop right before and right after the timed call
    measures the speed of the box *around* the call; throughput divided by
    it (and set-up seconds multiplied by the first loop's rate) can be
    compared between runs taken minutes apart.  Short calibrations do not
    work (0.4 s: correlation 0.39 with the run, the ratio noisier than the
    raw rate); 0.75 s on each side halves the spread across a change of
    phase and costs nothing inside one (README, "Measured noise").
    """
    started = time.perf_counter()
    passes = 0
    while True:
        table = {}
        for i in range(20000):
            table[(i, i ^ 5)] = (i, i + 1)
        total = 0
        for value in table.values():
            total += value[1]
        passes += 1
        elapsed = time.perf_counter() - started
        if elapsed >= seconds:
            return passes / elapsed


# -- metrics -----------------------------------------------------------------


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def tail(values: list[float]) -> tuple[float, float] | None:
    """``(value, percentile)`` at the highest percentile that still has
    ten samples beyond it; ``None`` under twenty samples."""
    if len(values) < 20:
        return None
    ordered = sorted(values)
    return ordered[-11], (len(ordered) - 10) / len(ordered)


def count_metrics(scenario: Scenario, target, stats, items) -> dict:
    """Every metric that is a count or a virtual time: a function of the
    scheduling *decisions* alone, so it must repeat bit for bit across
    reps and under the span wrappers."""
    ops = len(items)
    committed = stats.ops_executed
    engine = scenario.kind == "engine"
    if engine:
        main, classifiers = target.classifier, [target.classifier]
        makespan = stats.virtual_time
        messages = stats.escalation_messages
        sync = target.sync
        stalled = stats.stall_time
        rounds = stats.waves
    else:
        main = target.router.classifier
        classifiers = [main] + [node.classifier for node in target.nodes]
        makespan = stats.makespan
        messages = stats.cluster_messages + stats.escalation_messages
        sync = target.router.sync
        stalled = stats.dispatch_stall_time
        rounds = stats.rounds
    pairs = sum(c.stats.pairs for c in classifiers)
    footprint_hits = main.stats.footprint_cache_hits
    distinct = len({(item.pid, item.operation) for item in items})
    counts = {
        "virtual_speedup": ratio(committed * stats.op_cost, makespan),
        "msgs_per_op": ratio(messages, committed),
        "recovery_vt": 0.0 if engine else stats.recovery_makespan,
        "classifier.pair_checks_per_op": ratio(pairs, ops),
        "classifier.pair_cache_hit_share": ratio(
            sum(c.stats.pair_cache_hits for c in classifiers), pairs
        ),
        # The engine's / router's classifier sees every item once, so its
        # misses are the distinct (pid, operation) keys of the workload.
        "classifier.footprint_cache_hit_share": ratio(
            footprint_hits, footprint_hits + distinct
        ),
        "rounds.count": rounds,
        # Of the virtual time units spend placed-or-waiting, the share
        # spent waiting on a sync lane or a cross-round frontier.
        "pipeline.stall_vt_share": ratio(
            stalled, stalled + committed * stats.op_cost
        ),
        "sync.escalated_op_share": ratio(stats.escalated_ops, committed),
        "sync.team_op_share": ratio(stats.team_ops, committed),
        "sync.msgs_per_escalated_op": ratio(
            stats.escalation_messages, stats.escalated_ops
        ),
        "sync.lanes_created": sync.pool.lanes_created,
    }
    cluster_only = {
        "router.units_per_op": lambda: ratio(
            stats.units_dispatched, committed
        ),
        "router.lease_migrations": lambda: stats.lease_migrations,
        "router.owner_local_share": lambda: stats.owner_local_rate,
        "node.load_imbalance": lambda: stats.load_imbalance,
        "net.msgs_per_op": lambda: ratio(stats.cluster_messages, committed),
        "net.events_per_op": lambda: ratio(
            target.simulator.events_processed, committed
        ),
        "faults.ops_replayed": lambda: stats.ops_replayed,
        "faults.revocations": lambda: stats.revocations,
        "faults.rejoins": lambda: stats.rejoins,
        "faults.stale_messages": lambda: stats.stale_messages,
    }
    for name, read in cluster_only.items():
        counts[name] = 0 if engine else read()
    return counts


def span_metrics(recorder, kind: str, ops: int) -> tuple[dict, dict]:
    """Per-layer host-time metrics of a ``spans`` run, plus the notes a
    reader needs beside them (which percentile a tail is, over how many
    samples)."""
    from spans import END, IDENT, START

    layer = recorder.layer_self_times()
    self_times = recorder.self_times()
    run_s = sum(
        recorder.durations(
            "pipeline.run_workload"
            if kind == "engine"
            else "cluster.run_workload"
        )
    )
    builds = [
        span
        for span in recorder.named("conflict_graph.build")
        if not recorder.inside(span, "node")
    ]
    windows = [
        span
        for span in recorder.named("conflict_graph.components")
        if not recorder.inside(span, "node")
    ]
    if kind == "engine":
        steps = [
            (span[END] - span[START]) * 1e3
            for span in recorder.named("pipeline.step")
            if span[IDENT] is not None
        ]
        place_s = self_times.get("pipeline.step", 0.0)
    else:
        steps = [
            (span[END] - span[START]) * 1e3
            for span in recorder.named("router.pump")
            if span[IDENT]
        ]
        place_s = 0.0
    applies = [seconds * 1e6 for seconds in recorder.durations("state.apply")]
    step_tail, apply_tail = tail(steps), tail(applies)
    metrics = {
        "classifier.self_s": layer.get("classifier", 0.0),
        "classifier.share": ratio(layer.get("classifier", 0.0), run_s),
        "conflict_graph.self_s": layer.get("conflict_graph", 0.0),
        "conflict_graph.edges_per_op": ratio(
            sum(span[IDENT] for span in builds), ops
        ),
        "conflict_graph.components_per_window": (
            statistics.fmean(span[IDENT] for span in windows)
            if windows
            else 0.0
        ),
        "rounds.step_ms_p50": statistics.median(steps) if steps else 0.0,
        "rounds.step_ms_tail": step_tail[0] if step_tail else 0.0,
        "rounds.split_self_s": self_times.get("rounds.split_sync", 0.0)
        + self_times.get("rounds.split", 0.0),
        "pipeline.place_self_s": place_s,
        "mempool.admit_s": sum(recorder.durations("mempool.submit")),
        "mempool.pop_self_s": self_times.get("mempool.pop_window", 0.0),
        "sync.self_s": layer.get("sync", 0.0),
        "state.apply_self_s": layer.get("state", 0.0),
        "state.share": ratio(layer.get("state", 0.0), run_s),
        "state.apply_calls_per_op": ratio(len(applies), ops),
        "state.apply_us_p50": statistics.median(applies) if applies else 0.0,
        "state.apply_us_tail": apply_tail[0] if apply_tail else 0.0,
        "router.self_s": layer.get("router", 0.0),
        "node.self_s": layer.get("node", 0.0),
        "net.self_s": layer.get("net", 0.0),
    }
    notes = {
        "rounds.step_ms_tail": _tail_note(step_tail, len(steps)),
        "state.apply_us_tail": _tail_note(apply_tail, len(applies)),
        "span_count": len(recorder.spans),
        "layer_self_s": dict(sorted(layer.items())),
        "self_s_by_span": dict(sorted(self_times.items())),
    }
    return metrics, notes


def _tail_note(found, samples: int) -> dict:
    return {
        "percentile": found[1] if found else None,
        "samples": samples,
    }


# -- checks ------------------------------------------------------------------


def failed_ops(oracle: dict, state, responses, stats) -> int:
    """Ops that did not come back as the sequential specification says:
    missing or wrong responses, plus what the cluster reports lost or
    shed.  A wrong final state fails every op."""
    expected = oracle["responses"]
    if state_digest(state) != oracle["state"]:
        return len(expected)
    wrong = sum(
        1
        for index, want in enumerate(expected)
        if index >= len(responses) or responses[index] != want
    )
    lost = getattr(stats, "ops_lost", 0) + getattr(stats, "dropped_ops", 0)
    return min(len(expected), wrong + lost)


def check_valid(scenario: Scenario, counts: dict) -> None:
    if scenario.sync_free and counts["msgs_per_op"] != 0:
        raise InvalidRun(
            f"{scenario.name}: owner-only traffic sent "
            f"{counts['msgs_per_op']} msgs/op; Tier 0 must send none"
        )
    if scenario.faults:
        nodes = scenario.config["num_nodes"]
        bit = (
            counts["faults.rejoins"] == nodes
            and counts["faults.revocations"] > 0
            and counts["faults.ops_replayed"] > 0
        )
        if not bit:
            raise InvalidRun(
                f"{scenario.name}: the fault schedule did not bite "
                f"(rejoins={counts['faults.rejoins']} of {nodes}, "
                f"revocations={counts['faults.revocations']}, "
                f"ops_replayed={counts['faults.ops_replayed']})"
            )


# -- one measurement ---------------------------------------------------------


def measure(job: dict) -> dict:
    scenario = SCENARIOS[job["workload"]]
    mode = job["mode"]
    items = make_items(scenario, job["ops"], job["seed"])
    token = make_token(scenario)
    tracer = None
    if mode == "obs":
        from repro.obs import TraceRecorder

        tracer = TraceRecorder()
    target = build(scenario, token, job.get("faults"), tracer)
    recorder = None
    if mode == "spans":
        import spans

        recorder = spans.SpanRecorder()
        instrument = (
            spans.instrument_engine
            if scenario.kind == "engine"
            else spans.instrument_cluster
        )
        instrument(recorder, target)
    setup_raw_s = time.time() - job["spawned_at"]
    measuring = time.perf_counter()
    ref_before = reference_rate(job["ref_seconds"])
    gc.collect()

    started = time.perf_counter()
    state, responses, stats = target.run_workload(items)
    run_s = time.perf_counter() - started

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    ref_rate = (ref_before + reference_rate(job["ref_seconds"])) / 2
    measured_s = time.perf_counter() - measuring
    counts = count_metrics(scenario, target, stats, items)
    check_valid(scenario, counts)
    oracle = json.loads(Path(job["oracle"]).read_text())
    result = {
        "workload": scenario.name,
        "mode": mode,
        "seed": job["seed"],
        "ops": job["ops"],
        "run_s": run_s,
        "measured_s": measured_s,
        "setup_raw_s": setup_raw_s,
        # Set-up ends where the first reference loop starts, so that loop
        # alone says how fast the box was during it.
        "setup_s": setup_raw_s * (ref_before / REF_NOMINAL_RATE),
        "peak_rss_mb": peak_rss_mb,
        "ops_per_s": stats.ops_executed / run_s,
        "ref_rate": ref_rate,
        "ops_per_s_norm": stats.ops_executed
        / run_s
        * (REF_NOMINAL_RATE / ref_rate),
        "attempted": len(items),
        "failed": failed_ops(oracle, state, responses, stats),
        "counts": counts,
    }
    if recorder is not None:
        result["layers"], result["notes"] = span_metrics(
            recorder, scenario.kind, len(items)
        )
        if job.get("trace_out"):
            recorder.write_chrome_trace(
                Path(job["trace_out"]),
                {
                    key: result[key]
                    for key in ("workload", "seed", "ops", "run_s")
                },
            )
    return result


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: measure.py '<job json>'", file=sys.stderr)
        return 2
    try:
        result = measure(json.loads(argv[1]))
    except InvalidRun as invalid:
        print(f"invalid run: {invalid}", file=sys.stderr)
        return EXIT_INVALID
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
