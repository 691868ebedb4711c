"""E17 — fault injection: lease-revocation fail-over under crash schedules.

Runs the same token workload through the 4-node cluster under a matrix of
deterministic fault schedules (:mod:`repro.faults`) — none, a permanent
crash, a crash+restart, a rolling restart cadence, and a crash under a
migrating flash-crowd hot-spot — and enforces the recovery contract:

* **zero committed-op loss** under every schedule (``ops_lost == 0`` and
  every response present);
* **serial equivalence** — state and responses of every faulted run equal
  the sequential specification, crash schedule or not;
* **free when armed** — recovery armed (``result_timeout`` set) with no
  fault firing reproduces the fault-free makespan exactly;
* **graceful degradation** — makespan grows with the number of crashed
  nodes, but stays within a small multiple of the fault-free run.

Crash instants are placed at fixed fractions of the fault-free makespan,
so the schedule scales with ``--ops`` while staying deterministic.

Standalone (writes ``BENCH_faults.json``, used by CI)::

    PYTHONPATH=src python benchmarks/bench_faults.py --smoke
"""

from __future__ import annotations

import functools
import sys

from common import (
    bench_main,
    render_backpressure,
    render_stats_table,
    run_bench,
)
from repro.cluster import TokenCluster
from repro.config import ClusterConfig, FaultConfig
from repro.objects.erc20 import ERC20TokenType
from repro.obs import TraceRecorder
from repro.workloads import (
    CHAIN_HEAVY_MIX,
    TokenWorkloadGenerator,
    crash_cadence,
    flash_crowd,
)

SEED = 29
ACCOUNTS = 128
WINDOW = 96
LANES = 8
NODES = 4

#: The gate's headline metrics (see ``bench_engine.HEADLINES``).
HEADLINES = {
    "band": [
        "reference.makespan",
        "schedules.single_crash.makespan",
        "schedules.crash_restart.makespan",
        "schedules.crash_restart.ops_replayed",
        "schedules.crash_restart.revocations",
        "schedules.crash_restart.recovery_makespan",
        "schedules.rolling.ops_replayed",
        "availability.2.makespan_ratio",
        "flash_crowd.makespan_ratio",
    ],
    "zero": [
        "schedules.armed_idle.ops_replayed",
        "schedules.armed_idle.revocations",
        "schedules.single_crash.ops_lost",
        "schedules.crash_restart.ops_lost",
        "schedules.rolling.ops_lost",
        "flash_crowd.ops_lost",
    ],
}


def make_token() -> ERC20TokenType:
    return ERC20TokenType(ACCOUNTS, total_supply=100 * ACCOUNTS)


def make_items(ops: int):
    return TokenWorkloadGenerator(
        ACCOUNTS, seed=SEED, mix=CHAIN_HEAVY_MIX
    ).generate(ops)


def run_cluster(items, fault=None, timeout=None, tracer=None) -> TokenCluster:
    """One cluster run, serial-equivalence-checked against the spec —
    the check every *faulted* run must pass identically."""
    token = make_token()
    config = ClusterConfig(
        num_nodes=NODES,
        lanes_per_node=LANES,
        window=WINDOW,
        seed=SEED,
        result_timeout=timeout,
        fault=fault if fault is not None else FaultConfig(),
    )
    cluster = TokenCluster(token, config, tracer=tracer)
    state, responses, _ = cluster.run_workload(items)
    ref_state, ref_responses = token.run(
        [(item.pid, item.operation) for item in items]
    )
    assert state == ref_state, "faulted run diverged from the spec"
    assert responses == ref_responses, "faulted responses diverged"
    return cluster


@functools.cache
def fault_free(ops: int):
    """The fault-free reference run: its stats pin the timeline every
    schedule is placed on (and degradation is measured against), and
    with them the ``result_timeout`` every faulted run uses."""
    reference = run_cluster(make_items(ops)).stats
    return reference, max(10.0, 0.3 * reference.makespan)


def measure(ops: int, tracer: TraceRecorder, traced) -> dict:
    items = make_items(ops)
    reference, timeout = fault_free(ops)
    span = reference.makespan

    schedules = {
        # Recovery armed, nothing fires: must cost nothing.
        "armed_idle": FaultConfig(),
        # One node dies and never comes back.
        "single_crash": FaultConfig(
            enabled=True, crashes=((1, 0.3 * span),)
        ),
        # One node dies and rejoins later (replay + shard rebalancing).
        # The bounce outlasts detection — a result timeout plus an
        # unanswered ping — so the run shows a declared death AND a
        # rejoin.
        "crash_restart": FaultConfig(
            enabled=True,
            crashes=((1, 0.3 * span, 0.3 * span + 8 * timeout),),
        ),
        # Every node bounces once, staggered.  Downtime is long enough
        # for the detector (a result timeout, then a ping unanswered for
        # another) to declare the node dead and revoke before the
        # restart races it; a shorter bounce is healed by rejoin-replay
        # alone, with no revocation to observe.
        "rolling": FaultConfig(
            enabled=True,
            crashes=crash_cadence(
                NODES,
                start=0.2 * span,
                spacing=3.5 * timeout,
                downtime=3.5 * timeout,
            ),
        ),
    }

    results: dict = {
        "params": {
            "ops": ops,
            "accounts": ACCOUNTS,
            "window": WINDOW,
            "lanes_per_node": LANES,
            "nodes": NODES,
            "seed": SEED,
            "result_timeout": timeout,
        },
        "reference": {
            "makespan": reference.makespan,
            "throughput": reference.throughput,
        },
        "schedules": {},
        "availability": {},
        "flash_crowd": {},
    }

    for name, fault in schedules.items():
        stats = run_cluster(items, fault=fault, timeout=timeout).stats
        entry = stats.as_dict()
        entry["makespan_ratio"] = stats.makespan / span
        results["schedules"][name] = entry

    # Availability: makespan growth against the number of permanently
    # crashed nodes (0, 1, 2 of 4) — degradation, not collapse.
    for crashed in (0, 1, 2):
        crashes = tuple(
            (node + 1, (0.25 + 0.2 * node) * span) for node in range(crashed)
        )
        fault = FaultConfig(enabled=bool(crashes), crashes=crashes)
        stats = run_cluster(items, fault=fault, timeout=timeout).stats
        results["availability"][str(crashed)] = {
            "makespan": stats.makespan,
            "makespan_ratio": stats.makespan / span,
            "throughput": stats.throughput,
            "ops_lost": stats.ops_lost,
            "ops_replayed": stats.ops_replayed,
        }

    # The adversarial placement shape: a migrating hot-spot keeps
    # invalidating whatever the last revocation rebalanced, with a
    # crash+restart in the middle of it.
    crowd = flash_crowd(
        ACCOUNTS, ops, phases=4, hotspot_accounts=4, seed=SEED
    )
    crowd_ref = run_cluster(crowd)
    crowd_span = crowd_ref.stats.makespan
    stats = run_cluster(
        crowd,
        fault=FaultConfig(
            enabled=True,
            crashes=((2, 0.3 * crowd_span, 0.3 * crowd_span + 2 * timeout),),
        ),
        timeout=timeout,
    ).stats
    entry = stats.as_dict()
    entry["makespan_ratio"] = stats.makespan / crowd_span
    results["flash_crowd"] = entry
    return results


def check_claims(results: dict) -> None:
    """The recovery contract, enforced."""
    reference = results["reference"]
    entries = list(results["schedules"].values())
    entries.append(results["flash_crowd"])
    entries.extend(results["availability"].values())
    # Zero committed-op loss under every schedule.
    for entry in entries:
        assert entry["ops_lost"] == 0, entry
    # Recovery armed with no fault firing costs nothing: the makespan
    # reproduces the fault-free run exactly.
    armed = results["schedules"]["armed_idle"]
    assert armed["makespan"] == reference["makespan"], (
        armed["makespan"],
        reference["makespan"],
    )
    assert armed["ops_replayed"] == 0 and armed["revocations"] == 0
    # Crashes actually exercised the machinery.
    for name in ("single_crash", "crash_restart", "rolling"):
        entry = results["schedules"][name]
        assert entry["ops_replayed"] > 0, name
        assert entry["revocations"] > 0, name
    assert results["schedules"]["crash_restart"]["rejoins"] >= 1
    assert results["schedules"]["rolling"]["rejoins"] >= 1
    # Recovery makespan is bounded: attributable recovery time can never
    # exceed the run itself, and no schedule blows the run up by more
    # than a small multiple of the fault-free makespan.
    for entry in entries:
        assert entry.get("recovery_makespan", 0.0) <= entry["makespan"]
        if "makespan_ratio" in entry:
            assert entry["makespan_ratio"] < 8.0, entry["makespan_ratio"]
    # Availability degrades gracefully with the crash count: losing
    # nodes costs makespan, and losing more never gets meaningfully
    # cheaper than losing fewer.  (Strict monotonicity is too brittle —
    # discrete crash placement shifts which rounds pay the recovery.)
    ratios = [
        results["availability"][str(k)]["makespan_ratio"] for k in (0, 1, 2)
    ]
    assert ratios[0] == 1.0
    assert ratios[1] > 1.0 and ratios[2] > 1.0, ratios
    assert ratios[2] >= 0.85 * ratios[1], ratios


def render_table(results: dict) -> list[str]:
    params = results["params"]
    lines = [
        "E17: fail-over under fault schedules "
        f"({params['ops']} ops, {params['nodes']} nodes, "
        f"result_timeout {params['result_timeout']:.1f}, virtual time)",
    ]
    entries = list(results["schedules"].items())
    entries.append(("flash_crowd", results["flash_crowd"]))
    lines += render_stats_table(
        entries,
        [
            ("makespan", "makespan", ".2f"),
            ("x ref", "makespan_ratio", ".2f"),
            ("op/t", "throughput", ".3f"),
            ("replayed", "ops_replayed", "d"),
            ("revoked", "revocations", "d"),
            ("rejoins", "rejoins", "d"),
            ("recovery", "recovery_makespan", ".2f"),
            ("stale", "stale_messages", "d"),
        ],
        label_header="schedule",
        separators=(2,),
    )
    lines.append("")
    lines.append("availability vs permanently crashed nodes:")
    for crashed, entry in results["availability"].items():
        lines.append(
            f"  {crashed} crashed: makespan {entry['makespan']:>8.2f} "
            f"({entry['makespan_ratio']:.2f}x ref)  "
            f"throughput {entry['throughput']:>7.3f}  "
            f"replayed {entry['ops_replayed']:>3}  "
            f"lost {entry['ops_lost']}"
        )
    dropped = sum(
        entry.get("dropped_ops", 0)
        for entry in list(results["schedules"].values())
        + [results["flash_crowd"]]
    )
    lines += render_backpressure(
        dropped, "ops dropped at the router's admission edge"
    )
    return lines


def traced_run(ops: int, tracer: TraceRecorder) -> None:
    """The representative traced configuration (``--trace``): the
    crash+restart schedule, so the trace carries the ``faults`` track
    (crash / declared-dead / revoke / rejoin instants) and per-node
    recovery spans that ``critical_path_report`` attributes exactly."""
    reference, timeout = fault_free(ops)
    crash = 0.3 * reference.makespan
    fault = FaultConfig(
        enabled=True, crashes=((1, crash, crash + 2 * timeout),)
    )
    run_cluster(make_items(ops), fault, timeout, tracer)


# ---------------------------------------------------------------------------
# pytest-benchmark entry point (collected by `pytest benchmarks/`)
# ---------------------------------------------------------------------------


def test_fault_schedules(benchmark, write_table):
    results = benchmark.pedantic(
        lambda: run_bench(600, measure, traced_run), rounds=1, iterations=1
    )
    check_claims(results)
    write_table("E17_faults", render_table(results))


# ---------------------------------------------------------------------------
# standalone smoke entry point (used by CI; writes BENCH_faults.json)
# ---------------------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    return bench_main(
        argv,
        description=__doc__,
        default_out="BENCH_faults.json",
        smoke_ops=512,
        headlines=HEADLINES,
        measure=measure,
        check_claims=check_claims,
        render_table=render_table,
        traced_run=traced_run,
    )


if __name__ == "__main__":
    sys.exit(main())
