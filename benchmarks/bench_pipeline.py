"""E12 — cross-round pipelining: retiring the global round barrier.

With one window in flight the engine and the cluster pay a *global
round barrier*: window N+1 is not classified until every lane and every
node has finished window N.  Cross-round pipelining
(:mod:`repro.engine.pipeline`, the pipelined router of
:mod:`repro.cluster`) replaces the barrier with per-account frontier
dependencies: an operation of window N+1 starts once every earlier
component touching its footprint has committed, and the shared
synchronization lanes overlap with execution instead of extending every
round.  This experiment measures, in virtual time, what that buys:

* **engine**: one window in flight (the ``barrier`` rows) vs pipelined
  virtual-time makespan per workload mix and pipeline depth, with stall
  attribution (sync vs frontier);
* **cluster**: one round in flight vs pipelined makespan at >= 4 nodes
  on the OWNER_ONLY and APPROVAL_HEAVY mixes — the headline: the
  pipelined cluster is strictly faster on both, and stall time
  concentrates on the contended components (an escalated op stalls
  several times longer than an uncontended one, and only contended units
  ever wait on a sync lane).

Neither layer has a barrier loop: both ``barrier`` sides are the same
executor / router with one round in flight (``pipeline_depth=1``).  The
A/B runs keep team lanes off so the comparison isolates
pipelining; a separate **default** section runs the no-knobs default
construction on the contended mix.

Every run is checked for serial equivalence against the sequential
specification.

Standalone (writes ``BENCH_pipeline.json``, used by CI)::

    PYTHONPATH=src python benchmarks/bench_pipeline.py --smoke
"""

from __future__ import annotations

import sys

from common import bench_main, render_stats_table, run_bench
from repro.cluster import ClusterConfig, TokenCluster
from repro.config import EngineConfig
from repro.obs import TraceRecorder
from repro.engine import PipelinedExecutor
from repro.objects.erc20 import ERC20TokenType
from repro.workloads import (
    APPROVAL_HEAVY_MIX,
    OWNER_ONLY_MIX,
    SPENDER_HEAVY_MIX,
    TokenWorkloadGenerator,
    serial_reference,
)

SEED = 23
ACCOUNTS = 256
WINDOW = 128
LANES = 8
NODE_COUNTS = (4, 8)
DEPTHS = (2, 3, 4)
#: The depth the cluster headline comparison uses.
CLUSTER_DEPTH = 3

MIXES = {
    "owner_only": OWNER_ONLY_MIX,
    "approval_heavy": APPROVAL_HEAVY_MIX,
    "spender_heavy": SPENDER_HEAVY_MIX,
}

#: The gate's headline metrics (see ``bench_engine.HEADLINES``).
HEADLINES = {
    "band": [
        "engine.approval_heavy.barrier.virtual_time",
        "engine.approval_heavy.pipelined.3.virtual_time",
        "shipped_default.approval_heavy.default.virtual_time",
        "cluster.owner_only.4.makespan_ratio",
        "cluster.approval_heavy.4.makespan_ratio",
        "cluster.approval_heavy.4.pipelined.makespan",
        "cluster.approval_heavy.4.pipelined.escalation_messages",
        "op_latency.pipelined_engine.p50",
        "op_latency.pipelined_engine.p99",
    ],
    "zero": [
        "cluster.owner_only.4.pipelined.escalation_messages",
    ],
}


def make_token() -> ERC20TokenType:
    return ERC20TokenType(ACCOUNTS, total_supply=100 * ACCOUNTS)


def make_items(mix, ops: int):
    return TokenWorkloadGenerator(ACCOUNTS, seed=SEED, mix=mix).generate(ops)


#: Always-global escalation: the sync phase is long and
#: shared, which is the cost pipelining overlaps.
AB_BASE = {"team_threshold": 0}


def run_engine(items, depth: int, tracer=None, **knobs) -> dict:
    """One engine run with ``depth`` windows in flight, spec-checked."""
    config = EngineConfig(
        num_lanes=LANES,
        window=WINDOW,
        seed=SEED,
        pipeline_depth=depth,
        **knobs,
    )
    engine = PipelinedExecutor(make_token(), config, tracer=tracer)
    state, responses, stats = engine.run_workload(items)
    ref_state, ref_responses = serial_reference(make_token(), items)
    assert state == ref_state, "engine diverged from the sequential spec"
    assert responses == ref_responses, "engine responses diverged"
    return stats.as_dict()


def run_cluster(items, nodes: int, depth: int) -> dict:
    """One cluster run on the A/B base, spec-checked; adds the node
    sync-wait total."""
    cluster = TokenCluster(
        make_token(),
        ClusterConfig(
            num_nodes=nodes,
            lanes_per_node=LANES,
            window=WINDOW,
            seed=SEED,
            pipeline_depth=depth,
            **AB_BASE,
        ),
    )
    state, responses, stats = cluster.run_workload(items)
    ref_state, ref_responses = serial_reference(make_token(), items)
    assert state == ref_state, "cluster diverged from the sequential spec"
    assert responses == ref_responses, "cluster responses diverged"
    summary = stats.as_dict()
    summary["sync_wait_time"] = sum(
        bill.sync_wait_time for bill in stats.node_bills
    )
    return summary


def measure(ops: int, tracer: TraceRecorder, traced) -> dict:
    results: dict = {
        "params": {
            "ops": ops,
            "accounts": ACCOUNTS,
            "window": WINDOW,
            "lanes": LANES,
            "node_counts": list(NODE_COUNTS),
            "depths": list(DEPTHS),
            "cluster_depth": CLUSTER_DEPTH,
            "seed": SEED,
        },
        "engine": {},
        "cluster": {},
    }

    for name, mix in MIXES.items():
        items = make_items(mix, ops)
        barrier = run_engine(items, 1, **AB_BASE)
        entry = {"barrier": barrier, "pipelined": {}}
        for depth in DEPTHS:
            entry["pipelined"][str(depth)] = run_engine(items, depth, **AB_BASE)
        results["engine"][name] = entry

    for name in ("owner_only", "approval_heavy"):
        items = make_items(MIXES[name], ops)
        entry: dict = {}
        for nodes in NODE_COUNTS:
            barrier = run_cluster(items, nodes, 1)
            piped = run_cluster(items, nodes, CLUSTER_DEPTH)
            entry[str(nodes)] = {
                "barrier": barrier,
                "pipelined": piped,
                "makespan_ratio": barrier["makespan"] / piped["makespan"],
            }
        results["cluster"][name] = entry

    # The headline: a no-knobs default construction (pipelining + team
    # lanes on) on the contended mix, same structural
    # parameters.
    results["shipped_default"] = {
        "approval_heavy": {
            "default": run_engine(
                make_items(APPROVAL_HEAVY_MIX, ops),
                EngineConfig().pipeline_depth,
            )
        }
    }

    # Per-op commit latency (submit -> commit) is the traced run's, which
    # run_bench already made under ``tracer``; the runs above are untraced.
    results["op_latency"] = {
        "pipelined_engine": tracer.metrics.histogram("op_latency").summary()
    }
    return results


def stall_concentration(cluster_entry: dict) -> tuple[float, float]:
    """(stall per escalated op, stall per uncontended op) for one run.

    Contended stall = the sync-lane wait the nodes actually paid plus the
    frontier-gate stall on nodes executing sync-ordered components;
    uncontended stall = the remaining frontier-gate stall.
    """
    piped = cluster_entry["pipelined"]
    escalated = piped["escalated_ops"]
    rest = piped["ops_executed"] - escalated
    contended = (
        piped["sync_wait_time"] + piped["frontier_stall_time_contended"]
    )
    uncontended = (
        piped["frontier_stall_time"] - piped["frontier_stall_time_contended"]
    )
    per_escalated = contended / escalated if escalated else 0.0
    per_uncontended = uncontended / rest if rest else 0.0
    return per_escalated, per_uncontended


def check_claims(results: dict) -> None:
    """The acceptance criteria, enforced."""
    # Overlapped rounds beat one round in flight in virtual-time makespan
    # on OWNER_ONLY and APPROVAL_HEAVY at every node count >= 4.
    for mix_name, entry in results["cluster"].items():
        for nodes, comparison in entry.items():
            assert comparison["makespan_ratio"] > 1.0, (
                mix_name,
                nodes,
                comparison["makespan_ratio"],
            )
    # ... and decisively on the contended mix (sync overlaps execution).
    assert results["cluster"]["approval_heavy"]["4"]["makespan_ratio"] > 1.25
    # The engine sheds the barrier too where synchronization dominates.
    approval = results["engine"]["approval_heavy"]
    assert (
        approval["pipelined"][str(CLUSTER_DEPTH)]["virtual_time"]
        < approval["barrier"]["virtual_time"]
    )
    # Stall concentrates on the contended components.  The dispatch gate
    # works per unit (one component), so only a unit that synchronizes
    # waits on a sync lane and the contended stall counts those units
    # alone — not, as a per-node batch once did, every op that shared
    # their batch.  What that guarantees at any size is the direction: an
    # escalated op stalls strictly longer than an uncontended one, and
    # only the contended mix pays a sync wait at all.  It is not a fixed
    # multiple — a lane's wait is paid per unit and amortizes over the
    # escalated ops sharing the round (6.0x / 7.1x at smoke size with 10
    # escalated ops, 4.4x / 5.1x at 1200 ops with 47-49).  The
    # consensus-number-1 mix pays zero contended stall anywhere.
    for nodes in map(str, NODE_COUNTS):
        contended_mix = results["cluster"]["approval_heavy"][nodes]
        per_escalated, per_uncontended = stall_concentration(contended_mix)
        assert per_escalated > per_uncontended > 0.0, (
            nodes,
            per_escalated,
            per_uncontended,
        )
        assert contended_mix["pipelined"]["sync_wait_time"] > 0.0
        owner = results["cluster"]["owner_only"][nodes]["pipelined"]
        assert owner["escalated_ops"] == 0
        assert owner["frontier_stall_time_contended"] == 0.0
        assert owner["sync_wait_time"] == 0.0
    engine_approval = approval["pipelined"][str(CLUSTER_DEPTH)]
    assert (
        engine_approval["stall_time_contended"]
        >= 0.9 * engine_approval["stall_time"]
    )
    # The no-knobs default really runs the fast paths (DAG width, team
    # lanes, depth > 1).
    headline = results["shipped_default"]["approval_heavy"]
    assert headline["default"]["pipeline_depth"] > 1
    assert headline["default"]["max_dag_width"] >= 2
    assert headline["default"]["team_ops"] > 0


def render_table(results: dict) -> list[str]:
    params = results["params"]
    lines = [
        "E12: cross-round pipelining vs the global round barrier "
        f"({params['ops']} ops, {params['accounts']} accounts, "
        f"{params['lanes']} lanes, virtual time)",
        "",
        f"engine (window {params['window']}):",
    ]
    lines += render_stats_table(
        list(results["engine"].items()),
        [("barrier", "barrier.virtual_time", ".1f")]
        + [
            (f"depth {d}", f"pipelined.{d}.virtual_time", ".1f")
            for d in DEPTHS
        ],
        label_header="mix",
        separators=(0,),
    )
    lines.append("")
    lines.append(
        f"cluster (depth {params['cluster_depth']}, makespan and speedup):"
    )
    for name, entry in results["cluster"].items():
        for nodes, comparison in entry.items():
            per_escalated, per_uncontended = stall_concentration(comparison)
            lines.append(
                f"  {name:>15} n={nodes}: "
                f"depth 1 {comparison['barrier']['makespan']:>7.2f}  "
                f"pipelined {comparison['pipelined']['makespan']:>7.2f}  "
                f"({comparison['makespan_ratio']:.2f}x)  "
                f"stall/op contended {per_escalated:>6.3f} "
                f"vs uncontended {per_uncontended:>6.3f}"
            )
    headline = results["shipped_default"]["approval_heavy"]
    lines.append("")
    lines.append(
        "no-knobs default (approval_heavy, identical structural params): "
        f"{headline['default']['virtual_time']:.1f}"
    )
    latency = results["op_latency"]["pipelined_engine"]
    lines.append(
        f"op commit latency (pipelined engine, depth "
        f"{results['params']['cluster_depth']}): "
        f"p50 {latency['p50']:.2f}  p99 {latency['p99']:.2f}  "
        f"mean {latency['mean']:.2f}  over {latency['count']} ops"
    )
    return lines


def traced_run(ops: int, tracer) -> None:
    """The representative traced configuration (``--trace``): the
    pipelined engine at the headline depth on the contended mix — the
    trace shows sync waits overlapping later rounds' execution."""
    run_engine(make_items(APPROVAL_HEAVY_MIX, ops), CLUSTER_DEPTH, tracer)


# ---------------------------------------------------------------------------
# pytest-benchmark entry point (collected by `pytest benchmarks/`)
# ---------------------------------------------------------------------------


def test_pipeline_scaling(benchmark, write_table):
    results = benchmark.pedantic(
        lambda: run_bench(512, measure, traced_run), rounds=1, iterations=1
    )
    check_claims(results)
    write_table("E12_pipeline", render_table(results))


# ---------------------------------------------------------------------------
# standalone smoke entry point (used by CI; writes BENCH_pipeline.json)
# ---------------------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    return bench_main(
        argv,
        description=__doc__,
        default_out="BENCH_pipeline.json",
        smoke_ops=512,
        headlines=HEADLINES,
        measure=measure,
        check_claims=check_claims,
        render_table=render_table,
        traced_run=traced_run,
    )


if __name__ == "__main__":
    sys.exit(main())
