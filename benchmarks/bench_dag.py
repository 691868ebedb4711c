"""E13 — op-granular DAG scheduling of conflict-graph components.

The paper's synchronization result is per-*pair*: only non-commuting
operation pairs ever need a relative order.  A component of k ops
therefore need not cost k op-times: the scheduler places ops along the
component's precedence DAG, and the component's makespan drops toward
its critical path.  Measured in virtual time:

* **engine**: DAG-scheduled makespan with one window in flight and with
  three (per-op frontier), on the chain-heavy administrated-token mix
  and on APPROVAL_HEAVY, with the structure the win comes from — the
  components carry antichain width >= 2 and their critical-path totals
  are below their op counts;
* **cluster**: component-granular ``cl_run`` units + op-granular node
  planning at 4 nodes, both mixes — units fan out beyond one per round.

These A/B-base runs keep team lanes off, so they isolate
scheduling granularity; a separate **default** section runs the
no-knobs default construction on both mixes.

Every run is checked for serial equivalence against the sequential
specification.

Standalone (writes ``BENCH_dag.json``, used by CI)::

    PYTHONPATH=src python benchmarks/bench_dag.py --smoke
"""

from __future__ import annotations

import sys

from common import bench_main, render_stats_table, run_bench
from repro.cluster import ClusterConfig, TokenCluster
from repro.config import EngineConfig
from repro.engine import PipelinedExecutor
from repro.obs import TraceRecorder
from repro.objects.erc20 import ERC20TokenType
from repro.workloads import (
    APPROVAL_HEAVY_MIX,
    CHAIN_HEAVY_MIX,
    TokenWorkloadGenerator,
    serial_reference,
)

SEED = 23
ACCOUNTS = 96
WINDOW = 128
LANES = 8
NODES = 4
PIPE_DEPTH = 3

#: Mix name -> (mix, extra generator knobs).  The hot-spot overlay on the
#: chain-heavy mix is what grows components long enough to carry width.
MIXES = {
    "chain_heavy": (
        CHAIN_HEAVY_MIX,
        {"hotspot_fraction": 0.35, "hotspot_accounts": 4},
    ),
    "approval_heavy": (APPROVAL_HEAVY_MIX, {}),
}

#: The gate's headline metrics (see ``bench_engine.HEADLINES``).
HEADLINES = {
    "band": [
        "engine.chain_heavy.dag.virtual_time",
        "shipped_default.chain_heavy.default.virtual_time",
        "shipped_default.approval_heavy.default.virtual_time",
        "engine.chain_heavy.dag.dag_speedup",
        "engine.approval_heavy.dag.virtual_time",
        "cluster.chain_heavy.4.dag.makespan",
        "cluster.approval_heavy.4.dag.makespan",
        "cluster.chain_heavy.4.dag.units_dispatched",
        "op_latency.dag_engine.p50",
        "op_latency.dag_engine.p99",
    ],
    "zero": [],
}


def make_token() -> ERC20TokenType:
    return ERC20TokenType(ACCOUNTS, total_supply=100 * ACCOUNTS)


def make_items(name: str, ops: int):
    mix, knobs = MIXES[name]
    return TokenWorkloadGenerator(
        ACCOUNTS, seed=SEED, mix=mix, **knobs
    ).generate(ops)


#: Always-global escalation: what moves on this base is
#: scheduling granularity alone.
AB_BASE = {"team_threshold": 0}


def run_engine(items, depth: int = 1, tracer=None, **knobs) -> dict:
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


def run_cluster(items) -> dict:
    """One cluster run at ``NODES`` nodes on the A/B base, spec-checked."""
    cluster = TokenCluster(
        make_token(),
        ClusterConfig(
            num_nodes=NODES,
            lanes_per_node=LANES,
            window=WINDOW,
            seed=SEED,
            pipeline_depth=PIPE_DEPTH,
            **AB_BASE,
        ),
    )
    state, responses, stats = cluster.run_workload(items)
    ref_state, ref_responses = serial_reference(make_token(), items)
    assert state == ref_state, "cluster diverged from the sequential spec"
    assert responses == ref_responses, "cluster responses diverged"
    return stats.as_dict()


def measure(ops: int, tracer: TraceRecorder, traced) -> dict:
    results: dict = {
        "params": {
            "ops": ops,
            "accounts": ACCOUNTS,
            "window": WINDOW,
            "lanes": LANES,
            "nodes": NODES,
            "pipeline_depth": PIPE_DEPTH,
            "seed": SEED,
        },
        "engine": {},
        "cluster": {},
        "shipped_default": {},
    }

    for name in MIXES:
        items = make_items(name, ops)
        results["engine"][name] = {
            "dag": run_engine(items, **AB_BASE),
            "pipelined_dag": run_engine(items, depth=PIPE_DEPTH, **AB_BASE),
        }
        results["cluster"][name] = {str(NODES): {"dag": run_cluster(items)}}
        # The no-knobs default construction (pipelining + team lanes
        # on), same structural params.
        results["shipped_default"][name] = {
            "default": run_engine(items, depth=EngineConfig().pipeline_depth)
        }

    # Per-op commit latency (submit -> commit) is the traced run's, which
    # run_bench already made under ``tracer``; the runs above are untraced.
    results["op_latency"] = {
        "dag_engine": tracer.metrics.histogram("op_latency").summary()
    }
    return results


def check_claims(results: dict) -> None:
    """The acceptance criteria, enforced."""
    for name, entry in results["shipped_default"].items():
        # The no-knobs default really runs the fast paths.
        assert entry["default"]["pipeline_depth"] > 1, name
        assert entry["default"]["max_dag_width"] >= 2, name
    for name, entry in results["engine"].items():
        # The structure the win comes from is real intra-component
        # parallelism, not accounting: components carry width >= 2 and
        # the critical-path totals shrink accordingly.
        assert entry["dag"]["max_dag_width"] >= 2, name
        assert entry["dag"]["dag_speedup"] > 1.0, name
        assert (
            entry["dag"]["dag_critical_ops"] < entry["dag"]["dag_chain_ops"]
        ), name
    for name, entry in results["cluster"].items():
        for nodes, comparison in entry.items():
            # Component-granular dispatch really fanned units out.
            assert comparison["dag"]["units_dispatched"] > (
                comparison["dag"]["rounds"]
            ), (name, nodes)


def render_table(results: dict) -> list[str]:
    params = results["params"]
    lines = [
        "E13: op-granular DAG scheduling of conflict-graph components "
        f"({params['ops']} ops, {params['accounts']} accounts, "
        f"{params['lanes']} lanes, virtual time)",
        "",
        f"engine (window {params['window']}, depth 1 and pipelined "
        f"depth {params['pipeline_depth']}):",
    ]
    lines += render_stats_table(
        list(results["engine"].items()),
        [
            ("dag", "dag.virtual_time", ".1f"),
            ("piped+dag", "pipelined_dag.virtual_time", ".1f"),
            ("width", "dag.max_dag_width", "d"),
            ("dag speedup", "dag.dag_speedup", ".2f"),
        ],
        label_header="mix",
    )
    lines.append("")
    lines.append(
        f"cluster ({params['nodes']} nodes, depth "
        f"{params['pipeline_depth']}, component units):"
    )
    for name, entry in results["cluster"].items():
        for nodes, comparison in entry.items():
            lines.append(
                f"  {name:>15} n={nodes}: "
                f"dag {comparison['dag']['makespan']:>7.2f}  "
                f"({comparison['dag']['units_dispatched']} units over "
                f"{comparison['dag']['rounds']} rounds)"
            )
    lines.append("")
    lines.append("no-knobs default (identical structural params):")
    for name, entry in results["shipped_default"].items():
        lines.append(
            f"  {name:>15}: "
            f"default {entry['default']['virtual_time']:>7.1f}"
        )
    lines.append("")
    latency = results["op_latency"]["dag_engine"]
    lines.append(
        f"op commit latency (DAG engine, depth 1, chain-heavy mix): "
        f"p50 {latency['p50']:.2f}  p99 {latency['p99']:.2f}  "
        f"mean {latency['mean']:.2f}  over {latency['count']} ops"
    )
    return lines


def traced_run(ops: int, tracer) -> None:
    """The representative traced configuration (``--trace``): the
    DAG-scheduled engine (one window in flight) on the chain-heavy mix
    — component DAGs fan out across lanes instead of serializing per
    chain."""
    run_engine(make_items("chain_heavy", ops), tracer=tracer)


# ---------------------------------------------------------------------------
# pytest-benchmark entry point (collected by `pytest benchmarks/`)
# ---------------------------------------------------------------------------


def test_dag_vs_chain_atomic(benchmark, write_table):
    results = benchmark.pedantic(
        lambda: run_bench(512, measure, traced_run), rounds=1, iterations=1
    )
    check_claims(results)
    write_table("E13_dag", render_table(results))


# ---------------------------------------------------------------------------
# standalone smoke entry point (used by CI; writes BENCH_dag.json)
# ---------------------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    return bench_main(
        argv,
        description=__doc__,
        default_out="BENCH_dag.json",
        smoke_ops=512,
        headlines=HEADLINES,
        measure=measure,
        check_claims=check_claims,
        render_table=render_table,
        traced_run=traced_run,
    )


if __name__ == "__main__":
    sys.exit(main())
