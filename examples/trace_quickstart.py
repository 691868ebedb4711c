#!/usr/bin/env python3
"""Observability quickstart: trace a run, attribute its makespan.

Attaches a :class:`repro.obs.TraceRecorder` to the DAG-scheduling engine
on the chain-heavy administrated-token mix, then shows the three things
the observability layer produces from one traced run:

* **spans** — every operation's virtual-time execution interval on its
  lane, every sync phase, every recorded wait;
* **a Chrome trace** — the same spans exported as Chrome trace-event
  JSON, loadable in Perfetto or ``chrome://tracing`` (one track per
  lane, the engine's instants as markers);
* **makespan attribution** — a backward walk over the chained spans
  that partitions the end-to-end virtual time into execute / sync wait /
  frontier stall / lease wait / dispatch stall / network, summing to the
  makespan *exactly* (the report's ``check()`` enforces it).

The tracer is strictly optional: without one, the engine records nothing
and every stats dict is bit-identical to the untraced run.

Run:  python examples/trace_quickstart.py
"""

from __future__ import annotations

import json
import tempfile
from pathlib import Path

from repro.config import EngineConfig
from repro.engine import PipelinedExecutor
from repro.obs import TraceRecorder, critical_path_report, write_chrome_trace
from repro.objects.erc20 import ERC20TokenType
from repro.workloads import CHAIN_HEAVY_MIX, TokenWorkloadGenerator

RULE = "=" * 72

ACCOUNTS = 96
OPS = 384


def main() -> None:
    print(RULE)
    print("repro.obs quickstart: span tracing and makespan attribution")
    print(RULE)

    tracer = TraceRecorder()
    token = ERC20TokenType(ACCOUNTS, total_supply=100 * ACCOUNTS)
    engine = PipelinedExecutor(
        token, EngineConfig(num_lanes=8, seed=7), tracer=tracer
    )
    items = TokenWorkloadGenerator(
        ACCOUNTS,
        seed=7,
        mix=CHAIN_HEAVY_MIX,
        hotspot_fraction=0.35,
        hotspot_accounts=4,
    ).generate(OPS)
    _, _, stats = engine.run_workload(items)

    print(f"\nran {stats.ops_executed} ops of the chain-heavy mix in "
          f"{stats.virtual_time:.1f} units of virtual time")
    print(f"recorded {len(tracer.spans)} spans and "
          f"{len(tracer.instants)} instants on "
          f"{len(tracer.tracks())} tracks")
    print(f"every submitted op reached commit: "
          f"{not tracer.unterminated()}")

    # One operation's recorded lifecycle, stage by stage.
    seq = next(iter(tracer.op_seqs))
    lifecycle = tracer.lifecycle(seq)
    print(f"\nlifecycle of op {seq} (virtual timestamps):")
    for stage, ts in lifecycle.items():
        print(f"  {stage:>9} @ {ts:.2f}")

    # The attribution report: the makespan, partitioned.
    report = critical_path_report(tracer)
    report.check()  # totals sum to the makespan exactly, or this raises
    print()
    print("\n".join(report.render()))

    # The Chrome trace, with the attribution and utilization reports in
    # its otherData: drop the file onto https://ui.perfetto.dev
    out = Path(tempfile.mkdtemp(prefix="repro_obs_")) / "trace.json"
    document = write_chrome_trace(tracer, out)
    events = document["traceEvents"]
    print(f"\nwrote {out}")
    print(f"  {len(events)} trace events; load it in Perfetto or "
          "chrome://tracing")
    print("  first event: "
          f"{json.dumps(events[0], sort_keys=True)}")

    # Per-op latency percentiles come from the tracer's metrics registry.
    latency = tracer.metrics.histogram("op_latency").summary()
    print(f"\nop commit latency: p50 {latency['p50']:.2f}  "
          f"p99 {latency['p99']:.2f}  mean {latency['mean']:.2f}  "
          f"over {latency['count']} ops")
    print(RULE)


if __name__ == "__main__":
    main()
