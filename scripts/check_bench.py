"""Bench-regression gate: compare a smoke run against its committed baseline.

Every CI bench job runs its benchmark with ``--smoke --out BENCH_<name>.json``
and then calls this script, which compares the run's *headline metrics*
(message bills, virtual-time makespans, escalation rates, throughput)
against the baseline committed under ``benchmarks/baselines/``.  A metric
drifting outside the tolerance band fails the job — the point is to catch
silent performance regressions (a scheduling change that doubles the
consensus bill, a lease policy that stops migrating) that the functional
suites cannot see.

The simulations are deterministic (seeded virtual-time discrete-event
runs), so on an unchanged tree every metric reproduces *exactly*; the
tolerance band (default ±25%, tighter for counters that must stay zero)
only leaves room for intentional small shifts.  Anything outside the band
should be a conscious decision:

**Re-baselining** (after a change that legitimately moves the numbers)::

    PYTHONPATH=src python scripts/check_bench.py --update-baselines

re-runs every benchmark in smoke mode and rewrites the committed
baselines under ``benchmarks/baselines/`` — both the metric JSON
(``BENCH_<name>.json``) and the baseline trace (``TRACE_<name>.json``).
Commit the updated JSON together with the change that caused it, with a
line in the commit message saying *why* the numbers moved.

**Explaining a failure**: with ``--explain``, a gate failure re-runs the
bench under the virtual-time tracer and diffs it against the committed
baseline trace (:mod:`repro.obs.diff`), printing the top category movers
behind the drift — *that* a metric moved becomes *where the time went*.
``--explain-out PATH`` writes the same lines for CI to upload as an
artifact.

Usage::

    python scripts/check_bench.py \
        <engine|cluster|sync|pipeline|dag|stream|faults> \
        --run BENCH_<name>.json [--baseline PATH] [--tolerance 0.25] \
        [--explain [--explain-out PATH]]
    python scripts/check_bench.py --update-baselines [bench ...]
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

#: Headline metrics per bench, as dotted paths into the result JSON.
#: ``zero`` metrics are invariants (must match the baseline exactly —
#: in practice: stay zero); the rest use the relative tolerance band.
METRICS: dict[str, dict[str, list[str]]] = {
    "engine": {
        "band": [
            "mixes.owner_only.speedup",
            "mixes.owner_only.sharded.throughput",
            "mixes.default.sharded.virtual_time",
            "mixes.spender_heavy.sharded.escalation_rate",
            "mixes.spender_heavy.sharded.escalation_messages",
            "mixes.approval_heavy.sharded.escalation_messages",
            "op_latency.sharded_engine.p50",
            "op_latency.sharded_engine.p99",
        ],
        "zero": [
            "mixes.owner_only.sharded.escalation_messages",
        ],
    },
    "stream": {
        "band": [
            "layers.engine.capacity",
            "layers.engine.levels.hi.throughput",
            "layers.engine.levels.hi.latency.p99",
            "layers.pipelined.capacity",
            "layers.pipelined.levels.hi.throughput",
            "layers.pipelined.levels.hi.latency.p99",
            "layers.cluster.capacity",
            "layers.cluster.levels.hi.throughput",
            "layers.cluster.levels.lo.latency.p99",
            "layers.cluster.levels.hi.slo.breach_windows",
        ],
        "zero": [
            "layers.engine.levels.lo.stream.dropped",
            "layers.pipelined.levels.lo.stream.dropped",
            "layers.cluster.levels.lo.stream.dropped",
        ],
    },
    "cluster": {
        "band": [
            "mixes.owner_only.cluster.4.makespan",
            "mixes.owner_only.cluster.4.throughput",
            "mixes.owner_only.cluster.4.cluster_messages",
            "mixes.spender_heavy.cluster.4.escalation_rate",
            "mixes.spender_heavy.cluster.4.escalation_messages",
            "mixes.default.cluster.4.lease_migrations",
            "owner_local.4.makespan",
            "op_latency.cluster_4.p50",
            "op_latency.cluster_4.p99",
        ],
        "zero": [
            "owner_local.4.escalation_messages",
            "owner_local.4.lease_migrations",
        ],
    },
    "sync": {
        "band": [
            "engine.global.escalation_messages",
            "engine.tiered.escalation_messages",
            "engine.tiered.virtual_time",
            "engine.tiered.escalation_rate",
            "cluster.global.makespan",
            "cluster.tiered.makespan",
            "multi_contract.tiered.messages",
            "op_latency.tiered_engine.p50",
            "op_latency.tiered_engine.p99",
        ],
        "zero": [],
    },
    "pipeline": {
        "band": [
            "engine.approval_heavy.barrier.virtual_time",
            "engine.approval_heavy.pipelined.3.virtual_time",
            "default_vs_legacy.approval_heavy.default.virtual_time",
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
    },
    "dag": {
        "band": [
            "engine.chain_heavy.dag.virtual_time",
            "default_vs_legacy.chain_heavy.default.virtual_time",
            "default_vs_legacy.approval_heavy.default.virtual_time",
            "engine.chain_heavy.dag.dag_speedup",
            "engine.approval_heavy.dag.virtual_time",
            "cluster.chain_heavy.4.dag.makespan",
            "cluster.approval_heavy.4.dag.makespan",
            "cluster.chain_heavy.4.dag.units_dispatched",
            "op_latency.dag_engine.p50",
            "op_latency.dag_engine.p99",
        ],
        "zero": [],
    },
    "faults": {
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
    },
}

DEFAULT_TOLERANCE = 0.25


def _bench_env(root: Path) -> dict[str, str]:
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = (
        src + os.pathsep + env["PYTHONPATH"]
        if env.get("PYTHONPATH")
        else src
    )
    return env


def update_baselines(benches: list[str]) -> int:
    """Re-run each benchmark in smoke mode and rewrite its committed
    baseline JSON *and* baseline trace — the one-command re-baselining
    path after a change that legitimately moves the numbers.  The trace
    (``TRACE_<bench>.json``) is what ``--explain`` diffs a failing run
    against, so the two baselines must always be regenerated together."""
    root = Path(__file__).resolve().parent.parent
    env = _bench_env(root)
    for bench in benches:
        baselines = root / "benchmarks" / "baselines"
        baseline = baselines / f"BENCH_{bench}.json"
        trace = baselines / f"TRACE_{bench}.json"
        print(f"re-baselining {bench} -> {baseline} + {trace}")
        result = subprocess.run(
            [
                sys.executable,
                str(root / "benchmarks" / f"bench_{bench}.py"),
                "--smoke",
                "--out",
                str(baseline),
                "--trace",
                str(trace),
            ],
            env=env,
            cwd=root,
        )
        if result.returncode != 0:
            print(f"re-baselining {bench} FAILED ({result.returncode})")
            return result.returncode
    print(f"updated {len(benches)} baseline(s); review and commit them")
    return 0


def explain_failure(
    bench: str, top: int = 3, out: Path | None = None
) -> list[str]:
    """Re-run the failing bench traced and diff it against the committed
    baseline trace: the gate said *that* a metric drifted, the trace diff
    says *where the virtual time went*.  Returns the explanation lines
    (also printed); a missing baseline trace degrades to a note rather
    than masking the original gate failure."""
    root = Path(__file__).resolve().parent.parent
    baseline_trace = (
        root / "benchmarks" / "baselines" / f"TRACE_{bench}.json"
    )
    if not baseline_trace.exists():
        lines = [
            f"no baseline trace for {bench} ({baseline_trace} missing); "
            "run --update-baselines to create it"
        ]
        print(lines[0])
        return lines
    lines = [
        f"explaining the {bench} regression: re-running traced and "
        f"diffing against {baseline_trace.name}"
    ]
    print(lines[0])
    with tempfile.TemporaryDirectory() as tmp:
        run_out = Path(tmp) / f"BENCH_{bench}.json"
        run_trace = Path(tmp) / f"TRACE_{bench}.json"
        result = subprocess.run(
            [
                sys.executable,
                str(root / "benchmarks" / f"bench_{bench}.py"),
                "--smoke",
                "--out",
                str(run_out),
                "--trace",
                str(run_trace),
            ],
            env=_bench_env(root),
            cwd=root,
            capture_output=True,
            text=True,
        )
        if result.returncode != 0:
            lines.append(
                f"traced re-run FAILED ({result.returncode}); no "
                f"explanation available"
            )
            lines.extend(result.stdout.splitlines()[-5:])
            print("\n".join(lines[1:]))
            return lines
        sys.path.insert(0, str(root / "src"))
        from repro.obs import explain_regression

        explanation = explain_regression(
            json.loads(baseline_trace.read_text()),
            json.loads(run_trace.read_text()),
            labels=("baseline", "run"),
        )
        if explanation.exact:
            explanation.check()
        lines.extend(explanation.render(top=top))
    print("\n".join(lines[1:]))
    if out is not None:
        out.write_text("\n".join(lines) + "\n")
        print(f"wrote {out}")
    return lines


#: Sentinel returned by :func:`lookup` for an absent or non-numeric
#: metric; :func:`compare` turns it into a per-key failure message
#: instead of an opaque KeyError traceback.
_MISSING = object()


def lookup(data: dict, path: str):
    node = data
    for part in path.split("."):
        if not isinstance(node, dict) or part not in node:
            return _MISSING
        node = node[part]
    if not isinstance(node, (int, float)) or isinstance(node, bool):
        return _MISSING
    return node


def _resolve(
    path: str, baseline: dict, run: dict, failures: list[str]
) -> "tuple[float, float] | None":
    """Look a metric up on both sides; on a missing/non-numeric key,
    append one self-explanatory failure per side and return None."""
    base, got = lookup(baseline, path), lookup(run, path)
    if base is _MISSING:
        failures.append(
            f"{path}: missing from the committed baseline — the METRICS "
            "list was extended (or the baseline predates it); "
            "re-baseline this bench and commit the updated JSON"
        )
    if got is _MISSING:
        failures.append(
            f"{path}: missing from the run output — the benchmark no "
            "longer emits this metric (or emits it non-numeric); update "
            "the METRICS list or restore the metric"
        )
    if base is _MISSING or got is _MISSING:
        return None
    return base, got


def _flatten(node, prefix: str = "") -> dict:
    """Flatten a nested dict to dotted-path -> leaf value."""
    if not isinstance(node, dict):
        return {prefix: node}
    flat: dict = {}
    for key, value in node.items():
        path = f"{prefix}.{key}" if prefix else key
        flat.update(_flatten(value, path))
    return flat


def compare_config(baseline: dict, run: dict) -> list[str]:
    """The self-describing-baseline check: every bench JSON embeds the
    active config surface (``EngineConfig``/``ClusterConfig`` defaults),
    and the gate refuses a run whose config block disagrees with the
    baseline's — a default flip must re-baseline, never silently move
    one number."""
    base_cfg, run_cfg = baseline.get("config"), run.get("config")
    if base_cfg is None and run_cfg is None:
        return []
    if base_cfg is None:
        return [
            "config: the committed baseline carries no config block "
            "(predates the unified config API); re-baseline this bench"
        ]
    if run_cfg is None:
        return [
            "config: the run output carries no config block — the "
            "benchmark bypassed bench_main's config recording"
        ]
    base_flat, run_flat = _flatten(base_cfg), _flatten(run_cfg)
    return [
        f"config.{key}: baseline {base_flat.get(key, '<absent>')!r}, "
        f"run {run_flat.get(key, '<absent>')!r} — the active config "
        "surface changed; re-baseline and commit the updated JSON"
        for key in sorted(set(base_flat) | set(run_flat))
        if base_flat.get(key, _MISSING) != run_flat.get(key, _MISSING)
    ]


def compare(
    bench: str, baseline: dict, run: dict, tolerance: float
) -> list[str]:
    """Return a list of human-readable regression descriptions."""
    failures: list[str] = compare_config(baseline, run)
    spec = METRICS[bench]
    for path in spec["band"]:
        resolved = _resolve(path, baseline, run, failures)
        if resolved is None:
            continue
        base, got = resolved
        bound = tolerance * max(abs(base), 1e-9)
        if abs(got - base) > bound:
            failures.append(
                f"{path}: baseline {base:g}, run {got:g} "
                f"(drift {got - base:+g}, allowed ±{bound:g})"
            )
    for path in spec["zero"]:
        resolved = _resolve(path, baseline, run, failures)
        if resolved is None:
            continue
        base, got = resolved
        if got != base:
            failures.append(
                f"{path}: invariant metric changed — baseline {base:g}, "
                f"run {got:g}"
            )
    return failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="compare a bench smoke run against its committed baseline"
    )
    parser.add_argument(
        "bench",
        nargs="*",
        metavar="bench",
        help=f"one of {', '.join(sorted(METRICS))}: the bench to gate "
        "(exactly one), or the benches to re-baseline (default: all) "
        "with --update-baselines",
    )
    parser.add_argument(
        "--update-baselines",
        action="store_true",
        help="re-run the benchmarks in smoke mode and rewrite their "
        "committed baselines instead of gating",
    )
    parser.add_argument(
        "--run", type=Path, default=None, help="the smoke run's JSON output"
    )
    parser.add_argument(
        "--baseline",
        type=Path,
        default=None,
        help="baseline JSON (default: benchmarks/baselines/BENCH_<name>.json)",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=DEFAULT_TOLERANCE,
        help="relative tolerance band (default %(default)s)",
    )
    parser.add_argument(
        "--explain",
        action="store_true",
        help="on gate failure, re-run the bench traced and diff it "
        "against the committed baseline trace "
        "(benchmarks/baselines/TRACE_<name>.json), printing the top "
        "category movers behind the drift",
    )
    parser.add_argument(
        "--explain-out",
        type=Path,
        default=None,
        metavar="PATH",
        help="with --explain: also write the explanation lines to PATH "
        "(CI uploads this as the failure artifact)",
    )
    args = parser.parse_args(argv)
    if not 0 <= args.tolerance < 1:
        parser.error("--tolerance must be in [0, 1)")
    for bench in args.bench:
        if bench not in METRICS:
            parser.error(
                f"unknown bench {bench!r} (choose from "
                f"{', '.join(sorted(METRICS))})"
            )
    if args.update_baselines:
        return update_baselines(args.bench or sorted(METRICS))
    if len(args.bench) != 1:
        parser.error("gating takes exactly one bench name")
    if args.run is None:
        parser.error("--run is required when gating")
    bench = args.bench[0]
    baseline_path = (
        args.baseline
        if args.baseline is not None
        else Path(__file__).resolve().parent.parent
        / "benchmarks"
        / "baselines"
        / f"BENCH_{bench}.json"
    )
    baseline = json.loads(baseline_path.read_text())
    run = json.loads(args.run.read_text())
    failures = compare(bench, baseline, run, args.tolerance)
    spec = METRICS[bench]
    checked = len(spec["band"]) + len(spec["zero"])
    if failures:
        print(
            f"bench-regression gate FAILED for {bench} "
            f"({len(failures)}/{checked} metrics out of band):"
        )
        for failure in failures:
            print(f"  - {failure}")
        if args.explain:
            print()
            explain_failure(bench, out=args.explain_out)
        print(
            "\nIf the drift is intentional, re-baseline (see "
            "scripts/check_bench.py docstring) and commit the updated JSON."
        )
        return 1
    print(
        f"bench-regression gate OK for {bench}: {checked} headline "
        f"metrics within ±{args.tolerance:.0%} of "
        f"{baseline_path}"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
