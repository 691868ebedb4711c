"""Bench-regression gate: compare a smoke run against its committed baseline.

Every CI bench job runs its benchmark with ``--smoke --out BENCH_<name>.json``
and then calls this script, which compares the run's *headline metrics*
(message bills, virtual-time makespans, escalation rates, throughput)
against ``benchmarks/baselines/BENCH_<name>.json``.  A metric drifting
outside the tolerance band fails the job — the point is to catch silent
performance regressions (a scheduling change that doubles the consensus
bill, a lease policy that stops migrating) that the functional suites
cannot see.

The gate holds no per-bench knowledge: a bench JSON describes itself.
Its ``headlines`` block (written by the bench file that defines those
keys) lists the dotted paths to compare — ``band`` within the relative
tolerance, ``zero`` exactly — and a run whose ``headlines`` or ``config``
block differs from the baseline's is refused.  A failure also diffs the
two files' ``profile`` blocks (:mod:`repro.obs.diff`) and prints the top
movers: *that* a metric moved arrives with *where the time went*.

The simulations are deterministic (seeded virtual-time discrete-event
runs), so on an unchanged tree every metric reproduces *exactly*; the
band (default ±25%) only leaves room for intentional small shifts.
Anything outside it should be a conscious decision — **re-baseline**::

    PYTHONPATH=src python benchmarks/bench_<name>.py --smoke \
        --out benchmarks/baselines/BENCH_<name>.json

and commit the JSON together with the change that caused it, with a line
in the commit message saying *why* the numbers moved.

Usage::

    python scripts/check_bench.py <name> --run BENCH_<name>.json \
        [--baseline PATH] [--tolerance 0.25]
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# Self-sufficient import path: CI invokes the gate without PYTHONPATH=src.
sys.path.insert(0, str(ROOT / "src"))

from repro.errors import ReproError  # noqa: E402
from repro.obs import explain_regression  # noqa: E402

DEFAULT_TOLERANCE = 0.25

#: Sentinel for an absent (or, for a metric, non-numeric) key: it becomes
#: a per-key failure message instead of an opaque KeyError traceback.
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


def _flatten(node, prefix: str) -> dict:
    """Flatten a nested dict to dotted-path -> leaf value."""
    if not isinstance(node, dict):
        return {prefix: node}
    flat: dict = {}
    for key, value in node.items():
        flat.update(_flatten(value, f"{prefix}.{key}"))
    return flat


def compare_block(block: str, baseline: dict, run: dict) -> list[str]:
    """The self-describing-baseline check: ``config`` (the active
    ``EngineConfig``/``ClusterConfig`` defaults) and ``headlines`` (what
    the gate compares) must read the same on both sides — a default flip
    or an edited metric list must re-baseline, never silently move one
    number or un-gate one."""
    failures = [
        f"{block}: the {side} carries no {block} block — {fix}"
        for side, data, fix in (
            ("committed baseline", baseline, "re-baseline this bench"),
            ("run output", run, "the benchmark bypassed bench_main"),
        )
        if block not in data
    ]
    if failures:
        return failures
    base_flat = _flatten(baseline[block], block)
    run_flat = _flatten(run[block], block)
    return [
        f"{key}: baseline {base_flat.get(key, '<absent>')!r}, "
        f"run {run_flat.get(key, '<absent>')!r} — the bench no longer "
        "describes itself as its baseline does; re-baseline and commit "
        "the updated JSON"
        for key in sorted(set(base_flat) | set(run_flat))
        if base_flat.get(key, _MISSING) != run_flat.get(key, _MISSING)
    ]


def headline_paths(run: dict) -> tuple[list[str], list[str]]:
    """The run's ``(band, zero)`` headline lists; [] where absent or not
    a list of dotted paths (:func:`compare` fails an empty gate)."""
    headlines = run.get("headlines")
    if not isinstance(headlines, dict):
        return [], []
    band, zero = (
        [path for path in paths if isinstance(path, str)]
        if isinstance(paths := headlines.get(kind), list)
        else []
        for kind in ("band", "zero")
    )
    return band, zero


def compare(baseline: dict, run: dict, tolerance: float) -> list[str]:
    """Return a list of human-readable regression descriptions."""
    failures = compare_block("config", baseline, run)
    failures += compare_block("headlines", baseline, run)
    band, zero = headline_paths(run)
    if not band + zero:
        failures.append(
            "headlines: the run lists no headline metric — nothing is gated"
        )
    for path in band + zero:
        base, got = lookup(baseline, path), lookup(run, path)
        if base is _MISSING:
            failures.append(
                f"{path}: missing from the committed baseline (or not a "
                "number there); re-baseline this bench"
            )
        if got is _MISSING:
            failures.append(
                f"{path}: missing from the run output (or not a number) — "
                "restore the metric or drop it from the bench's HEADLINES"
            )
        if base is _MISSING or got is _MISSING:
            continue
        # An invariant is a band of width zero; ``not <=`` so that a NaN
        # on either side fails instead of comparing false.
        bound = 0.0 if path in zero else tolerance * max(abs(base), 1e-9)
        if not abs(got - base) <= bound:
            failures.append(
                f"{path}: baseline {base:g}, run {got:g} "
                f"(drift {got - base:+g}, allowed ±{bound:g})"
            )
    return failures


def explain(baseline: dict, run: dict, top: int = 3) -> list[str]:
    """Diff the two embedded profiles: the gate said *that* a metric
    drifted, the trace diff says *where the virtual time went*.  An
    unusable profile degrades to a note, never masks the gate failure."""
    try:
        return explain_regression(
            baseline, run, labels=("baseline", "run")
        ).render(top=top)
    except ReproError as exc:
        return [f"no trace diff: {exc}"]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="compare a bench smoke run against its committed baseline"
    )
    parser.add_argument(
        "bench", help="the bench to gate (names the default baseline)"
    )
    parser.add_argument(
        "--run", type=Path, required=True, help="the smoke run's JSON output"
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
    args = parser.parse_args(argv)
    if not 0 <= args.tolerance < 1:
        parser.error("--tolerance must be in [0, 1)")
    baseline_path = args.baseline or (
        ROOT / "benchmarks" / "baselines" / f"BENCH_{args.bench}.json"
    )
    if not baseline_path.exists():
        parser.error(f"no baseline for {args.bench!r}: {baseline_path}")
    baseline = json.loads(baseline_path.read_text())
    run = json.loads(args.run.read_text())
    failures = compare(baseline, run, args.tolerance)
    checked = sum(map(len, headline_paths(run)))
    if failures:
        print(
            f"bench-regression gate FAILED for {args.bench} "
            f"({len(failures)} finding(s) over {checked} headline metrics):"
        )
        for failure in failures:
            print(f"  - {failure}")
        print()
        print("\n".join(explain(baseline, run)))
        print(
            "\nIf the drift is intentional, re-baseline (see "
            "scripts/check_bench.py docstring) and commit the updated JSON."
        )
        return 1
    print(
        f"bench-regression gate OK for {args.bench}: {checked} headline "
        f"metrics within ±{args.tolerance:.0%} of {baseline_path}"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
