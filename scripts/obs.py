"""One command over the repo's one trace schema: gate, diff, validate.

A bench JSON (``benchmarks/bench_<name>.py --out``) describes itself —
numbers, active ``config``, its ``headlines`` list and the ``profile``
of its traced run — and a trace (``--trace``) is the document
:func:`repro.obs.chrome_trace` writes, every report embedded.  So no
subcommand holds per-bench knowledge; all share one loader, one
comparer (:func:`mismatches`) and one findings printer, and none needs
``PYTHONPATH`` (the script puts ``src/`` on the path).

* ``gate <name> --run BENCH.json [--baseline B] [--tolerance T]`` holds
  a smoke run to ``benchmarks/baselines/BENCH_<name>.json``: ``band``
  headlines within the tolerance (default ±25%), ``zero`` ones exactly,
  and equal ``config`` and ``headlines`` blocks (a default flip or an
  edited metric list must re-baseline).  It diffs the two embedded
  profiles on every run, prints the top movers, and fails when a
  category moves by more than :data:`CATEGORY_BUDGET` of the baseline
  makespan.  The runs are seeded and deterministic, so an unchanged
  tree reproduces every number; re-baseline an intentional move with
  ``PYTHONPATH=src python benchmarks/bench_<name>.py --smoke --out
  benchmarks/baselines/BENCH_<name>.json`` and commit it with the change.
* ``diff BASE.json RUN.json [--top N]`` takes a bench JSON or a trace on
  either side and ranks the categories that moved the makespan (their
  deltas re-partition its delta, checked), with the worst track of each
  and the per-op lifecycle stages that slowed.
* ``validate TRACE.json...`` holds each trace equal to
  ``chrome_trace(trace_from_chrome(trace))`` in document order, numbers
  within :data:`TOLERANCE` (the display-scale round trip is not
  bit-exact); ``otherData.op_stages`` is copied from the document, as
  per-op lifecycles do not rebuild from span events.  A ``faults`` track
  (see :mod:`repro.faults`) must also keep its schema.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from itertools import islice
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from repro.errors import ReproError  # noqa: E402
from repro.obs import (  # noqa: E402
    TraceError,
    TraceExportError,
    chrome_trace,
    explain_regression,
    trace_from_chrome,
)

DEFAULT_TOLERANCE = 0.25

#: The gate's budget on where the time may move: no attribution category
#: may move by more than this share of the baseline makespan (clamped to
#: 1 vt, so a degenerate baseline cannot make it vacuous).
CATEGORY_BUDGET = 0.20

#: Relative tolerance of the validator's numeric comparisons (float
#: round trips and re-association, not measurement slack).
TOLERANCE = 1e-6

#: Sentinel for an absent (or, for a metric, non-numeric) key: it becomes
#: a per-key finding instead of an opaque KeyError traceback.
_MISSING = object()


class Unusable(Exception):
    """An input file that is not a readable JSON object: one finding."""


def load(path: Path) -> dict:
    try:
        document = json.loads(path.read_text())
    except (OSError, ValueError) as exc:
        raise Unusable(f"{path}: not readable JSON: {exc}") from exc
    if not isinstance(document, dict):
        raise Unusable(f"{path}: not a JSON object")
    return document


def mismatches(found, expected, labels, tolerance, path=""):
    """Yield each place ``found`` differs from ``expected``, in
    ``found``'s order: dicts key by key, lists element by element,
    numbers within ``tolerance`` (relative, floored at 1) of each other.
    ``labels`` name the two sides."""
    if isinstance(found, dict) and isinstance(expected, dict):
        for key in [*found, *(k for k in expected if k not in found)]:
            where = f"{path}.{key}" if path else str(key)
            if key in found and key in expected:
                yield from mismatches(
                    found[key], expected[key], labels, tolerance, where
                )
            else:
                side = labels[0] if key in found else labels[1]
                yield f"{where}: only in the {side}"
    elif isinstance(found, (list, tuple)) and isinstance(
        expected, (list, tuple)
    ):
        for index, pair in enumerate(zip(found, expected)):
            yield from mismatches(*pair, labels, tolerance, f"{path}[{index}]")
        if len(found) != len(expected):
            yield (
                f"{path}: {len(found)} entries in the {labels[0]}, "
                f"{len(expected)} in the {labels[1]}"
            )
    elif found != expected and not (
        isinstance(found, (int, float))
        and isinstance(expected, (int, float))
        and abs(found - expected) <= tolerance * max(abs(expected), 1.0)
    ):
        yield f"{path}: {labels[0]} {found!r}, {labels[1]} {expected!r}"


def failed(header: str, findings: list[str]) -> int:
    """Print a failure and its findings; the exit status."""
    print(header)
    for finding in findings:
        print(f"  - {finding}")
    return 1


def lookup(data: dict, path: str):
    node = data
    for part in path.split("."):
        if not isinstance(node, dict) or part not in node:
            return _MISSING
        node = node[part]
    if not isinstance(node, (int, float)) or isinstance(node, bool):
        return _MISSING
    return node


def headline_paths(run: dict) -> tuple[list[str], list[str]]:
    """The run's ``(band, zero)`` headline lists; [] where absent or not
    a list of dotted paths (:func:`gate` fails an empty gate)."""
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


def gate(
    baseline: dict, run: dict, tolerance: float
) -> tuple[list[str], list[str]]:
    """The gate's findings, and the top movers of the diff between the
    two embedded profiles (none when a profile is unusable)."""
    blocks = [
        {key: side[key] for key in ("config", "headlines") if key in side}
        for side in (baseline, run)
    ]
    findings = list(mismatches(*blocks, ("baseline", "run"), 0.0))
    band, zero = headline_paths(run)
    if not band + zero:
        findings.append(
            "headlines: the run lists no headline metric — nothing is gated"
        )
    for path in band + zero:
        base, got = lookup(baseline, path), lookup(run, path)
        if base is _MISSING:
            findings.append(
                f"{path}: missing from the committed baseline (or not a "
                "number there); re-baseline this bench"
            )
        if got is _MISSING:
            findings.append(
                f"{path}: missing from the run output (or not a number) — "
                "restore the metric or drop it from the bench's HEADLINES"
            )
        if base is _MISSING or got is _MISSING:
            continue
        # An invariant is a band of width zero; ``not <=`` so that a NaN
        # on either side fails instead of comparing false.
        bound = 0.0 if path in zero else tolerance * max(abs(base), 1e-9)
        if not abs(got - base) <= bound:
            findings.append(
                f"{path}: baseline {base:g}, run {got:g} "
                f"(drift {got - base:+g}, allowed ±{bound:g})"
            )
    try:
        explanation = explain_regression(
            baseline, run, labels=("baseline", "run")
        )
    except ReproError as exc:
        return [*findings, f"profile: no trace diff: {exc}"], []
    budget = CATEGORY_BUDGET * max(explanation.base.makespan, 1.0)
    findings += [
        f"profile.totals.{delta.category}: baseline {delta.base:.2f}, "
        f"run {delta.other:.2f} vt ({delta.delta:+.2f}, over the "
        f"{budget:.2f} vt budget: {CATEGORY_BUDGET:.0%} of the baseline "
        "makespan)"
        for delta in explanation.categories
        if abs(delta.delta) > budget
    ]
    return findings, explanation.render(top=3)


def run_gate(args: argparse.Namespace) -> int:
    baseline_path = args.baseline or (
        ROOT / "benchmarks" / "baselines" / f"BENCH_{args.bench}.json"
    )
    try:
        baseline, run = load(baseline_path), load(args.run)
    except Unusable as exc:
        return failed(
            f"bench-regression gate FAILED for {args.bench}:", [str(exc)]
        )
    findings, movers = gate(baseline, run, args.tolerance)
    checked = sum(map(len, headline_paths(run)))
    if findings:
        failed(
            f"bench-regression gate FAILED for {args.bench} "
            f"({len(findings)} finding(s) over {checked} headline metrics):",
            findings,
        )
        print("\n".join(["", *movers, ""]))
        print("If the drift is intentional, re-baseline (see scripts/obs.py).")
        return 1
    print(
        f"bench-regression gate OK for {args.bench}: {checked} headline "
        f"metrics within ±{args.tolerance:.0%} of {baseline_path}, no "
        f"category over {CATEGORY_BUDGET:.0%} of the baseline makespan"
    )
    print("\n".join(movers))
    return 0


def run_diff(args: argparse.Namespace) -> int:
    try:
        explanation = explain_regression(
            load(args.base),
            load(args.run),
            labels=(args.base.name, args.run.name),
        )
    except (Unusable, ReproError) as exc:
        return failed("trace diff FAILED:", [str(exc)])
    print("\n".join(explanation.render(top=args.top)))
    return 0


#: The instant vocabulary of the ``faults`` track (repro.faults /
#: cluster fail-over): anything else on the track is a schema error.
_FAULT_INSTANTS = (
    re.compile(r"^node (\d+) crashed$"),
    re.compile(r"^node (\d+) declared dead$"),
    re.compile(r"^revoke shard \d+ -> node (\d+)$"),
    re.compile(r"^node (\d+) rejoined$"),
)


def _check_faults(document: dict) -> list[str]:
    """The ``faults`` track schema: known instants only, off-chain
    ``recovery`` spans tagged with their node, rejoins preceded by a
    crash of the same node, and recovery spans anchored at a recorded
    failure (declared-dead or rejoin) instant.  No track, no check."""
    track_ids = {
        (event["pid"], event["tid"])
        for event in document["traceEvents"]
        if event["ph"] == "M"
        and event.get("args", {}).get("name") == "faults"
    }
    if not track_ids:
        return []
    failures: list[str] = []
    crashed: dict[int, float] = {}
    failure_instants: dict[int, list[float]] = {}
    spans = []
    for event in document["traceEvents"]:
        if (event["pid"], event["tid"]) not in track_ids:
            continue
        if event["ph"] == "X":
            spans.append(event)
            continue
        if event["ph"] != "i":
            continue
        name = event["name"]
        match = next(
            (m for p in _FAULT_INSTANTS if (m := p.match(name))), None
        )
        if match is None:
            failures.append(f"unknown instant on the faults track: {name!r}")
            continue
        node = event.get("args", {}).get("node")
        if not isinstance(node, int):
            failures.append(f"faults instant {name!r} lacks an args.node")
            continue
        if name.endswith("crashed"):
            crashed.setdefault(node, event["ts"])
        elif name.endswith("declared dead") or name.endswith("rejoined"):
            failure_instants.setdefault(node, []).append(event["ts"])
        if name.endswith("rejoined") and crashed.get(node, float("inf")) > (
            event["ts"] + TOLERANCE
        ):
            failures.append(
                f"node {node} rejoined at {event['ts']:g} without a "
                f"prior crash instant"
            )
    for span in spans:
        name = span["name"]
        match = re.match(r"^recovery node (\d+)$", name)
        args = span.get("args", {})
        if match is None or span.get("cat") != "recovery":
            failures.append(
                f"unexpected span on the faults track: {name!r} "
                f"(cat {span.get('cat')!r})"
            )
            continue
        if args.get("chain") is not False:
            failures.append(
                f"recovery span {name!r} must be off-chain (chain=False):"
                f" recovery overlaps execution, it does not serialize it"
            )
        node = int(match.group(1))
        anchors = failure_instants.get(node, [])
        if not any(
            abs(span["ts"] - ts) <= TOLERANCE * max(abs(ts), 1.0)
            for ts in anchors
        ):
            failures.append(
                f"recovery span for node {node} starts at {span['ts']:g} "
                f"but no declared-dead/rejoin instant anchors it"
            )
    return failures


def validate(document: dict) -> list[str]:
    """The first place ``document`` is not the export of the spans it
    rebuilds into, then every ``faults`` track violation."""
    try:
        expected = chrome_trace(trace_from_chrome(document))
    except TraceExportError as exc:
        return [f"invalid Chrome trace-event JSON: {exc}"]
    except TraceError as exc:
        return [f"the span events do not rebuild into an export: {exc}"]
    other = document.get("otherData")
    if isinstance(other, dict) and "op_stages" in other:
        expected["otherData"]["op_stages"] = other["op_stages"]
    first = islice(
        mismatches(document, expected, ("document", "rebuild"), TOLERANCE), 1
    )
    findings = [f"not its spans' export: {where}" for where in first]
    return findings + _check_faults(document)


def run_validate(args: argparse.Namespace) -> int:
    status = 0
    for path in args.trace:
        try:
            document = load(path)
            findings = validate(document)
        except Unusable as exc:
            findings = [str(exc)]
        if findings:
            status = failed(f"trace validation FAILED for {path}:", findings)
            continue
        print(
            f"trace OK: {path} ({len(document['traceEvents'])} events, "
            f"attribution sums to makespan "
            f"{document['otherData']['attribution']['makespan']:.4f})"
        )
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    commands = parser.add_subparsers(dest="command", required=True)
    gate_parser = commands.add_parser("gate", help="gate a bench run")
    gate_parser.add_argument("bench", help="names the default baseline")
    gate_parser.add_argument("--run", type=Path, required=True)
    gate_parser.add_argument("--baseline", type=Path, default=None)
    gate_parser.add_argument(
        "--tolerance", type=float, default=DEFAULT_TOLERANCE
    )
    diff_parser = commands.add_parser("diff", help="explain two runs")
    diff_parser.add_argument("base", type=Path, help="bench JSON or trace")
    diff_parser.add_argument("run", type=Path, help="bench JSON or trace")
    diff_parser.add_argument("--top", type=int, default=None, metavar="N")
    validate_parser = commands.add_parser("validate", help="check traces")
    validate_parser.add_argument("trace", type=Path, nargs="+")
    args = parser.parse_args(argv)
    if args.command == "gate" and not 0 <= args.tolerance < 1:
        gate_parser.error("--tolerance must be in [0, 1)")
    if args.command == "diff" and args.top is not None and args.top < 1:
        diff_parser.error("--top must be >= 1")
    run = {"gate": run_gate, "diff": run_diff, "validate": run_validate}
    return run[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
