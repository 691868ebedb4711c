"""CI trace validator: schema plus exact makespan attribution.

The ``obs`` job in the bench matrix runs a traced smoke bench
(``--trace out.json``) and then this script, which enforces the
observability invariants end to end:

* the exported document is valid Chrome trace-event JSON (checked by
  :func:`repro.obs.validate_chrome_trace` — required keys per event
  phase, numeric timestamps, non-negative durations), so the artifact
  actually loads in Perfetto / ``chrome://tracing``;
* the makespan attribution embedded in ``otherData.attribution``
  *partitions* the virtual-time makespan: the per-category totals sum
  to the makespan exactly (within floating-point tolerance).  An
  instrumentation change that double-charges or drops a wait breaks
  this sum before it misleads anyone reading the report;
* each span's display-only ``wait:*`` boxes *tile* the interval before
  it — the rendered stalls are exactly the recorded stalls, back to
  back, ending at the span's start;
* the embedded ``otherData.category_totals`` equal the occupancy
  recomputed from the span events;
* a document marked ``otherData.sampled`` (the ring-buffer schema the
  program no longer writes) is rejected outright;
* traces carrying a ``faults`` track (fault-injected runs; see
  :mod:`repro.faults`) must keep it well-formed: only the known
  crash / declared-dead / revoke / rejoin instants and off-chain
  ``recovery`` spans, each tagged with its node, rejoins only after a
  crash of the same node, and every recovery span anchored at a
  recorded failure event.  Absent the track, the check is a no-op.

Usage::

    PYTHONPATH=src python scripts/validate_trace.py out.json
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from pathlib import Path

from repro.obs import TraceExportError, validate_chrome_trace
from repro.obs.export import SCALE

#: Relative tolerance for the attribution sum (floating-point
#: accumulation over the backward walk, not measurement slack).
TOLERANCE = 1e-6


def _spans(document: dict):
    """The real span events: "X" phase, not a display-only wait box."""
    for event in document["traceEvents"]:
        if event["ph"] == "X" and not event["name"].startswith("wait:"):
            yield event


def _occupancy_from_events(document: dict) -> dict[str, float]:
    """Recompute the additive occupancy totals from the span events
    (chained spans' durations by category plus their recorded stall
    amounts) — the cross-check against ``category_totals``."""
    totals: dict[str, float] = {}
    for event in _spans(document):
        args = event.get("args", {})
        if args.get("chain") is False:
            continue
        category = event.get("cat", "execute")
        totals[category] = totals.get(category, 0.0) + (
            event["dur"] / SCALE
        )
        for stall_category, amount in args.get("stalls", []):
            totals[stall_category] = (
                totals.get(stall_category, 0.0) + float(amount)
            )
    return totals


def _check_wait_tiling(document: dict) -> list[str]:
    """Each span's ``wait:*`` boxes must tile ``[start − Σstalls,
    start)`` back to back on the span's own track — the rendered waits
    are the recorded ones, not an approximation."""
    failures: list[str] = []
    waits: dict[tuple, list[dict]] = {}
    for event in document["traceEvents"]:
        if event["ph"] == "X" and event["name"].startswith("wait:"):
            waits.setdefault(
                (event["pid"], event["tid"]), []
            ).append(event)
    for event in _spans(document):
        stalls = event.get("args", {}).get("stalls")
        if not stalls:
            continue
        track_waits = waits.get((event["pid"], event["tid"]), [])
        cursor = event["ts"] - sum(
            float(amount) for _, amount in stalls
        ) * SCALE
        for stall_category, amount in reversed(stalls):
            amount = float(amount)
            if amount <= 0:
                continue
            bound = TOLERANCE * max(abs(cursor), 1.0)
            if not any(
                wait["name"] == f"wait:{stall_category}"
                and abs(wait["ts"] - cursor) <= bound
                and abs(wait["dur"] - amount * SCALE) <= bound
                for wait in track_waits
            ):
                failures.append(
                    f"span {event['name']!r} records a "
                    f"{stall_category} stall of {amount:g} vt but no "
                    f"wait box tiles [{cursor:g}, "
                    f"{cursor + amount * SCALE:g}) on its track"
                )
            cursor += amount * SCALE
    return failures


def _check_category_totals(document: dict) -> list[str]:
    """The embedded ``category_totals`` must match the span events."""
    totals = document.get("otherData", {}).get("category_totals")
    if not isinstance(totals, dict):
        return []
    failures: list[str] = []
    recomputed = _occupancy_from_events(document)
    for category in sorted(set(totals) | set(recomputed)):
        embedded = totals.get(category, 0.0)
        amount = recomputed.get(category, 0.0)
        bound = TOLERANCE * max(abs(embedded), 1.0)
        if abs(amount - embedded) > bound:
            failures.append(
                f"embedded category_totals diverge from the span "
                f"events for {category}: embedded {embedded!r} vs "
                f"recomputed {amount!r}"
            )
    return failures


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


def validate(path: Path) -> list[str]:
    """Return a list of human-readable violations (empty = valid)."""
    try:
        document = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        return [f"{path}: not readable JSON: {exc}"]
    try:
        validate_chrome_trace(document)
    except TraceExportError as exc:
        return [f"{path}: invalid Chrome trace-event JSON: {exc}"]
    other = document.get("otherData", {})
    if other.get("sampled"):
        return [
            f"{path}: otherData.sampled is true, but sampled traces are "
            f"no longer produced (the recorder keeps every span); "
            f"re-export the run in full"
        ]
    failures = _check_wait_tiling(document)
    failures.extend(_check_faults(document))
    failures.extend(_check_category_totals(document))
    attribution = other.get("attribution")
    if attribution is None:
        return failures  # a bare trace without an embedded report is fine
    makespan = attribution["makespan"]
    attributed = sum(attribution["totals"].values())
    bound = TOLERANCE * max(abs(makespan), 1.0)
    if abs(attributed - makespan) > bound:
        failures.append(
            f"attribution totals do not partition the makespan: "
            f"sum {attributed!r} vs makespan {makespan!r} "
            f"(|difference| {abs(attributed - makespan):g} > {bound:g})"
        )
    negative = {
        category: total
        for category, total in attribution["totals"].items()
        if total < 0
    }
    if negative:
        failures.append(f"negative category totals: {negative}")
    return failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="validate an exported Chrome trace and its embedded "
        "makespan attribution"
    )
    parser.add_argument(
        "trace", type=Path, nargs="+", help="trace JSON file(s) to check"
    )
    args = parser.parse_args(argv)
    status = 0
    for path in args.trace:
        failures = validate(path)
        if failures:
            status = 1
            print(f"trace validation FAILED for {path}:")
            for failure in failures:
                print(f"  - {failure}")
            continue
        document = json.loads(path.read_text())
        events = len(document["traceEvents"])
        other = document.get("otherData", {})
        attribution = other.get("attribution")
        detail = (
            f", attribution sums to makespan "
            f"{attribution['makespan']:.4f}"
            if attribution is not None
            else ""
        )
        print(f"trace OK: {path} ({events} events{detail})")
    return status


if __name__ == "__main__":
    sys.exit(main())
