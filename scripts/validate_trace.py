"""CI trace validator: a trace is valid when it rebuilds, and every
report embedded in it is the report of the rebuilt spans.

Every entry of the CI bench matrix exports its smoke run's full trace
(``--trace out.json``) and runs this script on it, which checks:

* **rebuild** — :func:`repro.obs.trace_from_chrome` turns the document
  back into a recorder; it runs :func:`repro.obs.validate_chrome_trace`
  first (required keys per event phase, numeric timestamps,
  non-negative durations), so the artifact loads in Perfetto /
  ``chrome://tracing``.  A document marked ``otherData.sampled`` (the
  ring-buffer schema the program no longer writes) is refused outright;
* **re-render** — :func:`repro.obs.chrome_trace` of the rebuilt spans
  reproduces ``traceEvents`` event by event, in document order.  The
  display-only ``wait:*`` boxes are rendered from each span's recorded
  ``args.stalls``, so this also proves they tile the stalls exactly;
* **re-derive** — each report embedded in ``otherData`` equals the one
  derived from the rebuilt spans: ``category_totals``, the critical-path
  ``attribution`` (:func:`repro.obs.critical_path_report`, which must
  partition the makespan) and the per-track ``utilization``
  (:func:`repro.obs.utilization_report`).  An absent block is not
  checked, so a bare trace stays valid;
* **faults track** — traces carrying a ``faults`` track (fault-injected
  runs; see :mod:`repro.faults`) must keep it well-formed: only the
  known crash / declared-dead / revoke / rejoin instants and off-chain
  ``recovery`` spans, each tagged with its node, rejoins only after a
  crash of the same node, and every recovery span anchored at a
  recorded failure event.  Absent the track, the check is a no-op.

Numbers are compared within :data:`TOLERANCE`: the display-scale round
trip (``ts = virtual_time * SCALE``) is not bit-exact.

Usage::

    PYTHONPATH=src python scripts/validate_trace.py out.json
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from pathlib import Path

from repro.obs import (
    TraceError,
    TraceExportError,
    chrome_trace,
    critical_path_report,
    trace_from_chrome,
    utilization_report,
)

#: Relative tolerance of every numeric comparison (float round trips
#: and re-association, not measurement slack).
TOLERANCE = 1e-6


def _mismatch(found, expected, path: str) -> str | None:
    """Where ``found`` first differs from ``expected``, or ``None``:
    dicts key by key, lists element by element, numbers within
    :data:`TOLERANCE` of each other."""
    if isinstance(found, dict) and isinstance(expected, dict):
        for key in sorted(found.keys() | expected.keys()):
            if key not in found or key not in expected:
                side = "the document" if key in found else "the rebuild"
                return f"{path}.{key} is only in {side}"
            where = _mismatch(found[key], expected[key], f"{path}.{key}")
            if where is not None:
                return where
        return None
    if isinstance(found, (list, tuple)) and isinstance(
        expected, (list, tuple)
    ):
        for index, pair in enumerate(zip(found, expected)):
            where = _mismatch(*pair, f"{path}[{index}]")
            if where is not None:
                return where
        if len(found) == len(expected):
            return None
        return f"{path} has {len(found)} entries, the rebuild {len(expected)}"
    if isinstance(found, (int, float)) and isinstance(expected, (int, float)):
        if abs(found - expected) <= TOLERANCE * max(abs(expected), 1.0):
            return None
    elif found == expected:
        return None
    return f"{path} reads {found!r}, the rebuild gives {expected!r}"


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
        rebuilt = trace_from_chrome(document)
    except TraceExportError as exc:
        return [f"{path}: invalid Chrome trace-event JSON: {exc}"]
    except TraceError as exc:
        return [f"{path}: the span events do not rebuild: {exc}"]
    other = document.get("otherData", {})
    if other.get("sampled"):
        return [
            f"{path}: otherData.sampled is true, but sampled traces are "
            f"no longer produced (the recorder keeps every span); "
            f"re-export the run in full"
        ]
    failures = []
    where = _mismatch(
        document["traceEvents"],
        chrome_trace(rebuilt)["traceEvents"],
        "traceEvents",
    )
    if where is not None:
        failures.append(
            f"the events are not what the rebuilt spans render: {where}"
        )
    derive = {
        "category_totals": rebuilt.category_totals,
        "attribution": lambda: critical_path_report(rebuilt).check().as_dict(),
        "utilization": lambda: utilization_report(rebuilt).check().as_dict(),
    }
    for key, report in derive.items():
        if key not in other:
            continue  # a bare trace without an embedded report is fine
        try:
            expected = report()
        except TraceError as exc:
            failures.append(f"the rebuilt spans fail the {key} check: {exc}")
            continue
        where = _mismatch(other[key], expected, f"otherData.{key}")
        if where is not None:
            failures.append(
                f"embedded {key} is not the rebuilt spans' {key}: {where}"
            )
    failures.extend(_check_faults(document))
    return failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="validate an exported Chrome trace and the reports "
        "embedded in it"
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
