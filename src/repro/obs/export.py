"""Chrome trace-event JSON export (Perfetto / chrome://tracing loadable).

One process per layer (engine, cluster node, router, sync pool), one
thread per track (lane, node lane, team lane), so Perfetto renders the
virtual timeline the way the simulator ran it.  Virtual time units map
to microseconds (``ts = virtual_time * SCALE``) purely for display — the
trace stays unitless in substance, like everything else in the repo.

One schema: :func:`chrome_trace` embeds every report a trace carries,
so a trace is valid when it is the export of the spans it rebuilds into
(:func:`trace_from_chrome`); ``scripts/obs.py validate`` holds that.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.errors import ReproError
from repro.obs.report import critical_path_report
from repro.obs.trace import TraceRecorder
from repro.obs.utilization import utilization_report

#: Virtual time units -> trace-event microseconds (display scale only).
SCALE = 1000.0


class TraceExportError(ReproError):
    """An exported document that is not valid Chrome trace-event JSON."""


def _track_ids(tracer: TraceRecorder) -> dict[str, tuple[int, int]]:
    """Assign stable (pid, tid) pairs per track: tracks sharing a dotted
    prefix ("node1.lane0", "node1.lane1") share a process."""
    processes: dict[str, int] = {}
    ids: dict[str, tuple[int, int]] = {}
    next_tid: dict[int, int] = {}
    for track in tracer.tracks():
        process = track.split(".", 1)[0] if "." in track else "engine"
        pid = processes.setdefault(process, len(processes) + 1)
        tid = next_tid.get(pid, 1)
        next_tid[pid] = tid + 1
        ids[track] = (pid, tid)
    return ids


def chrome_trace(tracer: TraceRecorder) -> dict:
    """Render a recorder as a Chrome trace-event document (JSON-ready).

    Spans become "X" complete events; their stalls become separate "X"
    events immediately preceding them on the same track (so a stall is
    *visible* in Perfetto, not hidden in args); instants become "i"
    events; tracks are named through "M" metadata events.  ``otherData``
    carries the makespan, the category totals, the per-op lifecycle
    stages, the critical-path ``attribution`` and the per-track
    ``utilization``, both checked (a report that does not partition its
    time raises :class:`~repro.obs.trace.TraceError`).
    """
    ids = _track_ids(tracer)
    events: list[dict] = []
    named_processes: set[int] = set()
    for track, (pid, tid) in ids.items():
        process = track.split(".", 1)[0] if "." in track else "engine"
        if pid not in named_processes:
            named_processes.add(pid)
            events.append(
                {
                    "ph": "M",
                    "pid": pid,
                    "tid": 0,
                    "name": "process_name",
                    "args": {"name": process},
                }
            )
        events.append(
            {
                "ph": "M",
                "pid": pid,
                "tid": tid,
                "name": "thread_name",
                "args": {"name": track},
            }
        )
    for span in tracer.spans:
        pid, tid = ids[span.track]
        # ``stalls`` is latest-first; render earliest-first so the wait
        # boxes tile [start - total_stall, start).
        cursor = span.start - sum(amount for _, amount in span.stalls)
        for stall_category, amount in reversed(span.stalls):
            if amount > 0:
                events.append(
                    {
                        "ph": "X",
                        "pid": pid,
                        "tid": tid,
                        "name": f"wait:{stall_category}",
                        "cat": stall_category,
                        "ts": cursor * SCALE,
                        "dur": amount * SCALE,
                        "args": {"for": span.name},
                    }
                )
            cursor += amount
        # The wait boxes above are display-only; the span itself carries
        # its exact stall list (virtual-time units) and its chain flag in
        # ``args`` so :func:`trace_from_chrome` can rebuild the recorder
        # losslessly from the file alone.
        span_args = dict(span.args)
        if span.stalls:
            span_args["stalls"] = [
                [stall_category, amount]
                for stall_category, amount in span.stalls
            ]
        if not span.chain:
            span_args["chain"] = False
        events.append(
            {
                "ph": "X",
                "pid": pid,
                "tid": tid,
                "name": span.name,
                "cat": span.category,
                "ts": span.start * SCALE,
                "dur": (span.end - span.start) * SCALE,
                "args": span_args,
            }
        )
    for instant in tracer.instants:
        pid, tid = ids[instant.track]
        events.append(
            {
                "ph": "i",
                "pid": pid,
                "tid": tid,
                "name": instant.name,
                "ts": instant.ts * SCALE,
                "s": "t",
                "args": dict(instant.args),
            }
        )
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {
            "virtual_time_scale": SCALE,
            "makespan": tracer.makespan,
            "category_totals": tracer.category_totals(),
            # The per-op lifecycle aggregates are not reconstructible
            # from the span events, so the differ reads them here.
            "op_stages": tracer.stage_totals(),
            "attribution": critical_path_report(tracer).check().as_dict(),
            "utilization": utilization_report(tracer).check().as_dict(),
        },
    }


def write_chrome_trace(tracer: TraceRecorder, path: str | Path) -> dict:
    """Export, validate, and write a trace; returns the document."""
    document = chrome_trace(tracer)
    validate_chrome_trace(document)
    Path(path).write_text(json.dumps(document, indent=1, sort_keys=True))
    return document


def validate_chrome_trace(document: object) -> None:
    """Assert ``document`` is valid Chrome trace-event JSON (the JSON
    Object Format with the event subset we emit): the events only, not
    ``otherData``.  Raises :class:`TraceExportError` with the first
    offending event."""
    if not isinstance(document, dict):
        raise TraceExportError("trace document must be a JSON object")
    events = document.get("traceEvents")
    if not isinstance(events, list):
        raise TraceExportError("trace document needs a traceEvents array")
    required = {
        "X": ("pid", "tid", "name", "ts", "dur"),
        "i": ("pid", "tid", "name", "ts", "s"),
        "M": ("pid", "name", "args"),
    }
    for index, event in enumerate(events):
        if not isinstance(event, dict):
            raise TraceExportError(f"event {index} is not an object")
        phase = event.get("ph")
        if phase not in required:
            raise TraceExportError(
                f"event {index} has unsupported phase {phase!r}"
            )
        for key in required[phase]:
            if key not in event:
                raise TraceExportError(
                    f"{phase!r} event {index} ({event.get('name')!r}) "
                    f"is missing {key!r}"
                )
        if phase == "X":
            if not isinstance(event["ts"], (int, float)) or not isinstance(
                event["dur"], (int, float)
            ):
                raise TraceExportError(
                    f"event {index} has non-numeric ts/dur"
                )
            if event["dur"] < 0:
                raise TraceExportError(
                    f"event {index} has negative duration"
                )
        if phase == "i" and event["s"] not in ("g", "p", "t"):
            raise TraceExportError(
                f"event {index} has invalid instant scope {event['s']!r}"
            )


def trace_from_chrome(document: dict) -> TraceRecorder:
    """Rebuild a :class:`TraceRecorder` from an exported document.

    Spans come back with their exact stall lists and chain flags (the
    ``stalls`` / ``chain`` keys :func:`chrome_trace` embeds in each span
    event's args); the display-only ``wait:*`` boxes are skipped.
    Timestamps round-trip through the display scale, so they match the
    original to float precision (well inside the attribution walk's
    tolerance).
    """
    validate_chrome_trace(document)
    tracks: dict[tuple[int, int], str] = {}
    for event in document["traceEvents"]:
        if event["ph"] == "M" and event["name"] == "thread_name":
            tracks[(event["pid"], event["tid"])] = event["args"]["name"]
    recorder = TraceRecorder()
    for event in document["traceEvents"]:
        if event["ph"] not in ("X", "i"):
            continue
        key = (event["pid"], event["tid"])
        if key not in tracks:
            raise TraceExportError(
                f"event {event.get('name')!r} addresses unnamed track "
                f"pid={key[0]} tid={key[1]}"
            )
        track = tracks[key]
        if event["ph"] == "i":
            recorder.instant(
                track,
                event["name"],
                event["ts"] / SCALE,
                dict(event.get("args", {})),
            )
            continue
        if event["name"].startswith("wait:"):
            continue  # display tiling of a span's stalls, not a span
        args = dict(event.get("args", {}))
        stalls = tuple(
            (stall_category, float(amount))
            for stall_category, amount in args.pop("stalls", [])
        )
        chain = bool(args.pop("chain", True))
        recorder.span(
            track,
            event["name"],
            event.get("cat", "execute"),
            event["ts"] / SCALE,
            (event["ts"] + event["dur"]) / SCALE,
            stalls=stalls,
            args=args,
            chain=chain,
        )
    return recorder
