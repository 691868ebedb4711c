"""Shared driver and renderers for the standalone bench entry points.

Every ``benchmarks/bench_<name>.py`` exposes the same standalone
contract — ``--ops``, ``--smoke``, ``--out`` (the JSON consumed by the
CI bench-regression gate) and ``--trace`` (a Chrome-trace-event JSON of
the representative traced run, loadable in Perfetto or
``chrome://tracing``).  :func:`bench_main` is that contract implemented
once: parse, measure, enforce the bench's claims, write the JSON, print
the table.

The JSON is the bench's whole baseline artifact and describes itself:
beside the numbers it carries the active ``config``, the bench's own
``headlines`` (what the gate compares) and the ``profile`` of its
representative traced run (what the trace differ reads) — run once
(:func:`run_bench`); that one recorder feeds ``op_latency``, ``profile``
and ``--trace``, so the JSON never depends on a flag.

The table renderer here reads stats summaries directly: a row is any
nested ``as_dict()`` mapping, a column is a dotted metric name into it,
and alignment is computed from the formatted cells — so benches share
one tabulation path instead of five hand-aligned f-string blocks.
"""

from __future__ import annotations

import argparse
import json
import sys
from numbers import Real
from pathlib import Path
from typing import Callable, Mapping, Sequence

from repro.config import ClusterConfig, EngineConfig
from repro.obs import (
    TraceRecorder,
    chrome_trace,
    critical_path_report,
    profile_document,
    utilization_report,
    write_chrome_trace,
)

#: A table column: (header, metric name(s), format spec).  The metric
#: entry may be a tuple of candidate dotted names; the first one present
#: in the row's summary wins (e.g. engine rows carry ``virtual_time``
#: where cluster rows carry ``makespan``).
Column = tuple[str, "str | tuple[str, ...]", str]


def build_parser(
    description: str | None, default_out: str, default_ops: int = 1200
) -> argparse.ArgumentParser:
    """The shared standalone-bench CLI: --ops, --smoke, --out, --trace."""
    parser = argparse.ArgumentParser(description=description)
    parser.add_argument(
        "--ops", type=int, default=default_ops, help="ops per run"
    )
    parser.add_argument(
        "--smoke", action="store_true", help="small, fast configuration"
    )
    parser.add_argument(
        "--out",
        type=Path,
        default=Path(default_out),
        help="output JSON path",
    )
    parser.add_argument(
        "--trace",
        type=Path,
        default=None,
        metavar="TRACE_JSON",
        help="also write the representative traced run as a "
        "Chrome-trace-event JSON (open in Perfetto) with the makespan "
        "attribution and the per-track utilization embedded",
    )
    return parser


def run_bench(
    ops: int,
    measure: Callable[[int, TraceRecorder, object], dict],
    traced_run: Callable[[int, TraceRecorder], object],
    tracer: TraceRecorder | None = None,
) -> dict:
    """A bench's numbers: ``traced_run`` (its representative
    configuration) exactly once, under ``tracer``, then ``measure`` for
    the rest — ``traced`` is what ``traced_run`` returned."""
    if tracer is None:
        tracer = TraceRecorder()
    return measure(ops, tracer, traced_run(ops, tracer))


def bench_main(
    argv: list[str] | None,
    *,
    description: str | None,
    default_out: str,
    smoke_ops: int,
    headlines: dict[str, list[str]],
    measure: Callable[[int, TraceRecorder, object], dict],
    check_claims: Callable[[dict], None],
    render_table: Callable[[dict], list[str]],
    traced_run: Callable[[int, TraceRecorder], object],
    default_ops: int = 1200,
) -> int:
    """The standalone entry point shared by every bench.

    ``measure`` and ``traced_run`` are :func:`run_bench`'s; ``headlines``
    is ``{"band": [...], "zero": [...]}``, the dotted paths into the JSON
    that ``scripts/check_bench.py`` holds within the tolerance band /
    holds exactly.
    """
    parser = build_parser(description, default_out, default_ops)
    args = parser.parse_args(argv)
    if args.ops < 1:
        parser.error("--ops must be >= 1")
    ops = smoke_ops if args.smoke else args.ops
    tracer = TraceRecorder()
    results = run_bench(ops, measure, traced_run, tracer)
    # The gate refuses a run whose ``config`` or ``headlines`` disagree
    # with the baseline's.  The profile is taken from the export
    # document, so it is the ``--trace`` artifact's to the last bit.
    results["config"] = {
        "engine": EngineConfig().as_dict(),
        "cluster": ClusterConfig().as_dict(),
    }
    results["headlines"] = headlines
    results["profile"] = profile_document(chrome_trace(tracer)).as_dict()
    check_claims(results)
    args.out.write_text(json.dumps(results, indent=2, sort_keys=True) + "\n")
    print("\n".join(render_table(results)))
    print(f"\nwrote {args.out}")
    if args.trace is not None:
        export_trace(tracer, args.trace)
    return 0


def export_trace(tracer: TraceRecorder, path: Path) -> None:
    """Write a finished recorder as a Chrome trace with two reports in
    ``otherData``: the critical-path ``attribution`` (verified to
    partition the makespan exactly) and the per-track ``utilization``
    (verified to split every track into busy + stall + idle)."""
    print()
    attribution = critical_path_report(tracer).check()
    utilization = utilization_report(tracer).check()
    metadata = {
        "attribution": attribution.as_dict(),
        "utilization": utilization.as_dict(),
    }
    write_chrome_trace(tracer, path, metadata=metadata)
    print("\n".join(attribution.render()))
    print("\n".join(utilization.render()))
    print(
        f"wrote {path} ({len(tracer.spans)} spans, "
        f"{len(tracer.instants)} instants, "
        f"{len(tracer.tracks())} tracks)"
    )


# ---------------------------------------------------------------------------
# summary-driven table renderer
# ---------------------------------------------------------------------------


def flatten_summary(summary: Mapping, prefix: str = "") -> dict[str, float]:
    """A nested stats summary's numeric leaves as floats by dotted name:
    bools read 1.0 / 0.0, and labels and lists are skipped — a table
    shows measurements."""
    flat: dict[str, float] = {}
    for key, value in summary.items():
        name = f"{prefix}{key}"
        if isinstance(value, Mapping):
            flat.update(flatten_summary(value, f"{name}."))
        elif isinstance(value, Real):
            flat[name] = float(value)
    return flat


def _cell(row: Mapping[str, float], metric, fmt: str) -> str:
    names = (metric,) if isinstance(metric, str) else metric
    for name in names:
        if name in row:
            value = row[name]
            if fmt.endswith("d"):
                value = int(value)
            return format(value, fmt)
    raise KeyError(f"none of {names} present in row summary")


def render_stats_table(
    entries: Sequence[tuple[str, Mapping]],
    columns: Sequence[Column],
    *,
    label_header: str = "",
    separators: Sequence[int] = (),
) -> list[str]:
    """One aligned metrics table: a header row plus one row per entry.

    ``entries`` are ``(row_label, stats)`` pairs where stats is any
    nested summary mapping (:func:`flatten_summary` reads it);
    ``columns`` name the dotted metrics to show.  ``separators`` lists
    column indices after which a ``|`` divider is drawn.  Widths come
    from the formatted cells, so the table is always aligned regardless
    of magnitudes.
    """
    rows = []
    for label, source in entries:
        row = flatten_summary(source)
        rows.append(
            (label, [_cell(row, metric, fmt) for _, metric, fmt in columns])
        )
    widths = [
        max(len(header), *(len(cells[i]) for _, cells in rows))
        for i, (header, _, _) in enumerate(columns)
    ]
    label_width = max(len(label_header), *(len(label) for label, _ in rows))

    def line(label: str, cells: Sequence[str]) -> str:
        parts = [f"{label:>{label_width}} |"]
        for i, (cell, width) in enumerate(zip(cells, widths)):
            parts.append(f"{cell:>{width}}")
            if i in separators:
                parts.append("|")
        return " ".join(parts)

    header_cells = [header for header, _, _ in columns]
    return [line(label_header, header_cells)] + [
        line(label, cells) for label, cells in rows
    ]


def render_backpressure(count: int, source: str) -> list[str]:
    """The shared backpressure footer: drops must be visible, because a
    bench that silently shed load would flatter every number above."""
    return [
        "",
        f"backpressure: {count} {source}"
        " (0 = nothing dropped; throughput covers the full workload)",
    ]


if __name__ == "__main__":
    sys.exit("benchmarks/common.py is a library, not an entry point")
