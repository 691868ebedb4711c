"""Shared driver and renderers for the standalone bench entry points.

Every ``benchmarks/bench_<name>.py`` exposes the same standalone
contract — ``--ops``, ``--smoke``, ``--out`` (the JSON consumed by the
CI bench-regression gate) and ``--trace`` (a Chrome-trace-event JSON of
one representative traced run, loadable in Perfetto or
``chrome://tracing``).  :func:`bench_main` is that contract implemented
once: parse, measure, enforce the bench's claims, write the JSON, print
the table, and — when asked — re-run the bench's representative
configuration under a :class:`repro.obs.TraceRecorder` and export the
trace with its makespan attribution embedded in ``otherData``.

The table renderers here are driven by
:class:`repro.obs.MetricsRegistry`: a row is any stats summary (an
``as_dict()`` mapping or a ready registry), a column is a dotted metric
name, and alignment is computed from the formatted cells — so benches
share one tabulation path instead of five hand-aligned f-string blocks.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Callable, Mapping, Sequence

from repro.config import ClusterConfig, EngineConfig
from repro.obs import (
    MetricsRegistry,
    TraceRecorder,
    critical_path_report,
    utilization_report,
    write_chrome_trace,
)

#: A table column: (header, metric name(s), format spec).  The metric
#: entry may be a tuple of candidate dotted names; the first one present
#: in the row's registry wins (e.g. engine rows carry ``virtual_time``
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
        help="also run the bench's representative configuration under a "
        "virtual-time tracer and write a Chrome-trace-event JSON "
        "(open in Perfetto) with the makespan attribution embedded",
    )
    parser.add_argument(
        "--trace-sample",
        type=int,
        default=None,
        metavar="MAX_SPANS",
        help="with --trace: retain at most MAX_SPANS spans (ring-buffer "
        "sampling for long runs); the occupancy/utilization totals stay "
        "exact, the critical-path attribution (which needs every span) "
        "is replaced by the utilization report",
    )
    return parser


def bench_main(
    argv: list[str] | None,
    *,
    description: str | None,
    default_out: str,
    smoke_ops: int,
    measure: Callable[[int], dict],
    check_claims: Callable[[dict], None],
    render_table: Callable[[dict], list[str]],
    traced_run: Callable[[int, TraceRecorder], None] | None = None,
    default_ops: int = 1200,
) -> int:
    """The standalone entry point shared by every bench.

    ``measure``/``check_claims``/``render_table`` are the bench's own
    hooks, unchanged; ``traced_run(ops, tracer)`` re-runs one
    representative configuration with the tracer attached (kept separate
    from ``measure`` so the gated JSON is produced by untraced runs and
    stays bit-identical whether or not ``--trace`` was passed).
    """
    parser = build_parser(description, default_out, default_ops)
    args = parser.parse_args(argv)
    if args.ops < 1:
        parser.error("--ops must be >= 1")
    ops = smoke_ops if args.smoke else args.ops
    results = measure(ops)
    # Every bench JSON carries the active config surface, so a committed
    # baseline is self-describing: the regression gate refuses a run
    # whose config block disagrees with the baseline's — a silent
    # default flip can never skew one number in one place.
    results["config"] = {
        "engine": EngineConfig().as_dict(),
        "cluster": ClusterConfig().as_dict(),
    }
    check_claims(results)
    args.out.write_text(json.dumps(results, indent=2, sort_keys=True) + "\n")
    print("\n".join(render_table(results)))
    print(f"\nwrote {args.out}")
    if args.trace_sample is not None and args.trace is None:
        parser.error("--trace-sample requires --trace")
    if args.trace is not None:
        if traced_run is None:
            parser.error("this benchmark has no traced configuration")
        export_trace(
            traced_run, ops, args.trace, max_spans=args.trace_sample
        )
    return 0


def export_trace(
    traced_run: Callable[[int, TraceRecorder], None],
    ops: int,
    path: Path,
    max_spans: int | None = None,
) -> None:
    """Run ``traced_run`` under a fresh tracer and write the Chrome
    trace.  A full trace embeds the critical-path attribution (verified
    to partition the makespan exactly) in ``otherData.attribution``; a
    *sampled* run (ring buffer overflowed) embeds the exact utilization
    report in ``otherData.utilization`` instead — the walk needs every
    span, the occupancy totals do not."""
    tracer = TraceRecorder(max_spans=max_spans)
    traced_run(ops, tracer)
    print()
    if tracer.sampled:
        report = utilization_report(tracer).check()
        write_chrome_trace(
            tracer, path, metadata={"utilization": report.as_dict()}
        )
        print("\n".join(report.render()))
    else:
        report = critical_path_report(tracer)
        report.check()
        write_chrome_trace(
            tracer, path, metadata={"attribution": report.as_dict()}
        )
        print("\n".join(report.render()))
    retained = (
        f"{len(tracer.spans)} of {tracer.spans_recorded} spans retained"
        if tracer.sampled
        else f"{len(tracer.spans)} spans"
    )
    print(
        f"wrote {path} ({retained}, "
        f"{len(tracer.instants)} instants, "
        f"{len(tracer.tracks())} tracks)"
    )


# ---------------------------------------------------------------------------
# registry-driven table renderers
# ---------------------------------------------------------------------------


def _as_registry(source: MetricsRegistry | Mapping) -> MetricsRegistry:
    if isinstance(source, MetricsRegistry):
        return source
    return MetricsRegistry.from_summary(source)


def _cell(registry: MetricsRegistry, metric, fmt: str) -> str:
    names = (metric,) if isinstance(metric, str) else metric
    for name in names:
        if name in registry:
            value = registry.value(name)
            if fmt.endswith("d"):
                value = int(value)
            return format(value, fmt)
    raise KeyError(f"none of {names} present in row registry")


def render_stats_table(
    entries: Sequence[tuple[str, MetricsRegistry | Mapping]],
    columns: Sequence[Column],
    *,
    label_header: str = "",
    separators: Sequence[int] = (),
) -> list[str]:
    """One aligned metrics table: a header row plus one row per entry.

    ``entries`` are ``(row_label, stats)`` pairs where stats is a
    registry or any nested summary mapping; ``columns`` name the dotted
    metrics to show.  ``separators`` lists column indices after which a
    ``|`` divider is drawn.  Widths come from the formatted cells, so
    the table is always aligned regardless of magnitudes.
    """
    rows = [
        (
            label,
            [
                _cell(_as_registry(source), metric, fmt)
                for _, metric, fmt in columns
            ],
        )
        for label, source in entries
    ]
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
