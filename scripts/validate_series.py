"""CI series validator: windowed telemetry that provably sums up.

The ``stream`` job in the bench matrix runs the open-loop smoke bench
(``benchmarks/bench_stream.py``) and then this script on the resulting
``BENCH_stream.json``.  Every driven run embeds its
:meth:`repro.obs.TimeSeries.as_dict` export — the series rebuilt from
the run's finished trace: dense per-window arrays *plus* the trace's
unwindowed totals — so the conservation guarantee can be re-verified
from the artifact alone, without re-running anything:

* **shape** — every per-window array (counters, histogram summaries,
  occupancy) is exactly ``windows`` long, with a positive window width;
* **conservation** — each counter's window sum equals its source
  total, each histogram's per-window counts sum to the source count
  (and the per-window ``mean * count`` masses to the source total),
  and each occupancy category's window sum equals the recorder's
  ``category_totals()`` entry — all within floating-point tolerance;
* **sanity** — no negative counts or occupancy, and every non-empty
  histogram window has ``min <= p50 <= p99 <= p999 <= max``.

A series document that fails any of these is lying about *when* the
run did its work, which is the entire point of the windowed export.

Usage::

    PYTHONPATH=src python scripts/validate_series.py BENCH_stream.json
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

#: Relative tolerance for the conservation sums (floating-point
#: re-association across windows, not measurement slack).
TOLERANCE = 1e-6

#: Keys that make a mapping a TimeSeries.as_dict() export.
SERIES_KEYS = frozenset(
    {"width", "origin", "windows", "counters", "histograms", "totals"}
)


def find_series(node, path: str = "$"):
    """Yield ``(json_path, series_dict)`` for every embedded series
    export anywhere in the document (a bench JSON nests one per driven
    run; a bare export is itself one)."""
    if isinstance(node, dict):
        if SERIES_KEYS <= set(node):
            yield path, node
            return
        for key, value in node.items():
            yield from find_series(value, f"{path}.{key}")
    elif isinstance(node, list):
        for index, value in enumerate(node):
            yield from find_series(value, f"{path}[{index}]")


def _close(actual: float, expected: float) -> bool:
    return abs(actual - expected) <= TOLERANCE * max(abs(expected), 1.0)


def _check_shape(series: dict, label: str) -> list[str]:
    failures: list[str] = []
    windows = series["windows"]
    if not isinstance(windows, int) or windows < 1:
        return [f"{label}: window count must be a positive integer"]
    if not series["width"] > 0:
        failures.append(f"{label}: window width must be positive")
    for group in ("counters", "histograms", "occupancy"):
        for name, values in series.get(group, {}).items():
            if len(values) != windows:
                failures.append(
                    f"{label}: {group}[{name!r}] holds {len(values)} "
                    f"windows, the series declares {windows}"
                )
    return failures


def _check_counters(series: dict, label: str) -> list[str]:
    failures: list[str] = []
    totals = series["totals"].get("counters", {})
    for name, values in series.get("counters", {}).items():
        negative = [value for value in values if value < 0]
        if negative:
            failures.append(
                f"{label}: counter {name!r} has negative window "
                f"increments: {negative}"
            )
        if name not in totals:
            failures.append(
                f"{label}: counter {name!r} has windows but no source "
                f"total to conserve against"
            )
            continue
        if not _close(sum(values), totals[name]):
            failures.append(
                f"{label}: counter {name!r} windows sum to "
                f"{sum(values)!r}, source total is {totals[name]!r}"
            )
    return failures


def _check_histograms(series: dict, label: str) -> list[str]:
    failures: list[str] = []
    totals = series["totals"].get("histograms", {})
    for name, summaries in series.get("histograms", {}).items():
        count = 0.0
        mass = 0.0
        for index, summary in enumerate(summaries):
            if summary is None:
                continue
            count += summary["count"]
            mass += summary["mean"] * summary["count"]
            ordered = (
                summary["min"],
                summary["p50"],
                summary["p99"],
                summary["p999"],
                summary["max"],
            )
            if any(a > b + TOLERANCE for a, b in zip(ordered, ordered[1:])):
                failures.append(
                    f"{label}: histogram {name!r} window {index} has "
                    f"disordered quantiles min/p50/p99/p999/max = "
                    f"{ordered}"
                )
        if name not in totals:
            failures.append(
                f"{label}: histogram {name!r} has windows but no source "
                f"total to conserve against"
            )
            continue
        expected = totals[name]
        if not _close(count, expected["count"]):
            failures.append(
                f"{label}: histogram {name!r} window counts sum to "
                f"{count!r}, source count is {expected['count']!r}"
            )
        if not _close(mass, expected["total"]):
            failures.append(
                f"{label}: histogram {name!r} window masses sum to "
                f"{mass!r}, source total is {expected['total']!r}"
            )
    return failures


def _check_occupancy(series: dict, label: str) -> list[str]:
    failures: list[str] = []
    totals = series["totals"].get("occupancy", {})
    for category, values in series.get("occupancy", {}).items():
        negative = [value for value in values if value < 0]
        if negative:
            failures.append(
                f"{label}: occupancy {category!r} has negative windows: "
                f"{negative}"
            )
        if category not in totals:
            failures.append(
                f"{label}: occupancy {category!r} has windows the "
                f"source never recorded"
            )
            continue
        if not _close(sum(values), totals[category]):
            failures.append(
                f"{label}: occupancy {category!r} windows sum to "
                f"{sum(values)!r}, source total is {totals[category]!r}"
            )
    return failures


def validate(path: Path) -> list[str]:
    """Return a list of human-readable violations (empty = valid)."""
    try:
        document = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        return [f"{path}: not readable JSON: {exc}"]
    found = list(find_series(document))
    if not found:
        return [f"{path}: no embedded TimeSeries export found"]
    failures: list[str] = []
    for label, series in found:
        shape = _check_shape(series, label)
        failures.extend(shape)
        if shape:
            continue  # sums over misshapen arrays would just cascade
        failures.extend(_check_counters(series, label))
        failures.extend(_check_histograms(series, label))
        failures.extend(_check_occupancy(series, label))
    return failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="re-verify the conservation sums of every TimeSeries "
        "export embedded in the given JSON file(s)"
    )
    parser.add_argument(
        "series",
        type=Path,
        nargs="+",
        help="JSON file(s) holding TimeSeries exports (a bench JSON or "
        "a bare as_dict() dump)",
    )
    args = parser.parse_args(argv)
    status = 0
    for path in args.series:
        failures = validate(path)
        if failures:
            status = 1
            print(f"series validation FAILED for {path}:")
            for failure in failures:
                print(f"  - {failure}")
            continue
        found = list(find_series(json.loads(path.read_text())))
        windows = sum(series["windows"] for _, series in found)
        print(
            f"series OK: {path} ({len(found)} series, {windows} windows, "
            f"conservation sums verified)"
        )
    return status


if __name__ == "__main__":
    sys.exit(main())
