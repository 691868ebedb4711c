"""Diff two traced runs and explain where the time moved.

The CLI face of :mod:`repro.obs.diff`.  Either side is a bench JSON
(its embedded ``profile`` — typically a committed
``benchmarks/baselines/BENCH_*.json``) or an exported Chrome-trace-event
document (a ``--trace`` run, a CI artifact); each is reduced to its run
profile and the ranked regression explanation is printed — makespan
delta first, then the categories that moved it, each annotated with the
track that moved most and the per-op lifecycle stages that slowed.

Each side's category totals partition its own makespan, so the
per-category deltas re-partition the makespan delta exactly (checked
before printing).

Usage::

    python scripts/diff_trace.py BASE.json RUN.json \
        [--top 3] [--json OUT.json] [--fail-on-pct N]
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

# Self-sufficient import path: CI invokes gate scripts without
# PYTHONPATH=src.
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.errors import ReproError  # noqa: E402
from repro.obs import explain_regression  # noqa: E402


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="diff two exported traces and rank where the "
        "virtual time moved"
    )
    parser.add_argument(
        "base", type=Path, help="the reference run: bench JSON or trace"
    )
    parser.add_argument(
        "run", type=Path, help="the run to explain: bench JSON or trace"
    )
    parser.add_argument(
        "--top",
        type=int,
        default=None,
        metavar="N",
        help="show only the N largest category movers (default: all)",
    )
    parser.add_argument(
        "--json",
        type=Path,
        default=None,
        metavar="OUT",
        help="also write the full explanation (categories, per-track "
        "deltas, lifecycle stages) as JSON",
    )
    parser.add_argument(
        "--fail-on-pct",
        type=float,
        default=None,
        metavar="N",
        help="exit 1 when any category's delta exceeds N%% of the "
        "baseline makespan (a budget on where the time is allowed to "
        "move, stricter than the gate's aggregate makespan band)",
    )
    args = parser.parse_args(argv)
    if args.top is not None and args.top < 1:
        parser.error("--top must be >= 1")
    if args.fail_on_pct is not None and args.fail_on_pct <= 0:
        parser.error("--fail-on-pct must be > 0")
    try:
        explanation = explain_regression(
            json.loads(args.base.read_text()),
            json.loads(args.run.read_text()),
            labels=(args.base.name, args.run.name),
        )
    except (OSError, json.JSONDecodeError, ReproError) as exc:
        print(f"trace diff FAILED: {exc}")
        return 1
    payload = explanation.as_dict()
    print("\n".join(explanation.render(top=args.top)))
    if args.json is not None:
        args.json.write_text(
            json.dumps(payload, indent=2, sort_keys=True) + "\n"
        )
        print(f"wrote {args.json}")
    if args.fail_on_pct is not None:
        # The budget is relative to the baseline makespan (clamped to
        # 1 vt so a degenerate baseline cannot make it vacuous).
        budget = (
            args.fail_on_pct
            / 100.0
            * max(payload["base"]["makespan"], 1.0)
        )
        over = [
            delta
            for delta in payload["categories"]
            if abs(delta["delta"]) > budget
        ]
        if over:
            print(
                f"\ntrace diff FAILED --fail-on-pct {args.fail_on_pct:g}: "
                f"category deltas over {budget:.2f} vt "
                f"({args.fail_on_pct:g}% of the baseline makespan):"
            )
            for delta in over:
                print(
                    f"  - {delta['category']}: {delta['base']:.2f} -> "
                    f"{delta['run']:.2f} vt ({delta['delta']:+.2f})"
                )
            return 1
        print(
            f"\ntrace diff within budget: no category moved more than "
            f"{budget:.2f} vt ({args.fail_on_pct:g}% of the baseline "
            f"makespan)"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
