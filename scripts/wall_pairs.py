"""Alternating parent/change pairs of the wall benchmark's contract run.

ROADMAP's standing rule for a host-time claim — at least ten pairs of
parent and change, alternating which side runs first, plus a held-out
seed — as one command::

    python3 scripts/wall_pairs.py PARENT CHANGE --workload W --seed 900

``PARENT`` (side ``A``) is a checkout of the parent commit, for example
a ``git worktree``, and ``CHANGE`` (side ``B``) the change's.  Pair
``p`` runs each side's ``BENCHMARK.json`` command with ``--workload W
--seed S+p --trace 0`` in that checkout — a fresh seed per pair, the
same seed on both sides — and reads ``ops_per_s_norm`` (higher is
better) off the JSON result on the last stdout line.  ``--pairs``
(default 10) sets the count.  Even pairs run ``A`` first, odd ones ``B``
first.

It prints every pair, each side's median and quartiles, the wins, the
per-pair ratios ``B / A`` and the verdict of the claim rule: a gain is
claimed only when ``B`` wins at least nine tenths of the pairs (ties
count for neither side) and ``B``'s median exceeds ``A``'s by more than
the distance between ``A``'s quartiles.  A run that crashes, is
incorrect or fails an op loses its pair; a side with no run left has
no median, so there is no claim.  Exit status 0 means the claim holds.

The pairs take about 20 s each, so this runs by hand, never in CI.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
from pathlib import Path

#: The metric the pairs compare; higher is better.
METRIC = "ops_per_s_norm"
#: The share of pairs the change must win to claim a gain.
WIN_SHARE = 0.9


def parse_result(stdout: str) -> tuple[float, bool]:
    """``(value, ok)`` of :data:`METRIC` in a contract run's output:
    the JSON object on its last non-empty line; ``ok`` is false when the
    run was incorrect or failed an op."""
    last = [line for line in stdout.splitlines() if line.strip()][-1]
    result = json.loads(last)
    ok = bool(result["correct"]) and result["failed"] == 0
    return float(result["metrics"][METRIC]["value"]), ok


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """``(q1, median, q3)``; a single value is all three, and no value
    gives NaN for all three."""
    if not values:
        return math.nan, math.nan, math.nan
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def _beats(x: float | None, y: float | None) -> bool:
    if x is None:
        return False
    return y is None or x > y


def fold(pairs: list[tuple[float | None, float | None]]) -> dict:
    """The verdict on ``(a, b)`` value pairs; a ``None`` value is a run
    that failed, which loses its pair.  With no value on a side, the
    medians and the gap are NaN and there is no claim."""
    wins = sum(_beats(b, a) for a, b in pairs)
    losses = sum(_beats(a, b) for a, b in pairs)
    side_a = [a for a, _ in pairs if a is not None]
    side_b = [b for _, b in pairs if b is not None]
    qa, qb = quartiles(side_a), quartiles(side_b)
    iqr = qa[2] - qa[0]
    gap = qb[1] - qa[1]
    return {
        "pairs": len(pairs),
        "wins": wins,
        "losses": losses,
        "a": qa,
        "b": qb,
        "ratios": [None if a is None or b is None else b / a for a, b in pairs],
        "median_gap": gap,
        "a_iqr": iqr,
        "claim": wins >= WIN_SHARE * len(pairs) and gap > iqr,
    }


def contract(tree: Path) -> list[str]:
    """The benchmark command ``tree``'s ``BENCHMARK.json`` declares."""
    spec = json.loads((tree / "BENCHMARK.json").read_text())
    return list(spec["command"])


def run_side(tree: Path, workload: str, seed: int) -> float | None:
    """One contract run in ``tree``: the metric's value, or ``None`` for
    a run that crashed, was incorrect or failed an op."""
    flags = ["--workload", workload, "--seed", str(seed), "--trace", "0"]
    done = subprocess.run(
        contract(tree) + flags,
        cwd=tree,
        capture_output=True,
        text=True,
        check=False,
    )
    try:
        value, ok = parse_result(done.stdout)
    except (IndexError, KeyError, ValueError):
        sys.stderr.write(done.stderr[-2000:])
        return None
    return value if ok else None


def _side(name: str, q: tuple) -> str:
    return f"{name}: median {q[1]:.6g}, quartiles {q[0]:.6g} - {q[2]:.6g}"


def report(verdict: dict) -> str:
    """The verdict as the lines the command prints."""
    ratios = " ".join(
        "fail" if r is None else f"{r:.3f}" for r in verdict["ratios"]
    )
    known = sorted(r for r in verdict["ratios"] if r is not None)
    median_ratio = statistics.median(known) if known else float("nan")
    return "\n".join(
        [
            f"{METRIC}, {verdict['pairs']} pairs",
            _side("A", verdict["a"]),
            _side("B", verdict["b"]),
            f"B wins {verdict['wins']}, A wins {verdict['losses']}",
            f"ratios B/A: {ratios} (median {median_ratio:.3f})",
            f"median gap {verdict['median_gap']:.6g} against A's IQR "
            f"{verdict['a_iqr']:.6g}",
            "claim holds" if verdict["claim"] else "no claim",
        ]
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("a", type=Path, help="the parent checkout")
    parser.add_argument("b", type=Path, help="the change's checkout")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args(argv)
    a, b = args.a.resolve(), args.b.resolve()
    pairs = []
    for p in range(args.pairs):
        seed = args.seed + p
        order = [(a, 0), (b, 1)] if p % 2 == 0 else [(b, 1), (a, 0)]
        pair = [None, None]
        for tree, slot in order:
            pair[slot] = run_side(tree, args.workload, seed)
        pairs.append(tuple(pair))
        first = "A" if p % 2 == 0 else "B"
        print(
            f"pair {p} seed {seed} ({first} first): "
            f"A {pair[0]}  B {pair[1]}",
            flush=True,
        )
    verdict = fold(pairs)
    print(report(verdict))
    return 0 if verdict["claim"] else 1


if __name__ == "__main__":
    sys.exit(main())
