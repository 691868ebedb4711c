"""``scripts/wall_pairs.py``'s fold, on canned contract-run output.

The script's runs take minutes, so the tests hold only what it reads
from a run's stdout and the verdict it folds from the pairs — the claim
rule: at least nine wins in ten, and a median gap wider than the
parent's interquartile range.
"""

from __future__ import annotations

import importlib.util
import json
import math
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent.parent

spec = importlib.util.spec_from_file_location(
    "wall_pairs", ROOT / "scripts" / "wall_pairs.py"
)
wall_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(wall_pairs)


def contract_stdout(value: float, failed: int = 0, correct=True) -> str:
    """What ``run.py --workload W --trace 0`` prints: a table, then the
    result object on the last line."""
    result = {
        "correct": correct,
        "attempted": 61440,
        "failed": failed,
        "metrics": {
            "ops_per_s_norm": {"value": value, "unit": "ops/s"},
            "setup_s": {"value": 0.21, "unit": "s"},
        },
    }
    return (
        "reads_narrow: 3 reps\n"
        f"  ops_per_s_norm {value:14.6g} ops/s\n"
        f"{json.dumps(result)}\n\n"
    )


def test_parse_result_reads_the_last_line():
    value, ok = wall_pairs.parse_result(contract_stdout(75532.8))
    assert (value, ok) == (75532.8, True)
    value, ok = wall_pairs.parse_result(contract_stdout(70000.0, failed=3))
    assert (value, ok) == (70000.0, False)
    _, ok = wall_pairs.parse_result(contract_stdout(70000.0, correct=False))
    assert not ok


def test_a_clear_gain_is_claimed():
    parent = [70.0, 72.0, 74.0, 71.0, 73.0, 75.0, 70.5, 72.5, 74.5, 71.5]
    change = [a * 1.15 for a in parent]
    change[3] = 70.0  # one loss is allowed
    verdict = wall_pairs.fold(list(zip(parent, change)))
    assert (verdict["wins"], verdict["losses"]) == (9, 1)
    q1, median, q3 = verdict["a"]
    assert q1 < median < q3
    assert median == pytest.approx(72.25)
    assert verdict["a_iqr"] == pytest.approx(q3 - q1)
    assert verdict["median_gap"] > verdict["a_iqr"]
    assert verdict["ratios"][0] == pytest.approx(1.15)
    assert verdict["claim"]


def test_two_losses_in_ten_are_no_claim():
    parent = [70.0 + k for k in range(10)]
    change = [a * 1.2 for a in parent]
    change[0] = change[5] = 60.0
    verdict = wall_pairs.fold(list(zip(parent, change)))
    assert verdict["wins"] == 8
    assert not verdict["claim"]


def test_a_gap_inside_the_parents_spread_is_no_claim():
    parent = [60.0, 80.0, 65.0, 75.0, 70.0, 62.0, 78.0, 68.0, 72.0, 66.0]
    change = [a + 1.0 for a in parent]
    verdict = wall_pairs.fold(list(zip(parent, change)))
    assert verdict["wins"] == 10
    assert verdict["median_gap"] == pytest.approx(1.0)
    assert not verdict["claim"]


def test_ties_count_for_neither_side():
    pairs = [(1.0, 1.0), (2.0, 1.5), (2.0, 3.0)]
    verdict = wall_pairs.fold(pairs)
    assert (verdict["wins"], verdict["losses"]) == (1, 1)
    assert verdict["median_gap"] == pytest.approx(1.5 - 2.0)


def test_a_failed_run_loses_its_pair():
    pairs = [(10.0, None), (None, 9.0), (10.0, 12.0)]
    verdict = wall_pairs.fold(pairs)
    assert (verdict["wins"], verdict["losses"]) == (2, 1)
    assert verdict["ratios"] == [None, None, pytest.approx(1.2)]
    assert "fail fail 1.200" in wall_pairs.report(verdict)


def test_a_side_whose_every_run_failed_is_no_claim():
    # A parent checkout that crashes in every pair: B wins them all, but
    # A has no median to beat.
    verdict = wall_pairs.fold([(None, 80.0)] * 10)
    assert (verdict["wins"], verdict["losses"]) == (10, 0)
    assert all(math.isnan(q) for q in verdict["a"])
    assert not verdict["claim"]
    lines = wall_pairs.report(verdict).splitlines()
    assert "A: median nan, quartiles nan - nan" in lines
    assert lines[-1] == "no claim"


def test_the_command_comes_from_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert wall_pairs.contract(ROOT) == spec["command"]
