"""Shared helpers for the benchmark/experiment harness.

Every experiment echoes its paper-shape table and writes it to
``benchmarks/out/<name>.txt`` — a generated directory, ignored by git;
nothing is committed from it.  The files are not named ``test_*``, so
``pytest benchmarks/`` does not collect them: name them, as the CI
``tier1`` job does for the ten paper-core experiments::

    PYTHONPATH=src python -m pytest -q --benchmark-disable \
        benchmarks/bench_algorithm1.py benchmarks/bench_valency.py ...
"""

from __future__ import annotations

from pathlib import Path

import pytest

OUT_DIR = Path(__file__).parent / "out"


@pytest.fixture(scope="session")
def out_dir() -> Path:
    OUT_DIR.mkdir(exist_ok=True)
    return OUT_DIR


@pytest.fixture
def write_table(out_dir):
    """Write (and echo) an experiment's result table."""

    def _write(name: str, lines: list[str]) -> None:
        path = out_dir / f"{name}.txt"
        content = "\n".join(lines) + "\n"
        path.write_text(content)
        print(f"\n[{name}]")
        print(content)

    return _write
