"""``repro``'s top-level re-exports resolve on first access (PEP 562), so
importing one subpackage does not import the rest of the library."""

from __future__ import annotations

import os
import pathlib
import subprocess
import sys

import pytest

import repro

SRC = pathlib.Path(__file__).resolve().parents[2] / "src"


def test_importing_the_engine_leaves_the_cluster_unloaded():
    probe = (
        "import sys, repro.engine\n"
        "heavy = ('repro.cluster', 'repro.faults', 'repro.protocols')\n"
        "print([name for name in heavy if name in sys.modules])\n"
        "from repro import TokenCluster\n"
        "print('repro.cluster' in sys.modules)\n"
    )
    completed = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True,
        text=True,
        timeout=60,
        env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    assert completed.returncode == 0, completed.stderr[-2000:]
    assert completed.stdout.split("\n")[:2] == ["[]", "True"]


def test_every_export_resolves():
    assert len(repro.__all__) == len(set(repro.__all__))
    # The literal ``__all__`` and the lazy table name the same things.
    assert set(repro.__all__) - {"__version__"} == set(repro._EXPORTS)
    assert set(repro.__all__) <= set(dir(repro))
    for name in repro.__all__:
        assert getattr(repro, name) is not None
    namespace: dict = {}
    exec("from repro import *", namespace)
    assert set(repro.__all__) <= set(namespace)
    assert repro.TokenCluster is sys.modules["repro.cluster"].TokenCluster


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'Blockchain'"):
        repro.Blockchain
    assert not hasattr(repro, "Blockchain")
