"""Every package that only re-exports resolves its names on first access
(PEP 562) from one ``{module: names}`` table, so importing one
subpackage does not import the rest of the library."""

from __future__ import annotations

import os
import pathlib
import subprocess
import sys
from importlib import import_module

import pytest

import repro
from repro._lazy import lazy_exports

SRC = pathlib.Path(__file__).resolve().parents[2] / "src"

#: Every package of the library; ``repro.faults`` defines its own
#: classes, every other one only re-exports.
PACKAGES = sorted(
    ".".join(path.parent.relative_to(SRC).parts)
    for path in (SRC / "repro").rglob("__init__.py")
)
LAZY = [package for package in PACKAGES if package != "repro.faults"]


def test_every_re_exporting_package_is_lazy():
    assert "repro" in LAZY and "repro.engine" in LAZY
    for package in LAZY:
        assert import_module(package)._EXPORTS, package


def test_importing_the_engine_leaves_the_cluster_unloaded():
    probe = (
        "import sys, repro.engine\n"
        "heavy = ('repro.cluster', 'repro.faults', 'repro.protocols',\n"
        "         'repro.engine.pipeline')\n"
        "print([name for name in heavy if name in sys.modules])\n"
        "from repro import TokenCluster\n"
        "print('repro.cluster' in sys.modules)\n"
        "print(repro.protocols.kat_consensus.__name__)\n"
    )
    completed = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True,
        text=True,
        timeout=60,
        env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    assert completed.returncode == 0, completed.stderr[-2000:]
    assert completed.stdout.split("\n")[:3] == [
        "[]",
        "True",
        "repro.protocols.kat_consensus",
    ]


@pytest.mark.parametrize("package", LAZY)
def test_every_row_resolves(package):
    module = import_module(package)
    for source, names in module._EXPORTS.items():
        home = import_module(source)
        for name in names:
            assert getattr(module, name) is getattr(home, name), name


@pytest.mark.parametrize("package", LAZY)
def test_all_is_the_table(package):
    module = import_module(package)
    table = [name for names in module._EXPORTS.values() for name in names]
    assert module.__all__ == table
    assert len(table) == len(set(table))
    assert set(table) <= set(dir(module))


@pytest.mark.parametrize("package", LAZY)
def test_star_import_binds_every_name(package):
    namespace: dict = {}
    exec(f"from {package} import *", namespace)
    module = import_module(package)
    for name in module.__all__:
        assert namespace[name] is getattr(module, name)


@pytest.mark.parametrize("package", LAZY)
def test_an_unknown_name_is_an_attribute_error(package):
    module = import_module(package)
    with pytest.raises(AttributeError, match="no attribute 'Blockchain'"):
        module.Blockchain
    assert not hasattr(module, "Blockchain")


def test_a_submodule_resolves_as_an_attribute():
    assert repro.net.total_order is sys.modules["repro.net.total_order"]
    assert repro.__version__ == "1.0.0"


def test_a_bad_row_fails_naming_the_row():
    getattr_, _, all_ = lazy_exports(
        {"__name__": "repro.spec"},
        {"repro.spec.operation": ("Operation", "Opration")},
    )
    assert all_ == ["Operation", "Opration"]
    assert getattr_("Operation") is import_module("repro.spec").Operation
    with pytest.raises(
        AttributeError,
        match="row 'repro.spec.operation' names 'Opration'",
    ):
        getattr_("Opration")
