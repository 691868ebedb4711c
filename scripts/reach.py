"""Product reach: which ``src/`` functions the product runs, which only the
tests run, and which nothing runs.

::

    python3 scripts/reach.py [--out benchmarks/baselines/REACH.json]

The *product* is what the repo ships to a reader, run as CI runs it:

* the seven benches at ``--smoke`` size, each with ``--trace``;
* the six full-size bench runs (every bench but ``engine``);
* the ten paper-core experiment files (one pytest run);
* every ``examples/*.py``;
* ``scripts/obs.py gate`` / ``validate`` / ``diff`` on each smoke run;
* ``benchmarks/wall/run.py --smoke``.

The *tests* are one tier-1 run (``python -m pytest``, Hypothesis seeded),
less ``tests/integration/test_reach_table.py``, which reads the table.

Both run as subprocesses with a ``sys.setprofile`` hook installed by a
``sitecustomize`` module in a temporary directory put first on
``PYTHONPATH`` — never in the checkout — so every child interpreter a
run starts (the wall harness's, the examples the tests run) records
too.  A hook records the code objects it sees called whose file lies
under ``src/repro`` and writes them out at exit; they are matched by
file and qualified name against every function ``def``-ined at module
or class level in ``src/repro`` (nested functions ride with their
parent).

The tests need not pass: a profile hook materializes frames, so the
footprint-allocation tests that count allocated blocks fail under it.
The failing test ids are reported, and the run fails if they are not
exactly :data:`HOOK_FAILURES` — anything else means the tree or the
hook is broken, and the table would be suspect.  A product command
that fails also fails the run.  A failed run writes no table.

The table (``REACH.json``) lists, per module, the functions the product
reaches, those only the tests reach and those nothing reaches (with
their line counts), plus :data:`ALLOW`: names kept though the product
never calls them, one line of reason each.  A name allows itself and
everything under it (a class allows its methods, a module its
functions).  ``tests/integration/test_reach_table.py`` holds the
committed table to ``src/``: every entry resolves, and no function in
:data:`GATED` that the product misses is left unexplained.

A run takes about 4 minutes on 2 cores (:data:`JOBS` product commands
run at once; the tests run beside them).
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = SRC / "repro"
DEFAULT_OUT = ROOT / "benchmarks" / "baselines" / "REACH.json"
# Product commands run at once, beside the test run.
JOBS = 2

#: Packages (and the one module) where every function the product misses
#: must be allow-listed.
GATED = (
    "repro.engine.",
    "repro.cluster.",
    "repro.sync.",
    "repro.obs.",
    "repro.config",
)

#: The tests that fail under any profile hook (they count allocated
#: blocks, and a hook materializes a frame object per call).
HOOK_FAILURES = tuple(
    "tests/objects/test_footprint_allocs.py::"
    f"test_the_questions_build_no_set[{question}]"
    for question in ("anchor", "contention", "static_pair_kind")
)

BENCHES = ("engine", "cluster", "sync", "pipeline", "dag", "stream", "faults")
PAPER_CORE = (
    "algorithm1",
    "algorithm2",
    "theorem3",
    "valency",
    "kat",
    "example1",
    "extensions",
    "ablation",
    "network",
    "dynamics",
)

#: Kept though the product never calls them.  Dotted name -> reason.
ALLOW = {
    "repro.engine.rounds.WallAdapters": (
        "frozen wall-benchmark names: benchmarks/wall binds them, nothing "
        "in src/ calls them"
    ),
    "repro.engine.classifier.OpClassifier.classify": (
        "frozen wall-benchmark name; the all-pairs reference the indexed "
        "conflict build is held to"
    ),
    "repro.engine.classifier.OpClassifier._pair_kind": (
        "frozen wall-benchmark name behind classify"
    ),
    "repro.engine.classifier.OpClassifier.classify_window": (
        "frozen wall-benchmark name; the all-pairs window reference"
    ),
    "repro.engine.classifier.OpClassifier.footprint": (
        "frozen wall-benchmark name"
    ),
    "repro.engine.pipeline.PipelinedExecutor.responses_in_order": (
        "the submit()/run() caller's read of its responses; run_workload "
        "returns its own"
    ),
    "repro.cluster.cluster.TokenCluster.responses_in_order": (
        "the submit()/run() caller's read of its responses; run_workload "
        "returns its own"
    ),
    "repro.engine.mempool.PendingOp.__repr__": (
        "debug text: what a failing assertion prints"
    ),
    "repro.engine.mempool.PendingOp.__str__": (
        "debug text: what a failing assertion prints"
    ),
    "repro.net.network.ConstantLatency": "test fake: a fixed link delay",
    "repro.runtime.scheduler.FixedScheduler": "test fake: a scripted schedule",
    "repro.runtime.scheduler.RoundRobinScheduler": (
        "test fake: a fair deterministic schedule"
    ),
    "repro.net.reliable_broadcast.ReliableBroadcastNode": (
        "test fake: a Bracha broadcast the network tests drive"
    ),
    "repro.protocols.token_from_kat.SafeEmulatedToken": (
        "Reproduction note 2's evidence: the corrected emulation"
    ),
    "repro.spec.linearizability": (
        "Reproduction note 2's evidence: the linearizability checker"
    ),
    "repro.spec.history": (
        "Reproduction note 2's evidence: the histories it checks"
    ),
    "repro.spec.object_type.SequentialObjectType.apply": (
        "abstract: every token spec overrides it"
    ),
    "repro.spec.object_type.SequentialObjectType.initial_state": (
        "abstract: every token spec overrides it"
    ),
    "repro.spec.object_type.SequentialObjectType.operation_names": (
        "abstract: every token spec overrides it"
    ),
    "repro.net.network.LatencyModel.sample": (
        "abstract: every latency model overrides it"
    ),
    "repro.runtime.scheduler.Scheduler.next_action": (
        "abstract: every scheduler overrides it"
    ),
    "repro.protocols.base.ConsensusProtocol.propose": (
        "abstract: every consensus protocol overrides it"
    ),
}

#: The token specs' operations the product never invokes: a
#: specification is kept whole, called or not.
OPERATIONS = {
    "repro.objects.erc20.ERC20Token": (
        "approve balance_of total_supply increase_allowance "
        "decrease_allowance"
    ),
    "repro.objects.erc20.ERC20TokenType": (
        "_apply_increaseAllowance _apply_decreaseAllowance"
    ),
    "repro.objects.erc721.ERC721Token": (
        "approve balance_of get_approved is_approved_for_all"
    ),
    "repro.objects.erc721.ERC721TokenType": (
        "_apply_balanceOf _apply_getApproved _apply_isApprovedForAll"
    ),
    "repro.objects.erc777.ERC777Token": (
        "total_supply is_operator_for revoke_operator"
    ),
    "repro.objects.erc777.ERC777TokenType": (
        "_apply_totalSupply _apply_isOperatorFor _apply_revokeOperator"
    ),
    "repro.objects.erc1155.ERC1155Token": (
        "balance_of_batch safe_batch_transfer_from is_approved_for_all"
    ),
    "repro.objects.erc1155.ERC1155TokenType": (
        "_apply_balanceOfBatch _apply_safeBatchTransferFrom "
        "_apply_isApprovedForAll"
    ),
    "repro.objects.asset_transfer.AssetTransfer": "total_supply",
    "repro.objects.asset_transfer.AssetTransferType": "_apply_totalSupply",
}
ALLOW.update(
    (f"{owner}.{name}", "a token spec's operation: the spec is kept whole")
    for owner, names in OPERATIONS.items()
    for name in names.split()
)

SITECUSTOMIZE = '''\
"""Record every src/repro code object called in this interpreter."""
import atexit
import json
import os
import sys
import threading

_out = os.environ.get("REACH_OUT")
if _out:
    _root = os.environ["REACH_ROOT"]
    _seen = {}

    def _hook(frame, event, arg):
        if event == "call":
            code = frame.f_code
            if code not in _seen:
                path = os.path.abspath(code.co_filename)
                _seen[code] = path if path.startswith(_root) else None

    def _dump():
        sys.setprofile(None)
        names = sorted(
            {(path, code.co_qualname)
             for code, path in _seen.items() if path}
        )
        path = os.path.join(_out, "%d.json" % os.getpid())
        with open(path, "w") as handle:
            json.dump(names, handle)

    atexit.register(_dump)
    threading.setprofile(_hook)
    sys.setprofile(_hook)
'''


def functions() -> dict[str, dict[str, int]]:
    """``{module: {qualname: lines}}`` for every function defined at
    module or class level under ``src/repro``, decorators included."""
    table: dict[str, dict[str, int]] = {}
    for path in sorted(PACKAGE.rglob("*.py")):
        parts = path.relative_to(SRC).with_suffix("").parts
        module = ".".join(parts[:-1] if parts[-1] == "__init__" else parts)
        found: dict[str, int] = {}

        def walk(body, prefix):
            for node in body:
                if isinstance(node, ast.ClassDef):
                    walk(node.body, f"{prefix}{node.name}.")
                elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    first = min(
                        [node.lineno]
                        + [item.lineno for item in node.decorator_list]
                    )
                    found[prefix + node.name] = node.end_lineno - first + 1
                elif isinstance(node, (ast.If, ast.Try)):
                    walk(node.body, prefix)

        walk(ast.parse(path.read_text(), str(path)).body, "")
        if found:
            table[module] = found
    return table


def allowed(name: str) -> str | None:
    """The allow-list entry covering ``module.qualname``, if any."""
    for entry in ALLOW:
        if name == entry or name.startswith(entry + "."):
            return entry
    return None


def product_commands(tmp: Path) -> list[list[list[str]]]:
    """The product, as groups of commands; a group runs in order (a
    bench's gate reads its smoke run), groups run concurrently."""
    py = sys.executable
    groups = []
    for bench in BENCHES:
        run, trace = tmp / f"BENCH_{bench}.json", tmp / f"TRACE_{bench}.json"
        script = f"benchmarks/bench_{bench}.py"
        group = [
            [py, script, "--smoke", "--out", str(run), "--trace", str(trace)],
            [py, "scripts/obs.py", "gate", bench, "--run", str(run)],
            [py, "scripts/obs.py", "validate", str(trace)],
            [
                py,
                "scripts/obs.py",
                "diff",
                f"benchmarks/baselines/BENCH_{bench}.json",
                str(trace),
            ],
        ]
        if bench != "engine":
            full = tmp / f"BENCH_{bench}_full.json"
            group.append([py, script, "--out", str(full)])
        groups.append(group)
    groups.append(
        [
            [py, "-m", "pytest", "-q", "-p", "no:cacheprovider"]
            + ["--benchmark-disable"]
            + [f"benchmarks/bench_{name}.py" for name in PAPER_CORE]
        ]
    )
    for example in sorted((ROOT / "examples").glob("*.py")):
        groups.append([[py, str(example.relative_to(ROOT))]])
    return groups


def run(command: list[str], env: dict) -> subprocess.CompletedProcess:
    return subprocess.run(
        command, cwd=ROOT, env=env, capture_output=True, text=True
    )


def environment(hook_dir: Path, out: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(hook_dir), str(SRC)]
        + [p for p in [env.get("PYTHONPATH")] if p]
    )
    env["REACH_OUT"] = str(out)
    env["REACH_ROOT"] = str(PACKAGE) + os.sep
    return env


def reached(out: Path) -> set[tuple[str, str]]:
    """``(module, qualname)`` of every recorded code object."""
    names = set()
    for dump in out.glob("*.json"):
        for filename, qualname in json.loads(dump.read_text()):
            parts = Path(filename).relative_to(SRC).with_suffix("").parts
            if parts[-1] == "__init__":
                parts = parts[:-1]
            # A nested function counts for the function it is defined in.
            names.add((".".join(parts), qualname.split(".<locals>")[0]))
    return names


def failing_tests(stdout: str) -> list[str]:
    return sorted(
        line.split()[1]
        for line in stdout.splitlines()
        if line.startswith(("FAILED ", "ERROR "))
    )


def measure() -> tuple[set, set, list[str], list[str]]:
    """Run the product and the tests under the hook: the names each
    reached, the failing test ids and the failed product commands."""
    with tempfile.TemporaryDirectory(prefix="reach-") as tmp:
        tmp = Path(tmp)
        for sub in ("hook", "product", "tests", "work"):
            (tmp / sub).mkdir()
        (tmp / "hook" / "sitecustomize.py").write_text(SITECUSTOMIZE)
        product_env = environment(tmp / "hook", tmp / "product")
        tests_env = environment(tmp / "hook", tmp / "tests")
        failed: list[str] = []

        def run_group(group):
            for command in group:
                done = run(command, product_env)
                if done.returncode:
                    failed.append(" ".join(command))
                    print(done.stdout[-2000:], done.stderr[-2000:])
                    return

        tests_command = [
            sys.executable,
            "-m",
            "pytest",
            "-q",
            "-p",
            "no:cacheprovider",
            "-rfE",
            "--tb=no",
            "--hypothesis-seed=0",
            # It reads the table this run writes, and no src/ function.
            "--ignore=tests/integration/test_reach_table.py",
        ]
        # The wall harness caches its oracles in benchmarks/wall/out/, and
        # the tests run it too: the product's run fills the cache first.
        run_group([[sys.executable, "benchmarks/wall/run.py", "--smoke"]])
        with ThreadPoolExecutor(max_workers=1) as pool:
            tests = pool.submit(run, tests_command, tests_env)
            with ThreadPoolExecutor(max_workers=JOBS) as product:
                list(product.map(run_group, product_commands(tmp / "work")))
            tests = tests.result()
        return (
            reached(tmp / "product"),
            reached(tmp / "tests"),
            failing_tests(tests.stdout),
            sorted(failed),
        )


def table(product: set, tests: set, failures: list[str]) -> dict:
    modules = {}
    totals = dict.fromkeys(
        (
            "functions",
            "product",
            "tests_only",
            "tests_only_lines",
            "unreached",
            "unreached_lines",
            "untriaged_tests_only",
            "untriaged_gated",
        ),
        0,
    )
    for module, found in functions().items():
        entry = {"product": [], "tests_only": {}, "unreached": {}}
        for qualname, lines in found.items():
            totals["functions"] += 1
            key = (module, qualname)
            if key in product:
                entry["product"].append(qualname)
                totals["product"] += 1
                continue
            kind = "tests_only" if key in tests else "unreached"
            entry[kind][qualname] = lines
            totals[kind] += 1
            totals[kind + "_lines"] += lines
            name = f"{module}.{qualname}"
            if allowed(name) is None:
                if kind == "tests_only":
                    totals["untriaged_tests_only"] += 1
                if name.startswith(GATED):
                    totals["untriaged_gated"] += 1
        modules[module] = entry
    return {
        "method": (
            "scripts/reach.py: sys.setprofile through a temporary "
            "sitecustomize; product = smoke + full benches, paper-core "
            "experiments, examples, obs.py gate/validate/diff, wall --smoke"
        ),
        "summary": totals,
        "hook_failures": failures,
        "allow": ALLOW,
        "modules": modules,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--out", type=Path, default=DEFAULT_OUT)
    args = parser.parse_args(argv)
    product, tests, failures, failed = measure()
    result = table(product, tests, failures)
    summary = result["summary"]
    print(
        f"{summary['functions']} functions: {summary['product']} reached by "
        f"the product, {summary['tests_only']} by tests only "
        f"({summary['tests_only_lines']} lines), {summary['unreached']} by "
        f"nothing ({summary['unreached_lines']} lines); "
        f"{summary['untriaged_gated']} untriaged in {', '.join(GATED)}"
    )
    print("failing under the hook:", *failures, sep="\n  ")
    if failed:
        print("product commands failed:", *failed, sep="\n  ")
    if tuple(failures) != HOOK_FAILURES:
        print("expected exactly these to fail:", *HOOK_FAILURES, sep="\n  ")
    if failed or tuple(failures) != HOOK_FAILURES:
        print(f"{args.out} not written: the run is suspect")
        return 1
    args.out.write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
