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

The same hook records the ``as_dict()`` of every :data:`CONFIGS` value
built (at the return of its ``__post_init__``), so the table also holds,
per config field, the distinct values the product runs with: a knob the
product never turns is a constant in disguise.

The table (``REACH.json``) lists, per module, the functions the product
reaches, those only the tests reach and those nothing reaches (with
their line counts); per config field, its product values; plus
:data:`ALLOW`: names kept though the product never calls them (or, for
a ``repro.config`` field, never sets two ways), one line of reason each.
A name allows itself and everything under it (a class allows its
methods, a module its functions).  The summary's ``untriaged`` counts
the functions the product misses that no entry allows, and
``config_untriaged`` the fields with fewer than two product values that
no entry allows.  ``tests/integration/test_reach_table.py`` holds the
committed table to ``src/``: every entry resolves, and no function
anywhere in the package that the product misses, and no config field it
leaves fixed, is left unexplained.

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

#: The tests that fail under any profile hook (they count allocated
#: blocks, and a hook materializes a frame object per call).
HOOK_FAILURES = tuple(
    "tests/objects/test_footprint_allocs.py::"
    f"test_the_questions_build_no_set[{question}]"
    for question in ("anchor", "contention", "static_pair_kind")
)

#: The config dataclasses of ``repro.config`` whose values are recorded.
CONFIGS = ("EngineConfig", "ClusterConfig", "FaultConfig")

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
#: Every reason is one of: a frozen wall-benchmark name, a caller's read
#: of its own results, a protocol's error or reject path, an abstract
#: method or base-class default, a test fake or probe, a reference or
#: paper evidence that a Reproduction note or an equation cites, an
#: operation of a token spec or emulated token, debug text, or (for a
#: config field) a setting only the tests vary.
ALLOW = {
    "repro.engine.rounds.WallAdapters": (
        "frozen wall-benchmark names: benchmarks/wall binds them, nothing "
        "in src/ calls them"
    ),
    "repro.engine.conflict_graph.ConflictGraph": (
        "frozen wall-benchmark names: benchmarks/wall binds them, nothing "
        "in src/ calls them"
    ),
    "repro.engine.classifier.OpClassifier.classify": (
        "frozen wall-benchmark name; the all-pairs reference the window "
        "plan is held to"
    ),
    "repro.engine.classifier.OpClassifier._pair_kind": (
        "frozen wall-benchmark name behind classify"
    ),
    "repro.engine.classifier.OpClassifier.classify_window": (
        "frozen wall-benchmark name; the all-pairs window reference"
    ),
    "repro.engine.pipeline.PipelinedExecutor.responses_in_order": (
        "the submit()/run() caller's read of its responses; run_workload "
        "returns its own"
    ),
    "repro.cluster.cluster.TokenCluster.responses_in_order": (
        "the submit()/run() caller's read of its responses; run_workload "
        "returns its own"
    ),
    "repro.cluster.router.Router._stale": (
        "error path: a straggler result or ack; no product fault schedule "
        "makes one now that a unit its node reports running is never "
        "replayed"
    ),
    "repro.engine.mempool.PendingOp.__repr__": (
        "debug text: what a failing assertion prints"
    ),
    "repro.engine.mempool.PendingOp.__str__": (
        "debug text: what a failing assertion prints"
    ),
    "repro.net.network.Message.__str__": "debug text: a message's route",
    "repro.spec.operation.Invocation.__str__": "debug text: a history event",
    "repro.spec.operation.Response.__str__": "debug text: a history event",
    "repro.runtime.process.ProcessRunner.__repr__": (
        "debug text: what a failing assertion prints"
    ),
    "repro.workloads.generators.WorkloadItem.__str__": (
        "debug text: one trace line"
    ),
    "repro.workloads.generators.MultiContractItem.__str__": (
        "debug text: one trace line"
    ),
    "repro.net.network.ConstantLatency": "test fake: a fixed link delay",
    "repro.net.network.Network.partition": (
        "test probe: the §7 partition tests cut links with it"
    ),
    "repro.net.network.Network.heal": (
        "test probe: the §7 partition tests restore links with it"
    ),
    "repro.net.network.Network._crosses_partition": (
        "test probe: the drop rule of an installed partition"
    ),
    "repro.net.simulation.Simulator.queued_entries": (
        "test probe: the simulator's tombstone tests count the heap"
    ),
    "repro.net.simulation.EventHandle.time": (
        "test probe: the simulator's tombstone tests read a handle"
    ),
    "repro.net.simulation.EventHandle.active": (
        "test probe: the simulator's tombstone tests read a handle"
    ),
    "repro.dynamic.dynamic_token.DynamicTokenNode._reject": (
        "reject path: a transferFrom the group refuses"
    ),
    "repro.dynamic.dynamic_token.DynamicTokenNode.handle_tf_reject": (
        "reject path: a transferFrom the group refuses"
    ),
    "repro.analysis.reachability.raising_approvals": (
        "Eq. 12's witness: the approves that raise the level"
    ),
    "repro.analysis.reachability.escalation_plan": (
        "Eq. 12's witness: a schedule from q0 into S_k"
    ),
    "repro.analysis.spenders.accounts_with_spender_count": (
        "Eq. 12's witness: the accounts raising_approvals starts from"
    ),
    "repro.objects.restricted": (
        "Reproduction note 3's evidence: the token restricted to Q_<=k"
    ),
    "repro.protocols.token_from_kat.workload_program": (
        "Reproduction note 2's evidence: the race tests' process programs"
    ),
    "repro.protocols.token_from_kat.EmulatedToken.base_objects": (
        "Reproduction note 2's evidence: the race tests' explorer objects"
    ),
    "repro.protocols.escrow_token.EscrowToken.base_objects": (
        "Reproduction note 5's evidence: the escrow tests' explorer objects"
    ),
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
    "repro.spec.object_type.SequentialObjectType.footprint": (
        "base-class default: None, the engine's conservative fallback"
    ),
    "repro.spec.object_type.SequentialObjectType._unknown_operation": (
        "error path: a foreign operation name"
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
    "repro.config.EngineConfig.mempool_capacity": (
        "a setting only tests vary: the bounded mempool's backpressure; "
        "ROADMAP item 29 reshapes admission"
    ),
    "repro.config.FaultConfig.delays": (
        "a setting only tests vary: the test fault schedules' delay "
        "rules; ROADMAP items 9 and 10"
    ),
    "repro.config.FaultConfig.seed": (
        "a setting only tests vary: the test fault schedules' dice; "
        "ROADMAP items 9 and 10"
    ),
}

#: The token specs' and emulated tokens' operations the product never
#: invokes: a specification is kept whole, called or not.
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
        "_apply_balanceOf _apply_getApproved"
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
        "_apply_balanceOfBatch _apply_safeBatchTransferFrom"
    ),
    "repro.objects.base.OperatorApprovals": "_apply_isApprovedForAll",
    "repro.objects.asset_transfer.AssetTransfer": "total_supply",
    "repro.protocols.escrow_token.EscrowToken": (
        "balance_of free_balance_of total_supply increase_allowance "
        "decrease_allowance"
    ),
}
ALLOW.update(
    (f"{owner}.{name}", "a token's operation: its interface is kept whole")
    for owner, names in OPERATIONS.items()
    for name in names.split()
)

SITECUSTOMIZE = '''\
"""Record every src/repro code object called in this interpreter, and
every repro.config value built."""
import atexit
import json
import os
import sys
import threading

_out = os.environ.get("REACH_OUT")
if _out:
    _root = os.environ["REACH_ROOT"]
    _seen = {}
    _configs = set()

    def _hook(frame, event, arg):
        if event == "call":
            code = frame.f_code
            if code not in _seen:
                path = os.path.abspath(code.co_filename)
                _seen[code] = path if path.startswith(_root) else None
        elif event == "return" and frame.f_code.co_name == "__post_init__":
            config = frame.f_locals.get("self")
            if type(config).__module__ == "repro.config":
                _configs.add(
                    (
                        type(config).__name__,
                        json.dumps(config.as_dict(), sort_keys=True),
                    )
                )

    def _dump():
        sys.setprofile(None)
        names = sorted(
            {(path, code.co_qualname)
             for code, path in _seen.items() if path}
        )
        path = os.path.join(_out, "%d.json" % os.getpid())
        with open(path, "w") as handle:
            json.dump(names, handle)
        with open(os.path.join(_out, "%d.configs" % os.getpid()), "w") as out:
            json.dump(sorted(_configs), out)

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


def config_fields() -> dict[str, list[str]]:
    """``{class: [field, ...]}`` of each of :data:`CONFIGS`, in
    declaration order, read from ``config.py``'s annotated class body."""
    tree = ast.parse((PACKAGE / "config.py").read_text())
    return {
        node.name: [
            item.target.id
            for item in node.body
            if isinstance(item, ast.AnnAssign)
        ]
        for node in tree.body
        if isinstance(node, ast.ClassDef) and node.name in CONFIGS
    }


def configs(out: Path) -> dict[str, dict[str, list]]:
    """``{class: {field: [distinct values]}}`` over every config value
    recorded under ``out`` (values in their JSON form, sorted by it)."""
    built = set()
    for dump in out.glob("*.configs"):
        built.update(map(tuple, json.loads(dump.read_text())))
    seen = {
        cls: {field: set() for field in names}
        for cls, names in config_fields().items()
    }
    for cls, snapshot in built:
        for field, value in json.loads(snapshot).items():
            seen[cls][field].add(json.dumps(value, sort_keys=True))
    return {
        cls: {
            field: [json.loads(value) for value in sorted(values)]
            for field, values in fields.items()
        }
        for cls, fields in seen.items()
    }


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


def measure() -> tuple[set, set, dict, list[str], list[str]]:
    """Run the product and the tests under the hook: the names each
    reached, the product's config values, the failing test ids and the
    failed product commands."""
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
            configs(tmp / "product"),
            failing_tests(tests.stdout),
            sorted(failed),
        )


def table(product: set, tests: set, config: dict, failures: list) -> dict:
    modules = {}
    totals = dict.fromkeys(
        (
            "functions",
            "product",
            "tests_only",
            "tests_only_lines",
            "unreached",
            "unreached_lines",
            "untriaged",
            "config_fields",
            "config_untriaged",
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
            if allowed(f"{module}.{qualname}") is None:
                totals["untriaged"] += 1
        modules[module] = entry
    for cls, fields in config.items():
        for field, values in fields.items():
            totals["config_fields"] += 1
            name = f"repro.config.{cls}.{field}"
            if len(values) < 2 and allowed(name) is None:
                totals["config_untriaged"] += 1
    return {
        "method": (
            "scripts/reach.py: sys.setprofile through a temporary "
            "sitecustomize; product = smoke + full benches, paper-core "
            "experiments, examples, obs.py gate/validate/diff, wall --smoke; "
            "config = the as_dict() of every repro.config value the product "
            "builds"
        ),
        "summary": totals,
        "config": config,
        "hook_failures": failures,
        "allow": ALLOW,
        "modules": modules,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--out", type=Path, default=DEFAULT_OUT)
    args = parser.parse_args(argv)
    product, tests, config, failures, failed = measure()
    result = table(product, tests, config, failures)
    summary = result["summary"]
    print(
        f"{summary['functions']} functions: {summary['product']} reached by "
        f"the product, {summary['tests_only']} by tests only "
        f"({summary['tests_only_lines']} lines), {summary['unreached']} by "
        f"nothing ({summary['unreached_lines']} lines); "
        f"{summary['untriaged']} untriaged; {summary['config_fields']} "
        f"config fields, {summary['config_untriaged']} untriaged"
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
