"""The wall-clock benchmark: five workloads, host time end to end and by layer.

Three ways in (see README.md beside this file):

* ``run.py --workload W --seed N --seconds S --trace 0|1`` — the benchmark
  contract: one workload, one JSON result on the last
  line.  ``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``
  (medians over as many fresh-interpreter reps as fit in ``S`` measured
  seconds, at least three, each on its own inputs derived from ``N``),
  ``--trace 1`` the per-layer metrics (two plain reps, one span-traced
  rep, plus the fault-free twin / the obs-traced run where a metric needs
  them, all on the inputs of ``N``).
* ``python3 benchmarks/wall/run.py [--seed 7] [--out FILE] [--smoke]`` —
  all five workloads, every metric printed by name with its unit.
* ``python3 benchmarks/wall/run.py --compare A.json B.json`` — two ``--out``
  files judged row by row against the bounds.

Load model: closed loop, one client, one call.  Each measurement is one
fresh child interpreter running ``measure.py`` (``PYTHONHASHSEED=0``), one
at a time; the parent only plans jobs, computes the sequential-spec oracle
once per workload and seed, and folds the children's results.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
OUT = HERE / "out"

# The program under test is the checkout's own ``src``, whatever else
# is installed; children get the same through PYTHONPATH.
sys.path[:0] = [str(HERE), str(SRC)]

from scenarios import (  # noqa: E402
    SCENARIOS,
    SIZE_DIVISOR,
    SMOKE_DIVISOR,
    Scenario,
    fault_plan,
)

#: A healthy child takes a few seconds; one that is still running after
#: this long is stuck (a fault schedule can livelock the router's probe
#: loop), and the run must fail well inside the contract's 180 s.
CHILD_TIMEOUT_S = 60
MIN_REPS = 3
MAX_REPS = 12
#: Plain reps of a ``--trace 1`` run: enough for ``bench.rep_spread`` and
#: a base for the two overhead shares.
TRACE_REPS = 2
#: The reference loop runs this long on each side of every timed call
#: (``measure.reference_rate`` says why not shorter); a smoke run only
#: checks that it is wired.
REF_SECONDS = 0.75
SMOKE_REF_SECONDS = 0.02
#: ``--trace 0`` gives rep *i* of seed *s* the inputs of seed
#: ``s * SEED_STRIDE + i``: distinct for every (s, i) a run can reach.
SEED_STRIDE = 1000
#: The workload whose extra ``obs`` child prices the program's own tracer.
OBS_WORKLOAD = "cluster_spender"

#: The issue's three end-to-end metrics that are 0 by definition on some
#: workload.  The contract admits no such metric into ``end_to_end``, so
#: ``BENCHMARK.json`` lists them per layer (unbounded); ``--compare``
#: still holds them to the issue's bounds.
ZERO_CAPABLE_BOUNDS = {
    "msgs_per_op": 0.02,
    "recovery_vt": 0.05,
    "failed_op_share": 0.0,
}


class BenchError(Exception):
    """The benchmark could not produce a trustworthy result."""


def load_spec() -> dict:
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        raise BenchError(f"{path} is missing")
    return json.loads(path.read_text())


# -- children ----------------------------------------------------------------


def run_child(job: dict) -> dict:
    """One measurement in a fresh interpreter; its JSON result."""
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p]
    )
    job = dict(job, spawned_at=time.time())
    try:
        done = subprocess.run(
            [sys.executable, str(HERE / "measure.py"), json.dumps(job)],
            capture_output=True,
            text=True,
            env=env,
            timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        raise BenchError(
            f"{job['workload']} ({job['mode']}, seed {job['seed']}) did "
            f"not finish within {CHILD_TIMEOUT_S} s"
        ) from None
    if done.returncode != 0:
        raise BenchError(
            f"{job['workload']} ({job['mode']}, seed {job['seed']}) "
            f"exited {done.returncode}: {done.stderr.strip()[-2000:]}"
        )
    return json.loads(done.stdout.splitlines()[-1])


class Oracles:
    """The sequential specification's answers for one workload run: one
    file per (scenario, input seed), computed in the parent on first use,
    handed to every child measuring those inputs, deleted on exit."""

    def __init__(self, ops: int, ref_seconds: float) -> None:
        self.ops = ops
        self.ref_seconds = ref_seconds
        self._paths: dict[tuple[str, int], Path] = {}

    def __enter__(self) -> "Oracles":
        return self

    def __exit__(self, *exc) -> None:
        for path in self._paths.values():
            path.unlink(missing_ok=True)

    def job(self, scenario: Scenario, seed: int, mode: str = "plain") -> dict:
        """The child job measuring ``scenario`` on the inputs of ``seed``."""
        import measure

        key = (scenario.name, seed)
        if key not in self._paths:
            path = OUT / f"oracle_{scenario.name}_{self.ops}_{seed}.json"
            try:
                measure.write_oracle(scenario, self.ops, seed, path)
            except ModuleNotFoundError as missing:
                raise BenchError(
                    f"cannot import the program under test ({missing}); "
                    "run from a checkout that has src/repro"
                ) from None
            self._paths[key] = path
        return {
            "workload": scenario.name,
            "ops": self.ops,
            "seed": seed,
            "mode": mode,
            "oracle": str(self._paths[key]),
            "faults": fault_plan(self.ops) if scenario.faults else None,
            "ref_seconds": self.ref_seconds,
        }


# -- one workload ------------------------------------------------------------


def check_determinism(children: list[dict]) -> None:
    """Counts and virtual times are functions of the scheduling decisions
    alone: every child that ran the same workload on the same inputs —
    plain rep, span-traced or obs-traced — must report them bit for bit
    alike.  A difference is hash-order nondeterminism or a recorder that
    perturbs the run."""
    first_of: dict[tuple[str, int], dict] = {}
    for child in children:
        first = first_of.setdefault((child["workload"], child["seed"]), child)
        differing = sorted(
            name
            for name, value in first["counts"].items()
            if child["counts"].get(name) != value
        )
        if differing:
            raise BenchError(
                f"{child['workload']} (seed {child['seed']}): not "
                f"deterministic across {first['mode']} and {child['mode']} "
                "runs: "
                + ", ".join(
                    f"{name} {first['counts'][name]!r} != "
                    f"{child['counts'].get(name)!r}"
                    for name in differing
                )
            )


def measure_workload(
    scenario: Scenario,
    seed: int,
    seconds: float,
    min_reps: int,
    smoke: bool,
    trace: bool,
    vary_inputs: bool = False,
    twin: dict | None = None,
) -> dict:
    """Run one workload's children and fold them into one result.

    Plain reps repeat until ``seconds`` of measurement (timed call plus
    the reference loop around it) are filled, at least ``min_reps``.
    With ``vary_inputs`` each rep gets its own inputs, derived from
    ``seed``: the reported medians then average over workload content as
    well as over machine noise, which is what keeps ten runs with ten
    seeds close together.  Without it every rep runs the
    same inputs and must agree on every count.  ``trace`` adds the
    span-traced rep and whatever the per-layer metrics need beside it;
    ``twin`` is the fault-free twin's result when the caller has it.
    """
    ops = max(1, scenario.ops // SMOKE_DIVISOR) if smoke else scenario.ops
    reps: list[dict] = []
    per_layer, notes, extras = {}, {}, []
    ref_seconds = SMOKE_REF_SECONDS if smoke else REF_SECONDS
    with Oracles(ops, ref_seconds) as oracles:
        while len(reps) < MAX_REPS and (
            len(reps) < min_reps
            or sum(r["measured_s"] for r in reps) < seconds
        ):
            rep_seed = seed * SEED_STRIDE + len(reps) if vary_inputs else seed
            reps.append(run_child(oracles.job(scenario, rep_seed)))
        if trace:
            traced = run_child(
                dict(
                    oracles.job(scenario, seed, mode="spans"),
                    trace_out=str(OUT / f"trace_{scenario.name}.json"),
                )
            )
            notes = traced["notes"]
            per_layer, extras = traced_layers(
                scenario, oracles, reps, traced, twin
            )
    checked = reps + extras
    check_determinism(checked)
    values = {
        name: [rep[name] for rep in reps]
        for name in (
            "ops_per_s_norm",
            "ops_per_s",
            "setup_s",
            "setup_raw_s",
            "peak_rss_mb",
        )
    }
    values.update(
        (name, [rep["counts"][name] for rep in reps])
        for name in ("virtual_speedup", "msgs_per_op", "recovery_vt")
    )
    attempted = sum(c["attempted"] for c in checked)
    failed = sum(c["failed"] for c in checked)
    end_to_end = {
        name: statistics.median(seen) for name, seen in values.items()
    }
    end_to_end["failed_op_share"] = failed / attempted
    if trace:
        per_layer["failed_op_share"] = failed / attempted
    return {
        "ops": ops,
        "seed": seed,
        "reps": len(reps),
        "attempted": attempted,
        "failed": failed,
        "end_to_end": end_to_end,
        "values": values,
        "per_layer": per_layer,
        "notes": notes,
    }


def traced_layers(
    scenario: Scenario,
    oracles: Oracles,
    reps: list[dict],
    traced: dict,
    twin: dict | None,
) -> tuple[dict, list[dict]]:
    """The per-layer metrics of one workload: the counts every child
    reports, the span-derived times of the traced child, and the ratios
    that need a second kind of run.  Also returns every child run beyond
    the plain reps, for the oracle tally and the determinism check."""
    extras = [traced]
    seed = traced["seed"]
    # Every rate here is normalised by the reference loop, so a ratio of
    # two children is not a ratio of two phases of the box.
    rates = [rep["ops_per_s_norm"] for rep in reps]
    rate = statistics.median(rates)
    layers = dict(traced["counts"])
    layers.update(traced["layers"])
    for raw in ("ops_per_s", "setup_raw_s"):
        layers[raw] = statistics.median(rep[raw] for rep in reps)
    layers["bench.ref_rate"] = statistics.median(
        rep["ref_rate"] for rep in reps
    )
    layers["bench.span_overhead_share"] = rate / traced["ops_per_s_norm"] - 1
    layers["bench.rep_spread"] = max(rates) / min(rates) - 1
    layers["obs.tracer_overhead_share"] = 0.0
    if scenario.name == OBS_WORKLOAD:
        observed = run_child(oracles.job(scenario, seed, mode="obs"))
        extras.append(observed)
        layers["obs.tracer_overhead_share"] = (
            rate / observed["ops_per_s_norm"] - 1
        )
    layers["faults.host_cost_share"] = 0.0
    layers["faults.makespan_ratio"] = 0.0
    if scenario.faults:
        if twin is None:
            child = run_child(
                oracles.job(SCENARIOS[scenario.fault_free_twin], seed)
            )
            extras.append(child)
            twin = {
                "ops_per_s_norm": child["ops_per_s_norm"],
                "virtual_speedup": child["counts"]["virtual_speedup"],
            }
        layers["faults.host_cost_share"] = 1 - rate / twin["ops_per_s_norm"]
        # Same items, same op cost: the makespans' ratio is the inverse
        # of the virtual speed-ups'.
        layers["faults.makespan_ratio"] = (
            twin["virtual_speedup"] / layers["virtual_speedup"]
        )
    return layers, extras


def named(spec_rows: list[dict], values: dict) -> dict:
    """``{name: {"value", "unit"}}`` for exactly the metrics the spec
    lists; a listed metric the harness does not compute is an error."""
    missing = [row["name"] for row in spec_rows if row["name"] not in values]
    if missing:
        raise BenchError(
            "BENCHMARK.json lists metrics the harness does not compute: "
            + ", ".join(missing)
        )
    return {
        row["name"]: {"value": values[row["name"]], "unit": row["unit"]}
        for row in spec_rows
    }


# -- entry points ------------------------------------------------------------


def run_contract(args, spec: dict) -> int:
    """``--workload``: one workload, the contract's JSON on the last line."""
    scenario = SCENARIOS[args.workload]
    trace = args.trace == 1
    result = measure_workload(
        scenario,
        args.seed,
        seconds=0 if trace or args.smoke else args.seconds,
        min_reps=TRACE_REPS if trace else 1 if args.smoke else MIN_REPS,
        smoke=args.smoke,
        trace=trace,
        vary_inputs=not trace,
    )
    metrics = (
        named(spec["per_layer"], result["per_layer"])
        if trace
        else named(spec["end_to_end"], result["end_to_end"])
    )
    print(
        f"{scenario.name}: seed {args.seed}, {result['ops']} ops, "
        f"{result['reps']} plain reps" + (", 1 traced" if trace else "")
    )
    for name, metric in metrics.items():
        print(f"  {name:<40} {metric['value']:>14.6g} {metric['unit']}")
    print(
        json.dumps(
            {
                "correct": result["failed"] == 0,
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": metrics,
            }
        )
    )
    return 0 if result["failed"] == 0 else 1


def run_all(args, spec: dict) -> int:
    """Every workload, plain reps and a traced rep each; prints every
    metric by name with its unit and optionally writes ``--out``."""
    report = {
        "seed": args.seed,
        "smoke": args.smoke,
        "size_divisor": SIZE_DIVISOR * (SMOKE_DIVISOR if args.smoke else 1),
        "workloads": {},
    }
    units = {
        row["name"]: row["unit"]
        for row in spec["end_to_end"] + spec["per_layer"]
    }
    results = report["workloads"]
    for name, scenario in SCENARIOS.items():
        twin = (
            results[scenario.fault_free_twin]["end_to_end"]
            if scenario.faults
            else None
        )
        result = results[name] = measure_workload(
            scenario,
            args.seed,
            seconds=0,
            min_reps=1 if args.smoke else MIN_REPS,
            smoke=args.smoke,
            trace=True,
            twin=twin,
        )
        named(spec["per_layer"], result["per_layer"])
        print(
            f"\n{name}: {result['ops']} ops, {result['reps']} plain reps "
            f"+ 1 traced, {result['failed']} of {result['attempted']} "
            "ops failed"
        )
        print("  end to end")
        for metric, value in result["end_to_end"].items():
            spread = ""
            values = result["values"].get(metric, [value])
            if min(values) != max(values):
                spread = f"   (min {min(values):.6g}, max {max(values):.6g})"
            print(f"    {metric:<38} {value:>14.6g} {units[metric]}{spread}")
        print("  per layer")
        for metric, value in sorted(result["per_layer"].items()):
            if metric in result["end_to_end"]:
                continue  # printed above, with its spread
            note = result["notes"].get(metric)
            extra = ""
            if note:
                shown = (
                    "n/a"
                    if note["percentile"] is None
                    else f"p{100 * note['percentile']:.1f}"
                )
                extra = f"   ({shown} of {note['samples']} samples)"
            print(f"    {metric:<38} {value:>14.6g} {units[metric]}{extra}")
    if args.out is not None:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(report, indent=1))
        print(f"\nwrote {args.out}")
    failed = sum(result["failed"] for result in results.values())
    return 0 if failed == 0 else 1


def compare(path_a: Path, path_b: Path, spec: dict) -> int:
    """Judge run B against run A, workload by workload and metric by
    metric, with the bounds of ``BENCHMARK.json``."""
    a, b = (
        json.loads(path.read_text())["workloads"] for path in (path_a, path_b)
    )
    rows = [
        (row["name"], row["better"], row["bound"])
        for row in spec["end_to_end"]
    ] + [(name, "lower", bound) for name, bound in ZERO_CAPABLE_BOUNDS.items()]
    regressed = False
    print(f"{'workload':<17}" + "".join(f"{name:>17}" for name, _, _ in rows))
    for workload in SCENARIOS:
        if workload not in a or workload not in b:
            raise BenchError(f"{workload} is missing from a compared file")
        cells = []
        for name, better, bound in rows:
            before, after = (
                side[workload]["values"].get(
                    name, [side[workload]["end_to_end"][name]]
                )
                for side in (a, b)
            )
            status = judge(before, after, better == "higher", bound)
            regressed |= status == "regressed"
            cells.append(f"{status:>17}")
        print(f"{workload:<17}" + "".join(cells))
    return 1 if regressed else 0


def judge(
    before: list[float], after: list[float], higher_better: bool, bound: float
) -> str:
    """``ok`` / ``regressed`` / ``unresolved`` for one metric on one
    workload: regressed when the median worsened by more than the bound,
    unresolved when either side's spread is wider than the bound and the
    two sides' runs overlap."""
    sign = -1.0 if higher_better else 1.0
    before = [sign * value for value in before]
    after = [sign * value for value in after]
    base, new = statistics.median(before), statistics.median(after)
    scale = abs(base)
    worse = new - base > bound * scale
    wide = any(
        max(side) - min(side) > bound * scale for side in (before, after)
    )
    if wide and not (max(after) <= min(before) or min(after) > max(before)):
        return "unresolved"
    return "regressed" if worse else "ok"


def main(argv: list[str] | None = None) -> int:
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(SCENARIOS))
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument(
        "--seconds",
        type=float,
        default=spec["run_seconds"],
        help="measured seconds to fill with plain reps (--workload only)",
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, help="write the full report here")
    parser.add_argument(
        "--smoke",
        action="store_true",
        help=f"op counts / {SMOKE_DIVISOR}, one rep: a wiring check",
    )
    parser.add_argument("--compare", nargs=2, type=Path, metavar=("A", "B"))
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare, spec)
    if args.workload:
        return run_contract(args, spec)
    return run_all(args, spec)


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as error:
        print(f"benchmark error: {error}", file=sys.stderr)
        sys.exit(2)
