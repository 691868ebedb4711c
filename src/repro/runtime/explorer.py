"""Exhaustive schedule exploration (the mechanical adversary).

The impossibility side of the paper (Theorem 3) quantifies over *all*
schedules; the possibility side (Theorems 2 and 4) claims correctness under
every schedule and crash pattern.  This module explores the full interleaving
tree of a finite protocol:

* every reachable configuration is visited (DFS),
* configurations are memoized by a sound key — the tuple of shared-object
  states plus, per process, its status and the sequence of responses it has
  received (for deterministic programs this determines the continuation), so
  equivalent interleavings are explored once (a form of partial-order
  reduction),
* optional crash branches model the crash-failure adversary,
* per-terminal-execution property checks (agreement, validity, …) run on
  every distinct completion,
* reachable-decision sets ("valences") are computed for every configuration,
  enabling bivalence analysis and critical-state search in
  :mod:`repro.analysis.valency`.

Replay-based semantics: a configuration is identified with the action prefix
that reaches it; the explorer replays prefixes on fresh systems produced by
the factory, so factories must be deterministic.
"""

from __future__ import annotations

from typing import Any, Callable, Sequence

from repro._records import field, record
from repro.errors import ExplorationLimitError
from repro.runtime.executor import System, SystemFactory
from repro.runtime.process import ProcessRunner, ProcessStatus
from repro.runtime.scheduler import Action, CrashAction, StepAction

__all__ = [
    "ExplorationReport",
    "ScheduleExplorer",
    "TerminalCheck",
    "Violation",
]

#: A terminal-execution property check: receives the final runners and the
#: system, returns human-readable violation strings (empty = OK).
TerminalCheck = Callable[
    [list[ProcessRunner], System, tuple[Action, ...]], list[str]
]


@record
class Violation:
    """A property violation found on a specific schedule."""

    schedule: tuple[Action, ...]
    message: str

    def __str__(self) -> str:
        rendered = ", ".join(
            f"crash({a.pid})" if isinstance(a, CrashAction) else f"p{a.pid}"
            for a in self.schedule
        )
        return f"{self.message} [schedule: {rendered}]"


@record
class ExplorationReport:
    """Aggregate result of an exhaustive exploration."""

    #: Number of distinct terminal executions checked.
    executions: int = 0
    #: Number of distinct configurations visited.
    configs: int = 0
    #: All property violations found (empty = property holds everywhere).
    violations: list[Violation] = field(default_factory=list)
    #: Union of decided values over all completions from the initial config.
    outcomes: frozenset[Any] = frozenset()

    @property
    def ok(self) -> bool:
        return not self.violations


class ScheduleExplorer:
    """Exhaustive DFS over the interleaving (and crash) tree of a protocol."""

    def __init__(
        self,
        factory: SystemFactory,
        crash_budget: int = 0,
        max_steps: int = 500,
        max_configs: int = 2_000_000,
        memoize: bool = True,
    ) -> None:
        """Args:
            factory: Builds a fresh :class:`System` per replay (deterministic).
            crash_budget: Maximum crashes per execution (``f``); crash
                branches multiply the tree, keep small.
            max_steps: Upper bound on schedule length; exceeding it means the
                protocol is not wait-free within the budget and raises.
            max_configs: Safety valve on distinct configurations.
            memoize: Deduplicate equivalent configurations (sound
                partial-order-style reduction).  Disable only for ablation
                measurements — the raw interleaving tree is exponentially
                larger.
        """
        self._factory = factory
        self.crash_budget = crash_budget
        self.max_steps = max_steps
        self.max_configs = max_configs
        self.memoize = memoize
        self._memo: dict[Any, frozenset[Any]] = {}
        self._report = ExplorationReport()
        self._checks: list[TerminalCheck] = []

    # ------------------------------------------------------------------

    def _replay(
        self, prefix: Sequence[Action]
    ) -> tuple[list[ProcessRunner], System]:
        system = self._factory()
        runners = system.runners()
        by_pid = {runner.pid: runner for runner in runners}
        for action in prefix:
            if isinstance(action, CrashAction):
                by_pid[action.pid].crash()
            else:
                by_pid[action.pid].step()
        return runners, system

    @staticmethod
    def _config_key(
        runners: list[ProcessRunner], system: System, crashes_used: int
    ) -> tuple[Any, ...]:
        object_states = tuple(obj.state for obj in system.objects)
        process_keys = tuple(r.memo_key() for r in runners)
        return (object_states, process_keys, crashes_used)

    @staticmethod
    def _crashes_used(prefix: Sequence[Action]) -> int:
        return sum(1 for action in prefix if isinstance(action, CrashAction))

    # ------------------------------------------------------------------

    def explore(
        self, checks: Sequence[TerminalCheck] = ()
    ) -> ExplorationReport:
        """Explore every schedule; run ``checks`` on every distinct terminal
        execution; return the aggregate report."""
        self._memo = {}
        self._report = ExplorationReport()
        self._checks = list(checks)
        outcomes = self._explore(())
        self._report.outcomes = outcomes
        return self._report

    def outcomes_from(self, prefix: Sequence[Action]) -> frozenset[Any]:
        """Reachable decided values from the configuration after ``prefix``
        (the configuration's *valence* in consensus terms)."""
        if not self._memo:
            # Ensure the memo is populated lazily for prefix queries.
            self._checks = []
        return self._explore(tuple(prefix))

    def children(self, prefix: Sequence[Action]) -> list[tuple[Action, ...]]:
        """One-step extensions of ``prefix`` (step actions only)."""
        runners, _system = self._replay(prefix)
        return [
            tuple(prefix) + (StepAction(r.pid),)
            for r in runners
            if r.is_runnable
        ]

    def pending_operations(self, prefix: Sequence[Action]) -> dict[int, str]:
        """Pending operation (rendered) per runnable process after ``prefix``."""
        runners, _system = self._replay(prefix)
        return {
            r.pid: str(r.pending)
            for r in runners
            if r.is_runnable and r.pending
        }

    # ------------------------------------------------------------------

    def _explore(self, prefix: tuple[Action, ...]) -> frozenset[Any]:
        if len(prefix) > self.max_steps:
            raise ExplorationLimitError(
                f"schedule exceeded {self.max_steps} steps; protocol is not "
                "wait-free within the exploration budget"
            )
        runners, system = self._replay(prefix)
        crashes_used = self._crashes_used(prefix)
        key = self._config_key(runners, system, crashes_used)
        if self.memoize:
            cached = self._memo.get(key)
            if cached is not None:
                return cached
        self._report.configs += 1
        if self._report.configs > self.max_configs:
            raise ExplorationLimitError(
                f"exceeded {self.max_configs} distinct configurations"
            )

        runnable = [r.pid for r in runners if r.is_runnable]
        if not runnable:
            self._report.executions += 1
            for check in self._checks:
                for message in check(runners, system, prefix):
                    self._report.violations.append(Violation(prefix, message))
            decided = frozenset(
                r.result for r in runners if r.status is ProcessStatus.DONE
            )
            self._memo[key] = decided
            return decided

        outcomes: set[Any] = set()
        for pid in runnable:
            outcomes |= self._explore(prefix + (StepAction(pid),))
        if crashes_used < self.crash_budget and len(runnable) > 1:
            for pid in runnable:
                outcomes |= self._explore(prefix + (CrashAction(pid),))
        result = frozenset(outcomes)
        self._memo[key] = result
        return result
