"""The executor: drive a set of processes under a scheduler.

:func:`run_system` advances processes one atomic step at a time until every
process is done or crashed, recording a base-object history.  It is the
workhorse behind protocol tests, randomized schedule sweeps, and the
differential harnesses.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable

from repro._records import field, record
from repro.errors import SchedulingError
from repro.runtime.process import ProcessProgram, ProcessRunner, ProcessStatus

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.objects.base import SharedObject
from repro.runtime.scheduler import (
    Action,
    CrashAction,
    RoundRobinScheduler,
    Scheduler,
)
from repro.spec.history import History


@record
class System:
    """A fresh set of process programs plus the shared objects they use.

    Factories build a ``System`` per execution so that replays start from
    pristine object states.  ``objects`` must list every shared object the
    programs touch — the explorer derives configuration keys from it.
    """

    programs: list[ProcessProgram]
    objects: list["SharedObject"]
    #: Optional metadata (e.g. proposals per process) for property checks.
    meta: dict[str, Any] = field(default_factory=dict)
    #: Process id of each program; defaults to ``0..len(programs)-1``.  The
    #: id is what the runtime passes to shared objects as the invoking
    #: process, so it must match the identity the program assumes (e.g. the
    #: spender whose allowance it transfers).
    pids: list[int] | None = None

    def runners(self) -> list[ProcessRunner]:
        """Instantiate one runner per program with its proper process id."""
        pids = (
            self.pids
            if self.pids is not None
            else list(range(len(self.programs)))
        )
        if len(pids) != len(self.programs):
            raise SchedulingError("pids must match programs one-to-one")
        if len(set(pids)) != len(pids):
            raise SchedulingError("pids must be distinct")
        return [
            ProcessRunner(pid, program)
            for pid, program in zip(pids, self.programs)
        ]


SystemFactory = Callable[[], System]


@record
class ExecutionResult:
    """Outcome of one complete (or budget-capped) execution."""

    #: Final per-process results for processes that completed.
    decisions: dict[int, Any]
    #: Pids crashed by the scheduler.
    crashed: frozenset[int]
    #: The action sequence actually performed.
    schedule: tuple[Action, ...]
    #: Base-object history of the run.
    history: History
    #: Runners in their final states (for state inspection).
    runners: list[ProcessRunner]
    #: Total atomic steps executed.
    steps: int


def run_system(
    system: System,
    scheduler: Scheduler | None = None,
    max_steps: int = 100_000,
    history: History | None = None,
) -> ExecutionResult:
    """Run every process to completion (or crash) under ``scheduler``.

    Raises:
        SchedulingError: If ``max_steps`` is exceeded — for wait-free
            protocols this indicates a bug, never a legal outcome.
    """
    if scheduler is None:
        scheduler = RoundRobinScheduler()
    if history is None:
        history = History()
    runners = system.runners()
    by_pid = {runner.pid: runner for runner in runners}
    performed: list[Action] = []
    steps = 0
    while True:
        runnable = [r.pid for r in runners if r.is_runnable]
        if not runnable:
            break
        if steps >= max_steps:
            raise SchedulingError(
                f"execution exceeded {max_steps} steps; runnable={runnable}"
            )
        action = scheduler.next_action(runnable, steps)
        performed.append(action)
        if isinstance(action, CrashAction):
            by_pid[action.pid].crash()
        else:
            by_pid[action.pid].step(history)
            steps += 1
    return ExecutionResult(
        decisions={
            r.pid: r.result for r in runners if r.status is ProcessStatus.DONE
        },
        crashed=frozenset(
            r.pid for r in runners if r.status is ProcessStatus.CRASHED
        ),
        schedule=tuple(performed),
        history=history,
        runners=runners,
        steps=steps,
    )
