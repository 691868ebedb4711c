"""Asynchronous shared-memory runtime: processes, schedulers, executor,
exhaustive schedule exploration."""

from repro._lazy import lazy_exports

_EXPORTS = {
    "repro.runtime.calls": ("OpCall",),
    "repro.runtime.executor": (
        "ExecutionResult",
        "System",
        "SystemFactory",
        "run_system",
    ),
    "repro.runtime.explorer": (
        "ExplorationReport",
        "ScheduleExplorer",
        "TerminalCheck",
        "Violation",
    ),
    "repro.runtime.process": (
        "ProcessProgram",
        "ProcessRunner",
        "ProcessStatus",
    ),
    "repro.runtime.scheduler": (
        "Action",
        "CrashAction",
        "FixedScheduler",
        "RandomScheduler",
        "RoundRobinScheduler",
        "Scheduler",
        "SoloScheduler",
        "StepAction",
    ),
}

__getattr__, __dir__, __all__ = lazy_exports(globals(), _EXPORTS)
