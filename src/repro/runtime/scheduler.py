"""Schedulers: interleaving policies for the shared-memory runtime.

A schedule is a sequence of *actions*: ``StepAction(pid)`` executes one
atomic operation of process ``pid``; ``CrashAction(pid)`` crashes it.  The
asynchronous adversary of the model corresponds to an arbitrary scheduler;
the library provides:

* :class:`RoundRobinScheduler` — fair deterministic baseline;
* :class:`RandomScheduler` — seeded uniform choice, with optional crash
  probability (bounded by a crash budget);
* :class:`FixedScheduler` — replays an explicit action sequence (used by the
  exhaustive explorer and by regression tests that pin adversarial
  interleavings);
* :class:`SoloScheduler` — runs processes to completion one at a time in a
  given order (the "p runs alone" executions of Theorem 3's proof).
"""

from __future__ import annotations

import random
from abc import ABC, abstractmethod
from typing import Sequence

from repro._records import record
from repro.errors import SchedulingError


@record(frozen=True, slots=True)
class StepAction:
    """Execute one atomic operation of process ``pid``."""

    pid: int


@record(frozen=True, slots=True)
class CrashAction:
    """Crash process ``pid`` (it takes no further steps)."""

    pid: int


Action = StepAction | CrashAction


class Scheduler(ABC):
    """Chooses the next action given the set of runnable process ids."""

    @abstractmethod
    def next_action(self, runnable: Sequence[int], step_index: int) -> Action:
        """Pick an action; ``runnable`` is never empty."""


class RoundRobinScheduler(Scheduler):
    """Cycle through runnable processes in pid order."""

    def __init__(self) -> None:
        self._last = -1

    def next_action(self, runnable: Sequence[int], step_index: int) -> Action:
        candidates = sorted(runnable)
        for pid in candidates:
            if pid > self._last:
                self._last = pid
                return StepAction(pid)
        self._last = candidates[0]
        return StepAction(candidates[0])


class RandomScheduler(Scheduler):
    """Uniform random choice with an optional crash adversary.

    Args:
        seed: RNG seed; identical seeds reproduce identical schedules.
        crash_probability: Per-decision probability of crashing a runnable
            process instead of stepping one.
        crash_budget: Maximum number of crashes (``f``); in an ``n``-process
            wait-free setting any ``f < n`` is admissible.
    """

    def __init__(
        self,
        seed: int = 0,
        crash_probability: float = 0.0,
        crash_budget: int = 0,
    ) -> None:
        if not 0.0 <= crash_probability <= 1.0:
            raise SchedulingError("crash probability must lie in [0, 1]")
        self._rng = random.Random(seed)
        self.crash_probability = crash_probability
        self.crash_budget = crash_budget
        self._crashes = 0

    def next_action(self, runnable: Sequence[int], step_index: int) -> Action:
        candidates = sorted(runnable)
        can_crash = (
            self._crashes < self.crash_budget
            and len(candidates) > 1  # never crash the last correct process
            and self.crash_probability > 0.0
        )
        if can_crash and self._rng.random() < self.crash_probability:
            self._crashes += 1
            return CrashAction(self._rng.choice(candidates))
        return StepAction(self._rng.choice(candidates))


class FixedScheduler(Scheduler):
    """Replay an explicit action sequence; raises when it runs dry or names a
    non-runnable process."""

    def __init__(self, actions: Sequence[Action | int]) -> None:
        # Bare ints are convenient shorthand for StepAction.
        self._actions = [
            StepAction(a) if isinstance(a, int) else a for a in actions
        ]
        self._index = 0

    def next_action(self, runnable: Sequence[int], step_index: int) -> Action:
        if self._index >= len(self._actions):
            raise SchedulingError("fixed schedule exhausted before completion")
        action = self._actions[self._index]
        self._index += 1
        if action.pid not in runnable:
            raise SchedulingError(
                f"fixed schedule names process {action.pid}, which is not runnable"
            )
        return action

    @property
    def exhausted(self) -> bool:
        return self._index >= len(self._actions)


class SoloScheduler(Scheduler):
    """Run each process to completion in the given order."""

    def __init__(self, order: Sequence[int]) -> None:
        self._order = list(order)

    def next_action(self, runnable: Sequence[int], step_index: int) -> Action:
        for pid in self._order:
            if pid in runnable:
                return StepAction(pid)
        return StepAction(sorted(runnable)[0])
