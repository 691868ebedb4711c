"""Tests for the executor."""

from __future__ import annotations

import pytest

from repro.errors import SchedulingError
from repro.objects.register import AtomicRegister
from repro.runtime.executor import System, run_system
from repro.runtime.scheduler import (
    CrashAction,
    FixedScheduler,
    RandomScheduler,
    RoundRobinScheduler,
    SoloScheduler,
)


def make_counter_system() -> System:
    """Two processes incrementing a shared register (racy by design)."""
    register = AtomicRegister(initial=0)

    def incrementer():
        value = yield register.read()
        yield register.write(value + 1)
        return value + 1

    return System(
        programs=[incrementer, incrementer],
        objects=[register],
    )


class TestRunSystem:
    def test_all_processes_complete(self):
        result = run_system(make_counter_system())
        assert set(result.decisions) == {0, 1}
        assert result.crashed == frozenset()
        assert result.steps == 4

    def test_round_robin_interleaving_loses_update(self):
        # Both read 0 before either writes: the classic lost update, proving
        # the executor interleaves at operation granularity.
        result = run_system(make_counter_system(), RoundRobinScheduler())
        register = None
        assert result.decisions == {0: 1, 1: 1}

    def test_solo_schedule_is_sequential(self):
        result = run_system(make_counter_system(), SoloScheduler([0, 1]))
        assert result.decisions == {0: 1, 1: 2}

    def test_fixed_schedule_replay(self):
        result = run_system(
            make_counter_system(), FixedScheduler([0, 0, 1, 1])
        )
        assert result.decisions == {0: 1, 1: 2}

    def test_crash_action(self):
        result = run_system(
            make_counter_system(), FixedScheduler([CrashAction(0), 1, 1])
        )
        assert result.crashed == frozenset({0})
        assert result.decisions == {1: 1}

    def test_a_random_schedule_replays(self):
        runs = [
            run_system(make_counter_system(), RandomScheduler(seed=seed))
            for seed in (3, 3, 4)
        ]
        assert runs[0].schedule == runs[1].schedule
        assert runs[0].decisions == runs[1].decisions
        # The performed actions, replayed as a script, reproduce each run.
        for run in runs:
            replay = run_system(
                make_counter_system(), FixedScheduler(list(run.schedule))
            )
            assert replay.schedule == run.schedule
            assert replay.decisions == run.decisions

    def test_history_recorded(self):
        result = run_system(make_counter_system())
        assert result.history.is_well_formed()
        assert len(result.history.completed_calls()) == 4

    def test_step_budget_enforced(self):
        register = AtomicRegister(initial=0)

        def spinner():
            while True:
                yield register.read()

        system = System(programs=[spinner], objects=[register])
        with pytest.raises(SchedulingError):
            run_system(system, max_steps=10)

    def test_custom_pids(self):
        register = AtomicRegister(initial=0)

        def write_pid(pid):
            def program():
                yield register.write(pid)
                return pid

            return program

        system = System(
            programs=[write_pid(7), write_pid(3)],
            objects=[register],
            pids=[7, 3],
        )
        result = run_system(system, SoloScheduler([7, 3]))
        assert result.decisions == {7: 7, 3: 3}

    def test_duplicate_pids_rejected(self):
        register = AtomicRegister()
        system = System(
            programs=[lambda: iter(()), lambda: iter(())],
            objects=[register],
            pids=[1, 1],
        )
        with pytest.raises(SchedulingError):
            run_system(system)
