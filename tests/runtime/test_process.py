"""Tests for process runners."""

from __future__ import annotations

import pytest

from repro.errors import ProcessCrashedError, SchedulingError
from repro.objects.register import AtomicRegister
from repro.runtime.process import ProcessRunner, ProcessStatus
from repro.spec.history import History


def writer_program(register: AtomicRegister, values: list):
    def program():
        for value in values:
            yield register.write(value)
        return "done"

    return program


class TestRunnerLifecycle:
    def test_repr_shows_status_and_progress(self):
        register = AtomicRegister()
        runner = ProcessRunner(4, writer_program(register, [1]))
        runner.step()
        assert repr(runner) == (
            f"<ProcessRunner p4 {runner.status.value} steps=1 pending=None>"
        )

    def test_primed_to_first_yield(self):
        register = AtomicRegister()
        runner = ProcessRunner(0, writer_program(register, [1, 2]))
        assert runner.status is ProcessStatus.READY
        assert runner.pending is not None
        # Priming must not execute the operation.
        assert register.invoke(0, register.read().operation) is None

    def test_step_executes_one_op(self):
        register = AtomicRegister()
        runner = ProcessRunner(0, writer_program(register, [1, 2]))
        runner.step()
        assert register.invoke(0, register.read().operation) == 1
        assert runner.status is ProcessStatus.READY

    def test_completion_captures_result(self):
        register = AtomicRegister()
        runner = ProcessRunner(0, writer_program(register, [1]))
        runner.step()
        assert runner.status is ProcessStatus.DONE
        assert runner.result == "done"
        assert runner.pending is None

    def test_empty_program_completes_immediately(self):
        def program():
            return 42
            yield  # pragma: no cover - makes this a generator function

        runner = ProcessRunner(0, program)
        assert runner.status is ProcessStatus.DONE
        assert runner.result == 42

    def test_step_after_done_raises(self):
        register = AtomicRegister()
        runner = ProcessRunner(0, writer_program(register, []))
        with pytest.raises(SchedulingError):
            runner.step()

    def test_responses_recorded(self):
        register = AtomicRegister(initial=7)

        def program():
            value = yield register.read()
            yield register.write(value + 1)
            return value

        runner = ProcessRunner(0, program)
        runner.step()
        runner.step()
        assert runner.responses == (7, True)
        assert runner.result == 7


class TestCrash:
    def test_crashed_process_stops(self):
        register = AtomicRegister()
        runner = ProcessRunner(0, writer_program(register, [1, 2]))
        runner.crash()
        assert runner.status is ProcessStatus.CRASHED
        assert not runner.is_runnable
        with pytest.raises(ProcessCrashedError):
            runner.step()

    def test_crash_after_done_is_noop(self):
        register = AtomicRegister()
        runner = ProcessRunner(0, writer_program(register, []))
        runner.crash()
        assert runner.status is ProcessStatus.DONE

    def test_pending_op_not_executed_on_crash(self):
        register = AtomicRegister()
        runner = ProcessRunner(0, writer_program(register, [9]))
        runner.crash()
        assert register.invoke(0, register.read().operation) is None


class TestHistoryRecording:
    def test_invocation_response_pairs(self):
        register = AtomicRegister()
        history = History()
        runner = ProcessRunner(3, writer_program(register, [5]))
        runner.step(history)
        assert len(history.events) == 2
        assert history.is_well_formed()
        calls = history.completed_calls()
        assert calls[0].pid == 3
        assert calls[0].operation.name == "write"


class TestMemoKeys:
    def test_ready_key_tracks_responses(self):
        register = AtomicRegister(initial=1)

        def program():
            value = yield register.read()
            yield register.write(value)
            return value

        runner_a = ProcessRunner(0, program)
        runner_b = ProcessRunner(0, program)
        assert runner_a.memo_key() == runner_b.memo_key()
        runner_a.step()
        assert runner_a.memo_key() != runner_b.memo_key()

    def test_done_key_includes_result(self):
        register = AtomicRegister()
        runner = ProcessRunner(0, writer_program(register, []))
        assert runner.memo_key() == ("done", "done")

    def test_bad_yield_detected(self):
        def program():
            yield "not an opcall"

        with pytest.raises(SchedulingError):
            ProcessRunner(0, program)
