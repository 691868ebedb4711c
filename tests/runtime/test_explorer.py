"""Tests for the exhaustive schedule explorer."""

from __future__ import annotations

import pytest

from repro.errors import ExplorationLimitError
from repro.objects.register import AtomicRegister
from repro.runtime.executor import System
from repro.runtime.explorer import ScheduleExplorer
from repro.runtime.process import ProcessStatus
from repro.runtime.scheduler import StepAction
from tests.runtime.test_executor import make_counter_system


class TestExploration:
    def test_finds_all_outcomes(self):
        explorer = ScheduleExplorer(make_counter_system)
        report = explorer.explore()
        # Outcomes: sequential orders give {1, 2}; racy orders give {1, 1}.
        assert report.outcomes == {1, 2}

    def test_execution_and_config_counts(self):
        explorer = ScheduleExplorer(make_counter_system)
        report = explorer.explore()
        assert report.executions >= 2
        assert report.configs > report.executions

    def test_terminal_check_sees_every_distinct_completion(self):
        seen = []

        def check(runners, system, schedule):
            seen.append(
                tuple(
                    r.result
                    for r in runners
                    if r.status is ProcessStatus.DONE
                )
            )
            return []

        ScheduleExplorer(make_counter_system).explore(checks=[check])
        assert (1, 1) in seen  # the lost-update completion
        assert (1, 2) in seen or (2, 1) in seen

    def test_violations_reported_with_schedule(self):
        def check(runners, system, schedule):
            results = [r.result for r in runners]
            if results == [1, 1]:
                return ["lost update"]
            return []

        report = ScheduleExplorer(make_counter_system).explore(checks=[check])
        assert not report.ok
        violation = report.violations[0]
        assert "lost update" in str(violation)
        assert len(violation.schedule) == 4

    def test_crash_budget_explores_crash_branches(self):
        base = ScheduleExplorer(make_counter_system).explore()
        crashy = ScheduleExplorer(make_counter_system, crash_budget=1).explore()
        assert crashy.executions > base.executions

    def test_memoization_shrinks_tree(self):
        # Without memoization the interleaving tree has C(4,2)=6 leaves; the
        # explorer visits fewer distinct configurations than raw schedules.
        explorer = ScheduleExplorer(make_counter_system)
        report = explorer.explore()
        # Raw interleavings: 6 schedules x 5 prefixes each; memoized distinct
        # configurations come in far lower.
        assert report.configs <= 15

    def test_max_configs_enforced(self):
        explorer = ScheduleExplorer(make_counter_system, max_configs=2)
        with pytest.raises(ExplorationLimitError):
            explorer.explore()

    def test_max_steps_detects_divergence(self):
        def diverging_factory() -> System:
            register = AtomicRegister(initial=0)

            def spinner():
                while True:
                    yield register.read()

            return System(programs=[spinner], objects=[register])

        explorer = ScheduleExplorer(diverging_factory, max_steps=20)
        with pytest.raises(ExplorationLimitError):
            explorer.explore()


class TestPrefixQueries:
    def test_outcomes_from_prefix(self):
        explorer = ScheduleExplorer(make_counter_system)
        explorer.explore()
        # After p0 reads and p1 reads (both see 0), both must write 1.
        outcomes = explorer.outcomes_from((StepAction(0), StepAction(1)))
        assert outcomes == {1}

    def test_children(self):
        explorer = ScheduleExplorer(make_counter_system)
        children = explorer.children(())
        assert len(children) == 2
        assert children[0][-1] == StepAction(0)

    def test_pending_operations_rendered(self):
        explorer = ScheduleExplorer(make_counter_system)
        pending = explorer.pending_operations(())
        assert set(pending) == {0, 1}
        assert "read" in pending[0]
