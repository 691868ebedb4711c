"""Tests for valency analysis and critical-state search."""

from __future__ import annotations

import pytest

from repro.analysis.valency import ValencyAnalyzer
from repro.protocols.kat_consensus import kat_consensus_system
from repro.protocols.register_consensus import doomed_register_system
from repro.protocols.token_consensus import algorithm1_system
from repro.runtime.scheduler import StepAction


class TestAlgorithm1Valency:
    @pytest.fixture
    def analyzer(self) -> ValencyAnalyzer:
        return ValencyAnalyzer(lambda: algorithm1_system({0: 0, 1: 1}))

    def test_initial_configuration_bivalent(self, analyzer):
        valence = analyzer.valence(())
        assert valence.is_bivalent
        assert valence.outcomes == {0, 1}

    def test_solo_run_is_univalent(self, analyzer):
        # After p0 completes its register write and its winning transfer,
        # only p0's value remains reachable.
        prefix = (StepAction(0), StepAction(0))
        valence = analyzer.valence(prefix)
        assert valence.outcomes == {0}

    def test_critical_configuration_is_the_token_race(self, analyzer):
        criticals = analyzer.find_critical_configurations(max_results=5)
        assert criticals, "Herlihy: a critical configuration must exist"
        for critical in criticals:
            assert critical.valence.is_bivalent
            # The pending operations at criticality are the token-object race
            # (transfer by the owner vs transferFrom by the spender) — the
            # very situation Theorem 3's Cases 2/3 analyze.
            pending_ops = " | ".join(critical.pending.values())
            assert "transfer" in pending_ops
            assert all(
                len(v.outcomes) == 1
                for v in critical.successor_valences.values()
            )

    def test_successors_decide_the_stepping_process(self, analyzer):
        criticals = analyzer.find_critical_configurations(max_results=1)
        critical = criticals[0]
        for pid, valence in critical.successor_valences.items():
            assert valence.outcomes == {pid}, (
                "after winning the race, the protocol decides the winner's "
                "proposal"
            )


class TestKATValency:
    def test_kat_race_is_the_critical_step(self):
        analyzer = ValencyAnalyzer(lambda: kat_consensus_system({0: 0, 1: 1}))
        assert analyzer.valence(()).is_bivalent
        criticals = analyzer.find_critical_configurations(max_results=2)
        assert criticals
        for critical in criticals:
            pending_ops = " | ".join(critical.pending.values())
            assert "transfer" in pending_ops


class TestDoomedRegisterProtocol:
    def test_register_protocol_cannot_have_clean_critical_state(self):
        # The doomed protocol reaches configurations that *look* critical but
        # decide inconsistently — register steps commute, so the adversary
        # wins.  Concretely: the explorer finds agreement violations.
        from repro.protocols.base import consensus_checks
        from repro.runtime.explorer import ScheduleExplorer

        factory = lambda: doomed_register_system({0: 2, 1: 1})
        explorer = ScheduleExplorer(factory)
        report = explorer.explore(checks=[consensus_checks({0: 2, 1: 1})])
        assert not report.ok
        assert any("agreement" in str(v) for v in report.violations)

    def test_bivalent_initial(self):
        analyzer = ValencyAnalyzer(lambda: doomed_register_system({0: 2, 1: 1}))
        assert analyzer.valence(()).is_bivalent
