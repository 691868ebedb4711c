"""Valency analysis: bivalent configurations and critical states.

Theorem 3's proof uses Herlihy's valency technique: a protocol configuration
is *bivalent* when executions deciding different values are both reachable
from it, *univalent* otherwise, and *critical* when it is bivalent but every
single step leads to a univalent configuration.  "Every wait-free consensus
protocol has a critical state" — the proof then inspects the pending
operations at a critical state, which for correct token-based protocols must
be a race on the token object itself (the commuting/read-only cases having
been ruled out; see :mod:`repro.analysis.commutativity`).

Built on the exhaustive explorer, this module computes valences for real
protocol code and searches for critical configurations, letting experiments
*watch* the proof's structure on Algorithm 1: the initial configuration is
bivalent, the critical configuration is reached just before the winning
transfer, and the pending operations there are transfer/transferFrom on the
synchronization account.
"""

from __future__ import annotations

from typing import Any, Sequence

from repro._records import record
from repro.runtime.executor import SystemFactory
from repro.runtime.explorer import ScheduleExplorer
from repro.runtime.scheduler import Action


@record(frozen=True, slots=True)
class Valence:
    """The valence of a configuration: its set of reachable decisions."""

    outcomes: frozenset[Any]

    @property
    def is_bivalent(self) -> bool:
        return len(self.outcomes) >= 2

    def __str__(self) -> str:
        values = ", ".join(map(repr, sorted(self.outcomes, key=repr)))
        kind = "bivalent" if self.is_bivalent else "univalent"
        return f"{kind}({values})"


@record
class CriticalConfiguration:
    """A bivalent configuration all of whose successors are univalent."""

    #: Schedule prefix reaching the configuration.
    prefix: tuple[Action, ...]
    #: The configuration's valence.
    valence: Valence
    #: Pending operation per runnable process, rendered for inspection.
    pending: dict[int, str]
    #: Valence of each one-step successor, keyed by the stepping pid.
    successor_valences: dict[int, Valence]


class ValencyAnalyzer:
    """Valence computation and critical-state search for a protocol factory."""

    def __init__(self, factory: SystemFactory, max_steps: int = 500) -> None:
        self._explorer = ScheduleExplorer(factory, max_steps=max_steps)

    def valence(self, prefix: Sequence[Action] = ()) -> Valence:
        """Valence of the configuration reached by ``prefix``."""
        return Valence(self._explorer.outcomes_from(tuple(prefix)))

    def initial_is_bivalent(self) -> bool:
        """Whether the protocol's initial configuration is bivalent (it must
        be, for any consensus protocol run with at least two distinct
        proposals — the first step of every valency argument)."""
        return self.valence(()).is_bivalent

    def find_critical_configurations(
        self, max_results: int = 10
    ) -> list[CriticalConfiguration]:
        """BFS for critical configurations.

        Every wait-free consensus protocol with a bivalent initial
        configuration has at least one (Herlihy); this search returns up to
        ``max_results`` of them in BFS order (shortest prefixes first).
        """
        results: list[CriticalConfiguration] = []
        frontier: list[tuple[Action, ...]] = [()]
        seen: set[tuple[Action, ...]] = set()
        while frontier and len(results) < max_results:
            prefix = frontier.pop(0)
            if prefix in seen:
                continue
            seen.add(prefix)
            valence = self.valence(prefix)
            if not valence.is_bivalent:
                continue  # univalent configurations cannot be critical
            children = self._explorer.children(prefix)
            child_valences: dict[int, Valence] = {}
            all_univalent = bool(children)
            for child in children:
                pid = child[-1].pid
                child_valence = self.valence(child)
                child_valences[pid] = child_valence
                if child_valence.is_bivalent:
                    all_univalent = False
            if all_univalent:
                results.append(
                    CriticalConfiguration(
                        prefix=prefix,
                        valence=valence,
                        pending=self._explorer.pending_operations(prefix),
                        successor_valences=child_valences,
                    )
                )
            else:
                # Continue the search below bivalent children only.
                for child in children:
                    if child_valences[child[-1].pid].is_bivalent:
                        frontier.append(child)
        return results

    @property
    def explorer(self) -> ScheduleExplorer:
        return self._explorer
