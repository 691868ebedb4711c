"""Protocol interfaces and the consensus correctness properties.

The paper's consensus object (§3.1) requires, for every execution:

* **termination** (wait-freedom): every correct process's ``propose`` returns;
* **validity**: the decided value is the proposal of some process;
* **consistency/agreement**: every process returns the same decided value.

:func:`consensus_checks` packages these as a terminal-execution check for the
exhaustive explorer and the randomized executor sweeps; termination itself is
enforced structurally (an execution only terminates when every non-crashed
process has returned, and step budgets catch non-terminating protocols).
"""

from __future__ import annotations

from typing import Any, Mapping, Protocol

from repro.runtime.executor import System
from repro.runtime.explorer import TerminalCheck
from repro.runtime.process import ProcessRunner, ProcessStatus
from repro.runtime.scheduler import Action


class ConsensusProtocol(Protocol):
    """Structural interface every consensus construction in this library
    implements: ``propose`` is a generator program for one process."""

    def propose(self, pid: int, value: Any):  # pragma: no cover - interface
        """Return a generator yielding one OpCall per atomic step and
        ``return``-ing the decided value."""
        ...


def consensus_checks(proposals: Mapping[int, Any]) -> TerminalCheck:
    """Build a terminal check validating agreement + validity.

    Args:
        proposals: Proposal per participating pid; validity requires every
            decision to be one of these values.
    """
    valid_values = set(proposals.values())

    def check(
        runners: list[ProcessRunner],
        system: System,
        schedule: tuple[Action, ...],
    ) -> list[str]:
        problems: list[str] = []
        decided = {
            r.pid: r.result for r in runners if r.status is ProcessStatus.DONE
        }
        values = set(decided.values())
        if len(values) > 1:
            problems.append(f"agreement violated: decisions {decided}")
        for pid, value in decided.items():
            if value not in valid_values:
                problems.append(
                    f"validity violated: p{pid} decided {value!r}, "
                    f"not a proposal in {sorted(map(repr, valid_values))}"
                )
        return problems

    return check
