"""Linearizability checking (Wing & Gong with memoization).

Used to validate that Algorithm 2's emulation of the restricted token object
``T|_{Q_k}`` is (or, for the paper's literal algorithm under an adversarial
schedule, is *not*) linearizable with respect to the sequential ERC20
specification of Definition 3.

The checker performs a DFS over candidate linearization orders: at each step
it tries every *minimal* completed call (one not preceded in real time by
another unlinearized call) whose recorded response matches the sequential
specification's response from the current state.  Visited ``(linearized-set,
state)`` pairs are memoized, which makes the search practical for the history
sizes produced by our differential tests (Lowe's optimization of Wing &
Gong).
"""

from __future__ import annotations

from typing import Any

from repro._records import record
from repro.spec.history import CompletedCall, History
from repro.spec.object_type import SequentialObjectType


@record
class LinearizabilityResult:
    """Outcome of a linearizability check."""

    is_linearizable: bool
    #: A witness linearization (list of calls in linearized order) when found.
    witness: list[CompletedCall] | None = None
    #: Number of DFS states explored (for diagnostics and benchmarks).
    explored: int = 0


def _minimal_calls(
    remaining: tuple[int, ...], calls: list[CompletedCall]
) -> list[int]:
    """Indices in ``remaining`` that are minimal w.r.t. real-time precedence."""
    minimal: list[int] = []
    for index in remaining:
        candidate = calls[index]
        dominated = False
        for other_index in remaining:
            if other_index == index:
                continue
            if calls[other_index].precedes(candidate):
                dominated = True
                break
        if not dominated:
            minimal.append(index)
    return minimal


def check_linearizability(
    history: History,
    object_type: SequentialObjectType,
    initial_state: Any | None = None,
    max_states: int = 2_000_000,
) -> LinearizabilityResult:
    """Check one object's history against its sequential specification.

    Pending invocations (from crashed processes) are handled by the standard
    completion rule: each pending call may either be dropped or completed with
    whatever response the specification yields at its linearization point.

    Args:
        history: Events for a *single* object (use :meth:`History.project`).
        object_type: Sequential specification to check against.
        initial_state: Starting state; defaults to ``object_type.initial_state()``.
        max_states: DFS budget; exceeded budgets report non-linearizable with
            ``explored == max_states`` (callers should treat this as unknown).
    """
    calls = history.completed_calls()
    pending = history.pending_invocations()
    start_state = (
        object_type.initial_state() if initial_state is None else initial_state
    )

    total = len(calls)
    explored = 0
    # Memo key: (frozenset of linearized completed-call indices,
    #            frozenset of linearized pending-call indices, state).
    seen: set[tuple[frozenset[int], frozenset[int], Any]] = set()

    def dfs(
        remaining: tuple[int, ...],
        pending_remaining: tuple[int, ...],
        state: Any,
        order: list[CompletedCall],
    ) -> list[CompletedCall] | None:
        nonlocal explored
        if explored >= max_states:
            return None
        explored += 1
        if not remaining:
            # Pending calls may always be dropped (their process crashed
            # before the call took effect).
            return list(order)
        key = (frozenset(remaining), frozenset(pending_remaining), state)
        if key in seen:
            return None
        seen.add(key)

        for index in _minimal_calls(remaining, calls):
            call = calls[index]
            successor, response = object_type.apply(
                state, call.pid, call.operation
            )
            if response == call.result:
                order.append(call)
                result = dfs(
                    tuple(i for i in remaining if i != index),
                    pending_remaining,
                    successor,
                    order,
                )
                if result is not None:
                    return result
                order.pop()
        # A pending invocation may be linearized at any point with any
        # response the specification produces.
        for p_index in pending_remaining:
            invocation = pending[p_index]
            successor, _ = object_type.apply(
                state, invocation.pid, invocation.operation
            )
            result = dfs(
                remaining,
                tuple(i for i in pending_remaining if i != p_index),
                successor,
                order,
            )
            if result is not None:
                return result
        return None

    witness = dfs(
        tuple(range(total)), tuple(range(len(pending))), start_state, []
    )
    return LinearizabilityResult(
        is_linearizable=witness is not None,
        witness=witness,
        explored=explored,
    )
