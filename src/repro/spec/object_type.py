"""Sequential object types: the tuple ``T = (Q, q0, O, R, Δ)``.

The paper (§3.1) defines an object type as a set of states ``Q``, an initial
state ``q0``, operations ``O``, responses ``R``, and a transition relation
``Δ ⊆ Q × Π × O × Q × R``.  All objects analyzed in the paper are
*deterministic*: for every state ``q``, process ``p`` and operation ``o``
there is exactly one valid ``(q', r)``.  We therefore represent ``Δ`` as a
function :meth:`SequentialObjectType.apply`.

Every state handed out — by ``initial_state``, by ``apply``, by a batch's
``state()`` — is immutable and hashable.  This buys three things:

* the valency explorer can memoize configurations,
* the linearizability checker can memoize ``(linearized-set, state)`` pairs,
* sequential states can be compared structurally in differential tests.

A long fold may run on a mutable working copy instead
(:meth:`SequentialObjectType.batch`): the copy is private to its batch,
which mutates it in place and never lets it escape — ``state()`` hands out
an immutable snapshot of it.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from functools import cached_property
from typing import Any, Callable, Generic, Iterable, TypeVar

from repro.errors import UnknownOperationError
from repro.spec.operation import Operation

S = TypeVar("S")

#: Conventional boolean responses used throughout the paper's specifications.
TRUE = True
FALSE = False


class SequentialObjectType(ABC, Generic[S]):
    """A deterministic sequential object specification.

    Subclasses implement :meth:`initial_state` (``q0``) and :meth:`apply`
    (``Δ``).  ``apply`` must be a *pure function* on the states handed out:
    it never mutates an immutable input state and always returns a fresh
    (or shared immutable) state.  The one exception is a batch's private
    working copy (:meth:`batch`): ``apply`` runs on it unchanged, but the
    copy's own updates happen in place, so the "successor" it returns is
    the copy itself — which never escapes the batch's ``state()``.
    """

    #: Human-readable type name, e.g. ``"erc20"``.
    name: str = "object"

    @abstractmethod
    def initial_state(self) -> S:
        """Return the initial state ``q0``."""

    @abstractmethod
    def apply(self, state: S, pid: int, operation: Operation) -> tuple[S, Any]:
        """Apply ``operation`` invoked by process ``pid`` in ``state``.

        Returns:
            The pair ``(q', r)`` of successor state and response.

        Raises:
            SpecificationError: If the invocation lies outside ``O`` (unknown
                operation name or arguments outside the domain).
        """

    # ------------------------------------------------------------------
    # Derived facilities shared by every object type.
    # ------------------------------------------------------------------

    def operation_names(self) -> tuple[str, ...]:
        """The method names this object supports (for validation/analysis)."""
        return ()

    def validate_name(self, operation: Operation) -> None:
        """Raise :class:`UnknownOperationError` for foreign operations."""
        names = self.operation_names()
        if names and operation.name not in names:
            raise self._unknown_operation(operation)

    def _unknown_operation(self, operation: Operation) -> UnknownOperationError:
        return UnknownOperationError(
            f"{self.name} does not support operation {operation.name!r}; "
            f"supported: {', '.join(self.operation_names())}"
        )

    @cached_property
    def _dispatch(self) -> dict[str, Callable]:
        """``name → bound _apply_<name>`` for every supported operation,
        built from :meth:`operation_names` on the instance's first lookup."""
        return {
            name: getattr(self, f"_apply_{name}")
            for name in self.operation_names()
        }

    def _handler(self, operation: Operation) -> Callable:
        """The ``_apply_<name>`` method implementing ``operation`` — the one
        place a family that dispatches ``Δ`` by method name validates that
        name.  Raises :class:`UnknownOperationError` for a foreign one."""
        try:
            return self._dispatch[operation.name]
        except KeyError:
            raise self._unknown_operation(operation) from None

    def footprint(self, pid: int, operation: Operation):
        """Static may-access footprint of the invocation, or ``None``.

        Object types that support the commutativity-aware execution engine
        (:mod:`repro.engine`) return an ``OpFootprint``
        (:mod:`repro.objects.footprint`) describing every state location the
        invocation may observe or write, *independent of the current state*.
        The default ``None`` means "unknown" and makes the engine fall back
        to conservative conflict classification.
        """
        return None

    def spender_bound(self, state: S, account: int) -> frozenset[int] | None:
        """A superset of the processes enabled to spend from ``account`` at
        ``state`` (the paper's ``σ_q(a)``, Eq. 10), or ``None``.

        The tiered sync layer (:mod:`repro.sync`) sizes a contended race's
        team from it: a team holding every enabled spender is strong
        enough for the race (Theorems 2–4).  The default ``None`` means
        "no sound bound known" and sends the race to the global lane.
        """
        return None

    def is_read_only(self, state: S, pid: int, operation: Operation) -> bool:
        """True when the invocation does not modify the state.

        This is the semantic notion used in Theorem 3's proof ("read-only
        methods"), evaluated *at a particular state*: e.g. a ``transfer`` that
        fails for insufficient balance is equivalent to a read-only operation
        at that state (paper, proof of Theorem 3, Case 1).
        """
        successor, _ = self.apply(state, pid, operation)
        return successor == state

    def batch(self, state: S) -> "Batch[S]":
        """A fold of operations starting at ``state``: ``apply(pid,
        operation) -> response`` advances it, ``state()`` is where it
        stands.  The default folds through :meth:`apply`; a family whose
        functional updates copy more than they change overrides this with
        a batch over a private mutable working copy.  Either way every
        operation goes through the instance's ``apply`` attribute at the
        moment it runs."""
        return Batch(self, state)

    def run(
        self,
        invocations: Iterable[tuple[int, Operation]],
        state: S | None = None,
    ) -> tuple[S, list[Any]]:
        """Apply a sequence of ``(pid, operation)`` pairs; return final state
        and the list of responses.  Starts from ``q0`` unless ``state`` is
        given."""
        batch = self.batch(self.initial_state() if state is None else state)
        responses = [
            batch.apply(pid, operation) for pid, operation in invocations
        ]
        return batch.state(), responses


class Batch(Generic[S]):
    """The default :meth:`SequentialObjectType.batch`: each operation
    replaces the current state by ``apply``'s successor."""

    __slots__ = ("_type", "_state")

    def __init__(self, object_type: SequentialObjectType[S], state: S) -> None:
        self._type = object_type
        self._state = state

    def apply(self, pid: int, operation: Operation) -> Any:
        self._state, response = self._type.apply(self._state, pid, operation)
        return response

    def state(self) -> S:
        return self._state
