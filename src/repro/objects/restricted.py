"""Transition-restricted object types: ``T|_{Q'}`` (paper §4, "Further
notation").

``T|_{Q'} = (Q', q0, O, R, Δ')`` where ``Δ' = {(q,p,o,r,q') ∈ Δ : q' ∈ Q'}``.
Operationally: an invocation whose successor state would leave ``Q'`` has no
valid transition; we reject it by leaving the state unchanged and returning
``FALSE`` — exactly the behaviour Algorithm 2 implements for `approve`
invocations that would exceed ``k`` enabled spenders (its line 17/18
"Ensure we stay in Q_k").

Theorem 4 uses ``T|_{Q_k}``; build it with :func:`restrict_to_qk`.
"""

from __future__ import annotations

from typing import Any, Callable

from repro.errors import InvalidArgumentError
from repro.objects.base import SharedObject
from repro.runtime.calls import OpCall
from repro.spec.object_type import FALSE, SequentialObjectType
from repro.spec.operation import Operation


class RestrictedType(SequentialObjectType):
    """Wrap an object type, rejecting transitions that leave ``Q'``."""

    def __init__(
        self,
        inner: SequentialObjectType,
        allowed: Callable[[Any], bool],
        name: str | None = None,
    ) -> None:
        """Args:
            inner: The unrestricted type ``T``.
            allowed: The characteristic function of ``Q'``.
            name: Optional display name (defaults to ``"<inner>|Q'"``).
        """
        self.inner = inner
        self.allowed = allowed
        self.name = name if name is not None else f"{inner.name}|Q'"
        if not allowed(inner.initial_state()):
            raise InvalidArgumentError("initial state q0 must lie inside Q'")

    def initial_state(self) -> Any:
        return self.inner.initial_state()

    def operation_names(self) -> tuple[str, ...]:
        return self.inner.operation_names()

    def apply(
        self, state: Any, pid: int, operation: Operation
    ) -> tuple[Any, Any]:
        successor, response = self.inner.apply(state, pid, operation)
        if successor != state and not self.allowed(successor):
            return state, FALSE
        return successor, response


class RestrictedObject(SharedObject):
    """Runtime wrapper for a restricted type; forwards call builders by
    delegating operation construction to the caller (use :meth:`call`)."""

    def __init__(
        self,
        inner: SequentialObjectType,
        allowed: Callable[[Any], bool],
        initial_state: Any | None = None,
        name: str | None = None,
    ) -> None:
        super().__init__(
            RestrictedType(inner, allowed),
            initial_state=initial_state,
            name=name,
        )

    def op(self, op_name: str, *args: Any) -> OpCall:
        return self.call(Operation(op_name, tuple(args)))


def restrict_to_qk(token_type: SequentialObjectType, k: int) -> RestrictedType:
    """Build ``T|_{Q_≤k}``: the token restricted to states whose
    synchronization level is at most ``k``.

    Note: the paper restricts to the partition cell ``Q_k`` (exactly ``k``
    spenders somewhere), but its Algorithm 2 only ever *blocks increases past
    k* — transitions that lower the level (consuming allowances) are allowed
    and leave ``Q_k`` downward.  The downward-closed set ``Q_{≤k} = Q_1 ∪ …
    ∪ Q_k`` is the set actually preserved by Algorithm 2; we follow the
    algorithm.  See README.md, Reproduction note 3.
    """
    # Imported here to avoid a package cycle (analysis imports objects).
    from repro.analysis.partition import synchronization_level

    if k < 1:
        raise InvalidArgumentError("k must be at least 1")
    return RestrictedType(
        token_type,
        lambda state: synchronization_level(state) <= k,
        name=f"{token_type.name}|Q<={k}",
    )


def restrict_to_potential_qk(
    token_type: SequentialObjectType, k: int
) -> RestrictedType:
    """Build the token restricted to states whose *potential* spender count
    (allowance-based, ignoring balances — see
    :func:`repro.analysis.spenders.potential_spenders`) stays at most ``k``.

    This is the precise invariant Algorithm 2's approve guard enforces: the
    guard counts positive allowance registers without consulting balances.
    Since the potential count bounds the synchronization level from above,
    this restriction implies the paper's ``Q_{≤k}`` restriction; the
    differential tests for Theorem 4 compare the emulation against this exact
    specification.
    """
    from repro.analysis.spenders import potential_level

    if k < 1:
        raise InvalidArgumentError("k must be at least 1")
    return RestrictedType(
        token_type,
        lambda state: potential_level(state) <= k,
        name=f"{token_type.name}|Q^pot<={k}",
    )
