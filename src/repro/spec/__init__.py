"""Sequential-object formalism: operations, object types, histories,
linearizability (paper §3.1)."""

from repro._lazy import lazy_exports

_EXPORTS = {
    "repro.spec.history": ("CompletedCall", "History", "sequential_history"),
    "repro.spec.linearizability": (
        "LinearizabilityResult",
        "check_linearizability",
    ),
    "repro.spec.object_type": ("SequentialObjectType", "TRUE", "FALSE"),
    "repro.spec.operation": ("Invocation", "Operation", "Response", "op"),
}

__getattr__, __dir__, __all__ = lazy_exports(globals(), _EXPORTS)
