"""The paper's §7 proposal: dynamically-synchronized token networks."""

from repro._lazy import lazy_exports

_EXPORTS = {
    "repro.dynamic.dynamic_token": (
        "DynamicNetworkStats",
        "DynamicTokenNode",
        "OpRecord",
        "TokenOp",
        "assert_converged",
        "measure_dynamic",
    ),
    "repro.dynamic.sync_tracker": (
        "GroupSizeTracker",
        "ReplicaTokenState",
        "sync_group",
        "sync_levels",
    ),
}

__getattr__, __dir__, __all__ = lazy_exports(globals(), _EXPORTS)
