"""The consensus-based baseline ledger (total-order smart-contract
execution)."""

from repro._lazy import lazy_exports

_EXPORTS = {
    "repro.ledger.blockchain": (
        "AppliedRecord",
        "LedgerNode",
        "LedgerStats",
        "LedgerTransaction",
        "build_ledger",
        "measure_ledger",
    ),
}

__getattr__, __dir__, __all__ = lazy_exports(globals(), _EXPORTS)
