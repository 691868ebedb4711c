"""Workload generators, canonical traces, and open-loop arrivals."""

from repro._lazy import lazy_exports

_EXPORTS = {
    "repro.workloads.arrivals": (
        "Arrival",
        "StreamDriver",
        "StreamReport",
        "poisson_arrivals",
    ),
    "repro.workloads.churn": ("crash_cadence", "flash_crowd"),
    "repro.workloads.generators": (
        "APPROVAL_HEAVY_MIX",
        "CHAIN_HEAVY_MIX",
        "EXAMPLE1_BALANCES",
        "EXAMPLE1_RESPONSES",
        "OWNER_ONLY_MIX",
        "SPENDER_HEAVY_MIX",
        "AssetTransferWorkloadGenerator",
        "ContractStream",
        "MultiContractItem",
        "MultiContractWorkloadGenerator",
        "NFTWorkloadGenerator",
        "TokenWorkloadGenerator",
        "WorkloadItem",
        "WorkloadMix",
        "example1_trace",
        "serial_reference",
        "standard_multi_contract",
    ),
    "repro.workloads.skew": ("skewed_index", "validate_skew", "zipf_weights"),
}

__getattr__, __dir__, __all__ = lazy_exports(globals(), _EXPORTS)
