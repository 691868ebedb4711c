"""State classification, commutativity, valency, and hierarchy analysis
(paper §5)."""

from repro._lazy import lazy_exports

_EXPORTS = {
    "repro.analysis.commutativity": (
        "CachedPairAnalyzer",
        "Invocation",
        "PairAnalysis",
        "PairKind",
        "analyze_pair",
        "erc20_case_label",
    ),
    "repro.analysis.hierarchy": (
        "KNOWN_HIERARCHY",
        "ConsensusNumberEntry",
        "token_consensus_number",
        "token_consensus_number_bounds",
    ),
    "repro.analysis.partition": (
        "StateClassification",
        "classify",
        "is_synchronization_state",
        "make_synchronization_state",
        "synchronization_accounts",
        "synchronization_level",
        "unique_transfer",
        "unique_transfer_strict",
    ),
    "repro.analysis.reachability": (
        "RaisingApproval",
        "escalation_plan",
        "level_trajectory",
        "raising_approvals",
        "verify_level_change_ops",
    ),
    "repro.analysis.spenders": (
        "accounts_with_spender_count",
        "enabled_spenders",
        "max_spenders",
        "spender_map",
    ),
    "repro.analysis.valency": (
        "CriticalConfiguration",
        "Valence",
        "ValencyAnalyzer",
    ),
}

__getattr__, __dir__, __all__ = lazy_exports(globals(), _EXPORTS)
