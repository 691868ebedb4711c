"""repro — a reproduction of *On the Synchronization Power of Token Smart
Contracts* (Alpos, Cachin, Marson, Zanolini; ICDCS 2021).

The library models token smart contracts (ERC20 and the §6 standards) as
sequential shared objects, provides a deterministic asynchronous
shared-memory runtime with exhaustive schedule exploration, implements the
paper's Algorithm 1 (consensus from tokens) and Algorithm 2 (tokens from
k-shared asset transfer), the state-classification machinery (enabled
spenders, the Q_k partition, synchronization states S_k), valency analysis,
and a message-passing layer realizing the paper's §7 proposal of
dynamically-synchronized token networks.

Quickstart::

    from repro import ERC20Token, classify

    token = ERC20Token(num_accounts=3, total_supply=10)   # Alice deploys
    token.invoke(0, token.transfer(1, 3).operation)       # Alice -> Bob: 3
    token.invoke(1, token.approve(2, 5).operation)        # Bob approves Charlie
    print(classify(token.state).level)                    # 2: Bob's account
                                                          # now has 2 spenders

See README.md and DESIGN.md for the full tour.
"""

from importlib import import_module

__version__ = "1.0.0"

#: Where each re-export lives.  Resolved on first access (PEP 562), so
#: importing one subpackage does not pay for the others: ``import
#: repro.engine`` loads no cluster, fault or protocol code.
_EXPORTS = {
    name: module
    for module, names in {
        "repro.analysis": (
            "CachedPairAnalyzer",
            "classify",
            "enabled_spenders",
            "is_synchronization_state",
            "make_synchronization_state",
            "synchronization_level",
            "token_consensus_number",
            "token_consensus_number_bounds",
            "unique_transfer",
            "unique_transfer_strict",
        ),
        "repro.objects": (
            "AssetTransfer",
            "AtomicRegister",
            "ConsensusObject",
            "ERC20Token",
            "ERC20TokenType",
            "ERC721Token",
            "ERC777Token",
            "ERC1155Token",
            "SharedObject",
            "TokenState",
            "register_array",
        ),
        "repro.protocols": (
            "EmulatedToken",
            "KATConsensus",
            "SafeEmulatedToken",
            "TokenConsensus",
            "algorithm1_system",
            "consensus_checks",
            "kat_consensus_system",
        ),
        "repro.config": ("ClusterConfig", "EngineConfig"),
        "repro.engine": ("Mempool", "OpClassifier", "PipelinedExecutor"),
        "repro.cluster": ("ClusterStats", "ShardMap", "TokenCluster"),
        "repro.runtime": (
            "RandomScheduler",
            "RoundRobinScheduler",
            "ScheduleExplorer",
            "System",
            "run_system",
        ),
        "repro.spec": (
            "History",
            "Operation",
            "check_linearizability",
            "op",
        ),
    }.items()
    for name in names
}


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(module), name)
    globals()[name] = value  # later lookups never come back here
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS})


__all__ = [
    "CachedPairAnalyzer",
    "classify",
    "ClusterConfig",
    "EngineConfig",
    "Mempool",
    "OpClassifier",
    "PipelinedExecutor",
    "ClusterStats",
    "ShardMap",
    "TokenCluster",
    "enabled_spenders",
    "is_synchronization_state",
    "make_synchronization_state",
    "synchronization_level",
    "token_consensus_number",
    "token_consensus_number_bounds",
    "unique_transfer",
    "unique_transfer_strict",
    "AssetTransfer",
    "AtomicRegister",
    "ConsensusObject",
    "ERC20Token",
    "ERC20TokenType",
    "ERC721Token",
    "ERC777Token",
    "ERC1155Token",
    "SharedObject",
    "TokenState",
    "register_array",
    "EmulatedToken",
    "KATConsensus",
    "SafeEmulatedToken",
    "TokenConsensus",
    "algorithm1_system",
    "consensus_checks",
    "kat_consensus_system",
    "RandomScheduler",
    "RoundRobinScheduler",
    "ScheduleExplorer",
    "System",
    "run_system",
    "History",
    "Operation",
    "check_linearizability",
    "op",
    "__version__",
]
