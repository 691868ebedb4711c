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

See README.md for the full tour; its Reproduction notes list where the
code departs from the paper.
"""

from repro._lazy import lazy_exports

__version__ = "1.0.0"

#: Where each re-export lives.  A package loads only what a name needs:
#: ``repro.TokenCluster`` imports the cluster and what it imports, and
#: ``import repro.engine`` by itself loads no engine module at all.  Every
#: package but ``repro.faults`` is one such table (:mod:`repro._lazy`).
_EXPORTS = {
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
    "repro.spec": ("History", "Operation", "check_linearizability", "op"),
}

__getattr__, __dir__, __all__ = lazy_exports(globals(), _EXPORTS)
