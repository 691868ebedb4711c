"""The paper's algorithms: consensus constructions and the Theorem 4
emulation."""

from repro._lazy import lazy_exports

_EXPORTS = {
    "repro.protocols.base": (
        "ConsensusProtocol",
        "consensus_checks",
    ),
    "repro.protocols.erc721_consensus": (
        "ERC721Consensus",
        "erc721_consensus_system",
    ),
    "repro.protocols.erc1155_consensus": (
        "ERC1155Consensus",
        "erc1155_consensus_system",
    ),
    "repro.protocols.escrow_token": ("EscrowToken",),
    "repro.protocols.erc777_consensus": (
        "ERC777Consensus",
        "erc777_consensus_system",
    ),
    "repro.protocols.kat_consensus": ("KATConsensus", "kat_consensus_system"),
    "repro.protocols.register_consensus": (
        "DoomedRegisterConsensus",
        "doomed_register_system",
    ),
    "repro.protocols.token_consensus": ("TokenConsensus", "algorithm1_system"),
    "repro.protocols.token_from_kat": (
        "EmulatedToken",
        "SafeEmulatedToken",
        "run_sequential",
        "workload_program",
    ),
}

__getattr__, __dir__, __all__ = lazy_exports(globals(), _EXPORTS)
