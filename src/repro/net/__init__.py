"""Message-passing substrate: simulator, network, reliable broadcast, total
order (paper §1/§7 context)."""

from repro._lazy import lazy_exports

_EXPORTS = {
    "repro.net.network": (
        "ConstantLatency",
        "LatencyModel",
        "Message",
        "Network",
        "NetworkStats",
        "UniformLatency",
    ),
    "repro.net.node": ("Node",),
    "repro.net.reliable_broadcast": (
        "BrachaBroadcast",
        "FifoReliableBroadcast",
        "ReliableBroadcastNode",
    ),
    "repro.net.simulation": ("EventHandle", "Simulator"),
    "repro.net.team_lanes": (
        "LaneOrder",
        "PoolRound",
        "TeamLane",
        "TeamLanePool",
    ),
    "repro.net.total_order": ("TotalOrderNode",),
}

__getattr__, __dir__, __all__ = lazy_exports(globals(), _EXPORTS)
