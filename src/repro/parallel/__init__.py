"""Virtual-cluster substrate: collectives, topology, perf model.

Substitutes for the MPI + multi-GPU environment of the paper's distributed
experiments (Sec. III-C, Fig. 5): driver-level collective algorithms with
traffic accounting, and an analytical performance model calibrated to the
paper's hardware description.
"""

from .collectives import (
    ALLTOALL_ALGORITHMS,
    Message,
    TrafficTrace,
    alltoall,
    alltoall_bruck,
    alltoall_direct,
    alltoall_pairwise,
    alltoall_ring,
)
from .perfmodel import COMMUNICATION_STRATEGIES, LayerTimeBreakdown, PerformanceModel
from .topology import POLARIS_LIKE, SINGLE_NODE_DGX, ClusterTopology

__all__ = [
    "Message",
    "TrafficTrace",
    "alltoall",
    "alltoall_direct",
    "alltoall_pairwise",
    "alltoall_ring",
    "alltoall_bruck",
    "ALLTOALL_ALGORITHMS",
    "ClusterTopology",
    "POLARIS_LIKE",
    "SINGLE_NODE_DGX",
    "PerformanceModel",
    "LayerTimeBreakdown",
    "COMMUNICATION_STRATEGIES",
]
