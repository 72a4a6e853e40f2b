"""Distributed FUR simulators (Algorithm 4 and the index-swap variant)."""

from .qaoa_simulator import (
    DistributedStateVector,
    QAOAFURXSimulatorCUSVMPI,
    QAOAFURXSimulatorGPUMPI,
)

__all__ = [
    "DistributedStateVector",
    "QAOAFURXSimulatorGPUMPI",
    "QAOAFURXSimulatorCUSVMPI",
]
