"""Distributed FUR simulators (Algorithm 4 and the index-swap variant)."""

from .qaoa_simulator import (
    DistributedStateVector,
    QAOAFURXSimulatorCUSVMPI,
    QAOAFURXSimulatorGPUMPI,
)
from .spmd import run_distributed_qaoa

__all__ = [
    "DistributedStateVector",
    "QAOAFURXSimulatorGPUMPI",
    "QAOAFURXSimulatorCUSVMPI",
    "run_distributed_qaoa",
]
