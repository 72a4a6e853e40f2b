"""Tensor-network contraction simulator substrate (cuTensorNet/QTensor baseline)."""

from .contraction import (
    ContractionStep,
    contract_network,
    contraction_width,
    elimination_order,
    greedy_contraction_order,
)
from .network import TensorNetwork, circuit_to_network
from .simulator import AmplitudeResult, TensorNetworkSimulator
from .tensor import Tensor, contract_pair

__all__ = [
    "Tensor",
    "contract_pair",
    "TensorNetwork",
    "circuit_to_network",
    "ContractionStep",
    "greedy_contraction_order",
    "contract_network",
    "elimination_order",
    "contraction_width",
    "AmplitudeResult",
    "TensorNetworkSimulator",
]
