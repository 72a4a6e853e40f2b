"""Tensor-network QAOA backend (an *expectation-only* registry provider).

Wraps :class:`~repro.tensornet.simulator.TensorNetworkSimulator` behind the
fast simulators' constructor/``simulate_qaoa``/``get_*`` API so the
cuTensorNet/QTensor-style baseline participates in the backend registry and
the shared execution engine like every other simulator family.

The tier is deliberately *expectation-only*: a tensor-network contraction
produces one amplitude per network, never a resident state vector, so the
statevector-shaped requests (``simulate_qaoa_batch`` block staging,
``get_statevector``) raise
:class:`~repro.fur.capabilities.UnsupportedCapabilityError` instead of
pretending.  Expectations are served by contracting all ``2^n`` output
amplitudes of the evolved circuit against the cost diagonal — exponential in
``n`` by construction (this backend exists for cross-checking and for the
paper's Fig. 3 scaling story, not for large problems).

Engine integration records the op stream *symbolically*: the kernel-provider
block is a per-row log of phase/mixer angle columns, and the whole
contraction cost is paid in the final ``_block_expectations`` reduction.  One
greedy contraction order is computed per row and reused for all ``2^n``
output bitstrings, whose networks share the same index structure.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from ..fur.base import QAOAFastSimulatorBase, validate_angles
from ..fur.capabilities import UnsupportedCapabilityError, require_capability
from ..gates.circuit import QuantumCircuit
from ..gates.compile import compile_mixer_x, compile_phase_separator
from .contraction import greedy_contraction_order
from .network import circuit_to_network
from .simulator import TensorNetworkSimulator

__all__ = ["QAOATensorNetworkSimulator", "TensorNetQAOAResult"]


@dataclass(frozen=True)
class TensorNetQAOAResult:
    """Lazy result of a tensornet QAOA evolution (angles, not a state).

    Contraction is deferred to the ``get_*`` accessors: the evolution itself
    only records the schedule, matching how tensor-network simulators defer
    all work to the amplitude being asked for.
    """

    gammas: tuple[float, ...]
    betas: tuple[float, ...]


@dataclass
class _SymbolicBlock:
    """Kernel-provider block: a log of angle columns instead of amplitudes."""

    rows: int
    #: ordered ("phase" | "mixer", angles-per-row) events
    events: list[tuple[str, np.ndarray]] = field(default_factory=list)


class QAOATensorNetworkSimulator(QAOAFastSimulatorBase):
    """QAOA via tensor-network contraction, registry- and engine-compatible.

    Requires explicit polynomial ``terms`` (the phase separator is compiled
    into diagonal gate tensors term by term; a bare cost diagonal has no
    tensor-network form).  X mixer only, double precision only.
    """

    backend_name = "tensornet"
    capability_tier = "expectation-only"
    supports_fused_engine = True
    mixer_name = "x"

    def __init__(self, n_qubits: int, terms=None, costs=None, *,
                 precision: str = "double", optimize: str = "default",
                 width_heuristic: str = "min_degree") -> None:
        if terms is None:
            raise ValueError(
                "the tensornet backend requires explicit polynomial terms "
                "(a bare cost diagonal has no tensor-network form)"
            )
        self._tn = TensorNetworkSimulator(width_heuristic=width_heuristic)
        super().__init__(n_qubits, terms=terms, costs=costs,
                         precision=precision, optimize=optimize)

    # -- circuit assembly -----------------------------------------------------
    def _layer_circuits(self, events: Sequence[tuple[str, float]]) -> QuantumCircuit:
        """Compose one row's recorded phase/mixer events into a circuit."""
        qc = QuantumCircuit(self._n_qubits)
        for kind, angle in events:
            if kind == "phase":
                qc = qc.compose(compile_phase_separator(
                    self._terms, float(angle), self._n_qubits,
                    strategy="diagonal"))
            else:
                qc = qc.compose(compile_mixer_x(float(angle), self._n_qubits))
        return qc

    def _all_outputs(self) -> list[list[int]]:
        """Every output bitstring, little-endian (bit q = qubit q), in
        cost-diagonal order."""
        return [[(x >> q) & 1 for q in range(self._n_qubits)]
                for x in range(self._n_states)]

    def _contract_probabilities(self, circuit: QuantumCircuit) -> np.ndarray:
        """|amplitude|² for every basis state, one contraction per output.

        The greedy contraction order is found once and reused across all
        ``2^n`` outputs: the networks differ only in the rank-1 projection
        tensors' *values*, never in their index structure.
        """
        outputs = self._all_outputs()
        order = greedy_contraction_order(
            circuit_to_network(circuit, outputs[0], initial_state="plus"))
        amps = self._tn.batch_amplitudes(circuit, outputs,
                                         initial_state="plus", order=order)
        return (amps.real ** 2 + amps.imag ** 2).astype(np.float64, copy=False)

    # -- simulation -----------------------------------------------------------
    def simulate_qaoa(self, gammas: Sequence[float], betas: Sequence[float],
                      sv0: np.ndarray | None = None,
                      **kwargs: Any) -> TensorNetQAOAResult:
        """Record the schedule; contraction happens in the ``get_*`` calls."""
        if kwargs:
            raise TypeError(f"unexpected keyword arguments: {sorted(kwargs)}")
        if sv0 is not None:
            raise ValueError(
                "the tensornet backend cannot start from a custom initial "
                "state (the |+>^n preparation is folded into the input tensors)"
            )
        g, b = validate_angles(gammas, betas)
        return TensorNetQAOAResult(gammas=tuple(float(x) for x in g),
                                   betas=tuple(float(x) for x in b))

    # -- kernel-provider hooks (driven by repro.fur.engine) -------------------
    def _batch_rows(self, remaining: int, memory_budget: float | None) -> int:
        # Symbolic blocks hold angles, not (rows, 2^n) amplitudes — the
        # memory budget never forces a split.
        return remaining

    def _engine_phase_tables(self) -> Any:
        return None  # phase ops are recorded symbolically, never evaluated

    def _stage_block(self, sv0: np.ndarray | None, rows: int) -> _SymbolicBlock:
        if sv0 is not None:
            raise ValueError(
                "the tensornet backend cannot start from a custom initial state"
            )
        return _SymbolicBlock(rows=rows)

    def _apply_phase_block(self, block: _SymbolicBlock, gammas: np.ndarray,
                           plan: Any) -> None:
        block.events.append(("phase", np.array(gammas, dtype=np.float64)))

    def _apply_mixer_block(self, block: _SymbolicBlock, betas: np.ndarray,
                           n_trotters: int, scratch: Any) -> None:
        # X-mixer factors commute exactly; Trotter slicing is a no-op.
        block.events.append(("mixer", np.array(betas, dtype=np.float64)))

    def _block_expectations(self, block: _SymbolicBlock,
                            costs: np.ndarray) -> np.ndarray:
        out = np.empty(block.rows, dtype=np.float64)
        for r in range(block.rows):
            circuit = self._layer_circuits(
                [(kind, angles[r]) for kind, angles in block.events])
            out[r] = self._contract_probabilities(circuit) @ costs
        return out

    def _block_results(self, block: _SymbolicBlock) -> list[Any]:
        raise UnsupportedCapabilityError(
            "backend 'tensornet' is 'expectation-only' and cannot materialize "
            "per-schedule state results"
        )

    # -- output methods -------------------------------------------------------
    def get_statevector(self, result: TensorNetQAOAResult,
                        **kwargs: Any) -> np.ndarray:
        require_capability(self, "statevector")
        raise AssertionError("unreachable")  # pragma: no cover

    def get_probabilities(self, result: TensorNetQAOAResult,
                          preserve_state: bool = True,
                          **kwargs: Any) -> np.ndarray:
        """Contract |<x|γβ>|² for every basis state ``x``."""
        events = [(kind, angle) for g_l, b_l in zip(result.gammas, result.betas)
                  for kind, angle in (("phase", g_l), ("mixer", b_l))]
        return self._contract_probabilities(self._layer_circuits(events))
