"""QAOA circuit construction and a gate-based QAOA simulator facade.

:func:`build_qaoa_circuit` assembles the full circuit
``Π_l exp(-i β_l M) exp(-i γ_l C)`` (applied to |+>^n) from compiled phase
separators and mixers.  :class:`QAOAGateBasedSimulator` wraps it behind the
same constructor/`simulate_qaoa`/`get_*` API as the FUR simulators, so the
benchmark harness can swap backends with one argument — this class plays the
role of "Qiskit / cuStateVec (gates)" in Figs. 2–4.

The defining inefficiency is preserved faithfully: the phase separator is
*recompiled and reapplied gate by gate at every layer and at every objective
evaluation*; nothing is cached across layers beyond what a generic circuit
simulator would cache.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from typing import Any

import numpy as np

from ..fur.base import QAOAFastSimulatorBase, validate_angles
from ..fur.precision import resolve_precision
from ..problems.terms import validate_terms
from .circuit import QuantumCircuit
from .compile import (
    compile_mixer_x,
    compile_mixer_xy_complete,
    compile_mixer_xy_ring,
    compile_phase_separator,
    initial_plus_state_circuit,
)
from .statevector import StatevectorSimulator, apply_gate

__all__ = [
    "build_qaoa_circuit",
    "qaoa_layer_circuit",
    "QAOAGateBasedSimulator",
    "QAOAGateBasedXSimulator",
    "QAOAGateBasedXYRingSimulator",
    "QAOAGateBasedXYCompleteSimulator",
]

#: amplitude dtype ↔ precision-name correspondence (the gate engine speaks
#: dtypes, the registry speaks precision names; both must agree)
_DTYPE_PRECISIONS = {
    np.dtype(np.complex128): "double",
    np.dtype(np.complex64): "single",
}


_MIXER_COMPILERS = {
    "x": compile_mixer_x,
    "xyring": compile_mixer_xy_ring,
    "xycomplete": compile_mixer_xy_complete,
}


def qaoa_layer_circuit(terms: Iterable[tuple[float, Iterable[int]]],
                       gamma: float, beta: float, n_qubits: int,
                       *, mixer: str = "x",
                       phase_strategy: str = "ladder") -> QuantumCircuit:
    """One QAOA layer ``exp(-i β M) exp(-i γ C)`` as a circuit."""
    if mixer not in _MIXER_COMPILERS:
        raise ValueError(f"unknown mixer {mixer!r}; choose from {sorted(_MIXER_COMPILERS)}")
    layer = compile_phase_separator(terms, gamma, n_qubits, strategy=phase_strategy)
    return layer.compose(_MIXER_COMPILERS[mixer](beta, n_qubits))


def build_qaoa_circuit(terms: Iterable[tuple[float, Iterable[int]]],
                       gammas: Sequence[float], betas: Sequence[float],
                       n_qubits: int, *, mixer: str = "x",
                       phase_strategy: str = "ladder",
                       include_initial_state: bool = True) -> QuantumCircuit:
    """Full p-layer QAOA circuit (optionally including the |+>^n preparation)."""
    g, b = validate_angles(gammas, betas)
    qc = initial_plus_state_circuit(n_qubits) if include_initial_state else QuantumCircuit(n_qubits)
    for gamma, beta in zip(g, b):
        qc = qc.compose(
            qaoa_layer_circuit(terms, float(gamma), float(beta), n_qubits,
                               mixer=mixer, phase_strategy=phase_strategy)
        )
    return qc


class QAOAGateBasedSimulator(QAOAFastSimulatorBase):
    """Gate-based QAOA simulator with the fast simulators' public API.

    The cost diagonal is still precomputed in the constructor — but only so
    that ``get_expectation`` / ``get_overlap`` can be evaluated; the *state
    evolution* never uses it, exactly as in an off-the-shelf circuit
    simulator.  (For a strictly-gate-level expectation evaluation one could
    also measure term by term; the diagonal inner product is used here because
    it is the cheaper and numerically identical choice, and it only makes the
    baseline look better.)
    """

    backend_name = "gates"
    supports_fused_engine = True

    def __init__(self, n_qubits: int, terms=None, costs=None, *,
                 mixer: str | None = None, phase_strategy: str = "ladder",
                 dtype: np.dtype | type | None = None,
                 precision: str | None = None,
                 optimize: str = "default") -> None:
        mixer = type(self).mixer_name if mixer is None else mixer
        if mixer not in _MIXER_COMPILERS:
            raise ValueError(f"unknown mixer {mixer!r}; choose from {sorted(_MIXER_COMPILERS)}")
        if terms is None:
            raise ValueError("the gate-based simulator requires explicit polynomial terms")
        if dtype is not None:
            by_dtype = _DTYPE_PRECISIONS.get(np.dtype(dtype))
            if by_dtype is None:
                raise ValueError("state vector dtype must be complex64 or complex128")
            if precision is not None and resolve_precision(precision).name != by_dtype:
                raise ValueError(
                    f"dtype={np.dtype(dtype)} conflicts with precision={precision!r}"
                )
            precision = by_dtype
        elif precision is None:
            precision = "double"
        self.mixer_name = mixer
        self.phase_strategy = phase_strategy
        super().__init__(n_qubits, terms=terms, costs=costs,
                         precision=precision, optimize=optimize)
        self._engine_sim = StatevectorSimulator(dtype=self._precision.complex_dtype)

    def layer_circuit(self, gamma: float, beta: float) -> QuantumCircuit:
        """The compiled circuit of a single QAOA layer (for gate-count studies)."""
        return qaoa_layer_circuit(self._terms, gamma, beta, self._n_qubits,
                                  mixer=self.mixer_name, phase_strategy=self.phase_strategy)

    def _phase_circuit(self, gamma: float) -> QuantumCircuit:
        return compile_phase_separator(self._terms, gamma, self._n_qubits,
                                       strategy=self.phase_strategy)

    def _mixer_circuit(self, beta: float, n_trotters: int) -> QuantumCircuit:
        """The mixer circuit at one angle, Trotter-sliced for the XY mixers.

        The X mixer's RX factors commute exactly, so its slicing is a no-op
        (matching the FUR kernels, which ignore ``n_trotters`` for X).
        """
        compiler = _MIXER_COMPILERS[self.mixer_name]
        if self.mixer_name == "x" or n_trotters == 1:
            return compiler(beta, self._n_qubits)
        slice_qc = compiler(beta / n_trotters, self._n_qubits)
        qc = slice_qc
        for _ in range(n_trotters - 1):
            qc = qc.compose(slice_qc)
        return qc

    def simulate_qaoa(self, gammas: Sequence[float], betas: Sequence[float],
                      sv0: np.ndarray | None = None, *, n_trotters: int = 1,
                      **kwargs: Any) -> np.ndarray:
        """Simulate p layers by gate-by-gate circuit execution."""
        if kwargs:
            raise TypeError(f"unexpected keyword arguments: {sorted(kwargs)}")
        if n_trotters < 1:
            raise ValueError("n_trotters must be at least 1")
        g, b = validate_angles(gammas, betas)
        sv = self._validate_sv0(sv0)
        for gamma, beta in zip(g, b):
            sv = self._engine_sim.run(self._phase_circuit(float(gamma)),
                                      initial_state=sv)
            sv = self._engine_sim.run(self._mixer_circuit(float(beta), n_trotters),
                                      initial_state=sv)
        return sv

    # -- kernel-provider hooks (driven by repro.fur.engine) -------------------
    # The block is a plain list of per-schedule 1-D state vectors: dense gate
    # application allocates a fresh array per gate (the baseline's defining
    # cost), so a contiguous (rows, 2^n) block would be copied apart anyway.

    def _engine_phase_tables(self) -> Any:
        return None  # the phase separator is re-applied gate by gate

    supports_batched_sv0 = True

    def _stage_block(self, sv0: np.ndarray | None,
                     rows: int) -> list[np.ndarray]:
        if sv0 is not None and np.ndim(sv0) == 2:
            return list(self._validate_sv0_block(sv0, rows))
        sv = self._validate_sv0(sv0)
        return [sv.copy() for _ in range(rows)]

    def _run_circuit_rows(self, block: list[np.ndarray],
                          circuits: Sequence[QuantumCircuit]) -> None:
        for r, circuit in enumerate(circuits):
            row = block[r]
            for gate_ in circuit:
                # dense gates return a NEW array — rebind, don't rely on
                # in-place mutation
                row = apply_gate(row, gate_, self._n_qubits)
            block[r] = row

    def _apply_phase_block(self, block: list[np.ndarray], gammas: np.ndarray,
                           plan: Any) -> None:
        self._run_circuit_rows(
            block, [self._phase_circuit(float(g)) for g in gammas])

    def _apply_mixer_block(self, block: list[np.ndarray], betas: np.ndarray,
                           n_trotters: int, scratch: Any) -> None:
        self._run_circuit_rows(
            block, [self._mixer_circuit(float(b), n_trotters) for b in betas])

    def _block_expectations(self, block: list[np.ndarray],
                            costs: np.ndarray) -> np.ndarray:
        out = np.empty(len(block), dtype=np.float64)
        for r, row in enumerate(block):
            out[r] = (row.real.astype(np.float64) ** 2
                      + row.imag.astype(np.float64) ** 2) @ costs
        return out

    # -- output methods -------------------------------------------------------
    def get_statevector(self, result: np.ndarray, **kwargs: Any) -> np.ndarray:
        """Return the evolved state vector."""
        return np.asarray(result)

    def get_probabilities(self, result: np.ndarray, preserve_state: bool = True,
                          **kwargs: Any) -> np.ndarray:
        """Measurement probabilities |ψ_x|² (always float64 on output)."""
        sv = np.asarray(result)
        return (sv.real.astype(np.float64) ** 2
                + sv.imag.astype(np.float64) ** 2)


class QAOAGateBasedXSimulator(QAOAGateBasedSimulator):
    """Gate-based QAOA with the transverse-field mixer (registry class)."""

    mixer_name = "x"


class QAOAGateBasedXYRingSimulator(QAOAGateBasedSimulator):
    """Gate-based QAOA with the ring XY mixer (registry class)."""

    mixer_name = "xyring"


class QAOAGateBasedXYCompleteSimulator(QAOAGateBasedSimulator):
    """Gate-based QAOA with the complete-graph XY mixer (registry class)."""

    mixer_name = "xycomplete"
