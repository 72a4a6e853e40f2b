"""Optimized CPU QAOA simulators (the paper's ``c`` backend analogue).

Same public API as the ``python`` backend, but every layer runs through the
cache-blocked, allocation-free kernels in :mod:`repro.fur.cvect.kernels`.  The
simulator owns a :class:`~repro.fur.cvect.kernels.KernelWorkspace` that is
reused across layers and across repeated objective evaluations, which is the
dominant usage pattern during QAOA parameter optimization (Fig. 1 of the
paper).

Batched evaluation is orchestrated by the shared execution engine
(:mod:`repro.fur.engine`); this module only implements the
:class:`~repro.fur.engine.KernelProvider` hooks over the zero-allocation
batched blocked kernels.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import Any

import numpy as np

from ..base import QAOAFastSimulatorBase, validate_angles
from .kernels import (
    DEFAULT_BLOCK_SIZE,
    KernelWorkspace,
    apply_phase_batch_inplace,
    apply_phase_inplace,
    expectation_batch_inplace,
    expectation_inplace,
    furx_all_blocked,
    furxy_batch_blocked,
    furxy_blocked,
    probabilities_inplace,
)
from ..python.furx import furx_all_batch, furx_phase_all_batch
from ..python.furxy import complete_edges, ring_edges

__all__ = [
    "QAOAFURXSimulatorC",
    "QAOAFURXYRingSimulatorC",
    "QAOAFURXYCompleteSimulatorC",
]


class _QAOAFURCSimulatorBase(QAOAFastSimulatorBase):
    """Shared blocked-kernel simulation loop; subclasses supply the mixer."""

    backend_name = "c"
    supports_fused_engine = True

    def __init__(self, n_qubits: int, terms=None, costs=None, *,
                 block_size: int = DEFAULT_BLOCK_SIZE,
                 precision: str = "double",
                 optimize: str = "default") -> None:
        self._block_size = int(block_size)
        super().__init__(n_qubits, terms=terms, costs=costs,
                         precision=precision, optimize=optimize)

    def _post_init(self) -> None:
        self._workspace = KernelWorkspace(self._n_states, self._block_size,
                                          dtype=self._precision.complex_dtype)
        # Cache a float64 view of the diagonal so the phase kernel never
        # decompresses or re-validates inside the layer loop.
        self._costs_cache = self.get_cost_diagonal()

    @property
    def workspace(self) -> KernelWorkspace:
        """The preallocated scratch buffers used by the blocked kernels."""
        return self._workspace

    def _apply_mixer(self, sv: np.ndarray, beta: float, n_trotters: int) -> None:
        raise NotImplementedError

    def simulate_qaoa(self, gammas: Sequence[float], betas: Sequence[float],
                      sv0: np.ndarray | None = None, *, n_trotters: int = 1,
                      **kwargs: Any) -> np.ndarray:
        """Evolve through ``p`` QAOA layers with blocked in-place kernels."""
        if kwargs:
            raise TypeError(f"unexpected keyword arguments: {sorted(kwargs)}")
        if n_trotters < 1:
            raise ValueError("n_trotters must be at least 1")
        g, b = validate_angles(gammas, betas)
        sv = self._validate_sv0(sv0)
        phase_costs = self._phase_costs()
        for gamma, beta in zip(g, b):
            apply_phase_inplace(sv, phase_costs, float(gamma), self._workspace)
            self._apply_mixer(sv, float(beta), n_trotters)
        return sv

    # -- kernel-provider hooks (driven by repro.fur.engine) -------------------
    supports_batched_sv0 = True

    def _stage_block(self, sv0: np.ndarray | None, rows: int) -> np.ndarray:
        return self._validate_sv0_block(sv0, rows)

    def _mixer_scratch(self, block: np.ndarray) -> np.ndarray:
        return np.empty_like(block)

    def _apply_phase_block(self, block: np.ndarray, gammas: np.ndarray,
                           plan: Any) -> None:
        """Batched phase sweep through the zero-allocation blocked kernel.

        The plan carries the pre-resolved unique-value phase table (or
        ``None``, in which case the kernel evaluates ``exp`` into the
        workspace scratch chunk by chunk).
        """
        apply_phase_batch_inplace(block, self._phase_costs(), gammas,
                                  self._workspace, phase_table=plan.phase_tables)

    def _block_expectations(self, block: np.ndarray, costs: np.ndarray) -> np.ndarray:
        return expectation_batch_inplace(block, costs, self._workspace)

    # -- output methods ------------------------------------------------------
    def get_statevector(self, result: np.ndarray, **kwargs: Any) -> np.ndarray:
        """Return the evolved state vector (host array)."""
        return np.asarray(result)

    def get_probabilities(self, result: np.ndarray, preserve_state: bool = True,
                          **kwargs: Any) -> np.ndarray:
        """Measurement probabilities |ψ_x|²."""
        return probabilities_inplace(np.asarray(result))

    def get_expectation(self, result: np.ndarray, costs=None,
                        preserve_state: bool = True, **kwargs: Any) -> float:
        """Blocked expectation value ``Σ_x c[x]|ψ_x|²`` (no 2^n temporary)."""
        resolved = self._costs_cache if costs is None else self._resolve_costs(costs)
        return expectation_inplace(np.asarray(result), resolved, self._workspace)


class QAOAFURXSimulatorC(_QAOAFURCSimulatorBase):
    """QAOA with the transverse-field mixer (blocked CPU kernels)."""

    mixer_name = "x"
    _mixer_needs_scratch = True
    supports_fused_phase_mixer = True
    supports_fused_mixer_expectation = True

    def _apply_mixer(self, sv: np.ndarray, beta: float, n_trotters: int) -> None:
        furx_all_blocked(sv, beta, self._n_qubits, self._workspace)

    def _apply_mixer_block(self, block: np.ndarray, betas: np.ndarray,
                           n_trotters: int, scratch: np.ndarray | None) -> None:
        # The gemm-grouped batch kernel beats per-qubit pair sweeps by ~4x on
        # cache-spilling blocks; it ping-pongs through the per-sub-batch
        # scratch instead of the workspace (numerics identical to
        # furx_all_blocked at machine precision).
        furx_all_batch(block, betas, self._n_qubits, scratch=scratch)

    def _apply_phase_mixer_block(self, block: np.ndarray, gammas: np.ndarray,
                                 betas: np.ndarray, op: Any,
                                 scratch: np.ndarray | None, plan: Any) -> None:
        """FusedPhaseMixerOp kernel: phase factors feed the first gemm pass
        chunk-by-chunk, so phase + pass 1 stream the block exactly once.
        The workspace's phase scratch serves as the gather buffer — the
        fused layer allocates nothing after warm-up."""
        furx_phase_all_batch(block, gammas, betas, self._n_qubits,
                             phase_table=plan.phase_tables,
                             costs=self._phase_costs(), scratch=scratch,
                             phase_buf=self._workspace.phase_scratch)

    def _apply_mixer_expectation_block(self, block: np.ndarray,
                                       gammas: np.ndarray | None,
                                       betas: np.ndarray, op: Any,
                                       scratch: np.ndarray | None,
                                       costs: np.ndarray, plan: Any) -> np.ndarray:
        """FusedMixerExpectationOp kernel: reduce out of the ping-pong buffer,
        skipping the final mixer's copy-back (one state-block write saved)."""
        if gammas is not None:
            out = furx_phase_all_batch(block, gammas, betas, self._n_qubits,
                                       phase_table=plan.phase_tables,
                                       costs=self._phase_costs(), scratch=scratch,
                                       phase_buf=self._workspace.phase_scratch,
                                       copy_back=False)
        else:
            out = furx_all_batch(block, betas, self._n_qubits, scratch=scratch,
                                 copy_back=False)
        return expectation_batch_inplace(out, costs, self._workspace)


class QAOAFURXYRingSimulatorC(_QAOAFURCSimulatorBase):
    """QAOA with the ring XY mixer (blocked CPU kernels)."""

    mixer_name = "xyring"

    def _apply_mixer(self, sv: np.ndarray, beta: float, n_trotters: int) -> None:
        for _ in range(n_trotters):
            for i, j in ring_edges(self._n_qubits):
                furxy_blocked(sv, beta / n_trotters, i, j, self._workspace)

    def _apply_mixer_block(self, block: np.ndarray, betas: np.ndarray,
                           n_trotters: int, scratch: np.ndarray | None) -> None:
        for _ in range(n_trotters):
            for i, j in ring_edges(self._n_qubits):
                furxy_batch_blocked(block, betas / n_trotters, i, j, self._workspace)


class QAOAFURXYCompleteSimulatorC(_QAOAFURCSimulatorBase):
    """QAOA with the complete-graph XY mixer (blocked CPU kernels)."""

    mixer_name = "xycomplete"

    def _apply_mixer(self, sv: np.ndarray, beta: float, n_trotters: int) -> None:
        for _ in range(n_trotters):
            for i, j in complete_edges(self._n_qubits):
                furxy_blocked(sv, beta / n_trotters, i, j, self._workspace)

    def _apply_mixer_block(self, block: np.ndarray, betas: np.ndarray,
                           n_trotters: int, scratch: np.ndarray | None) -> None:
        for _ in range(n_trotters):
            for i, j in complete_edges(self._n_qubits):
                furxy_batch_blocked(block, betas / n_trotters, i, j, self._workspace)
