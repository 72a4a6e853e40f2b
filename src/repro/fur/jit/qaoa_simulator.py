"""QAOA simulators of the ``jit`` backend (single-pass tiled kernels).

The classes here are thin :class:`~repro.fur.engine.KernelProvider`
adapters over :mod:`repro.fur.jit.kernels`: every engine hook maps to one
kernel call, so a fused op really is a single pass over the
``(rows, 2^n)`` block.  Unlike the gemm-formulated backends the X mixer
runs fully in place on the ``cc`` path, which also doubles the rows each
sub-batch fits into the engine's memory budget; the ``numpy`` path's gemm
passes take the engine's per-sub-batch scratch instead.

Construction resolves the kernel path (building or loading the C library
once per process) and books the build's wall-clock seconds into
``EngineStats.kernel_compile_time_s`` — never into execution time.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from ..base import QAOAFastSimulatorBase
from . import kernels

__all__ = [
    "QAOAFURXSimulatorJIT",
    "QAOAFURXYRingSimulatorJIT",
    "QAOAFURXYCompleteSimulatorJIT",
]


class _QAOAFURJITSimulatorBase(QAOAFastSimulatorBase):
    """Shared provider plumbing; subclasses supply the mixer kernel."""

    backend_name = "jit"
    supports_fused_phase_mixer = True

    def _post_init(self) -> None:
        """Build or load the C library once; book its compile time."""
        spent = kernels.ensure_kernels(self._precision.complex_dtype,
                                       self._n_qubits, self.mixer_name)
        if spent:
            self.engine.stats.kernel_compile_time_s += spent

    # -- kernel-provider hooks (driven by repro.fur.engine) ------------------
    def _stage_block(self, sv0: np.ndarray | None, rows: int) -> np.ndarray:
        return self._validate_sv0_block(sv0, rows)

    def _apply_phase_block(self, block: np.ndarray, gammas: np.ndarray,
                           plan: Any) -> None:
        kernels.phase_block(block, gammas, phase_table=plan.phase_tables,
                            costs=self._costs)

    def _block_expectations(self, block: np.ndarray,
                            costs: np.ndarray) -> np.ndarray:
        return kernels.expectation_block(block, costs)

    def _block_results(self, block: np.ndarray) -> list[np.ndarray]:
        return list(block)

    # -- output methods ------------------------------------------------------
    def get_statevector(self, result: np.ndarray, **kwargs: Any) -> np.ndarray:
        """Return the evolved state vector (host array)."""
        return np.asarray(result)


class JITMixerScratch:
    """Scratch hooks of an X provider whose mixer runs the jit X kernels.

    The engine allocates a block-shaped ping-pong buffer per sub-batch (and
    its memory budget counts it) exactly when
    :func:`kernels.mixer_needs_scratch` says the live rung uses one.
    """

    @property
    def _mixer_needs_scratch(self) -> bool:
        return kernels.mixer_needs_scratch()

    def _mixer_scratch(self, block: Any) -> np.ndarray:
        return np.empty(block.shape, dtype=block.dtype)


class QAOAFURXSimulatorJIT(JITMixerScratch, _QAOAFURJITSimulatorBase):
    """Transverse-field X mixer, one cache-blocked pass per fused layer."""

    mixer_name = "x"
    supports_fused_mixer_expectation = True

    def _apply_mixer_block(self, block: np.ndarray, betas: np.ndarray,
                           n_trotters: int, scratch: Any) -> None:
        # X-mixer factors commute: Trotterization is exact and unused.
        kernels.furx_block(block, betas, scratch=scratch)

    def _apply_phase_mixer_block(self, block: np.ndarray, gammas: np.ndarray,
                                 betas: np.ndarray, op: Any, scratch: Any,
                                 plan: Any) -> None:
        """FusedPhaseMixerOp kernel: phase + all butterflies, tile by tile."""
        kernels.furx_phase_block(block, gammas, betas,
                                 phase_table=plan.phase_tables,
                                 costs=self._costs, scratch=scratch)

    def _apply_mixer_expectation_block(self, block: np.ndarray,
                                       gammas: np.ndarray | None,
                                       betas: np.ndarray, op: Any,
                                       scratch: Any, costs: np.ndarray,
                                       plan: Any) -> np.ndarray:
        """FusedMixerExpectationOp kernel: the reduction rides the sweep."""
        return kernels.furx_expectation_block(block, gammas, betas, costs,
                                              phase_table=plan.phase_tables,
                                              costs=self._costs,
                                              scratch=scratch)


class _QAOAFURXYJITSimulatorBase(_QAOAFURJITSimulatorBase):
    """Shared XY plumbing (ordered-edge butterflies, Trotterized)."""

    _xy_kind = "ring"

    def _post_init(self) -> None:
        super()._post_init()
        self._edges = kernels.mixer_edges(self._xy_kind, self._n_qubits)

    def _apply_mixer_block(self, block: np.ndarray, betas: np.ndarray,
                           n_trotters: int, scratch: Any) -> None:
        kernels.furxy_block(block, None, betas, edges=self._edges,
                            n_trotters=n_trotters)

    def _apply_phase_mixer_block(self, block: np.ndarray, gammas: np.ndarray,
                                 betas: np.ndarray, op: Any, scratch: Any,
                                 plan: Any) -> None:
        kernels.furxy_block(block, gammas, betas, edges=self._edges,
                            n_trotters=getattr(op, "n_trotters", 1),
                            phase_table=plan.phase_tables,
                            costs=self._costs)


class QAOAFURXYRingSimulatorJIT(_QAOAFURXYJITSimulatorBase):
    """Ring XY mixer (Hamming-weight preserving), compiled edge sweeps."""

    mixer_name = "xyring"
    _xy_kind = "ring"


class QAOAFURXYCompleteSimulatorJIT(_QAOAFURXYJITSimulatorBase):
    """Complete-graph XY mixer, compiled edge sweeps."""

    mixer_name = "xycomplete"
    _xy_kind = "complete"
