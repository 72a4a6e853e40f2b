"""QAOA simulators of the ``jit`` backend, and the host-block engine hooks.

The hook classes here are the one set of
:class:`~repro.fur.engine.KernelProvider` hooks over a host ``(rows, 2^n)``
block: every engine hook maps to one call into a block-kernel module, so a
fused op really is a single call.  Each simulator class fixes that module
as ``_kernels``: the ``jit`` classes use :mod:`repro.fur.jit.kernels`
(the ``cc`` rung, or its forward to the NumPy tier), the ``python``
backend's classes use :mod:`repro.fur.python.kernels` directly.  Unlike
the gemm-formulated NumPy tier the X mixer runs fully in place on the
``cc`` rung, which also doubles the rows each sub-batch fits into the
engine's memory budget; the NumPy tier's gemm passes take the engine's
per-sub-batch scratch instead.

Construction of a ``jit`` simulator resolves the kernel path (building or
loading the C library once per process) and books the build's wall-clock
seconds into ``EngineStats.kernel_compile_time_s`` — never into execution
time.
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


class HostBlockHooks:
    """Engine hooks of a host-array provider over one block-kernel module."""

    #: the block-kernel module every hook calls
    _kernels: Any = kernels
    supports_fused_phase_mixer = True

    def _stage_block(self, sv0: np.ndarray | None, rows: int) -> np.ndarray:
        return self._validate_sv0_block(sv0, rows)

    def _apply_phase_block(self, block: np.ndarray, gammas: np.ndarray,
                           plan: Any) -> None:
        self._kernels.phase_block(block, gammas, phase_table=plan.phase_tables,
                                  costs=self._costs)

    def _block_expectations(self, block: np.ndarray,
                            costs: np.ndarray) -> np.ndarray:
        return self._kernels.expectation_block(block, costs)

    # -- output methods ------------------------------------------------------
    def get_statevector(self, result: np.ndarray, **kwargs: Any) -> np.ndarray:
        """Return the evolved state vector (host array)."""
        return np.asarray(result)


class MixerScratch:
    """Scratch hooks of an X provider whose mixer runs ``_kernels``' X kernels.

    The engine allocates a block-shaped ping-pong buffer per sub-batch (and
    its memory budget counts it) exactly when the module's
    ``mixer_needs_scratch()`` says its X kernels use one.
    """

    @property
    def _mixer_needs_scratch(self) -> bool:
        return self._kernels.mixer_needs_scratch()

    def _mixer_scratch(self, block: Any) -> np.ndarray:
        return np.empty(block.shape, dtype=block.dtype)


class XMixerHooks(MixerScratch, HostBlockHooks):
    """Transverse-field X mixer hooks: phase + all butterflies in one call."""

    mixer_name = "x"
    supports_fused_mixer_expectation = True

    def _apply_mixer_block(self, block: np.ndarray, betas: np.ndarray,
                           n_trotters: int, scratch: Any) -> None:
        # X-mixer factors commute: Trotterization is exact and unused.
        self._kernels.furx_block(block, betas, scratch=scratch)

    def _apply_phase_mixer_block(self, block: np.ndarray, gammas: np.ndarray,
                                 betas: np.ndarray, op: Any, scratch: Any,
                                 plan: Any) -> None:
        """FusedPhaseMixerOp kernel: phase + all butterflies."""
        self._kernels.furx_phase_block(block, gammas, betas,
                                       phase_table=plan.phase_tables,
                                       costs=self._costs, scratch=scratch)

    def _apply_mixer_expectation_block(self, block: np.ndarray,
                                       gammas: np.ndarray | None,
                                       betas: np.ndarray, op: Any,
                                       scratch: Any, costs: np.ndarray,
                                       plan: Any) -> np.ndarray:
        """FusedMixerExpectationOp kernel: the reduction follows the sweep
        in the same call."""
        return self._kernels.furx_expectation_block(
            block, gammas, betas, costs, phase_table=plan.phase_tables,
            costs=self._costs, scratch=scratch)


class XYMixerHooks(HostBlockHooks):
    """XY mixer hooks (ordered-edge butterflies, Trotterized)."""

    _xy_kind = "ring"

    def _post_init(self) -> None:
        super()._post_init()
        self._edges = self._kernels.mixer_edges(self._xy_kind, self._n_qubits)

    def _apply_mixer_block(self, block: np.ndarray, betas: np.ndarray,
                           n_trotters: int, scratch: Any) -> None:
        self._kernels.furxy_block(block, None, betas, edges=self._edges,
                                  n_trotters=n_trotters)

    def _apply_phase_mixer_block(self, block: np.ndarray, gammas: np.ndarray,
                                 betas: np.ndarray, op: Any, scratch: Any,
                                 plan: Any) -> None:
        self._kernels.furxy_block(block, gammas, betas, edges=self._edges,
                                  n_trotters=getattr(op, "n_trotters", 1),
                                  phase_table=plan.phase_tables,
                                  costs=self._costs)


class _QAOAFURJITSimulatorBase(HostBlockHooks, QAOAFastSimulatorBase):
    """Shared ``jit`` plumbing; the mixer hooks come from a mixin."""

    backend_name = "jit"

    def _post_init(self) -> None:
        """Build or load the C library once; book its compile time."""
        spent = kernels.ensure_kernels(self._precision.complex_dtype,
                                       self._n_qubits, self.mixer_name)
        if spent:
            self.engine.stats.kernel_compile_time_s += spent


class QAOAFURXSimulatorJIT(XMixerHooks, _QAOAFURJITSimulatorBase):
    """Transverse-field X mixer, one cache-blocked pass per fused layer."""


class QAOAFURXYRingSimulatorJIT(XYMixerHooks, _QAOAFURJITSimulatorBase):
    """Ring XY mixer (Hamming-weight preserving), compiled edge sweeps."""

    mixer_name = "xyring"
    _xy_kind = "ring"


class QAOAFURXYCompleteSimulatorJIT(XYMixerHooks, _QAOAFURJITSimulatorBase):
    """Complete-graph XY mixer, compiled edge sweeps."""

    mixer_name = "xycomplete"
    _xy_kind = "complete"
