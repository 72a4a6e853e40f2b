"""QAOA simulators of the ``jit`` backend (single-pass tiled kernels).

The classes here are thin :class:`~repro.fur.engine.KernelProvider`
adapters over :mod:`repro.fur.jit.kernels`: every engine hook maps to one
compiled kernel call, so a fused op really is a single pass over the
``(rows, 2^n)`` block.  Unlike the gemm-formulated backends the X mixer
runs fully in place (``_mixer_needs_scratch = False``), which also doubles
the rows each sub-batch fits into the engine's memory budget.

Kernel compilation is lazy: the first engine hook on a new ``(dtype, n,
mixer)`` signature triggers it (numba type specialization, or the one-time
shared-object build of the C path) and books the wall-clock seconds into
``EngineStats.kernel_compile_time_s`` — never into execution time.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import Any

import numpy as np

from ..base import QAOAFastSimulatorBase, validate_angles
from . import kernels

__all__ = [
    "QAOAFURXSimulatorJIT",
    "QAOAFURXYRingSimulatorJIT",
    "QAOAFURXYCompleteSimulatorJIT",
]


class _QAOAFURJITSimulatorBase(QAOAFastSimulatorBase):
    """Shared provider plumbing; subclasses supply the mixer kernel."""

    backend_name = "jit"
    supports_fused_engine = True
    supports_fused_phase_mixer = True

    # -- lazy per-signature kernel compilation -------------------------------
    def _ensure_kernels(self) -> None:
        """Compile (or warm) this signature's kernels; book compile time."""
        spent = kernels.ensure_kernels(self._precision.complex_dtype,
                                       self._n_qubits, self.mixer_name)
        if spent:
            self.engine.stats.kernel_compile_time_s += spent

    def _mixer_rows(self, block: np.ndarray, betas: np.ndarray,
                    n_trotters: int) -> None:
        raise NotImplementedError

    # -- looped evaluation ---------------------------------------------------
    def simulate_qaoa(self, gammas: Sequence[float], betas: Sequence[float],
                      sv0: np.ndarray | None = None, *, n_trotters: int = 1,
                      **kwargs: Any) -> np.ndarray:
        """Evolve one schedule through ``p`` layers (1-row kernel calls)."""
        if kwargs:
            raise TypeError(f"unexpected keyword arguments: {sorted(kwargs)}")
        if n_trotters < 1:
            raise ValueError("n_trotters must be at least 1")
        g, b = validate_angles(gammas, betas)
        self._ensure_kernels()
        sv = self._validate_sv0(sv0)
        block = sv.reshape(1, -1)
        costs = self._phase_costs()
        for gamma, beta in zip(g, b):
            kernels.phase_block(block, np.array([float(gamma)]), costs=costs)
            self._mixer_rows(block, np.array([float(beta)]), n_trotters)
        return sv

    # -- kernel-provider hooks (driven by repro.fur.engine) ------------------
    supports_batched_sv0 = True

    def _stage_block(self, sv0: np.ndarray | None, rows: int) -> np.ndarray:
        return self._validate_sv0_block(sv0, rows)

    def _apply_phase_block(self, block: np.ndarray, gammas: np.ndarray,
                           plan: Any) -> None:
        self._ensure_kernels()
        kernels.phase_block(block, gammas, phase_table=plan.phase_tables,
                            costs=self._phase_costs())

    def _block_expectations(self, block: np.ndarray,
                            costs: np.ndarray) -> np.ndarray:
        self._ensure_kernels()
        return kernels.expectation_block(block, costs)

    def _block_results(self, block: np.ndarray) -> list[np.ndarray]:
        return list(block)

    # -- output methods ------------------------------------------------------
    def get_statevector(self, result: np.ndarray, **kwargs: Any) -> np.ndarray:
        """Return the evolved state vector (host array)."""
        return np.asarray(result)

    def get_probabilities(self, result: np.ndarray, preserve_state: bool = True,
                          **kwargs: Any) -> np.ndarray:
        """Measurement probabilities |ψ_x|² (always float64 on output)."""
        sv = np.asarray(result)
        if preserve_state:
            return (np.abs(sv) ** 2).astype(np.float64, copy=False)
        np.multiply(sv, np.conj(sv), out=sv)
        return np.ascontiguousarray(sv.real, dtype=np.float64)


class QAOAFURXSimulatorJIT(_QAOAFURJITSimulatorBase):
    """Transverse-field X mixer, one cache-blocked pass per fused layer."""

    mixer_name = "x"
    _mixer_needs_scratch = False  # in-place butterflies: no ping-pong buffer
    supports_fused_mixer_expectation = True

    def _mixer_rows(self, block: np.ndarray, betas: np.ndarray,
                    n_trotters: int) -> None:
        # X-mixer factors commute: Trotterization is exact and unused.
        kernels.furx_block(block, betas)

    def _apply_mixer_block(self, block: np.ndarray, betas: np.ndarray,
                           n_trotters: int, scratch: Any) -> None:
        self._ensure_kernels()
        kernels.furx_block(block, betas)

    def _apply_phase_mixer_block(self, block: np.ndarray, gammas: np.ndarray,
                                 betas: np.ndarray, op: Any, scratch: Any,
                                 plan: Any) -> None:
        """FusedPhaseMixerOp kernel: phase + all butterflies, tile by tile."""
        self._ensure_kernels()
        kernels.furx_phase_block(block, gammas, betas,
                                 phase_table=plan.phase_tables,
                                 costs=self._phase_costs())

    def _apply_mixer_expectation_block(self, block: np.ndarray,
                                       gammas: np.ndarray | None,
                                       betas: np.ndarray, op: Any,
                                       scratch: Any, costs: np.ndarray,
                                       plan: Any) -> np.ndarray:
        """FusedMixerExpectationOp kernel: the reduction rides the sweep."""
        self._ensure_kernels()
        return kernels.furx_expectation_block(block, gammas, betas, costs,
                                              phase_table=plan.phase_tables,
                                              costs=self._phase_costs())


class _QAOAFURXYJITSimulatorBase(_QAOAFURJITSimulatorBase):
    """Shared XY plumbing (ordered-edge butterflies, Trotterized)."""

    _xy_kind = "ring"

    def _mixer_rows(self, block: np.ndarray, betas: np.ndarray,
                    n_trotters: int) -> None:
        kernels.furxy_block(block, None, betas, kind=self._xy_kind,
                            n_trotters=n_trotters)

    def _apply_mixer_block(self, block: np.ndarray, betas: np.ndarray,
                           n_trotters: int, scratch: Any) -> None:
        self._ensure_kernels()
        kernels.furxy_block(block, None, betas, kind=self._xy_kind,
                            n_trotters=n_trotters)

    def _apply_phase_mixer_block(self, block: np.ndarray, gammas: np.ndarray,
                                 betas: np.ndarray, op: Any, scratch: Any,
                                 plan: Any) -> None:
        self._ensure_kernels()
        kernels.furxy_block(block, gammas, betas, kind=self._xy_kind,
                            n_trotters=getattr(op, "n_trotters", 1),
                            phase_table=plan.phase_tables,
                            costs=self._phase_costs())


class QAOAFURXYRingSimulatorJIT(_QAOAFURXYJITSimulatorBase):
    """Ring XY mixer (Hamming-weight preserving), compiled edge sweeps."""

    mixer_name = "xyring"
    _xy_kind = "ring"


class QAOAFURXYCompleteSimulatorJIT(_QAOAFURXYJITSimulatorBase):
    """Complete-graph XY mixer, compiled edge sweeps."""

    mixer_name = "xycomplete"
    _xy_kind = "complete"
