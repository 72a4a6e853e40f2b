"""Portable NumPy QAOA simulators (the paper's ``python`` backend).

Each class implements Algorithm 3: the cost diagonal is precomputed once (in
the constructor, via the base class), and each layer applies

1. the phase operator as an element-wise multiplication of the state vector
   with ``exp(-i γ_l · c)``, and
2. the mixer via the fast uniform SU(2) kernels (Algorithms 1–2) or their XY
   extensions.

The three classes differ only in the mixer (transverse-field X, XY-ring,
XY-complete), mirroring QOKit's simulator families.

Batched evaluation is orchestrated by the shared execution engine
(:mod:`repro.fur.engine`); this module only implements the
:class:`~repro.fur.engine.KernelProvider` hooks — a ``(rows, 2^n)`` host
block, a vectorized batched phase sweep (unique-value phase table when the
diagonal is repetitive, chunked direct ``exp`` otherwise) and the batched
mixer kernels (:func:`~repro.fur.python.furx.furx_all_batch` and the batched
XY kernels).  Sub-batch splitting, scratch lifetime and the float64
accumulation policy live in the engine, not here.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import Any

import numpy as np

from ..base import QAOAFastSimulatorBase, validate_angles
from .furx import furx_all, furx_all_batch, furx_phase_all_batch
from .furxy import furxy_complete, furxy_complete_batch, furxy_ring, furxy_ring_batch

__all__ = [
    "QAOAFURXSimulator",
    "QAOAFURXYRingSimulator",
    "QAOAFURXYCompleteSimulator",
]

#: Bound on the number of complex temporaries (elements) materialized per
#: chunk by the direct-exponential batched phase fallback.
_BATCH_PHASE_CHUNK: int = 1 << 20


class _QAOAFURPythonSimulatorBase(QAOAFastSimulatorBase):
    """Shared host-NumPy simulation loop; subclasses supply the mixer."""

    backend_name = "python"
    supports_fused_engine = True

    def _apply_mixer(self, sv: np.ndarray, beta: float, n_trotters: int) -> None:
        raise NotImplementedError

    def _apply_phase(self, sv: np.ndarray, gamma: float) -> None:
        """Phase operator: ``sv[x] *= exp(-i γ c[x])`` (Algorithm 3, line 4).

        Uses the per-simulator resolved-diagonal cache: for a
        :class:`~repro.fur.diagonal.CompressedDiagonal` problem the 2^n float
        vector is decompressed exactly once, not once per layer.  The phase
        factors are evaluated at the state's precision (float32 costs with a
        weak complex scalar yield complex64 factors for single precision).
        """
        sv *= np.exp(self._phase_costs() * (-1j * gamma))

    def simulate_qaoa(self, gammas: Sequence[float], betas: Sequence[float],
                      sv0: np.ndarray | None = None, *, n_trotters: int = 1,
                      **kwargs: Any) -> np.ndarray:
        """Evolve the initial state through ``p`` QAOA layers.

        Parameters
        ----------
        gammas, betas:
            The QAOA angles (equal length ``p``); layer ``l`` applies
            ``exp(-i β_l M) exp(-i γ_l C)``.
        sv0:
            Optional initial state (defaults to ``|+>^n``).
        n_trotters:
            Number of Trotter slices used per mixer application by the XY
            mixers (ignored by the X mixer, whose factors commute exactly).

        Returns
        -------
        numpy.ndarray
            The evolved state vector (the backend's *result* object).
        """
        if kwargs:
            raise TypeError(f"unexpected keyword arguments: {sorted(kwargs)}")
        if n_trotters < 1:
            raise ValueError("n_trotters must be at least 1")
        g, b = validate_angles(gammas, betas)
        sv = self._validate_sv0(sv0)
        for gamma, beta in zip(g, b):
            self._apply_phase(sv, float(gamma))
            self._apply_mixer(sv, float(beta), n_trotters)
        return sv

    # -- kernel-provider hooks (driven by repro.fur.engine) -------------------
    supports_batched_sv0 = True

    #: lazily-allocated phase gather buffer (see :meth:`_gather_buffer`)
    _phase_buf: np.ndarray | None = None

    def _stage_block(self, sv0: np.ndarray | None, rows: int) -> np.ndarray:
        self._phase_buf = None  # (re)allocated lazily on first phase sweep
        return self._validate_sv0_block(sv0, rows)

    def _gather_buffer(self) -> np.ndarray:
        """The per-sub-batch phase gather buffer, allocated on first use.

        Shared by the split phase sweep and the fused phase+mixer kernel
        (one allocation per sub-batch, reused across all ``p`` layers),
        allocated only when a sweep first needs it and dropped with the
        block by the reduction hooks so it is never retained beyond the
        batch.
        """
        if self._phase_buf is None:
            self._phase_buf = np.empty(self._n_states,
                                       dtype=self._precision.complex_dtype)
        return self._phase_buf

    def _mixer_scratch(self, block: np.ndarray) -> np.ndarray:
        return np.empty_like(block)

    def _apply_phase_block(self, block: np.ndarray, gammas: np.ndarray,
                           plan: Any) -> None:
        """Vectorized phase operator on a ``(rows, 2^n)`` block.

        ``exp(-i γ_b c)`` is broadcast across the batch: when the plan's
        unique-value phase table applies, one ``exp`` over the ``(rows, U)``
        distinct values plus per-row gathers (into the per-sub-batch gather
        buffer) replaces ``rows · 2^n`` transcendentals; otherwise the
        exponential is evaluated directly, chunked over basis states so the
        ``(rows, chunk)`` temporaries stay bounded.
        """
        table = plan.phase_tables
        rows, n = block.shape
        if table is not None:
            factors = table.factors_batch(gammas, dtype=block.dtype)
            buf = self._gather_buffer()
            for r in range(rows):
                np.take(factors[r], table.inverse, out=buf)
                block[r] *= buf
            return
        costs = self._phase_costs()
        coeff = (-1j * gammas).astype(block.dtype)
        cols = max(1, _BATCH_PHASE_CHUNK // rows)
        for s in range(0, n, cols):
            e = min(s + cols, n)
            block[:, s:e] *= np.exp(coeff[:, None] * costs[s:e][None, :])

    def _block_expectations(self, block: np.ndarray, costs: np.ndarray) -> np.ndarray:
        self._phase_buf = None
        return _block_expectations(block, costs)

    def _block_results(self, block: np.ndarray) -> list[np.ndarray]:
        self._phase_buf = None
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
        # In-place variant: square magnitudes into the state-vector buffer,
        # then return a contiguous float64 array — a strided ``.real`` view
        # of the complex buffer would halve the throughput of every
        # downstream reduction (and surprise callers expecting a plain
        # probability vector).
        np.multiply(sv, np.conj(sv), out=sv)
        return np.ascontiguousarray(sv.real, dtype=np.float64)


def _block_expectations(block: np.ndarray, costs: np.ndarray,
                        chunk: int = _BATCH_PHASE_CHUNK) -> np.ndarray:
    """Per-row ``Σ_x c[x] |ψ_x|²`` of a block, chunked over basis states."""
    rows, n = block.shape
    cols = max(1, chunk // max(rows, 1))
    out = np.zeros(rows, dtype=np.float64)
    for s in range(0, n, cols):
        e = min(s + cols, n)
        blk = block[:, s:e]
        out += (blk.real ** 2 + blk.imag ** 2) @ costs[s:e]
    return out


class QAOAFURXSimulator(_QAOAFURPythonSimulatorBase):
    """QAOA with the transverse-field mixer ``exp(-i β Σ_i X_i)`` (NumPy)."""

    mixer_name = "x"
    _mixer_needs_scratch = True
    supports_fused_phase_mixer = True
    supports_fused_mixer_expectation = True

    def _apply_mixer(self, sv: np.ndarray, beta: float, n_trotters: int) -> None:
        # The X-mixer factors commute, so Trotterization is exact and unused.
        furx_all(sv, beta, self._n_qubits)

    def _apply_mixer_block(self, block: np.ndarray, betas: np.ndarray,
                           n_trotters: int, scratch: np.ndarray | None) -> None:
        furx_all_batch(block, betas, self._n_qubits, scratch=scratch)

    def _apply_phase_mixer_block(self, block: np.ndarray, gammas: np.ndarray,
                                 betas: np.ndarray, op: Any,
                                 scratch: np.ndarray | None, plan: Any) -> None:
        """FusedPhaseMixerOp kernel: the phase rides the first gemm pass."""
        furx_phase_all_batch(block, gammas, betas, self._n_qubits,
                             phase_table=plan.phase_tables,
                             costs=self._phase_costs(), scratch=scratch,
                             phase_buf=self._gather_buffer())

    def _apply_mixer_expectation_block(self, block: np.ndarray,
                                       gammas: np.ndarray | None,
                                       betas: np.ndarray, op: Any,
                                       scratch: np.ndarray | None,
                                       costs: np.ndarray, plan: Any) -> np.ndarray:
        """FusedMixerExpectationOp kernel: reduce out of the ping-pong buffer.

        The final mixer's copy-back is skipped (``copy_back=False`` returns
        whichever of block/scratch holds the result) and the expectation is
        reduced straight from it — one full state-block write saved.
        """
        if gammas is not None:
            out = furx_phase_all_batch(block, gammas, betas, self._n_qubits,
                                       phase_table=plan.phase_tables,
                                       costs=self._phase_costs(), scratch=scratch,
                                       phase_buf=self._gather_buffer(),
                                       copy_back=False)
        else:
            out = furx_all_batch(block, betas, self._n_qubits, scratch=scratch,
                                 copy_back=False)
        self._phase_buf = None
        return _block_expectations(out, costs)


class QAOAFURXYRingSimulator(_QAOAFURPythonSimulatorBase):
    """QAOA with the ring XY mixer (Hamming-weight preserving, NumPy)."""

    mixer_name = "xyring"

    def _apply_mixer(self, sv: np.ndarray, beta: float, n_trotters: int) -> None:
        for _ in range(n_trotters):
            furxy_ring(sv, beta / n_trotters, self._n_qubits)

    def _apply_mixer_block(self, block: np.ndarray, betas: np.ndarray,
                           n_trotters: int, scratch: np.ndarray | None) -> None:
        for _ in range(n_trotters):
            furxy_ring_batch(block, betas / n_trotters, self._n_qubits)


class QAOAFURXYCompleteSimulator(_QAOAFURPythonSimulatorBase):
    """QAOA with the complete-graph XY mixer (Hamming-weight preserving, NumPy)."""

    mixer_name = "xycomplete"

    def _apply_mixer(self, sv: np.ndarray, beta: float, n_trotters: int) -> None:
        for _ in range(n_trotters):
            furxy_complete(sv, beta / n_trotters, self._n_qubits)

    def _apply_mixer_block(self, block: np.ndarray, betas: np.ndarray,
                           n_trotters: int, scratch: np.ndarray | None) -> None:
        for _ in range(n_trotters):
            furxy_complete_batch(block, betas / n_trotters, self._n_qubits)
