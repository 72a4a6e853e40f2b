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
from .furx import direct_phase_batch, furx_all, furx_all_batch, furx_phase_all_batch
from .furxy import furxy_complete, furxy_complete_batch, furxy_ring, furxy_ring_batch

__all__ = [
    "QAOAFURXSimulator",
    "QAOAFURXYRingSimulator",
    "QAOAFURXYCompleteSimulator",
]

#: Basis states per chunk of the expectation reduction.  Fixed, never sized
#: by the row count, so a row's float64 sum (pairwise within a chunk, the
#: chunks in order) is the same whatever batch the row rides in.
_EXPECTATION_COLUMNS: int = 1 << 14

#: Amplitudes per step of the expectation reduction (one chunk of columns
#: when that is wider): it bounds the step's two float64 temporaries,
#: however many rows and segments the block has.  Each concurrent shard
#: reduction holds one step (16 B per amplitude): 2^13 keeps a one-row,
#: two-shard reduction at n=18 under a quarter of the diagonal's bytes.
_EXPECTATION_STEP: int = 1 << 13


class _QAOAFURPythonSimulatorBase(QAOAFastSimulatorBase):
    """Shared host-NumPy simulation loop; subclasses supply the mixer."""

    backend_name = "python"

    def _apply_mixer(self, sv: np.ndarray, beta: float, n_trotters: int) -> None:
        raise NotImplementedError

    def _apply_phase(self, sv: np.ndarray, gamma: float) -> None:
        """Phase operator: ``sv[x] *= exp(-i γ c[x])`` (Algorithm 3, line 4).

        The factors are evaluated in double from the float64 diagonal and
        rounded once to the state's precision.
        """
        direct_phase_batch(sv[None, :], np.array([gamma]), self._costs)

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

    def _table_gather_buffer(self, plan: Any) -> np.ndarray | None:
        """The gather buffer when the plan gathers from a phase table (the
        direct phase tiles its own buffers)."""
        return None if plan.phase_tables is None else self._gather_buffer()

    def _mixer_scratch(self, block: np.ndarray) -> np.ndarray:
        return np.empty_like(block)

    def _apply_phase_block(self, block: np.ndarray, gammas: np.ndarray,
                           plan: Any) -> None:
        """Vectorized phase operator on a ``(rows, 2^n)`` block.

        ``exp(-i γ_b c)`` is broadcast across the batch: when the plan's
        unique-value phase table applies, one ``exp`` over the ``(rows, U)``
        distinct values plus per-row gathers (into the per-sub-batch gather
        buffer) replaces ``rows · 2^n`` transcendentals; otherwise the
        exponential is evaluated directly (:func:`direct_phase_batch`).
        """
        table = plan.phase_tables
        if table is not None:
            factors = table.factors_batch(gammas, dtype=block.dtype)
            buf = self._gather_buffer()
            for r in range(block.shape[0]):
                np.take(factors[r], table.inverse, out=buf)
                block[r] *= buf
            return
        direct_phase_batch(block, gammas, self._costs)

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


def _block_expectations(block: np.ndarray, costs: np.ndarray) -> np.ndarray:
    """Per-row ``Σ_x c[x] |ψ_x|²`` of a block (one segment of
    :func:`_segment_expectations`)."""
    return _segment_expectations(block, costs, block.shape[1])[:, 0]


def _segment_expectations(block: np.ndarray, costs: np.ndarray,
                          width: int) -> np.ndarray:
    """``(rows, n // width)`` sums ``Σ c[x] |ψ_x|²`` over each row's
    segments of ``width`` basis states.

    Every row and segment reduces on its own (the float64 squares of the
    widened amplitude parts times the costs, then a pairwise sum along the
    row per chunk of at most ``_EXPECTATION_COLUMNS`` states, the chunks in
    order; no BLAS product grouping rows), so a sum's bits depend only on
    ``width``, never on the batch or on how the rows are split.  Rows and
    segments go in groups of about ``_EXPECTATION_STEP`` amplitudes, which
    bounds the temporaries.
    """
    rows, n = block.shape
    n_seg = n // width
    segments = block.reshape(rows, n_seg, width)
    seg_costs = costs.reshape(n_seg, width)
    cols = min(width, _EXPECTATION_COLUMNS)
    segs = max(1, _EXPECTATION_STEP // cols)
    step = max(1, segs // n_seg)
    out = np.zeros((rows, n_seg), dtype=np.float64)
    for r0 in range(0, rows, step):
        for j0 in range(0, n_seg, segs):
            for s in range(0, width, cols):
                blk = segments[r0:r0 + step, j0:j0 + segs, s:s + cols]
                probs = np.square(blk.real, dtype=np.float64)
                probs += np.square(blk.imag, dtype=np.float64)
                probs *= seg_costs[j0:j0 + segs, s:s + cols]
                out[r0:r0 + step, j0:j0 + segs] += probs.sum(axis=2)
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
                             costs=self._costs, scratch=scratch,
                             phase_buf=self._table_gather_buffer(plan))

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
                                       costs=self._costs, scratch=scratch,
                                       phase_buf=self._table_gather_buffer(plan),
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
