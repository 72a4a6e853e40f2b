"""Simulated-GPU QAOA simulators (the paper's ``nbcuda`` backend analogue).

The state vector and the precomputed cost diagonal are resident on a
:class:`~repro.fur.simgpu.device.SimulatedDevice`; all per-layer work happens
through device kernels, and the output methods transfer results back to the
host (honouring ``preserve_state``, as in Listing 3 of the paper).  Numerical
results are identical to the CPU backends; in addition the simulator exposes
``modeled_device_time()`` so the benchmark harness can report projected A100
timings next to measured host timings.

Batched evaluation is orchestrated by the shared execution engine
(:mod:`repro.fur.engine`); this module implements the
:class:`~repro.fur.engine.KernelProvider` hooks over device-resident blocks —
including the device transfer hooks (block upload, per-batch diagonal
staging, block release) and a device-memory-aware sub-batch capacity.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import Any

import numpy as np

from ..base import (
    QAOAFastSimulatorBase,
    batch_block_rows,
    validate_angles,
)
from ..diagonal import term_masks_and_weights
from ..jit import kernels
from ..jit.qaoa_simulator import MixerScratch
from .device import A100_80GB, DeviceArray, DeviceSpec, SimulatedDevice
from .kernels import (
    device_apply_phase,
    device_apply_phase_batch,
    device_expectation_batch,
    device_furx_all,
    device_furx_all_batch,
    device_furx_phase_all_batch,
    device_furxy,
    device_furxy_batch,
    device_overlap,
    device_precompute_diagonal,
    device_probabilities,
    device_split_rows,
)

__all__ = [
    "QAOAFURXSimulatorGPU",
    "QAOAFURXYRingSimulatorGPU",
    "QAOAFURXYCompleteSimulatorGPU",
]


class _QAOAFURGPUSimulatorBase(QAOAFastSimulatorBase):
    """Shared device-resident simulation loop; subclasses supply the mixer."""

    backend_name = "gpu"

    def __init__(self, n_qubits: int, terms=None, costs=None, *,
                 device: SimulatedDevice | None = None,
                 device_spec: DeviceSpec = A100_80GB,
                 precision: str = "double",
                 optimize: str = "default") -> None:
        self._device = device if device is not None else SimulatedDevice(device_spec)
        super().__init__(n_qubits, terms=terms, costs=costs,
                         precision=precision, optimize=optimize)

    # -- construction hooks ----------------------------------------------------
    def _precompute_diagonal(self, terms) -> np.ndarray:
        """Precompute the float64 diagonal *on the device* and mirror it on
        the host (at both precisions, like every other backend)."""
        masks, weights, offset = term_masks_and_weights(terms, self._n_qubits)
        self._costs_device = device_precompute_diagonal(
            self._device, masks, weights, offset, 0, self._n_states
        )
        return np.array(self._costs_device.data, copy=True)

    def _ingest_costs(self, costs):
        host = super()._ingest_costs(costs)
        self._costs_device = self._device.to_device(host)
        return host

    # -- properties --------------------------------------------------------------
    @property
    def device(self) -> SimulatedDevice:
        """The simulated accelerator owning this simulator's buffers."""
        return self._device

    def modeled_device_time(self) -> float:
        """Modeled accelerator time accumulated so far (seconds)."""
        return self._device.modeled_time

    def reset_device_clock(self) -> None:
        """Zero the modeled-time counters (keeps allocations)."""
        self._device.reset_clock()

    # -- simulation ----------------------------------------------------------------
    def _apply_mixer(self, sv: DeviceArray, beta: float, n_trotters: int) -> None:
        raise NotImplementedError

    def simulate_qaoa(self, gammas: Sequence[float], betas: Sequence[float],
                      sv0: np.ndarray | None = None, *, n_trotters: int = 1,
                      **kwargs: Any) -> DeviceArray:
        """Evolve through p layers on the device; returns a device-resident result."""
        if kwargs:
            raise TypeError(f"unexpected keyword arguments: {sorted(kwargs)}")
        if n_trotters < 1:
            raise ValueError("n_trotters must be at least 1")
        g, b = validate_angles(gammas, betas)
        sv_host = self._validate_sv0(sv0)
        sv = self._device.to_device(sv_host)
        for gamma, beta in zip(g, b):
            device_apply_phase(sv, self._costs_device, float(gamma))
            self._apply_mixer(sv, float(beta), n_trotters)
        return sv

    # -- kernel-provider hooks (driven by repro.fur.engine) -----------------------
    def _batch_rows(self, remaining: int, memory_budget: float | None) -> int:
        """Sub-batch rows bounded by both the host budget and device memory.

        Called by the engine once per sub-batch: :func:`device_split_rows`
        keeps earlier sub-batches' per-row results resident, so the
        free-memory estimate must be re-derived as rows accumulate.  A row
        costs two state vectors while its block and split results coexist;
        at least one row is always attempted (the device allocator raises
        :class:`MemoryError` if it truly cannot fit).
        """
        itemsize = self._precision.complex_itemsize
        rows = batch_block_rows(remaining, self._n_states, memory_budget,
                                blocks=2, itemsize=itemsize)
        free = (self._device.spec.memory_capacity
                - self._device.stats.allocated_bytes)
        # complex64 amplitudes halve the per-row device cost, doubling the
        # rows device_split_rows can keep resident per sub-batch.
        row_bytes = 2 * itemsize * self._n_states
        device_rows = int(free // row_bytes)
        return max(1, min(rows, device_rows))

    def _stage_block(self, sv0: np.ndarray | None, rows: int) -> DeviceArray:
        """Upload a ``(rows, 2^n)`` block of the shared initial state."""
        return self._device.to_device(self._validate_sv0_block(sv0, rows))

    def _apply_phase_block(self, block: DeviceArray, gammas: np.ndarray,
                           plan: Any) -> None:
        device_apply_phase_batch(block, self._costs_device, gammas,
                                 phase_table=plan.phase_tables)

    def _block_expectations(self, block: DeviceArray, costs: DeviceArray) -> np.ndarray:
        return device_expectation_batch(block, costs)

    def _block_results(self, block: DeviceArray) -> list[DeviceArray]:
        return device_split_rows(block)

    def _result_block(self, result: DeviceArray) -> DeviceArray:
        """A one-row view of a device result (no device allocation)."""
        return DeviceArray(result.device, result.data.reshape(1, -1))

    def _release_block(self, block: DeviceArray) -> None:
        block.free()

    def _stage_batch_costs(self, resolved: np.ndarray) -> DeviceArray:
        """Device copy of the batch diagonal (the resident one when default).

        A user-supplied diagonal is staged transiently for the batch and
        freed by :meth:`_release_batch_costs`; the default diagonal reuses
        the always-resident device copy.
        """
        if resolved is self._costs:
            return self._costs_device
        return self._device.to_device(np.ascontiguousarray(resolved))

    def _release_batch_costs(self, staged: DeviceArray) -> None:
        if staged is not self._costs_device:
            staged.free()

    # -- output methods (always host values) ------------------------------------------
    def get_statevector(self, result: DeviceArray, **kwargs: Any) -> np.ndarray:
        """Device→host copy of the evolved state."""
        return result.copy_to_host()

    def get_probabilities(self, result: DeviceArray, preserve_state: bool = True,
                          **kwargs: Any) -> np.ndarray:
        """Measurement probabilities, computed on device and copied to the host."""
        probs = device_probabilities(result, preserve_state=preserve_state)
        return probs.copy_to_host().astype(np.float64, copy=False)

    def get_overlap(self, result: DeviceArray, costs=None, indices=None,
                    preserve_state: bool = True, **kwargs: Any) -> float:
        """Ground-state overlap via a device-side gather + reduction."""
        if indices is None:
            diag = self._resolve_costs(costs)
            indices = np.flatnonzero(diag == diag.min())
        idx = np.asarray(indices, dtype=np.int64)
        if idx.size == 0:
            raise ValueError("overlap requested against an empty set of indices")
        if idx.min() < 0 or idx.max() >= self._n_states:
            raise ValueError("overlap indices out of range")
        return device_overlap(result, idx)


class QAOAFURXSimulatorGPU(MixerScratch, _QAOAFURGPUSimulatorBase):
    """QAOA with the transverse-field mixer on the simulated GPU.

    The host scratch of the jit mixer kernels is not on the modeled device:
    its clock charges the real kernel's traffic regardless.
    """

    mixer_name = "x"
    #: the jit kernels under the device kernels (read by MixerScratch)
    _kernels = kernels
    supports_fused_phase_mixer = True

    def _apply_mixer(self, sv: DeviceArray, beta: float, n_trotters: int) -> None:
        device_furx_all(sv, beta, self._n_qubits)

    def _apply_mixer_block(self, svb: DeviceArray, betas: np.ndarray,
                           n_trotters: int, scratch: np.ndarray | None) -> None:
        device_furx_all_batch(svb, betas, self._n_qubits, scratch=scratch)

    def _apply_phase_mixer_block(self, svb: DeviceArray, gammas: np.ndarray,
                                 betas: np.ndarray, op: Any,
                                 scratch: np.ndarray | None, plan: Any) -> None:
        """FusedPhaseMixerOp kernel: one fewer block RMW on the device clock."""
        device_furx_phase_all_batch(svb, self._costs_device, gammas, betas,
                                    self._n_qubits,
                                    phase_table=plan.phase_tables,
                                    scratch=scratch)


class _QAOAFURXYGPUSimulatorBase(_QAOAFURGPUSimulatorBase):
    """Shared XY plumbing: one device kernel per ordered edge, Trotterized."""

    _xy_kind = "ring"

    def _post_init(self) -> None:
        self._edges = kernels.mixer_edges(self._xy_kind, self._n_qubits)

    def _apply_mixer(self, sv: DeviceArray, beta: float, n_trotters: int) -> None:
        for _ in range(n_trotters):
            device_furxy(sv, beta / n_trotters, self._edges)

    def _apply_mixer_block(self, svb: DeviceArray, betas: np.ndarray,
                           n_trotters: int, scratch: np.ndarray | None) -> None:
        for _ in range(n_trotters):
            device_furxy_batch(svb, betas / n_trotters, self._edges)


class QAOAFURXYRingSimulatorGPU(_QAOAFURXYGPUSimulatorBase):
    """QAOA with the ring XY mixer on the simulated GPU."""

    mixer_name = "xyring"
    _xy_kind = "ring"


class QAOAFURXYCompleteSimulatorGPU(_QAOAFURXYGPUSimulatorBase):
    """QAOA with the complete-graph XY mixer on the simulated GPU."""

    mixer_name = "xycomplete"
    _xy_kind = "complete"
