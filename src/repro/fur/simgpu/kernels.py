"""Device kernels for the simulated-GPU backend.

Each function mirrors one CUDA kernel of the paper's ``nbcuda`` backend:
numerically it runs the :mod:`repro.fur.jit.kernels` tier on the device
array's host buffer, and it charges the owning
:class:`~repro.fur.simgpu.device.SimulatedDevice` clock with the bytes the
real kernel would stream through HBM plus one launch overhead, so that modeled
GPU timings can be reported alongside measured host timings.
"""

from __future__ import annotations

import numpy as np

from ..diagonal import apply_terms_to_slice
from ..jit import kernels
from .device import DeviceArray

__all__ = [
    "device_furx_all",
    "device_furx_all_batch",
    "device_furx_phase_all_batch",
    "device_furxy",
    "device_furxy_batch",
    "device_apply_phase",
    "device_apply_phase_batch",
    "device_precompute_diagonal",
    "device_probabilities",
    "device_expectation_batch",
    "device_overlap",
    "device_split_rows",
]


def _check_device_pair(a: DeviceArray, b: DeviceArray) -> None:
    if a.device is not b.device:
        raise ValueError("operands live on different simulated devices")


def device_furx_all(sv: DeviceArray, beta: float, n_qubits: int) -> DeviceArray:
    """Transverse-field mixer on the device: n kernels, each streaming the slice."""
    kernels.furx_block(sv.data[None], np.array([beta]))
    for _ in range(n_qubits):
        sv.device.charge_kernel(2 * sv.nbytes)
    return sv


def device_furxy(sv: DeviceArray, beta: float, edges: np.ndarray) -> DeviceArray:
    """XY mixer on the device (one kernel per edge, half the slice touched)."""
    kernels.furxy_block(sv.data[None], None, np.array([beta]), edges=edges)
    for _ in range(len(edges)):
        sv.device.charge_kernel(sv.nbytes)
    return sv


def device_apply_phase(sv: DeviceArray, costs: DeviceArray,
                       gamma: float) -> DeviceArray:
    """Phase operator kernel: one fused read of the diagonal + RMW of the state."""
    _check_device_pair(sv, costs)
    kernels.phase_block(sv.data[None], np.array([gamma]), costs=costs.data)
    sv.device.charge_kernel(2 * sv.nbytes + costs.nbytes)
    return sv


def device_precompute_diagonal(device, masks: np.ndarray, weights: np.ndarray,
                               offset: float, start: int, stop: int,
                               dtype=np.float64) -> DeviceArray:
    """Precompute a cost-vector slice on the device (Sec. III-A GPU kernel).

    The values come from the host's blocked Walsh–Hadamard kernel
    (:func:`~repro.fur.diagonal.apply_terms_to_slice`).  The modeled device
    charge still models the paper's per-term GPU kernel: one in-place
    accumulation pass over the slice per term, the locality the paper
    exploits for GPU parallelism and communication-free distribution.
    """
    out = device.empty(stop - start, dtype=dtype)
    host = apply_terms_to_slice(masks, weights, offset, start, stop)
    out.data[:] = host.astype(dtype)
    # one read-modify-write of the 8-byte accumulator per term
    device.charge_kernel(max(len(masks), 1) * 2 * 8 * (stop - start), launches=max(len(masks), 1))
    return out


def device_probabilities(sv: DeviceArray, preserve_state: bool = True) -> DeviceArray:
    """Norm-square kernel; with ``preserve_state=False`` it reuses the state buffer.

    The device-resident probabilities match the state's real dtype (float32
    for a complex64 state — half the device memory and traffic); output
    methods cast to float64 once the values reach the host.
    """
    device = sv.device
    if preserve_state:
        out = device.empty(sv.shape, dtype=sv.data.real.dtype)
        np.multiply(sv.data.real, sv.data.real, out=out.data)
        out.data += sv.data.imag * sv.data.imag
        device.charge_kernel(sv.nbytes + out.nbytes)
        return out
    # In-place: overwrite the real view of the state vector, as the paper's
    # GPU get_probabilities(preserve_state=False) does to halve peak memory.
    probs = sv.data.real
    np.multiply(sv.data.real, sv.data.real, out=probs)
    probs += sv.data.imag * sv.data.imag
    device.charge_kernel(sv.nbytes)
    return DeviceArray(device, probs)


# ---------------------------------------------------------------------------
# Device-block batch kernels — a (B, 2^n) block resident on the device.
# ---------------------------------------------------------------------------

def device_apply_phase_batch(svb: DeviceArray, costs: DeviceArray, gammas: np.ndarray,
                             phase_table=None) -> DeviceArray:
    """Batched phase kernel: one diagonal read shared by every block row
    (the table's ``uint16`` index when ``phase_table`` is given)."""
    _check_device_pair(svb, costs)
    kernels.phase_block(svb.data, gammas, phase_table=phase_table,
                        costs=costs.data)
    svb.device.charge_kernel(2 * svb.nbytes + _diag_bytes(costs, phase_table))
    return svb


def _diag_bytes(costs: DeviceArray, phase_table) -> int:
    """Bytes a phase reads of the diagonal: the phase table's index when it
    gathers through one, else the float64 cost vector."""
    return costs.nbytes if phase_table is None else phase_table.inverse.nbytes


def device_furx_all_batch(svb: DeviceArray, betas: np.ndarray,
                          n_qubits: int,
                          scratch: np.ndarray | None = None) -> DeviceArray:
    """Batched transverse-field mixer: n kernels, each streaming the block.

    The host numerics run :func:`repro.fur.jit.kernels.furx_block` (in
    place on the compiled rungs; ``scratch`` is the numpy rung's ping-pong
    block); the modeled device time still charges the real CUDA kernel's
    traffic — one read-modify-write of the block per qubit.
    """
    kernels.furx_block(svb.data, betas, scratch=scratch)
    svb.device.charge_kernel(2 * svb.nbytes * n_qubits, launches=n_qubits)
    return svb


def device_furx_phase_all_batch(svb: DeviceArray, costs: DeviceArray,
                                gammas: np.ndarray, betas: np.ndarray,
                                n_qubits: int, phase_table=None,
                                scratch: np.ndarray | None = None) -> DeviceArray:
    """Fused phase + transverse-field mixer over a device block.

    The phase multiply rides the first mixer sweep (the FusePhaseIntoMixer
    plan rewrite), so the modeled traffic is ``n`` read-modify-writes of the
    block plus one diagonal read (as :func:`device_apply_phase_batch`) —
    one full block RMW and one kernel launch fewer than the split phase +
    mixer kernels.  ``scratch`` is the jit
    numpy rung's ping-pong block (unused on the compiled rungs).
    """
    _check_device_pair(svb, costs)
    kernels.furx_phase_block(svb.data, gammas, betas,
                             phase_table=phase_table, costs=costs.data,
                             scratch=scratch)
    svb.device.charge_kernel(
        2 * svb.nbytes * n_qubits + _diag_bytes(costs, phase_table),
        launches=n_qubits)
    return svb


def device_furxy_batch(svb: DeviceArray, betas: np.ndarray,
                       edges: np.ndarray) -> DeviceArray:
    """Batched XY mixer (one kernel per edge over the block)."""
    kernels.furxy_block(svb.data, None, betas, edges=edges)
    svb.device.charge_kernel(svb.nbytes * len(edges), launches=len(edges))
    return svb


def device_expectation_batch(svb: DeviceArray, costs: DeviceArray) -> np.ndarray:
    """Per-row expectation reduction over a device block (host scalars out)."""
    _check_device_pair(svb, costs)
    values = kernels.expectation_block(svb.data, costs.data)
    svb.device.charge_kernel(svb.nbytes + costs.nbytes)
    return values


def device_split_rows(svb: DeviceArray) -> list[DeviceArray]:
    """Split a device block into per-row device arrays and free the block.

    One device-to-device copy kernel per row; the block allocation is
    released afterwards, so peak device memory is (block + rows) during the
    split and (rows) after it.
    """
    device = svb.device
    rows: list[DeviceArray] = []
    for r in range(svb.data.shape[0]):
        row = device.empty(svb.data.shape[1], dtype=svb.dtype)
        np.copyto(row.data, svb.data[r])
        device.charge_kernel(2 * row.nbytes)
        rows.append(row)
    svb.free()
    return rows


def device_overlap(sv: DeviceArray, indices: np.ndarray) -> float:
    """Overlap kernel: sum of probabilities over the given basis-state indices."""
    values = sv.data[indices]
    sv.device.charge_kernel(values.nbytes * 2)
    return float(np.sum(values.real ** 2 + values.imag ** 2))
