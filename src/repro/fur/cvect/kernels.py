"""Cache-blocked, allocation-free FUR kernels in NumPy.

QOKit's fastest CPU backend is a custom C implementation whose advantages over
the plain NumPy path are (a) no per-layer temporary allocations and (b)
cache-friendly blocked traversal of the state vector.  That backend is the
``cc`` rung of :mod:`repro.fur.jit` (the ``c`` backend name resolves to it).
This module keeps the two properties in NumPy for the shard-count-invariant
``inner="c"`` of the sharded family (``sharded``, ``gpumpi``, ``cusvmpi``)
and for the simulated-GPU kernels:

* every kernel works through a small preallocated scratch buffer
  (:class:`KernelWorkspace`) whose size is bounded by ``block_size`` —
  temporaries stay L2-resident regardless of the state-vector size;
* the phase operator is evaluated into a reusable complex buffer
  (``exp`` applied in place), so a full QAOA layer performs zero heap
  allocations after warm-up;
* the SU(2) pair update is performed block-by-block over the contiguous
  low-stride axis, following the cache-effects guidance of the HPC guide
  (group memory accesses, prefer in-place updates, avoid copies).
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "KernelWorkspace",
    "apply_su2_blocked",
    "apply_su2_batch_blocked",
    "furx_all_blocked",
    "furxy_blocked",
    "furxy_batch_blocked",
    "apply_phase_inplace",
    "apply_phase_batch_inplace",
    "expectation_inplace",
    "expectation_batch_inplace",
    "DEFAULT_BLOCK_SIZE",
]

#: Default number of complex amplitudes touched per block (2^16 * 16 B = 1 MiB,
#: small enough to stay in L2 on typical server cores).
DEFAULT_BLOCK_SIZE: int = 1 << 16


class KernelWorkspace:
    """Preallocated scratch buffers shared by the blocked kernels.

    One workspace is owned by each shard slab (sharded family) or simulated
    GPU simulator and reused across layers and across repeated objective
    evaluations during parameter optimization, which is exactly the reuse
    pattern the paper optimizes for.
    """

    def __init__(self, n_states: int, block_size: int = DEFAULT_BLOCK_SIZE,
                 dtype: np.dtype | type = np.complex128) -> None:
        if block_size <= 0:
            raise ValueError("block_size must be positive")
        self.block_size = int(min(block_size, n_states))
        self.n_states = int(n_states)
        #: complex dtype of the state vectors this workspace serves
        self.dtype = np.dtype(dtype)
        #: complex scratch for SU(2) pair updates (half-block) and phases
        self.pair_scratch = np.empty(self.block_size, dtype=self.dtype)
        #: complex scratch holding exp(-i*gamma*costs) for a block
        self.phase_scratch = np.empty(self.block_size, dtype=self.dtype)
        #: real scratch for probability / expectation reductions — always
        #: float64: expectations accumulate in double regardless of state dtype
        self.real_scratch = np.empty(self.block_size, dtype=np.float64)


def apply_su2_blocked(statevector: np.ndarray, a: complex, b: complex, qubit: int,
                      workspace: KernelWorkspace) -> np.ndarray:
    """Blocked in-place application of ``U = [[a, −b*], [b, a*]]`` to one qubit.

    The state vector is viewed as ``(groups, 2, stride)`` with
    ``stride = 2**qubit``; the pair update runs over ``stride``-sized rows in
    chunks of at most ``workspace.block_size`` amplitudes so that the single
    temporary (the copy of the "low" half of the pair) never exceeds the block
    size.
    """
    n_states = statevector.shape[0]
    stride = 1 << qubit
    if qubit < 0 or stride * 2 > n_states:
        raise ValueError(f"qubit {qubit} out of range for state vector of length {n_states}")
    view = statevector.reshape(-1, 2, stride)
    n_groups = view.shape[0]
    # State-dtype coefficients keep every temporary at state precision.
    a = statevector.dtype.type(a)
    b = statevector.dtype.type(b)
    b_conj = np.conj(b)
    a_conj = np.conj(a)
    if stride >= workspace.block_size:
        # Block along the stride axis, one group at a time.
        chunk = workspace.block_size
        for g in range(n_groups):
            lo_row = view[g, 0, :]
            hi_row = view[g, 1, :]
            for s in range(0, stride, chunk):
                e = min(s + chunk, stride)
                tmp = workspace.pair_scratch[: e - s]
                np.copyto(tmp, lo_row[s:e])
                lo_row[s:e] *= a
                lo_row[s:e] -= b_conj * hi_row[s:e]
                hi_row[s:e] *= a_conj
                hi_row[s:e] += b * tmp
    else:
        # Small stride: block along the group axis instead so each chunk still
        # touches ~block_size contiguous amplitudes.
        groups_per_chunk = max(1, workspace.block_size // max(stride, 1))
        for g0 in range(0, n_groups, groups_per_chunk):
            g1 = min(g0 + groups_per_chunk, n_groups)
            lo = view[g0:g1, 0, :]
            hi = view[g0:g1, 1, :]
            count = lo.size
            tmp = workspace.pair_scratch[:count].reshape(lo.shape)
            np.copyto(tmp, lo)
            lo *= a
            lo -= b_conj * hi
            hi *= a_conj
            hi += b * tmp
    return statevector


def furx_all_blocked(statevector: np.ndarray, beta: float, n_qubits: int,
                     workspace: KernelWorkspace) -> np.ndarray:
    """Blocked Algorithm 2: apply ``exp(-i β X_i)`` to every qubit in place."""
    if statevector.shape[0] != (1 << n_qubits):
        raise ValueError(
            f"state vector length {statevector.shape[0]} does not match n={n_qubits}"
        )
    a = complex(np.cos(beta))
    b = -1j * complex(np.sin(beta))
    for q in range(n_qubits):
        apply_su2_blocked(statevector, a, b, q, workspace)
    return statevector


def _pair_update(sub_a: np.ndarray, sub_b: np.ndarray, a: complex, b: complex,
                 workspace: KernelWorkspace) -> None:
    """SU(2) pair update on two equal-shaped (possibly strided) views.

    ``sub_a`` plays the role of the first basis vector and ``sub_b`` the
    second: ``sub_a <- a·sub_a − b*·sub_b``, ``sub_b <- b·sub_a_old + a*·sub_b``.
    The only temporary is a slice of the workspace scratch buffer, so callers
    must keep chunk sizes within ``workspace.block_size``.
    """
    a = sub_a.dtype.type(a)
    b = sub_a.dtype.type(b)
    tmp = workspace.pair_scratch[: sub_a.size].reshape(sub_a.shape)
    np.copyto(tmp, sub_a)
    sub_a *= a
    sub_a -= np.conj(b) * sub_b
    sub_b *= np.conj(a)
    sub_b += b * tmp


def _su2_update_views(amp_a: np.ndarray, amp_b: np.ndarray, a: complex, b: complex,
                      workspace: KernelWorkspace) -> None:
    """Apply the pair update to two same-shaped 3D strided views, block by block.

    The chunking adapts to the view shape so that (i) each chunk fits the
    scratch buffer and (ii) the number of Python-level iterations stays at
    roughly ``size / block_size`` regardless of which axis is large.
    """
    n_top, n_mid, n_low = amp_a.shape
    block = workspace.block_size
    if n_low >= block:
        for t in range(n_top):
            for m in range(n_mid):
                for c0 in range(0, n_low, block):
                    c1 = min(c0 + block, n_low)
                    _pair_update(amp_a[t, m, c0:c1], amp_b[t, m, c0:c1], a, b, workspace)
    elif n_mid * n_low >= block:
        mid_per = max(1, block // n_low)
        for t in range(n_top):
            for m0 in range(0, n_mid, mid_per):
                m1 = min(m0 + mid_per, n_mid)
                _pair_update(amp_a[t, m0:m1, :], amp_b[t, m0:m1, :], a, b, workspace)
    else:
        top_per = max(1, block // (n_mid * n_low))
        for t0 in range(0, n_top, top_per):
            t1 = min(t0 + top_per, n_top)
            _pair_update(amp_a[t0:t1], amp_b[t0:t1], a, b, workspace)


def furxy_blocked(statevector: np.ndarray, beta: float, qubit_i: int, qubit_j: int,
                  workspace: KernelWorkspace) -> np.ndarray:
    """Blocked in-place ``exp(-i β (X_i X_j + Y_i Y_j)/2)`` on a qubit pair."""
    if qubit_i == qubit_j:
        raise ValueError("XY rotation requires two distinct qubits")
    n_states = statevector.shape[0]
    lo_q, hi_q = (qubit_i, qubit_j) if qubit_i < qubit_j else (qubit_j, qubit_i)
    if (1 << (hi_q + 1)) > n_states:
        raise ValueError(f"qubit {hi_q} out of range for state vector of length {n_states}")
    a = complex(np.cos(beta))
    b = -1j * complex(np.sin(beta))
    view = statevector.reshape(-1, 2, 1 << (hi_q - lo_q - 1), 2, 1 << lo_q)
    if qubit_i > qubit_j:
        amp_10 = view[:, 1, :, 0, :]
        amp_01 = view[:, 0, :, 1, :]
    else:
        amp_10 = view[:, 0, :, 1, :]
        amp_01 = view[:, 1, :, 0, :]
    _su2_update_views(amp_10, amp_01, a, b, workspace)
    return statevector


def apply_phase_inplace(statevector: np.ndarray, costs: np.ndarray, gamma: float,
                        workspace: KernelWorkspace) -> np.ndarray:
    """Phase operator ``sv[x] *= exp(-i γ c[x])`` with zero heap allocations.

    Works block-by-block: the phase factors for each block are computed into
    the workspace's complex scratch buffer (``exp`` evaluated in place) and
    multiplied into the state vector.
    """
    n = statevector.shape[0]
    if costs.shape[0] != n:
        raise ValueError(f"cost vector length {costs.shape[0]} does not match state length {n}")
    chunk = workspace.block_size
    for s in range(0, n, chunk):
        e = min(s + chunk, n)
        buf = workspace.phase_scratch[: e - s]
        np.multiply(costs[s:e], -1j * gamma, out=buf)
        np.exp(buf, out=buf)
        statevector[s:e] *= buf
    return statevector


# ---------------------------------------------------------------------------
# Batched blocked kernels — (B, 2^n) blocks through the same scratch buffers.
# ---------------------------------------------------------------------------

def _validate_block(svb: np.ndarray) -> tuple[int, int]:
    if svb.ndim != 2:
        raise ValueError(f"batched kernel expects a (B, 2^n) block, got shape {svb.shape}")
    return svb.shape[0], svb.shape[1]


def apply_su2_batch_blocked(svb: np.ndarray, a_rows: np.ndarray, b_rows: np.ndarray,
                            qubit: int, workspace: KernelWorkspace) -> np.ndarray:
    """Blocked batched SU(2): per-row rotations on one qubit of a state block.

    ``a_rows``/``b_rows`` hold one rotation per row.  When a single row's
    half-state exceeds the block size the rows are processed one at a time
    through :func:`apply_su2_blocked` (sharing the workspace); otherwise rows
    are chunked so each vectorized pair update touches at most
    ``workspace.block_size`` amplitudes, with the per-row coefficients
    broadcast along the state axes.
    """
    rows, n_states = _validate_block(svb)
    stride = 1 << qubit
    if qubit < 0 or stride * 2 > n_states:
        raise ValueError(f"qubit {qubit} out of range for state vectors of length {n_states}")
    a_arr = np.asarray(a_rows, dtype=svb.dtype)
    b_arr = np.asarray(b_rows, dtype=svb.dtype)
    if a_arr.shape != (rows,) or b_arr.shape != (rows,):
        raise ValueError(f"coefficient batches must have shape ({rows},)")
    half = n_states >> 1
    if half >= workspace.block_size:
        for r in range(rows):
            apply_su2_blocked(svb[r], complex(a_arr[r]), complex(b_arr[r]),
                              qubit, workspace)
        return svb
    view = svb.reshape(rows, -1, 2, stride)
    rows_per = max(1, workspace.block_size // half)
    for r0 in range(0, rows, rows_per):
        r1 = min(r0 + rows_per, rows)
        lo = view[r0:r1, :, 0, :]
        hi = view[r0:r1, :, 1, :]
        tmp = workspace.pair_scratch[: lo.size].reshape(lo.shape)
        np.copyto(tmp, lo)
        a_c = a_arr[r0:r1, None, None]
        b_c = b_arr[r0:r1, None, None]
        lo *= a_c
        lo -= np.conj(b_c) * hi
        hi *= np.conj(a_c)
        hi += b_c * tmp
    return svb


def furxy_batch_blocked(svb: np.ndarray, betas: np.ndarray, qubit_i: int, qubit_j: int,
                        workspace: KernelWorkspace) -> np.ndarray:
    """Blocked batched XY rotation: per-row angles, rows share the workspace."""
    rows, _ = _validate_block(svb)
    betas_arr = np.broadcast_to(np.asarray(betas, dtype=np.float64), (rows,))
    for r in range(rows):
        furxy_blocked(svb[r], float(betas_arr[r]), qubit_i, qubit_j, workspace)
    return svb


def apply_phase_batch_inplace(svb: np.ndarray, costs: np.ndarray, gammas: np.ndarray,
                              workspace: KernelWorkspace,
                              phase_table=None) -> np.ndarray:
    """Batched phase operator ``svb[b, x] *= exp(-i γ_b c[x])``, zero-allocation.

    With a :class:`~repro.fur.diagonal.DiagonalPhaseTable` the per-chunk phase
    factors are gathered from one ``exp`` over the ``(B, U)`` distinct values;
    otherwise the exponential is evaluated into the workspace scratch (then
    ``costs`` is required; with a table it may be ``None``).  Chunks
    iterate basis states in the outer loop so each cost/index chunk stays
    cache-hot across all rows.
    """
    rows, n = _validate_block(svb)
    if phase_table is None and costs is None:
        raise ValueError("phase application needs a phase_table or costs")
    if costs is not None and costs.shape[0] != n:
        raise ValueError(f"cost vector length {costs.shape[0]} does not match state length {n}")
    gammas_arr = np.broadcast_to(np.asarray(gammas, dtype=np.float64), (rows,))
    chunk = workspace.block_size
    if phase_table is not None:
        factors = phase_table.factors_batch(gammas_arr,
                                            dtype=workspace.phase_scratch.dtype)
        inverse = phase_table.inverse
        for s in range(0, n, chunk):
            e = min(s + chunk, n)
            buf = workspace.phase_scratch[: e - s]
            idx = inverse[s:e]
            for r in range(rows):
                np.take(factors[r], idx, out=buf)
                svb[r, s:e] *= buf
        return svb
    for s in range(0, n, chunk):
        e = min(s + chunk, n)
        buf = workspace.phase_scratch[: e - s]
        for r in range(rows):
            np.multiply(costs[s:e], -1j * gammas_arr[r], out=buf)
            np.exp(buf, out=buf)
            svb[r, s:e] *= buf
    return svb


def expectation_batch_inplace(svb: np.ndarray, costs: np.ndarray,
                              workspace: KernelWorkspace) -> np.ndarray:
    """Per-row blocked ``Σ_x c[x] |ψ_x|²`` of a state block."""
    rows, _ = _validate_block(svb)
    out = np.empty(rows, dtype=np.float64)
    for r in range(rows):
        out[r] = expectation_inplace(svb[r], costs, workspace)
    return out


def expectation_inplace(statevector: np.ndarray, costs: np.ndarray,
                        workspace: KernelWorkspace) -> float:
    """Blocked ``Σ_x c[x] |ψ_x|²`` without allocating a full probability vector."""
    n = statevector.shape[0]
    if costs.shape[0] != n:
        raise ValueError(f"cost vector length {costs.shape[0]} does not match state length {n}")
    chunk = workspace.block_size
    total = 0.0
    for s in range(0, n, chunk):
        e = min(s + chunk, n)
        buf = workspace.real_scratch[: e - s]
        blk = statevector[s:e]
        np.multiply(blk.real, blk.real, out=buf)
        buf += blk.imag * blk.imag
        total += float(np.dot(buf, costs[s:e]))
    return total
