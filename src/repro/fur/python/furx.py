"""Fast uniform SU(2) rotations on a state vector (Algorithms 1 and 2).

These kernels implement the paper's mixer-application primitive: a single
SU(2) rotation applied to one qubit of a 2^n state vector, in place
(Algorithm 1), and the "uniform" transform applying the same rotation to every
qubit in sequence (Algorithm 2).  For the transverse-field mixer
``exp(-i β Σ_i X_i)`` the per-qubit rotation is ``exp(-i β X)``; one full pass
over all qubits has the same cost as one fast Walsh–Hadamard transform, which
is the minimum possible for an operator coupling all 2^n amplitudes.

The single-vector kernels (:func:`apply_su2`, :func:`furx_all`) are the
reference loop of the ``python`` backend: they reshape the state vector so the
target qubit becomes an explicit axis and update the two half-slices with
vectorized arithmetic, through one temporary of half the state-vector size
(the paper's CUDA kernel updates amplitude pairs truly in place).  The block
kernels below serve :mod:`repro.fur.python.kernels`, the NumPy block tier: the
X mixer as gemm-grouped passes over a ``(B, 2^n)`` block, fused with the phase
on its first pass, and the chunked direct phase.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "apply_su2",
    "direct_phase_batch",
    "furx",
    "furx_all",
    "furx_all_batch",
    "furx_phase_all_batch",
    "su2_x_rotation",
    "su2_x_rotation_batch",
    "fwht_inplace",
]

#: Qubits fused per gemm pass of the batched mixer (2^4 = 16-dim group
#: unitaries keep the matmul arithmetic-intensity high without blowing up the
#: 2^k per-group flop count).
BATCH_GROUP_QUBITS: int = 4


def su2_x_rotation(beta: float) -> tuple[complex, complex]:
    """SU(2) parameters ``(a, b)`` of ``exp(-i β X)``.

    The gate is ``cos(β) I − i sin(β) X``; in the paper's parameterization
    ``U = [[a, −b*], [b, a*]]`` this is ``a = cos β``, ``b = −i sin β``.
    """
    return complex(np.cos(beta)), -1j * complex(np.sin(beta))


def apply_su2(statevector: np.ndarray, a: complex, b: complex, qubit: int) -> np.ndarray:
    """Apply ``U = [[a, −b*], [b, a*]]`` to ``qubit`` of ``statevector``, in place.

    This is Algorithm 1 with the index arithmetic replaced by a reshape: axis
    layout ``(high bits, target bit, low bits)`` exposes the amplitude pairs
    ``(y_{l1}, y_{l2})`` as two contiguous slabs.

    Parameters
    ----------
    statevector:
        Complex array of length 2^n, modified in place and also returned.
    a, b:
        SU(2) matrix entries (``|a|² + |b|² = 1`` for a unitary; not enforced,
        which allows non-unitary SU(2)-shaped updates in tests).
    qubit:
        Target qubit, with qubit ``q`` addressing stride ``2**q``.
    """
    n_states = statevector.shape[0]
    stride = 1 << qubit
    if qubit < 0 or stride * 2 > n_states:
        raise ValueError(f"qubit {qubit} out of range for state vector of length {n_states}")
    # Cast the coefficients to the state dtype so complex64 states never pay
    # for widened complex128 temporaries in the pair update.
    a = statevector.dtype.type(a)
    b = statevector.dtype.type(b)
    view = statevector.reshape(-1, 2, stride)
    lo = view[:, 0, :]
    hi = view[:, 1, :]
    tmp = lo.copy()
    # y_l1 <- a*y_l1 - b*.y_l2 ; y_l2 <- b*y_l1_old + a*.y_l2   (simultaneous)
    lo *= a
    lo -= np.conj(b) * hi
    hi *= np.conj(a)
    hi += b * tmp
    return statevector


def furx(statevector: np.ndarray, beta: float, qubit: int) -> np.ndarray:
    """Apply ``exp(-i β X)`` to a single qubit, in place (one mixer factor)."""
    a, b = su2_x_rotation(beta)
    return apply_su2(statevector, a, b, qubit)


def furx_all(statevector: np.ndarray, beta: float, n_qubits: int) -> np.ndarray:
    """Apply the full transverse-field mixer ``exp(-i β Σ_i X_i)``, in place.

    This is Algorithm 2: the product of commuting single-qubit rotations is
    applied one qubit at a time.  At ``β = π/2`` the operation reduces (up to a
    global phase) to the Walsh–Hadamard transform, the connection highlighted
    in Sec. III-B of the paper.
    """
    if statevector.shape[0] != (1 << n_qubits):
        raise ValueError(
            f"state vector length {statevector.shape[0]} does not match n={n_qubits}"
        )
    a, b = su2_x_rotation(beta)
    for q in range(n_qubits):
        apply_su2(statevector, a, b, q)
    return statevector


# ---------------------------------------------------------------------------
# Batched kernels — one NumPy op covers a whole (B, 2^n) block of states.
# ---------------------------------------------------------------------------

def su2_x_rotation_batch(betas: np.ndarray,
                         dtype: np.dtype | type = np.complex128
                         ) -> tuple[np.ndarray, np.ndarray]:
    """Per-schedule SU(2) parameters ``(a_b, b_b)`` of ``exp(-i β_b X)``."""
    b_arr = np.asarray(betas, dtype=np.float64)
    return (np.cos(b_arr).astype(dtype),
            (-1j * np.sin(b_arr)).astype(dtype))


def _su2_batch_matrices(betas: np.ndarray,
                        dtype: np.dtype | type = np.complex128) -> np.ndarray:
    """Stacked single-qubit mixers ``exp(-i β_b X)``, shape (B, 2, 2)."""
    a, b = su2_x_rotation_batch(betas, dtype=dtype)
    u = np.empty((a.shape[0], 2, 2), dtype=dtype)
    u[:, 0, 0] = a
    u[:, 1, 1] = a
    u[:, 0, 1] = b
    u[:, 1, 0] = b
    return u


def _group_kron(u: np.ndarray, k: int) -> np.ndarray:
    """Row-wise ``u ⊗ … ⊗ u`` (k factors), shape (B, 2^k, 2^k).

    All factors are equal, so the qubit-ordering of the Kronecker product is
    irrelevant; the result is the group unitary on ``k`` adjacent qubits.
    """
    out = u
    for _ in range(k - 1):
        d = out.shape[1]
        out = (out[:, :, None, :, None] * u[:, None, :, None, :]).reshape(-1, 2 * d, 2 * d)
    return out


def furx_all_batch(block: np.ndarray, betas: np.ndarray, n_qubits: int, *,
                   scratch: np.ndarray | None = None) -> np.ndarray:
    """Batched Algorithm 2: ``exp(-i β_b Σ_i X_i)`` on every row of a block.

    Instead of 2×2 pair updates (one memory sweep per qubit), qubits are fused
    into groups of ``BATCH_GROUP_QUBITS``: each pass contracts a
    ``(2^k, 2^k)`` per-row group unitary against the block via one stacked
    ``matmul``, which cuts the number of full-block memory sweeps by the
    group size and turns the mixer into gemm work.  Passes ping-pong
    between ``block`` and ``scratch``; the result is written back into
    ``block`` (modified in place and returned).

    ``scratch`` must be a buffer with ``block``'s shape and dtype (allocated
    here when omitted; callers evolving many layers should preallocate one).
    """
    rows, _ = _validate_group_kernel_block(block, n_qubits)
    betas_arr = np.broadcast_to(np.asarray(betas, dtype=np.float64), (rows,))
    # Group unitaries at the block's dtype: the stacked matmuls then dispatch
    # to the matching-precision gemm instead of a widened fallback.
    u = _su2_batch_matrices(betas_arr, dtype=block.dtype)
    scratch = _check_scratch(block, scratch)
    return _group_pass_loop(block, scratch, u, n_qubits, 0)


def _validate_group_kernel_block(block: np.ndarray,
                                 n_qubits: int) -> tuple[int, int]:
    """Shared argument validation of the gemm-grouped batch kernels."""
    if block.ndim != 2:
        raise ValueError(f"batched kernel expects a (B, 2^n) block, got shape {block.shape}")
    rows, n_states = block.shape
    if n_states != (1 << n_qubits):
        raise ValueError(
            f"state vectors of length {n_states} do not match n={n_qubits}"
        )
    return rows, n_states


def _check_scratch(block: np.ndarray, scratch: np.ndarray | None) -> np.ndarray:
    if scratch is None:
        return np.empty_like(block)
    if scratch.shape != block.shape or scratch.dtype != block.dtype:
        raise ValueError("scratch must match the block's shape and dtype")
    return scratch


def _group_pass_loop(block: np.ndarray, scratch: np.ndarray, u: np.ndarray,
                     n_qubits: int, q_start: int,
                     start_in_scratch: bool = False) -> np.ndarray:
    """The gemm-grouped pass loop over qubits ``q_start … n−1``.

    Passes ping-pong between ``block`` and ``scratch``; the final result is
    written back into ``block``.  ``start_in_scratch`` indicates the current
    state lives in ``scratch`` (used by the fused phase kernel, whose first
    pass lands there).
    """
    rows, n_states = block.shape
    src, dst = (scratch, block) if start_in_scratch else (block, scratch)
    q = q_start
    while q < n_qubits:
        k = min(BATCH_GROUP_QUBITS, n_qubits - q)
        group_u = _group_kron(u, k)
        dim = 1 << k
        stride = 1 << q
        groups = n_states // (dim * stride)
        if stride == 1:
            # Group axis is contiguous-last: one big (rows·groups, dim) gemm
            # per row against U^T beats a degenerate stride-1 stacked matmul.
            np.matmul(src.reshape(rows, groups, dim), group_u.transpose(0, 2, 1),
                      out=dst.reshape(rows, groups, dim))
        else:
            np.matmul(group_u[:, None], src.reshape(rows, groups, dim, stride),
                      out=dst.reshape(rows, groups, dim, stride))
        src, dst = dst, src
        q += k
    if src is not block:
        np.copyto(block, src)
    return block


#: Elements of the direct phase's reused buffers: one complex128 angle tile
#: and, at single precision, one complex64 factor tile.
_DIRECT_PHASE_CHUNK: int = 1 << 16


def direct_phase_batch(block: np.ndarray, gammas: np.ndarray,
                       costs: np.ndarray) -> None:
    """Phase ``row_r *= exp(-i γ_r c)`` on a ``(rows, m)`` block, in place.

    The angle and the exponential are evaluated in double, one (row group,
    basis chunk) tile of at most ``_DIRECT_PHASE_CHUNK`` elements at a time,
    into reused buffers, and rounded once to the block's precision.
    """
    rows, n = block.shape
    coeff = -1j * np.asarray(gammas, dtype=np.float64)
    cols = min(n, _DIRECT_PHASE_CHUNK)
    step = min(rows, max(1, _DIRECT_PHASE_CHUNK // cols))
    wide = np.empty((step, cols), dtype=np.complex128)
    factors = (wide if block.dtype == np.complex128
               else np.empty((step, cols), dtype=block.dtype))
    for r0 in range(0, rows, step):
        k = min(step, rows - r0)
        for s in range(0, n, cols):
            e = min(s + cols, n)
            np.multiply(coeff[r0:r0 + k, None], costs[s:e], out=wide[:k, :e - s])
            np.exp(wide[:k, :e - s], out=factors[:k, :e - s])
            block[r0:r0 + k, s:e] *= factors[:k, :e - s]


#: Amplitudes (summed over all rows) per chunk of the fused phase+first-pass
#: sweep — ~4 MiB of complex128 (8192 columns at the benchmark's B=32), the
#: measured sweet spot where the freshly phased chunk is still cache-warm for
#: the first group gemm while the per-chunk dispatch overhead stays amortized.
_FUSED_PHASE_CHUNK: int = 1 << 18


def furx_phase_all_batch(block: np.ndarray, gammas: np.ndarray, betas: np.ndarray,
                         n_qubits: int, *,
                         phase_table=None, costs: np.ndarray | None = None,
                         scratch: np.ndarray | None = None,
                         phase_buf: np.ndarray | None = None) -> np.ndarray:
    """Fused layer kernel: per-row ``exp(-i β_b Σ X_i) · exp(-i γ_b C)``.

    The separate batched phase sweep re-streams the whole ``(B, 2^n)`` block
    through memory before the mixer touches it; here the phase rides the
    mixer's chunk traversal instead.  The state axis is walked in cache-
    sized column chunks: each chunk is phased in place (factors gathered
    through the unique-value table when one applies, direct ``exp`` over
    ``costs`` otherwise) and the mixer's leading stride-1 group gemm runs on
    it immediately, reading the freshly phased chunk cache-hot through a
    contiguous view — phase + first pass stream the block exactly once.
    Only that leading pass joins the chunk loop: chunking the wider-stride
    passes splits them into strided sub-gemms that fall off the BLAS fast
    path and cost more than the cache locality buys (measured).  The
    remaining passes run the standard ping-pong loop, with the chunk-local
    pass alternating buffers exactly like the global loop would — parity
    works out with no extra copy-back.  ``phase_buf`` optionally supplies
    the per-chunk table gather buffer (and bounds the chunk width), so
    warmed-up layers allocate nothing.  Numerics are identical to the phase
    followed by :func:`furx_all_batch`: the batched group gemms are
    per-group independent, so chunking the group axis does not change a
    single floating-point operation.
    """
    rows, n_states = _validate_group_kernel_block(block, n_qubits)
    if phase_table is None and costs is None:
        raise ValueError("provide a phase_table or a costs diagonal")
    gammas_arr = np.broadcast_to(np.asarray(gammas, dtype=np.float64), (rows,))
    betas_arr = np.broadcast_to(np.asarray(betas, dtype=np.float64), (rows,))
    u = _su2_batch_matrices(betas_arr, dtype=block.dtype)
    scratch = _check_scratch(block, scratch)
    if phase_table is not None:
        factors = phase_table.factors_batch(gammas_arr, dtype=block.dtype)
    # Per-row chunk width: a power of two so every chunk-local pass's group
    # extent divides it, shrunk to a caller-provided gather buffer rather
    # than allocating a bigger one (warmed-up layers stay allocation-free).
    cols = max(1, _FUSED_PHASE_CHUNK // max(rows, 1))
    cols = 1 << (cols.bit_length() - 1)
    if phase_buf is not None:
        cols = min(cols, 1 << (int(phase_buf.shape[0]).bit_length() - 1))
    cols = min(cols, n_states)
    if phase_table is not None and phase_buf is None:
        phase_buf = np.empty(cols, dtype=block.dtype)
    # At most the leading stride-1 pass runs inside the chunk loop (see the
    # docstring for why wider-stride passes stay global).
    k = min(BATCH_GROUP_QUBITS, n_qubits)
    dim = 1 << k
    fuse_first_pass = dim <= cols
    if fuse_first_pass:
        gmat = _group_kron(u, k).transpose(0, 2, 1)
        view_src = block.reshape(rows, -1, dim)
        view_dst = scratch.reshape(rows, -1, dim)
    for s in range(0, n_states, cols):
        e = min(s + cols, n_states)
        if phase_table is None:
            direct_phase_batch(block[:, s:e], gammas_arr, costs[s:e])
        else:
            phase_table.apply(block[:, s:e], factors, s, phase_buf)
        if fuse_first_pass:
            np.matmul(view_src[:, s // dim:e // dim], gmat,
                      out=view_dst[:, s // dim:e // dim])
    # Continue the ping-pong from wherever the fused pass left the state
    # (scratch when the first pass ran inside the chunk loop).
    return _group_pass_loop(block, scratch, u, n_qubits,
                            k if fuse_first_pass else 0,
                            start_in_scratch=fuse_first_pass)


def fwht_inplace(vector: np.ndarray) -> np.ndarray:
    """Unnormalized fast Walsh–Hadamard transform, in place.

    Provided for the mixer-strategy ablation (Sec. VII discusses the
    alternative of simulating the mixer with two WHTs sandwiching a diagonal):
    ``exp(-i β Σ X_i) = H^{⊗n} · exp(-i β Σ Z_i) · H^{⊗n}``.  The butterfly
    below is the standard radix-2 transform with the same access pattern as
    :func:`apply_su2`.
    """
    n_states = vector.shape[0]
    if n_states & (n_states - 1):
        raise ValueError("FWHT requires a power-of-two length")
    h = 1
    while h < n_states:
        view = vector.reshape(-1, 2, h)
        lo = view[:, 0, :].copy()
        hi = view[:, 1, :]
        view[:, 0, :] = lo + hi
        view[:, 1, :] = lo - hi
        h *= 2
    return vector
