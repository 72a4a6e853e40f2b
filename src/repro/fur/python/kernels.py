"""Block kernels of the portable NumPy tier.

These are the ``python`` backend's batched kernels and the ``jit``
backend's compiler-less ``numpy`` rung: :mod:`repro.fur.jit.kernels`
forwards every public kernel here when that rung is live, and the functions
keep its names and signatures (``tile_q`` is accepted and unused).  Each
one works in place on a C-contiguous ``(rows, 2^n)`` block:

* the X mixer, alone or with the phase riding its first pass, runs the
  gemm-grouped passes of :func:`~repro.fur.python.furx.furx_all_batch` and
  :func:`~repro.fur.python.furx.furx_phase_all_batch`, which ping-pong
  through a block-shaped ``scratch`` (so :func:`mixer_needs_scratch` is
  always true here);
* the phase, X rotations at given positions and XY edges are blocked sweeps
  through a per-thread scratch of ``_NP_CHUNK`` amplitudes;
* the expectation is a row-independent float64 reduction.

Nothing here builds or loads the ``cc`` rung's C library.
"""

from __future__ import annotations

import threading
from typing import Any

import numpy as np

from .furx import (
    direct_phase_batch,
    furx_all_batch,
    furx_phase_all_batch,
    su2_x_rotation_batch,
)
from .furxy import complete_edges, ring_edges

__all__ = [
    "phase_block",
    "rotate_x_block",
    "furx_block",
    "furx_phase_block",
    "furx_expectation_block",
    "furxy_block",
    "expectation_block",
    "mixer_needs_scratch",
    "mixer_edges",
]

#: Amplitudes per chunk of the blocked sweeps — the length of the two
#: per-thread scratch buffers.  A pair update streams four arrays of this
#: length (both halves, the copy and the product temporary): 1 MiB at 2^14
#: complex128.  On a 2-vCPU Xeon (2 MiB L2 per core) 2^16 made 32-row X
#: sweeps at n = 14/16 20-25% slower.
_NP_CHUNK = 1 << 14

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

_local = threading.local()


# --------------------------------------------------------------------------
# Argument checks shared with the compiled rung.
# --------------------------------------------------------------------------

def check_block(block: np.ndarray) -> tuple[int, int, int]:
    """``(rows, 2^n, n)`` of a C-contiguous block, or ``ValueError``."""
    if block.ndim != 2 or not block.flags.c_contiguous:
        raise ValueError("block must be a C-contiguous (rows, 2^n) array")
    rows, n_states = block.shape
    n_qubits = int(n_states).bit_length() - 1
    if (1 << n_qubits) != n_states:
        raise ValueError(f"block width {n_states} is not a power of two")
    return rows, n_states, n_qubits


def check_positions(positions: Any, n_qubits: int) -> np.ndarray:
    """Rotation bit positions as a 1-D int64 array, each in ``[0, n)``."""
    pos = np.ascontiguousarray(positions, dtype=np.int64)
    if pos.ndim != 1 or (pos.size and (pos.min() < 0
                                       or pos.max() >= n_qubits)):
        raise ValueError(f"positions must be bit positions in [0, {n_qubits})")
    return pos


def edge_array(edges: Any, n_qubits: int) -> np.ndarray:
    """Ordered XY edges as a C-contiguous ``(E, 2)`` int64 array, each row
    normalized to (low, high) — value-preserving, because the subspace
    butterfly is symmetric under swapping its two amplitudes."""
    e = np.sort(np.asarray(edges, dtype=np.int64).reshape(-1, 2), axis=1)
    if e.size and (e.min() < 0 or e.max() >= n_qubits
                   or bool((e[:, 0] == e[:, 1]).any())):
        raise ValueError(f"edges must pair distinct qubits in [0, {n_qubits})")
    return np.ascontiguousarray(e)


def mixer_edges(kind: str, n_qubits: int) -> np.ndarray:
    """The ordered, (low, high)-normalized edge list of one XY mixer.

    Matches the application order of the reference loop's
    :func:`~repro.fur.python.furxy.furxy_ring`/``furxy_complete`` exactly —
    the XY mixer is an *ordered* product, so edge order is part of the
    contract.
    """
    if kind not in ("ring", "complete"):
        raise ValueError(f"kind must be 'ring' or 'complete', got {kind!r}")
    pairs = (ring_edges(n_qubits) if kind == "ring"
             else complete_edges(n_qubits))
    return edge_array(pairs, n_qubits)


# --------------------------------------------------------------------------
# Public kernels.
# --------------------------------------------------------------------------

def mixer_needs_scratch() -> bool:
    """The X mixer's gemm passes always ping-pong through a second block."""
    return True


def phase_block(block: np.ndarray, gammas: np.ndarray, *,
                phase_table: Any = None,
                costs: np.ndarray | None = None) -> None:
    """Phase operator ``row_r *= exp(-i γ_r c)`` on every row, in place.

    A table phase gathers basis chunks in the outer loop, so each index
    chunk stays cache-hot across all rows; the direct phase is
    :func:`~repro.fur.python.furx.direct_phase_batch`.
    """
    rows, n, _ = check_block(block)
    g = np.broadcast_to(np.asarray(gammas, dtype=np.float64), (rows,))
    if phase_table is None:
        if costs is None:
            raise ValueError("phase application needs a phase_table or costs")
        direct_phase_batch(block, g, costs)
        return
    factors = phase_table.factors_batch(g, dtype=block.dtype)
    buf = _scratch(block)[1]
    for s in range(0, n, buf.size):
        phase_table.apply(block[:, s:s + buf.size], factors, s, buf)


def rotate_x_block(block: np.ndarray, betas: np.ndarray, positions: Any, *,
                   gammas: np.ndarray | None = None, phase_table: Any = None,
                   costs: np.ndarray | None = None,
                   tile_q: int | None = None) -> None:
    """Optional phase, then ``exp(-i β_r X)`` at each bit position, in place.

    The blocked pair update per position: its arithmetic does not depend on
    the position, so a qubit rotated at a relabelled position (the sharded
    backends' global step) gets the same bits as at its home position.
    """
    rows, _, n_qubits = check_block(block)
    pos = check_positions(positions, n_qubits)
    if gammas is not None:
        phase_block(block, gammas, phase_table=phase_table, costs=costs)
    pair = _scratch(block)[0]
    a, b = su2_x_rotation_batch(betas, dtype=block.dtype)
    for q in pos.tolist():
        view = block.reshape(rows, -1, 1, 2, 1 << q)
        _rows_update(view[:, :, :, 0], view[:, :, :, 1], a, b, pair)


def furx_phase_block(block: np.ndarray, gammas: np.ndarray | None,
                     betas: np.ndarray, *, phase_table: Any = None,
                     costs: np.ndarray | None = None,
                     tile_q: int | None = None,
                     scratch: np.ndarray | None = None) -> None:
    """Fused phase + full X mixer on every row of a block, in place.

    ``gammas=None`` skips the phase (plain ``exp(-i β_r Σ X)``).  The gemm
    passes ping-pong through ``scratch`` (a block-shaped buffer, allocated
    per call when ``None``).
    """
    _, _, n_qubits = check_block(block)
    if gammas is None:
        furx_all_batch(block, betas, n_qubits, scratch=scratch)
    else:
        furx_phase_all_batch(block, gammas, betas, n_qubits,
                             phase_table=phase_table, costs=costs,
                             scratch=scratch, phase_buf=_scratch(block)[1])


def furx_block(block: np.ndarray, betas: np.ndarray, *,
               tile_q: int | None = None,
               scratch: np.ndarray | None = None) -> None:
    """Full X mixer ``exp(-i β_r Σ_i X_i)`` on every row, in place."""
    furx_phase_block(block, None, betas, scratch=scratch)


def furx_expectation_block(block: np.ndarray, gammas: np.ndarray | None,
                           betas: np.ndarray, ecosts: np.ndarray, *,
                           phase_table: Any = None,
                           costs: np.ndarray | None = None,
                           tile_q: int | None = None,
                           scratch: np.ndarray | None = None) -> np.ndarray:
    """(Phase +) X mixer, then per-row ``Σ c|ψ|²`` (float64); the block
    holds the evolved state afterwards."""
    furx_phase_block(block, gammas, betas, phase_table=phase_table,
                     costs=costs, scratch=scratch)
    return expectation_block(block, ecosts)


def furxy_block(block: np.ndarray, gammas: np.ndarray | None,
                betas: np.ndarray, *, edges: Any, n_trotters: int = 1,
                phase_table: Any = None,
                costs: np.ndarray | None = None) -> None:
    """(Phase +) ordered XY mixer over an explicit edge list, in place.

    Applies ``n_trotters`` repetitions at angle ``β_r / n_trotters``, one
    ``{|01>,|10>}`` rotation per ``(i, j)`` pair of ``edges`` in the given
    order (:func:`mixer_edges` gives the ring and complete mixers' order).
    """
    rows, _, n_qubits = check_block(block)
    edges = edge_array(edges, n_qubits)
    if gammas is not None:
        phase_block(block, gammas, phase_table=phase_table, costs=costs)
    pair = _scratch(block)[0]
    betas = np.ascontiguousarray(betas, dtype=np.float64) / n_trotters
    a, b = su2_x_rotation_batch(betas, dtype=block.dtype)
    for _ in range(n_trotters):
        for i, j in edges.tolist():
            view = block.reshape(rows, -1, 2, 1 << (j - i - 1), 2, 1 << i)
            _rows_update(view[:, :, 0, :, 1], view[:, :, 1, :, 0], a, b,
                         pair)


def expectation_block(block: np.ndarray, ecosts: np.ndarray) -> np.ndarray:
    """Per-row ``Σ_x c[x] |ψ_x|²`` of a block (float64, one segment of
    :func:`segment_expectations`)."""
    ecosts = np.ascontiguousarray(ecosts, dtype=np.float64)
    return segment_expectations(block, ecosts, block.shape[1])[:, 0]


def segment_expectations(block: np.ndarray, costs: np.ndarray,
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


# --------------------------------------------------------------------------
# Blocked sweeps.
# --------------------------------------------------------------------------

def _scratch(block: np.ndarray) -> np.ndarray:
    """This thread's ``(2, chunk)`` scratch: pair temporaries, phase factors.

    ``chunk`` is ``_NP_CHUNK`` or the whole block when that is smaller.
    Kept across calls (one per thread, re-made when it is too short or the
    dtype changes) so warmed-up layers allocate no scratch.
    """
    size = min(_NP_CHUNK, block.size)
    buf = getattr(_local, "scratch", None)
    if buf is None or buf.shape[1] < size or buf.dtype != block.dtype:
        buf = _local.scratch = np.empty((2, size), dtype=block.dtype)
    return buf[:, :size]


def _pair(lo, hi, a, b, pair):
    """``A ← a·A − b*·B``, ``B ← b·A + a*·B`` on two equal-shaped views.

    With ``a = cos β`` and ``b = −i sin β`` every complex product has one
    zero component, so each output is the two-rounding formula of the
    compiled butterfly whatever numpy's multiply loop fuses, and whether
    ``a``/``b`` are scalars or per-row arrays broadcast along the state.
    """
    tmp = pair[:lo.size].reshape(lo.shape)
    np.copyto(tmp, lo)
    lo *= a
    lo -= np.conj(b) * hi
    hi *= np.conj(a)
    hi += b * tmp


def _pair_update(amp_a, amp_b, a, b, pair):
    """:func:`_pair` over two 3-D views, chunked to fit ``pair``.

    Chunks adapt to the view shape so the Python-level iteration count
    stays near ``size / chunk``.
    """
    n_top, n_mid, n_low = amp_a.shape
    chunk = pair.size
    if n_low >= chunk:
        keys = [(t, m, slice(c0, c0 + chunk)) for t in range(n_top)
                for m in range(n_mid) for c0 in range(0, n_low, chunk)]
    elif n_mid * n_low >= chunk:
        per = chunk // n_low
        keys = [(t, slice(m0, m0 + per)) for t in range(n_top)
                for m0 in range(0, n_mid, per)]
    else:
        per = chunk // (n_mid * n_low)
        keys = [slice(t0, t0 + per) for t0 in range(0, n_top, per)]
    for key in keys:
        _pair(amp_a[key], amp_b[key], a, b, pair)


def _rows_update(amp_a, amp_b, a, b, pair):
    """Pair update on ``(rows, ·, ·, ·)`` views with per-row ``a``, ``b``.

    When several rows' pairs fit ``pair`` they go into one vectorized
    update, the coefficients broadcast along the state axes; otherwise each
    row runs the chunked :func:`_pair_update`.
    """
    rows = amp_a.shape[0]
    rows_per = pair.size // amp_a[0].size
    if rows_per < 2:
        for r in range(rows):
            _pair_update(amp_a[r], amp_b[r], a[r], b[r], pair)
        return
    a, b = a[:, None, None, None], b[:, None, None, None]
    for r0 in range(0, rows, rows_per):
        rs = slice(r0, r0 + rows_per)
        _pair(amp_a[rs], amp_b[rs], a[rs], b[rs], pair)
