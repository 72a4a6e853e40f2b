"""Precomputation of the diagonal cost operator (Sec. III-A of the paper).

The central optimization of the paper: the diagonal of the problem Hamiltonian
``Ĉ = Σ_x f(x) |x><x|`` is computed once, stored as a 2^n *cost vector*, and
reused (a) every time the phase operator is applied — one element-wise complex
multiply instead of re-simulating O(|T|) gates — and (b) every time the QAOA
objective ``<γβ|Ĉ|γβ>`` is evaluated — one inner product.

The diagonal is the Walsh–Hadamard transform of the term weights indexed by
term mask: with ``a[m]`` the summed weight of the terms whose qubit mask is
``m``, ``c[x] = offset + Σ_m a[m] · (−1)^popcount(x & m)``.  The kernel
(:func:`apply_terms_to_slice`) evaluates it in aligned blocks of ``2^L``
states, ``L = min(16, highest qubit a term touches + 1)``.  Writing
``x = h·2^L + l`` and ``m = m_h·2^L + m_l``, the sign splits into
``(−1)^popcount(h & m_h) · (−1)^popcount(l & m_l)``, so block ``h`` is the
length-``2^L`` transform of the buckets
``b_h[m_l] = Σ w · (−1)^popcount(h & m_h)`` (summed in term order): one
bucketing pass over the terms plus ``L`` butterfly levels.  That is
``O(n · 2^n + |T| · 2^(n−L))`` work instead of the ``O(|T| · 2^n)`` of one
pass over the states per term, with temporaries bounded by the chunk size.

The paper's GPU kernel evaluates ``w · (−1)^popcount(x & mask)`` per term and
state; the transform is the same sum in another order.  It is exact for
integer and dyadic weights (LABS, unweighted MaxCut, 0.5-weighted rings), and
within ``1e-12 · max(1, Σ|w|)`` of the per-term sum for real weights.  The
block width depends on the terms only, and each block is computed whole, so
the value at ``x`` depends on nothing but ``(terms, x)``: any slice, chunk
size or shard count gives bitwise the same values.  That keeps the
precomputation communication-free in the distributed setting (each rank
computes exactly its slice of the cost vector, Sec. III-C), at the price of
rounding a slice out to whole blocks.

What a simulator holds, at either state precision:

* the float64 cost vector, read-only (``get_cost_diagonal()``, shared with
  the diagonal cache): 8 bytes per amplitude, read by the expectation
  reductions and by the direct phase;
* when the diagonal takes at most ``min(2^16, 2^n / 8)`` distinct values
  (LABS, unweighted MaxCut), one :class:`DiagonalPhaseTable`: the sorted
  distinct values and a ``uint16`` index per basis state — the paper's
  storage (Sec. V-B), 2 bytes per 16-byte complex128 amplitude, the
  **12.5 %** overhead quoted in its abstract
  (``diagonal_memory_overhead``).  The phase kernels gather through it.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable
from dataclasses import dataclass

import numpy as np

from ..problems.terms import (
    Term,
    get_offset,
    normalize_terms,
    num_variables,
    validate_terms,
)

__all__ = [
    "term_mask",
    "term_masks_and_weights",
    "precompute_cost_diagonal",
    "precompute_cost_diagonal_slice",
    "precompute_cost_diagonal_from_function",
    "apply_terms_to_slice",
    "DiagonalPhaseTable",
    "build_phase_table",
    "PHASE_TABLE_MAX_VALUES",
    "PHASE_TABLE_MAX_FRACTION",
    "diagonal_memory_bytes",
    "diagonal_memory_overhead",
    "DEFAULT_CHUNK_SIZE",
]

#: Number of basis states processed per vectorized step.  One 2^16 block keeps
#: the two float64 transform buffers (512 KiB each) cache-resident.
DEFAULT_CHUNK_SIZE: int = 1 << 16

#: log2 of the largest Walsh–Hadamard block.  The kernel uses
#: ``min(BLOCK_BITS, highest qubit a term touches + 1)`` bits.
BLOCK_BITS: int = 16


def term_mask(indices: Iterable[int]) -> int:
    """Bit mask with a 1 at every qubit index of the term."""
    mask = 0
    for i in indices:
        mask |= 1 << int(i)
    return mask


def term_masks_and_weights(terms: Iterable[tuple[float, Iterable[int]]],
                           n_qubits: int) -> tuple[np.ndarray, np.ndarray, float]:
    """Split a term list into (masks, weights, constant offset) arrays.

    The masks/weights arrays cover only non-constant terms; the scalar offset
    accumulates all empty-index terms.
    """
    normalized = validate_terms(terms, n_qubits)
    masks: list[int] = []
    weights: list[float] = []
    offset = 0.0
    for w, idx in normalized:
        if len(idx) == 0:
            offset += w
        else:
            masks.append(term_mask(idx))
            weights.append(w)
    return (np.asarray(masks, dtype=np.uint64),
            np.asarray(weights, dtype=np.float64),
            offset)


def _check_floating(dtype: np.dtype | type, what: str) -> None:
    """Reject integer (and complex) output types before they truncate costs."""
    if not np.issubdtype(np.dtype(dtype), np.floating):
        raise ValueError(f"{what} must have a floating dtype, got {np.dtype(dtype)}; "
                         "integer storage is the uint16 index of build_phase_table")


def _block_spectra(low: np.ndarray, high: np.ndarray, weights: np.ndarray,
                   first: int, stop: int, bits: int) -> np.ndarray:
    """Bucketed term weights of blocks ``[first, stop)``, one row of ``2^bits`` each.

    Block ``h`` gets ``w · (−1)^popcount(h & high)`` in bucket ``low`` of
    every term, summed in term order.
    """
    h = np.arange(first, stop, dtype=np.uint64)[:, None]
    signed = (1.0 - 2.0 * (np.bitwise_count(h & high) & 1)) * weights
    bins = (np.arange(stop - first, dtype=np.intp)[:, None] << bits) + low
    return np.bincount(bins.ravel(), weights=signed.ravel(),
                       minlength=(stop - first) << bits)


def _walsh_hadamard(a: np.ndarray, bits: int) -> np.ndarray:
    """Unnormalized Walsh–Hadamard transform of every aligned ``2^bits`` block of ``a``.

    One butterfly level per bit, ping-ponging between ``a`` and one scratch
    buffer; returns whichever holds the result.  Levels with a stride of at
    most 8 run one long strided column at a time: numpy is slow on a short
    innermost axis.
    """
    b = np.empty_like(a)
    for k in range(bits):
        stride = 1 << k
        src = a.reshape(-1, 2, stride)
        dst = b.reshape(-1, 2, stride)
        for j in range(stride) if stride <= 8 else (slice(None),):
            np.add(src[:, 0, j], src[:, 1, j], out=dst[:, 0, j])
            np.subtract(src[:, 0, j], src[:, 1, j], out=dst[:, 1, j])
        a, b = b, a
    return a


def apply_terms_to_slice(masks: np.ndarray, weights: np.ndarray, offset: float,
                         start: int, stop: int,
                         out: np.ndarray | None = None, *,
                         chunk_size: int = DEFAULT_CHUNK_SIZE) -> np.ndarray:
    """Evaluate the cost polynomial on the index range ``[start, stop)``.

    This is the innermost kernel: ``out[x - start] = offset + Σ_k w_k ·
    (−1)^popcount(x & mask_k)``, computed as a blocked Walsh–Hadamard
    transform (see the module docstring).  ``out``, when given, must be a
    floating array of length ``stop - start``; it is overwritten and
    returned.  ``chunk_size`` is the number of states per vectorized step
    (at least one block); it never changes a value.
    """
    if stop < start:
        raise ValueError(f"invalid slice [{start}, {stop})")
    if chunk_size <= 0:
        raise ValueError("chunk_size must be positive")
    length = stop - start
    if out is None:
        out = np.empty(length, dtype=np.float64)
    else:
        _check_floating(out.dtype, "out")
        if out.shape[0] != length:
            raise ValueError(f"output buffer has length {out.shape[0]}, expected {length}")
    if length == 0:
        return out
    masks = np.asarray(masks, dtype=np.uint64)
    weights = np.asarray(weights, dtype=np.float64)
    # The block width depends on the terms alone, never on the slice.
    bits = min(BLOCK_BITS, int(masks.max()).bit_length()) if masks.size else 0
    low = (masks & np.uint64((1 << bits) - 1)).astype(np.intp)
    high = masks >> np.uint64(bits)
    per_step = max(1, chunk_size >> bits)
    last = ((stop - 1) >> bits) + 1
    for first in range(start >> bits, last, per_step):
        stop_block = min(first + per_step, last)
        values = _walsh_hadamard(
            _block_spectra(low, high, weights, first, stop_block, bits), bits)
        base = first << bits
        lo, hi = max(start, base), min(stop, stop_block << bits)
        np.add(values[lo - base:hi - base], offset, out=out[lo - start:hi - start])
    return out


def precompute_cost_diagonal(terms: Iterable[tuple[float, Iterable[int]]],
                             n_qubits: int | None = None,
                             *,
                             dtype: np.dtype | type = np.float64,
                             chunk_size: int = DEFAULT_CHUNK_SIZE,
                             out: np.ndarray | None = None) -> np.ndarray:
    """Precompute the full 2^n cost vector from polynomial terms.

    Parameters
    ----------
    terms:
        Iterable of ``(weight, indices)`` pairs (Eq. 1).
    n_qubits:
        Number of qubits; inferred from the largest index if omitted.
    dtype:
        Floating output dtype (``float64`` by default; ``float32`` supported
        for reduced-memory studies).  Integer storage is the ``uint16``
        index of :func:`build_phase_table`.
    chunk_size:
        Number of basis states per vectorized step.
    out:
        Optional preallocated floating output array of length 2^n.

    Returns
    -------
    numpy.ndarray
        Array ``c`` with ``c[x] = f(x)`` for every basis state ``x``.
    """
    term_list = normalize_terms(terms)
    if n_qubits is None:
        n_qubits = num_variables(term_list)
        if n_qubits == 0:
            raise ValueError("cannot infer qubit count from constant-only terms")
    size = 1 << n_qubits
    masks, weights, offset = term_masks_and_weights(term_list, n_qubits)
    _check_floating(dtype, "dtype")
    if out is None:
        out = np.empty(size, dtype=dtype)
    return apply_terms_to_slice(masks, weights, offset, 0, size, out=out,
                                chunk_size=chunk_size)


def precompute_cost_diagonal_slice(terms: Iterable[tuple[float, Iterable[int]]],
                                   n_qubits: int,
                                   start: int,
                                   stop: int,
                                   *,
                                   dtype: np.dtype | type = np.float64,
                                   chunk_size: int = DEFAULT_CHUNK_SIZE) -> np.ndarray:
    """Precompute only the cost-vector slice ``[start, stop)``.

    The distributed precomputation (Sec. III-C): each rank computes the
    slice corresponding to its portion of the state vector, with no
    communication.  The slice is bitwise equal to the same range of
    :func:`precompute_cost_diagonal`, whatever the bounds and ``chunk_size``.
    """
    size = 1 << n_qubits
    if not (0 <= start <= stop <= size):
        raise ValueError(f"slice [{start}, {stop}) out of range for 2^{n_qubits} states")
    _check_floating(dtype, "dtype")
    masks, weights, offset = term_masks_and_weights(terms, n_qubits)
    return apply_terms_to_slice(masks, weights, offset, start, stop,
                                out=np.empty(stop - start, dtype=dtype),
                                chunk_size=chunk_size)


def precompute_cost_diagonal_from_function(func: Callable[[np.ndarray], float],
                                           n_qubits: int,
                                           *,
                                           dtype: np.dtype | type = np.float64,
                                           vectorized: bool = False) -> np.ndarray:
    """Precompute the cost vector from an arbitrary Python cost function.

    This mirrors QOKit's support for cost functions given as a Python lambda
    rather than as polynomial terms.  ``func`` receives, for each basis state,
    the little-endian bit array (length ``n_qubits``, dtype int64) and must
    return a float.  With ``vectorized=True`` the function instead receives the
    full ``(2^n, n)`` bit matrix and must return a length-2^n vector.
    """
    size = 1 << n_qubits
    idx = np.arange(size, dtype=np.uint64)[:, None]
    shifts = np.arange(n_qubits, dtype=np.uint64)[None, :]
    bits = ((idx >> shifts) & np.uint64(1)).astype(np.int64)
    if vectorized:
        values = np.asarray(func(bits), dtype=np.float64)
        if values.shape != (size,):
            raise ValueError(f"vectorized cost function returned shape {values.shape}, "
                             f"expected ({size},)")
        return values.astype(dtype)
    out = np.empty(size, dtype=dtype)
    for x in range(size):
        out[x] = func(bits[x])
    return out


# ---------------------------------------------------------------------------
# Phase tables — unique-value factorization of the phase operator.
# ---------------------------------------------------------------------------

#: Most distinct values a phase table holds: its index is ``uint16``.
PHASE_TABLE_MAX_VALUES: int = 1 << 16

#: Most distinct values a phase table holds, as a fraction of the diagonal
#: length (2^n / 8 at full length).
PHASE_TABLE_MAX_FRACTION: float = 0.125


@dataclass(frozen=True)
class DiagonalPhaseTable:
    """Unique-value factorization of a cost diagonal for phase application.

    Combinatorial cost diagonals take few distinct values (LABS sidelobe
    energies and unweighted MaxCut sizes are small integers), so the phase
    operator factors as ``exp(-i γ c[x]) = table[inverse[x]]`` with
    ``table = exp(-i γ · unique_values)``.  One transcendental per *unique*
    value plus a gather replaces one transcendental per *basis state* — the
    dominant per-layer saving of the fused batch engine, where the same
    diagonal is phased with many different ``γ`` values.
    """

    #: sorted distinct cost values, shape (U,)
    unique_values: np.ndarray
    #: index of each basis state's cost in ``unique_values``, shape (2^n,),
    #: ``uint16``
    inverse: np.ndarray

    @property
    def n_unique(self) -> int:
        """Number of distinct cost values U."""
        return int(self.unique_values.shape[0])

    def __len__(self) -> int:
        return int(self.inverse.shape[0])

    def __post_init__(self) -> None:
        """Reject a table the kernels could not read safely.

        The ``cc`` kernels and :meth:`apply` read ``inverse`` without a
        bounds check, so every index must address ``unique_values``.
        """
        u, inv = self.unique_values, self.inverse
        if not (isinstance(u, np.ndarray) and u.ndim == 1
                and u.dtype == np.float64):
            raise ValueError("phase table unique_values must be a 1-D "
                             "float64 array")
        if not (isinstance(inv, np.ndarray) and inv.ndim == 1
                and inv.dtype == np.uint16):
            raise ValueError("phase table inverse must be a 1-D uint16 array")
        if inv.size and int(inv.max()) >= u.size:
            raise ValueError(f"phase table index {int(inv.max())} is out of "
                             f"range for {u.size} unique values")

    def factors_batch(self, gammas: np.ndarray,
                      dtype: np.dtype | type = np.complex128) -> np.ndarray:
        """Per-schedule tables ``exp(-i γ_b · unique_values)``, shape (B, U).

        ``dtype`` selects the precision of the gathered factors (the tables
        are tiny, so the exponential is always evaluated in double and
        cast) — single-precision simulators gather ``complex64`` factors so
        the full-width multiply into the state stays at state precision.
        """
        g = np.atleast_1d(np.asarray(gammas, dtype=np.float64))
        table = np.exp(np.outer(g, self.unique_values) * (-1j))
        return table.astype(dtype, copy=False)

    def apply(self, block: np.ndarray, factors: np.ndarray, start: int,
              buf: np.ndarray) -> None:
        """``block[r] *= factors[r][inverse[start:start + width]]``, in place.

        ``block`` is a ``(rows, width)`` view of basis states ``start`` on
        and ``factors`` the ``(rows, U)`` tables of :meth:`factors_batch`.
        Each row's factors are gathered into ``buf`` (at least ``width``
        long, the block's dtype) with ``mode="wrap"``: the constructor
        checked the index range, and numpy's default bounds-checked mode
        buffers ``out`` on every call.
        """
        idx = self.inverse[start:start + block.shape[1]]
        out = buf[:idx.size]
        for r in range(block.shape[0]):
            np.take(factors[r], idx, out=out, mode="wrap")
            block[r] *= out


def build_phase_table(costs: np.ndarray) -> DiagonalPhaseTable | None:
    """Build a :class:`DiagonalPhaseTable` when the diagonal is repetitive enough.

    Returns ``None`` when the distinct-value count exceeds
    :data:`PHASE_TABLE_MAX_VALUES` (the ``uint16`` index) or
    :data:`PHASE_TABLE_MAX_FRACTION` of the diagonal length (e.g. generic
    real-weighted problems, where almost every basis state has a distinct
    cost): those diagonals take the direct phase, one vectorized sin/cos
    per amplitude.  The gather is the cheaper of the two on the ``cc``
    rung, but not by much — one-row fused phase + X mixer, n=18
    complex64, 2-vCPU Xeon, median ms: no phase 0.71, table 0.85, direct
    1.22 — while its index costs a set-up pass and 2 bytes per amplitude,
    so the limit keeps it for repetitive diagonals only.

    Integer-valued diagonals whose range spans fewer values than the
    diagonal has entries (LABS, unweighted MaxCut) get their distinct
    values by counting, with no sort; any other diagonal is declined as
    soon as a prefix already holds more distinct values than the limit,
    before the full sort.
    """
    arr = np.asarray(costs, dtype=np.float64)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError("phase table requires a non-empty 1-D cost diagonal")
    limit = max(2, min(PHASE_TABLE_MAX_VALUES,
                       int(arr.size * PHASE_TABLE_MAX_FRACTION)))
    offsets = _integer_offsets(arr)
    if offsets is not None:
        present = np.flatnonzero(np.bincount(offsets))
        if present.size > limit:
            return None
        slot = np.zeros(int(present[-1]) + 1, dtype=np.uint16)
        slot[present] = np.arange(present.size)
        unique, inverse = present + arr.min(), slot[offsets]
    else:
        # a subset's distinct count is a lower bound on the whole's
        if arr.size > limit + 1 and np.unique(arr[:limit + 1]).size > limit:
            return None
        unique, inverse = np.unique(arr, return_inverse=True)
        if unique.size > limit:
            return None
        inverse = inverse.astype(np.uint16)
    # Tables are cached on simulators and inside compiled execution plans and
    # shared by every evaluation — read-only, like the diagonal cache.
    unique.setflags(write=False)
    inverse.setflags(write=False)
    return DiagonalPhaseTable(unique_values=unique, inverse=inverse)


def _integer_offsets(arr: np.ndarray) -> np.ndarray | None:
    """``arr - min(arr)`` as int64, or ``None`` unless ``arr`` holds
    integers of magnitude at most 2^53 whose range spans fewer values than
    ``arr`` has entries (then the distinct values can be counted)."""
    lo, hi = float(arr.min()), float(arr.max())
    if not (-2.0 ** 53 <= lo and hi <= 2.0 ** 53 and hi - lo < arr.size):
        return None  # also NaN and inf
    offsets = arr.astype(np.int64)
    if not np.array_equal(offsets, arr):
        return None
    offsets -= int(lo)
    return offsets


def diagonal_memory_bytes(n_qubits: int, dtype: np.dtype | type = np.float64) -> int:
    """Memory required to store a full 2^n cost vector of the given dtype."""
    return (1 << n_qubits) * np.dtype(dtype).itemsize


def diagonal_memory_overhead(n_qubits: int,
                             diag_dtype: np.dtype | type = np.float64,
                             state_dtype: np.dtype | type = np.complex128) -> float:
    """Relative memory overhead of storing the diagonal next to the state vector.

    A full-precision float64 diagonal next to a complex128 state vector is a
    50 % overhead; the ``uint16`` phase-table index used for LABS (Sec. V-B)
    is 2/16 = 12.5 %, which is the figure quoted in the paper's abstract.
    """
    return np.dtype(diag_dtype).itemsize / np.dtype(state_dtype).itemsize
