"""Polynomial-over-spins representation of cost functions (Eq. 1 of the paper).

A cost function ``f`` on the Boolean cube is expressed as a polynomial in spin
variables ``s_i ∈ {-1, +1}``::

    f(s) = sum_k  w_k * prod_{i in t_k} s_i

and is represented as a list of *terms* ``(w_k, t_k)`` where ``w_k`` is a real
weight and ``t_k`` is a tuple of distinct qubit indices.  A constant offset is
encoded as a term with an empty index tuple ``(w_offset, ())``.

Bit / spin convention: basis-state index ``x`` has bit ``q``
equal to ``b_q``, and the corresponding spin is ``s_q = 1 - 2 b_q``; i.e. bit 0
(state ``|0>``) maps to spin ``+1``.  Consequently a term ``(w, t)`` evaluated
on basis state ``x`` equals ``w * (-1)**popcount(x & mask(t))``.

This module provides the canonical term container :class:`TermsPolynomial`,
term-algebra helpers (simplification, products, scaling), and reference
(brute-force) evaluators used throughout the test-suite to validate the fast
precomputation kernels.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Sequence
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Term",
    "TermsPolynomial",
    "normalize_terms",
    "terms_from_dict",
    "terms_to_dict",
    "simplify_terms",
    "multiply_terms",
    "scale_terms",
    "add_terms",
    "negate_terms",
    "remove_offset",
    "get_offset",
    "max_term_order",
    "num_variables",
    "validate_terms",
    "evaluate_term",
    "evaluate_terms_on_spins",
    "evaluate_terms_on_bits",
    "evaluate_terms_on_index",
    "brute_force_cost_vector",
    "spins_from_index",
    "bits_from_index",
    "index_from_bits",
    "index_from_spins",
    "all_spin_configurations",
]

#: A single polynomial term: ``(weight, (i_1, i_2, ...))``.
Term = tuple[float, tuple[int, ...]]


def _canonical_indices(indices: Iterable[int]) -> tuple[int, ...]:
    """Return a sorted tuple of indices with repeated pairs cancelled.

    Because spins square to one (``s_i**2 == 1``), repeated indices cancel in
    pairs: ``s_0 s_1 s_0 == s_1``.  The canonical form keeps each index that
    appears an odd number of times, sorted ascending.
    """
    counts: dict[int, int] = {}
    for i in indices:
        i = int(i)
        if i < 0:
            raise ValueError(f"negative qubit index {i} in term")
        counts[i] = counts.get(i, 0) + 1
    return tuple(sorted(i for i, c in counts.items() if c % 2 == 1))


def normalize_terms(terms: Iterable[tuple[float, Iterable[int]]]) -> list[Term]:
    """Normalize an iterable of ``(weight, indices)`` pairs.

    Weights are cast to ``float``, index collections to canonical sorted tuples
    (with repeated indices cancelled pairwise).  Terms are *not* merged; use
    :func:`simplify_terms` for that.
    """
    out: list[Term] = []
    for entry in terms:
        try:
            w, idx = entry
        except (TypeError, ValueError) as exc:  # pragma: no cover - defensive
            raise ValueError(f"term {entry!r} is not a (weight, indices) pair") from exc
        out.append((float(w), _canonical_indices(idx)))
    return out


def terms_to_dict(terms: Iterable[tuple[float, Iterable[int]]]) -> dict[tuple[int, ...], float]:
    """Collect terms into a ``{indices: weight}`` dict, merging duplicates."""
    acc: dict[tuple[int, ...], float] = {}
    for w, idx in normalize_terms(terms):
        acc[idx] = acc.get(idx, 0.0) + w
    return acc


def terms_from_dict(d: dict[tuple[int, ...], float], *, drop_zero: bool = True,
                    tol: float = 0.0) -> list[Term]:
    """Convert a ``{indices: weight}`` dict back to a sorted list of terms.

    Terms are sorted by (order, indices) for reproducibility.  Terms whose
    weight magnitude is ``<= tol`` are dropped when ``drop_zero`` is true.
    """
    items = []
    for idx, w in d.items():
        if drop_zero and abs(w) <= tol:
            continue
        items.append((float(w), tuple(idx)))
    items.sort(key=lambda t: (len(t[1]), t[1]))
    return items


def simplify_terms(terms: Iterable[tuple[float, Iterable[int]]], *, tol: float = 0.0) -> list[Term]:
    """Merge duplicate terms and drop (near-)zero weights.

    >>> simplify_terms([(1.0, (0, 1)), (2.0, (1, 0)), (-3.0, (0, 1))])
    []
    """
    return terms_from_dict(terms_to_dict(terms), drop_zero=True, tol=tol)


def multiply_terms(a: Iterable[tuple[float, Iterable[int]]],
                   b: Iterable[tuple[float, Iterable[int]]]) -> list[Term]:
    """Product of two spin polynomials, simplified.

    Uses ``s_i**2 == 1`` so the product of two terms is the symmetric
    difference of their index sets with multiplied weights.
    """
    acc: dict[tuple[int, ...], float] = {}
    na, nb = normalize_terms(a), normalize_terms(b)
    for wa, ia in na:
        sa = frozenset(ia)
        for wb, ib in nb:
            idx = tuple(sorted(sa.symmetric_difference(ib)))
            acc[idx] = acc.get(idx, 0.0) + wa * wb
    return terms_from_dict(acc)


def add_terms(a: Iterable[tuple[float, Iterable[int]]],
              b: Iterable[tuple[float, Iterable[int]]]) -> list[Term]:
    """Sum of two spin polynomials, simplified."""
    return simplify_terms(list(normalize_terms(a)) + list(normalize_terms(b)))


def scale_terms(terms: Iterable[tuple[float, Iterable[int]]], factor: float) -> list[Term]:
    """Multiply every weight by ``factor``."""
    return [(w * factor, idx) for w, idx in normalize_terms(terms)]


def negate_terms(terms: Iterable[tuple[float, Iterable[int]]]) -> list[Term]:
    """Negate every weight (useful for switching min/max conventions)."""
    return scale_terms(terms, -1.0)


def get_offset(terms: Iterable[tuple[float, Iterable[int]]]) -> float:
    """Total constant offset (sum of weights of empty-index terms)."""
    return sum(w for w, idx in normalize_terms(terms) if len(idx) == 0)


def remove_offset(terms: Iterable[tuple[float, Iterable[int]]]) -> tuple[list[Term], float]:
    """Split ``terms`` into (non-constant terms, total constant offset)."""
    offset = 0.0
    rest: list[Term] = []
    for w, idx in normalize_terms(terms):
        if len(idx) == 0:
            offset += w
        else:
            rest.append((w, idx))
    return rest, offset


def max_term_order(terms: Iterable[tuple[float, Iterable[int]]]) -> int:
    """Largest number of spins appearing in a single term (0 for empty input)."""
    return max((len(idx) for _, idx in normalize_terms(terms)), default=0)


def num_variables(terms: Iterable[tuple[float, Iterable[int]]]) -> int:
    """Smallest ``n`` such that all indices are ``< n`` (0 for constant-only input)."""
    m = -1
    for _, idx in normalize_terms(terms):
        if idx:
            m = max(m, max(idx))
    return m + 1


def validate_terms(terms: Iterable[tuple[float, Iterable[int]]], n_qubits: int) -> list[Term]:
    """Normalize terms and check all indices fit within ``n_qubits``.

    Raises ``ValueError`` on out-of-range indices, non-finite weights, or a
    non-positive qubit count.
    """
    if n_qubits <= 0:
        raise ValueError(f"number of qubits must be positive, got {n_qubits}")
    normalized = normalize_terms(terms)
    for w, idx in normalized:
        if not math.isfinite(w):
            raise ValueError(f"non-finite weight {w!r} in term {(w, idx)!r}")
        if idx and max(idx) >= n_qubits:
            raise ValueError(
                f"term {(w, idx)!r} references qubit {max(idx)} "
                f"but the simulator has only {n_qubits} qubits"
            )
    return normalized


# ---------------------------------------------------------------------------
# Reference evaluation (brute force): used for validation and small problems.
# ---------------------------------------------------------------------------

def spins_from_index(x: int, n: int) -> np.ndarray:
    """Spin configuration (array of ±1, length n) for basis-state index ``x``."""
    bits = bits_from_index(x, n)
    return 1 - 2 * bits


def bits_from_index(x: int, n: int) -> np.ndarray:
    """Bit array (length n, little-endian: entry q is bit q) for index ``x``.

    One shift/mask broadcast over ``np.arange`` (the same pattern the fast
    diagonal kernels use) instead of a per-element Python loop.
    """
    if x < 0 or x >= (1 << n):
        raise ValueError(f"index {x} out of range for {n} qubits")
    shifts = np.arange(n, dtype=np.uint64)
    return ((np.uint64(x) >> shifts) & np.uint64(1)).astype(np.int64)


def index_from_bits(bits: Sequence[int]) -> int:
    """Basis-state index for a little-endian bit sequence."""
    arr = np.asarray(bits)
    if arr.ndim != 1:
        raise ValueError(f"bit sequence must be one-dimensional, got shape {arr.shape}")
    bad = np.flatnonzero((arr != 0) & (arr != 1))
    if bad.size:
        q = int(bad[0])
        raise ValueError(f"bit value {bits[q]!r} at position {q} is not 0/1")
    if arr.shape[0] >= 64:
        # uint64 shifts would overflow silently; arbitrary-precision path.
        return sum(int(b) << q for q, b in enumerate(arr))
    shifts = np.arange(arr.shape[0], dtype=np.uint64)
    return int((arr.astype(np.uint64) << shifts).sum())


def index_from_spins(spins: Sequence[int]) -> int:
    """Basis-state index for a ±1 spin sequence (spin +1 ↔ bit 0)."""
    arr = np.asarray(spins)
    if arr.ndim != 1:
        raise ValueError(f"spin sequence must be one-dimensional, got shape {arr.shape}")
    bad = np.flatnonzero((arr != 1) & (arr != -1))
    if bad.size:
        q = int(bad[0])
        raise ValueError(f"spin value {spins[q]!r} at position {q} is not ±1")
    return index_from_bits((1 - arr.astype(np.int64)) // 2)


def evaluate_term(weight: float, indices: Sequence[int], spins: Sequence[int]) -> float:
    """Evaluate a single term on a spin configuration.

    Terms hold only a handful of indices, so a scalar product loop beats any
    per-term NumPy dispatch here; the vectorized bulk path is
    :func:`brute_force_cost_vector`.
    """
    prod = 1
    for i in indices:
        prod *= spins[i]
    return weight * prod


def evaluate_terms_on_spins(terms: Iterable[tuple[float, Iterable[int]]],
                            spins: Sequence[int]) -> float:
    """Evaluate the polynomial on a ±1 spin configuration (vectorized validation)."""
    spins_arr = np.asarray(spins)
    if spins_arr.ndim != 1:
        raise ValueError(f"spin sequence must be one-dimensional, got shape {spins_arr.shape}")
    bad = np.flatnonzero((spins_arr != 1) & (spins_arr != -1))
    if bad.size:
        raise ValueError(f"spin value {spins[int(bad[0])]!r} is not ±1")
    spins_list = spins_arr.tolist()  # Python ints: fast scalar term products
    total = 0.0
    for w, idx in normalize_terms(terms):
        total += evaluate_term(w, idx, spins_list)
    return total


def evaluate_terms_on_bits(terms: Iterable[tuple[float, Iterable[int]]],
                           bits: Sequence[int]) -> float:
    """Evaluate the polynomial on a 0/1 bit configuration (bit 0 ↔ spin +1)."""
    spins = [1 - 2 * int(b) for b in bits]
    return evaluate_terms_on_spins(terms, spins)


def evaluate_terms_on_index(terms: Iterable[tuple[float, Iterable[int]]],
                            x: int, n: int) -> float:
    """Evaluate the polynomial on basis state ``x`` of an ``n``-qubit register."""
    return evaluate_terms_on_spins(terms, spins_from_index(x, n))


def all_spin_configurations(n: int) -> np.ndarray:
    """Matrix of all 2^n spin configurations, shape ``(2**n, n)``.

    Row ``x`` is the spin configuration of basis state ``x`` under the
    little-endian convention.  Intended for small ``n`` (reference code).
    """
    if n <= 0:
        raise ValueError("n must be positive")
    if n > 24:
        raise ValueError("all_spin_configurations is a reference helper; n > 24 refused")
    idx = np.arange(1 << n, dtype=np.uint64)[:, None]
    shifts = np.arange(n, dtype=np.uint64)[None, :]
    bits = (idx >> shifts) & np.uint64(1)
    return (1 - 2 * bits.astype(np.int64)).astype(np.int64)


def brute_force_cost_vector(terms: Iterable[tuple[float, Iterable[int]]], n: int) -> np.ndarray:
    """Reference 2^n cost vector computed by direct per-term evaluation.

    This is the slow, obviously-correct counterpart of
    :func:`repro.fur.diagonal.precompute_cost_diagonal` and is used to validate
    it in the test-suite.  Complexity O(2^n · L · order).
    """
    normalized = validate_terms(terms, max(n, 1))
    spins = all_spin_configurations(n)
    costs = np.zeros(1 << n, dtype=np.float64)
    for w, idx in normalized:
        if len(idx) == 0:
            costs += w
        else:
            costs += w * np.prod(spins[:, list(idx)], axis=1)
    return costs


@dataclass(frozen=True)
class TermsPolynomial:
    """Immutable container pairing a term list with its qubit count.

    This is a convenience wrapper used by the problem generators; the
    simulator APIs accept plain ``(weight, indices)`` iterables as well, to
    mirror the paper's Listings 1–3.
    """

    n: int
    terms: tuple[Term, ...]

    def __post_init__(self) -> None:
        normalized = tuple(validate_terms(self.terms, self.n))
        object.__setattr__(self, "terms", normalized)

    # -- constructors -------------------------------------------------------
    @classmethod
    def from_terms(cls, terms: Iterable[tuple[float, Iterable[int]]],
                   n: int | None = None) -> "TermsPolynomial":
        """Build from a raw term iterable; infers ``n`` if not given."""
        normalized = normalize_terms(terms)
        if n is None:
            n = num_variables(normalized)
            if n == 0:
                raise ValueError("cannot infer qubit count from constant-only terms")
        return cls(n=n, terms=tuple(normalized))

    # -- algebra ------------------------------------------------------------
    def simplified(self) -> "TermsPolynomial":
        """Return a copy with duplicate terms merged and zero weights dropped."""
        return TermsPolynomial(self.n, tuple(simplify_terms(self.terms)))

    def __add__(self, other: "TermsPolynomial") -> "TermsPolynomial":
        n = max(self.n, other.n)
        return TermsPolynomial(n, tuple(add_terms(self.terms, other.terms)))

    def __mul__(self, factor: float) -> "TermsPolynomial":
        return TermsPolynomial(self.n, tuple(scale_terms(self.terms, factor)))

    __rmul__ = __mul__

    def __neg__(self) -> "TermsPolynomial":
        return self * -1.0

    # -- queries ------------------------------------------------------------
    @property
    def num_terms(self) -> int:
        """Number of terms (including any constant offset term)."""
        return len(self.terms)

    @property
    def offset(self) -> float:
        """Constant offset of the polynomial."""
        return get_offset(self.terms)

    @property
    def max_order(self) -> int:
        """Largest term order (number of spins in a single term)."""
        return max_term_order(self.terms)

    def evaluate_spins(self, spins: Sequence[int]) -> float:
        """Evaluate on a ±1 spin configuration."""
        return evaluate_terms_on_spins(self.terms, spins)

    def evaluate_index(self, x: int) -> float:
        """Evaluate on basis-state index ``x``."""
        return evaluate_terms_on_index(self.terms, x, self.n)

    def cost_vector(self) -> np.ndarray:
        """Brute-force cost vector (reference path; small ``n`` only)."""
        return brute_force_cost_vector(self.terms, self.n)

    def as_list(self) -> list[Term]:
        """Plain list of ``(weight, indices)`` tuples (paper's ``terms`` argument)."""
        return list(self.terms)
