"""Process-wide cache of precomputed cost diagonals.

The precomputation of the 2^n cost vector (a blocked Walsh–Hadamard transform,
O(n · 2^n); see :mod:`repro.fur.diagonal`) is the one-time cost
that the paper's fast simulators amortize over every phase-operator
application and objective evaluation (Sec. III-A).  During parameter
optimization (Fig. 1/2), however, user code frequently *reconstructs*
simulators or objectives for the same problem — progressive-depth schedules
build a fresh objective per depth, benchmark harnesses build one per backend,
and multi-start optimizers build one per restart.  Each reconstruction used to
repeat the precomputation from scratch.

This module removes that repeated cost: diagonals are cached process-wide,
keyed by a *problem fingerprint* (the qubit count plus the exact normalized
term list).  Cached arrays are returned read-only and shared by every
simulator constructed for the same problem — all consumers of the diagonal
(phase kernels, expectation reductions) only ever read it.

The cache is a small thread-safe LRU; statistics (hits / misses / evictions)
are exposed for tests and for capacity tuning.  Lookups are *single-flight*:
when several threads race for the same uncached problem (the serving layer's
micro-batch flushes run on a thread pool), exactly one thread performs the
O(n · 2^n) precomputation and the others wait for its result instead of
duplicating the work — ``stats.misses`` counts actual precomputations.
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict
from collections.abc import Iterable
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from ..problems.terms import Term, validate_terms
from .diagonal import precompute_cost_diagonal

__all__ = [
    "CacheStats",
    "DiagonalCache",
    "diagonal_cache",
    "cached_cost_diagonal",
    "problem_fingerprint",
]

#: Default number of diagonals kept alive.
DEFAULT_CACHE_SIZE = 32

#: Default byte budget.  Each entry is 8 · 2^n bytes (2 GiB at n=28), so an
#: entry-count cap alone would let a handful of large-n diagonals pin tens of
#: GiB; the byte budget is what actually bounds sweep-style workloads.
DEFAULT_CACHE_BYTES = 1 << 32  # 4 GiB


def _cache_key(terms: list[Term], n_qubits: int) -> tuple:
    """Exact hashable key for a problem: qubit count + normalized terms."""
    return (int(n_qubits), tuple((float(w), tuple(idx)) for w, idx in terms))


def problem_fingerprint(terms: Iterable[tuple[float, Iterable[int]]],
                        n_qubits: int) -> str:
    """Stable hex digest identifying a (terms, n_qubits) problem instance.

    Two problems share a fingerprint iff they have identical normalized term
    lists and qubit counts — the same condition under which the cached cost
    diagonal may be reused.  Useful as a key for on-disk artifacts (benchmark
    results, optimized parameters) as well.
    """
    normalized = validate_terms(terms, n_qubits)
    digest = hashlib.sha256(repr(_cache_key(normalized, n_qubits)).encode())
    return digest.hexdigest()[:16]


@dataclass
class CacheStats:
    """Counters describing cache effectiveness since the last ``clear()``."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0

    @property
    def precomputations(self) -> int:
        """Number of times the full diagonal was actually computed."""
        return self.misses


class DiagonalCache:
    """Thread-safe LRU cache of read-only precomputed cost diagonals."""

    def __init__(self, maxsize: int = DEFAULT_CACHE_SIZE,
                 max_bytes: int = DEFAULT_CACHE_BYTES) -> None:
        if maxsize < 0:
            raise ValueError("maxsize must be non-negative")
        if max_bytes < 0:
            raise ValueError("max_bytes must be non-negative")
        self._maxsize = int(maxsize)
        self._max_bytes = int(max_bytes)
        self._lock = threading.Lock()
        self._entries: OrderedDict[tuple, np.ndarray] = OrderedDict()
        #: in-flight precomputations, keyed like the entries; threads that
        #: lose the single-flight race wait on the owner's event
        self._pending: dict[tuple, threading.Event] = {}
        self._nbytes = 0
        self._stats = CacheStats()
        self._enabled = True

    # -- configuration -------------------------------------------------------
    @property
    def maxsize(self) -> int:
        """Maximum number of cached diagonals."""
        return self._maxsize

    @property
    def max_bytes(self) -> int:
        """Maximum total memory the cached diagonals may occupy."""
        return self._max_bytes

    @property
    def enabled(self) -> bool:
        """Whether lookups/stores are active (disable to benchmark cold paths)."""
        return self._enabled

    def disable(self) -> None:
        """Turn the cache off; subsequent requests always recompute."""
        self._enabled = False

    def enable(self) -> None:
        """Re-enable caching after :meth:`disable`."""
        self._enabled = True

    @contextmanager
    def bypass(self):
        """Context manager that disables the cache for its duration.

        Used by benchmarks that must measure the cold precomputation path
        (e.g. the Fig. 4 "QOKit + CPU precompute" curve) without being
        short-circuited by a warm process-wide cache.
        """
        prev = self._enabled
        self._enabled = False
        try:
            yield self
        finally:
            self._enabled = prev

    # -- inspection ----------------------------------------------------------
    @property
    def stats(self) -> CacheStats:
        """Live counters (hits / misses / evictions)."""
        return self._stats

    def __len__(self) -> int:
        return len(self._entries)

    def currsize_bytes(self) -> int:
        """Total memory held by the cached diagonals."""
        with self._lock:
            return self._nbytes

    def clear(self) -> None:
        """Drop all entries and reset the statistics."""
        with self._lock:
            self._entries.clear()
            self._nbytes = 0
            self._stats = CacheStats()

    # -- the cache operation -------------------------------------------------
    def get(self, terms: list[Term], n_qubits: int) -> np.ndarray:
        """Return the (read-only) cost diagonal for a validated term list.

        On a miss the diagonal is precomputed, marked read-only, stored, and
        returned; on a hit the shared array is returned directly.  The terms
        must already be normalized/validated (the simulator base class
        guarantees this), so equal problems always produce equal keys.

        Misses are *single-flight*: concurrent callers for the same uncached
        problem wait for the one thread that owns the precomputation instead
        of each paying the O(n · 2^n) cost (and then racing to store).
        Unrelated problems still precompute concurrently — the lock is only
        held for bookkeeping, never during the computation itself.
        """
        if not self._enabled or self._maxsize == 0:
            with self._lock:
                self._stats.misses += 1
            return precompute_cost_diagonal(terms, n_qubits)
        key = _cache_key(terms, n_qubits)
        while True:
            with self._lock:
                cached = self._entries.get(key)
                if cached is not None:
                    self._entries.move_to_end(key)
                    self._stats.hits += 1
                    return cached
                pending = self._pending.get(key)
                if pending is None:
                    pending = threading.Event()
                    self._pending[key] = pending
                    break  # this thread owns the precomputation
            # Another thread is precomputing this exact problem: wait for it
            # to finish, then re-check (the entry will be a hit, unless it was
            # too large to store — in which case this thread takes ownership).
            pending.wait()
        try:
            # Compute outside the lock: precomputation is the expensive part
            # and must not serialize unrelated problems behind one another.
            diag = precompute_cost_diagonal(terms, n_qubits)
            with self._lock:
                self._stats.misses += 1
                if diag.nbytes > self._max_bytes:
                    # Too large to ever fit the budget: hand back a private
                    # (writable) array rather than evicting the whole cache
                    # for one entry.
                    return diag
                diag.setflags(write=False)
                if key not in self._entries:
                    self._entries[key] = diag
                    self._nbytes += int(diag.nbytes)
                self._entries.move_to_end(key)
                while len(self._entries) > self._maxsize or self._nbytes > self._max_bytes:
                    _, evicted = self._entries.popitem(last=False)
                    self._nbytes -= int(evicted.nbytes)
                    self._stats.evictions += 1
            return diag
        finally:
            with self._lock:
                self._pending.pop(key, None)
            pending.set()


#: The process-wide cache instance used by every CPU simulator constructor.
diagonal_cache = DiagonalCache()


def cached_cost_diagonal(terms: list[Term], n_qubits: int) -> np.ndarray:
    """Precompute (or fetch from the process-wide cache) a cost diagonal.

    The returned array is read-only when it comes from the cache; callers that
    need to mutate it must copy.
    """
    return diagonal_cache.get(terms, n_qubits)
