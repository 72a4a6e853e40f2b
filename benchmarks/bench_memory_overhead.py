"""Claim: the precomputed diagonal adds only 12.5 % memory (uint16 for LABS).

Paper statements reproduced here (abstract + Sec. V-B): the cost vector is the
only extra exponentially-sized object; stored as uint16 (valid for LABS up to
n < 65 because the optimal/maximal energies stay below 2¹⁶) it adds 2 bytes
per 16-byte amplitude; precomputation time itself is small and embarrassingly
parallel.  Here the precompute is the blocked Walsh–Hadamard transform of
:mod:`repro.fur.diagonal` (O(n · 2^n), a few milliseconds at n=16), and the
uint16 storage is the index of the simulator's phase table, measured on a
constructed simulator after one evaluation.  The simulator also holds the
float64 vector (for the expectation reduction), so it holds 10 bytes of
diagonal per amplitude in all.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro
from repro.fur import (
    build_phase_table,
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
def test_precompute_and_index_uint16(benchmark, labs_terms_cache):
    """Time to precompute the diagonal and build its uint16 phase-table index."""
    terms = labs_terms_cache[N_QUBITS]

    def build():
        return build_phase_table(precompute_cost_diagonal(terms, N_QUBITS))

    table = benchmark(build)
    assert table.inverse.dtype == np.uint16


def test_memory_overhead_figures(labs_terms_cache):
    """The byte counts behind the 12.5 % claim, as a LABS simulator holds them."""
    sim = repro.simulator(N_QUBITS, terms=labs_terms_cache[N_QUBITS])
    sim.get_expectation_batch([[0.2]], [[0.3]])
    diag = sim.get_cost_diagonal()
    index = sim._diagonal_phase_table().inverse
    state_bytes = (1 << N_QUBITS) * 16
    held = diag.nbytes + index.nbytes
    print(f"\nState vector: {state_bytes / 1e6:.2f} MB; "
          f"uint16 index: {index.nbytes / 1e6:.2f} MB "
          f"({index.nbytes / state_bytes:.1%}); "
          f"float64 vector: {diag.nbytes / 1e6:.2f} MB; "
          f"held: {held / (1 << N_QUBITS):.0f} B per amplitude")
    assert index.dtype == np.uint16
    assert index.nbytes / state_bytes == pytest.approx(0.125)
    assert index.nbytes / state_bytes == diagonal_memory_overhead(N_QUBITS, index.dtype)
    assert held <= 10 * (1 << N_QUBITS)
    # LABS values fit uint16 (the n < 65 claim, checked at reproducible scale)
    assert diag.max() < 2 ** 16


def test_uint16_valid_for_all_tabulated_sizes():
    """The known optimal LABS energies (and the worst-case all-ones energy) stay
    below 2¹⁶ for every tabulated n — the paper's justification for uint16."""
    for n, e_opt in labs.KNOWN_OPTIMAL_ENERGIES.items():
        assert e_opt < 2 ** 16
        worst = sum((n - k) ** 2 for k in range(1, n))
        if n <= 40:
            assert worst < 2 ** 16
