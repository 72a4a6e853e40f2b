"""Figure 2: end-to-end CPU QAOA expectation, p=6, MaxCut on 3-regular graphs.

Paper setup: QOKit's custom-C CPU simulator vs Qiskit Aer vs OpenQAOA, n=6…24,
reporting the full time to evaluate one QAOA expectation value.
Reproduction: our ``c`` (the jit tier's live rung — compiled C when a
compiler is available, the numpy kernels otherwise; recorded as ``c_rung`` in each
timing's ``extra_info``) and ``python`` FUR backends vs the gate-based
baseline (ladder-compiled, Qiskit-style) vs the same baseline with native
diagonal gates (OpenQAOA-style vectorized evaluation), n=6…14.

Expected shape: the FUR backends are several times faster than the gate-based
paths at every n, and the gap widens with n (the paper reports ≈5–10×).
"""

from __future__ import annotations

import pytest

import repro
from repro.gates import QAOAGateBasedSimulator

from .conftest import ramp, record_c_rung

P_LAYERS = 6
QUBITS = (6, 8, 10, 12, 14)


def end_to_end_expectation(sim, p=P_LAYERS):
    gammas, betas = ramp(p)
    return sim.get_expectation(sim.simulate_qaoa(gammas, betas))


@pytest.mark.parametrize("n", QUBITS)
@pytest.mark.benchmark(group="fig2-cpu-maxcut")
def test_fig2_qokit_c_backend(benchmark, maxcut_terms_cache, n):
    """QOKit-analogue optimized CPU backend ("QOKit CPU" curve)."""
    sim = repro.simulator(n, terms=maxcut_terms_cache[n], backend="c")
    record_c_rung(benchmark)
    result = benchmark(end_to_end_expectation, sim)
    assert result == pytest.approx(result)


@pytest.mark.parametrize("n", QUBITS)
@pytest.mark.benchmark(group="fig2-cpu-maxcut")
def test_fig2_qokit_python_backend(benchmark, maxcut_terms_cache, n):
    """Portable NumPy backend (the paper's ``python`` simulator)."""
    sim = repro.simulator(n, terms=maxcut_terms_cache[n], backend="python")
    benchmark(end_to_end_expectation, sim)


@pytest.mark.parametrize("n", QUBITS)
@pytest.mark.benchmark(group="fig2-cpu-maxcut")
def test_fig2_gate_based_ladder(benchmark, maxcut_terms_cache, n):
    """Gate-based baseline with CNOT-ladder compilation ("Qiskit" curve)."""
    sim = QAOAGateBasedSimulator(n, terms=maxcut_terms_cache[n], phase_strategy="ladder")
    benchmark.pedantic(end_to_end_expectation, args=(sim,), rounds=3, iterations=1)


@pytest.mark.parametrize("n", QUBITS)
@pytest.mark.benchmark(group="fig2-cpu-maxcut")
def test_fig2_gate_based_diagonal(benchmark, maxcut_terms_cache, n):
    """Gate-based baseline with native diagonal term gates ("OpenQAOA" analogue)."""
    sim = QAOAGateBasedSimulator(n, terms=maxcut_terms_cache[n], phase_strategy="diagonal")
    benchmark.pedantic(end_to_end_expectation, args=(sim,), rounds=3, iterations=1)


def test_fig2_shape_fur_beats_gate_based(maxcut_terms_cache):
    """Sanity check on the figure's ordering at the largest benchmarked size."""
    import time

    n = QUBITS[-1]
    fur_sim = repro.simulator(n, terms=maxcut_terms_cache[n], backend="c")
    gate_sim = QAOAGateBasedSimulator(n, terms=maxcut_terms_cache[n])

    def timed(sim):
        start = time.perf_counter()
        end_to_end_expectation(sim)
        return time.perf_counter() - start

    end_to_end_expectation(fur_sim)  # warm up caches
    assert timed(gate_sim) > 2.0 * timed(fur_sim)
