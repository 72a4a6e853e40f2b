"""Figure 3: time to apply a single QAOA layer for the LABS problem.

Paper setup: n=6…30, comparing QOKit (with and without cuStateVec mixer),
Qiskit CPU/GPU, cuStateVec (gates), cuTensorNet and QTensor.
Reproduction: the FUR backends (``c``, ``python``, simulated ``gpu``; ``c``
is the jit tier's live rung, recorded as ``c_rung``) vs the
gate-based baseline vs the tensor-network contraction simulator (per-layer
amortized single-amplitude cost, exactly as the paper measures tensor
networks), n=6…12 (…10 for the tensor network, whose cost explodes first —
that *is* the finding).

Expected shape: beyond n≈10 the precomputed-diagonal backends are orders of
magnitude faster per layer than both baselines, and the tensor-network
simulator is the slowest on this deep, densely connected workload.  The
headline "~20× layer speedup vs the gate baseline for n≤26" claim is checked
(at reduced n) by ``test_fig3_speedup_summary``.
"""

from __future__ import annotations

import pytest

import repro
from repro.gates import QAOAGateBasedSimulator, build_qaoa_circuit, StatevectorSimulator
from repro.tensornet import TensorNetworkSimulator

from .conftest import ramp, record_c_rung

QUBITS = (6, 8, 10, 12)
TN_QUBITS = (6, 8, 10)


def single_layer(sim):
    gammas, betas = ramp(1)
    return sim.simulate_qaoa(gammas, betas)


@pytest.mark.parametrize("n", QUBITS)
@pytest.mark.benchmark(group="fig3-labs-layer")
def test_fig3_fur_c(benchmark, labs_terms_cache, n):
    """"QOKit" curve: the ``c`` (jit tier) FUR backend, one layer."""
    sim = repro.simulator(n, terms=labs_terms_cache[n], backend="c")
    record_c_rung(benchmark)
    benchmark(single_layer, sim)


@pytest.mark.parametrize("n", QUBITS)
@pytest.mark.benchmark(group="fig3-labs-layer")
def test_fig3_fur_python(benchmark, labs_terms_cache, n):
    """Portable NumPy FUR backend, one layer."""
    sim = repro.simulator(n, terms=labs_terms_cache[n], backend="python")
    benchmark(single_layer, sim)


@pytest.mark.parametrize("n", QUBITS)
@pytest.mark.benchmark(group="fig3-labs-layer")
def test_fig3_fur_simulated_gpu(benchmark, labs_terms_cache, n):
    """Simulated-GPU FUR backend (numerics identical; device clock modeled)."""
    sim = repro.simulator(n, terms=labs_terms_cache[n], backend="gpu")
    benchmark(single_layer, sim)


@pytest.mark.parametrize("n", QUBITS)
@pytest.mark.benchmark(group="fig3-labs-layer")
def test_fig3_gate_based(benchmark, labs_terms_cache, n):
    """"Qiskit / cuStateVec (gates)" curve: per-gate simulation of the compiled layer."""
    sim = QAOAGateBasedSimulator(n, terms=labs_terms_cache[n])
    benchmark.pedantic(single_layer, args=(sim,), rounds=3, iterations=1)


@pytest.mark.parametrize("n", TN_QUBITS)
@pytest.mark.benchmark(group="fig3-labs-layer")
def test_fig3_tensor_network(benchmark, labs_terms_cache, n):
    """"cuTensorNet / QTensor" curve: one amplitude of a p=1 LABS QAOA state."""
    terms = labs_terms_cache[n]
    gammas, betas = ramp(1)
    sim = TensorNetworkSimulator()

    def contract_once():
        return sim.qaoa_amplitude(terms, gammas, betas, n)

    benchmark.pedantic(contract_once, rounds=2, iterations=1)


def test_fig3_speedup_summary(labs_terms_cache):
    """The per-layer speedup of precomputation over the gate baseline grows with n
    (the paper reports ≈20× at n≤26 against cuStateVec)."""
    import time

    speedups = {}
    gammas, betas = ramp(1)
    for n in (8, 12):
        fur_sim = repro.simulator(n, terms=labs_terms_cache[n], backend="c")
        gate_sim = QAOAGateBasedSimulator(n, terms=labs_terms_cache[n])
        fur_sim.simulate_qaoa(gammas, betas)  # warm up

        start = time.perf_counter()
        for _ in range(3):
            fur_sim.simulate_qaoa(gammas, betas)
        fur_time = (time.perf_counter() - start) / 3

        start = time.perf_counter()
        gate_sim.simulate_qaoa(gammas, betas)
        gate_time = time.perf_counter() - start
        speedups[n] = gate_time / fur_time
    assert speedups[12] > speedups[8]
    assert speedups[12] > 5.0
