"""Figure 4: total simulation time vs number of QAOA layers (LABS, fixed n).

Paper setup: n=26, p = 1…10⁴, comparing "QOKit + CPU precompute",
"QOKit + GPU precompute" and cuStateVec (gates).  The point of the figure:
the one-off precomputation cost is amortized after a handful of layers (and is
negligible from the start when done on the GPU), after which every additional
layer costs a single multiply + mixer — so the FUR curves grow with a much
smaller slope than the gate-based curve.

Reproduction: n=12, p ∈ {1, 4, 16, 64, 256}; "GPU precompute" is represented
by constructing the simulator from an already-precomputed diagonal (its
modeled device-side precompute time is bounded against one layer's by
``test_fig4_modeled_gpu_precompute_is_negligible``), the CPU
precompute path re-runs the vectorized precomputation inside the measured
region, and the gate-based baseline re-simulates every compiled gate at every
layer (benchmarked only up to p=16 — exactly because it is the slow curve).
"""

from __future__ import annotations

import pytest

import repro
from repro.fur import diagonal_cache, precompute_cost_diagonal
from repro.gates import QAOAGateBasedSimulator

from .conftest import ramp

N_QUBITS = 12
DEPTHS = (1, 4, 16, 64, 256)
GATE_DEPTHS = (1, 4, 16)


@pytest.mark.parametrize("p", DEPTHS)
@pytest.mark.benchmark(group="fig4-depth-amortization")
def test_fig4_fur_with_cpu_precompute(benchmark, labs_terms_cache, p):
    """"QOKit + CPU precompute": precomputation included in every measurement."""
    terms = labs_terms_cache[N_QUBITS]
    gammas, betas = ramp(p)

    def precompute_and_simulate():
        with diagonal_cache.bypass():  # measure the cold precompute path
            sim = repro.simulator(N_QUBITS, terms=terms, backend="c")
        return sim.get_expectation(sim.simulate_qaoa(gammas, betas))

    benchmark.pedantic(precompute_and_simulate, rounds=2, iterations=1)


@pytest.mark.parametrize("p", DEPTHS)
@pytest.mark.benchmark(group="fig4-depth-amortization")
def test_fig4_fur_precomputed_diagonal(benchmark, labs_terms_cache, p):
    """"QOKit + GPU precompute" analogue: the diagonal already lives next to the state."""
    terms = labs_terms_cache[N_QUBITS]
    costs = precompute_cost_diagonal(terms, N_QUBITS)
    sim = repro.simulator(N_QUBITS, costs=costs, backend="c")
    gammas, betas = ramp(p)

    def simulate():
        return sim.get_expectation(sim.simulate_qaoa(gammas, betas))

    benchmark.pedantic(simulate, rounds=2, iterations=1)


@pytest.mark.parametrize("p", GATE_DEPTHS)
@pytest.mark.benchmark(group="fig4-depth-amortization")
def test_fig4_gate_based(benchmark, labs_terms_cache, p):
    """cuStateVec(gates) analogue: every layer re-simulated gate by gate."""
    terms = labs_terms_cache[N_QUBITS]
    sim = QAOAGateBasedSimulator(N_QUBITS, terms=terms)
    gammas, betas = ramp(p)

    def simulate():
        return sim.get_expectation(sim.simulate_qaoa(gammas, betas))

    benchmark.pedantic(simulate, rounds=1, iterations=1)


def test_fig4_precompute_amortizes_quickly(labs_terms_cache):
    """The crossover happens within a few layers: at p=16 the precompute-included
    FUR run is already far cheaper than the gate-based run."""
    import time

    terms = labs_terms_cache[N_QUBITS]
    gammas, betas = ramp(16)

    start = time.perf_counter()
    with diagonal_cache.bypass():  # measure the cold precompute path
        sim = repro.simulator(N_QUBITS, terms=terms, backend="c")
    sim.get_expectation(sim.simulate_qaoa(gammas, betas))
    fur_total = time.perf_counter() - start

    gate_sim = QAOAGateBasedSimulator(N_QUBITS, terms=terms)
    start = time.perf_counter()
    gate_sim.get_expectation(gate_sim.simulate_qaoa(gammas, betas))
    gate_total = time.perf_counter() - start

    assert fur_total * 3 < gate_total


def test_fig4_modeled_gpu_precompute_is_negligible(labs_terms_cache):
    """On the simulated A100 the precomputation is a sub-millisecond kernel, so the
    'GPU precompute' curve in Fig. 4 starts essentially at the per-layer cost."""
    from repro.fur.simgpu import QAOAFURXSimulatorGPU

    sim = QAOAFURXSimulatorGPU(N_QUBITS, terms=labs_terms_cache[N_QUBITS])
    precompute_time = sim.modeled_device_time()
    sim.reset_device_clock()
    sim.simulate_qaoa(*ramp(1))
    layer_time = sim.modeled_device_time()
    assert precompute_time < 50 * layer_time  # same order as a few layers, not thousands
