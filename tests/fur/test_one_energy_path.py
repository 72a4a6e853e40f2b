"""One energy path: every QAOA energy is the provider's block reduction.

Covers

* the objective: ``objective(θ)`` is bitwise ``evaluate_batch(θ[None])[0]``
  (one evaluation is a one-row batch) on the host, sharded, gate-based and
  simulated-GPU backends, in double and single precision,
* ``get_expectation`` reduces the result as a one-row block through
  ``_block_expectations`` and never builds ``|ψ|²`` via
  ``get_probabilities``, on every registered backend,
* the sharded family's single schedule: ``get_expectation(simulate_qaoa(θ))``
  is bitwise the one-row ``get_expectation_batch`` value (same slabs, same
  segment-grid reduction),
* the simulated GPU frees a diagonal ``get_expectation`` staged for it,
* a single-precision energy is the float64-square reduction of the
  backend's own state, and a one-row sharded reduction allocates a small
  fraction of the state.
"""

import tracemalloc

import numpy as np
import pytest

import repro
from repro.fur import available_backends
from repro.fur.registry import registry
from repro.problems import labs, maxcut
from repro.qaoa import get_qaoa_objective
from repro.testing import random_terms

PRECISIONS = ["double", "single"]


@pytest.mark.parametrize("precision", PRECISIONS)
@pytest.mark.parametrize("backend", ["python", "jit", "sharded", "gates", "gpu"])
def test_objective_call_is_the_one_row_batch(backend, precision):
    n, p = 8, 3
    graph = maxcut.random_regular_graph(3, n, seed=3)
    obj = get_qaoa_objective(n, p, terms=maxcut.maxcut_terms_from_graph(graph),
                             backend=backend, precision=precision)
    rng = np.random.default_rng(11)
    for _ in range(4):
        theta = rng.uniform(-1, 1, 2 * p)
        value = obj(theta)
        assert value == obj.evaluate_batch(theta[None])[0]
    assert obj.n_evaluations == 8


@pytest.mark.parametrize("backend", available_backends(importable_only=True))
def test_get_expectation_never_builds_probabilities(backend, monkeypatch):
    n = 4
    kwargs = {"n_ranks": 2} if registry.spec(backend).distributed else {}
    sim = repro.simulator(n, terms=labs.get_terms(n), backend=backend, **kwargs)
    g, b = [0.3, -0.2], [0.5, 0.1]
    result = sim.simulate_qaoa(g, b)
    other = np.linspace(-1.0, 1.0, 1 << n)
    want = sim.get_expectation_batch([g], [b])[0]
    want_other = sim.get_expectation_batch([g], [b], costs=other)[0]

    def no_probabilities(*args, **kwargs):
        raise AssertionError("get_expectation built |psi|^2")

    monkeypatch.setattr(type(sim), "get_probabilities", no_probabilities)
    np.testing.assert_allclose(sim.get_expectation(result), want,
                               rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(sim.get_expectation(result, costs=other),
                               want_other, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("backend,kwargs", [
    ("sharded", {"n_shards": 2}),
    ("gpumpi", {"n_ranks": 2}),
    ("gpumpi", {"n_ranks": 4}),
])
def test_sharded_single_schedule_energy_is_bitwise_the_batch_row(backend,
                                                                   kwargs):
    n, p = 16, 2
    graph = maxcut.random_regular_graph(3, n, seed=5)
    sim = repro.simulator(n, terms=maxcut.maxcut_terms_from_graph(graph),
                          backend=backend, **kwargs)
    rng = np.random.default_rng(7)
    for _ in range(3):
        g, b = rng.uniform(-1, 1, p), rng.uniform(-1, 1, p)
        one = sim.get_expectation(sim.simulate_qaoa(g, b))
        assert one == sim.get_expectation_batch(g[None], b[None])[0]


@pytest.mark.parametrize("precision", PRECISIONS)
def test_gpu_expectation_releases_its_staged_diagonal(precision):
    n = 6
    sim = repro.simulator(n, terms=labs.get_terms(n), backend="gpu",
                          precision=precision)
    result = sim.simulate_qaoa([0.2, 0.4], [0.3, -0.1])
    other = np.linspace(-1.0, 1.0, 1 << n)
    allocated = sim.device.stats.allocated_bytes
    np.testing.assert_allclose(
        sim.get_expectation(result, costs=other),
        sim.get_expectation_batch([[0.2, 0.4]], [[0.3, -0.1]], costs=other)[0],
        rtol=1e-6)
    sim.get_expectation(result)
    assert sim.device.stats.allocated_bytes == allocated


@pytest.mark.parametrize("backend,kwargs", [
    ("python", {}), ("jit", {}), ("sharded", {"n_shards": 2}), ("gpu", {})])
def test_single_precision_energy_is_the_float64_square_reduction(backend,
                                                                 kwargs):
    """Squares in float64 against the float64 diagonal, whatever the state
    precision: the reduction adds only summation-order rounding."""
    n = 12
    sim = repro.simulator(n, terms=random_terms(np.random.default_rng(12), n, 40),
                          backend=backend, precision="single", **kwargs)
    result = sim.simulate_qaoa([0.4, -0.3], [0.7, 0.2])
    sv = np.asarray(sim.get_statevector(result))
    assert sv.dtype == np.complex64
    probs = sv.real.astype(np.float64) ** 2 + sv.imag.astype(np.float64) ** 2
    want = float(np.dot(probs, sim.get_cost_diagonal()))
    assert abs(sim.get_expectation(result) - want) <= 1e-14 * abs(want)


def test_one_row_sharded_expectation_allocates_a_quarter_of_the_diagonal():
    n = 18
    sim = repro.simulator(n, terms=labs.get_terms(n), backend="sharded",
                          n_shards=2)
    result = sim.simulate_qaoa([0.2], [0.3])
    sim.get_expectation(result)  # warm: phase tables, plan, pool threads
    tracemalloc.start()
    try:
        sim.get_expectation(result)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= (1 << n) * 8 / 4
