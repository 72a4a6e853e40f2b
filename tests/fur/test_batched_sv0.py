"""Per-row initial-state blocks through the batched execution engine.

A ``(B, 2^n)`` ``sv0`` block gives every schedule row its own initial
state.  These tests pin the engine contract: per-row blocks ride the fused
path on every provider and agree with one-schedule evolution from the same
initial state.  (The circuit-cutting tests use the same path as the
reference for fragment B's preparation maps.)
"""

import numpy as np
import pytest

import repro
from repro.fur import available_backends

BATCHED_SV0_BACKENDS = ["python", "jit", "gates", "sharded"]


def _random_problem(rng, n=5, batch=4, p=2):
    terms = [(float(rng.normal()), (i, (i + 1) % n)) for i in range(n)]
    g = rng.normal(size=(batch, p))
    b = rng.normal(size=(batch, p))
    sv0 = rng.normal(size=(batch, 2 ** n)) + 1j * rng.normal(size=(batch, 2 ** n))
    sv0 /= np.linalg.norm(sv0, axis=1, keepdims=True)
    return terms, g, b, sv0


@pytest.mark.parametrize("backend", BATCHED_SV0_BACKENDS)
def test_per_row_sv0_matches_individual_evolution(backend, seeded_rng):
    n = 5
    terms, g, b, sv0 = _random_problem(seeded_rng, n=n)
    sim = repro.simulator(n, terms=terms, backend=backend)
    want = np.array([
        sim.get_expectation(sim.simulate_qaoa(g[i], b[i], sv0=sv0[i]))
        for i in range(g.shape[0])
    ])
    for mode in ("fused", "looped", "auto"):
        got = sim.engine.expectation_batch(g, b, sv0=sv0, mode=mode)
        np.testing.assert_allclose(got, want, atol=1e-12, err_msg=mode)


@pytest.mark.parametrize("backend", BATCHED_SV0_BACKENDS)
def test_per_row_sv0_statevectors(backend, seeded_rng):
    n = 5
    terms, g, b, sv0 = _random_problem(seeded_rng, n=n, batch=3)
    sim = repro.simulator(n, terms=terms, backend=backend)
    results = sim.engine.simulate_batch(g, b, sv0=sv0)
    one = sim.get_statevector(sim.simulate_qaoa(g[1], b[1], sv0=sv0[1]))
    np.testing.assert_allclose(sim.get_statevector(results[1]), one,
                               atol=1e-12)


def test_shared_1d_sv0_still_broadcasts(seeded_rng):
    """The pre-existing contract: a 1-D sv0 is shared by every row."""
    n = 5
    terms, g, b, _ = _random_problem(seeded_rng, n=n, batch=3)
    shared = seeded_rng.normal(size=2 ** n) + 1j * seeded_rng.normal(size=2 ** n)
    shared /= np.linalg.norm(shared)
    sim = repro.simulator(n, terms=terms, backend="python")
    want = np.array([
        sim.get_expectation(sim.simulate_qaoa(g[i], b[i], sv0=shared))
        for i in range(3)
    ])
    got = sim.engine.expectation_batch(g, b, sv0=shared)
    np.testing.assert_allclose(got, want, atol=1e-12)


def test_row_count_mismatch_raises(seeded_rng):
    n = 5
    terms, g, b, sv0 = _random_problem(seeded_rng, n=n, batch=4)
    sim = repro.simulator(n, terms=terms, backend="python")
    with pytest.raises(ValueError, match="rows for a batch of"):
        sim.engine.expectation_batch(g, b, sv0=sv0[:2])
    with pytest.raises(ValueError, match="rows for a batch of"):
        sim.engine.simulate_batch(g, b, sv0=sv0[:2])


def test_wrong_block_shape_raises(seeded_rng):
    n = 5
    terms, g, b, _ = _random_problem(seeded_rng, n=n, batch=4)
    sim = repro.simulator(n, terms=terms, backend="python")
    bad = np.ones((4, 2 ** n - 1), dtype=complex)
    with pytest.raises(ValueError, match="initial-state block has shape"):
        sim.engine.expectation_batch(g, b, sv0=bad)


@pytest.mark.skipif("gpu" not in available_backends(importable_only=True),
                    reason="simulated-GPU backend unavailable")
def test_gpu_per_row_sv0_rides_fused_path(seeded_rng):
    """The device upload stages one initial state per row: no looped detour."""
    n = 5
    terms, g, b, sv0 = _random_problem(seeded_rng, n=n, batch=3)
    sim = repro.simulator(n, terms=terms, backend="gpu")
    want = np.array([
        sim.get_expectation(sim.simulate_qaoa(g[i], b[i], sv0=sv0[i]))
        for i in range(3)
    ])
    stats = sim.engine.stats
    for mode in ("auto", "fused"):
        rows_before = stats.rows_executed
        got = sim.engine.expectation_batch(g, b, sv0=sv0, mode=mode)
        np.testing.assert_allclose(got, want, atol=1e-12, err_msg=mode)
        assert stats.rows_executed == rows_before + g.shape[0]
    assert stats.looped_evaluations == 0
    results = sim.engine.simulate_batch(g, b, sv0=sv0, mode="fused")
    np.testing.assert_allclose(
        sim.get_statevector(results[2]),
        sim.get_statevector(sim.simulate_qaoa(g[2], b[2], sv0=sv0[2])),
        atol=1e-12)
