"""Tests for the fused batched evaluation engine and its hot-path bugfixes.

Covers

* fused == looped equivalence across backends x mixers x problem
  constructions (``terms`` / float ``costs`` array / integer ``costs``
  array),
* sub-batch splitting under a memory budget,
* the batched kernels against their per-row references,
* the diagonal phase table,
* regressions: the phase kernels of a deep circuit read the held diagonal
  arrays with no copy, single default-diagonal resolution across a per-row
  evaluation loop, and contiguous in-place probabilities on the ``python``
  backend.
"""

import numpy as np
import pytest

import repro
from repro.fur import batch_block_rows, build_phase_table
from repro.fur.diagonal import PHASE_TABLE_MAX_FRACTION, PHASE_TABLE_MAX_VALUES
from repro.fur.base import QAOAFastSimulatorBase
from repro.fur.diagonal import precompute_cost_diagonal
from repro.fur.python import kernels as np_kernels
from repro.fur.python.furx import apply_su2, furx_all, furx_all_batch
from repro.fur.python.furxy import apply_xy_su2, furxy_complete, furxy_ring
from repro.problems import labs, maxcut
from repro.testing import per_row_expectations, random_terms

BACKENDS = ["python", "c", "gpu"]
MIXERS = ["x", "xyring", "xycomplete"]
N = 6


def _make_simulator(backend, mixer, construction, n=N):
    """Simulator over the LABS problem via the requested construction path."""
    terms = labs.get_terms(n)
    if construction == "terms":
        return repro.simulator(n, terms=terms, backend=backend, mixer=mixer)
    reference = repro.simulator(n, terms=terms, backend="python")
    costs = reference.get_cost_diagonal().copy()
    if construction == "costs":
        return repro.simulator(n, costs=costs, backend=backend, mixer=mixer)
    assert construction == "integer"
    return repro.simulator(n, costs=costs.astype(np.uint16),
                           backend=backend, mixer=mixer)


def _random_block(rng, rows, n_states):
    block = rng.standard_normal((rows, n_states)) + 1j * rng.standard_normal((rows, n_states))
    return np.ascontiguousarray(block / np.linalg.norm(block, axis=1, keepdims=True))


def _labs_costs(n):
    return precompute_cost_diagonal(labs.get_terms(n), n)


class TestFusedBatchEquivalence:
    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("mixer", MIXERS)
    @pytest.mark.parametrize("construction", ["terms", "costs", "integer"])
    def test_fused_matches_looped(self, backend, mixer, construction):
        sim = _make_simulator(backend, mixer, construction)
        rng = np.random.default_rng(hash((backend, mixer, construction)) % (2 ** 32))
        batch, p = 5, 3
        gb = rng.uniform(-1.0, 1.0, (batch, p))
        bb = rng.uniform(-1.0, 1.0, (batch, p))

        fused_states = [np.asarray(sim.get_statevector(r))
                        for r in sim.simulate_qaoa_batch(gb, bb)]
        for state, (g, b) in zip(fused_states, zip(gb, bb)):
            looped = np.asarray(sim.get_statevector(sim.simulate_qaoa(g, b)))
            np.testing.assert_allclose(state, looped, atol=1e-12)

        fused_values = sim.get_expectation_batch(gb, bb)
        np.testing.assert_allclose(fused_values,
                                   per_row_expectations(sim, gb, bb),
                                   atol=1e-12)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_fused_respects_sv0_and_trotters(self, backend):
        from repro.fur import dicke_state

        sim = repro.simulator(N, terms=labs.get_terms(N), backend=backend,
                              mixer="xyring")
        rng = np.random.default_rng(7)
        gb = rng.uniform(0, 1, (3, 2))
        bb = rng.uniform(0, 1, (3, 2))
        sv0 = dicke_state(N, 3)
        fused = [np.asarray(sim.get_statevector(r))
                 for r in sim.simulate_qaoa_batch(gb, bb, sv0=sv0, n_trotters=3)]
        for state, (g, b) in zip(fused, zip(gb, bb)):
            looped = np.asarray(sim.get_statevector(
                sim.simulate_qaoa(g, b, sv0=sv0, n_trotters=3)))
            np.testing.assert_allclose(state, looped, atol=1e-12)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_fused_explicit_costs(self, backend):
        sim = repro.simulator(N, terms=labs.get_terms(N), backend=backend)
        rng = np.random.default_rng(11)
        other = rng.uniform(-2, 2, 1 << N)
        gb = rng.uniform(0, 1, (4, 2))
        bb = rng.uniform(0, 1, (4, 2))
        fused = sim.get_expectation_batch(gb, bb, costs=other)
        looped = [sim.get_expectation(sim.simulate_qaoa(g, b), costs=other)
                  for g, b in zip(gb, bb)]
        np.testing.assert_allclose(fused, looped, atol=1e-12)


class TestBatchInvariantEnergies:
    # A schedule's energy must not depend on the batch it rides in: every
    # reduction sums each row on its own, in an order fixed by n alone.
    @pytest.mark.parametrize("backend,kwargs,rung", [
        ("python", {}, "active"),
        ("jit", {}, "active"),
        ("jit", {}, "numpy"),
        ("sharded", {"n_shards": 1}, "active"),
        ("sharded", {"n_shards": 2}, "active"),
        ("sharded", {"n_shards": 4}, "active"),
    ])
    def test_alone_equals_batched_bitwise(self, backend, kwargs, rung,
                                          request):
        if rung == "numpy":
            request.getfixturevalue("numpy_rung")
        n, rows = 12, 7
        sim = repro.simulator(n, terms=labs.get_terms(n), backend=backend,
                              **kwargs)
        gammas, betas = np.random.default_rng(5).uniform(0.0, 1.0,
                                                         (2, rows, 3))
        batched = np.asarray(sim.get_expectation_batch(gammas, betas))
        alone = np.array([sim.get_expectation_batch(gammas[i:i + 1],
                                                    betas[i:i + 1])[0]
                          for i in range(rows)])
        np.testing.assert_array_equal(alone, batched)


class TestSubBatchSplitting:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_tiny_budget_matches_unsplit(self, backend):
        sim = repro.simulator(5, terms=labs.get_terms(5), backend=backend)
        rng = np.random.default_rng(3)
        gb = rng.uniform(0, 1, (7, 2))
        bb = rng.uniform(0, 1, (7, 2))
        # a budget of one state vector forces one-row sub-batches
        split = sim.get_expectation_batch(gb, bb, memory_budget=16 * (1 << 5))
        unsplit = sim.get_expectation_batch(gb, bb)
        np.testing.assert_allclose(split, unsplit, atol=1e-12)
        results = sim.simulate_qaoa_batch(gb, bb, memory_budget=16 * (1 << 5))
        assert len(results) == 7
        for res, (g, b) in zip(results, zip(gb, bb)):
            np.testing.assert_allclose(np.asarray(sim.get_statevector(res)),
                                       np.asarray(sim.get_statevector(sim.simulate_qaoa(g, b))),
                                       atol=1e-12)

    def test_batch_block_rows(self):
        # default budget comfortably holds 32 rows of a 2^16 state
        assert batch_block_rows(32, 1 << 16) == 32
        # a one-byte budget still yields one row per sub-batch
        assert batch_block_rows(8, 1 << 10, memory_budget=1) == 1
        # never more rows than the batch has
        assert batch_block_rows(3, 4, memory_budget=1 << 30) == 3
        # exact accounting: blocks * 16 bytes per amplitude
        assert batch_block_rows(100, 1 << 10, memory_budget=16 * (1 << 10) * 2 * 5,
                                blocks=2) == 5
        with pytest.raises(ValueError, match="memory_budget"):
            batch_block_rows(4, 16, memory_budget=0)
        with pytest.raises(ValueError, match="batch_size"):
            batch_block_rows(0, 16)

    def test_gpu_expectation_batch_frees_device_blocks(self):
        sim = repro.simulator(8, terms=labs.get_terms(8), backend="gpu")
        rng = np.random.default_rng(5)
        before = sim.device.stats.allocated_bytes
        sim.get_expectation_batch(rng.uniform(0, 1, (6, 2)), rng.uniform(0, 1, (6, 2)))
        assert sim.device.stats.allocated_bytes == before

    def test_gpu_simulate_batch_respects_device_capacity_across_sub_batches(self):
        from repro.fur.simgpu.device import DeviceSpec

        # Capacity for the diagonal plus exactly 10 state vectors: per-row
        # results retained from earlier sub-batches must shrink later
        # sub-batches instead of crashing the allocator mid-run.
        n = 6
        sv_bytes = 16 * (1 << n)
        spec = DeviceSpec(name="tiny",
                          memory_capacity=8 * (1 << n) + 10 * sv_bytes,
                          memory_bandwidth=1e12, pcie_bandwidth=1e10,
                          kernel_launch_overhead=1e-6)
        sim = repro.simulator(n, terms=labs.get_terms(n), backend="gpu",
                              device_spec=spec)
        rng = np.random.default_rng(9)
        gb = rng.uniform(0, 1, (8, 2))
        bb = rng.uniform(0, 1, (8, 2))
        results = sim.simulate_qaoa_batch(gb, bb)
        assert len(results) == 8
        # reference states from a host backend — the tiny device has no room
        # for extra single-schedule runs next to the 8 retained results
        reference = repro.simulator(n, terms=labs.get_terms(n), backend="c")
        for res, (g, b) in zip(results, zip(gb, bb)):
            np.testing.assert_allclose(
                np.asarray(sim.get_statevector(res)),
                reference.simulate_qaoa(g, b),
                atol=1e-12)

    def test_gpu_simulate_batch_returns_device_rows(self):
        sim = repro.simulator(5, terms=labs.get_terms(5), backend="gpu")
        rng = np.random.default_rng(6)
        before = sim.device.stats.allocated_bytes
        results = sim.simulate_qaoa_batch(rng.uniform(0, 1, (4, 2)),
                                          rng.uniform(0, 1, (4, 2)))
        assert len(results) == 4
        # the evolved block is freed; only the per-row results remain
        assert sim.device.stats.allocated_bytes == before + 4 * 16 * (1 << 5)


class TestBatchedKernels:
    def test_rotate_x_block_matches_per_row(self):
        rng = np.random.default_rng(0)
        block = _random_block(rng, 4, 1 << 5)
        betas = rng.uniform(-1, 1, 4)
        a = np.cos(betas).astype(complex)
        b = (-1j * np.sin(betas)).astype(complex)
        expected = block.copy()
        for r in range(4):
            for q in (2, 0):
                apply_su2(expected[r], complex(a[r]), complex(b[r]), qubit=q)
        np_kernels.rotate_x_block(block, betas, [2, 0])
        np.testing.assert_allclose(block, expected, atol=1e-14)

    def test_furx_all_batch_matches_per_row(self):
        rng = np.random.default_rng(1)
        for n in (1, 3, 5, 7):  # exercises partial gemm groups and stride-1 path
            block = _random_block(rng, 3, 1 << n)
            betas = rng.uniform(-1, 1, 3)
            expected = np.stack([furx_all(block[r].copy(), betas[r], n)
                                 for r in range(3)])
            furx_all_batch(block, betas, n)
            np.testing.assert_allclose(block, expected, atol=1e-13)

    def test_furxy_block_matches_per_row(self):
        rng = np.random.default_rng(2)
        n = 5
        block = _random_block(rng, 4, 1 << n)
        betas = rng.uniform(-1, 1, 4)
        a = np.cos(betas).astype(complex)
        b = (-1j * np.sin(betas)).astype(complex)
        expected = block.copy()
        for r in range(4):
            apply_xy_su2(expected[r], complex(a[r]), complex(b[r]), 3, 1)
        np_kernels.furxy_block(block, None, betas, edges=[(3, 1)])
        np.testing.assert_allclose(block, expected, atol=1e-14)
        for kind, row_fn in (("ring", furxy_ring),
                             ("complete", furxy_complete)):
            blk = _random_block(rng, 4, 1 << n)
            exp = np.stack([row_fn(blk[r].copy(), betas[r], n) for r in range(4)])
            np_kernels.furxy_block(blk, None, betas,
                                   edges=np_kernels.mixer_edges(kind, n))
            np.testing.assert_allclose(blk, exp, atol=1e-13)

    def test_blocked_batch_kernels_match_per_row(self, numpy_rung,
                                                 monkeypatch):
        rng = np.random.default_rng(3)
        n = 6
        n_states = 1 << n
        # a tiny chunk forces chunking in every numpy-rung sweep
        monkeypatch.setattr(np_kernels, "_NP_CHUNK", 16)
        block = _random_block(rng, 3, n_states)
        betas = rng.uniform(-1, 1, 3)

        expected = block.copy()
        for r in range(3):
            numpy_rung.rotate_x_block(expected[r:r + 1], betas[r:r + 1], [4])
        numpy_rung.rotate_x_block(block, betas, [4])
        np.testing.assert_array_equal(block, expected)

        expected = block.copy()
        for r in range(3):
            numpy_rung.furxy_block(expected[r:r + 1], None, betas[r:r + 1],
                                   edges=[(0, 5)])
        numpy_rung.furxy_block(block, None, betas, edges=[(0, 5)])
        np.testing.assert_array_equal(block, expected)

        costs = rng.uniform(-3, 3, n_states)
        gammas = rng.uniform(-1, 1, 3)
        expected = block * np.exp(np.multiply.outer(-1j * gammas, costs))
        numpy_rung.phase_block(block, gammas, costs=costs)
        np.testing.assert_allclose(block, expected, atol=1e-14)

        values = numpy_rung.expectation_block(block, costs)
        probs = np.abs(block) ** 2
        np.testing.assert_allclose(values, probs @ costs, atol=1e-12)

    def test_phase_batch_with_table_matches_direct(self, numpy_rung,
                                                   monkeypatch):
        rng = np.random.default_rng(4)
        n_states = 64
        costs = rng.integers(0, 5, n_states).astype(np.float64)
        table = build_phase_table(costs)
        assert table is not None and table.n_unique <= 5
        monkeypatch.setattr(np_kernels, "_NP_CHUNK", 16)
        block = _random_block(rng, 3, n_states)
        gammas = rng.uniform(-1, 1, 3)
        expected = block * np.exp(np.multiply.outer(-1j * gammas, costs))
        numpy_rung.phase_block(block, gammas, phase_table=table)
        np.testing.assert_allclose(block, expected, atol=1e-13)


class TestDiagonalPhaseTable:
    def test_repetitive_diagonal_builds_table(self):
        costs = np.tile([0.0, 1.0, 3.0, 1.0], 64)
        table = build_phase_table(costs)
        assert table is not None
        assert table.n_unique == 3
        assert len(table) == costs.size
        gamma = 0.37
        phases = np.ones((1, costs.size), dtype=np.complex128)
        table.apply(phases, table.factors_batch([gamma]), 0,
                    np.empty(costs.size, dtype=np.complex128))
        np.testing.assert_allclose(phases[0], np.exp(-1j * gamma * costs),
                                   atol=1e-15)
        # a column slice from ``start`` on gathers that slice's factors
        tail = np.ones((1, 100), dtype=np.complex128)
        table.apply(tail, table.factors_batch([gamma]), costs.size - 100,
                    np.empty(128, dtype=np.complex128))
        np.testing.assert_array_equal(tail[0], phases[0, -100:])
        factors = table.factors_batch([0.1, 0.2])
        assert factors.shape == (2, 3)
        np.testing.assert_allclose(factors[1], np.exp(-1j * 0.2 * table.unique_values))

    def test_generic_diagonal_declines_table(self):
        rng = np.random.default_rng(0)
        assert build_phase_table(rng.uniform(0, 1, 256)) is None

    @staticmethod
    def _assert_matches_sorted_reference(costs):
        # the table np.unique gives, or None where its count is over the limit
        unique, inverse = np.unique(costs, return_inverse=True)
        limit = min(PHASE_TABLE_MAX_VALUES,
                    int(costs.size * PHASE_TABLE_MAX_FRACTION))
        table = build_phase_table(costs)
        if unique.size > max(2, limit):
            assert table is None
            return
        assert table is not None
        assert np.array_equal(table.unique_values, unique)
        assert np.array_equal(table.inverse, inverse)
        assert table.inverse.dtype == np.uint16

    @pytest.mark.parametrize("n", range(3, 13))
    def test_labs_matches_sorted_reference(self, n):
        self._assert_matches_sorted_reference(_labs_costs(n))

    @pytest.mark.parametrize("n", [8, 12, 16])
    def test_maxcut_matches_sorted_reference(self, n):
        g = maxcut.random_regular_graph(3, n, seed=n)
        sim = repro.simulator(n, terms=maxcut.maxcut_terms_from_graph(g),
                              backend="python")
        self._assert_matches_sorted_reference(sim.get_cost_diagonal())

    @pytest.mark.parametrize("n", [12, 14])
    def test_half_weighted_rings_match_sorted_reference(self, n):
        half = n // 2
        terms = [(0.5, (i, (i + 1) % half)) for i in range(half)]
        terms += [(0.5, (half + i, half + (i + 1) % half)) for i in range(half)]
        terms.append((0.5, (0, half)))
        sim = repro.simulator(n, terms=terms, backend="python")
        self._assert_matches_sorted_reference(sim.get_cost_diagonal())

    def test_negative_values_and_signed_zero(self):
        rng = np.random.default_rng(7)
        ints = rng.integers(-6, 7, 512).astype(np.float64)
        ints[ints == 0] = -0.0
        ints[::9] = 0.0
        self._assert_matches_sorted_reference(ints)
        self._assert_matches_sorted_reference(ints - 0.25)
        self._assert_matches_sorted_reference(np.array([-0.0, 0.0, -0.0, 3.0]))

    def test_random_reals_and_wide_integer_ranges(self):
        rng = np.random.default_rng(8)
        self._assert_matches_sorted_reference(rng.normal(size=1024))
        # integers, but the range spans more values than there are entries
        self._assert_matches_sorted_reference(
            rng.choice([0.0, 5000.0, -7000.0], 1024))
        self._assert_matches_sorted_reference(
            np.array([0.0, 2.0 ** 60, 0.0, 2.0 ** 60]))
        self._assert_matches_sorted_reference(np.array([1.0, np.nan, 1.0, 2.0]))
        self._assert_matches_sorted_reference(np.array([1.0, np.inf, 1.0, 2.0]))

    @pytest.mark.parametrize("offset", [0.0, 0.3])
    def test_repeating_prefix_with_distinct_tail(self, offset):
        rng = np.random.default_rng(9)
        size, limit = 1024, 128
        head = np.tile([0.0, 1.0, 2.0], limit)[:limit + 1] + offset
        tail = rng.normal(size=size - head.size)
        self._assert_matches_sorted_reference(np.concatenate([head, tail]))
        # the same prefix, a tail that keeps the count within the limit
        tail = rng.integers(0, limit - 3, size - head.size) + 10 + offset
        self._assert_matches_sorted_reference(np.concatenate([head, tail]))

    @pytest.mark.parametrize("offset", [0.0, 0.3])
    @pytest.mark.parametrize("extra", [0, 1])
    def test_unique_count_at_the_limit(self, offset, extra):
        rng = np.random.default_rng(10)
        size, limit = 1024, 128
        values = np.arange(limit + extra) * 3.0 - 100.0 + offset
        # the prefix a decline may look at holds every distinct value
        head = np.concatenate([values, values[:1]])
        costs = np.concatenate([head, rng.choice(values, size - head.size)])
        self._assert_matches_sorted_reference(costs)
        rng.shuffle(costs)
        self._assert_matches_sorted_reference(costs)
        assert (build_phase_table(costs) is None) == bool(extra)

    def test_integer_diagonals_are_counted_not_sorted(self, monkeypatch):
        costs = _labs_costs(10)

        def no_sort(*args, **kwargs):
            raise AssertionError("np.unique called on an integer diagonal")

        monkeypatch.setattr(np, "unique", no_sort)
        assert build_phase_table(costs) is not None

    def test_invalid_inputs(self):
        with pytest.raises(ValueError, match="non-empty"):
            build_phase_table(np.empty(0))
        with pytest.raises(ValueError, match="1-D"):
            build_phase_table(np.ones((2, 2)))

    def test_malformed_tables_rejected(self):
        """The compiled kernels read the index unchecked (and the gather
        skips numpy's bounds check), so the constructor checks it."""
        from repro.fur.diagonal import DiagonalPhaseTable

        values = np.array([0.0, 1.0])
        index = np.array([1, 0, 1], dtype=np.uint16)
        with pytest.raises(ValueError, match="out of range"):
            DiagonalPhaseTable(values, np.array([0, 40000], dtype=np.uint16))
        with pytest.raises(ValueError, match="out of range"):
            DiagonalPhaseTable(np.empty(0), index)
        for bad in (index.astype(np.intp), index[None]):
            with pytest.raises(ValueError, match="1-D uint16"):
                DiagonalPhaseTable(values, bad)
        for bad in (values.astype(np.float32), values[None]):
            with pytest.raises(ValueError, match="1-D float64"):
                DiagonalPhaseTable(bad, index)
        assert DiagonalPhaseTable(values, index).n_unique == 2


class TestHotPathRegressions:
    @pytest.mark.parametrize("backend", ["python", "c"])
    @pytest.mark.parametrize("precision", ["double", "single"])
    def test_deep_simulation_reads_the_held_diagonal(self, backend, precision,
                                                     monkeypatch):
        """Every phase of a deep circuit reads the simulator's own float64
        vector or uint16 index: no per-layer (or per-simulator) copy."""
        from repro.fur.jit import kernels
        from repro.fur.python import furx

        costs = repro.simulator(N, terms=labs.get_terms(N),
                                backend="python").get_cost_diagonal()
        sim = repro.simulator(N, costs=costs.astype(np.uint16),
                              backend=backend, precision=precision)
        held = sim.get_cost_diagonal()
        table = sim._diagonal_phase_table()
        assert held.dtype == np.float64 and table.inverse.dtype == np.uint16
        seen = []
        original_args, original_fused = kernels._phase_args, furx.furx_phase_all_batch

        def spy_args(block, gammas, phase_table, costs):
            out = original_args(block, gammas, phase_table, costs)
            seen.append(out[2] if out[0] == 1 else out[4])
            return out

        def spy_fused(block, gammas, betas, n_qubits, **kwargs):
            seen.append(kwargs["phase_table"].inverse)
            return original_fused(block, gammas, betas, n_qubits, **kwargs)

        monkeypatch.setattr(kernels, "_phase_args", spy_args)
        monkeypatch.setattr(np_kernels, "furx_phase_all_batch", spy_fused)
        rng = np.random.default_rng(0)
        p = 50
        sim.get_expectation_batch(rng.uniform(0, 1, (2, p)),
                                  rng.uniform(0, 1, (2, p)))
        if backend == "python":  # the reference loop's direct phase
            result = sim.simulate_qaoa(rng.uniform(0, 1, p), rng.uniform(0, 1, p))
            assert np.isfinite(sim.get_expectation(result))
        assert seen
        assert all(a is table.inverse or a is held for a in seen)

    def test_default_batch_reads_the_held_costs(self, monkeypatch):
        """A per-row loop reduces against the held vector itself: nothing
        resolves, decompresses or copies the default diagonal."""
        sim = repro.simulator(5, terms=labs.get_terms(5), backend="python")
        assert sim._resolve_costs(None) is sim.get_cost_diagonal()
        calls = {"n": 0}
        original = type(sim).get_cost_diagonal

        def counting(self, *args, **kwargs):
            calls["n"] += 1
            return original(self, *args, **kwargs)

        monkeypatch.setattr(type(sim), "get_cost_diagonal", counting)
        rng = np.random.default_rng(1)
        per_row_expectations(sim, rng.uniform(0, 1, (6, 2)),
                             rng.uniform(0, 1, (6, 2)))
        assert calls["n"] == 0

    def test_python_inplace_probabilities_contiguous(self):
        sim = repro.simulator(5, terms=labs.get_terms(5), backend="python")
        result = sim.simulate_qaoa([0.3], [0.4])
        reference = sim.get_probabilities(result, preserve_state=True)
        probs = sim.get_probabilities(result, preserve_state=False)
        assert probs.dtype == np.float64
        assert probs.flags["C_CONTIGUOUS"]
        np.testing.assert_allclose(probs, reference, atol=1e-14)


class TestOneRowExpectation:
    """``get_expectation`` of a host-array result is the provider's one-row
    block reduction (on ``jit``: no ``|ψ|²`` array, no BLAS dot product)."""

    @pytest.mark.parametrize("backend", ["python", "jit", "gates"])
    @pytest.mark.parametrize("precision,atol", [("double", 1e-12),
                                                ("single", 1e-5)])
    def test_equals_the_block_reduction(self, backend, precision, atol):
        n = 10
        sim = repro.simulator(n, terms=random_terms(np.random.default_rng(3),
                                                    n, 30, max_order=3),
                              backend=backend, precision=precision)
        rng = np.random.default_rng(4)
        result = sim.simulate_qaoa(rng.uniform(0, 1, 3), rng.uniform(0, 1, 3))
        other = rng.integers(-20, 20, 1 << n).astype(np.float64)
        for costs in (None, other, other.astype(np.int32)):
            resolved = sim._resolve_costs(costs)
            row = np.asarray(result)[None]
            value = sim.get_expectation(result, costs=costs)
            assert value == sim._block_expectations(row, resolved)[0]
            probs = sim.get_probabilities(result)
            assert abs(value - float(np.dot(probs, resolved))) <= atol
        state = np.asarray(result).copy()
        sim.get_expectation(result, preserve_state=False)
        assert np.array_equal(np.asarray(result), state)
