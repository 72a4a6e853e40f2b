"""Tests for the cost-diagonal precomputation (Sec. III-A)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fur import diagonal as D
from repro.problems import labs, maxcut
from repro.problems.terms import brute_force_cost_vector

from repro.testing import random_terms


class TestMasks:
    def test_term_mask(self):
        assert D.term_mask((0, 2, 5)) == 0b100101
        assert D.term_mask(()) == 0

    def test_masks_and_weights_split_offset(self):
        masks, weights, offset = D.term_masks_and_weights(
            [(1.0, (0, 1)), (2.0, ()), (3.0, (2,)), (-1.0, ())], 3
        )
        assert offset == 1.0
        assert set(masks.tolist()) == {0b011, 0b100}
        assert sorted(weights.tolist()) == [1.0, 3.0]

    def test_masks_validate_range(self):
        with pytest.raises(ValueError):
            D.term_masks_and_weights([(1.0, (5,))], 3)


class TestPrecompute:
    def test_matches_bruteforce_random(self, rng):
        n = 7
        terms = random_terms(rng, n, 12, max_order=4)
        diag = D.precompute_cost_diagonal(terms, n)
        np.testing.assert_allclose(diag, brute_force_cost_vector(terms, n), atol=1e-10)

    def test_matches_labs_energies(self):
        n = 10
        diag = D.precompute_cost_diagonal(labs.get_terms(n), n)
        np.testing.assert_allclose(diag, labs.energies_all_sequences(n))

    def test_matches_maxcut_cuts(self):
        g = maxcut.random_regular_graph(3, 8, seed=2, weighted=True)
        terms = maxcut.maxcut_terms_from_graph(g)
        diag = D.precompute_cost_diagonal(terms, 8)
        cuts = np.array([maxcut.cut_value_from_index(g, x) for x in range(256)])
        np.testing.assert_allclose(diag, -cuts, atol=1e-10)

    def test_infers_n_from_terms(self):
        diag = D.precompute_cost_diagonal([(1.0, (0, 3))])
        assert diag.shape == (16,)

    def test_constant_only_needs_n(self):
        with pytest.raises(ValueError):
            D.precompute_cost_diagonal([(1.0, ())])
        diag = D.precompute_cost_diagonal([(1.0, ())], 3)
        np.testing.assert_allclose(diag, 1.0)

    def test_small_chunks_agree(self, rng):
        n = 6
        terms = random_terms(rng, n, 8)
        full = D.precompute_cost_diagonal(terms, n)
        chunked = D.precompute_cost_diagonal(terms, n, chunk_size=7)
        assert np.array_equal(full, chunked)

    def test_out_buffer_and_dtype(self, rng):
        n = 5
        terms = random_terms(rng, n, 5)
        out = np.empty(1 << n, dtype=np.float32)
        result = D.precompute_cost_diagonal(terms, n, dtype=np.float32, out=out)
        assert result is out
        assert result.dtype == np.float32

    def test_invalid_arguments(self, rng):
        terms = random_terms(rng, 4, 3)
        with pytest.raises(ValueError):
            D.precompute_cost_diagonal(terms, 4, chunk_size=0)
        with pytest.raises(ValueError):
            D.precompute_cost_diagonal(terms, 4, out=np.empty(3))

    @given(st.integers(min_value=2, max_value=7), st.integers(min_value=0, max_value=10 ** 6))
    @settings(max_examples=40, deadline=None)
    def test_property_matches_bruteforce(self, n, seed):
        rng = np.random.default_rng(seed)
        terms = random_terms(rng, n, int(rng.integers(1, 10)), max_order=min(4, n))
        diag = D.precompute_cost_diagonal(terms, n)
        np.testing.assert_allclose(diag, brute_force_cost_vector(terms, n), atol=1e-9)


class TestSlices:
    def test_slice_concatenation_equals_full(self, rng):
        n = 8
        terms = random_terms(rng, n, 10, max_order=4)
        full = D.precompute_cost_diagonal(terms, n)
        parts = [D.precompute_cost_diagonal_slice(terms, n, s, s + 64) for s in range(0, 256, 64)]
        assert np.array_equal(np.concatenate(parts), full)

    def test_empty_and_invalid_slices(self, rng):
        terms = random_terms(rng, 4, 3)
        assert D.precompute_cost_diagonal_slice(terms, 4, 3, 3).shape == (0,)
        with pytest.raises(ValueError):
            D.precompute_cost_diagonal_slice(terms, 4, 10, 20)
        with pytest.raises(ValueError):
            D.apply_terms_to_slice(np.array([], dtype=np.uint64), np.array([]), 0.0, 5, 3)


class TestDecompositionInvariance:
    """The value at ``x`` depends on ``(terms, n, x)`` only: never on the
    slice bounds or the chunk size.  ``n`` falls on both sides of the
    Walsh–Hadamard block width (2^16 states)."""

    @staticmethod
    def _terms(n):
        # the top qubit is always touched, so the block width is min(n, 16)
        rng = np.random.default_rng(n)
        return random_terms(rng, n, 30, max_order=3) + [(0.37, (0, n - 1))]

    @pytest.mark.parametrize("n", [3, 8, 17, 18])
    def test_slices_bitwise_equal_full(self, n):
        terms = self._terms(n)
        size = 1 << n
        full = D.precompute_cost_diagonal(terms, n)
        block = min(size, 1 << D.BLOCK_BITS)
        bounds = [
            (0, size),                          # full
            (0, size // 2), (size // 2, size),  # aligned halves
            (block // 2, block // 2),           # empty
            (1, size - 3),                      # unaligned, spans every block
            (size // 3, size // 3 + 5),         # short, inside one block
        ]
        if size > block:
            bounds += [(block, 2 * block), (block - 7, block + 9)]
        for start, stop in bounds:
            for chunk_size in (1, 7, 1 << 16, 1 << 17):
                part = D.precompute_cost_diagonal_slice(terms, n, start, stop,
                                                        chunk_size=chunk_size)
                assert np.array_equal(part, full[start:stop]), (start, stop, chunk_size)


class TestExactness:
    """Integer and dyadic weights make every partial sum exact, so the
    transform equals the per-term reference bit for bit."""

    @pytest.mark.parametrize("n", range(3, 13))
    def test_labs_bitwise(self, n):
        terms = labs.get_terms(n)
        assert np.array_equal(D.precompute_cost_diagonal(terms, n),
                              brute_force_cost_vector(terms, n))

    @pytest.mark.parametrize("n", [8, 12, 18])
    def test_unweighted_maxcut_bitwise(self, n):
        g = maxcut.random_regular_graph(3, n, seed=n)
        terms = maxcut.maxcut_terms_from_graph(g)
        assert np.array_equal(D.precompute_cost_diagonal(terms, n),
                              brute_force_cost_vector(terms, n))

    @pytest.mark.parametrize("n", [12, 18])
    def test_half_weighted_bridged_rings_bitwise(self, n):
        # two rings of n/2 qubits joined by one bridge edge, all weights 0.5
        half = n // 2
        terms = [(0.5, (i, (i + 1) % half)) for i in range(half)]
        terms += [(0.5, (half + i, half + (i + 1) % half)) for i in range(half)]
        terms.append((0.5, (0, half)))
        assert np.array_equal(D.precompute_cost_diagonal(terms, n),
                              brute_force_cost_vector(terms, n))

    @pytest.mark.parametrize("n", [5, 12, 17])
    def test_real_weights_within_bound(self, n):
        rng = np.random.default_rng(100 + n)
        terms = random_terms(rng, n, 40, max_order=4) + [(0.81, ()), (-0.4, (n - 1,))]
        bound = 1e-12 * max(1.0, sum(abs(w) for w, _ in terms))
        diff = D.precompute_cost_diagonal(terms, n) - brute_force_cost_vector(terms, n)
        assert np.max(np.abs(diff)) <= bound


class TestFloatingOutputOnly:
    """Integer output types would truncate non-integer costs to garbage;
    every entry point rejects them and points at the phase table's uint16
    index, the integer storage."""

    TERMS = [(0.5, (0, 1)), (0.25, (1,))]

    @pytest.mark.parametrize("dtype", [np.int64, np.uint16, np.uint8, np.complex128])
    def test_full_dtype(self, dtype):
        with pytest.raises(ValueError, match="build_phase_table"):
            D.precompute_cost_diagonal(self.TERMS, 2, dtype=dtype)

    @pytest.mark.parametrize("dtype", [np.int64, np.uint16])
    def test_full_out(self, dtype):
        with pytest.raises(ValueError, match="build_phase_table"):
            D.precompute_cost_diagonal(self.TERMS, 2, out=np.zeros(4, dtype=dtype))

    @pytest.mark.parametrize("dtype", [np.int64, np.uint16, np.uint8])
    def test_slice_dtype(self, dtype):
        with pytest.raises(ValueError, match="build_phase_table"):
            D.precompute_cost_diagonal_slice(self.TERMS, 2, 1, 3, dtype=dtype)

    def test_kernel_out(self):
        masks, weights, offset = D.term_masks_and_weights(self.TERMS, 2)
        with pytest.raises(ValueError, match="build_phase_table"):
            D.apply_terms_to_slice(masks, weights, offset, 0, 4,
                                   out=np.zeros(4, dtype=np.int64))

    def test_float32_still_accepted(self):
        diag = D.precompute_cost_diagonal(self.TERMS, 2, dtype=np.float32)
        assert diag.dtype == np.float32
        np.testing.assert_array_equal(diag, brute_force_cost_vector(self.TERMS, 2))


class TestFromFunction:
    def test_scalar_function(self):
        n = 4
        diag = D.precompute_cost_diagonal_from_function(lambda bits: float(bits.sum()), n)
        idx = np.arange(1 << n, dtype=np.uint64)
        np.testing.assert_allclose(diag, np.bitwise_count(idx).astype(float))

    def test_vectorized_function(self):
        n = 5
        diag = D.precompute_cost_diagonal_from_function(
            lambda bits: bits.sum(axis=1).astype(float), n, vectorized=True
        )
        idx = np.arange(1 << n, dtype=np.uint64)
        np.testing.assert_allclose(diag, np.bitwise_count(idx).astype(float))

    def test_vectorized_shape_error(self):
        with pytest.raises(ValueError):
            D.precompute_cost_diagonal_from_function(lambda bits: np.zeros(3), 4, vectorized=True)

    def test_function_matches_terms(self):
        n = 6
        terms = labs.get_terms(n)
        from repro.problems.terms import evaluate_terms_on_bits

        diag_fn = D.precompute_cost_diagonal_from_function(
            lambda bits: evaluate_terms_on_bits(terms, bits), n
        )
        np.testing.assert_allclose(diag_fn, D.precompute_cost_diagonal(terms, n))


class TestUint16Index:
    """The compact diagonal is the phase table's ``uint16`` index: lossless
    for any repetitive diagonal, 2 bytes per amplitude."""

    @staticmethod
    def _table(costs):
        table = D.build_phase_table(costs)
        assert table is not None
        assert table.inverse.dtype == np.uint16
        np.testing.assert_array_equal(table.unique_values[table.inverse], costs)
        return table

    def test_labs_diagonal_indexes_to_uint16(self):
        n = 12
        diag = D.precompute_cost_diagonal(labs.get_terms(n), n)
        table = self._table(diag)
        # footprint reduced 4x vs float64
        assert table.inverse.nbytes == diag.nbytes // 4

    def test_non_integer_and_negative_values_exact(self):
        rng = np.random.default_rng(2)
        values = np.array([-3.0, 0.0, 0.3, 5.0, -0.125, 1e-9])
        self._table(rng.choice(values, 256))

    def test_constant_diagonal(self):
        assert self._table(np.full(64, 5.0)).n_unique == 1


class TestPhaseTableBoundary:
    """At n=20 the uint16 index, not the 2^n/8 fraction, sets the limit:
    exactly 2^16 distinct values get a table, 2^16 + 1 take the direct
    phase, and either way the energies are the python backend's."""

    N = 20

    @pytest.fixture(scope="class", params=[0, 1], ids=["2^16", "2^16+1"])
    def costs(self, request):
        rng = np.random.default_rng(20)
        values = rng.permutation(1 << self.N) % (D.PHASE_TABLE_MAX_VALUES
                                                 + request.param)
        return values.astype(np.float64), request.param

    def test_table_up_to_uint16(self, costs):
        diag, extra = costs
        table = D.build_phase_table(diag)
        if extra:
            assert table is None
            # a non-integer diagonal takes the sort path to the same answer
            assert D.build_phase_table(diag + 0.5) is None
            return
        assert table.n_unique == D.PHASE_TABLE_MAX_VALUES
        assert table.inverse.dtype == np.uint16
        np.testing.assert_array_equal(table.unique_values[table.inverse], diag)
        shifted = D.build_phase_table(diag + 0.5)
        np.testing.assert_array_equal(shifted.inverse, table.inverse)

    def test_energies_match_python(self, costs):
        import repro

        diag, extra = costs
        gammas, betas = [0.01, 0.02], [0.3, 0.2]
        ref_sim = repro.simulator(self.N, costs=diag, backend="python")
        ref = ref_sim.get_expectation(ref_sim.simulate_qaoa(gammas, betas))
        sim = repro.simulator(self.N, costs=diag, backend="jit")
        assert (sim._diagonal_phase_table() is None) == bool(extra)
        got = sim.get_expectation_batch([gammas], [betas])[0]
        assert abs(got - ref) <= 1e-12 * abs(ref)


class TestMemoryAccounting:
    def test_uint16_overhead_is_12_5_percent(self):
        """The abstract's claim: the (uint16) cost vector adds 12.5 % to the footprint."""
        assert D.diagonal_memory_overhead(20, diag_dtype=np.uint16) == pytest.approx(0.125)

    def test_float64_overhead_is_50_percent(self):
        assert D.diagonal_memory_overhead(20) == pytest.approx(0.5)

    def test_memory_bytes(self):
        assert D.diagonal_memory_bytes(10) == 1024 * 8
        assert D.diagonal_memory_bytes(10, np.uint16) == 1024 * 2
