"""Tests for the jit backend: single-pass fused kernels and their fallback ladder.

Covers

* kernel parity against the python backend's multi-pass reference kernels
  within the established envelopes (1e-12 double / 1e-5 single) for every
  mixer, both phase modes (unique-value table gather and direct cos/sin),
  and the fused mixer+expectation reduction,
* the fallback ladder: the numpy path is exercised unconditionally (via
  ``REPRO_JIT_PATH``) so the suite pins the delegation contract even on
  machines where numba or a C compiler is available; numba-specific checks
  are skipped without numba; a failed C build falls to numpy with exactly
  one WARNING on the ``repro.fur.jit`` logger,
* ``ensure_kernels`` compile-time accounting (new seconds once per
  signature, 0.0 when warm) and its flow into
  ``EngineStats.kernel_compile_time_s``,
* the ``REPRO_NUM_THREADS`` knob and ``effective_num_threads`` resolution,
* registry integration: the ``numba`` alias, capability tiers, and the
  ``describe()`` extra line reporting the active path,
* edge/argument validation (bad XY kind, non-contiguous blocks, phase
  without table or costs) and XY edge-order equivalence with the ordered
  ``python`` kernels.
"""

import logging
import threading
import time

import numpy as np
import pytest

import repro
import repro.fur as fur
from repro.fur.diagonal import build_phase_table
from repro.fur.jit import kernels
from repro.fur.python.furx import furx_all_batch, furx_phase_all_batch
from repro.fur.python.furxy import (
    complete_edges,
    furxy_complete_batch,
    furxy_ring_batch,
    ring_edges,
)
from repro.fur.python.qaoa_simulator import _block_expectations
from repro.problems import labs

PRECISIONS = ("double", "single")
DTYPES = {"double": np.complex128, "single": np.complex64}
ATOL = {"double": 1e-12, "single": 1e-5}

#: The resolved ladder path plus the numpy delegation path; identical on
#: machines with neither numba nor a compiler (both cheap, so just run both).
PATHS = ("active", "numpy")


@pytest.fixture(params=PATHS)
def jit_path(request, monkeypatch):
    """Run the test body on one implementation path, restoring afterwards."""
    if request.param == "numpy":
        monkeypatch.setenv("REPRO_JIT_PATH", "numpy")
    else:
        monkeypatch.delenv("REPRO_JIT_PATH", raising=False)
    kernels._reset_path_cache()
    yield kernels.active_path()
    kernels._reset_path_cache()


def random_block(rng, rows, n_qubits, dtype):
    shape = (rows, 1 << n_qubits)
    block = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    block /= np.linalg.norm(block, axis=1, keepdims=True)
    return np.ascontiguousarray(block.astype(dtype))


def labs_costs(n_qubits):
    sim = repro.simulator(n_qubits, terms=labs.get_terms(n_qubits),
                          backend="python")
    return np.asarray(sim.get_cost_diagonal(), dtype=np.float64)


class TestFurxKernels:
    N = 6
    ROWS = 5

    @pytest.mark.parametrize("precision", PRECISIONS)
    @pytest.mark.parametrize("phase_mode", ["table", "costs", "none"])
    def test_fused_phase_mixer_matches_python(self, rng, jit_path, precision,
                                              phase_mode):
        dtype, atol = DTYPES[precision], ATOL[precision]
        costs = labs_costs(self.N).astype(
            np.float32 if precision == "single" else np.float64)
        block = random_block(rng, self.ROWS, self.N, dtype)
        expected = block.copy()
        gammas = np.linspace(0.1, 0.9, self.ROWS)
        betas = np.linspace(-0.7, 0.6, self.ROWS)
        table = build_phase_table(costs)
        assert table is not None  # LABS diagonals have few unique values
        scratch = np.empty_like(expected)
        if phase_mode == "none":
            kernels.furx_block(block, betas)
            furx_all_batch(expected, betas, self.N, scratch=scratch)
        elif phase_mode == "table":
            kernels.furx_phase_block(block, gammas, betas, phase_table=table)
            furx_phase_all_batch(expected, gammas, betas, self.N,
                                 phase_table=table, scratch=scratch)
        else:
            kernels.furx_phase_block(block, gammas, betas, costs=costs)
            furx_phase_all_batch(expected, gammas, betas, self.N,
                                 costs=costs, scratch=scratch)
        np.testing.assert_allclose(block, expected, atol=atol)

    @pytest.mark.parametrize("precision", PRECISIONS)
    def test_small_tile_matches_default_tile(self, rng, jit_path, precision):
        """Tiling is an implementation detail: tile_q must not change values."""
        dtype, atol = DTYPES[precision], ATOL[precision]
        block = random_block(rng, 3, self.N, dtype)
        reference = block.copy()
        betas = np.array([0.3, -0.2, 0.85])
        kernels.furx_block(block, betas, tile_q=2)
        kernels.furx_block(reference, betas)
        np.testing.assert_allclose(block, reference, atol=atol)

    @pytest.mark.parametrize("precision", PRECISIONS)
    def test_fused_expectation_matches_separate(self, rng, jit_path,
                                                precision):
        dtype, atol = DTYPES[precision], ATOL[precision]
        costs = labs_costs(self.N)
        block = random_block(rng, self.ROWS, self.N, dtype)
        expected_block = block.copy()
        gammas = np.linspace(-0.4, 0.8, self.ROWS)
        betas = np.linspace(0.2, 1.1, self.ROWS)
        table = build_phase_table(costs)
        out = kernels.furx_expectation_block(block, gammas, betas, costs,
                                             phase_table=table)
        scratch = np.empty_like(expected_block)
        furx_phase_all_batch(expected_block, gammas, betas, self.N,
                             phase_table=table, scratch=scratch)
        # the block still holds the evolved state, and the reduction is the
        # plain per-row sum of c|psi|^2 over that state
        np.testing.assert_allclose(block, expected_block, atol=atol)
        np.testing.assert_allclose(
            out, _block_expectations(expected_block, costs),
            atol=10 * atol)
        assert out.dtype == np.float64

    def test_expectation_reduction_accuracy_large_block(self, rng, jit_path):
        """The chunked accumulation keeps the reduction inside the envelope."""
        n = 10
        costs = labs_costs(n)
        block = random_block(rng, 2, n, np.complex128)
        out = kernels.expectation_block(block, costs)
        expected = np.einsum("rx,x->r", np.abs(block) ** 2, costs)
        np.testing.assert_allclose(out, expected, rtol=1e-12)


class TestFurxyKernels:
    N = 5
    ROWS = 4

    @pytest.mark.parametrize("precision", PRECISIONS)
    @pytest.mark.parametrize("kind", ["ring", "complete"])
    @pytest.mark.parametrize("n_trotters", [1, 3])
    def test_matches_python_ordered_product(self, rng, jit_path, precision,
                                            kind, n_trotters):
        dtype, atol = DTYPES[precision], ATOL[precision]
        costs = labs_costs(self.N)
        block = random_block(rng, self.ROWS, self.N, dtype)
        expected = block.copy()
        gammas = np.linspace(0.15, 0.75, self.ROWS)
        betas = np.linspace(-0.5, 0.9, self.ROWS)
        table = build_phase_table(costs)
        kernels.furxy_block(block, gammas, betas, kind=kind,
                            n_trotters=n_trotters, phase_table=table)
        factors = table.factors_batch(gammas, dtype=dtype)
        for r in range(self.ROWS):
            expected[r] *= factors[r][table.inverse]
        apply = furxy_ring_batch if kind == "ring" else furxy_complete_batch
        sub = np.asarray(betas) / n_trotters
        for _ in range(n_trotters):
            apply(expected, sub, self.N)
        np.testing.assert_allclose(block, expected, atol=atol)

    def test_edge_order_matches_python_kernels(self):
        for kind, reference in (("ring", ring_edges),
                                ("complete", complete_edges)):
            edges = kernels.mixer_edges(kind, self.N)
            expected = [(min(i, j), max(i, j)) for i, j in reference(self.N)]
            assert [tuple(e) for e in edges.tolist()] == expected
            assert edges.dtype == np.int64

    def test_bad_kind_rejected(self, rng, jit_path):
        block = random_block(rng, 1, 3, np.complex128)
        with pytest.raises(ValueError, match="ring"):
            kernels.furxy_block(block, None, np.array([0.1]), kind="star")


class TestPhaseAndValidation:
    @pytest.mark.parametrize("precision", PRECISIONS)
    def test_phase_block_direct_costs(self, rng, jit_path, precision):
        dtype, atol = DTYPES[precision], ATOL[precision]
        n, rows = 6, 3
        costs = labs_costs(n)
        block = random_block(rng, rows, n, dtype)
        gammas = np.array([0.2, -0.9, 1.4])
        expected = block * np.exp(-1j * gammas[:, None] * costs[None, :])
        kernels.phase_block(block, gammas, costs=costs)
        np.testing.assert_allclose(block, expected.astype(dtype), atol=atol)

    def test_phase_without_table_or_costs_rejected(self, rng, jit_path):
        block = random_block(rng, 1, 3, np.complex128)
        with pytest.raises(ValueError, match="phase_table or costs"):
            kernels.phase_block(block, np.array([0.3]))

    def test_non_contiguous_block_rejected(self, rng):
        block = random_block(rng, 4, 3, np.complex128)[:, ::2]
        with pytest.raises(ValueError, match="C-contiguous"):
            kernels.furx_block(block, np.zeros(4))
        with pytest.raises(ValueError, match="C-contiguous"):
            kernels.furx_block(random_block(rng, 2, 3, np.complex128)[0],
                               np.zeros(1))

    def test_non_power_of_two_block_rejected(self):
        block = np.zeros((2, 6), dtype=np.complex128)
        with pytest.raises(ValueError, match="power of two"):
            kernels.furx_block(block, np.zeros(2))


class TestPathLadderAndCompileAccounting:
    def test_active_path_is_known(self):
        kernels._reset_path_cache()
        assert kernels.active_path() in kernels.KNOWN_PATHS

    def test_forced_numpy_path(self, monkeypatch):
        monkeypatch.setenv("REPRO_JIT_PATH", "numpy")
        kernels._reset_path_cache()
        try:
            assert kernels.active_path() == "numpy"
            assert kernels.effective_num_threads() == 1
        finally:
            kernels._reset_path_cache()

    def test_unknown_forced_path_falls_back_to_ladder(self, monkeypatch):
        monkeypatch.setenv("REPRO_JIT_PATH", "quantum-accelerator")
        kernels._reset_path_cache()
        try:
            assert kernels.active_path() in kernels.KNOWN_PATHS
        finally:
            kernels._reset_path_cache()

    def test_failed_c_build_warns_once(self, monkeypatch, caplog):
        def broken_build():
            raise RuntimeError("no C compiler found (tried cc, gcc, clang)")

        monkeypatch.delenv("REPRO_JIT_PATH", raising=False)
        monkeypatch.setattr(kernels, "NUMBA_AVAILABLE", False)
        monkeypatch.setattr(kernels, "_clib", None)
        monkeypatch.setattr(kernels, "_clib_error", None)
        monkeypatch.setattr(kernels, "_build_clib", broken_build)
        kernels._reset_path_cache()
        try:
            with caplog.at_level(logging.WARNING, logger="repro.fur.jit"):
                assert kernels.active_path() == "numpy"
                assert kernels.active_path() == "numpy"
                assert kernels.active_path() == "numpy"
        finally:
            kernels._reset_path_cache()
        records = [r for r in caplog.records if r.name == "repro.fur.jit"]
        assert len(records) == 1
        assert records[0].levelno == logging.WARNING
        message = records[0].getMessage()
        assert "numpy" in message and "no C compiler found" in message

    def test_racing_first_calls_warn_once(self, monkeypatch, caplog):
        n_threads = 8
        barrier = threading.Barrier(n_threads)

        def slow_broken_build():
            time.sleep(0.05)  # keep the other callers queued behind the build
            raise RuntimeError("no C compiler found (tried cc, gcc, clang)")

        def first_call(results, i):
            barrier.wait()
            results[i] = kernels.active_path()

        monkeypatch.delenv("REPRO_JIT_PATH", raising=False)
        monkeypatch.setattr(kernels, "NUMBA_AVAILABLE", False)
        monkeypatch.setattr(kernels, "_clib", None)
        monkeypatch.setattr(kernels, "_clib_error", None)
        monkeypatch.setattr(kernels, "_build_clib", slow_broken_build)
        kernels._reset_path_cache()
        results = [None] * n_threads
        try:
            with caplog.at_level(logging.WARNING, logger="repro.fur.jit"):
                threads = [threading.Thread(target=first_call,
                                            args=(results, i))
                           for i in range(n_threads)]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join()
        finally:
            kernels._reset_path_cache()
        assert results == ["numpy"] * n_threads
        records = [r for r in caplog.records if r.name == "repro.fur.jit"]
        assert len(records) == 1

    def test_forced_numpy_path_logs_nothing(self, monkeypatch, caplog):
        monkeypatch.setenv("REPRO_JIT_PATH", "numpy")
        kernels._reset_path_cache()
        try:
            with caplog.at_level(logging.DEBUG, logger="repro.fur.jit"):
                assert kernels.active_path() == "numpy"
        finally:
            kernels._reset_path_cache()
        assert [r for r in caplog.records if r.name == "repro.fur.jit"] == []

    def test_ensure_kernels_reports_new_seconds_once(self, jit_path):
        first = kernels.ensure_kernels(np.complex128, 7, "x")
        again = kernels.ensure_kernels(np.complex128, 7, "x")
        assert isinstance(first, float) and first >= 0.0
        assert again == 0.0

    @pytest.mark.skipif(not kernels.NUMBA_AVAILABLE,
                        reason="numba not installed")
    def test_numba_is_preferred_when_available(self, monkeypatch):
        monkeypatch.delenv("REPRO_JIT_PATH", raising=False)
        kernels._reset_path_cache()
        try:
            assert kernels.active_path() == "numba"
        finally:
            kernels._reset_path_cache()


class TestThreadKnob:
    def test_requested_num_threads_parses_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_NUM_THREADS", raising=False)
        assert kernels.requested_num_threads() is None
        monkeypatch.setenv("REPRO_NUM_THREADS", "3")
        assert kernels.requested_num_threads() == 3
        monkeypatch.setenv("REPRO_NUM_THREADS", "not-a-number")
        assert kernels.requested_num_threads() is None
        monkeypatch.setenv("REPRO_NUM_THREADS", "0")
        assert kernels.requested_num_threads() is None

    def test_effective_threads_capped_by_cpu_count(self, monkeypatch):
        monkeypatch.setenv("REPRO_NUM_THREADS", "100000")
        assert 1 <= kernels.effective_num_threads() <= 100000

    def test_parity_is_thread_count_independent(self, rng, monkeypatch):
        """Row slicing must not change values (pure per-row parallelism)."""
        block = random_block(rng, 8, 5, np.complex128)
        reference = block.copy()
        betas = np.linspace(-1.0, 1.0, 8)
        monkeypatch.setenv("REPRO_NUM_THREADS", "4")
        kernels.furx_block(block, betas)
        monkeypatch.setenv("REPRO_NUM_THREADS", "1")
        kernels.furx_block(reference, betas)
        np.testing.assert_array_equal(block, reference)


class TestRegistryIntegration:
    def test_jit_registered_with_numba_alias(self):
        spec = fur.get_backend("jit")
        assert spec.name == "jit"
        assert fur.get_backend("numba").name == "jit"
        assert set(spec.mixers) == {"x", "xyring", "xycomplete"}
        assert set(spec.precisions) == {"double", "single"}

    def test_describe_reports_active_path(self):
        text = fur.registry.describe()
        assert "jit" in text
        assert f"path={kernels.active_path()}" in text
        assert "REPRO_NUM_THREADS" in text

    @pytest.mark.parametrize("mixer", ["x", "xyring", "xycomplete"])
    def test_statevector_parity_with_python(self, mixer, small_labs_terms,
                                            qaoa_angles):
        n = 6
        gammas, betas = qaoa_angles
        svs = {}
        for backend in ("python", "jit"):
            sim = repro.simulator(n, terms=small_labs_terms, backend=backend,
                                  mixer=mixer)
            svs[backend] = np.asarray(
                sim.get_statevector(sim.simulate_qaoa(gammas, betas)))
        np.testing.assert_allclose(svs["jit"], svs["python"], atol=1e-12)

    def test_fused_batch_matches_python_and_books_compile_time(
            self, rng, small_labs_terms):
        n, batch, p = 6, 4, 2
        gb = rng.uniform(-1.0, 1.0, (batch, p))
        bb = rng.uniform(-1.0, 1.0, (batch, p))
        jit_sim = repro.simulator(n, terms=small_labs_terms, backend="jit")
        ref_sim = repro.simulator(n, terms=small_labs_terms,
                                  backend="python")
        np.testing.assert_allclose(jit_sim.get_expectation_batch(gb, bb),
                                   ref_sim.get_expectation_batch(gb, bb),
                                   atol=1e-10)
        stats = jit_sim.engine.stats.as_dict()
        assert "kernel_compile_time_s" in stats
        assert stats["kernel_compile_time_s"] >= 0.0

