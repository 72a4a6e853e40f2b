"""Tests for the CPU QAOA simulator backends (python and c)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from functools import partial

from repro.fur import get_simulator_class
from repro.fur.python import kernels as np_kernels
from repro.problems import labs, maxcut

from repro.testing import random_terms

BACKENDS = ["python", "c"]
CHOOSERS = {
    "x": partial(get_simulator_class, mixer="x"),
    "xyring": partial(get_simulator_class, mixer="xyring"),
    "xycomplete": partial(get_simulator_class, mixer="xycomplete"),
}


class TestPhaseOperator:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_beta_zero_applies_pure_phases(self, backend, small_labs_terms):
        """With β=0 the layer is diagonal: probabilities stay uniform."""
        n = 6
        sim = get_simulator_class(backend)(n, terms=small_labs_terms)
        res = sim.simulate_qaoa([0.7], [0.0])
        probs = sim.get_probabilities(res)
        np.testing.assert_allclose(probs, 1.0 / (1 << n), atol=1e-12)
        # and the phases match exp(-i*gamma*costs)
        sv = np.asarray(sim.get_statevector(res))
        expected = np.exp(-1j * 0.7 * sim.get_cost_diagonal()) / np.sqrt(1 << n)
        np.testing.assert_allclose(sv, expected, atol=1e-12)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_gamma_zero_leaves_plus_state(self, backend, small_labs_terms):
        """With γ=0 the phase is trivial and |+>^n is a mixer eigenstate."""
        n = 6
        sim = get_simulator_class(backend)(n, terms=small_labs_terms)
        res = sim.simulate_qaoa([0.0], [0.4])
        probs = sim.get_probabilities(res)
        np.testing.assert_allclose(probs, 1.0 / (1 << n), atol=1e-12)


class TestBackendEquivalence:
    @pytest.mark.parametrize("mixer", ["x", "xyring", "xycomplete"])
    def test_python_and_c_agree(self, mixer, small_labs_terms, qaoa_angles):
        n = 6
        gammas, betas = qaoa_angles
        svs = {}
        for backend in BACKENDS:
            sim = CHOOSERS[mixer](backend)(n, terms=small_labs_terms)
            svs[backend] = np.asarray(sim.get_statevector(sim.simulate_qaoa(gammas, betas)))
        np.testing.assert_allclose(svs["python"], svs["c"], atol=1e-12)

    @given(st.integers(min_value=2, max_value=7), st.integers(min_value=0, max_value=2 ** 31 - 1),
           st.integers(min_value=1, max_value=3))
    @settings(max_examples=25, deadline=None)
    def test_property_backends_agree_on_random_problems(self, n, seed, p):
        rng = np.random.default_rng(seed)
        terms = random_terms(rng, n, int(rng.integers(1, 8)), max_order=min(3, n))
        gammas = rng.uniform(-1, 1, p)
        betas = rng.uniform(-1, 1, p)
        results = []
        for backend in BACKENDS:
            sim = get_simulator_class(backend)(n, terms=terms)
            results.append(np.asarray(sim.get_statevector(sim.simulate_qaoa(gammas, betas))))
        np.testing.assert_allclose(results[0], results[1], atol=1e-10)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_norm_preserved_deep_circuit(self, backend, small_labs_terms):
        n, p = 6, 50
        rng = np.random.default_rng(0)
        sim = get_simulator_class(backend)(n, terms=small_labs_terms)
        res = sim.simulate_qaoa(rng.uniform(0, 1, p), rng.uniform(0, 1, p))
        assert np.linalg.norm(np.asarray(sim.get_statevector(res))) == pytest.approx(1.0, abs=1e-9)


class TestExpectationAndOverlap:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_expectation_matches_manual_inner_product(self, backend, small_maxcut, qaoa_angles):
        graph, terms = small_maxcut
        gammas, betas = qaoa_angles
        sim = get_simulator_class(backend)(6, terms=terms)
        res = sim.simulate_qaoa(gammas, betas)
        sv = np.asarray(sim.get_statevector(res))
        manual = float(np.dot(np.abs(sv) ** 2, sim.get_cost_diagonal()))
        assert sim.get_expectation(res) == pytest.approx(manual, abs=1e-12)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_expectation_bounded_by_spectrum(self, backend, small_labs_terms, qaoa_angles):
        gammas, betas = qaoa_angles
        sim = get_simulator_class(backend)(6, terms=small_labs_terms)
        res = sim.simulate_qaoa(gammas, betas)
        diag = sim.get_cost_diagonal()
        e = sim.get_expectation(res)
        assert diag.min() - 1e-9 <= e <= diag.max() + 1e-9

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_overlap_defaults_to_ground_states(self, backend, qaoa_angles):
        n = 8
        terms = labs.get_terms(n)
        gammas, betas = qaoa_angles
        sim = get_simulator_class(backend)(n, terms=terms)
        res = sim.simulate_qaoa(gammas, betas)
        probs = sim.get_probabilities(res)
        gs = labs.ground_state_indices(n)
        assert sim.get_overlap(res) == pytest.approx(float(probs[gs].sum()), abs=1e-12)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_probabilities_sum_to_one(self, backend, small_labs_terms, qaoa_angles):
        gammas, betas = qaoa_angles
        sim = get_simulator_class(backend)(6, terms=small_labs_terms)
        probs = sim.get_probabilities(sim.simulate_qaoa(gammas, betas))
        assert probs.sum() == pytest.approx(1.0, abs=1e-10)

    def test_qaoa_improves_over_random_guess(self):
        """A coarse p=1 angle scan already beats the uniform-sampling average on MaxCut."""
        graph = maxcut.random_regular_graph(3, 8, seed=5)
        terms = maxcut.maxcut_terms_from_graph(graph)
        sim = get_simulator_class("c")(8, terms=terms)
        mean_cost = float(sim.get_cost_diagonal().mean())
        best = np.inf
        for gamma in np.linspace(-0.7, 0.7, 8):
            for beta in np.linspace(-0.7, 0.7, 8):
                best = min(best, sim.get_expectation(sim.simulate_qaoa([gamma], [beta])))
        assert best < mean_cost - 0.5


class TestSimulateKwargs:
    @pytest.mark.parametrize("backend", BACKENDS + ["gates", "sharded"])
    @pytest.mark.parametrize("kwarg", ["bogus", "optimize", "memory_budget",
                                       "mode"])
    def test_unexpected_kwargs_rejected(self, small_labs_terms, backend,
                                        kwarg):
        """``n_trotters`` is the only keyword; batch-only engine options
        are rejected too, also where the schedule is a one-row plan."""
        sim = get_simulator_class(backend)(6, terms=small_labs_terms)
        with pytest.raises(TypeError):
            sim.simulate_qaoa([0.1], [0.1], **{kwarg: None})

    def test_invalid_trotter_count(self, small_labs_terms):
        sim = get_simulator_class("c", mixer="xyring")(6, terms=small_labs_terms)
        with pytest.raises(ValueError):
            sim.simulate_qaoa([0.1], [0.1], n_trotters=0)

    def test_xy_trotterization_converges(self, small_labs_terms):
        """More Trotter slices converge towards the exact XY-mixer evolution."""
        from scipy.linalg import expm

        n = 4
        terms = labs.get_terms(n)
        sim_cls = get_simulator_class("python", mixer="xyring")
        beta, gamma = 0.4, 0.3

        # exact mixer: expm(-i beta sum_{ring} (XX+YY)/2) applied after the phase
        x = np.array([[0, 1], [1, 0]], dtype=complex)
        y = np.array([[0, -1j], [1j, 0]], dtype=complex)

        def two_site(op, i, j):
            mats = [np.eye(2, dtype=complex)] * n
            mats[i], mats[j] = op, op
            full = np.array([[1.0]])
            for q in range(n):
                full = np.kron(mats[q], full)
            return full

        from repro.fur.python.furxy import ring_edges

        ham = sum((two_site(x, i, j) + two_site(y, i, j)) / 2 for i, j in ring_edges(n))
        sim = sim_cls(n, terms=terms)
        sv0 = np.full(1 << n, 1 / np.sqrt(1 << n), dtype=complex)
        phase = np.exp(-1j * gamma * sim.get_cost_diagonal())
        exact = expm(-1j * beta * ham) @ (phase * sv0)

        errors = []
        for n_trotters in (1, 4, 16):
            sv = np.asarray(sim.get_statevector(
                sim.simulate_qaoa([gamma], [beta], n_trotters=n_trotters)))
            errors.append(np.abs(sv - exact).max())
        assert errors[1] < errors[0] and errors[2] < errors[1]
        assert errors[2] < errors[0] / 5
        assert errors[2] < 5e-3


class TestPythonNeedsNoCompiler:
    @pytest.mark.parametrize("mixer", ["x", "xyring", "xycomplete"])
    def test_never_builds_or_loads_the_c_library(self, mixer, monkeypatch):
        """The python backend runs the NumPy tier directly: with the jit
        library loader (and the rung resolution) broken, every entry point
        still works."""
        from repro.fur.jit import kernels

        def broken(*args, **kwargs):
            raise AssertionError("the python backend reached the jit rung")

        monkeypatch.setattr(kernels, "_load_clib", broken)
        monkeypatch.setattr(kernels, "active_path", broken)
        monkeypatch.setattr(kernels, "_active_path", None)
        n = 6
        sim = get_simulator_class("python", mixer)(n, terms=labs.get_terms(n))
        rng = np.random.default_rng(0)
        g, b = rng.uniform(-1, 1, (3, 2)), rng.uniform(-1, 1, (3, 2))
        states = sim.simulate_qaoa_batch(g, b)
        energies = sim.get_expectation_batch(g, b)
        for row in range(3):
            result = sim.simulate_qaoa(g[row], b[row])
            np.testing.assert_allclose(states[row], result, atol=1e-12)
            assert abs(energies[row] - sim.get_expectation(result)) < 1e-10


class TestBlockedKernels:
    """The jit numpy rung's blocked sweeps agree with the plain kernels for
    any chunk size (the chunk constant is patched down to force chunking)."""

    @pytest.mark.parametrize("chunk", [1, 3, 8, 64, 100000])
    def test_rotation_matches_reference(self, rng, numpy_rung, monkeypatch,
                                        chunk):
        import repro.fur.python.furx as furx

        monkeypatch.setattr(np_kernels, "_NP_CHUNK", chunk)
        n = 6
        sv = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
        a, b = furx.su2_x_rotation(0.3)
        for q in (0, 3, 5):
            ref = furx.apply_su2(sv.copy(), a, b, q)
            out = sv.copy()
            numpy_rung.rotate_x_block(out[None], np.array([0.3]), [q])
            np.testing.assert_allclose(out, ref, atol=1e-12)

    @pytest.mark.parametrize("chunk", [1, 5, 32, 100000])
    def test_furxy_matches_reference(self, rng, numpy_rung, monkeypatch,
                                     chunk):
        import repro.fur.python.furxy as furxy

        monkeypatch.setattr(np_kernels, "_NP_CHUNK", chunk)
        n = 6
        sv = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
        for (i, j) in [(0, 1), (2, 5), (5, 2), (4, 0)]:
            ref = furxy.furxy(sv.copy(), 0.41, i, j)
            out = sv.copy()
            numpy_rung.furxy_block(out[None], None, np.array([0.41]),
                                   edges=[(i, j)])
            np.testing.assert_allclose(out, ref, atol=1e-12)

    @pytest.mark.parametrize("chunk", [1, 48, 64, 200, 100000])
    def test_row_chunks_match_single_rows(self, rng, numpy_rung, monkeypatch,
                                          chunk):
        # several rows share one vectorized update when their pairs fit the
        # chunk; the per-row coefficients broadcast without changing a bit
        monkeypatch.setattr(np_kernels, "_NP_CHUNK", chunk)
        n, rows = 6, 5
        block = rng.normal(size=(rows, 1 << n)) + 1j * rng.normal(
            size=(rows, 1 << n))
        betas = rng.uniform(-1.0, 1.0, rows)
        edges = [(0, 1), (2, 5), (1, 4)]
        for apply in (
                lambda x, b: numpy_rung.rotate_x_block(x, b, [0, 5, 2]),
                lambda x, b: numpy_rung.furxy_block(x, None, b, edges=edges)):
            out = block.copy()
            apply(out, betas)
            for r in range(rows):
                row = block[r:r + 1].copy()
                apply(row, betas[r:r + 1])
                assert np.array_equal(out[r], row[0])

    def test_small_chunks_full_sharded_run(self, small_labs_terms,
                                           qaoa_angles, numpy_rung,
                                           monkeypatch):
        monkeypatch.setattr(np_kernels, "_NP_CHUNK", 16)
        gammas, betas = qaoa_angles
        ref_sim = get_simulator_class("python")(6, terms=small_labs_terms)
        ref = np.asarray(ref_sim.get_statevector(ref_sim.simulate_qaoa(gammas, betas)))
        sim = get_simulator_class("sharded")(6, terms=small_labs_terms, n_shards=2)
        out = np.asarray(sim.get_statevector(sim.simulate_qaoa(gammas, betas)))
        np.testing.assert_allclose(out, ref, atol=1e-12)
