"""Tests for the QAOA objective factory and the optimization drivers."""

import numpy as np
import pytest

from repro.fur import dicke_state, get_simulator_class
from repro.gates import QAOAGateBasedSimulator
from repro.problems import labs, maxcut
from repro.qaoa import (
    get_qaoa_objective,
    grid_scan_qaoa,
    linear_ramp_parameters,
    make_simulator,
    minimize_qaoa,
    population_optimize,
    progressive_depth_optimization,
    stack_parameters,
)


class TestMakeSimulator:
    def test_by_name_and_class_and_instance(self, small_labs_terms):
        sim1 = make_simulator(6, terms=small_labs_terms, backend="python")
        assert sim1.backend_name == "python"
        sim2 = make_simulator(6, terms=small_labs_terms, backend=QAOAGateBasedSimulator)
        assert sim2.backend_name == "gates"
        assert make_simulator(6, backend=sim1) is sim1

    def test_mixer_selection(self, small_labs_terms):
        sim = make_simulator(6, terms=small_labs_terms, backend="c", mixer="xyring")
        assert sim.mixer_name == "xyring"
        with pytest.raises(ValueError):
            make_simulator(6, terms=small_labs_terms, backend="c", mixer="nope")


class TestObjective:
    def test_callable_matches_manual_simulation(self, small_maxcut, qaoa_angles):
        _, terms = small_maxcut
        gammas, betas = qaoa_angles
        obj = get_qaoa_objective(6, 2, terms=terms, backend="c")
        value = obj(stack_parameters(gammas, betas))
        sim = get_simulator_class("c")(6, terms=terms)
        expected = sim.get_expectation(sim.simulate_qaoa(gammas, betas))
        assert value == pytest.approx(expected, abs=1e-12)

    def test_bookkeeping(self, small_maxcut):
        _, terms = small_maxcut
        obj = get_qaoa_objective(6, 1, terms=terms, backend="c")
        theta_a = np.array([0.1, 0.2])
        theta_b = np.array([0.4, 0.3])
        va, vb = obj(theta_a), obj(theta_b)
        assert obj.n_evaluations == 2
        assert obj.history == [va, vb]
        assert obj.best_value == min(va, vb)
        obj.reset_statistics()
        assert obj.n_evaluations == 0 and obj.history == []

    def test_overlap_objective_is_negated(self, qaoa_angles):
        n = 6
        terms = labs.get_terms(n)
        gammas, betas = qaoa_angles
        obj = get_qaoa_objective(n, 2, terms=terms, backend="c", objective="overlap")
        value = obj(stack_parameters(gammas, betas))
        sim = get_simulator_class("c")(n, terms=terms)
        overlap = sim.get_overlap(sim.simulate_qaoa(gammas, betas))
        assert value == pytest.approx(-overlap, abs=1e-12)

    def test_wrong_parameter_length_rejected(self, small_maxcut):
        _, terms = small_maxcut
        obj = get_qaoa_objective(6, 2, terms=terms, backend="c")
        with pytest.raises(ValueError):
            obj(np.array([0.1, 0.2]))

    def test_evaluate_rejects_wrong_depth_like_call(self, small_maxcut):
        _, terms = small_maxcut
        obj = get_qaoa_objective(6, 2, terms=terms, backend="c")
        g, b = [0.1, 0.2, 0.3], [0.4, 0.5, 0.6]
        message = "parameter vector encodes p=3, objective expects p=2"
        with pytest.raises(ValueError, match=message):
            obj(stack_parameters(g, b))
        with pytest.raises(ValueError, match=message):
            obj.evaluate(g, b)
        assert obj.n_evaluations == 0 and obj.best_parameters is None

    def test_call_is_one_evaluation_not_a_public_batch_call(self, small_maxcut,
                                                            monkeypatch):
        # Subclasses that time evaluate_batch (a benchmark's objective) must
        # not see a single __call__ as a second evaluation.
        _, terms = small_maxcut
        obj = get_qaoa_objective(6, 1, terms=terms, backend="c")

        def no_batch(thetas):
            raise AssertionError("__call__ went through evaluate_batch")

        monkeypatch.setattr(obj, "evaluate_batch", no_batch)
        obj(np.array([0.1, 0.2]))
        obj.evaluate([0.3], [0.4])
        assert obj.n_evaluations == 2 and len(obj.history) == 2

    def test_invalid_objective_kind(self, small_maxcut):
        _, terms = small_maxcut
        with pytest.raises(ValueError):
            get_qaoa_objective(6, 1, terms=terms, objective="fidelity")

    def test_backends_give_same_objective(self, small_labs_terms, qaoa_angles):
        gammas, betas = qaoa_angles
        theta = stack_parameters(gammas, betas)
        values = []
        for backend in ("python", "c", "gpu", QAOAGateBasedSimulator):
            obj = get_qaoa_objective(6, 2, terms=small_labs_terms, backend=backend)
            values.append(obj(theta))
        np.testing.assert_allclose(values, values[0], atol=1e-9)

    def test_custom_initial_state(self, qaoa_angles):
        """XY-mixer objective over a Dicke initial state stays in the weight sector."""
        n = 6
        from repro.problems import portfolio

        prob = portfolio.random_portfolio_problem(n, budget=2, seed=0)
        terms = portfolio.portfolio_terms(prob)
        sv0 = dicke_state(n, 2)
        obj = get_qaoa_objective(n, 2, terms=terms, backend="c", mixer="xyring", sv0=sv0)
        gammas, betas = qaoa_angles
        value = obj(stack_parameters(gammas, betas))
        feasible = portfolio.hamming_weight_indices(n, 2)
        costs = portfolio.portfolio_cost_vector(prob)
        assert costs[feasible].min() - 1e-9 <= value <= costs[feasible].max() + 1e-9


class TestMinimize:
    def test_optimization_improves_on_initial_point(self, small_maxcut):
        _, terms = small_maxcut
        obj = get_qaoa_objective(6, 2, terms=terms, backend="c")
        g0, b0 = linear_ramp_parameters(2)
        initial_value = obj.evaluate(g0, b0)
        result = minimize_qaoa(obj, g0, b0, method="COBYLA", maxiter=60)
        assert result.value <= initial_value + 1e-12
        assert result.n_evaluations > 5
        assert result.p == 2
        assert len(result.history) == result.n_evaluations
        assert result.wall_time > 0

    def test_methods_and_validation(self, small_maxcut):
        _, terms = small_maxcut
        obj = get_qaoa_objective(6, 1, terms=terms, backend="c")
        with pytest.raises(ValueError):
            minimize_qaoa(obj, method="gradient-descent-from-memory")
        with pytest.raises(ValueError):
            minimize_qaoa(obj, maxiter=0)
        with pytest.raises(ValueError):
            minimize_qaoa(obj, np.array([0.1]), np.array([0.1, 0.2]))

    def test_nelder_mead_also_works(self, small_maxcut):
        _, terms = small_maxcut
        obj = get_qaoa_objective(6, 1, terms=terms, backend="c")
        result = minimize_qaoa(obj, method="Nelder-Mead", maxiter=40)
        diag = obj.simulator.get_cost_diagonal()
        assert diag.min() - 1e-9 <= result.value <= diag.max() + 1e-9

    def test_progressive_depth_improves_or_matches(self):
        n = 8
        terms = labs.get_terms(n)

        def factory(p):
            return get_qaoa_objective(n, p, terms=terms, backend="c")

        results = progressive_depth_optimization(factory, max_p=3, maxiter_per_depth=40)
        assert [r.p for r in results] == [1, 2, 3]
        # deeper QAOA should not be (meaningfully) worse than p=1
        assert results[-1].value <= results[0].value + 1e-6

    def test_progressive_depth_never_gets_worse_with_short_budgets(self):
        # A few COBYLA steps per depth cannot repair a bad INTERP start; the
        # zero-padded previous optimum keeps every depth at least as good as
        # the one before it.
        n = 6
        terms = labs.get_terms(n)

        def factory(p):
            return get_qaoa_objective(n, p, terms=terms, backend="c")

        results = progressive_depth_optimization(factory, max_p=3,
                                                 maxiter_per_depth=10)
        values = [r.value for r in results]
        assert all(b <= a for a, b in zip(values, values[1:])), values

    def test_progressive_depth_validation(self):
        with pytest.raises(ValueError):
            progressive_depth_optimization(lambda p: None, max_p=0)

    def test_factory_depth_mismatch_detected(self, small_maxcut):
        _, terms = small_maxcut

        def bad_factory(p):
            return get_qaoa_objective(6, 1, terms=terms, backend="c")

        with pytest.raises(ValueError):
            progressive_depth_optimization(bad_factory, max_p=2)


class TestBatchedDrivers:
    def test_grid_scan_matches_single_evaluations(self, small_maxcut):
        _, terms = small_maxcut
        obj = get_qaoa_objective(6, 1, terms=terms, backend="c")
        gammas = np.linspace(0.0, 1.0, 4)
        betas = np.linspace(0.0, 0.8, 5)
        scan = grid_scan_qaoa(obj, gammas, betas)
        assert scan.values.shape == (4, 5)
        assert scan.n_evaluations == 20
        assert scan.best_value == pytest.approx(scan.values.min())
        # spot-check grid entries against independent single evaluations
        check = get_qaoa_objective(6, 1, terms=terms, backend="c")
        for gi, bi in ((0, 0), (2, 3), (3, 4)):
            single = check(np.array([gammas[gi], betas[bi]]))
            assert scan.values[gi, bi] == pytest.approx(single, rel=1e-12)
        assert scan.values[np.searchsorted(gammas, scan.best_gamma),
                           np.searchsorted(betas, scan.best_beta)] \
            == pytest.approx(scan.best_value)

    def test_grid_scan_requires_depth_one(self, small_maxcut):
        _, terms = small_maxcut
        obj = get_qaoa_objective(6, 2, terms=terms, backend="c")
        with pytest.raises(ValueError, match="p=1"):
            grid_scan_qaoa(obj, [0.1], [0.2])
        obj1 = get_qaoa_objective(6, 1, terms=terms, backend="c")
        with pytest.raises(ValueError, match="non-empty"):
            grid_scan_qaoa(obj1, [], [0.2])

    def test_population_optimize_improves_on_first_generation(self):
        n = 6
        terms = labs.get_terms(n)
        obj = get_qaoa_objective(n, 2, terms=terms, backend="c")
        result = population_optimize(obj, generations=6, population_size=16, seed=0)
        assert result.method == "population"
        assert result.n_evaluations == 6 * 16
        assert result.p == 2
        # the best-seen value can only improve over the first generation
        assert result.value <= min(result.history[:16]) + 1e-12
        diag = obj.simulator.get_cost_diagonal()
        assert diag.min() - 1e-9 <= result.value <= diag.max() + 1e-9

    def test_population_optimize_validation(self, small_maxcut):
        _, terms = small_maxcut
        obj = get_qaoa_objective(6, 1, terms=terms, backend="c")
        with pytest.raises(ValueError):
            population_optimize(obj, generations=0)
        with pytest.raises(ValueError):
            population_optimize(obj, elite_fraction=1.5)

    def test_batch_memory_budget_plumbed_through_objective(self, small_maxcut):
        _, terms = small_maxcut
        thetas = np.array([[0.1, 0.2], [0.3, 0.4], [0.5, 0.6]])
        tiny = get_qaoa_objective(6, 1, terms=terms, backend="python",
                                  batch_memory_budget=16 * (1 << 6))
        default = get_qaoa_objective(6, 1, terms=terms, backend="python")
        np.testing.assert_allclose(tiny.evaluate_batch(thetas),
                                   default.evaluate_batch(thetas), atol=1e-12)
