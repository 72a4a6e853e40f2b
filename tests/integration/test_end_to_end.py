"""End-to-end workflows mirroring the paper's Listings and evaluation scenarios."""

import numpy as np
import pytest

from repro import fur
from repro.fur import dicke_state, precompute_cost_diagonal
from repro.fur.mpi import QAOAFURXSimulatorGPUMPI
from repro.gates import QAOAGateBasedSimulator
from repro.problems import labs, maxcut, portfolio
from repro.qaoa import (
    get_qaoa_objective,
    linear_ramp_parameters,
    minimize_qaoa,
    progressive_depth_optimization,
)
from repro.tensornet import TensorNetworkSimulator


class TestPaperListings:
    def test_listing_1_weighted_maxcut(self):
        """Listing 1: weighted all-to-all MaxCut objective evaluation."""
        simclass = fur.get_simulator_class(name="auto")
        n = 8
        terms = [(0.3, (i, j)) for i in range(n) for j in range(i + 1, n)]
        sim = simclass(n, terms=terms)
        costs = sim.get_cost_diagonal()
        gamma, beta = linear_ramp_parameters(3)
        result = sim.simulate_qaoa(gamma, beta)
        energy = sim.get_expectation(result)
        assert costs.shape == (1 << n,)
        assert costs.min() - 1e-9 <= energy <= costs.max() + 1e-9

    def test_listing_2_labs_xy_complete(self):
        """Listing 2: LABS with the complete-graph XY mixer."""
        simclass = fur.get_simulator_class(mixer="xycomplete")
        n = 8
        terms = labs.get_terms(n)
        sim = simclass(n, terms=terms)
        gamma, beta = linear_ramp_parameters(2)
        result = sim.simulate_qaoa(gamma, beta)
        energy = sim.get_expectation(result)
        assert energy >= labs.KNOWN_OPTIMAL_ENERGIES[n] - 1e-9

    def test_listing_3_distributed_labs(self):
        """Listing 3: LABS on the distributed (cusvmpi) backend."""
        simclass = fur.get_simulator_class(name="cusvmpi")
        n = 10
        terms = labs.get_terms(n)
        sim = simclass(n, terms=terms, n_ranks=4)
        gamma, beta = linear_ramp_parameters(2)
        result = sim.simulate_qaoa(gamma, beta)
        energy = sim.get_expectation(result, preserve_state=False)
        single = fur.get_simulator_class("c")(n, terms=terms)
        expected = single.get_expectation(single.simulate_qaoa(gamma, beta))
        assert energy == pytest.approx(expected, abs=1e-9)


class TestOptimizationWorkflow:
    def test_maxcut_optimization_reaches_good_approximation_ratio(self):
        """The Fig. 1 workflow: optimize parameters, measure solution quality."""
        n, p = 8, 3
        graph = maxcut.random_regular_graph(3, n, seed=9)
        terms = maxcut.maxcut_terms_from_graph(graph)
        best_cut, _ = maxcut.maxcut_optimal_cut_bruteforce(graph)
        obj = get_qaoa_objective(n, p, terms=terms, backend="c")
        result = minimize_qaoa(obj, method="COBYLA", maxiter=150)
        achieved_cut = -result.value
        assert achieved_cut / best_cut > 0.75

    def test_fur_and_gate_backends_converge_to_same_optimum(self):
        """The same optimization run gives the same answer regardless of backend
        (the backends differ only in speed — the paper's central claim)."""
        n, p = 6, 2
        terms = labs.get_terms(n)
        values = {}
        for backend in ("c", QAOAGateBasedSimulator):
            obj = get_qaoa_objective(n, p, terms=terms, backend=backend)
            values[str(backend)] = minimize_qaoa(obj, method="COBYLA", maxiter=80).value
        vals = list(values.values())
        assert vals[0] == pytest.approx(vals[1], abs=1e-4)

    def test_deeper_qaoa_improves_labs_merit_factor(self):
        """Higher depth improves LABS solution quality (the reason the paper
        targets high-depth simulation)."""
        n = 8
        terms = labs.get_terms(n)

        def factory(p):
            return get_qaoa_objective(n, p, terms=terms, backend="c")

        results = progressive_depth_optimization(factory, max_p=4, maxiter_per_depth=60)
        assert results[-1].value < results[0].value
        # energies translate to merit factors above the random-sequence baseline
        mf = labs.merit_factor_from_energy(results[-1].value, n)
        random_mf = labs.merit_factor_from_energy(float(np.mean(labs.energies_all_sequences(n))), n)
        assert mf > random_mf

    def test_overlap_grows_with_depth_for_labs(self):
        """With an annealing-like (small-Δt) linear ramp, longer schedules move the
        state closer to the LABS ground space — the high-depth regime the paper
        targets."""
        n = 8
        terms = labs.get_terms(n)
        sim = fur.get_simulator_class("c")(n, terms=terms)
        overlaps = []
        for p in (1, 8, 16):
            gammas, betas = linear_ramp_parameters(p, delta_t=0.3)
            overlaps.append(sim.get_overlap(sim.simulate_qaoa(gammas, betas)))
        assert overlaps[1] > overlaps[0]
        assert overlaps[2] > overlaps[1]


class TestConstrainedPortfolioWorkflow:
    def test_xy_mixer_keeps_budget_and_finds_good_portfolio(self):
        n, budget, p = 6, 3, 3
        prob = portfolio.random_portfolio_problem(n, budget=budget, seed=2)
        terms = portfolio.portfolio_terms(prob)
        sv0 = dicke_state(n, budget)
        obj = get_qaoa_objective(n, p, terms=terms, backend="c", mixer="xyring", sv0=sv0)
        result = minimize_qaoa(obj, method="COBYLA", maxiter=100)
        best_value, _ = portfolio.best_constrained_selection(prob)
        feasible = portfolio.hamming_weight_indices(n, budget)
        costs = portfolio.portfolio_cost_vector(prob)
        worst_value = float(costs[feasible].max())
        # optimized expectation lies in the feasible range, closer to the optimum
        assert best_value - 1e-9 <= result.value <= worst_value + 1e-9
        assert result.value < float(costs[feasible].mean())


class TestDistributedWorkflow:
    def test_distributed_objective_matches_during_optimization(self):
        n, p = 8, 2
        terms = labs.get_terms(n)
        obj_single = get_qaoa_objective(n, p, terms=terms, backend="c")
        sim_dist = QAOAFURXSimulatorGPUMPI(n, terms=terms, n_ranks=4)
        obj_dist = get_qaoa_objective(n, p, terms=terms, backend=sim_dist)
        rng = np.random.default_rng(0)
        for _ in range(5):
            theta = rng.uniform(-1, 1, 2 * p)
            assert obj_dist(theta) == pytest.approx(obj_single(theta), abs=1e-9)


class TestTensorNetworkCrossCheck:
    def test_tensornet_probability_of_ground_state_matches_fur(self, qaoa_angles):
        n = 6
        terms = labs.get_terms(n)
        gammas, betas = qaoa_angles
        sim = fur.get_simulator_class("c")(n, terms=terms)
        sv = np.asarray(sim.get_statevector(sim.simulate_qaoa(gammas, betas)))
        tns = TensorNetworkSimulator()
        x = int(labs.ground_state_indices(n)[0])
        bits = [(x >> q) & 1 for q in range(n)]
        amp = tns.qaoa_amplitude(terms, gammas, betas, n, bits)
        assert abs(amp) ** 2 == pytest.approx(float(np.abs(sv[x]) ** 2), abs=1e-10)

    def test_tensornet_energy_matches_fur_expectation(self):
        """Σ_x |⟨x|γβ⟩|²·c_x contracted amplitude by amplitude equals the
        state-vector objective (LABS n=5, p=2)."""
        n = 5
        terms = labs.get_terms(n)
        gammas, betas = [0.31, -0.52], [0.77, 0.19]
        sim = fur.get_simulator_class("jit")(n, terms=terms)
        expected = sim.get_expectation(sim.simulate_qaoa(gammas, betas))
        costs = precompute_cost_diagonal(terms, n)
        tns = TensorNetworkSimulator()
        energy = sum(
            abs(tns.qaoa_amplitude(terms, gammas, betas, n,
                                   [(x >> q) & 1 for q in range(n)])) ** 2
            * costs[x]
            for x in range(1 << n))
        assert energy == pytest.approx(expected, abs=1e-10)


class TestSolutionQualityAgainstClassical:
    def test_qaoa_samples_contain_optimal_labs_sequence(self):
        """With enough depth the optimum appears with amplified probability."""
        n = 8
        terms = labs.get_terms(n)
        sim = fur.get_simulator_class("c")(n, terms=terms)
        gammas, betas = linear_ramp_parameters(16, delta_t=0.3)
        res = sim.simulate_qaoa(gammas, betas)
        probs = sim.get_probabilities(res)
        diag = precompute_cost_diagonal(terms, n)
        optimum = np.flatnonzero(diag == diag.min())
        uniform = len(optimum) / (1 << n)
        assert float(probs[optimum].sum()) > 1.5 * uniform
