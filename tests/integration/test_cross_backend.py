"""Cross-backend equivalence: every simulator backend computes the same QAOA state.

This is the central integration property of the reproduction: the ``python``,
``c``, ``gpu`` (simulated device), ``gpumpi`` and ``cusvmpi`` (distributed)
backends and the gate-based baseline all realize the same unitary, so
expectation values, overlaps and state vectors must agree to numerical
precision on arbitrary problems.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fur import get_simulator_class
from repro.gates import QAOAGateBasedSimulator
from repro.problems import labs, maxcut, portfolio

from repro.testing import random_terms

ALL_BACKENDS = ["python", "c", "gpu", "gpumpi", "cusvmpi"]


def build(backend, n, terms):
    cls = get_simulator_class(backend)
    kwargs = {"n_ranks": 4} if backend in ("gpumpi", "cusvmpi") else {}
    return cls(n, terms=terms, **kwargs)


class TestAllBackendsAgree:
    @pytest.mark.parametrize("problem", ["labs", "maxcut", "sk", "portfolio"])
    def test_statevector_and_observables(self, problem, qaoa_angles):
        n = 8
        if problem == "labs":
            terms = labs.get_terms(n)
        elif problem == "maxcut":
            terms = maxcut.maxcut_terms_from_graph(maxcut.random_regular_graph(3, n, seed=1))
        elif problem == "sk":
            # Sherrington–Kirkpatrick: dense Gaussian couplings J_ij / sqrt(n)
            couplings = np.random.default_rng(1).normal(size=(n, n))
            terms = [(float(couplings[i, j]) * (1.0 / np.sqrt(n)), (i, j))
                     for i in range(n) for j in range(i + 1, n)]
        else:
            terms = portfolio.portfolio_terms(portfolio.random_portfolio_problem(n, seed=1))
        gammas, betas = qaoa_angles

        reference = None
        for backend in ALL_BACKENDS + ["gates"]:
            sim = (QAOAGateBasedSimulator(n, terms=terms) if backend == "gates"
                   else build(backend, n, terms))
            res = sim.simulate_qaoa(gammas, betas)
            sv = np.asarray(sim.get_statevector(res))
            expectation = sim.get_expectation(sim.simulate_qaoa(gammas, betas))
            overlap = sim.get_overlap(sim.simulate_qaoa(gammas, betas))
            if reference is None:
                reference = (sv, expectation, overlap)
            else:
                np.testing.assert_allclose(sv, reference[0], atol=1e-10,
                                           err_msg=f"statevector mismatch for {backend}")
                assert expectation == pytest.approx(reference[1], abs=1e-9), backend
                assert overlap == pytest.approx(reference[2], abs=1e-9), backend

    @given(st.integers(min_value=4, max_value=8), st.integers(min_value=0, max_value=2 ** 31 - 1),
           st.integers(min_value=1, max_value=3))
    @settings(max_examples=15, deadline=None)
    def test_property_random_problems(self, n, seed, p):
        rng = np.random.default_rng(seed)
        terms = random_terms(rng, n, int(rng.integers(2, 10)), max_order=min(4, n))
        gammas = rng.uniform(-1.5, 1.5, p)
        betas = rng.uniform(-1.5, 1.5, p)
        svs = []
        for backend in ALL_BACKENDS:
            sim = build(backend, n, terms)
            svs.append(np.asarray(sim.get_statevector(sim.simulate_qaoa(gammas, betas))))
        for sv in svs[1:]:
            np.testing.assert_allclose(sv, svs[0], atol=1e-9)

    def test_precomputed_costs_shared_across_backends(self, qaoa_angles):
        """Passing a precomputed diagonal (the paper's ``costs=`` argument) is
        equivalent to passing terms, on every backend."""
        n = 8
        terms = labs.get_terms(n)
        from repro.fur import precompute_cost_diagonal

        costs = precompute_cost_diagonal(terms, n)
        gammas, betas = qaoa_angles
        for backend in ALL_BACKENDS:
            sim_terms = build(backend, n, terms)
            cls = get_simulator_class(backend)
            kwargs = {"n_ranks": 4} if backend in ("gpumpi", "cusvmpi") else {}
            sim_costs = cls(n, costs=costs, **kwargs)
            sv_a = np.asarray(sim_terms.get_statevector(sim_terms.simulate_qaoa(gammas, betas)))
            sv_b = np.asarray(sim_costs.get_statevector(sim_costs.simulate_qaoa(gammas, betas)))
            np.testing.assert_allclose(sv_a, sv_b, atol=1e-12)

    def test_uint16_diagonal_gives_same_results(self, qaoa_angles):
        """The uint16 diagonal of Sec. V-B is numerically lossless for LABS:
        a uint16 ``costs`` array evaluates bitwise as the float64 one, and
        the phase gathers through a uint16 index."""
        n = 10
        terms = labs.get_terms(n)
        from repro.fur import precompute_cost_diagonal

        costs = precompute_cost_diagonal(terms, n)
        gammas, betas = qaoa_angles
        sim_full = get_simulator_class("c")(n, costs=costs)
        sim_u16 = get_simulator_class("c")(n, costs=costs.astype(np.uint16))
        assert sim_u16._diagonal_phase_table().inverse.dtype == np.uint16
        e_full = sim_full.get_expectation(sim_full.simulate_qaoa(gammas, betas))
        e_u16 = sim_u16.get_expectation(sim_u16.simulate_qaoa(gammas, betas))
        assert e_u16 == e_full
