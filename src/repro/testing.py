"""Shared test/benchmark helpers (random problem instances, reference loops).

Importable as ``repro.testing`` so the test-suite (and downstream users
writing their own tests against the simulators) can generate reproducible
random problems without reaching into pytest ``conftest`` modules — relative
imports of ``conftest`` are not importable under pytest's rootdir rules.
"""

from __future__ import annotations

import numpy as np

from .problems.terms import Term, normalize_terms

__all__ = ["per_row_expectations", "random_terms"]


def random_terms(rng: np.random.Generator, n: int, n_terms: int,
                 max_order: int = 3) -> list[Term]:
    """Random spin-polynomial terms with weights in [-1, 1].

    Each term draws an order uniformly from ``1..max_order`` and a sorted
    tuple of distinct qubit indices; the result is normalized (like-terms
    merged) so it is a valid simulator input.
    """
    terms = []
    for _ in range(n_terms):
        order = int(rng.integers(1, max_order + 1))
        idx = tuple(sorted(rng.choice(n, size=min(order, n), replace=False).tolist()))
        terms.append((float(rng.uniform(-1, 1)), idx))
    return normalize_terms(terms)


def per_row_expectations(sim, gammas_batch, betas_batch,
                         **simulate_kwargs) -> np.ndarray:
    """Reference energies: one ``simulate_qaoa`` + ``get_expectation`` per row.

    The per-schedule loop a batch's ``get_expectation_batch`` values are
    checked against; ``simulate_kwargs`` (``sv0=``, ``n_trotters=``) go to
    every ``simulate_qaoa`` call.
    """
    return np.array([sim.get_expectation(sim.simulate_qaoa(g, b, **simulate_kwargs))
                     for g, b in zip(gammas_batch, betas_batch)])
