"""Shared helpers for the benchmark harness.

Every benchmark file regenerates one figure or headline claim of the paper
(the README's "Tests and benchmarks" section lists how to run them).
Problem sizes are scaled down to what a CPU-only container can run
in seconds — the reproduction targets the *shape* of each figure (which
simulator wins, how the gap scales), not the absolute A100/Polaris numbers.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.problems import labs, maxcut
from repro.qaoa import linear_ramp_parameters


@pytest.fixture(scope="session")
def labs_terms_cache():
    """LABS terms for the n values used across benchmarks (computed once)."""
    return {n: labs.get_terms(n) for n in (6, 8, 10, 12, 14, 16)}


@pytest.fixture(scope="session")
def maxcut_terms_cache():
    """Random 3-regular MaxCut terms for the Fig. 2 n-sweep (computed once)."""
    out = {}
    for n in (6, 8, 10, 12, 14, 16):
        graph = maxcut.random_regular_graph(3, n, seed=n)
        out[n] = maxcut.maxcut_terms_from_graph(graph)
    return out


def ramp(p: int):
    """Fixed linear-ramp schedule used by all timing benchmarks."""
    return linear_ramp_parameters(p, delta_t=0.4)


def random_angles(p: int, seed: int = 0):
    """Reproducible random angles (used where the schedule value is irrelevant)."""
    rng = np.random.default_rng(seed)
    return rng.uniform(0, 1, p), rng.uniform(0, 1, p)
