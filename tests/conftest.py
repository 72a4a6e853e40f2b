"""Shared fixtures and helpers for the repro test-suite."""

from __future__ import annotations

import os
import zlib

import numpy as np
import pytest

from repro.problems import labs, maxcut
from repro.testing import random_terms

__all__ = ["random_terms"]

#: Default session seed for the randomized parity harnesses.  Tier-1 runs are
#: deterministic out of the box; export ``REPRO_TEST_SEED`` to replay the
#: seed a failure report printed (or to explore a different draw).
_DEFAULT_TEST_SEED = 20230717


def _session_seed() -> int:
    env = os.environ.get("REPRO_TEST_SEED")
    return int(env) if env else _DEFAULT_TEST_SEED


def pytest_report_header(config) -> str:
    return (f"repro test seed: {_session_seed()} "
            "(set REPRO_TEST_SEED to override)")


@pytest.fixture
def numpy_rung(monkeypatch):
    """Force the jit tier's compiler-less numpy rung for one test; yields
    the kernels module (restored to the ladder's own choice afterwards)."""
    from repro.fur.jit import kernels

    monkeypatch.setenv("REPRO_JIT_PATH", "numpy")
    kernels._reset_path_cache()
    yield kernels
    kernels._reset_path_cache()


@pytest.fixture(scope="session")
def test_seed() -> int:
    """The session-wide seed every randomized harness derives from.

    Honours ``REPRO_TEST_SEED`` and is printed in the pytest header, so a
    randomized parity failure reproduces exactly from the printed seed.
    """
    return _session_seed()


@pytest.fixture
def seeded_rng(request, test_seed) -> np.random.Generator:
    """Per-test RNG derived from the session seed and the test's node id.

    The node-id component makes each test's stream independent of execution
    order (running one test alone draws the same values as the full suite),
    while the session seed keeps the whole run reproducible.
    """
    node_key = zlib.crc32(request.node.nodeid.encode())
    return np.random.default_rng([test_seed, node_key])


@pytest.fixture
def rng() -> np.random.Generator:
    """Deterministic RNG for tests."""
    return np.random.default_rng(12345)


@pytest.fixture
def small_labs_terms():
    """LABS terms for n=6 (includes 2- and 4-body terms plus an offset)."""
    return labs.get_terms(6)


@pytest.fixture
def small_maxcut():
    """A 6-node 3-regular MaxCut instance (graph, terms)."""
    graph = maxcut.random_regular_graph(3, 6, seed=7)
    return graph, maxcut.maxcut_terms_from_graph(graph)


@pytest.fixture
def qaoa_angles():
    """A generic two-layer (γ, β) schedule used across backend tests."""
    return [0.17, 0.42], [0.33, 0.21]
