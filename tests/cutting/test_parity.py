"""Cut-vs-uncut parity: the pipeline must reproduce the monolithic value.

Random seeded problems are evaluated both ways on every importable
non-distributed backend, at both precisions, with tolerances matching the
repo-wide parity discipline (1e-12 double, 1e-5 single).
"""

import numpy as np
import pytest

import repro
from repro.cutting import (CutQAOAPipeline, CutUnsupportedError,
                           cut_qaoa_expectation)
from repro.fur import available_backends
from repro.testing import random_terms

BACKENDS = [b for b in available_backends(mixer="x", importable_only=True)
            if b not in ("gpumpi", "cusvmpi")]  # distributed: exercised in
# the cross-backend suites; the fragment pipeline adds nothing new there.

TOLERANCES = {"double": 1e-12, "single": 1e-5}


def _uncut(n, terms, gammas, betas, precision):
    sim = repro.simulator(n, terms=terms, backend="python",
                         precision=precision)
    return sim.get_expectation(sim.simulate_qaoa(gammas, betas))


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("precision", ["double", "single"])
def test_cut_matches_uncut_random_problems(backend, precision, seeded_rng):
    tol = TOLERANCES[precision]
    for trial in range(3):
        n = int(seeded_rng.integers(6, 9))
        terms = random_terms(seeded_rng, n, n_terms=2 * n, max_order=3)
        gamma = float(seeded_rng.uniform(-1, 1))
        beta = float(seeded_rng.uniform(-1, 1))
        want = _uncut(n, terms, [gamma], [beta], "double")
        got = cut_qaoa_expectation(n, terms, [gamma], [beta],
                                   backend=backend, precision=precision)
        assert got == pytest.approx(want, abs=tol), (
            f"trial {trial}: backend={backend} precision={precision} n={n}")


@pytest.mark.parametrize("backend", BACKENDS)
def test_cut_matches_uncut_structured_problems(backend, qaoa_angles):
    """Ring, bridge-block and star cost graphs, explicit and chosen cuts."""
    gammas, betas = [qaoa_angles[0][0]], [qaoa_angles[1][0]]
    ring = [(0.7, (i, (i + 1) % 8)) for i in range(8)]
    clique = lambda qs: [(0.5, (a, b)) for i, a in enumerate(qs)
                         for b in qs[i + 1:]]
    blocks = clique((0, 1, 2, 3)) + clique((4, 5, 6, 7)) + [(1.0, (1, 6))]
    star = [(0.4, (0, q)) for q in range(1, 7)] + [(0.3, (3,)), (0.2, ())]
    for terms, kwargs in [
        (ring, dict(partition=range(4))),
        (ring, {}),
        (blocks, {}),
        (star, dict(partition=[0, 1, 2], cut_qubits=[0])),
    ]:
        n = 8 if terms is not star else 7
        want = _uncut(n, terms, gammas, betas, "double")
        got = cut_qaoa_expectation(n, terms, gammas, betas,
                                   backend=backend, **kwargs)
        assert got == pytest.approx(want, abs=1e-12)


def _multi_cut_problem(rng, cuts):
    """Fragment A = qubits 0..5 with the given cut qubits, fragment B = 6..9.

    Holds an A-only 3-body term, a term on a cut qubit alone, crossing
    edges from each cut qubit, a 3-body term across the partition (two cut
    qubits and a B qubit) and 3-body and 2-body fragment-A terms that mix
    cut and non-cut qubits (observable masks on both sides).
    """
    w = lambda: float(rng.uniform(-1, 1))
    terms = [(w(), (i, i + 1)) for i in range(5)] + [(w(), (0, 2, 4))]
    terms += [(w(), (i, i + 1)) for i in range(6, 9)]
    terms += [(w(), (cuts[1],)), (w(), (cuts[0], cuts[1], 8)),
              (w(), (0, cuts[0], cuts[1]))]
    terms += [(w(), (c, 6 + j)) for j, c in enumerate(cuts)]
    return terms


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("precision", ["double", "single"])
@pytest.mark.parametrize("cuts", [(1, 3), (1, 3, 5)])
def test_multi_cut_matches_uncut(backend, precision, cuts, seeded_rng):
    """k = 2 and k = 3 cuts at non-adjacent, non-zero fragment-A positions."""
    n = 10
    terms = _multi_cut_problem(seeded_rng, cuts)
    gamma = float(seeded_rng.uniform(-1, 1))
    beta = float(seeded_rng.uniform(-1, 1))
    want = _uncut(n, terms, [gamma], [beta], "double")
    pipe = CutQAOAPipeline(n, terms, backend=backend, precision=precision,
                           partition=range(6), cut_qubits=cuts)
    assert pipe.spec.n_cuts == len(cuts)
    got = pipe.expectation([gamma], [beta])
    assert got == pytest.approx(want, abs=TOLERANCES[precision])


def test_p2_raises_typed_error():
    terms = [(1.0, (0, 5))]
    with pytest.raises(CutUnsupportedError, match="p=2"):
        cut_qaoa_expectation(8, terms, [0.1, 0.2], [0.3, 0.4],
                             backend="python")


def test_xy_mixer_raises_typed_error():
    terms = [(1.0, (0, 5))]
    with pytest.raises(CutUnsupportedError, match="mixer"):
        cut_qaoa_expectation(8, terms, [0.1], [0.3], mixer="xyring",
                             backend="python")


def test_retired_backend_rejected_up_front():
    terms = [(1.0, (0, 5))]
    with pytest.raises(ValueError, match=r"repro\.tensornet\.TensorNetworkSimulator"):
        cut_qaoa_expectation(8, terms, [0.1], [0.3], backend="tensornet")


def test_cut_unsupported_is_a_runtime_error():
    """``except RuntimeError`` callers keep catching the typed cut error."""
    assert issubclass(CutUnsupportedError, RuntimeError)
