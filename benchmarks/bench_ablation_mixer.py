"""Ablation: FUR in-place mixer vs the Walsh–Hadamard-sandwich alternative.

Sec. VII of the paper compares its Algorithm 1–2 kernels against the earlier
approach of Ref. [43] (Sack & Serbyn), which simulates one mixer application
as FWHT → diagonal phase → inverse FWHT and needs an extra state-vector copy.
The FUR kernel does the same job in a single pass and in place.  This
benchmark measures both implementations on identical inputs (they are verified
to produce the same state) and records the time and extra-memory difference.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.fur.jit.kernels import rotate_x_block
from repro.fur.python.furx import fwht_inplace

N_QUBITS = 16
BETA = 0.37


def fwht_sandwich_mixer(sv: np.ndarray, beta: float, n: int) -> np.ndarray:
    """Mixer via exp(-iβΣX) = H^{⊗n} · exp(-iβΣZ) · H^{⊗n} (Ref. [43] strategy).

    Requires the popcount phase table (an extra 2^n real vector) and works on a
    normalized copy-in/copy-out basis like the reference implementation.
    """
    size = 1 << n
    work = sv.copy()  # the extra state-vector copy the paper points out
    fwht_inplace(work)
    work /= np.sqrt(size)
    idx = np.arange(size, dtype=np.uint64)
    z_sum = n - 2 * np.bitwise_count(idx).astype(np.float64)
    work *= np.exp(-1j * beta * z_sum)
    fwht_inplace(work)
    work /= np.sqrt(size)
    return work


def random_state(n: int) -> np.ndarray:
    rng = np.random.default_rng(0)
    sv = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    return sv / np.linalg.norm(sv)


def fur_inplace_mixer(sv: np.ndarray, beta: float) -> np.ndarray:
    """Algorithm 1–2 through the jit tier's in-place X rotations."""
    n_qubits = sv.size.bit_length() - 1
    rotate_x_block(sv[None], np.array([beta]), range(n_qubits))
    return sv


def test_ablation_both_strategies_agree():
    sv = random_state(10)
    direct = fur_inplace_mixer(sv.copy(), BETA)
    sandwich = fwht_sandwich_mixer(sv, BETA, 10)
    np.testing.assert_allclose(direct, sandwich, atol=1e-10)


@pytest.mark.benchmark(group="ablation-mixer")
def test_mixer_fur_inplace(benchmark):
    """Algorithm 1–2: one in-place pass, no extra state-vector copy."""
    sv = random_state(N_QUBITS)
    benchmark(lambda: fur_inplace_mixer(sv, BETA))


@pytest.mark.benchmark(group="ablation-mixer")
def test_mixer_fwht_sandwich(benchmark):
    """Ref. [43] strategy: two FWHTs + diagonal, with a full state-vector copy."""
    sv = random_state(N_QUBITS)
    benchmark(lambda: fwht_sandwich_mixer(sv, BETA, N_QUBITS))
