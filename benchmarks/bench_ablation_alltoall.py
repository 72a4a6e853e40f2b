"""Ablation: all-to-all algorithm choice for the distributed mixer (Sec. III-C).

The paper notes that many MPI_Alltoall algorithms exist, each with its own
trade-offs, and uses the vendor implementation.  The virtual cluster lets us
compare the classic algorithms directly on the actual mixer exchange: the
direct/pairwise/ring algorithms move the minimal volume in K−1 rounds, Bruck
moves ~log₂K× more bytes in only log₂K rounds.  The benchmark measures the
executed exchange on state-vector-sized buffers and the full distributed layer
under each algorithm.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.fur.mpi import QAOAFURXSimulatorGPUMPI
from repro.parallel import ALLTOALL_ALGORITHMS, alltoall

from .conftest import ramp

N_QUBITS = 14
N_RANKS = 8


def make_buffers():
    rng = np.random.default_rng(0)
    per_rank = (1 << N_QUBITS) // N_RANKS
    return [rng.normal(size=per_rank) + 1j * rng.normal(size=per_rank) for _ in range(N_RANKS)]


@pytest.mark.parametrize("algorithm", sorted(ALLTOALL_ALGORITHMS))
@pytest.mark.benchmark(group="ablation-alltoall-exchange")
def test_alltoall_exchange(benchmark, algorithm):
    """The raw exchange on state-vector-slice-sized buffers."""
    buffers = make_buffers()
    benchmark(lambda: alltoall(buffers, algorithm))


@pytest.mark.parametrize("algorithm", sorted(ALLTOALL_ALGORITHMS))
@pytest.mark.benchmark(group="ablation-alltoall-layer")
def test_distributed_layer_with_algorithm(benchmark, labs_terms_cache, algorithm):
    """One full distributed LABS layer under each exchange algorithm."""
    sim = QAOAFURXSimulatorGPUMPI(N_QUBITS, terms=labs_terms_cache[N_QUBITS],
                                  n_ranks=N_RANKS, alltoall_algorithm=algorithm)
    gammas, betas = ramp(1)
    benchmark.pedantic(lambda: sim.simulate_qaoa(gammas, betas), rounds=2, iterations=1)


def test_alltoall_traffic_tradeoffs():
    """Bytes-on-the-wire vs number of rounds for each algorithm: Bruck
    trades bandwidth for latency, the others are bandwidth-optimal."""
    buffers = make_buffers()
    stats = {}
    for algorithm in ALLTOALL_ALGORITHMS:
        _, trace = alltoall(buffers, algorithm)
        stats[algorithm] = (trace.total_bytes, trace.num_rounds)
    print("\nAlltoall traffic (K=8, LABS-layer-sized slices):")
    for name, (nbytes, rounds) in sorted(stats.items()):
        print(f"  {name:>9}: {nbytes / 1e6:7.2f} MB in {rounds} rounds")
    assert stats["bruck"][0] > stats["direct"][0]
    assert stats["bruck"][1] < stats["pairwise"][1]
    assert stats["pairwise"][0] == stats["direct"][0] == stats["ring"][0]
