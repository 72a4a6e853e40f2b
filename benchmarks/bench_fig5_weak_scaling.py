"""Figure 5: weak scaling of one distributed LABS QAOA layer.

Paper setup: K = 8…128 A100 GPUs on Polaris (n = 33…37, 30 local qubits per
GPU), comparing the custom MPI_Alltoall backend against cuStateVec's
distributed index-swap communication.

Reproduction has two parts:

* *executed*: the virtual-cluster distributed simulators run one LABS layer at
  n=12 with K = 2…8 ranks for both communication strategies (measured host
  time; bit-exact against the single-node simulator elsewhere in the suite);
* *modeled*: the calibrated performance model regenerates the weak-scaling
  series at the paper's scale (K = 8…128); the ordering (index swap < staged
  Alltoall) and the growth with K are asserted, and the series is printed
  for comparison with the paper's values.
"""

from __future__ import annotations

import pytest

from repro.fur.mpi import QAOAFURXSimulatorCUSVMPI, QAOAFURXSimulatorGPUMPI
from repro.parallel import POLARIS_LIKE, PerformanceModel

from .conftest import ramp

N_QUBITS = 12
RANKS = (2, 4, 8)
PAPER_RANKS = (8, 16, 32, 64, 128)
LOCAL_QUBITS_PAPER = 30


def single_layer(sim):
    gammas, betas = ramp(1)
    return sim.simulate_qaoa(gammas, betas)


@pytest.mark.parametrize("n_ranks", RANKS)
@pytest.mark.benchmark(group="fig5-weak-scaling-executed")
def test_fig5_executed_alltoall_backend(benchmark, labs_terms_cache, n_ranks):
    """Algorithm 4 (MPI_Alltoall strategy) on the virtual cluster."""
    sim = QAOAFURXSimulatorGPUMPI(N_QUBITS, terms=labs_terms_cache[N_QUBITS], n_ranks=n_ranks)
    benchmark(single_layer, sim)


@pytest.mark.parametrize("n_ranks", RANKS)
@pytest.mark.benchmark(group="fig5-weak-scaling-executed")
def test_fig5_executed_index_swap_backend(benchmark, labs_terms_cache, n_ranks):
    """cuStateVec-style distributed index-swap strategy on the virtual cluster."""
    sim = QAOAFURXSimulatorCUSVMPI(N_QUBITS, terms=labs_terms_cache[N_QUBITS], n_ranks=n_ranks)
    benchmark(single_layer, sim)


@pytest.mark.benchmark(group="fig5-weak-scaling-modeled")
def test_fig5_modeled_series(benchmark):
    """Regenerate the paper-scale weak-scaling series from the performance model."""
    model = PerformanceModel(POLARIS_LIKE)

    def build_series():
        series = {}
        for strategy in ("mpi_alltoall", "cusv_p2p"):
            series[strategy] = model.weak_scaling(list(PAPER_RANKS), LOCAL_QUBITS_PAPER, strategy)
        return series

    series = benchmark(build_series)
    mpi = [b.total_time for b in series["mpi_alltoall"]]
    cusv = [b.total_time for b in series["cusv_p2p"]]
    # Fig. 5 shape: cuStateVec communication is faster at every K, both curves grow
    # with K, and the absolute times are tens of seconds per layer.
    assert all(c < m for c, m in zip(cusv, mpi))
    assert mpi[-1] > mpi[0] and cusv[-1] > cusv[0]
    assert 1.0 < cusv[0] < 100.0 and 1.0 < mpi[-1] < 200.0
    print("\nModeled weak scaling (one LABS layer, 30 local qubits/GPU):")
    print("K GPUs | n  | MPI_Alltoall [s] | cuSV index swap [s]")
    for k, m, c in zip(PAPER_RANKS, mpi, cusv):
        print(f"{k:6d} | {LOCAL_QUBITS_PAPER + (k.bit_length() - 1):2d} | {m:16.1f} | {c:18.1f}")


def test_fig5_communication_dominates():
    """The paper attributes the majority of layer time to communication."""
    model = PerformanceModel(POLARIS_LIKE)
    for k in PAPER_RANKS:
        n = LOCAL_QUBITS_PAPER + (k.bit_length() - 1)
        assert model.layer_time(n, k, "mpi_alltoall").communication_fraction > 0.5
