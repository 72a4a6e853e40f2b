"""Analytical performance model for distributed QAOA simulation (Fig. 5).

The paper's weak-scaling experiment (Fig. 5) runs one LABS QAOA layer on
K = 8…128 A100 GPUs with n = 33…37 qubits and compares two communication
back-ends: a custom ``MPI_Alltoall`` implementation and cuStateVec's
distributed index-swap path.  Neither 1024 GPUs nor an HPC interconnect exist
in this environment, so the *figure* is regenerated from a calibrated
analytical model, while the *algorithms* (Algorithm 4 and the index-swap
variant) are executed and verified bit-exactly at small scale by
:mod:`repro.fur.mpi` on the virtual cluster.

Model components (all bandwidth-bound, which profiling in the paper confirms —
"the majority of time being spent in communication"):

* local kernel cost: every mixer rotation and the phase multiply stream the
  local state-vector slice through HBM once (read + write);
* ``mpi_alltoall`` strategy: two all-to-all exchanges per mixer application;
  data is staged through the host (no GPU-direct), and the node's injection
  bandwidth is shared by its GPUs;
* ``cusv_p2p`` strategy: ``k = log2 K`` pairwise index swaps (each moving half
  of the local slice out and back); intra-node partners use NVLink peer-to-peer
  at full rate, inter-node partners use GPU-direct RDMA sharing the NIC.

The constants live in :class:`~repro.parallel.topology.ClusterTopology`;
``POLARIS_LIKE`` is calibrated to the paper's hardware description.
"""

from __future__ import annotations

from dataclasses import dataclass

from .topology import POLARIS_LIKE, ClusterTopology

__all__ = ["LayerTimeBreakdown", "PerformanceModel", "COMMUNICATION_STRATEGIES"]

COMMUNICATION_STRATEGIES = ("mpi_alltoall", "cusv_p2p")


@dataclass(frozen=True)
class LayerTimeBreakdown:
    """Predicted wall-clock time of one distributed QAOA layer."""

    n_qubits: int
    n_ranks: int
    compute_time: float
    communication_time: float
    strategy: str

    @property
    def total_time(self) -> float:
        """Compute + communication (no overlap assumed, as in the paper's runs)."""
        return self.compute_time + self.communication_time

    @property
    def communication_fraction(self) -> float:
        """Fraction of the layer spent communicating."""
        total = self.total_time
        return self.communication_time / total if total > 0 else 0.0


class PerformanceModel:
    """Analytical layer-time model over a :class:`ClusterTopology`."""

    def __init__(self, topology: ClusterTopology = POLARIS_LIKE, *,
                 state_bytes: int = 16, diag_bytes: int = 2,
                 congestion_alpha: float = 0.5) -> None:
        """``diag_bytes`` defaults to 2: the ``uint16`` phase-table index the
        simulators hold for repetitive diagonals (LABS, unweighted MaxCut) and
        stream in the table phase.  Diagonals without a table stream the
        float64 vector, 8 bytes, at either state precision.

        ``congestion_alpha`` models the loss of effective inter-node bandwidth
        under all-to-all traffic as the node count grows (bisection-bandwidth
        contention): the per-GPU network rate is divided by
        ``num_nodes**congestion_alpha``.  Zero disables the effect.
        """
        if state_bytes <= 0 or diag_bytes <= 0:
            raise ValueError("byte sizes must be positive")
        if congestion_alpha < 0:
            raise ValueError("congestion_alpha must be non-negative")
        self.topology = topology
        self.state_bytes = state_bytes
        self.diag_bytes = diag_bytes
        self.congestion_alpha = congestion_alpha

    # -- sizes ----------------------------------------------------------------
    def local_states(self, n_qubits: int, n_ranks: int) -> int:
        """Number of amplitudes per rank."""
        self._validate(n_qubits, n_ranks)
        return (1 << n_qubits) // n_ranks

    def local_slice_bytes(self, n_qubits: int, n_ranks: int) -> float:
        """Bytes of state vector per rank."""
        return self.local_states(n_qubits, n_ranks) * self.state_bytes

    def fits_in_memory(self, n_qubits: int, n_ranks: int) -> bool:
        """Whether the slice plus the cost diagonal fits GPU memory."""
        per_amp = self.state_bytes + self.diag_bytes
        return self.local_states(n_qubits, n_ranks) * per_amp <= self.topology.gpu_memory_capacity

    @staticmethod
    def _validate(n_qubits: int, n_ranks: int) -> None:
        if n_ranks <= 0 or n_ranks & (n_ranks - 1):
            raise ValueError(f"rank count must be a power of two, got {n_ranks}")
        k = n_ranks.bit_length() - 1
        if 2 * k > n_qubits:
            raise ValueError(
                f"Algorithm 4 requires 2*log2(K) <= n (got K={n_ranks}, n={n_qubits})"
            )

    # -- compute --------------------------------------------------------------
    def phase_time(self, n_qubits: int, n_ranks: int) -> float:
        """Time of the phase operator: one fused read-modify-write of the slice."""
        states = self.local_states(n_qubits, n_ranks)
        bytes_moved = states * (2 * self.state_bytes + self.diag_bytes)
        return bytes_moved / self.topology.gpu_memory_bandwidth

    def mixer_compute_time(self, n_qubits: int, n_ranks: int) -> float:
        """Time of the n single-qubit rotations (each streams the slice once)."""
        states = self.local_states(n_qubits, n_ranks)
        bytes_per_rotation = 2 * self.state_bytes * states  # read + write
        return n_qubits * bytes_per_rotation / self.topology.gpu_memory_bandwidth

    def precompute_time(self, n_qubits: int, n_ranks: int, n_terms: int,
                        device: str = "gpu") -> float:
        """Time to precompute the cost-vector slice from ``n_terms`` terms.

        The GPU kernel is memory-bound on the diagonal (one pass per term
        batch); the CPU estimate uses a fixed per-element-per-term throughput
        representative of the vectorized NumPy kernel.
        """
        states = self.local_states(n_qubits, n_ranks)
        if device == "gpu":
            # one read-modify-write of the diagonal per term, 8-byte accumulator
            bytes_moved = n_terms * 2 * 8 * states
            return bytes_moved / self.topology.gpu_memory_bandwidth
        if device == "cpu":
            elements_per_second = 2.0e8  # measured order of magnitude for the NumPy kernel
            return n_terms * states / elements_per_second
        raise ValueError(f"unknown device {device!r}")

    # -- communication ---------------------------------------------------------
    def _congestion_factor(self, n_ranks: int) -> float:
        """Bandwidth-derating factor for all-to-all traffic across many nodes."""
        nodes = max(1, self.topology.num_nodes(n_ranks))
        return float(nodes) ** self.congestion_alpha

    def _exchange_time(self, n_qubits: int, n_ranks: int, *, gpu_direct: bool) -> float:
        """Time of one full state-vector reshuffle (alltoall-equivalent volume).

        Every rank exchanges ``(K−1)/K`` of its slice; the fraction of that
        traffic whose peer shares the node moves over NVLink (or host staging
        when ``gpu_direct`` is false), the rest crosses the network sharing the
        node's injection bandwidth and suffering the congestion derating.
        """
        topo = self.topology
        if n_ranks == 1:
            return 0.0
        slice_bytes = self.local_slice_bytes(n_qubits, n_ranks)
        chunk = slice_bytes / n_ranks
        gpus = min(topo.gpus_per_node, n_ranks)
        intra_peers = gpus - 1
        inter_peers = n_ranks - gpus
        if gpu_direct:
            intra_bw = topo.intra_node_bandwidth
            inter_bw = topo.inter_node_bandwidth / gpus / self._congestion_factor(n_ranks)
        else:
            # Staged through the host even within the node (the paper's
            # observation about MPI without GPU support), and the host link is
            # shared by the node's GPUs.
            intra_bw = topo.host_staging_bandwidth / gpus
            inter_bw = min(topo.inter_node_bandwidth, topo.host_staging_bandwidth) \
                / gpus / self._congestion_factor(n_ranks)
        time = intra_peers * (chunk / intra_bw + topo.intra_node_latency)
        time += inter_peers * (chunk / inter_bw + topo.inter_node_latency)
        return time

    def alltoall_time(self, n_qubits: int, n_ranks: int) -> float:
        """One staged MPI_Alltoall (no GPU-direct transport)."""
        return self._exchange_time(n_qubits, n_ranks, gpu_direct=False)

    def index_swap_time(self, n_qubits: int, n_ranks: int) -> float:
        """cuStateVec-style distributed index swap of the k global qubits.

        The swap moves the same aggregate volume as the two Alltoall calls of
        Algorithm 4 (the global qubits are exchanged out and back), but over
        peer-to-peer NVLink / GPU-direct RDMA transports, which is what gives
        the cuStateVec backend its lower communication overhead in Fig. 5.
        """
        return 2 * self._exchange_time(n_qubits, n_ranks, gpu_direct=True)

    def communication_time(self, n_qubits: int, n_ranks: int, strategy: str) -> float:
        """Total mixer communication time per layer for the chosen strategy."""
        if strategy == "mpi_alltoall":
            return 2 * self.alltoall_time(n_qubits, n_ranks)
        if strategy == "cusv_p2p":
            return self.index_swap_time(n_qubits, n_ranks)
        raise ValueError(
            f"unknown communication strategy {strategy!r}; choose from {COMMUNICATION_STRATEGIES}"
        )

    # -- end-to-end -------------------------------------------------------------
    def layer_time(self, n_qubits: int, n_ranks: int,
                   strategy: str = "mpi_alltoall") -> LayerTimeBreakdown:
        """Predicted time of one full QAOA layer (phase + mixer + communication)."""
        compute = self.phase_time(n_qubits, n_ranks) + self.mixer_compute_time(n_qubits, n_ranks)
        comm = self.communication_time(n_qubits, n_ranks, strategy)
        return LayerTimeBreakdown(n_qubits=n_qubits, n_ranks=n_ranks,
                                  compute_time=compute, communication_time=comm,
                                  strategy=strategy)

    def weak_scaling(self, rank_counts: list[int], local_qubits: int,
                     strategy: str = "mpi_alltoall") -> list[LayerTimeBreakdown]:
        """Weak-scaling sweep: fixed amplitudes per GPU, growing GPU count.

        ``local_qubits`` is the per-rank problem size (the paper uses 30 local
        qubits, i.e. n = 33 at K = 8 up to n = 37 at K = 128).
        """
        out = []
        for k_ranks in rank_counts:
            if k_ranks <= 0 or k_ranks & (k_ranks - 1):
                raise ValueError(f"rank counts must be powers of two, got {k_ranks}")
            n = local_qubits + (k_ranks.bit_length() - 1)
            out.append(self.layer_time(n, k_ranks, strategy))
        return out
