"""Distributed QAOA simulators over virtual ranks (Sec. III-C, Algorithm 4).

The state vector of ``n`` qubits is split across ``K = 2^k`` virtual ranks;
rank ``r`` holds the contiguous slice of amplitudes whose top ``k`` index bits
equal ``r`` (the paper's *global qubits*).  The cost diagonal is precomputed
slice-by-slice with no communication (the locality property of Sec. III-A),
the phase operator is applied locally, and only the mixer requires moving
data.

Both backends are the sharded X simulator
(:class:`~repro.fur.sharded.QAOAFURXSimulatorSharded`) with one shard per
rank, running the :mod:`repro.fur.jit.kernels` tier per rank; they differ
only in how they exchange the global qubits, mirroring the paper's two
distributed backends:

* :class:`QAOAFURXSimulatorGPUMPI` — the custom ``MPI_Alltoall`` strategy of
  Algorithm 4: two all-to-all exchanges per mixer application (with the
  configured :data:`~repro.parallel.collectives.ALLTOALL_ALGORITHMS` entry),
  between which the previously-global qubits are rotated locally;
* :class:`QAOAFURXSimulatorCUSVMPI` — the cuStateVec-style *distributed index
  swap*: each global qubit is swapped with the top local qubit through a
  pairwise half-slice exchange with the rank differing in that bit, rotated
  locally, and swapped back.

Only the transverse-field (X) mixer is distributed — the same restriction as
the paper's large-scale LABS runs, which use the standard mixer.  Every
exchange is recorded in :attr:`traffic_log` as a
:class:`~repro.parallel.collectives.TrafficTrace`.  The per-rank kernels
run as the sharded backend's (rank, row-chunk) task grid on the jit tier's
row pool.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from ...parallel.collectives import ALLTOALL_ALGORITHMS, TrafficTrace
from ..jit import kernels
from ..sharded.qaoa_simulator import QAOAFURXSimulatorSharded, ShardedStateVector

__all__ = [
    "DistributedStateVector",
    "QAOAFURXSimulatorGPUMPI",
    "QAOAFURXSimulatorCUSVMPI",
]

#: The per-rank slices of a distributed state vector (a backend *result*).
DistributedStateVector = ShardedStateVector


class _DistributedFURXBase(QAOAFURXSimulatorSharded):
    """The sharded X simulator with one shard per rank and a traffic log."""

    supports_coalesced_exchange = False
    #: number of virtual ranks (GPUs): one shard per rank
    n_ranks = QAOAFURXSimulatorSharded.n_shards

    def __init__(self, n_qubits: int, terms=None, costs=None, *,
                 n_ranks: int = 4, precision: str = "double",
                 optimize: str = "default") -> None:
        self.traffic_log: list[TrafficTrace] = []
        super().__init__(n_qubits, terms=terms, costs=costs, n_shards=n_ranks,
                         precision=precision, optimize=optimize)

    def _record_exchange(self, trace: TrafficTrace) -> None:
        self.traffic_log.append(trace)
        super()._record_exchange(trace)

    def get_statevector(self, result: DistributedStateVector, *,
                        mpi_gather: bool = True,
                        **kwargs: Any) -> np.ndarray | list[np.ndarray]:
        """Full state vector (``mpi_gather=True``) or the raw per-rank slices."""
        return super().get_statevector(result, gather=mpi_gather, **kwargs)

    def get_probabilities(self, result: DistributedStateVector,
                          preserve_state: bool = True, *,
                          mpi_gather: bool = True,
                          **kwargs: Any) -> np.ndarray | list[np.ndarray]:
        """Measurement probabilities (gathered by default; always float64)."""
        return super().get_probabilities(result, preserve_state,
                                         gather=mpi_gather, **kwargs)


class QAOAFURXSimulatorGPUMPI(_DistributedFURXBase):
    """Distributed FUR simulator using the Alltoall strategy (Algorithm 4)."""

    backend_name = "gpumpi"

    @property
    def supports_coalesced_exchange(self) -> bool:
        """Whether the CoalesceExchanges rewrite may fire for this instance.

        The coalesced exchange *is* the direct algorithm over whole-block
        slabs, so it only engages when ``alltoall_algorithm="direct"`` (the
        default).  A non-direct algorithm request (``ring``/``bruck``/
        ``pairwise``) keeps the per-row path — otherwise the algorithm knob
        would be silently inert and every traffic trace would degenerate to
        one direct round, defeating the communication-algorithm comparison
        the traffic model exists for.
        """
        return self.alltoall_algorithm == "direct"

    @property
    def alltoall_algorithm(self) -> str:
        """The Alltoall algorithm, fixed at construction.

        Read-only because compiled plans bake the coalesce decision derived
        from it — a post-construction mutation would silently keep serving
        plans shaped for the old algorithm out of the cache.
        """
        return self._alltoall_algorithm

    def __init__(self, n_qubits: int, terms=None, costs=None, *, n_ranks: int = 4,
                 alltoall_algorithm: str = "direct",
                 precision: str = "double",
                 optimize: str = "default") -> None:
        if alltoall_algorithm not in ALLTOALL_ALGORITHMS:
            raise ValueError(
                f"unknown alltoall algorithm {alltoall_algorithm!r}; "
                f"available: {sorted(ALLTOALL_ALGORITHMS)}"
            )
        self._alltoall_algorithm = alltoall_algorithm
        super().__init__(n_qubits, terms=terms, costs=costs, n_ranks=n_ranks,
                         precision=precision, optimize=optimize)

    def _guarded_state_bytes(self) -> int:
        """Per-rank slab plus the staging of the configured Alltoall.

        ``direct`` swaps in place, which the sharded staging term covers.
        The other algorithms run :func:`~repro.parallel.collectives.alltoall`
        per schedule row, which allocates a fresh receive row per rank;
        Bruck also keeps its rotated work row alive beside each round's copy.
        """
        if self.alltoall_algorithm == "direct":
            return super()._guarded_state_bytes()
        slab = (self._n_states * self._precision.complex_itemsize
                // self._n_shards)
        return slab * (3 if self.alltoall_algorithm == "bruck" else 2)


class QAOAFURXSimulatorCUSVMPI(_DistributedFURXBase):
    """Distributed FUR simulator using cuStateVec-style index-bit swaps."""

    backend_name = "cusvmpi"

    def _apply_global_mixer(self, block: list[np.ndarray], betas: np.ndarray,
                            coalesce: bool) -> None:
        """Swap each global qubit with the top local one, rotate, swap back.

        The half-slice exchange acts on the whole ``(rows, local_states)``
        block, so it is batch-coalesced by construction and ``coalesce`` is
        ignored.  All exchanges of one mixer application form one trace.
        """
        del coalesce
        top = self.n_local_qubits - 1
        trace = TrafficTrace()
        for j in range(self._g_global):
            self._exchange_global_bit(block, j, top, True, trace)
            self._map_shards(block, lambda s, r: kernels.rotate_x_block(
                block[s][r], betas[r], [top]))
            self._exchange_global_bit(block, j, top, True, trace)
        self._record_exchange(trace)
