"""SPMD formulation of Algorithm 4 for execution on a real communicator.

:mod:`repro.fur.mpi.qaoa_simulator` drives every rank's slice from a single
controller (the in-process sharded simulator with one shard per rank), which
is ideal for deterministic testing.  This module provides the genuinely
SPMD variant — the batched per-rank program each rank would run under mpi4py
(:func:`qaoa_rank_program_batch`; a single schedule is a one-row batch) —
written against the :class:`repro.parallel.communicator.Communicator`
interface and executed in-process with
:class:`repro.parallel.communicator.ThreadCluster`.  It is used by the
``distributed_simulation`` example and by the integration tests that exercise
the threaded communicator.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

import numpy as np

from ...parallel.communicator import Communicator, ThreadCluster
from ..base import validate_angle_batches, validate_angles
from ..diagonal import build_phase_table, precompute_cost_diagonal_slice
from ..jit import kernels
from ..precision import resolve_precision

__all__ = [
    "qaoa_rank_program_batch",
    "run_distributed_qaoa",
    "run_distributed_qaoa_batch",
]


def qaoa_rank_program_batch(comm: Communicator, n_qubits: int,
                            terms: list[tuple[float, tuple[int, ...]]],
                            gammas_batch, betas_batch,
                            precision: str = "double",
                            coalesce: bool = True) -> dict:
    """The fused batched per-rank program: evolve a local slice *block*.

    The SPMD mirror of the execution engine's fused distributed path
    (:mod:`repro.fur.engine`): each rank evolves a ``(B, local_states)``
    block through all layers with the :mod:`repro.fur.jit.kernels` tier — a
    slice-local phase (unique-value phase table when the slice is
    repetitive) fused with the local X rotations, and the alltoall exchanges
    around the rotation of the global qubits — then reduces every schedule
    to its objective value with one allreduce.

    With ``coalesce=True`` (the default, mirroring the engine's
    CoalesceExchanges plan rewrite) each exchange packs the whole block
    destination-major into *one* alltoall, so the collective count per layer
    is 2 regardless of the batch size; ``coalesce=False`` keeps the
    historical one-alltoall-per-schedule path (bitwise-identical results).
    Returns a dict with the rank's block, the length-``B`` ``expectations``
    array (identical on every rank, float64-accumulated) and the alltoall
    count.
    """
    rank, size = comm.rank, comm.size
    if size & (size - 1):
        raise ValueError("the rank count must be a power of two")
    k = size.bit_length() - 1
    if 2 * k > n_qubits:
        raise ValueError(f"Algorithm 4 requires 2*log2(K) <= n; got K={size}, n={n_qubits}")
    n_local = n_qubits - k
    local_states = 1 << n_local
    g, b_angles = validate_angle_batches(gammas_batch, betas_batch)
    batch = g.shape[0]
    spec = resolve_precision(precision)

    # Slice-local precomputation (Sec. III-A: no communication needed).
    costs = precompute_cost_diagonal_slice(terms, n_qubits,
                                           rank * local_states, (rank + 1) * local_states,
                                           dtype=spec.real_dtype)
    costs64 = np.asarray(costs, dtype=np.float64)
    table = build_phase_table(costs64)
    block = np.full((batch, local_states), 1.0 / np.sqrt(1 << n_qubits),
                    dtype=spec.complex_dtype)
    n_alltoall = 0

    def exchange(blk: np.ndarray) -> int:
        """One global-qubit transposition exchange; returns the alltoall count."""
        if coalesce:
            # Destination-major packing: all rows' sub-chunks for rank d are
            # contiguous, so one collective carries the whole batch (the
            # message count stops scaling with B — same rewrite the engine's
            # CoalesceExchanges pass applies to the driver-form backend).
            packed = np.ascontiguousarray(
                blk.reshape(batch, size, -1).transpose(1, 0, 2)).reshape(-1)
            recv = comm.alltoall(packed)
            blk[:] = (recv.reshape(size, batch, -1).transpose(1, 0, 2)
                      .reshape(batch, local_states))
            return 1
        for i in range(batch):
            blk[i, :] = comm.alltoall(blk[i])
        return batch

    for layer in range(g.shape[1]):
        kernels.rotate_x_block(block, b_angles[:, layer], range(n_local),
                               gammas=g[:, layer], phase_table=table,
                               costs=costs)
        if k > 0:
            # the global qubits now sit at the top k local positions
            n_alltoall += exchange(block)
            kernels.rotate_x_block(block, b_angles[:, layer],
                                   range(n_local - k, n_local))
            n_alltoall += exchange(block)

    # Float64 accumulation regardless of the state precision.
    local = kernels.expectation_block(block, costs64)
    expectations = np.asarray(comm.allreduce_sum(local), dtype=np.float64)
    return {
        "rank": rank,
        "statevector_block": block,
        "expectations": expectations,
        "n_alltoall": n_alltoall,
    }


def run_distributed_qaoa(n_qubits: int, terms: Iterable[tuple[float, Iterable[int]]],
                         gammas: Sequence[float], betas: Sequence[float],
                         n_ranks: int = 4, precision: str = "double") -> dict:
    """Run one schedule: :func:`qaoa_rank_program_batch` on a single row.

    Returns a dict with the gathered ``statevector``, the ``expectation`` and
    the per-rank result dicts (``ranks``, each carrying its ``n_alltoall``).
    """
    g, b = validate_angles(gammas, betas)
    out = run_distributed_qaoa_batch(n_qubits, terms, g[None], b[None],
                                     n_ranks=n_ranks, precision=precision)
    return {
        "statevector": out["statevectors"][0],
        "expectation": float(out["expectations"][0]),
        "ranks": out["ranks"],
    }


def run_distributed_qaoa_batch(n_qubits: int,
                               terms: Iterable[tuple[float, Iterable[int]]],
                               gammas_batch, betas_batch,
                               n_ranks: int = 4,
                               precision: str = "double",
                               coalesce: bool = True) -> dict:
    """Run the fused batched SPMD program on a :class:`ThreadCluster`.

    ``coalesce`` selects the batch-coalesced alltoall (see
    :func:`qaoa_rank_program_batch`).  Returns a dict with the per-schedule
    ``expectations`` array, the gathered ``(B, 2^n)`` ``statevectors`` block
    and the per-rank result dicts (``ranks``).
    """
    term_list = [(float(w), tuple(idx)) for w, idx in terms]
    cluster = ThreadCluster(n_ranks)
    results = cluster.run(
        qaoa_rank_program_batch,
        [(n_qubits, term_list, gammas_batch, betas_batch, precision,
          coalesce)] * n_ranks)
    results.sort(key=lambda r: r["rank"])
    full = np.concatenate([r["statevector_block"] for r in results], axis=1)
    return {
        "statevectors": full,
        "expectations": results[0]["expectations"],
        "ranks": results,
    }
