"""In-process sharded QAOA simulators: global/local qubit slabs, one process.

The ``(B, 2^n)`` state block is split into ``K = 2^g`` contiguous shard
slabs along the top ``g`` index bits (the *global* qubits, the paper's
per-rank slicing of Sec. III-C), every slab living in this process.  The
division of labor:

* **local ops** (phase sweeps, rotations of qubits ``< n − g``, XY edges
  between local qubits) run the :mod:`repro.fur.jit.kernels` tier per
  shard — its compiled rung when one is live, its numpy rung otherwise —
  as one grid of (shard, row-chunk) tasks on the jit tier's row pool
  (:func:`~repro.fur.jit.kernels.run_tasks`), the only compute pool;
* **global ops** relabel the global qubit local first: a transposition
  exchanges index bits between the shard axis and local positions via
  pairwise *slab swaps* (NumPy copies instead of messages), the rotation
  runs on the now-local bit, and the inverse transposition restores the
  canonical order.  :class:`~repro.fur.sharded.layout.ShardLayout` tracks
  the permutation; every exchange builds a
  :class:`~repro.parallel.collectives.TrafficTrace` that
  :meth:`~_ShardedFURSimulatorBase._record_exchange` feeds into the engine's
  shard telemetry.

The X mixer uses the Alltoall-style full transpose of Algorithm 4 (all
``g`` global qubits relabeled in one exchange, rotated, restored); the XY
mixers swap one global *bit* at a time to a free local position per edge
that needs it (the cuStateVec-style index-bit swap), preserving the exact
reference edge order — XY edge rotations do not commute.  The distributed
``gpumpi``/``cusvmpi`` backends of :mod:`repro.fur.mpi` are this X
simulator with one shard per rank; they differ only in the global step
(:meth:`QAOAFURXSimulatorSharded._apply_global_mixer`).

Because a shard slab is just a smaller state block and every jit rung's
arithmetic is position-independent (a qubit rotated at a relabelled bit
position gets the same bits as at its home position), results are
bitwise-invariant under the shard count; expectations reduce over a
*fixed* segment grid in float64 so the reduction tree does not depend on
``K`` either.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import lru_cache, partial
from typing import Any, Callable

import numpy as np

from ...parallel.collectives import Message, TrafficTrace, alltoall
from ..base import QAOAFastSimulatorBase, host_probabilities
from ..diagonal import build_phase_table
from ..jit import kernels
from ..python.furxy import complete_edges, ring_edges
from ..python.kernels import segment_expectations
from .layout import ShardLayout, resolve_n_shards, sharded_state_bytes

__all__ = [
    "ShardedStateVector",
    "QAOAFURXSimulatorSharded",
    "QAOAFURXYRingSimulatorSharded",
    "QAOAFURXYCompleteSimulatorSharded",
]

#: Segment-grid exponent floor for expectation partials: the grid is
#: ``2^max(g, min(n, 8))`` segments regardless of the actual shard count, so
#: the float64 reduction tree — and therefore the result bits — do not
#: change between 1, 2, 4 and 8 shards.
_EXPECTATION_SEGMENT_QUBITS: int = 8


@lru_cache(maxsize=None)
def _transpose_messages(k: int, nbytes: int,
                        coalesce: bool) -> tuple[Message, ...]:
    """Messages of one in-place transpose exchange, each moving ``nbytes``.

    Coalesced: both directions of every shard pair, in swap order.  Per
    row: the order of :func:`~repro.parallel.collectives.alltoall_direct`.
    """
    if coalesce:
        sends = [m for r in range(k) for p in range(r + 1, k)
                 for m in ((r, p), (p, r))]
    else:
        sends = [(s, d) for s in range(k) for d in range(k) if s != d]
    return tuple(Message(s, d, nbytes, 0) for s, d in sends)


@dataclass
class ShardedStateVector:
    """The per-shard slabs of an evolved state (the backend *result* object)."""

    slices: list[np.ndarray]
    n_qubits: int

    @property
    def n_shards(self) -> int:
        """Number of shards holding slabs."""
        return len(self.slices)

    #: the distributed backends' name for the same count (one shard per rank)
    n_ranks = n_shards

    def gather(self) -> np.ndarray:
        """Concatenate all slabs into the full state vector."""
        return np.concatenate(self.slices)


class _ShardedFURSimulatorBase(QAOAFastSimulatorBase):
    """Shared sharded machinery; subclasses supply the mixer sweep.

    Implements the engine's :class:`~repro.fur.engine.KernelProvider`
    protocol over *lists of shard slabs* (``K`` arrays of shape
    ``(rows, 2^(n−g))``) — so fused batching, plan rewrites, serve
    micro-batching and the parity harness apply unchanged.
    """

    backend_name = "sharded"
    supports_coalesced_exchange = True
    #: Alltoall algorithm of the per-row (uncoalesced) X transpose
    alltoall_algorithm: str = "direct"

    def __init__(self, n_qubits: int, terms=None, costs=None, *,
                 n_shards: int | None = None,
                 precision: str = "double", optimize: str = "default") -> None:
        if n_qubits <= 0:
            raise ValueError(f"n_qubits must be positive, got {n_qubits}")
        self._n_shards = resolve_n_shards(
            n_qubits, n_shards, max_global=self._max_global_qubits(n_qubits))
        self._g_global = self._n_shards.bit_length() - 1
        self._swap_buf: np.ndarray | None = None
        super().__init__(n_qubits, terms=terms, costs=costs,
                         precision=precision, optimize=optimize)

    # -- construction --------------------------------------------------------
    @staticmethod
    def _max_global_qubits(n_qubits: int) -> int:
        """Largest ``g`` this mixer's relabeling strategy supports."""
        raise NotImplementedError

    @property
    def n_shards(self) -> int:
        """Number of shard slabs ``K = 2^g`` the state is split into."""
        return self._n_shards

    @property
    def n_global_qubits(self) -> int:
        """Number of global (shard-index) qubits ``g``."""
        return self._g_global

    @property
    def n_local_qubits(self) -> int:
        """Number of local (per-slab) qubits ``n − g``."""
        return self._n_qubits - self._g_global

    @property
    def local_states(self) -> int:
        """Amplitudes per shard slab."""
        return 1 << self.n_local_qubits

    def _guarded_state_bytes(self) -> int:
        """Per-shard accounting: largest slab plus exchange staging.

        This — not the monolithic ``2^n`` array — is what the byte guard
        compares against ``MAX_STATE_BYTES``, so sharding admits problem
        sizes the single-array backends refuse.
        """
        return sharded_state_bytes(self._n_qubits,
                                   self._precision.complex_itemsize,
                                   self._n_shards)

    def _post_init(self) -> None:
        #: each shard's cost slice: a view of the one float64 host vector
        s = self.local_states
        self._cost_slices = [self._costs[r * s:(r + 1) * s]
                             for r in range(self._n_shards)]
        self._layout = ShardLayout(self._n_qubits, self.n_local_qubits)
        spent = kernels.ensure_kernels(self._precision.complex_dtype,
                                       self.n_local_qubits, self.mixer_name)
        if spent:
            self.engine.stats.kernel_compile_time_s += spent

    # -- shard dispatch ------------------------------------------------------
    def _map_shards(self, block: list[np.ndarray],
                    fn: Callable[[int, slice], None]) -> None:
        """Run ``fn(s, rows)`` over a (shard, row-chunk) grid on the row pool.

        Each shard's rows split into ``ceil(T / K)`` chunks of the pool's
        ``T`` threads (one shard: the jit tier's own row split); the kernels
        compute every row on its own, so no bit depends on the split.  Every
        task finishes before this returns, even when one fails; the first
        failure in task order is re-raised after the telemetry is recorded.
        A shard's busy time spans its first chunk's start to its last
        chunk's end.
        """
        k = self._n_shards
        parts = -(-kernels.pool_threads() // k)
        chunks = kernels.row_ranges(block[0].shape[0], parts)
        spans: list[list[tuple[float, float]]] = [[] for _ in range(k)]

        def task(s: int, r0: int, r1: int) -> None:
            t0 = time.perf_counter()
            try:
                fn(s, slice(r0, r1))
            finally:
                spans[s].append((t0, time.perf_counter()))

        wall0 = time.perf_counter()
        try:
            kernels.run_tasks([partial(task, s, r0, r1)
                               for s in range(k) for r0, r1 in chunks])
        finally:
            busy = [max(t1 for _, t1 in done) - min(t0 for t0, _ in done)
                    if done else 0.0 for done in spans]
            self.engine.record_shard_dispatch(busy,
                                              time.perf_counter() - wall0)

    # -- slab exchanges ------------------------------------------------------
    def _swap_views(self, a: np.ndarray, b: np.ndarray) -> int:
        """Swap two equal-shaped (possibly strided) slab views via staging."""
        buf = self._swap_buf
        if buf is None or buf.size < a.size or buf.dtype != a.dtype:
            buf = self._swap_buf = np.empty(a.size, dtype=a.dtype)
        buf = buf[:a.size].reshape(a.shape)
        np.copyto(buf, a)
        a[...] = b
        b[...] = buf
        return a.nbytes

    def _record_exchange(self, trace: TrafficTrace) -> None:
        """Account one exchange's traffic in the engine's shard telemetry."""
        self.engine.record_shard_exchange(trace.num_messages,
                                          trace.total_bytes)

    def _transpose_global_local(self, block: list[np.ndarray],
                                coalesce: bool) -> None:
        """Alltoall-style transposition of all ``g`` global qubits.

        Exchanges the shard-index bits with the top ``g`` local positions:
        ``new[d][:, s·chunk + low] = old[s][:, d·chunk + low]`` with
        ``chunk = local_states / K`` — a pairwise slab *swap* in place for
        every unordered shard pair (diagonal slabs never move), staging one
        ``chunk`` at a time.  ``coalesce`` swaps whole ``(rows, chunk)``
        slabs: ``K(K−1)`` messages in one trace regardless of the batch
        size.  The per-row path records one trace per schedule row, with the
        messages of :func:`~repro.parallel.collectives.alltoall_direct`; a
        non-direct :attr:`alltoall_algorithm` instead runs
        :func:`~repro.parallel.collectives.alltoall` per row (identical
        results, that algorithm's traffic and receive buffers).
        """
        k = self._n_shards
        if k <= 1:
            return
        rows = block[0].shape[0]
        if coalesce or self.alltoall_algorithm == "direct":
            chunk = self.local_states // k
            row_keys = [slice(None)] if coalesce else range(rows)
            messages = _transpose_messages(
                k, block[0][row_keys[0], :chunk].nbytes, coalesce)
            for i in row_keys:
                for r in range(k):
                    for p in range(r + 1, k):
                        self._swap_views(
                            block[r][i, p * chunk:(p + 1) * chunk],
                            block[p][i, r * chunk:(r + 1) * chunk])
                self._record_exchange(TrafficTrace(list(messages)))
        else:
            for i in range(rows):
                received, trace = alltoall([slab[i] for slab in block],
                                           self.alltoall_algorithm)
                for slab, row in zip(block, received):
                    slab[i] = row
                self._record_exchange(trace)
        n_local = self.n_local_qubits
        for j in range(self._g_global):
            self._layout.swap_positions(n_local - self._g_global + j,
                                        n_local + j)

    def _exchange_global_bit(self, block: list[np.ndarray], global_bit: int,
                             local_pos: int, coalesce: bool,
                             trace: TrafficTrace) -> None:
        """Swap one shard-index bit with one local bit position.

        The index-bit swap of the cuStateVec strategy, generalized to an
        arbitrary target position: shard ``r`` (bit value ``gv``) trades its
        ``local_pos``-bit ``1 − gv`` sub-block with the partner shard
        differing in ``global_bit`` — amplitudes whose global and local bits
        disagree are exactly the ones stored on the wrong shard.  The
        messages (round ``global_bit``) are added to ``trace``, which the
        caller records once its exchanges are done.
        """
        k = self._n_shards
        rows = block[0].shape[0]
        inner_w = 1 << local_pos
        outer = self.local_states // (2 * inner_w)
        for r in range(k):
            partner = r ^ (1 << global_bit)
            if partner < r:
                continue
            gv = (r >> global_bit) & 1
            va = block[r].reshape(rows, outer, 2, inner_w)[:, :, 1 - gv, :]
            vb = block[partner].reshape(rows, outer, 2, inner_w)[:, :, gv, :]
            for a, b in ([(va, vb)] if coalesce else zip(va, vb)):
                nbytes = self._swap_views(a, b)
            trace.messages += [Message(r, partner, nbytes, global_bit),
                               Message(partner, r, nbytes, global_bit)
                               ] * (1 if coalesce else rows)
        self._layout.swap_positions(local_pos,
                                    self.n_local_qubits + global_bit)

    # -- kernel-provider hooks (driven by repro.fur.engine) ------------------
    def _shard_phase(self, s: int, tables: tuple | None) -> dict:
        """Phase inputs of shard ``s``: its table (when the plan has them)
        and its float64 cost slice."""
        return {"phase_table": None if tables is None else tables[s],
                "costs": self._cost_slices[s]}

    def _engine_phase_tables(self) -> tuple:
        """Per-shard unique-value phase tables over the local diagonal slices."""
        tables = getattr(self, "_phase_table_slices", None)
        if tables is None:
            tables = tuple(build_phase_table(c) for c in self._cost_slices)
            self._phase_table_slices = tables
        return tables

    def _stage_block(self, sv0: np.ndarray | None,
                     rows: int) -> list[np.ndarray]:
        """Materialize one ``(rows, local_states)`` slab per shard.

        Also resets the layout: a relabeling cut short by a failed shard
        kernel must not leak into the next block.
        """
        self._layout.reset()
        s = self.local_states
        if sv0 is None:
            amp = 1.0 / np.sqrt(self._n_states)
            return [np.full((rows, s), amp,
                            dtype=self._precision.complex_dtype)
                    for _ in range(self._n_shards)]
        full = self._validate_sv0(sv0)
        return [np.repeat(full[r * s:(r + 1) * s][None, :], rows, axis=0)
                for r in range(self._n_shards)]

    def _apply_phase_block(self, block: list[np.ndarray], gammas: np.ndarray,
                           plan: Any) -> None:
        """Batched shard-local phase sweep (diagonal — no exchanges)."""
        self._map_shards(block, lambda s, r: kernels.phase_block(
            block[s][r], gammas[r], **self._shard_phase(s, plan.phase_tables)))

    def _block_expectations(self, block: list[np.ndarray],
                            costs: np.ndarray) -> np.ndarray:
        """Per-schedule objective over a fixed float64 segment grid.

        Every segment of every row reduces on its own into a float64
        partial (the python backend's row-independent reduction), on the
        (shard, row-chunk) grid; each row then sums its fixed
        ``2^max(g, min(n, 8))`` partials.  The accumulation order, and so
        the result bits, depend neither on the shard count nor on the rows
        a schedule is batched with.
        """
        rows = block[0].shape[0]
        g_seg = max(self._g_global,
                    min(self._n_qubits, _EXPECTATION_SEGMENT_QUBITS))
        n_seg = 1 << g_seg
        seg_w = self._n_states >> g_seg
        per_shard = n_seg // self._n_shards
        slab_w = per_shard * seg_w
        partials = np.empty((rows, n_seg), dtype=np.float64)

        def work(s: int, r: slice) -> None:
            partials[r, s * per_shard:(s + 1) * per_shard] = (
                segment_expectations(block[s][r],
                                     costs[s * slab_w:(s + 1) * slab_w],
                                     seg_w))

        self._map_shards(block, work)
        return partials.sum(axis=1)

    def _block_results(self,
                       block: list[np.ndarray]) -> list[ShardedStateVector]:
        rows = block[0].shape[0]
        return [
            ShardedStateVector(
                slices=[np.array(block[s][i], copy=True)
                        for s in range(self._n_shards)],
                n_qubits=self._n_qubits)
            for i in range(rows)
        ]

    def _result_block(self, result: ShardedStateVector) -> list[np.ndarray]:
        """One result as one-row shard slabs (views of its slices)."""
        return [s.reshape(1, -1) for s in result.slices]

    # -- simulation ----------------------------------------------------------
    def _apply_mixer_slabs(self, block: list[np.ndarray], betas: np.ndarray,
                           n_trotters: int, coalesce: bool) -> None:
        """One batched mixer application over the shard slabs."""
        raise NotImplementedError

    def _apply_mixer_block(self, block: list[np.ndarray], betas: np.ndarray,
                           n_trotters: int, scratch: Any) -> None:
        del scratch
        self._apply_mixer_slabs(block, betas, n_trotters, coalesce=False)

    def _apply_mixer_block_coalesced(self, block: list[np.ndarray],
                                     betas: np.ndarray, n_trotters: int,
                                     scratch: Any) -> None:
        """Mixer sweep with batch-coalesced slab exchanges (CoalesceExchanges)."""
        del scratch
        self._apply_mixer_slabs(block, betas, n_trotters, coalesce=True)

    # -- output methods ------------------------------------------------------
    def get_statevector(self, result: ShardedStateVector, *,
                        gather: bool = True,
                        **kwargs: Any) -> np.ndarray | list[np.ndarray]:
        """Full state vector (default) or the raw per-shard slabs."""
        if gather:
            return result.gather()
        return result.slices

    def get_probabilities(self, result: ShardedStateVector,
                          preserve_state: bool = True, *,
                          gather: bool = True,
                          **kwargs: Any) -> np.ndarray | list[np.ndarray]:
        """Measurement probabilities (gathered by default; always float64)."""
        probs = [host_probabilities(s, preserve_state) for s in result.slices]
        if gather:
            return np.concatenate(probs)
        return probs


class QAOAFURXSimulatorSharded(_ShardedFURSimulatorBase):
    """Sharded transverse-field mixer: Algorithm-4 style full transposes."""

    mixer_name = "x"
    supports_fused_phase_mixer = True

    @staticmethod
    def _max_global_qubits(n_qubits: int) -> int:
        # the full transpose needs chunk = 2^(n−g)/2^g ≥ 1, i.e. 2g ≤ n
        return n_qubits // 2

    def _apply_mixer_slabs(self, block: list[np.ndarray], betas: np.ndarray,
                           n_trotters: int, coalesce: bool,
                           phase: tuple[np.ndarray, Any] | None = None) -> None:
        """One batched X sweep: local sweep, then the global step.

        ``n_trotters`` is ignored (X-mixer factors commute exactly);
        ``phase=(gammas, tables)`` rides the per-shard dispatch of the local
        sweep (the FusePhaseIntoMixer path — one pool dispatch instead of
        two, each slab staying cache-hot between phase and first rotation).
        """
        del n_trotters
        gammas, tables = phase if phase is not None else (None, None)
        local = range(self.n_local_qubits)
        self._map_shards(block, lambda s, r: kernels.rotate_x_block(
            block[s][r], betas[r], local,
            gammas=None if gammas is None else gammas[r],
            **self._shard_phase(s, tables)))
        if self._g_global == 0:
            return
        self._apply_global_mixer(block, betas, coalesce)
        self._layout.assert_identity()

    def _apply_global_mixer(self, block: list[np.ndarray], betas: np.ndarray,
                            coalesce: bool) -> None:
        """Rotate the ``g`` global qubits (Algorithm 4, lines 5–7).

        Relabels all global qubits local in one transpose, rotates them
        there, and transposes back.  Subclasses override this step alone to
        exchange the global qubits another way.
        """
        n_local = self.n_local_qubits
        self._transpose_global_local(block, coalesce)
        positions = [self._layout.position_of(n_local + j)
                     for j in range(self._g_global)]
        self._map_shards(block, lambda s, r: kernels.rotate_x_block(
            block[s][r], betas[r], positions))
        self._transpose_global_local(block, coalesce)

    def _apply_phase_mixer_block(self, block: list[np.ndarray],
                                 gammas: np.ndarray, betas: np.ndarray,
                                 op: Any, scratch: Any, plan: Any) -> None:
        """FusedPhaseMixerOp kernel: the phase rides the local sweep."""
        del scratch
        self._apply_mixer_slabs(block, betas, 1, coalesce=op.coalesce,
                                phase=(gammas, plan.phase_tables))


class _ShardedXYBase(_ShardedFURSimulatorBase):
    """Shared XY machinery: per-edge sweeps with index-bit relabeling.

    The edge plan is computed once: consecutive all-local edges batch into
    one per-shard dispatch; an edge with a global endpoint swaps that
    index bit to a free local position, rotates there, and swaps back —
    preserving the exact reference edge order (XY rotations on overlapping
    edges do not commute, so reordering would change results).
    """

    @staticmethod
    def _max_global_qubits(n_qubits: int) -> int:
        # a both-global edge needs two distinct free local positions
        return max(0, n_qubits - 2)

    def _mixer_edges(self) -> list[tuple[int, int]]:
        raise NotImplementedError

    def _post_init(self) -> None:
        super()._post_init()
        self._edge_steps = self._plan_edge_steps()

    def _plan_edge_steps(self) -> list[tuple[list, list]]:
        """Compile the edge list into ``(swaps, edges)`` steps.

        ``edges`` are local bit-position pairs rotated in one per-shard
        dispatch; ``swaps`` are the ``(global_bit, target_pos)`` index-bit
        swaps that localize them first (undone in reverse afterwards).  A
        run of consecutive all-local edges is one step without swaps; an
        edge with a global endpoint is a step of its own.
        """
        n_local = self.n_local_qubits
        steps: list[tuple[list, list]] = []
        run: list[tuple[int, int]] = []
        for (qi, qj) in self._mixer_edges():
            if qi < n_local and qj < n_local:
                run.append((qi, qj))
                continue
            if run:
                steps.append(([], run))
                run = []
            if qi < n_local or qj < n_local:
                loc, glob = (qi, qj) if qi < n_local else (qj, qi)
                target = n_local - 1 if loc != n_local - 1 else n_local - 2
                steps.append(([(glob - n_local, target)], [(loc, target)]))
            else:
                steps.append(([(qi - n_local, n_local - 2),
                               (qj - n_local, n_local - 1)],
                              [(n_local - 2, n_local - 1)]))
        if run:
            steps.append(([], run))
        return steps

    def _apply_mixer_slabs(self, block: list[np.ndarray], betas: np.ndarray,
                           n_trotters: int, coalesce: bool) -> None:
        rows = block[0].shape[0]
        betas_t = np.broadcast_to(
            np.asarray(betas, dtype=np.float64) / n_trotters, (rows,))
        trace = TrafficTrace()
        for _ in range(n_trotters):
            for swaps, edges in self._edge_steps:
                for global_bit, target in swaps:
                    self._exchange_global_bit(block, global_bit, target,
                                              coalesce, trace)
                self._map_shards(block, lambda s, r: kernels.furxy_block(
                    block[s][r], None, betas_t[r], edges=edges))
                for global_bit, target in reversed(swaps):
                    self._exchange_global_bit(block, global_bit, target,
                                              coalesce, trace)
            self._layout.assert_identity()
        self._record_exchange(trace)


class QAOAFURXYRingSimulatorSharded(_ShardedXYBase):
    """Sharded ring XY mixer (Hamming-weight preserving)."""

    mixer_name = "xyring"

    def _mixer_edges(self) -> list[tuple[int, int]]:
        return ring_edges(self._n_qubits)


class QAOAFURXYCompleteSimulatorSharded(_ShardedXYBase):
    """Sharded complete-graph XY mixer (Hamming-weight preserving)."""

    mixer_name = "xycomplete"

    def _mixer_edges(self) -> list[tuple[int, int]]:
        return complete_edges(self._n_qubits)
