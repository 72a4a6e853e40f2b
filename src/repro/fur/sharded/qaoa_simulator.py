"""In-process sharded QAOA simulators: global/local qubit slabs, one process.

The ``(B, 2^n)`` state block is split into ``K = 2^g`` contiguous shard
slabs along the top ``g`` index bits (the *global* qubits), mirroring the
per-rank slicing of :mod:`repro.fur.mpi` — but every slab lives in this
process, owned by a worker of a persistent thread pool.  The division of
labor:

* **local ops** (phase sweeps, rotations of qubits ``< n − g``) dispatch an
  existing kernel family per shard — the configurable *inner provider* of
  :mod:`repro.fur.sharded.inner` (``jit`` when its compiled path is live,
  else the blocked ``c`` kernels) — with all shards running concurrently on
  the pool;
* **global ops** relabel the global qubit local first: a transposition
  exchanges index bits between the shard axis and local positions via
  pairwise *slab swaps* (NumPy copies instead of messages), the rotation
  runs on the now-local bit, and the inverse transposition restores the
  canonical order.  :class:`~repro.fur.sharded.layout.ShardLayout` tracks
  the permutation; each exchange is coalesced across the whole batch (one
  swap per shard pair per transposition, batch-size-independent — exactly
  the shape the ``CoalesceExchanges`` rewrite models), with message counts
  and byte volume recorded into the engine's shard telemetry.

The X mixer uses the Alltoall-style full transpose of Algorithm 4 (all
``g`` global qubits relabeled in one exchange, rotated, restored); the XY
mixers swap one global *bit* at a time to a free local position per edge
that needs it (the cuStateVec-style index-bit swap), preserving the exact
reference edge order — XY edge rotations do not commute.

Because a shard slab is just a smaller state block, results are
bitwise-invariant under the shard count whenever the inner kernels'
arithmetic is position-independent (the ``c`` inner); expectations reduce
over a *fixed* segment grid in float64 so the reduction tree does not
depend on ``K`` either.
"""

from __future__ import annotations

import time
from collections.abc import Sequence
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from ..base import QAOAFastSimulatorBase, batch_block_rows, validate_angles
from ..cvect.kernels import (
    DEFAULT_BLOCK_SIZE,
    KernelWorkspace,
    apply_su2_batch_blocked,
)
from ..diagonal import build_phase_table, precompute_cost_diagonal_slice
from ..python.furx import su2_x_rotation_batch
from ..python.furxy import apply_xy_su2_batch, complete_edges, ring_edges
from .inner import InnerProvider, resolve_inner
from .layout import ShardLayout, resolve_n_shards, resolve_n_workers, sharded_state_bytes

__all__ = [
    "ShardedStateVector",
    "QAOAFURXSimulatorSharded",
    "QAOAFURXYRingSimulatorSharded",
    "QAOAFURXYCompleteSimulatorSharded",
]

#: Fixed chunk (amplitudes) for the expectation reduction inside a segment.
_EXPECTATION_CHUNK: int = 1 << 16

#: Segment-grid exponent floor for expectation partials: the grid is
#: ``2^max(g, min(n, 8))`` segments regardless of the actual shard count, so
#: the float64 reduction tree — and therefore the result bits — do not
#: change between 1, 2, 4 and 8 shards.
_EXPECTATION_SEGMENT_QUBITS: int = 8


@dataclass
class ShardedStateVector:
    """The per-shard slabs of an evolved state (the backend *result* object)."""

    slices: list[np.ndarray]
    n_qubits: int

    @property
    def n_shards(self) -> int:
        """Number of shards holding slabs."""
        return len(self.slices)

    def gather(self) -> np.ndarray:
        """Concatenate all slabs into the full state vector."""
        return np.concatenate(self.slices)


class _ShardedFURSimulatorBase(QAOAFastSimulatorBase):
    """Shared sharded machinery; subclasses supply the mixer sweep.

    Implements the engine's :class:`~repro.fur.engine.KernelProvider`
    protocol over *lists of shard slabs* (``K`` arrays of shape
    ``(rows, 2^(n−g))``), like the MPI families — so fused batching,
    plan rewrites, serve micro-batching and the parity harness apply
    unchanged.
    """

    backend_name = "sharded"
    supports_fused_engine = True
    supports_coalesced_exchange = True

    def __init__(self, n_qubits: int, terms=None, costs=None, *,
                 n_shards: int | None = None, n_workers: int | None = None,
                 inner: str = "auto", block_size: int = DEFAULT_BLOCK_SIZE,
                 precision: str = "double", optimize: str = "default") -> None:
        if n_qubits <= 0:
            raise ValueError(f"n_qubits must be positive, got {n_qubits}")
        self._n_shards = resolve_n_shards(
            n_qubits, n_shards, max_global=self._max_global_qubits(n_qubits))
        self._g_global = self._n_shards.bit_length() - 1
        self._n_workers = resolve_n_workers(self._n_shards, n_workers)
        self._inner: InnerProvider = resolve_inner(inner)
        self._block_size = int(block_size)
        self._pool: ThreadPoolExecutor | None = None
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
    def n_shard_workers(self) -> int:
        """Worker threads of the persistent shard pool (1 = inline)."""
        return self._n_workers

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

    @property
    def inner_name(self) -> str:
        """Resolved inner kernel provider (``jit``/``c``/``python``)."""
        return self._inner.name

    def _guarded_state_bytes(self) -> int:
        """Per-shard accounting: largest slab plus exchange staging.

        This — not the monolithic ``2^n`` array — is what the byte guard
        compares against ``MAX_STATE_BYTES``, so sharding admits problem
        sizes the single-array backends refuse.
        """
        return sharded_state_bytes(self._n_qubits,
                                   self._precision.complex_itemsize,
                                   self._n_shards)

    def _precompute_diagonal(self, terms) -> np.ndarray:
        """Shard-local diagonal precomputation, then a host mirror."""
        s = self.local_states
        self._cost_slices = [
            precompute_cost_diagonal_slice(terms, self._n_qubits,
                                           r * s, (r + 1) * s)
            for r in range(self._n_shards)
        ]
        return np.concatenate(self._cost_slices)

    def _ingest_costs(self, costs):
        host = super()._ingest_costs(costs)
        full = (host.decompress() if hasattr(host, "decompress")
                else np.asarray(host, dtype=np.float64))
        s = self.local_states
        self._cost_slices = [full[r * s:(r + 1) * s]
                             for r in range(self._n_shards)]
        return host

    def _post_init(self) -> None:
        s = self.local_states
        self._workspaces = [
            KernelWorkspace(s, self._block_size,
                            dtype=self._precision.complex_dtype)
            for _ in range(self._n_shards)
        ]
        if self._precision.is_double:
            self._phase_cost_slices = self._cost_slices
        else:
            self._phase_cost_slices = [
                np.ascontiguousarray(c, dtype=self._precision.real_dtype)
                for c in self._cost_slices
            ]
        self._layout = ShardLayout(self._n_qubits, self.n_local_qubits)
        spent = self._inner.warm(self._precision.complex_dtype,
                                 self.n_local_qubits)
        if spent:
            self.engine.stats.kernel_compile_time_s += spent

    # -- worker pool ---------------------------------------------------------
    def _map_shards(self, fn: Callable[[int], None]) -> None:
        """Run a per-shard callable on the pool; record busy/wall telemetry."""
        k = self._n_shards
        busy = [0.0] * k
        wall0 = time.perf_counter()

        def timed(s: int) -> None:
            t0 = time.perf_counter()
            try:
                fn(s)
            finally:
                busy[s] = time.perf_counter() - t0

        pool = self._ensure_pool()
        if pool is None:
            for s in range(k):
                timed(s)
        else:
            list(pool.map(timed, range(k)))
        self.engine.record_shard_dispatch(busy, time.perf_counter() - wall0)

    def _ensure_pool(self) -> ThreadPoolExecutor | None:
        if self._n_workers <= 1 or self._n_shards <= 1:
            return None
        if self._pool is None:
            self._pool = ThreadPoolExecutor(
                max_workers=self._n_workers,
                thread_name_prefix=f"repro-shard-{id(self):x}")
        return self._pool

    # -- slab exchanges ------------------------------------------------------
    def _ensure_swap_buf(self, rows: int, width: int,
                         dtype: np.dtype) -> np.ndarray:
        buf = self._swap_buf
        if buf is None or buf.shape[0] < rows * width or buf.dtype != dtype:
            buf = np.empty(rows * width, dtype=dtype)
            self._swap_buf = buf
        return buf

    def _swap_views(self, a: np.ndarray, b: np.ndarray) -> int:
        """Swap two equal-shaped (possibly strided) slab views via staging."""
        buf = self._ensure_swap_buf(1, a.size, a.dtype)[: a.size].reshape(a.shape)
        np.copyto(buf, a)
        a[...] = b
        b[...] = buf
        return a.nbytes

    def _transpose_global_local(self, block: list[np.ndarray],
                                coalesce: bool) -> None:
        """Alltoall-style transposition of all ``g`` global qubits.

        Exchanges the shard-index bits with the top ``g`` local positions:
        ``new[d][:, s·chunk + low] = old[s][:, d·chunk + low]`` with
        ``chunk = local_states / K`` — a pairwise slab *swap* for every
        unordered shard pair (diagonal slabs never move).  ``coalesce``
        swaps whole ``(rows, chunk)`` slabs (``K(K−1)`` messages regardless
        of the batch size); the per-row path models the uncoalesced
        exchange (``rows · K(K−1)`` messages, identical bytes and results).
        """
        k = self._n_shards
        if k <= 1:
            return
        rows = block[0].shape[0]
        chunk = self.local_states // k
        messages = 0
        moved = 0
        if coalesce:
            for r in range(k):
                for partner in range(r + 1, k):
                    a = block[r][:, partner * chunk:(partner + 1) * chunk]
                    b = block[partner][:, r * chunk:(r + 1) * chunk]
                    moved += 2 * self._swap_views(a, b)
                    messages += 2
        else:
            for i in range(rows):
                for r in range(k):
                    for partner in range(r + 1, k):
                        a = block[r][i, partner * chunk:(partner + 1) * chunk]
                        b = block[partner][i, r * chunk:(r + 1) * chunk]
                        moved += 2 * self._swap_views(a, b)
                        messages += 2
        n_local = self.n_local_qubits
        for j in range(self._g_global):
            self._layout.swap_positions(n_local - self._g_global + j,
                                        n_local + j)
        self.engine.record_shard_exchange(messages, moved)

    def _exchange_global_bit(self, block: list[np.ndarray], global_bit: int,
                             local_pos: int, coalesce: bool) -> None:
        """Swap one shard-index bit with one local bit position.

        The index-bit swap of the cuStateVec strategy, generalized to an
        arbitrary target position: shard ``r`` (bit value ``gv``) trades its
        ``local_pos``-bit ``1 − gv`` sub-block with the partner shard
        differing in ``global_bit`` — amplitudes whose global and local bits
        disagree are exactly the ones stored on the wrong shard.
        """
        k = self._n_shards
        rows = block[0].shape[0]
        inner_w = 1 << local_pos
        outer = self.local_states // (2 * inner_w)
        messages = 0
        moved = 0
        for r in range(k):
            partner = r ^ (1 << global_bit)
            if partner < r:
                continue
            gv = (r >> global_bit) & 1
            va = block[r].reshape(rows, outer, 2, inner_w)[:, :, 1 - gv, :]
            vb = block[partner].reshape(rows, outer, 2, inner_w)[:, :, gv, :]
            if coalesce:
                moved += 2 * self._swap_views(va, vb)
                messages += 2
            else:
                for i in range(rows):
                    moved += 2 * self._swap_views(va[i], vb[i])
                    messages += 2
        self._layout.swap_positions(local_pos,
                                    self.n_local_qubits + global_bit)
        self.engine.record_shard_exchange(messages, moved)

    # -- kernel-provider hooks (driven by repro.fur.engine) ------------------
    def _batch_rows(self, remaining: int, memory_budget: float | None) -> int:
        # the python inner allocates a per-slab ping-pong scratch; the jit/c
        # inners run in place through the workspaces
        blocks = 2 if self._inner.name == "python" else 1
        return batch_block_rows(remaining, self._n_states, memory_budget,
                                blocks=blocks,
                                itemsize=self._precision.complex_itemsize)

    def _engine_phase_tables(self) -> tuple:
        """Per-shard unique-value phase tables over the local diagonal slices."""
        tables = getattr(self, "_phase_table_slices", None)
        if tables is None:
            tables = tuple(build_phase_table(np.asarray(c, dtype=np.float64))
                           for c in self._cost_slices)
            self._phase_table_slices = tables
        return tables

    supports_batched_sv0 = True

    def _stage_block(self, sv0: np.ndarray | None,
                     rows: int) -> list[np.ndarray]:
        """Materialize one ``(rows, local_states)`` slab per shard."""
        s = self.local_states
        if sv0 is None:
            amp = 1.0 / np.sqrt(self._n_states)
            return [np.full((rows, s), amp,
                            dtype=self._precision.complex_dtype)
                    for _ in range(self._n_shards)]
        if np.ndim(sv0) == 2:
            full2 = self._validate_sv0_block(sv0, rows)
            return [np.ascontiguousarray(full2[:, r * s:(r + 1) * s])
                    for r in range(self._n_shards)]
        full = self._validate_sv0(sv0)
        return [np.repeat(full[r * s:(r + 1) * s][None, :], rows, axis=0)
                for r in range(self._n_shards)]

    def _apply_phase_block(self, block: list[np.ndarray], gammas: np.ndarray,
                           plan: Any) -> None:
        """Batched shard-local phase sweep (diagonal — no exchanges)."""
        tables = plan.phase_tables

        def work(s: int) -> None:
            self._inner.phase_block(
                block[s], gammas, costs=self._phase_cost_slices[s],
                table=None if tables is None else tables[s],
                workspace=self._workspaces[s])

        self._map_shards(work)

    def _block_expectations(self, block: list[np.ndarray],
                            costs: np.ndarray) -> np.ndarray:
        """Per-schedule objective over a fixed float64 segment grid.

        Each shard reduces its segments into float64 partials (computed in
        parallel on the pool); the final tree reduction sums the fixed
        ``2^max(g, min(n, 8))`` segment axis, so the accumulation order —
        and therefore the result bits — are identical at every shard count.
        """
        rows = block[0].shape[0]
        g_seg = max(self._g_global,
                    min(self._n_qubits, _EXPECTATION_SEGMENT_QUBITS))
        n_seg = 1 << g_seg
        seg_w = self._n_states >> g_seg
        per_shard = n_seg // self._n_shards
        partials = np.empty((n_seg, rows), dtype=np.float64)

        def work(s: int) -> None:
            slab = block[s]
            for t in range(per_shard):
                seg = s * per_shard + t
                o = t * seg_w
                start = seg * seg_w
                acc = np.zeros(rows, dtype=np.float64)
                for c0 in range(0, seg_w, _EXPECTATION_CHUNK):
                    c1 = min(c0 + _EXPECTATION_CHUNK, seg_w)
                    sub = slab[:, o + c0:o + c1]
                    acc += ((sub.real ** 2 + sub.imag ** 2)
                            @ costs[start + c0:start + c1])
                partials[seg] = acc

        self._map_shards(work)
        return partials.sum(axis=0)

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

    # -- simulation ----------------------------------------------------------
    def _apply_mixer_slabs(self, block: list[np.ndarray], betas: np.ndarray,
                           n_trotters: int, coalesce: bool) -> None:
        """One batched mixer application over the shard slabs."""
        raise NotImplementedError

    def simulate_qaoa(self, gammas: Sequence[float], betas: Sequence[float],
                      sv0: np.ndarray | None = None, *, n_trotters: int = 1,
                      **kwargs: Any) -> ShardedStateVector:
        """Evolve the sharded state through ``p`` QAOA layers (looped path)."""
        if kwargs:
            raise TypeError(f"unexpected keyword arguments: {sorted(kwargs)}")
        if n_trotters < 1:
            raise ValueError("n_trotters must be at least 1")
        g, b = validate_angles(gammas, betas)
        block = self._stage_block(sv0, 1)
        tables = self._engine_phase_tables()

        class _Plan:
            phase_tables = tables

        for gamma, beta in zip(g, b):
            self._apply_phase_block(block, np.array([float(gamma)]), _Plan)
            self._apply_mixer_slabs(block, np.array([float(beta)]),
                                    int(n_trotters), coalesce=False)
        return ShardedStateVector(slices=[slab[0] for slab in block],
                                  n_qubits=self._n_qubits)

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
        probs = [(np.abs(s) ** 2).astype(np.float64, copy=False)
                 for s in result.slices]
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
        """One batched X sweep: local inner sweep, then the global step.

        ``n_trotters`` is ignored (X-mixer factors commute exactly);
        ``phase=(gammas, tables)`` rides the per-shard dispatch of the local
        sweep (the FusePhaseIntoMixer path — one pool dispatch instead of
        two, each slab staying cache-hot between phase and first rotation).
        """
        del n_trotters
        a_rows, b_rows = su2_x_rotation_batch(betas)
        n_local = self.n_local_qubits

        def work(s: int) -> None:
            if phase is not None:
                gammas, tables = phase
                self._inner.furx_phase_sweep(
                    block[s], gammas, betas, a_rows, b_rows, n_local=n_local,
                    costs=self._phase_cost_slices[s],
                    table=None if tables is None else tables[s],
                    workspace=self._workspaces[s])
            else:
                self._inner.furx_sweep(block[s], betas, a_rows, b_rows,
                                       n_local=n_local,
                                       workspace=self._workspaces[s])

        self._map_shards(work)
        if self._g_global == 0:
            return
        # relabel all g global qubits local, rotate them, relabel back
        g = self._g_global
        layout = self._layout
        self._transpose_global_local(block, coalesce)
        positions = [layout.position_of(n_local + j) for j in range(g)]

        def rotate(s: int) -> None:
            for pos in positions:
                apply_su2_batch_blocked(block[s], a_rows, b_rows, pos,
                                        self._workspaces[s])

        self._map_shards(rotate)
        self._transpose_global_local(block, coalesce)
        layout.assert_identity()

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

    def _plan_edge_steps(self) -> list[tuple]:
        """Compile the edge list into local runs and relabeled single edges.

        Returns steps of two shapes: ``("local", [(pi, pj), …])`` — a run of
        consecutive edges whose endpoints are all local, applied in one
        per-shard dispatch — and ``("swap", [(global_bit, target_pos), …],
        (pi, pj))`` — the index-bit swaps that localize the edge, the
        rotation positions, and (implicitly, reversed) the restoring swaps.
        """
        n_local = self.n_local_qubits
        steps: list[tuple] = []
        run: list[tuple[int, int]] = []
        for (qi, qj) in self._mixer_edges():
            if qi < n_local and qj < n_local:
                run.append((qi, qj))
                continue
            if run:
                steps.append(("local", run))
                run = []
            if qi < n_local or qj < n_local:
                loc, glob = (qi, qj) if qi < n_local else (qj, qi)
                target = n_local - 1 if loc != n_local - 1 else n_local - 2
                swaps = [(glob - n_local, target)]
                pos = ((loc, target) if qi < n_local else (target, loc))
            else:
                swaps = [(qi - n_local, n_local - 2),
                         (qj - n_local, n_local - 1)]
                pos = (n_local - 2, n_local - 1)
            steps.append(("swap", swaps, pos))
        if run:
            steps.append(("local", run))
        return steps

    def _apply_mixer_slabs(self, block: list[np.ndarray], betas: np.ndarray,
                           n_trotters: int, coalesce: bool) -> None:
        rows = block[0].shape[0]
        betas_t = np.broadcast_to(
            np.asarray(betas, dtype=np.float64) / n_trotters, (rows,))
        # the reference coefficient recipe of _validate_furxy_batch: float64
        # trig, complex128 coefficients, cast to state dtype at application
        a = np.cos(betas_t).astype(np.complex128)
        b = (-1j * np.sin(betas_t)).astype(np.complex128)
        for _ in range(n_trotters):
            for step in self._edge_steps:
                if step[0] == "local":
                    pairs = step[1]

                    def work(s: int, pairs=pairs) -> None:
                        slab = block[s]
                        for (pi, pj) in pairs:
                            apply_xy_su2_batch(slab, a, b, pi, pj)

                    self._map_shards(work)
                    continue
                _, swaps, (pi, pj) = step
                for global_bit, target in swaps:
                    self._exchange_global_bit(block, global_bit, target,
                                              coalesce)

                def rotate(s: int) -> None:
                    apply_xy_su2_batch(block[s], a, b, pi, pj)

                self._map_shards(rotate)
                for global_bit, target in reversed(swaps):
                    self._exchange_global_bit(block, global_bit, target,
                                              coalesce)
            self._layout.assert_identity()


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
