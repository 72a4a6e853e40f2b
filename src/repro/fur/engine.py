"""Layered execution-plan engine shared by every simulator backend.

The orchestration of QAOA evaluation — layer sequencing, phase-table
reuse, memory-budgeted sub-batch splitting, scratch-block lifetime and the
float64 accumulation policy — lives in exactly one place:

* a ``(p, mixer, precision, n_trotters, batch-memory-budget)`` tuple is
  *compiled* into an :class:`ExecutionPlan` — a declarative sequence of layer
  ops (:class:`PhaseOp`, :class:`MixerOp`, terminated by an
  :class:`ExpectationOp` when the batch is reduced to objective values) plus
  the resolved phase tables;
* plans are cached per simulator (next to the resolved-diagonal/phase-table
  caches the base class already keeps), so repeated evaluation at the same
  depth — the Fig. 2 optimization loop — pays for exactly one compilation;
* execution walks the op list over ``(rows, 2^n)`` state blocks, splitting
  batches that exceed the memory budget into sub-batches and reusing one
  mixer scratch block per sub-batch;
* backends participate through the narrow :class:`KernelProvider` protocol
  (stage a block, apply one phase/mixer layer to it, reduce it, split it,
  release it) — a new backend, mixer or device is a ~100-line kernel
  provider, never a fourth copy of the orchestration loop.

Every backend is a kernel provider, and a single schedule
(:meth:`~repro.fur.base.QAOAFastSimulatorBase.simulate_qaoa`) is a one-row
plan.  Every batch runs as blocks.

After a plan's base op list is built, the optimizer pass pipeline
(:mod:`repro.fur.rewrite`) rewrites it once, at compile time: phase sweeps
fuse into the following mixer sweep
(:class:`~repro.fur.rewrite.FusedPhaseMixerOp`), distributed exchanges
coalesce across the batch, and the final mixer fuses into the expectation
reduction.  The ``optimize="default"|"none"`` knob (simulator constructor,
batched entry points, plan-cache key) switches the pipeline off entirely so
optimized plans can always be pinned against the unoptimized op stream.
"""

from __future__ import annotations

import threading
import time
from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Protocol, runtime_checkable

import numpy as np

from .base import validate_angle_batches
from .capabilities import UnsupportedCapabilityError, require_capability
from .rewrite import (
    ExpectationOp,
    FusedMixerExpectationOp,
    FusedPhaseMixerOp,
    MixerOp,
    PhaseOp,
    PlanOp,
    RewriteReport,
    resolve_optimize,
    run_passes,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .base import QAOAFastSimulatorBase

__all__ = [
    "PhaseOp",
    "MixerOp",
    "FusedPhaseMixerOp",
    "FusedMixerExpectationOp",
    "ExpectationOp",
    "UnsupportedCapabilityError",
    "ExecutionPlan",
    "EngineStats",
    "KernelProvider",
    "ExecutionEngine",
]


def _plan_key(p: int, n_trotters: int, memory_budget: float | None,
              reduce: bool, precision: str, optimize: str) -> tuple:
    """The plan-cache key — the single definition shared by the engine's
    cache lookup and :attr:`ExecutionPlan.key`."""
    return (int(p), int(n_trotters), memory_budget, bool(reduce), precision,
            optimize)


# ---------------------------------------------------------------------------
# Plans and statistics.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExecutionPlan:
    """A compiled, cacheable recipe for evaluating batches of QAOA schedules.

    The plan is declarative: :attr:`ops` is the exact sequence of layer
    operations the engine will drive through the owning simulator's kernel
    provider, and everything resolved at compile time (the phase tables, the
    memory budget) rides along so execution touches no caches.
    """

    #: number of QAOA layers p
    p: int
    #: mixer family of the owning simulator ("x", "xyring", "xycomplete")
    mixer: str
    #: simulation precision name of the owning simulator
    precision: str
    #: Trotter slices per mixer application (XY mixers)
    n_trotters: int
    #: memory budget (bytes) for block scratch; ``None`` = backend default
    memory_budget: float | None
    #: whether the plan ends in an objective reduction (ExpectationOp)
    reduce: bool
    #: optimizer level the plan was compiled at ("default" or "none")
    optimize: str
    #: the declarative op sequence executed per sub-batch (already rewritten
    #: by the optimizer passes when ``optimize != "none"``)
    ops: tuple[PlanOp, ...]
    #: per-pass reports of the compile-time rewrites applied to :attr:`ops`
    rewrites: tuple[RewriteReport, ...]
    #: provider-specific phase-table object(s) resolved at compile time
    #: (a :class:`~repro.fur.diagonal.DiagonalPhaseTable` for single-address-
    #: space backends, a per-shard tuple for the sharded family, or
    #: ``None`` when the diagonal is not repetitive enough)
    phase_tables: Any
    #: wall-clock seconds spent compiling this plan (includes the first
    #: phase-table build when it was not already cached on the simulator)
    compile_time_s: float

    @property
    def key(self) -> tuple:
        """The cache key this plan is stored under."""
        return _plan_key(self.p, self.n_trotters, self.memory_budget,
                         self.reduce, self.precision, self.optimize)


@dataclass
class EngineStats:
    """Counters describing one engine's activity (feeds ``--engine-report``)."""

    plan_compiles: int = 0
    plan_cache_hits: int = 0
    compile_time_s: float = 0.0
    #: wall-clock seconds providers spent compiling kernels (the jit tier's
    #: one-time C build) — reported apart from plan compilation and never
    #: included in execution timings
    kernel_compile_time_s: float = 0.0
    blocks_executed: int = 0
    rows_executed: int = 0
    #: FusedPhaseMixerOp executions (fused ops are counted distinctly from
    #: the split phase/mixer sweeps so rewrite wins are visible in reports)
    fused_ops_executed: int = 0
    #: mixer/fused ops executed with a batch-coalesced global exchange
    coalesced_exchange_ops: int = 0
    #: FusedMixerExpectationOp executions (final mixer reduced without the
    #: ping-pong copy-back — the FuseMixerIntoExpectation rewrite)
    mixer_expectation_fused_ops: int = 0
    #: slab-exchange messages of the sharded family (``sharded``,
    #: ``gpumpi``, ``cusvmpi``): the ``num_messages`` of every exchange's
    #: :class:`~repro.parallel.collectives.TrafficTrace`
    shard_exchanges: int = 0
    #: bytes moved between shards by those exchanges
    exchange_bytes: int = 0
    #: per-shard busy seconds inside parallel shard dispatches
    shard_busy_s: dict[int, float] = field(default_factory=dict)
    #: wall-clock seconds spent inside parallel shard dispatches (the
    #: denominator of the per-shard busy fractions)
    shard_wall_s: float = 0.0
    #: per-pass rewrite totals: pass name -> {"runs", "rewrites",
    #: "ops_before", "ops_after"} accumulated over every plan compile
    rewrites: dict[str, dict[str, int]] = field(default_factory=dict)

    def record_rewrites(self, reports: tuple[RewriteReport, ...]) -> None:
        """Accumulate one pipeline run's per-pass reports."""
        for report in reports:
            entry = self.rewrites.setdefault(report.pass_name, {
                "runs": 0, "rewrites": 0, "ops_before": 0, "ops_after": 0,
            })
            entry["runs"] += 1
            entry["rewrites"] += report.rewrites
            entry["ops_before"] += report.ops_before
            entry["ops_after"] += report.ops_after

    def as_dict(self) -> dict:
        """Plain-dict snapshot for JSON reports."""
        return {
            "plan_compiles": self.plan_compiles,
            "plan_cache_hits": self.plan_cache_hits,
            "compile_time_s": self.compile_time_s,
            "kernel_compile_time_s": self.kernel_compile_time_s,
            "blocks_executed": self.blocks_executed,
            "rows_executed": self.rows_executed,
            "fused_ops_executed": self.fused_ops_executed,
            "coalesced_exchange_ops": self.coalesced_exchange_ops,
            "mixer_expectation_fused_ops": self.mixer_expectation_fused_ops,
            "shard_exchanges": self.shard_exchanges,
            "exchange_bytes": self.exchange_bytes,
            "shard_busy_fraction": self.shard_busy_fractions(),
            "rewrites": {name: dict(entry)
                         for name, entry in self.rewrites.items()},
        }

    def shard_busy_fractions(self) -> dict[str, float]:
        """Per-shard busy fraction of the parallel-dispatch wall clock.

        Empty for non-sharded backends (no shard dispatch was ever recorded);
        a fraction near 1.0 for every shard means the row pool kept every
        shard busy, a lone hot shard means a skewed slab assignment.
        """
        if self.shard_wall_s <= 0.0:
            return {}
        return {str(s): busy / self.shard_wall_s
                for s, busy in sorted(self.shard_busy_s.items())}


# ---------------------------------------------------------------------------
# The kernel-provider protocol backends implement.
# ---------------------------------------------------------------------------

@runtime_checkable
class KernelProvider(Protocol):
    """The per-backend surface the execution engine drives.

    Every simulator class implements these hooks.  ``block`` is an opaque
    backend object — a host ``(rows, 2^n)`` ndarray, a device-resident
    block, or a list of shard slabs for the sharded family (``sharded``,
    ``gpumpi``, ``cusvmpi``); the engine never looks inside it.
    """

    #: whether the mixer consumes a ping-pong scratch block
    _mixer_needs_scratch: bool
    #: whether :meth:`_apply_phase_mixer_block` is implemented (gates the
    #: FusePhaseIntoMixer rewrite; mixer-specific — e.g. X-mixer only)
    supports_fused_phase_mixer: bool
    #: whether :meth:`_apply_mixer_block_coalesced` is implemented (gates the
    #: CoalesceExchanges rewrite; the sharded family with a direct Alltoall)
    supports_coalesced_exchange: bool

    def _batch_rows(self, remaining: int, memory_budget: float | None) -> int:
        """Rows of the next sub-batch (re-derived as device results accumulate)."""
        ...

    def _stage_block(self, sv0: np.ndarray | None, rows: int) -> Any:
        """Materialize (and, for device backends, upload) a ``rows``-row block."""
        ...

    def _mixer_scratch(self, block: Any) -> Any:
        """Allocate the per-sub-batch ping-pong scratch for the mixer."""
        ...

    def _apply_phase_block(self, block: Any, gammas: np.ndarray,
                           plan: ExecutionPlan) -> None:
        """One phase sweep over the block (``plan.phase_tables`` pre-resolved)."""
        ...

    def _apply_mixer_block(self, block: Any, betas: np.ndarray,
                           n_trotters: int, scratch: Any) -> None:
        """One mixer sweep over the block."""
        ...

    def _apply_mixer_block_coalesced(self, block: Any, betas: np.ndarray,
                                     n_trotters: int, scratch: Any) -> None:
        """Mixer sweep with batch-coalesced global exchanges (optional)."""
        ...

    def _apply_phase_mixer_block(self, block: Any, gammas: np.ndarray,
                                 betas: np.ndarray, op: FusedPhaseMixerOp,
                                 scratch: Any, plan: ExecutionPlan) -> None:
        """Fused phase+mixer sweep of one layer (optional kernel)."""
        ...

    def _block_expectations(self, block: Any, costs: Any) -> np.ndarray:
        """Per-row objective values (float64) against a staged diagonal."""
        ...

    def _block_results(self, block: Any) -> list[Any]:
        """Split a block into per-schedule backend result objects."""
        ...

    def _release_block(self, block: Any) -> None:
        """Free a block after its reduction (device backends)."""
        ...

    def _stage_batch_costs(self, resolved: np.ndarray) -> Any:
        """Stage a resolved float64 diagonal for the whole batch (device hook)."""
        ...

    def _release_batch_costs(self, staged: Any) -> None:
        """Release a diagonal staged by :meth:`_stage_batch_costs`."""
        ...


# ---------------------------------------------------------------------------
# The engine.
# ---------------------------------------------------------------------------

class ExecutionEngine:
    """Compiles and executes :class:`ExecutionPlan`\\ s for one simulator.

    One engine is owned (lazily) by each simulator instance; its plan cache
    lives alongside the simulator's resolved-diagonal and phase-table caches
    and shares their lifetime.  All batched evaluation of every backend
    routes through :meth:`simulate_batch` / :meth:`expectation_batch`.

    The plan cache and the statistics counters are guarded by a per-engine
    lock: the serving layer (:mod:`repro.serve`) drives engines from a thread
    pool, and an unguarded racing first compile would double-compile the plan
    and tear the stats bookkeeping.  Plan compilation is single-flight (the
    lock is held across the compile); block execution itself never holds it.
    """

    def __init__(self, simulator: QAOAFastSimulatorBase) -> None:
        self._sim = simulator
        self._plans: dict[tuple, ExecutionPlan] = {}
        #: guards the plan cache and stats (reentrant: compile records stats)
        self._lock = threading.RLock()
        self.stats = EngineStats()

    # -- plan compilation ----------------------------------------------------
    @property
    def simulator(self) -> QAOAFastSimulatorBase:
        """The simulator this engine drives."""
        return self._sim

    def plan_cache_size(self) -> int:
        """Number of compiled plans currently cached."""
        with self._lock:
            return len(self._plans)

    def clear_plans(self) -> None:
        """Drop every cached plan (the next evaluation recompiles)."""
        with self._lock:
            self._plans.clear()

    # -- shard telemetry (recorded by sharded providers) ---------------------
    def record_shard_exchange(self, messages: int, nbytes: int) -> None:
        """Account one slab exchange: message count and bytes moved."""
        with self._lock:
            self.stats.shard_exchanges += int(messages)
            self.stats.exchange_bytes += int(nbytes)

    def record_shard_dispatch(self, busy_s: Sequence[float],
                              wall_s: float) -> None:
        """Account one parallel shard dispatch: per-shard busy + wall time."""
        with self._lock:
            self.stats.shard_wall_s += float(wall_s)
            busy = self.stats.shard_busy_s
            for shard, seconds in enumerate(busy_s):
                busy[shard] = busy.get(shard, 0.0) + float(seconds)

    def plan(self, p: int, *, n_trotters: int = 1,
             memory_budget: float | None = None,
             reduce: bool = True,
             optimize: str | None = None) -> ExecutionPlan:
        """The cached plan for a depth/budget tuple, compiling on first use.

        The cache key includes the simulator precision and the ``optimize``
        level, so tests can assert that a precision change (a new simulator),
        a ``p``/``n_trotters``/budget change or an optimizer toggle
        recompiles while repeated evaluation at the same shape hits the
        cache.  ``optimize=None`` defaults to the owning simulator's knob;
        with ``"default"`` the rewrite passes
        (:data:`~repro.fur.rewrite.PASSES`) transform the op list at compile
        time and the per-pass reports ride along on the plan.
        """
        if p <= 0:
            raise ValueError("p must be positive")
        if n_trotters < 1:
            raise ValueError("n_trotters must be at least 1")
        optimize = resolve_optimize(self._sim.optimize if optimize is None
                                    else optimize)
        key = _plan_key(p, n_trotters, memory_budget, reduce,
                        self._sim.precision, optimize)
        with self._lock:
            cached = self._plans.get(key)
            if cached is not None:
                self.stats.plan_cache_hits += 1
                return cached
            start = time.perf_counter()
            ops: list[PlanOp] = []
            for layer in range(p):
                ops.append(PhaseOp(layer=layer))
                ops.append(MixerOp(layer=layer, n_trotters=int(n_trotters)))
            if reduce:
                ops.append(ExpectationOp())
            ops = tuple(ops)
            reports: tuple[RewriteReport, ...] = ()
            if optimize != "none":
                ops, reports = run_passes(ops, self._sim)
                self.stats.record_rewrites(reports)
            # Resolving the phase tables here (rather than per sub-batch) makes
            # the first compile pay the one-time unique-value factorization; the
            # simulator-level cache makes subsequent compiles near-free.
            tables = self._sim._engine_phase_tables()
            plan = ExecutionPlan(
                p=int(p),
                mixer=self._sim.mixer_name,
                precision=self._sim.precision,
                n_trotters=int(n_trotters),
                memory_budget=memory_budget,
                reduce=bool(reduce),
                optimize=optimize,
                ops=ops,
                rewrites=reports,
                phase_tables=tables,
                compile_time_s=time.perf_counter() - start,
            )
            self._plans[key] = plan
            self.stats.plan_compiles += 1
            self.stats.compile_time_s += plan.compile_time_s
            return plan

    @staticmethod
    def _batch_kwargs(kwargs: dict) -> int:
        """Extract ``n_trotters`` from the batch kwargs, reject the rest."""
        n_trotters = kwargs.pop("n_trotters", 1)
        if kwargs:
            raise TypeError(f"unexpected keyword arguments: {sorted(kwargs)}")
        if n_trotters < 1:
            raise ValueError("n_trotters must be at least 1")
        return int(n_trotters)

    # -- execution -----------------------------------------------------------
    def _run_ops(self, plan: ExecutionPlan, g_sub: np.ndarray,
                 b_sub: np.ndarray, sv0: np.ndarray | None,
                 staged_costs: Any) -> tuple[Any, np.ndarray | None]:
        """Drive one sub-batch block through the plan's op sequence."""
        sim = self._sim
        block = sim._stage_block(sv0, g_sub.shape[0])
        scratch = sim._mixer_scratch(block) if sim._mixer_needs_scratch else None
        values: np.ndarray | None = None
        fused_ops = coalesced_ops = mixer_expectation_ops = 0
        for op in plan.ops:
            if isinstance(op, PhaseOp):
                sim._apply_phase_block(block, g_sub[:, op.layer], plan)
            elif isinstance(op, FusedPhaseMixerOp):
                sim._apply_phase_mixer_block(block, g_sub[:, op.layer],
                                             b_sub[:, op.layer], op, scratch,
                                             plan)
                fused_ops += 1
                if op.coalesce:
                    coalesced_ops += 1
            elif isinstance(op, MixerOp):
                betas = b_sub[:, op.layer]
                if op.coalesce:
                    sim._apply_mixer_block_coalesced(block, betas,
                                                     op.n_trotters, scratch)
                    coalesced_ops += 1
                else:
                    sim._apply_mixer_block(block, betas, op.n_trotters,
                                           scratch)
            elif isinstance(op, FusedMixerExpectationOp):
                values = sim._apply_mixer_expectation_block(
                    block, g_sub[:, op.layer] if op.with_phase else None,
                    b_sub[:, op.layer], op, scratch, staged_costs, plan)
                mixer_expectation_ops += 1
                if op.with_phase:
                    fused_ops += 1
            else:  # ExpectationOp
                values = sim._block_expectations(block, staged_costs)
        with self._lock:
            self.stats.fused_ops_executed += fused_ops
            self.stats.coalesced_exchange_ops += coalesced_ops
            self.stats.mixer_expectation_fused_ops += mixer_expectation_ops
            self.stats.blocks_executed += 1
            self.stats.rows_executed += int(g_sub.shape[0])
        return block, values

    def _sub_batches(self, batch: int, memory_budget: float | None):
        """Yield ``(r0, r1)`` sub-batch bounds honouring the memory budget.

        The provider's :meth:`~KernelProvider._batch_rows` is consulted once
        per sub-batch with the *remaining* schedule count, so device backends
        whose per-row results stay resident can shrink later sub-batches as
        memory fills.
        """
        r0 = 0
        while r0 < batch:
            rows = self._sim._batch_rows(batch - r0, memory_budget)
            yield r0, min(r0 + rows, batch)
            r0 = min(r0 + rows, batch)

    def simulate_batch(self, gammas_batch, betas_batch,
                       sv0: np.ndarray | None = None, *,
                       memory_budget: float | None = None,
                       optimize: str | None = None, **kwargs: Any) -> list[Any]:
        """Evolve a batch of schedules; one backend result object per schedule.

        Requires a ``statevector``-capable backend: an ``expectation-only``
        family (e.g. tensornet) raises
        :class:`~repro.fur.capabilities.UnsupportedCapabilityError` up front
        instead of failing deep inside the block walk.
        """
        require_capability(self._sim, "statevector")
        g, b = validate_angle_batches(gammas_batch, betas_batch)
        n_trotters = self._batch_kwargs(kwargs)
        plan = self.plan(g.shape[1], n_trotters=n_trotters,
                         memory_budget=memory_budget, reduce=False,
                         optimize=optimize)
        results: list[Any] = []
        for r0, r1 in self._sub_batches(g.shape[0], memory_budget):
            block, _ = self._run_ops(plan, g[r0:r1], b[r0:r1], sv0, None)
            results.extend(self._sim._block_results(block))
        return results

    def expectation_batch(self, gammas_batch, betas_batch,
                          costs: np.ndarray | None = None,
                          sv0: np.ndarray | None = None, *,
                          memory_budget: float | None = None,
                          optimize: str | None = None, **kwargs: Any) -> np.ndarray:
        """Objective values for a batch of schedules, as a length-``B`` array.

        The diagonal is resolved to float64 exactly once for the whole batch
        (the engine-wide accumulation policy); evolved blocks are released
        after their reduction, so peak memory follows the budget, not the
        batch size.
        """
        require_capability(self._sim, "expectation")
        g, b = validate_angle_batches(gammas_batch, betas_batch)
        resolved_costs = self._sim._resolve_costs(costs)
        n_trotters = self._batch_kwargs(kwargs)
        plan = self.plan(g.shape[1], n_trotters=n_trotters,
                         memory_budget=memory_budget, reduce=True,
                         optimize=optimize)
        out = np.empty(g.shape[0], dtype=np.float64)
        staged = self._sim._stage_batch_costs(resolved_costs)
        try:
            for r0, r1 in self._sub_batches(g.shape[0], memory_budget):
                block, values = self._run_ops(plan, g[r0:r1], b[r0:r1],
                                              sv0, staged)
                try:
                    out[r0:r1] = values
                finally:
                    self._sim._release_block(block)
        finally:
            self._sim._release_batch_costs(staged)
        return out
