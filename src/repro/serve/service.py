"""`QAOAService` — the asyncio serving facade over the execution engine.

This is ROADMAP open item 3, the subsystem that converts concurrency into
batch size.  Millions of users hammering the same problem families means
many concurrent ``get_expectation`` calls with identical problem
fingerprints; before this module every call paid its own trip through the
engine.  The service instead:

1. **routes** each ``submit(n_qubits, terms, γ, β)`` to a
   :class:`~repro.serve.batcher.RouteKey` — ``(problem fingerprint,
   backend, mixer, precision, optimize, p)``;
2. **micro-batches** per key: requests accumulate for ``window_ms`` (or
   until ``max_batch``), then flush as *one* fused
   ``get_expectation_batch`` call on a shared simulator;
3. **coalesces** exact duplicates inside a flush — identical ``(γ, β)``
   rows are evaluated once and fan out to every waiting future;
4. applies **admission control** — the byte-based state-size guard rejects
   unservable requests up front, a queue bound sheds (or backpressures)
   overload — and keeps a **per-key simulator LRU**, so the process-wide
   diagonal cache and the per-simulator plan/phase-table caches are reused
   across batches;
5. exports a **metrics surface** (:class:`~repro.serve.stats.ServiceStats`)
   with request/coalescing counters, the batch-size histogram and
   queue-wait/execution latency percentiles.

The service runs in one of two modes: bound to the caller's running loop
(``async with QAOAService(...) as svc: await svc.submit(...)``) or, for
synchronous callers, driving a private background event-loop thread
(``with QAOAService(...) as svc: svc.submit_sync(...)``) — see
:mod:`repro.serve.sync`.  Engine execution always happens on a thread pool,
which is why the diagonal/plan caches underneath are thread-safe
(single-flight) rather than merely loop-confined.
"""

from __future__ import annotations

import asyncio
import dataclasses
import threading
import time
from collections import OrderedDict
from collections.abc import Iterable, Sequence
from concurrent.futures import Future as SyncFuture, ThreadPoolExecutor
from typing import Any

import numpy as np

from ..fur.base import QAOAFastSimulatorBase, validate_angles
from ..fur.cache import problem_fingerprint
from ..fur.precision import resolve_precision
from ..fur.registry import registry, simulator as construct_simulator
from ..fur.rewrite import resolve_optimize
from ..problems.terms import validate_terms
from .admission import (
    AdmissionController,
    AdmissionError,
    ServiceClosedError,
    ServiceOverloadedError,
)
from .batcher import KeyBatcher, PendingRequest, RouteKey
from .stats import ServiceStats
from .sync import EventLoopThread

__all__ = [
    "QAOAService",
    "DEFAULT_WINDOW_MS",
    "DEFAULT_MAX_BATCH",
    "DEFAULT_MAX_PENDING",
    "DEFAULT_MAX_LIVE_SIMULATORS",
]

#: Default micro-batching window: how long the first request of a flush
#: waits for company before the batch executes anyway.
DEFAULT_WINDOW_MS = 2.0

#: Default per-flush request bound (further clamped per key to one engine
#: sub-batch under the memory budget — see AdmissionController).
DEFAULT_MAX_BATCH = 64

#: Default in-flight request bound across all routing keys.
DEFAULT_MAX_PENDING = 1024

#: Default number of live simulators the per-key LRU keeps warm.
DEFAULT_MAX_LIVE_SIMULATORS = 8


class QAOAService:
    """Async QAOA serving facade with request coalescing and micro-batching.

    Parameters
    ----------
    backend, mixer, precision, optimize:
        Default routing for submissions that don't override them per call.
        ``backend`` may be ``"auto"`` — it is resolved to a concrete
        registry name at submit time, so ``"auto"`` and the backend it
        resolves to share routing keys (and hence batches).
    window_ms:
        Micro-batching window in milliseconds.  ``0`` disables the wait —
        a flush takes whatever is queued when the loop gets to it.
    max_batch:
        Upper bound on requests per flush (clamped per key so one flush is
        at most one engine sub-batch under ``memory_budget``).
    max_pending:
        In-flight request bound across all keys (admission queue bound).
    overload:
        ``"shed"`` (default): submissions past ``max_pending`` raise
        :class:`~repro.serve.admission.ServiceOverloadedError`.
        ``"wait"``: submitters are suspended until a slot frees
        (backpressure).
    max_live_simulators:
        Size of the per-key simulator LRU.  Live simulators keep their
        compiled plans, resolved diagonals and phase tables warm across
        batches; evicted ones are reconstructed on demand (their diagonal
        still comes from the process-wide cache).
    memory_budget:
        Fused-engine block budget in bytes (``None``: engine default).
    max_qubits:
        Optional qubit ceiling, tighter than the byte-based state guard.
    max_workers:
        Thread-pool size for engine execution (``None``: executor default).
    n_shards:
        Shard count forwarded to routes on the in-process ``sharded``
        backend (``None``: that backend's own auto/env resolution).  Also
        drives the per-shard admission accounting, which raises the
        effective qubit ceiling above the single-array byte guard.
    """

    def __init__(self, *, backend: str = "auto", mixer: str = "x",
                 precision: str | None = None, optimize: str | None = None,
                 window_ms: float = DEFAULT_WINDOW_MS,
                 max_batch: int = DEFAULT_MAX_BATCH,
                 max_pending: int = DEFAULT_MAX_PENDING,
                 overload: str = "shed",
                 max_live_simulators: int = DEFAULT_MAX_LIVE_SIMULATORS,
                 memory_budget: float | None = None,
                 max_qubits: int | None = None,
                 max_workers: int | None = None,
                 n_shards: int | None = None) -> None:
        if window_ms < 0:
            raise ValueError("window_ms must be non-negative")
        if max_batch < 1:
            raise ValueError("max_batch must be at least 1")
        if max_live_simulators < 1:
            raise ValueError("max_live_simulators must be at least 1")
        self._default_backend = backend
        self._default_mixer = mixer
        self._default_precision = resolve_precision(precision).name
        self._default_optimize = resolve_optimize(optimize or "default")
        self._window_s = float(window_ms) / 1e3
        self._max_batch = int(max_batch)
        self._memory_budget = memory_budget
        self._n_shards = None if n_shards is None else int(n_shards)
        self._admission = AdmissionController(
            max_pending=max_pending, overload=overload, max_qubits=max_qubits,
            memory_budget=memory_budget)
        self._stats = ServiceStats()
        #: routing key -> micro-batcher (event-loop confined)
        self._batchers: dict[RouteKey, KeyBatcher] = {}
        #: problem fingerprint -> normalized terms (for simulator construction)
        self._problems: dict[str, list] = {}
        #: per-key simulator LRU (accessed from executor threads)
        self._simulators: OrderedDict[RouteKey, QAOAFastSimulatorBase] = OrderedDict()
        self._max_live = int(max_live_simulators)
        self._sim_lock = threading.Lock()
        self._executor = ThreadPoolExecutor(max_workers=max_workers,
                                            thread_name_prefix="repro-serve")
        #: the event loop the async state is bound to (set on first use)
        self._loop: asyncio.AbstractEventLoop | None = None
        #: private background loop thread (sync mode only)
        self._loop_thread: EventLoopThread | None = None
        self._pending = 0
        self._pending_cv: asyncio.Condition | None = None
        self._closed = False

    # -- configuration snapshot ---------------------------------------------
    def config(self) -> dict:
        """The service's knob settings as a JSON-serializable dict."""
        return {
            "backend": self._default_backend,
            "mixer": self._default_mixer,
            "precision": self._default_precision,
            "optimize": self._default_optimize,
            "window_ms": self._window_s * 1e3,
            "max_batch": self._max_batch,
            "max_pending": self._admission.max_pending,
            "overload": self._admission.overload,
            "max_live_simulators": self._max_live,
            "memory_budget": self._memory_budget,
            "max_qubits": self._admission.max_qubits,
            "n_shards": self._n_shards,
        }

    @property
    def stats(self) -> ServiceStats:
        """The live metrics surface (coalescing counters, latencies, ...)."""
        return self._stats

    @property
    def closed(self) -> bool:
        """Whether the service has been closed."""
        return self._closed

    @property
    def pending(self) -> int:
        """Requests currently in flight (admitted, future unresolved)."""
        return self._pending

    def live_simulators(self) -> dict[RouteKey, QAOAFastSimulatorBase]:
        """Snapshot of the per-key simulator LRU (most recently used last)."""
        with self._sim_lock:
            return dict(self._simulators)

    def describe(self) -> dict:
        """Operational snapshot: config, backend registry, stats, live keys.

        This is what ``python -m repro.serve --describe`` prints; the per-key
        entries include each live simulator's engine statistics, so the
        effect of plan caching and fused batching is visible per route.
        """
        keys = []
        for key, sim in self.live_simulators().items():
            entry = dataclasses.asdict(key)
            entry["engine"] = sim.engine.stats.as_dict()
            keys.append(entry)
        return {
            "config": self.config(),
            "backends": registry.describe(),
            "stats": self._stats.as_dict(),
            "live_simulators": keys,
        }

    # -- routing -------------------------------------------------------------
    def _route_shards(self, backend_name: str, n_qubits: int) -> int:
        """Shard count admission should account for on one route.

        1 for every monolithic-state backend; for the ``sharded`` backend,
        the service's ``n_shards`` knob or (when unset) the backend's own
        auto/env resolution for this problem size.  A knob the backend would
        reject (not a power of two, too many global qubits for ``n_qubits``)
        surfaces as an :class:`AdmissionError` — construction would fail
        identically later, so reject up front.
        """
        if backend_name != "sharded" or n_qubits <= 0:
            return 1
        from ..fur.sharded.layout import resolve_n_shards

        try:
            return resolve_n_shards(n_qubits, self._n_shards)
        except ValueError as exc:
            raise AdmissionError(str(exc)) from None

    def _route(self, n_qubits: int,
               terms: Iterable[tuple[float, Iterable[int]]],
               gammas: Sequence[float], betas: Sequence[float],
               backend: str | None, mixer: str | None,
               precision: str | None, optimize: str | None
               ) -> tuple[RouteKey, np.ndarray, np.ndarray]:
        """Validate a submission and compute its routing key (synchronous).

        Raises before any queueing happens for requests that can never be
        served: :class:`~repro.serve.admission.AdmissionError` from the
        state-size guard, ``ValueError`` for malformed angles or a backend,
        mixer or precision the registry refuses.
        """
        g, b = validate_angles(gammas, betas)
        mixer = mixer or self._default_mixer
        precision_name = (self._default_precision if precision is None
                          else resolve_precision(precision).name)
        optimize_name = (self._default_optimize if optimize is None
                         else resolve_optimize(optimize))
        # Resolve "auto" (and aliases) to the canonical registry name so
        # equivalent spellings share routing keys — and hence batches.
        # Resolution happens *before* the byte-guard check: the admission
        # accounting is per-shard on sharded routes, so the guard needs to
        # know which backend will actually hold the state.
        spec = registry.resolve(backend or self._default_backend, mixer=mixer,
                                precision=precision_name)
        self._admission.check(n_qubits, precision_name,
                              n_shards=self._route_shards(spec.name, n_qubits))
        normalized = validate_terms(terms, n_qubits)
        fingerprint = problem_fingerprint(normalized, n_qubits)
        self._problems.setdefault(fingerprint, normalized)
        key = RouteKey(fingerprint=fingerprint, n_qubits=int(n_qubits),
                       backend=spec.name, mixer=mixer,
                       precision=precision_name, optimize=optimize_name,
                       p=int(g.shape[0]))
        return key, g, b

    # -- async submission path ----------------------------------------------
    def _ensure_loop_state(self) -> asyncio.AbstractEventLoop:
        loop = asyncio.get_running_loop()
        if self._loop is None:
            self._loop = loop
            self._pending_cv = asyncio.Condition()
        elif loop is not self._loop:
            raise RuntimeError(
                "QAOAService is bound to a different event loop; use one "
                "service per loop (or the sync facade from other threads)"
            )
        return loop

    def _batcher_for(self, key: RouteKey) -> KeyBatcher:
        batcher = self._batchers.get(key)
        if batcher is None:
            max_batch = self._admission.effective_max_batch(
                key.n_qubits, key.precision, self._max_batch)
            batcher = KeyBatcher(key, self._execute, window_s=self._window_s,
                                 max_batch=max_batch, stats=self._stats)
            self._batchers[key] = batcher
        return batcher

    async def submit(self, n_qubits: int,
                     terms: Iterable[tuple[float, Iterable[int]]],
                     gammas: Sequence[float], betas: Sequence[float], *,
                     backend: str | None = None, mixer: str | None = None,
                     precision: str | None = None,
                     optimize: str | None = None) -> float:
        """Submit one expectation-value request; awaits the served value.

        The request is routed by ``(problem fingerprint, backend, mixer,
        precision, optimize, p)`` and rides that key's next micro-batch;
        an exact duplicate of an already-queued request shares its
        evaluation.  Raises
        :class:`~repro.serve.admission.AdmissionError` or ``ValueError``
        (unservable; see :meth:`_route`, counted in ``stats.rejected``),
        :class:`~repro.serve.admission.ServiceOverloadedError` (shed at the
        queue bound) or
        :class:`~repro.serve.admission.ServiceClosedError`.
        """
        if self._closed:
            raise ServiceClosedError("the service is closed")
        loop = self._ensure_loop_state()
        try:
            key, g, b = self._route(n_qubits, terms, gammas, betas,
                                    backend, mixer, precision, optimize)
        except Exception:
            self._stats.record_rejected()
            raise
        if self._pending >= self._admission.max_pending:
            if self._admission.overload == "shed":
                self._stats.record_shed()
                raise ServiceOverloadedError(
                    f"{self._pending} requests already pending "
                    f"(max_pending={self._admission.max_pending}); shedding"
                )
            async with self._pending_cv:
                while self._pending >= self._admission.max_pending:
                    await self._pending_cv.wait()
                    if self._closed:
                        raise ServiceClosedError("the service closed while waiting")
        self._pending += 1
        self._stats.record_admitted()
        request = PendingRequest(gammas=tuple(map(float, g)),
                                 betas=tuple(map(float, b)),
                                 future=loop.create_future())
        self._batcher_for(key).enqueue(request)
        try:
            return await request.future
        finally:
            self._pending -= 1
            if self._admission.overload == "wait" and self._pending_cv is not None:
                async with self._pending_cv:
                    self._pending_cv.notify()

    # -- execution (worker threads) ------------------------------------------
    async def _execute(self, key: RouteKey, gammas: np.ndarray,
                       betas: np.ndarray) -> np.ndarray:
        loop = asyncio.get_running_loop()
        return await loop.run_in_executor(self._executor, self._evaluate,
                                          key, gammas, betas)

    def _evaluate(self, key: RouteKey, gammas: np.ndarray,
                  betas: np.ndarray) -> np.ndarray:
        """One fused engine batch for a flush (runs on the thread pool)."""
        sim = self._simulator_for(key)
        engine_stats = sim.engine.stats
        before = (engine_stats.shard_exchanges, engine_stats.exchange_bytes)
        result = sim.get_expectation_batch(gammas, betas,
                                           memory_budget=self._memory_budget,
                                           optimize=key.optimize)
        # Shard telemetry: fold this flush's slab-exchange traffic into the
        # service counters (zero on monolithic-state backends).
        self._stats.record_shard_traffic(
            engine_stats.shard_exchanges - before[0],
            engine_stats.exchange_bytes - before[1])
        return result

    def _simulator_for(self, key: RouteKey) -> QAOAFastSimulatorBase:
        """The LRU-cached simulator for a routing key, constructing on miss.

        Construction happens outside the LRU lock (the diagonal cache
        underneath is single-flight, so concurrent construction for the same
        problem never duplicates the precomputation), insertion and eviction
        under it.
        """
        with self._sim_lock:
            sim = self._simulators.get(key)
            if sim is not None:
                self._simulators.move_to_end(key)
                return sim
        terms = self._problems[key.fingerprint]
        extra: dict[str, Any] = {}
        if key.backend == "sharded" and self._n_shards is not None:
            extra["n_shards"] = self._n_shards
        sim = construct_simulator(key.n_qubits, terms=terms,
                                  backend=key.backend, mixer=key.mixer,
                                  precision=key.precision,
                                  optimize=key.optimize, **extra)
        with self._sim_lock:
            existing = self._simulators.get(key)
            if existing is not None:  # racing flush won; keep its simulator
                return existing
            self._simulators[key] = sim
            self._stats.record_simulator_constructed()
            while len(self._simulators) > self._max_live:
                self._simulators.popitem(last=False)
                self._stats.record_simulator_evicted()
        return sim

    # -- async lifecycle ------------------------------------------------------
    async def aclose(self) -> None:
        """Close the service: drain in-flight flushes, then free resources.

        Queued requests are still served (their flush tasks run to
        completion); new submissions raise
        :class:`~repro.serve.admission.ServiceClosedError`.
        """
        if self._closed:
            return
        self._closed = True
        if self._pending_cv is not None:
            # Wake "wait"-policy submitters so they observe the closure.
            async with self._pending_cv:
                self._pending_cv.notify_all()
        tasks = [task for batcher in self._batchers.values()
                 if (task := batcher.drain_task()) is not None
                 and not task.done()]
        if tasks:
            await asyncio.gather(*tasks, return_exceptions=True)
        self._executor.shutdown(wait=True)
        with self._sim_lock:
            self._simulators.clear()

    async def __aenter__(self) -> QAOAService:
        self._ensure_loop_state()
        return self

    async def __aexit__(self, *exc_info: Any) -> None:
        await self.aclose()

    # -- synchronous facade ---------------------------------------------------
    def start(self) -> QAOAService:
        """Start the private background event loop (sync mode).

        A no-op if the service is already bound to a loop.  Use the context
        manager (``with QAOAService(...) as svc:``) for automatic cleanup.
        """
        if self._closed:
            raise ServiceClosedError("the service is closed")
        if self._loop is not None:
            return self
        loop_thread = EventLoopThread().start()

        async def _bind() -> None:
            self._ensure_loop_state()

        loop_thread.run(_bind()).result()
        self._loop_thread = loop_thread
        return self

    def close(self, timeout: float | None = None) -> None:
        """Synchronous close: drains flushes, stops the background loop."""
        if self._loop_thread is not None:
            self._loop_thread.run(self.aclose()).result(timeout)
            self._loop_thread.stop()
            self._loop_thread = None
        else:
            # Never started (or async-bound but driven synchronously after
            # its loop ended): just mark closed and free the executor.
            self._closed = True
            self._executor.shutdown(wait=True)

    def __enter__(self) -> QAOAService:
        return self.start()

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def submit_future(self, n_qubits: int,
                      terms: Iterable[tuple[float, Iterable[int]]],
                      gammas: Sequence[float], betas: Sequence[float],
                      **kwargs: Any) -> SyncFuture:
        """Submit from synchronous code; returns a concurrent.futures.Future.

        Auto-starts the background loop on first use when the service is not
        already bound to one.  This is the natural way for a synchronous
        caller to put many requests in flight at once (and therefore into
        one micro-batch): submit them all, then collect the results.
        """
        if self._closed:
            raise ServiceClosedError("the service is closed")
        if self._loop is None:
            self.start()
        coro = self.submit(n_qubits, terms, gammas, betas, **kwargs)
        if self._loop_thread is not None:
            return self._loop_thread.run(coro)
        return asyncio.run_coroutine_threadsafe(coro, self._loop)

    def submit_sync(self, n_qubits: int,
                    terms: Iterable[tuple[float, Iterable[int]]],
                    gammas: Sequence[float], betas: Sequence[float], *,
                    timeout: float | None = None, **kwargs: Any) -> float:
        """Blocking submit for non-async callers (one request at a time).

        Must not be called from the service's own event-loop thread (it
        would deadlock waiting on itself); async callers use
        :meth:`submit`.
        """
        return self.submit_future(n_qubits, terms, gammas, betas,
                                  **kwargs).result(timeout)

    # -- objective integration -----------------------------------------------
    def objective(self, n_qubits: int, p: int,
                  terms: Iterable[tuple[float, Iterable[int]]],
                  **kwargs: Any):
        """A :class:`~repro.serve.objective.ServedQAOAObjective` over this
        service — a drop-in ``f(theta) -> float`` whose evaluations ride the
        coalescing/micro-batching path (concurrent optimizers over the same
        problem share evaluations)."""
        from .objective import ServedQAOAObjective  # deferred: pulls repro.qaoa

        return ServedQAOAObjective(service=self, n_qubits=int(n_qubits),
                                   p=int(p), terms=list(terms), **kwargs)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "closed" if self._closed else (
            "running" if self._loop is not None else "idle")
        return (f"QAOAService(backend={self._default_backend!r}, "
                f"window_ms={self._window_s * 1e3:g}, "
                f"max_batch={self._max_batch}, {state})")
