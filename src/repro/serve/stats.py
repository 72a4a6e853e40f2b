"""Serving-layer metrics: counters, batch-size histogram, latency percentiles.

The serving loop's whole purpose is to convert concurrency into batch size,
so its effectiveness must be observable: how many submissions were admitted,
how many exact duplicates were coalesced onto an already-scheduled
evaluation, how large the flushed micro-batches actually were, and what the
requests paid in queue wait versus engine execution.  :class:`ServiceStats`
is the one mutable object every :class:`~repro.serve.QAOAService` keeps for
that; its :meth:`~ServiceStats.as_dict` snapshot is what
``benchmarks/bench_serving.py`` publishes into ``BENCH_serving.json`` and
``python -m repro.serve --describe`` prints.

All recorders are thread-safe: counters are bumped from the event loop
(admission, shedding) and from the executor threads that run the engine
batches (execution latency), concurrently.
"""

from __future__ import annotations

import threading
from collections import Counter, deque
from collections.abc import Iterable

import numpy as np

__all__ = ["LatencyRecorder", "ServiceStats", "DEFAULT_MAX_SAMPLES",
           "PERCENTILES"]

#: Samples kept per latency recorder; older samples fall off, so long-running
#: services report percentiles over a sliding window of recent requests.
DEFAULT_MAX_SAMPLES = 65536

#: The percentiles every latency snapshot reports.
PERCENTILES = (50, 95, 99)


class LatencyRecorder:
    """Thread-safe bounded latency sample store with percentile snapshots."""

    def __init__(self, max_samples: int = DEFAULT_MAX_SAMPLES) -> None:
        if max_samples <= 0:
            raise ValueError("max_samples must be positive")
        self._samples: deque[float] = deque(maxlen=int(max_samples))
        self._lock = threading.Lock()
        self._count = 0
        self._total = 0.0

    def record(self, seconds: float) -> None:
        """Record one latency sample."""
        with self._lock:
            self._samples.append(float(seconds))
            self._count += 1
            self._total += float(seconds)

    def record_many(self, seconds: Iterable[float]) -> None:
        """Record several samples under one lock acquisition."""
        with self._lock:
            for value in seconds:
                self._samples.append(float(value))
                self._count += 1
                self._total += float(value)

    @property
    def count(self) -> int:
        """Total samples ever recorded (including ones past the window)."""
        return self._count

    @property
    def total_seconds(self) -> float:
        """Sum of every sample ever recorded."""
        return self._total

    def percentiles(self, qs: Iterable[float] = PERCENTILES) -> dict[str, float | None]:
        """``{"p50": ..., "p95": ..., "p99": ...}`` over the retained window.

        Values are ``None`` until at least one sample was recorded, so empty
        snapshots stay JSON-serializable without inventing a zero latency.
        """
        qs = tuple(qs)
        with self._lock:
            arr = np.asarray(self._samples, dtype=np.float64)
        if arr.size == 0:
            return {f"p{q:g}": None for q in qs}
        values = np.percentile(arr, qs)
        return {f"p{q:g}": float(v) for q, v in zip(qs, values)}

    def as_dict(self) -> dict:
        """JSON-serializable snapshot: count, mean and percentiles (seconds)."""
        with self._lock:
            count, total = self._count, self._total
        out = {"count": count, "mean_s": (total / count) if count else None}
        out.update({f"{name}_s": value
                    for name, value in self.percentiles().items()})
        return out


class ServiceStats:
    """Live counters for one :class:`~repro.serve.QAOAService`.

    The request-accounting identity (pinned by the tests)::

        requests  = completed + failed + in-flight
        completed = evaluated_rows + coalesced_hits   (per flushed batch)

    ``shed`` and ``rejected`` count submissions that never became requests:
    shed ones hit the queue bound under the ``"shed"`` overload policy,
    rejected ones can never be served: the state-size admission guard, or
    anything else routing refuses (malformed angles, an unknown or retired
    backend, a mixer or precision the backend lacks).
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        #: submissions admitted past admission control and the queue bound
        self.requests = 0
        #: requests whose future resolved with a value
        self.completed = 0
        #: requests whose micro-batch raised (the exception fans out)
        self.failed = 0
        #: submissions dropped by the ``"shed"`` overload policy
        self.shed = 0
        #: submissions refused at routing (unservable)
        self.rejected = 0
        #: requests that shared another request's evaluation (exact duplicate)
        self.coalesced_hits = 0
        #: micro-batches flushed to the execution engine
        self.batches = 0
        #: unique schedule rows actually evaluated by the engine
        self.evaluated_rows = 0
        #: flushed batch size -> number of batches of that size
        self.batch_sizes: Counter[int] = Counter()
        #: per-request wait between enqueue and its batch's execution start
        self.queue_wait = LatencyRecorder()
        #: per-batch engine execution latency
        self.execution = LatencyRecorder()
        #: simulators constructed / evicted by the per-key LRU lifecycle
        self.simulators_constructed = 0
        self.simulators_evicted = 0
        #: slab-exchange messages / bytes moved by sharded-backend routes
        #: (zero on monolithic-state backends; harvested per flush from the
        #: executing simulator's engine stats)
        self.shard_exchanges = 0
        self.exchange_bytes = 0

    # -- recording hooks (service / batcher internals) -----------------------
    def record_admitted(self) -> None:
        with self._lock:
            self.requests += 1

    def record_shed(self) -> None:
        with self._lock:
            self.shed += 1

    def record_rejected(self) -> None:
        with self._lock:
            self.rejected += 1

    def record_batch(self, size: int, unique: int,
                     queue_waits: Iterable[float],
                     execution_s: float) -> None:
        """Account one successfully flushed micro-batch.

        ``size`` is the number of requests the flush served, ``unique`` the
        number of distinct parameter rows handed to the engine — their
        difference is the coalescing win.
        """
        if not 0 < unique <= size:
            raise ValueError(f"invalid batch accounting: size={size}, unique={unique}")
        with self._lock:
            self.batches += 1
            self.batch_sizes[int(size)] += 1
            self.coalesced_hits += int(size) - int(unique)
            self.evaluated_rows += int(unique)
            self.completed += int(size)
        self.queue_wait.record_many(queue_waits)
        self.execution.record(execution_s)

    def record_batch_failure(self, size: int) -> None:
        """Account one micro-batch whose execution raised (all requests fail)."""
        with self._lock:
            self.failed += int(size)

    def record_simulator_constructed(self) -> None:
        with self._lock:
            self.simulators_constructed += 1

    def record_simulator_evicted(self) -> None:
        with self._lock:
            self.simulators_evicted += 1

    def record_shard_traffic(self, exchanges: int, nbytes: int) -> None:
        """Account one flush's slab-exchange traffic (sharded routes)."""
        if exchanges or nbytes:
            with self._lock:
                self.shard_exchanges += int(exchanges)
                self.exchange_bytes += int(nbytes)

    # -- snapshots -----------------------------------------------------------
    def batch_size_histogram(self) -> dict[int, int]:
        """``{batch size: count}`` of every flushed micro-batch, sorted."""
        with self._lock:
            return dict(sorted(self.batch_sizes.items()))

    def as_dict(self) -> dict:
        """JSON-serializable snapshot of every counter and latency summary."""
        with self._lock:
            counters = {
                "requests": self.requests,
                "completed": self.completed,
                "failed": self.failed,
                "shed": self.shed,
                "rejected": self.rejected,
                "coalesced_hits": self.coalesced_hits,
                "batches": self.batches,
                "evaluated_rows": self.evaluated_rows,
                "batch_size_histogram": {str(k): v for k, v
                                         in sorted(self.batch_sizes.items())},
                "simulators_constructed": self.simulators_constructed,
                "simulators_evicted": self.simulators_evicted,
                "shard_exchanges": self.shard_exchanges,
                "exchange_bytes": self.exchange_bytes,
            }
        counters["queue_wait"] = self.queue_wait.as_dict()
        counters["execution"] = self.execution.as_dict()
        return counters
