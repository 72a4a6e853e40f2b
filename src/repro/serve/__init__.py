"""repro.serve — async QAOA serving with request coalescing and micro-batching.

The serving layer sits on top of the execution engine and converts
*concurrency into batch size*: concurrent ``submit`` calls are routed by
``(problem fingerprint, backend, mixer, precision, optimize, p)``, requests
sharing a key accumulate for a short window and flush as one fused
``get_expectation_batch`` call, and exact-duplicate schedules are evaluated
once with the value fanned out to every waiter.  Admission control (the
state-size byte guard plus a queue bound with shed/wait overload policies)
keeps the service standing under the traffic it is built for, and a per-key
simulator LRU keeps diagonals, phase tables and compiled plans warm across
batches.

Quickstart (synchronous)::

    import repro.serve

    with repro.serve(backend="python", window_ms=2.0) as svc:
        value = svc.submit_sync(n_qubits, terms, gammas, betas)
        print(svc.stats.as_dict())

Quickstart (asyncio)::

    async with repro.serve.QAOAService() as svc:
        values = await asyncio.gather(*[
            svc.submit(n_qubits, terms, g, b) for g, b in schedules
        ])

The module itself is callable — ``repro.serve(**kwargs)`` constructs a
:class:`QAOAService` — mirroring the ``repro.simulator(...)`` facade.
``python -m repro.serve --describe`` prints the operational surface.
"""

from __future__ import annotations

import sys
import types
from typing import Any

from .admission import (
    AdmissionController,
    AdmissionError,
    ServeError,
    ServiceClosedError,
    ServiceOverloadedError,
)
from .batcher import KeyBatcher, PendingRequest, RouteKey
from .service import (
    DEFAULT_MAX_BATCH,
    DEFAULT_MAX_LIVE_SIMULATORS,
    DEFAULT_MAX_PENDING,
    DEFAULT_WINDOW_MS,
    QAOAService,
)
from .stats import LatencyRecorder, ServiceStats
from .sync import EventLoopThread

__all__ = [
    "QAOAService",
    "ServedQAOAObjective",
    "ServiceStats",
    "LatencyRecorder",
    "RouteKey",
    "KeyBatcher",
    "PendingRequest",
    "AdmissionController",
    "ServeError",
    "AdmissionError",
    "ServiceOverloadedError",
    "ServiceClosedError",
    "EventLoopThread",
    "DEFAULT_WINDOW_MS",
    "DEFAULT_MAX_BATCH",
    "DEFAULT_MAX_PENDING",
    "DEFAULT_MAX_LIVE_SIMULATORS",
]


def __getattr__(name: str) -> Any:
    # ServedQAOAObjective pulls in repro.qaoa (and with it scipy); load it
    # lazily so `import repro` / `import repro.serve` stay lightweight.
    if name == "ServedQAOAObjective":
        from .objective import ServedQAOAObjective

        return ServedQAOAObjective
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


class _CallableServeModule(types.ModuleType):
    """Module subclass that makes ``repro.serve(...)`` construct a service."""

    def __call__(self, **kwargs: Any) -> QAOAService:
        return QAOAService(**kwargs)


sys.modules[__name__].__class__ = _CallableServeModule
