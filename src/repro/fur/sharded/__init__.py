"""In-process sharded ("multidevice") QAOA backend.

Splits the state into ``2^g`` global-qubit slabs inside one process — a
persistent thread pool runs the jit-tier kernels on each slab, and mixer
sweeps touching a global qubit become coalesced pairwise slab swaps.  See :mod:`repro.fur.sharded.qaoa_simulator`.
"""

from __future__ import annotations

from .layout import (
    NUM_SHARDS_ENV,
    ShardLayout,
    resolve_n_shards,
    resolve_n_workers,
    sharded_state_bytes,
)
from .qaoa_simulator import (
    QAOAFURXSimulatorSharded,
    QAOAFURXYCompleteSimulatorSharded,
    QAOAFURXYRingSimulatorSharded,
    ShardedStateVector,
)

__all__ = [
    "NUM_SHARDS_ENV",
    "ShardLayout",
    "ShardedStateVector",
    "QAOAFURXSimulatorSharded",
    "QAOAFURXYRingSimulatorSharded",
    "QAOAFURXYCompleteSimulatorSharded",
    "resolve_n_shards",
    "resolve_n_workers",
    "sharded_state_bytes",
    "shard_report",
]


def shard_report() -> str:
    """One-line runtime summary for ``registry.describe()``.

    Reports the shard count and worker budget the backend would pick on
    this machine with no per-simulator overrides.
    """
    shards = resolve_n_shards()
    workers = resolve_n_workers(shards)
    return f"shards={shards} workers={workers}"
