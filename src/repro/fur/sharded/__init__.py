"""In-process sharded ("multidevice") QAOA backend.

Splits the state into ``2^g`` global-qubit slabs inside one process — the
jit-tier kernels run on each slab as (shard, row-chunk) tasks on the jit
tier's row pool, and mixer sweeps touching a global qubit become coalesced
pairwise slab swaps.  See :mod:`repro.fur.sharded.qaoa_simulator`.
"""

from __future__ import annotations

from ..jit.kernels import pool_threads
from .layout import (
    NUM_SHARDS_ENV,
    ShardLayout,
    resolve_n_shards,
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
    "sharded_state_bytes",
    "shard_report",
]


def shard_report() -> str:
    """One-line runtime summary for ``registry.describe()``.

    Reports the shard count the backend would pick on this machine with no
    per-simulator override, and the threads of the row pool its shard tasks
    run on.
    """
    return f"shards={resolve_n_shards()} threads={pool_threads()}"
