"""Global/local qubit bookkeeping for the in-process sharded backend.

The ``(B, 2^n)`` state block is split into ``K = 2^g`` shard slabs along the
top ``g`` index bits — the *global* qubits of the paper's per-rank slicing
(the ``gpumpi``/``cusvmpi`` backends of :mod:`repro.fur.mpi` are the sharded
X simulator with one shard per rank) — with every slab living in the same
address space so "communication" is a pairwise slab swap between NumPy
arrays.  Mixer sweeps that touch a global qubit relabel it local first:
instead of physically permuting the full state, a transposition exchanges
index *bits* between the shard axis and a local position, the rotation runs
on the now-local bit, and the inverse transposition restores the canonical
order (qibo's ``DistributedQubits`` transpose-order trick).

:class:`ShardLayout` tracks where each logical qubit currently lives during
such a relabeling.  Positions ``0 … n_local−1`` are the bit positions inside
a slab (position ``p`` has stride ``2^p``); positions ``n_local … n−1`` are
the shard-index bits (position ``n_local + j`` is bit ``j`` of the shard
number).  The layout starts — and after every mixer application must end —
at the identity: logical qubit ``q`` at position ``q``.
"""

from __future__ import annotations

import os

import numpy as np

__all__ = [
    "ShardLayout",
    "resolve_n_shards",
    "sharded_state_bytes",
    "NUM_SHARDS_ENV",
]

#: Environment override for the default shard count (rounded down to a power
#: of two; the per-mixer global-qubit constraint still clamps it).
NUM_SHARDS_ENV = "REPRO_NUM_SHARDS"


class ShardLayout:
    """Tracks the logical-qubit ↔ bit-position permutation of the shard slabs.

    ``perm[pos]`` is the logical qubit currently stored at bit position
    ``pos``.  Every slab exchange that swaps index bits calls
    :meth:`swap_positions` with the same pair, so :meth:`position_of` always
    answers "where do I rotate logical qubit ``q`` right now?" and
    :meth:`assert_identity` catches any unbalanced relabeling at op
    boundaries (a forgotten restore would silently permute every result).
    """

    def __init__(self, n_qubits: int, n_local: int) -> None:
        if not 0 < n_local <= n_qubits:
            raise ValueError(
                f"n_local must be in (0, {n_qubits}], got {n_local}")
        self.n_qubits = int(n_qubits)
        self.n_local = int(n_local)
        self.reset()

    @property
    def perm(self) -> np.ndarray:
        """``perm[pos] -> logical qubit`` (a copy; the layout owns its state)."""
        return self._perm.copy()

    def position_of(self, qubit: int) -> int:
        """Current bit position of logical ``qubit``."""
        if not 0 <= qubit < self.n_qubits:
            raise ValueError(f"qubit {qubit} out of range for n={self.n_qubits}")
        return int(np.flatnonzero(self._perm == qubit)[0])

    def qubit_at(self, pos: int) -> int:
        """Logical qubit currently stored at bit position ``pos``."""
        return int(self._perm[pos])

    def is_local(self, qubit: int) -> bool:
        """Whether logical ``qubit`` currently lives on a local bit position."""
        return self.position_of(qubit) < self.n_local

    def swap_positions(self, pos_a: int, pos_b: int) -> None:
        """Record that the slab exchange swapped the bits at two positions."""
        if not (0 <= pos_a < self.n_qubits and 0 <= pos_b < self.n_qubits):
            raise ValueError(
                f"positions ({pos_a}, {pos_b}) out of range for n={self.n_qubits}")
        self._perm[pos_a], self._perm[pos_b] = (self._perm[pos_b],
                                                self._perm[pos_a])

    def reset(self) -> None:
        """Return to the identity (a freshly staged block is canonical)."""
        self._perm = np.arange(self.n_qubits, dtype=np.int64)

    def is_identity(self) -> bool:
        """Whether every logical qubit sits at its canonical position."""
        return bool(np.array_equal(self._perm,
                                   np.arange(self.n_qubits, dtype=np.int64)))

    def assert_identity(self) -> None:
        """Raise if a relabeling was not undone (op-boundary invariant)."""
        if not self.is_identity():
            raise RuntimeError(
                "shard layout left in a permuted state: "
                f"perm={self._perm.tolist()} (unbalanced slab exchange)")


def _pow2_floor(value: int) -> int:
    """Largest power of two ≤ ``value`` (1 for values below 2)."""
    if value < 2:
        return 1
    return 1 << (int(value).bit_length() - 1)


def resolve_n_shards(n_qubits: int | None = None,
                     n_shards: int | None = None, *,
                     max_global: int | None = None) -> int:
    """Resolve the shard count ``K = 2^g``.

    Precedence: an explicit ``n_shards=`` argument (validated strictly — a
    power of two within the mixer's global-qubit budget, or ``ValueError``),
    then the :data:`NUM_SHARDS_ENV` environment override, then the nearest
    power of two ≤ the machine's core count.  Env/auto values are *clamped*
    to ``2^max_global`` rather than rejected: they are deployment knobs, and
    a small problem on a big machine should quietly use fewer shards.
    """
    if max_global is None and n_qubits is not None:
        max_global = n_qubits
    if n_shards is not None:
        k = int(n_shards)
        if k <= 0 or k & (k - 1):
            raise ValueError(
                f"n_shards must be a positive power of two, got {n_shards}")
        g = k.bit_length() - 1
        if max_global is not None and g > max(0, max_global):
            raise ValueError(
                f"n_shards={k} needs {g} global qubits but n_qubits="
                f"{n_qubits} supports at most {max(0, max_global)} "
                "for this mixer")
        return k
    k = 0
    raw = os.environ.get(NUM_SHARDS_ENV, "").strip()
    if raw:
        try:
            k = int(raw)
        except ValueError:
            k = 0
    if k < 1:
        k = _pow2_floor(os.cpu_count() or 1)
    else:
        k = _pow2_floor(k)
    if max_global is not None:
        k = min(k, 1 << max(0, max_global))
    return max(1, k)


def sharded_state_bytes(n_qubits: int, itemsize: int, n_shards: int) -> int:
    """Per-shard resident bytes: the largest slab plus exchange staging.

    This is what the byte guard and serve admission compare against
    ``MAX_STATE_BYTES`` instead of the monolithic ``2^n · itemsize`` — the
    whole point of sharding the state.  The staging term covers the largest
    exchange buffer any strategy allocates: the single-bit swap moves half a
    slab at once (the full transpose swaps in place, staging only
    ``slab / K``).  ``gpumpi``'s non-direct Alltoall algorithms allocate
    receive rows and account that staging themselves.
    """
    slab = ((1 << n_qubits) * int(itemsize)) // max(1, int(n_shards))
    return slab + slab // 2
