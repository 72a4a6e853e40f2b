"""All-to-all exchange algorithms with traffic accounting.

``MPI_Alltoall`` is the dominant cost of the distributed simulation
(Sec. III-C); the paper notes that many algorithms exist for it, each with its
own trade-offs, and that it uses the out-of-the-box Cray MPICH implementation.
This module implements the three classic algorithms — direct pairwise
exchange, ring, and Bruck — in *driver* form: given the list of every rank's
send buffer, they produce every rank's receive buffer and a
:class:`TrafficTrace` recording every message (source, destination, bytes,
round).  The trace feeds the communication ablation benchmark and the
performance model used to regenerate the Fig. 5 weak-scaling curves.

All algorithms implement the same transposition semantics: subchunk ``j`` of
rank ``i``'s send buffer becomes subchunk ``i`` of rank ``j``'s receive
buffer.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "Message",
    "TrafficTrace",
    "alltoall_direct",
    "alltoall_pairwise",
    "alltoall_ring",
    "alltoall_bruck",
    "alltoall",
    "ALLTOALL_ALGORITHMS",
]


@dataclass(frozen=True)
class Message:
    """One point-to-point transfer within a collective."""

    source: int
    dest: int
    nbytes: int
    round: int


@dataclass
class TrafficTrace:
    """Record of all messages of a collective, with simple aggregate queries."""

    messages: list[Message] = field(default_factory=list)

    def add(self, source: int, dest: int, nbytes: int, round_: int) -> None:
        """Record one message (self-sends are not recorded)."""
        if source != dest and nbytes > 0:
            self.messages.append(Message(source, dest, int(nbytes), round_))

    @property
    def total_bytes(self) -> int:
        """Total bytes crossing between distinct ranks."""
        return sum(m.nbytes for m in self.messages)

    @property
    def num_rounds(self) -> int:
        """Number of communication rounds (latency terms)."""
        return max((m.round for m in self.messages), default=-1) + 1

    @property
    def num_messages(self) -> int:
        """Number of point-to-point messages."""
        return len(self.messages)

    def max_bytes_per_rank(self) -> int:
        """Largest number of bytes sent by any single rank (the bottleneck rank)."""
        per_rank: dict[int, int] = {}
        for m in self.messages:
            per_rank[m.source] = per_rank.get(m.source, 0) + m.nbytes
        return max(per_rank.values(), default=0)


def _validate(buffers: list[np.ndarray]) -> tuple[int, int]:
    size = len(buffers)
    if size == 0:
        raise ValueError("alltoall needs at least one rank")
    length = buffers[0].shape[0]
    for r, buf in enumerate(buffers):
        if buf.ndim != 1:
            raise ValueError(f"rank {r} buffer must be one-dimensional")
        if buf.shape[0] != length:
            raise ValueError("all ranks must supply equal-length buffers")
    if length % size != 0:
        raise ValueError(f"buffer length {length} not divisible by {size} ranks")
    return size, length // size


def alltoall_direct(buffers: list[np.ndarray]) -> tuple[list[np.ndarray], TrafficTrace]:
    """Direct algorithm: every rank sends to every other rank in one round."""
    size, chunk = _validate(buffers)
    trace = TrafficTrace()
    out = [np.empty_like(buffers[r]) for r in range(size)]
    for src in range(size):
        for dst in range(size):
            seg = buffers[src][dst * chunk:(dst + 1) * chunk]
            out[dst][src * chunk:(src + 1) * chunk] = seg
            trace.add(src, dst, seg.nbytes, 0)
    return out, trace


def alltoall_pairwise(buffers: list[np.ndarray]) -> tuple[list[np.ndarray], TrafficTrace]:
    """Pairwise-exchange algorithm: ``size−1`` rounds, round ``k`` pairs ``r ↔ r XOR k``.

    Requires a power-of-two rank count (the XOR pairing), which always holds
    for state-vector slicing (K = 2^k GPUs).
    """
    size, chunk = _validate(buffers)
    if size & (size - 1):
        raise ValueError("pairwise alltoall requires a power-of-two number of ranks")
    trace = TrafficTrace()
    out = [np.empty_like(buffers[r]) for r in range(size)]
    for r in range(size):  # local copy (no traffic)
        out[r][r * chunk:(r + 1) * chunk] = buffers[r][r * chunk:(r + 1) * chunk]
    for round_ in range(1, size):
        for src in range(size):
            dst = src ^ round_
            seg = buffers[src][dst * chunk:(dst + 1) * chunk]
            out[dst][src * chunk:(src + 1) * chunk] = seg
            trace.add(src, dst, seg.nbytes, round_ - 1)
    return out, trace


def alltoall_ring(buffers: list[np.ndarray]) -> tuple[list[np.ndarray], TrafficTrace]:
    """Ring algorithm: round ``k`` sends the chunk destined ``k`` hops away."""
    size, chunk = _validate(buffers)
    trace = TrafficTrace()
    out = [np.empty_like(buffers[r]) for r in range(size)]
    for r in range(size):
        out[r][r * chunk:(r + 1) * chunk] = buffers[r][r * chunk:(r + 1) * chunk]
    for round_ in range(1, size):
        for src in range(size):
            dst = (src + round_) % size
            seg = buffers[src][dst * chunk:(dst + 1) * chunk]
            out[dst][src * chunk:(src + 1) * chunk] = seg
            trace.add(src, dst, seg.nbytes, round_ - 1)
    return out, trace


def alltoall_bruck(buffers: list[np.ndarray]) -> tuple[list[np.ndarray], TrafficTrace]:
    """Bruck algorithm: ``log2(size)`` rounds, each moving half of the data.

    Trades bandwidth (each element moves up to log2(K) times) for latency
    (only log2(K) message rounds) — the classic choice for small messages.
    Requires a power-of-two rank count.
    """
    size, chunk = _validate(buffers)
    if size & (size - 1):
        raise ValueError("Bruck alltoall requires a power-of-two number of ranks")
    trace = TrafficTrace()
    # Phase 1: local rotation so that rank r's chunk for destination (r+j) sits
    # at position j.
    work = []
    for r in range(size):
        rotated = np.concatenate([buffers[r][((r + j) % size) * chunk:((r + j) % size + 1) * chunk]
                                  for j in range(size)])
        work.append(rotated)
    # Phase 2: log2(size) exchange rounds.  In round t (bit value b = 2^t),
    # every rank sends the blocks whose position has bit t set to rank
    # (r + b) % size.
    n_rounds = size.bit_length() - 1
    for t in range(n_rounds):
        b = 1 << t
        new_work = [w.copy() for w in work]
        for src in range(size):
            dst = (src + b) % size
            nbytes = 0
            for j in range(size):
                if j & b:
                    seg = work[src][j * chunk:(j + 1) * chunk]
                    new_work[dst][j * chunk:(j + 1) * chunk] = seg
                    nbytes += seg.nbytes
            trace.add(src, dst, nbytes, t)
        work = new_work
    # Phase 3: final local inverse rotation — block j on rank r currently holds
    # the data from rank (r - j) % size destined to r; place it at source order.
    out = [np.empty_like(buffers[r]) for r in range(size)]
    for r in range(size):
        for j in range(size):
            src = (r - j) % size
            out[r][src * chunk:(src + 1) * chunk] = work[r][j * chunk:(j + 1) * chunk]
    return out, trace


ALLTOALL_ALGORITHMS = {
    "direct": alltoall_direct,
    "pairwise": alltoall_pairwise,
    "ring": alltoall_ring,
    "bruck": alltoall_bruck,
}


def alltoall(buffers: list[np.ndarray],
             algorithm: str = "direct") -> tuple[list[np.ndarray], TrafficTrace]:
    """Dispatch to one of the registered alltoall algorithms."""
    if algorithm not in ALLTOALL_ALGORITHMS:
        raise ValueError(
            f"unknown alltoall algorithm {algorithm!r}; available: {sorted(ALLTOALL_ALGORITHMS)}"
        )
    return ALLTOALL_ALGORITHMS[algorithm](buffers)
