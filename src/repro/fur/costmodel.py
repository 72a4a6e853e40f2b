"""Memory-traffic cost model for plan ops.

Prices each op of a compiled plan in bytes of memory traffic, reusing the
calibrated bandwidth-bound op costs of
:class:`repro.parallel.perfmodel.PerformanceModel` at a single rank — the
byte counts here are exactly the numerators of ``phase_time`` /
``mixer_compute_time``.  Dividing an op's measured seconds into its price
gives the achieved bandwidth the per-op ledgers report.

* a phase sweep is one fused read-modify-write of the state plus the
  diagonal read;
* a mixer sweep streams the state once per qubit rotation (read + write),
  per Trotter step;
* a fused phase+mixer sweep saves the phase's read-modify-write — only the
  diagonal read remains;
* the expectation reduction reads the state and the diagonal;
* fusing the final mixer into the expectation skips the mixer's copy-back
  of the ping-pong buffer — one state write saved.
"""

from __future__ import annotations

from ..parallel.perfmodel import PerformanceModel
from .jit.kernels import DEFAULT_TILE_QUBITS
from .rewrite import (
    ExpectationOp,
    FusedMixerExpectationOp,
    FusedPhaseMixerOp,
    MixerOp,
    PlanOp,
)

__all__ = ["PlanCostModel"]


class PlanCostModel:
    """Price plan ops in bytes of memory traffic at a single rank.

    ``single_pass_mixer`` models the ``jit`` kernel tier: its fused kernels
    apply every butterfly whose stride fits a cache-sized tile in one
    read-modify-write sweep, then every stride at or above
    :data:`~repro.fur.jit.kernels.DEFAULT_TILE_QUBITS` in one
    column-grouped sweep — two sweeps past one tile instead of one per
    qubit.  The fused expectation runs its last stride apart (it reduces
    as it writes), so its grouped sweep exists only when a stride lies
    between the tile and the last one.
    """

    def __init__(self, n_qubits: int, model: PerformanceModel | None = None,
                 *, single_pass_mixer: bool = False) -> None:
        self.model = model if model is not None else PerformanceModel()
        self.n_qubits = n_qubits
        self.states = self.model.local_states(n_qubits, 1)
        self.single_pass_mixer = bool(single_pass_mixer)

    def op_bytes(self, op: PlanOp) -> int:
        sb = self.model.state_bytes
        db = self.model.diag_bytes
        states = self.states
        phase = states * (2 * sb + db)  # numerator of phase_time
        # read-modify-write sweeps per mixer: the tiled sweep plus the
        # column-grouped one past the tile for the single-pass kernels
        # (the fused expectation: tiled, grouped below its last stride, and
        # that stride); one per qubit rotation for multi-pass kernels
        # (numerator of mixer_compute_time)
        n, tile = self.n_qubits, DEFAULT_TILE_QUBITS
        if self.single_pass_mixer:
            sweeps = 1 + (n > tile)
            expectation_sweeps = 1 + (n - 1 > tile) + (n > tile)
        else:
            sweeps = expectation_sweeps = n
        mixer = sweeps * 2 * sb * states
        expectation = states * (sb + db)
        if isinstance(op, MixerOp):
            return mixer * op.n_trotters
        if isinstance(op, FusedPhaseMixerOp):
            # phase rides the first mixer pass: the read-modify-write
            # disappears, the diagonal read remains
            return mixer * op.n_trotters + states * db
        if isinstance(op, FusedMixerExpectationOp):
            extra_diag = states * db if op.with_phase else 0
            # expectation reads the ping-pong buffer directly: the mixer's
            # final copy-back (one state write) is saved
            return (expectation_sweeps * 2 * sb * states * op.n_trotters
                    + extra_diag + expectation - states * sb)
        if isinstance(op, ExpectationOp):
            return expectation
        return phase  # PhaseOp: one streaming read-modify-write sweep
