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
    apply every butterfly of a layer per cache-sized tile, so a mixer sweep
    streams the state ~2× (read + write) instead of once per qubit.
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
        # streamed state sweeps per mixer: the tiled single-pass kernels
        # touch the block ~twice (read + write); multi-pass kernels once per
        # qubit rotation (numerator of mixer_compute_time)
        mixer_sweeps = 2 if self.single_pass_mixer else self.n_qubits
        mixer = mixer_sweeps * 2 * sb * states
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
            return (mixer * op.n_trotters + extra_diag + expectation
                    - states * sb)
        if isinstance(op, ExpectationOp):
            return expectation
        return phase  # PhaseOp: one streaming read-modify-write sweep
