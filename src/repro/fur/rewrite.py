"""Plan-rewrite optimizer passes for the execution engine.

The declarative :class:`ExecutionPlan` of :mod:`repro.fur.engine` makes the
op stream itself a datum, so the memory-traffic optimizations the paper's
profile points at can be expressed as *rewrites* over the op list instead of
special cases inside each backend's kernels.  :func:`run_passes` applies
three of them, once per compiled plan, in this fixed order:

1. :class:`FusePhaseIntoMixer` merges each layer's :class:`PhaseOp` into the
   following :class:`MixerOp`, emitting a :class:`FusedPhaseMixerOp` — the
   phase multiply then rides the first mixer sweep of the layer (one fewer
   full read-modify-write of the state block per layer) through the
   provider's optional ``_apply_phase_mixer_block`` kernel;
2. :class:`CoalesceExchanges` marks mixer ops so the distributed Alltoall
   strategy exchanges the whole ``(rows, local_states)`` block at once — one
   collective per exchange instead of one per schedule row, making the
   message count batch-size independent (what the index-bit-swap family
   already does natively);
3. :class:`FuseMixerIntoExpectation` folds the final mixer sweep into the
   expectation reduction (:class:`FusedMixerExpectationOp`): the provider's
   ``_apply_mixer_expectation_block`` kernel skips the last copy-back of the
   mixer's ping-pong buffer and reduces ``Σ c|ψ|²`` straight out of it.

Every pass is gated on the concrete simulator's ``supports_*`` flags: a
backend that does not implement the fused kernel
(``supports_fused_phase_mixer``), the coalesced exchange
(``supports_coalesced_exchange``) or the mixer/expectation fusion
(``supports_fused_mixer_expectation``) keeps the split ops and stays
numerically pinned by the same parity harness as everyone else.  Whether
the pipeline runs at all is the ``optimize="default"|"none"`` knob carried
by simulators, plans and the plan-cache key.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, replace
from typing import Any

__all__ = [
    "PhaseOp",
    "MixerOp",
    "FusedPhaseMixerOp",
    "FusedMixerExpectationOp",
    "ExpectationOp",
    "PlanOp",
    "OPTIMIZE_LEVELS",
    "resolve_optimize",
    "RewriteReport",
    "RewritePass",
    "FusePhaseIntoMixer",
    "CoalesceExchanges",
    "FuseMixerIntoExpectation",
    "PASSES",
    "run_passes",
]

#: Accepted values of the ``optimize`` knob (simulator constructor, batched
#: entry points and the plan-cache key).
OPTIMIZE_LEVELS = ("default", "none")


def resolve_optimize(optimize: str) -> str:
    """Validate an ``optimize`` level name."""
    if optimize not in OPTIMIZE_LEVELS:
        raise ValueError(
            f"unknown optimize level {optimize!r}; expected one of {OPTIMIZE_LEVELS}"
        )
    return optimize


# ---------------------------------------------------------------------------
# Declarative layer ops (the vocabulary plans are written in).
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PhaseOp:
    """Apply ``exp(-i γ_l C)`` — one phase sweep of layer ``layer``."""

    layer: int


@dataclass(frozen=True)
class MixerOp:
    """Apply ``exp(-i β_l M)`` — one mixer sweep of layer ``layer``.

    ``coalesce`` asks a distributed provider to exchange the whole batch
    block per global-qubit step instead of one row at a time (set by
    :class:`CoalesceExchanges`; meaningless for single-address-space
    backends and always ``False`` there).
    """

    layer: int
    n_trotters: int = 1
    coalesce: bool = False


@dataclass(frozen=True)
class FusedPhaseMixerOp:
    """Apply ``exp(-i β_l M) · exp(-i γ_l C)`` in one fused sweep.

    Emitted by :class:`FusePhaseIntoMixer`; executed through the provider's
    ``_apply_phase_mixer_block`` kernel, which folds the phase multiply into
    the first mixer pass over the block.
    """

    layer: int
    n_trotters: int = 1
    coalesce: bool = False


@dataclass(frozen=True)
class FusedMixerExpectationOp:
    """The plan tail ``mixer (optionally with fused phase) → expectation``.

    Emitted by :class:`FuseMixerIntoExpectation`; executed through the
    provider's ``_apply_mixer_expectation_block`` kernel, which skips the
    final copy-back of the mixer's ping-pong buffer and reduces
    ``Σ_x c[x] |ψ_x|²`` directly out of whichever buffer holds the result.
    ``with_phase`` records whether layer ``layer``'s phase sweep rides along
    (the former :class:`FusedPhaseMixerOp` half).
    """

    layer: int
    n_trotters: int = 1
    coalesce: bool = False
    with_phase: bool = False


@dataclass(frozen=True)
class ExpectationOp:
    """Reduce every block row to ``Σ_x c[x] |ψ_x|²`` (float64 accumulation)."""


#: Union of the op types a plan may contain.
PlanOp = (PhaseOp | MixerOp | FusedPhaseMixerOp | FusedMixerExpectationOp
          | ExpectationOp)


# ---------------------------------------------------------------------------
# The pass framework.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RewriteReport:
    """What one pass did to one op list (feeds ``EngineStats.rewrites``)."""

    pass_name: str
    ops_before: int
    ops_after: int
    rewrites: int


class RewritePass(abc.ABC):
    """One rewrite over an op tuple."""

    #: stable name used in reports and stats
    name: str = "rewrite"

    @abc.abstractmethod
    def run(self, ops: tuple[PlanOp, ...],
            simulator: Any) -> tuple[tuple[PlanOp, ...], int]:
        """Rewrite ``ops``; returns the new tuple and the rewrite count."""


class FusePhaseIntoMixer(RewritePass):
    """Merge each layer's phase sweep into its mixer sweep.

    ``PhaseOp(l)`` immediately followed by ``MixerOp(l)`` becomes one
    :class:`FusedPhaseMixerOp` (preserving ``n_trotters`` and a previously
    set ``coalesce`` flag).  Gated on the provider's
    ``supports_fused_phase_mixer`` attribute — mixer families without the
    fused kernel (e.g. the XY mixers) keep the split ops.
    """

    name = "fuse-phase-mixer"

    def run(self, ops, simulator):
        if not getattr(simulator, "supports_fused_phase_mixer", False):
            return ops, 0
        out: list[PlanOp] = []
        rewrites = 0
        i = 0
        while i < len(ops):
            op = ops[i]
            nxt = ops[i + 1] if i + 1 < len(ops) else None
            if (isinstance(op, PhaseOp) and isinstance(nxt, MixerOp)
                    and nxt.layer == op.layer):
                out.append(FusedPhaseMixerOp(layer=op.layer,
                                             n_trotters=nxt.n_trotters,
                                             coalesce=nxt.coalesce))
                rewrites += 1
                i += 2
            else:
                out.append(op)
                i += 1
        return tuple(out), rewrites


class CoalesceExchanges(RewritePass):
    """Mark every mixer op for block-wide global-qubit exchanges.

    Rewrites ``coalesce=False`` mixer and fused ops to ``coalesce=True`` so
    the Alltoall-strategy provider performs one collective over the whole
    ``(rows, local_states)`` block per exchange — the message count then no
    longer scales with the batch size.  Gated on
    ``supports_coalesced_exchange`` (only the Alltoall family sets it; the
    index-bit-swap family already exchanges whole blocks natively).
    """

    name = "coalesce-exchanges"

    def run(self, ops, simulator):
        if not getattr(simulator, "supports_coalesced_exchange", False):
            return ops, 0
        out: list[PlanOp] = []
        rewrites = 0
        for op in ops:
            if isinstance(op, (MixerOp, FusedPhaseMixerOp)) and not op.coalesce:
                out.append(replace(op, coalesce=True))
                rewrites += 1
            else:
                out.append(op)
        return tuple(out), rewrites


class FuseMixerIntoExpectation(RewritePass):
    """Fold the final mixer sweep into the expectation reduction.

    A plan tail of ``MixerOp(l), ExpectationOp`` (or ``FusedPhaseMixerOp(l),
    ExpectationOp``) becomes one :class:`FusedMixerExpectationOp`: the
    provider's ``_apply_mixer_expectation_block`` kernel leaves the mixer
    result in its ping-pong buffer — skipping the final copy-back — and
    reduces ``Σ c|ψ|²`` straight out of it.  Gated on
    ``supports_fused_mixer_expectation``; coalesced (distributed) mixer ops
    are left alone.
    """

    name = "fuse-mixer-expectation"

    def run(self, ops, simulator):
        if not getattr(simulator, "supports_fused_mixer_expectation", False):
            return ops, 0
        if len(ops) < 2 or not isinstance(ops[-1], ExpectationOp):
            return ops, 0
        tail = ops[-2]
        if isinstance(tail, (MixerOp, FusedPhaseMixerOp)) and not tail.coalesce:
            fused = FusedMixerExpectationOp(
                layer=tail.layer, n_trotters=tail.n_trotters,
                coalesce=tail.coalesce,
                with_phase=isinstance(tail, FusedPhaseMixerOp))
            return ops[:-2] + (fused,), 1
        return ops, 0


#: The pipeline, in application order.  The order matters: coalescing sees
#: the fused ops, and the mixer/expectation fusion leaves coalesced tails
#: alone.
PASSES: tuple[RewritePass, ...] = (
    FusePhaseIntoMixer(),
    CoalesceExchanges(),
    FuseMixerIntoExpectation(),
)


def run_passes(ops: tuple[PlanOp, ...], simulator: Any
               ) -> tuple[tuple[PlanOp, ...], tuple[RewriteReport, ...]]:
    """Run :data:`PASSES` over an op tuple, once, in order.

    Called by the engine at plan-compile time.  Returns the rewritten tuple
    plus one :class:`RewriteReport` per pass.
    """
    reports: list[RewriteReport] = []
    for rewrite in PASSES:
        before = len(ops)
        ops, rewrites = rewrite.run(ops, simulator)
        reports.append(RewriteReport(pass_name=rewrite.name, ops_before=before,
                                     ops_after=len(ops), rewrites=rewrites))
    return ops, tuple(reports)
