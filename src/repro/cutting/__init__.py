"""Circuit cutting: beyond-memory QAOA via fragment decomposition.

Splits the QAOA cost graph into two fragments across ``k`` cut qubits,
evaluates each fragment (its one cost diagonal and crossing masks held,
the two fragments run as two row-pool tasks) with one state-vector evolution
(fragment 2's ``4^k`` preparation variants are per-slot ``2×2`` maps of
its ``|+⟩`` state), and stitches the fragment tables back together with a
tensor-network contraction in :mod:`repro.tensornet`.  Exact for p = 1
transverse-field QAOA; see :mod:`repro.cutting.cutter` for why deeper
schedules and XY mixers raise :class:`CutUnsupportedError`.

Entry points: :func:`cut_qaoa_expectation` for one-shot evaluation,
:class:`CutQAOAObjective` for optimizer loops, :class:`CutQAOAPipeline`
when you want the fragments and telemetry in hand.
"""

from .cutter import (
    CutSpec,
    CutUnsupportedError,
    InvalidCutError,
    TermAssignment,
    assign_terms,
    choose_cut,
)
from .pipeline import (
    CutQAOAObjective,
    CutQAOAPipeline,
    CuttingStats,
    cut_qaoa_expectation,
)
from .recombine import recombine_term, recombine_terms
from .variants import (
    MEAS_LABELS,
    PREP_LABELS,
    coefficient_matrix,
    conjugated_paulis,
    preparation_maps,
    variant_tables,
)

__all__ = [
    "CutSpec",
    "CutUnsupportedError",
    "InvalidCutError",
    "TermAssignment",
    "assign_terms",
    "choose_cut",
    "CutQAOAObjective",
    "CutQAOAPipeline",
    "CuttingStats",
    "cut_qaoa_expectation",
    "recombine_term",
    "recombine_terms",
    "MEAS_LABELS",
    "PREP_LABELS",
    "coefficient_matrix",
    "conjugated_paulis",
    "preparation_maps",
    "variant_tables",
]
