"""The circuit-cutting fragment pipeline for beyond-memory QAOA.

:class:`CutQAOAPipeline` wires the classical pieces of :mod:`repro.cutting`
into an end-to-end evaluator:

1. :func:`~repro.cutting.cutter.choose_cut` splits the cost graph into two
   fragments across ``k`` cut qubits;
2. the measured terms fold into one cost diagonal per fragment, built
   once, of the terms that live on that fragment alone, plus the distinct
   masks of the terms that cross the cut;
3. each fragment runs **one** ``p = 1`` evolution (fragment 2 from
   ``|+⟩``); chunk by chunk, a gemm of its weight rows (identity, diagonal,
   one parity per mask) against the state's cut-slice conjugate products
   gives the weighted reduced matrices on the cut qubits.  All ``4^k``
   table columns follow from those small matrices: conjugated-Pauli
   settings for fragment 1, per-slot preparation maps for fragment 2
   (:mod:`repro.cutting.variants`);
4. :func:`~repro.cutting.recombine.recombine_term` contracts the tables
   through :mod:`repro.tensornet`: once for each fragment's diagonal and
   once per crossing term.

The two fragments run as two tasks on the row pool
(:func:`repro.fur.jit.kernels.run_tasks`).  Each fragment's simulator is
built through the :func:`repro.simulator` facade, so every *full-tier*
backend works unchanged; expectation-only families (tensornet) are
rejected up front with
:class:`~repro.fur.capabilities.UnsupportedCapabilityError`.

Because only fragment-sized state vectors are ever materialized, problems
whose monolithic ``2^n`` state the admission guard rejects still evaluate
— that is the point: the largest allocation is ``max(2^{n_1}, 2^{n_2})``
amplitudes (plus one diagonal of that length), not ``2^n``.

The decomposition is exact for single-layer (``p = 1``) transverse-field
QAOA; anything else raises the typed
:class:`~repro.cutting.cutter.CutUnsupportedError`.
"""

from __future__ import annotations

import time
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from ..fur.base import validate_angles
from ..fur.capabilities import require_capability
from ..fur.diagonal import precompute_cost_diagonal
from ..fur.jit.kernels import run_tasks
from ..fur.registry import simulator as _construct_simulator
from ..qaoa.objective import EvaluationBookkeepingMixin
from ..qaoa.parameters import split_parameters
from .cutter import CutSpec, CutUnsupportedError, assign_terms, choose_cut
from .recombine import recombine_term
from .variants import conjugated_paulis, preparation_maps, variant_tables

__all__ = [
    "CuttingStats",
    "CutQAOAPipeline",
    "cut_qaoa_expectation",
    "CutQAOAObjective",
]


@dataclass
class CuttingStats:
    """Cut-pipeline telemetry, mirroring the engine's ``EngineStats`` style.

    Counters accumulate across evaluations until :meth:`reset`; the
    benchmark harness folds :meth:`as_dict` into the ``--engine-report``
    payload next to the per-backend engine stats.
    """

    #: full cut-expectation evaluations served
    evaluations: int = 0
    #: fragment circuits dispatched (two per evaluation)
    fragments_evaluated: int = 0
    #: fragment variant tables read off the two evolved states (``1 + 4^k``
    #: per evaluation: fragment 1's state, fragment 2's ``4^k`` preps)
    variants_evaluated: int = 0
    #: cut qubits of the active cut (``k``)
    cut_qubits: int = 0
    #: cost terms recombined across the cut
    recombined_terms: int = 0
    #: tensor-network contractions performed during recombination (two for
    #: the fragments' folded diagonals plus one per crossing term)
    tensor_contractions: int = 0
    #: wall-clock seconds inside fragment simulation
    fragment_wall_s: float = 0.0
    #: wall-clock seconds inside the recombination contraction
    recombine_wall_s: float = 0.0

    def reset(self) -> None:
        """Zero every counter (the pinned cut width is preserved)."""
        width = self.cut_qubits
        for name in vars(self):
            setattr(self, name, type(getattr(self, name))(0))
        self.cut_qubits = width

    def as_dict(self) -> dict[str, Any]:
        """A JSON-ready snapshot of the counters."""
        return dict(vars(self))


#: amplitudes per chunk of the conjugate products (stays cache-resident)
_CHUNK = 1 << 14


def _fragment_diagonal(terms: Sequence[tuple[float, int]],
                       n_qubits: int) -> np.ndarray:
    """The cost diagonal of one fragment's own ``(weight, mask)`` terms."""
    diag = np.zeros(1 << n_qubits)
    if terms:
        precompute_cost_diagonal(
            [(w, [q for q in range(n_qubits) if m >> q & 1]) for w, m in terms],
            n_qubits, out=diag)
    return diag


def _parities(masks: np.ndarray, x: np.ndarray) -> np.ndarray:
    """``(-1)^popcount(x & mask)``, one row per mask."""
    return 1.0 - 2.0 * (np.bitwise_count(masks[:, None] & x) & 1)


def _reduced_matrices(diag: np.ndarray, masks: Sequence[int],
                      slices: np.ndarray) -> np.ndarray:
    """``ρ[v, y][b, b'] = Σ_j w_v(yL + j) conj(slices[b, j]) slices[b', j]``.

    ``slices`` is the state as ``(2^k, L)``: one row per value of the cut
    bits.  The weights ``w_v`` over ``x < Y L`` (``Y = diag.size // L``)
    are the identity, ``diag`` and one ``(-1)^popcount(x & mask)`` per
    mask.  The ``4^k`` real conjugate products (the upper triangle's real
    parts, then its off-diagonal imaginary parts) are formed in double
    precision one cache-sized chunk of ``L`` at a time and fed to a gemm
    against one buffer of the chunk's ``(V Y, chunk)`` weight rows.  A
    chunk starts at a multiple of its width, so the parity rows hold the
    chunk-local parity and their products take the offset's sign.
    """
    d, length = slices.shape
    copies = diag.size // length
    diag = diag.reshape(copies, length)
    masks = np.array(masks, dtype=np.uint64)
    lo, hi = np.triu_indices(d)
    off = lo != hi
    # conj(z_b) z_c = (re_b re_c + im_b im_c) + i (re_b im_c - im_b re_c)
    pairs = ([(b, c, False) for b, c in zip(lo, hi)]
             + [(b, c, True) for b, c in zip(lo[off], hi[off])])
    chunk = min(_CHUNK, length)
    parts = np.empty((d * d, chunk))
    tmp = np.empty(chunk)
    # rows: the identity, the diagonal, the parities; each in Y copies
    weights = np.empty(((2 + masks.size) * copies, chunk))
    weights[:copies] = 1.0
    weights[2 * copies:] = np.repeat(
        _parities(masks, np.arange(chunk, dtype=np.uint64)), copies, axis=0)
    offsets = np.arange(copies, dtype=np.uint64) * np.uint64(length)
    gram = np.zeros((weights.shape[0], d * d))
    for start in range(0, length, chunk):
        window = slice(start, start + chunk)
        z = slices[:, window].astype(np.complex128)
        re, im = z.real, z.imag
        for part, (b, c, imag) in zip(parts, pairs):
            if imag:
                np.multiply(re[b], im[c], out=part)
                part -= np.multiply(im[b], re[c], out=tmp)
            else:
                np.multiply(re[b], re[c], out=part)
                part += np.multiply(im[b], im[c], out=tmp)
        weights[copies:2 * copies] = diag[:, window]
        block = weights @ parts.T
        block[2 * copies:] *= _parities(
            masks, offsets + np.uint64(start)).reshape(-1, 1)
        gram += block
    upper = gram[:, :lo.size].astype(np.complex128)
    upper[:, off] += 1j * gram[:, lo.size:]
    rho = np.empty((gram.shape[0], d, d), dtype=np.complex128)
    rho[:, hi, lo] = upper.conj()
    rho[:, lo, hi] = upper
    return rho.reshape(-1, copies, d, d)


class CutQAOAPipeline:
    """A reusable cut-QAOA evaluator bound to one problem and one cut.

    Construction picks (or validates) the cut, splits the cost polynomial,
    builds both fragment simulators and folds the measured terms into each
    fragment's diagonal and crossing masks; :meth:`expectation` then serves
    any number of ``p = 1`` schedules against the cached fragments.
    """

    def __init__(self, n_qubits: int,
                 terms: Iterable[tuple[float, Iterable[int]]], *,
                 partition: Iterable[int] | None = None,
                 cut_qubits: Iterable[int] | None = None,
                 max_cuts: int = 8,
                 backend: Any = "auto",
                 mixer: str = "x",
                 precision: str | None = None,
                 optimize: str | None = None,
                 **simulator_kwargs: Any) -> None:
        if mixer != "x":
            raise CutUnsupportedError(
                f"mixer {mixer!r} entangles the fragments across the cut; "
                "the exact wire-cut decomposition only exists for the "
                "transverse-field 'x' mixer")
        terms = list(terms)
        self.spec: CutSpec = choose_cut(terms, n_qubits,
                                        partition=partition,
                                        cut_qubits=cut_qubits,
                                        max_cuts=max_cuts)
        self.assignment = assign_terms(terms, self.spec)
        self.stats = CuttingStats(cut_qubits=self.spec.n_cuts)

        k = self.spec.n_cuts
        n1 = len(self.spec.fragment_a)
        n2 = len(self.assignment.f2_qubits)
        build = dict(backend=backend, mixer=mixer, precision=precision,
                     optimize=optimize, **simulator_kwargs)
        # A zero-weight placeholder keeps term-requiring backends (gates)
        # working when one fragment ends up with no phase terms at all.
        self.sim1 = _construct_simulator(
            n1, terms=list(self.assignment.f1_terms) or [(0.0, (0,))],
            **build)
        self.sim2 = _construct_simulator(
            n2, terms=list(self.assignment.f2_terms) or [(0.0, (0,))],
            **build)
        for sim in (self.sim1, self.sim2):
            require_capability(sim, "statevector")

        # Each fragment reads its state as (cut bits, the other bits): the
        # cut axes of the (2,)*n state tensor move to the front, highest cut
        # first.  Fragment B's slots already are its top k bits; fragment A's
        # masks (which never hold a cut bit) are squeezed onto the rest.
        a_local = {q: i for i, q in enumerate(self.spec.fragment_a)}
        cut_pos = [a_local[q] for q in self.spec.cut_qubits]
        self._cut_axes = [n1 - 1 - pos for pos in reversed(cut_pos)]
        rest = [i for i in range(n1) if i not in cut_pos]

        def squeeze(mask: int) -> int:
            return sum(1 << j for j, i in enumerate(rest) if mask >> i & 1)

        # A-only terms fold into fragment A's diagonal, B-only terms (slot
        # bits included) into fragment B's; each crossing term keeps one
        # parity mask per side.
        measured = self.assignment.measured
        crossing = [(w, m1, m2) for w, m1, m2 in measured if m1 and m2]
        self._cross_weights = [w for w, _m1, _m2 in crossing]
        self._cross_a, self._masks_a = self._unique(
            [squeeze(m1) for _w, m1, _m2 in crossing])
        self._cross_b, self._masks_b = self._unique(
            [m2 for _w, _m1, m2 in crossing])
        self._diag_a = _fragment_diagonal(
            [(w, squeeze(m1)) for w, m1, m2 in measured if not m2], n1 - k)
        self._diag_b = _fragment_diagonal(
            [(w, m2) for w, m1, m2 in measured if not m1], n2)

    @staticmethod
    def _unique(masks: Sequence[int]) -> tuple[list[int], list[int]]:
        """Per-mask row indices (after the identity and diagonal rows) and
        the distinct masks in first-seen order."""
        order: dict[int, int] = {}
        rows = []
        for m in masks:
            if m not in order:
                order[m] = len(order)
            rows.append(2 + order[m])
        return rows, list(order)

    # -- fragment evaluation -------------------------------------------------
    def _fragment_tables(self, sim: Any, cut_axes: Sequence[int],
                         diag: np.ndarray, masks: Sequence[int],
                         maps: np.ndarray, gamma: float,
                         beta: float) -> np.ndarray:
        """One fragment's ``(2 + len(masks), 4^k)`` table from one evolution.

        ``diag`` and the parity ``masks`` span the bits off the cut
        (fragment A) or its whole register (fragment B); ``maps`` is the
        per-cut map of :func:`~repro.cutting.variants.variant_tables`.
        """
        d = 1 << self.spec.n_cuts
        res = sim.simulate_qaoa([gamma], [beta])
        psi = np.asarray(sim.get_statevector(res)).reshape((2,) * sim.n_qubits)
        slices = np.moveaxis(psi, cut_axes, range(len(cut_axes))).reshape(d, -1)
        return variant_tables(_reduced_matrices(diag, masks, slices), maps)

    def _fragment_one(self, gamma: float, beta: float) -> np.ndarray:
        """Fragment A: ``M[u, m] = ⟨ψ₁| e_u ⊗ σ̃_m |ψ₁⟩``."""
        return self._fragment_tables(self.sim1, self._cut_axes, self._diag_a,
                                     self._masks_a,
                                     conjugated_paulis(beta)[:, None],
                                     gamma, beta)

    def _fragment_two(self, gamma: float, beta: float) -> np.ndarray:
        """Fragment B: ``R[u, s] = ⟨ψ_s| e_u |ψ_s⟩`` with ``ψ_s =
        (⊗_i O_{s_i}) ψ₊`` on the slots
        (:func:`~repro.cutting.variants.preparation_maps`)."""
        o = preparation_maps(beta)
        return self._fragment_tables(self.sim2, range(self.spec.n_cuts),
                                     self._diag_b, self._masks_b,
                                     np.einsum("syb,syc->sybc", o.conj(), o),
                                     gamma, beta)

    # -- public API ----------------------------------------------------------
    def expectation(self, gammas: Sequence[float] | np.ndarray,
                    betas: Sequence[float] | np.ndarray) -> float:
        """The cut-QAOA expectation ``<γβ|Ĉ|γβ>`` for one schedule."""
        g, b = validate_angles(gammas, betas)
        if g.shape[0] != 1:
            raise CutUnsupportedError(
                f"p={g.shape[0]} schedules re-entangle the fragments after "
                "the cut; the exact wire-cut decomposition only exists for "
                "p=1 (see the ROADMAP follow-ups for deeper cuts)")
        gamma, beta = float(g[0]), float(b[0])
        k = self.spec.n_cuts

        t0 = time.perf_counter()
        tables: dict[str, np.ndarray] = {}
        run_tasks([lambda: tables.update(m=self._fragment_one(gamma, beta)),
                   lambda: tables.update(r=self._fragment_two(gamma, beta))])
        m_table, r_table = tables["m"], tables["r"]
        t1 = time.perf_counter()

        # rows: 0 = identity, 1 = the fragment's folded diagonal, 2.. = the
        # crossing terms' parities
        total = (self.assignment.offset
                 + recombine_term(m_table[1], r_table[0], k)
                 + recombine_term(m_table[0], r_table[1], k))
        for w, u1, u2 in zip(self._cross_weights, self._cross_a,
                             self._cross_b):
            total += w * recombine_term(m_table[u1], r_table[u2], k)
        t2 = time.perf_counter()

        self.stats.evaluations += 1
        self.stats.fragments_evaluated += 2
        self.stats.variants_evaluated += 1 + 4 ** k
        self.stats.recombined_terms += len(self.assignment.measured)
        self.stats.tensor_contractions += 2 + len(self._cross_weights)
        self.stats.fragment_wall_s += t1 - t0
        self.stats.recombine_wall_s += t2 - t1
        return float(total)


def cut_qaoa_expectation(n_qubits: int,
                         terms: Iterable[tuple[float, Iterable[int]]],
                         gammas: Sequence[float] | np.ndarray,
                         betas: Sequence[float] | np.ndarray,
                         **pipeline_kwargs: Any) -> float:
    """One-shot cut-QAOA expectation (see :class:`CutQAOAPipeline`).

    Builds the fragment pipeline, evaluates the single ``p = 1`` schedule
    and returns ``<γβ|Ĉ|γβ>``.  All keyword arguments are forwarded to
    :class:`CutQAOAPipeline` (``partition``, ``cut_qubits``, ``max_cuts``,
    ``backend``, ``precision``, backend constructor kwargs, ...).
    For repeated evaluations — e.g. inside an optimizer loop — construct
    the pipeline once (or use :class:`CutQAOAObjective`) so the fragment
    simulators and fragment diagonals are reused.
    """
    pipeline = CutQAOAPipeline(n_qubits, terms, **pipeline_kwargs)
    return pipeline.expectation(gammas, betas)


@dataclass
class CutQAOAObjective(EvaluationBookkeepingMixin):
    """Callable cut-QAOA objective with the standard evaluation bookkeeping.

    The optimizer-facing twin of :class:`repro.qaoa.QAOAObjective`: calling
    it with a flat ``theta = (γ, β)`` vector evaluates the cut pipeline and
    records the evaluation, so optimization drivers can swap a monolithic
    objective for a cut one without touching their loop.
    """

    pipeline: CutQAOAPipeline
    n_evaluations: int = 0
    best_value: float = np.inf
    best_parameters: np.ndarray | None = None
    history: list[float] = field(default_factory=list)

    @classmethod
    def build(cls, n_qubits: int,
              terms: Iterable[tuple[float, Iterable[int]]],
              **pipeline_kwargs: Any) -> "CutQAOAObjective":
        """Construct the fragment pipeline and wrap it as an objective."""
        return cls(pipeline=CutQAOAPipeline(n_qubits, terms,
                                            **pipeline_kwargs))

    @property
    def stats(self) -> CuttingStats:
        """The wrapped pipeline's cutting telemetry."""
        return self.pipeline.stats

    def __call__(self, theta: Sequence[float] | np.ndarray) -> float:
        gammas, betas = split_parameters(theta)
        value = self.pipeline.expectation(gammas, betas)
        self._record_evaluation(np.asarray(theta, dtype=np.float64), value)
        return value
