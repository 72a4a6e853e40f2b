"""Cut-point selection and term assignment on the QAOA cost graph.

Circuit cutting splits the ``n``-qubit QAOA circuit into two *fragments*
along a set of **cut qubits** so that each fragment fits a state-vector
budget the monolithic state would blow through.  This module owns the
classical half of that story:

- :func:`choose_cut` turns either a user-specified qubit bipartition or a
  greedy min-cut sweep over the term hypergraph into a :class:`CutSpec`;
- :func:`assign_terms` splits the cost polynomial into the phase terms each
  fragment applies and the per-term observable masks the recombination step
  measures.

The scheme implemented by :mod:`repro.cutting` is *wire cutting at the
mixer layer* and is exact for single-layer (``p = 1``) QAOA with the
transverse-field X mixer:  fragment A runs the standard circuit on its own
qubits, and the extra mixer rotation it applies on the cut qubits is undone
at measurement time by conjugating the measured Pauli operators
(:mod:`repro.cutting.variants`).  Deeper schedules or entangling (XY)
mixers re-entangle the fragments and have no exact two-fragment
decomposition of this shape — :func:`choose_cut` raises the typed
:class:`CutUnsupportedError` for them rather than silently returning a
wrong answer.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field

from ..problems.terms import validate_terms

__all__ = [
    "InvalidCutError",
    "CutUnsupportedError",
    "CutSpec",
    "TermAssignment",
    "choose_cut",
    "assign_terms",
]


class InvalidCutError(ValueError):
    """A requested cut does not cover the cost polynomial's crossing terms."""


class CutUnsupportedError(RuntimeError):
    """The requested QAOA configuration has no exact cut decomposition.

    Raised for ``p >= 2`` schedules and for entangling (XY) mixers, both of
    which re-entangle the fragments after the cut and therefore cannot be
    reconstructed exactly from two independent fragment runs.
    """


@dataclass(frozen=True)
class CutSpec:
    """A validated bipartition of the qubits with its cut set.

    ``fragment_a`` and ``fragment_b`` are disjoint sorted qubit tuples
    covering ``range(n_qubits)``.  ``cut_qubits`` is the subset of
    ``fragment_a`` through which cost terms cross the partition; fragment B
    re-hosts these qubits as *slot* qubits on top of its own register.
    """

    n_qubits: int
    fragment_a: tuple[int, ...]
    fragment_b: tuple[int, ...]
    cut_qubits: tuple[int, ...]

    @property
    def n_cuts(self) -> int:
        """Number of cut qubits ``k`` (fragment tables hold ``4^k`` variants)."""
        return len(self.cut_qubits)

    @property
    def n_variants(self) -> int:
        """Fragment B's variant count, ``4^k``."""
        return 4 ** self.n_cuts

    def __post_init__(self) -> None:
        a, b, cuts = set(self.fragment_a), set(self.fragment_b), set(self.cut_qubits)
        if a & b:
            raise InvalidCutError(
                f"fragments overlap on qubits {sorted(a & b)}")
        if a | b != set(range(self.n_qubits)):
            missing = sorted(set(range(self.n_qubits)) - (a | b))
            raise InvalidCutError(
                f"fragments do not cover all {self.n_qubits} qubits "
                f"(missing {missing})")
        if not cuts <= a:
            raise InvalidCutError(
                f"cut qubits {sorted(cuts - a)} are not in fragment A")
        if not self.fragment_a or not self.fragment_b:
            raise InvalidCutError("both fragments must be non-empty")


@dataclass(frozen=True)
class TermAssignment:
    """The cost polynomial split across the two fragments.

    ``f1_terms`` / ``f2_terms`` are the phase-separator terms each fragment
    applies during its own evolution, re-indexed to fragment-local qubits.
    ``measured`` lists, per original term, the weight and the two
    fragment-local observable bit masks the recombination step contracts
    (``mask1`` over fragment A's qubits for the term's non-cut A support,
    ``mask2`` over fragment B's extended register for the rest).
    ``offset`` collects constant (empty-index) terms.
    """

    f1_terms: tuple[tuple[float, tuple[int, ...]], ...]
    f2_terms: tuple[tuple[float, tuple[int, ...]], ...]
    measured: tuple[tuple[float, int, int], ...]
    offset: float = 0.0
    #: fragment-B register layout: sorted(fragment_b) then one slot per cut
    f2_qubits: tuple[int, ...] = field(default=())


def _term_sides(terms: Sequence[tuple[float, tuple[int, ...]]],
                a: frozenset[int]) -> tuple[set[int], set[int]]:
    """Union of A-side / B-side qubit supports of the crossing terms."""
    a_side: set[int] = set()
    b_side: set[int] = set()
    for _w, idx in terms:
        qs = set(idx)
        if qs and not qs <= a and not qs.isdisjoint(a):
            a_side |= qs & a
            b_side |= qs - a
    return a_side, b_side


def _greedy_bipartition(terms: Sequence[tuple[float, tuple[int, ...]]],
                        n_qubits: int) -> tuple[int, ...]:
    """A simple min-cut heuristic over the term hypergraph.

    Greedy Kernighan–Lin-flavoured sweep: start from the balanced split
    ``[0, n/2)`` and repeatedly move the single qubit whose migration most
    reduces the crossing-edge count, keeping both sides non-empty, until no
    move improves.  This is deliberately lightweight — the ROADMAP's
    automated cut *search* (hypergraph partitioners, simulated annealing)
    is follow-up work; this heuristic just has to beat the naive split on
    locally-structured problems (rings, ladders, block graphs).
    """
    edges = [frozenset(idx) for _w, idx in terms if len(set(idx)) > 1]

    def crossings(a: set[int]) -> int:
        return sum(1 for e in edges if not e <= a and not e.isdisjoint(a))

    a = set(range(n_qubits // 2))
    best = crossings(a)
    improved = True
    while improved:
        improved = False
        for q in range(n_qubits):
            if q in a:
                if len(a) == 1:
                    continue
                cand = a - {q}
            else:
                if len(a) == n_qubits - 1:
                    continue
                cand = a | {q}
            c = crossings(cand)
            if c < best:
                a, best = cand, c
                improved = True
    return tuple(sorted(a))


def choose_cut(terms: Iterable[tuple[float, Iterable[int]]],
               n_qubits: int, *,
               partition: Iterable[int] | None = None,
               cut_qubits: Iterable[int] | None = None,
               max_cuts: int = 8) -> CutSpec:
    """Select (or validate) a cut of the cost graph.

    Parameters
    ----------
    partition:
        Qubits of fragment A.  When omitted, a greedy min-cut sweep over
        the term hypergraph picks the bipartition.
    cut_qubits:
        Explicit cut set (must lie on fragment A's side and cover every
        crossing term's A support).  When omitted, the minimal valid cut
        set for the partition is derived: the union of the A-side supports
        of the crossing terms, with the A/B roles swapped if the B side's
        union is smaller.
    max_cuts:
        Upper bound on ``k``; the pipeline's variant count is ``4^k``, so
        this guards against accidental exponential blow-ups.
    """
    norm = validate_terms(terms, n_qubits)
    if partition is None:
        a_tuple = _greedy_bipartition(norm, n_qubits)
    else:
        a_tuple = tuple(sorted(set(int(q) for q in partition)))
        if any(q < 0 or q >= n_qubits for q in a_tuple):
            raise InvalidCutError(
                f"partition qubits must lie in [0, {n_qubits})")
    a = frozenset(a_tuple)
    b_tuple = tuple(q for q in range(n_qubits) if q not in a)
    if not a_tuple or not b_tuple:
        raise InvalidCutError("the partition leaves one fragment empty")

    a_side, b_side = _term_sides(norm, a)
    if cut_qubits is None:
        # Cut on whichever side exposes fewer qubits to the boundary.
        if len(b_side) < len(a_side):
            a_tuple, b_tuple = b_tuple, a_tuple
            a_side = b_side
        cuts = tuple(sorted(a_side))
    else:
        cuts = tuple(sorted(set(int(q) for q in cut_qubits)))
        if not set(cuts) <= a:
            raise InvalidCutError(
                f"cut qubits {sorted(set(cuts) - a)} are not in fragment A "
                f"({list(a_tuple)})")
        if not a_side <= set(cuts):
            raise InvalidCutError(
                f"cut set {list(cuts)} does not cover the crossing terms' "
                f"fragment-A support {sorted(a_side)}")
    if len(cuts) > max_cuts:
        raise InvalidCutError(
            f"cut requires {len(cuts)} cut qubits (4^{len(cuts)} fragment "
            f"variants), above max_cuts={max_cuts}; pass a better partition "
            f"or raise max_cuts")
    return CutSpec(n_qubits=n_qubits, fragment_a=tuple(a_tuple),
                   fragment_b=tuple(b_tuple), cut_qubits=cuts)


def assign_terms(terms: Iterable[tuple[float, Iterable[int]]],
                 spec: CutSpec) -> TermAssignment:
    """Split the cost polynomial across the fragments of ``spec``.

    A term's *phase* is applied by fragment A iff its support lies entirely
    inside fragment A; otherwise fragment B applies it (its support must
    then lie inside ``fragment_b ∪ cut_qubits`` — the slots re-host the cut
    qubits).  The term's *observable* is split into the A-local mask over
    its non-cut A support and the B-local mask over the rest.
    """
    norm = validate_terms(terms, spec.n_qubits)
    a = set(spec.fragment_a)
    cuts = set(spec.cut_qubits)
    b_sorted = tuple(sorted(spec.fragment_b))
    # Fragment-local indices.  Fragment B's register is its own qubits
    # followed by one slot per cut qubit (slot i hosts cut_qubits[i]).
    a_local = {q: i for i, q in enumerate(spec.fragment_a)}
    b_local = {q: i for i, q in enumerate(b_sorted)}
    for i, q in enumerate(spec.cut_qubits):
        b_local[q] = len(b_sorted) + i

    f1_terms: list[tuple[float, tuple[int, ...]]] = []
    f2_terms: list[tuple[float, tuple[int, ...]]] = []
    measured: list[tuple[float, int, int]] = []
    offset = 0.0
    for w, idx in norm:
        qs = set(idx)
        if not qs:
            offset += w
            continue
        if qs <= a:
            f1_terms.append((w, tuple(sorted(a_local[q] for q in idx))))
        else:
            bad = qs - set(b_sorted) - cuts
            if bad:
                raise InvalidCutError(
                    f"term {tuple(idx)} touches fragment-A qubits "
                    f"{sorted(bad)} outside the cut set; widen cut_qubits "
                    f"or choose a different partition")
            f2_terms.append((w, tuple(sorted(b_local[q] for q in idx))))
        mask1 = 0
        for q in qs & (a - cuts):
            mask1 |= 1 << a_local[q]
        mask2 = 0
        for q in qs - (a - cuts):
            mask2 |= 1 << b_local[q]
        measured.append((w, mask1, mask2))
    f2_qubits = b_sorted + spec.cut_qubits
    return TermAssignment(f1_terms=tuple(f1_terms), f2_terms=tuple(f2_terms),
                          measured=tuple(measured), offset=offset,
                          f2_qubits=f2_qubits)
