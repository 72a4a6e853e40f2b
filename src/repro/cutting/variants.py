"""Fragment variant algebra for wire cutting.

A wire cut on ``k`` qubits decomposes the traced-out wire states through
the Pauli basis: for any bipartite state and any post-cut circuit,

.. math::

    \\langle O_A \\otimes O_B \\rangle = \\frac{1}{2^k} \\sum_{m}
        \\langle O_A \\otimes \\sigma_m \\rangle_{\\text{frag 1}}
        \\cdot \\langle O_B \\rangle_{\\text{frag 2, prep}(\\sigma_m)}

where each Pauli :math:`\\sigma_m` is rebuilt on the fragment-2 side from
four *pure preparation states* :math:`\\{|0\\rangle, |1\\rangle,
|{+}\\rangle, |{+i}\\rangle\\}` via the fixed coefficient matrix
:func:`coefficient_matrix` (``σ_m = Σ_s C[m, s] |s⟩⟨s|``).  This module
owns those fixed ingredients:

- the measurement/preparation bases and :func:`coefficient_matrix`;
- :func:`conjugated_paulis` — fragment 1 runs the *uniform* QAOA circuit,
  which applies one extra mixer rotation ``exp(-i β X)`` on each cut qubit
  after the cut point; measuring ``σ̃ = U σ U†`` on the evolved state is
  exactly measuring ``σ`` at the cut point;
- :func:`preparation_maps` — fragment B runs only the ``|+⟩`` evolution
  ``ψ₊``.  The phase separator is diagonal and the mixer is a product of
  one-qubit rotations, so preparing slot ``i`` in state ``|s⟩`` instead of
  ``|+⟩`` is the fixed per-slot ``2×2`` map ``O_s = √2 · U diag(|s⟩) U†``
  applied to ``ψ₊`` (``|s⟩ = √2 diag(|s⟩) |+⟩``, and the diagonal
  commutes with the phase);
- :func:`variant_tables` — every fragment's ``4^k`` table from its
  weighted reduced matrices on the cut qubits, one ``(4, ·, 2, 2)`` map
  contracted per cut.

Everything here is little-endian (qubit ``q`` is bit ``q`` of the state
index), matching :mod:`repro.fur`.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "MEAS_LABELS",
    "PREP_LABELS",
    "PAULIS",
    "PREP_STATES",
    "coefficient_matrix",
    "conjugated_paulis",
    "apply_one_qubit",
    "preparation_maps",
    "variant_digits",
    "variant_tables",
]

#: fragment-1 measurement bases, in digit order (digit value 0..3)
MEAS_LABELS = ("I", "X", "Y", "Z")
#: fragment-2 preparation states, in digit order (digit value 0..3)
PREP_LABELS = ("0", "1", "+", "i")

_SQ2 = 1.0 / np.sqrt(2.0)

#: the four single-qubit Paulis, indexed like :data:`MEAS_LABELS`
PAULIS = np.array([
    [[1, 0], [0, 1]],      # I
    [[0, 1], [1, 0]],      # X
    [[0, -1j], [1j, 0]],   # Y
    [[1, 0], [0, -1]],     # Z
], dtype=np.complex128)

#: the four preparation states, indexed like :data:`PREP_LABELS`
PREP_STATES = np.array([
    [1, 0],                # |0>
    [0, 1],                # |1>
    [_SQ2, _SQ2],          # |+>
    [_SQ2, 1j * _SQ2],     # |+i>
], dtype=np.complex128)


def coefficient_matrix() -> np.ndarray:
    """The ``(4, 4)`` real matrix ``C`` with ``σ_m = Σ_s C[m, s] |s⟩⟨s|``.

    Rows follow :data:`MEAS_LABELS`, columns :data:`PREP_LABELS`.  The
    identity is exact (each Pauli is an affine combination of the four
    projectors), which the unit tests re-verify numerically.
    """
    return np.array([
        [1.0, 1.0, 0.0, 0.0],    # I = |0><0| + |1><1|
        [-1.0, -1.0, 2.0, 0.0],  # X = -I + 2|+><+|
        [-1.0, -1.0, 0.0, 2.0],  # Y = -I + 2|+i><+i|
        [1.0, -1.0, 0.0, 0.0],   # Z = |0><0| - |1><1|
    ], dtype=np.float64)


def _mixer_rotation(beta: float) -> np.ndarray:
    """The one-qubit mixer rotation ``U = exp(-i β X)``."""
    c, s = np.cos(beta), np.sin(beta)
    return np.array([[c, -1j * s], [-1j * s, c]], dtype=np.complex128)


def conjugated_paulis(beta: float) -> np.ndarray:
    """``σ̃_m = U σ_m U†`` for ``U = exp(-i β X)``, stacked ``(4, 2, 2)``.

    Fragment 1's uniform evolution applies the mixer rotation ``U`` on the
    cut qubits *after* the cut point; the cut-point Pauli expectation is
    recovered from the evolved state as ``⟨ψ₁|σ̃_m|ψ₁⟩``.
    """
    u = _mixer_rotation(beta)
    return np.einsum("ab,mbc,dc->mad", u, PAULIS, u.conj())


def apply_one_qubit(sv: np.ndarray, op: np.ndarray, qubit: int,
                    n_qubits: int) -> np.ndarray:
    """Apply a ``(2, 2)`` operator to one qubit of a little-endian state."""
    shaped = sv.reshape(2 ** (n_qubits - qubit - 1), 2, 2 ** qubit)
    return np.einsum("ab,xby->xay", op, shaped).reshape(-1)


def variant_digits(variant: int, n_cuts: int) -> tuple[int, ...]:
    """Base-4 digits of a variant index, cut 0 first (little-endian)."""
    return tuple((variant >> (2 * i)) & 3 for i in range(n_cuts))


def preparation_maps(beta: float) -> np.ndarray:
    """``O_s = √2 · U diag(|s⟩) U†`` for ``U = exp(-i β X)``, ``(4, 2, 2)``.

    Rows follow :data:`PREP_LABELS`.  Fragment B's variant ``s`` is
    ``(⊗_i O_{s_i}) ψ₊`` on the slot qubits, with ``ψ₊`` its single
    ``|+⟩`` evolution: the prep state is ``√2 diag(|s⟩) |+⟩``, the diagonal
    commutes with the phase separator, and ``U`` carries it through the
    mixer.
    """
    u = _mixer_rotation(beta)
    return np.sqrt(2.0) * np.einsum("ab,mb,cb->mac", u, PREP_STATES, u.conj())


def variant_tables(rho: np.ndarray, maps: np.ndarray) -> np.ndarray:
    """The ``(U, 4^k)`` tables ``Re Σ_{y,b,b'} Π_i T[v_i, y_i, b_i, b'_i]
    ρ[u, y, b, b']``.

    ``rho`` is a ``(U, Y, 2^k, 2^k)`` stack of weighted reduced matrices on
    the ``k`` cut qubits (bit ``i`` of ``b`` is cut ``i``), with ``Y = 1``
    when the observable does not depend on the cut bits and ``Y = 2^k``
    when it does (then bit ``i`` of ``y`` is cut ``i`` too).  ``maps`` is
    the per-cut map ``T``, the same on every cut: the ``(4, 1, 2, 2)``
    ``σ̃_m[b, b']`` for fragment A, the ``(4, 2, 2, 2)``
    ``conj(O_s[y, b]) O_s[y, b']`` for fragment B.  Columns are base-4
    variant indices, cut 0 in the lowest digit (:func:`variant_digits`).
    The maps enter one per cut, never as a ``4^k × 4^k`` operator.
    """
    n_rows = rho.shape[0]
    k = rho.shape[-1].bit_length() - 1
    # reshape puts the highest cut first in each axis group; cut i's y, b,
    # b' and variant indices are labelled 1 + 4i .. 4 + 4i
    cuts = range(k - 1, -1, -1)
    tensor = rho.reshape((n_rows,) + (maps.shape[1],) * k + (2,) * (2 * k))
    labels = ([0] + [1 + 4 * i for i in cuts] + [2 + 4 * i for i in cuts]
              + [3 + 4 * i for i in cuts])
    operands: list = [tensor, labels]
    for i in range(k):
        operands += [maps, [4 + 4 * i, 1 + 4 * i, 2 + 4 * i, 3 + 4 * i]]
    out = np.einsum(*operands, [0] + [4 + 4 * i for i in cuts],
                    optimize=True)
    return np.ascontiguousarray(out.real.reshape(n_rows, 4 ** k))
