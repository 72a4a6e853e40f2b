"""Hamming-weight-preserving XY mixers (ring and complete graphs).

Besides the transverse-field mixer, the paper implements the XY mixer with
Hamiltonian ``M = Σ_{<i,j>} (X_i X_j + Y_i Y_j)/2`` for ``<i,j>`` ranging over
the edges of a ring or of the complete graph (Sec. III-B).  The two-qubit
factor ``exp(-i β (XX + YY)/2)`` acts as the identity on ``|00>`` and ``|11>``
and as the SU(2) rotation ``[[cos β, −i sin β], [−i sin β, cos β]]`` on the
``{|01>, |10>}`` subspace — hence it never changes the Hamming weight of a
basis state, which is what enforces cardinality constraints (e.g. the
portfolio budget) without penalty terms.

As in QOKit, the mixer is applied as an *ordered product* of these two-qubit
rotations (a first-order Trotterization of the summed Hamiltonian); the same
ordering is used by the gate-based baseline so cross-backend tests compare the
exact same unitary.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "apply_xy_su2",
    "furxy",
    "furxy_ring",
    "furxy_complete",
    "ring_edges",
    "complete_edges",
]


def ring_edges(n_qubits: int) -> list[tuple[int, int]]:
    """Edge ordering of the ring XY mixer: (0,1), (1,2), …, (n−2,n−1), (n−1,0)."""
    if n_qubits < 2:
        raise ValueError("XY ring mixer needs at least 2 qubits")
    edges = [(i, i + 1) for i in range(n_qubits - 1)]
    if n_qubits > 2:
        edges.append((n_qubits - 1, 0))
    return edges


def complete_edges(n_qubits: int) -> list[tuple[int, int]]:
    """Edge ordering of the complete-graph XY mixer: all (i, j), i < j, lexicographic."""
    if n_qubits < 2:
        raise ValueError("XY complete mixer needs at least 2 qubits")
    return [(i, j) for i in range(n_qubits) for j in range(i + 1, n_qubits)]


def apply_xy_su2(statevector: np.ndarray, a: complex, b: complex,
                 qubit_i: int, qubit_j: int) -> np.ndarray:
    """Apply an SU(2) rotation on the ``{|01>, |10>}`` subspace of two qubits.

    The rotation ``[[a, −b*], [b, a*]]`` mixes the amplitude with
    ``bit_i = 1, bit_j = 0`` (first basis vector) and ``bit_i = 0, bit_j = 1``
    (second); amplitudes with equal bits are untouched.  This is the SU(4)
    extension of Algorithm 1 mentioned in the paper, specialized to the
    Hamming-weight-preserving block structure.
    """
    if qubit_i == qubit_j:
        raise ValueError("XY rotation requires two distinct qubits")
    n_states = statevector.shape[0]
    lo_q, hi_q = (qubit_i, qubit_j) if qubit_i < qubit_j else (qubit_j, qubit_i)
    if (1 << (hi_q + 1)) > n_states:
        raise ValueError(f"qubit {hi_q} out of range for state vector of length {n_states}")
    # State-dtype coefficients keep the update free of widened temporaries.
    a = statevector.dtype.type(a)
    b = statevector.dtype.type(b)
    # Axis layout: (top, bit hi_q, mid, bit lo_q, low)
    view = statevector.reshape(-1, 2, 1 << (hi_q - lo_q - 1), 2, 1 << lo_q)
    # Amplitude with bit_i = 1, bit_j = 0 / bit_i = 0, bit_j = 1, respecting
    # which of (i, j) is the high/low axis.
    if qubit_i > qubit_j:  # qubit_i is hi_q
        amp_10 = view[:, 1, :, 0, :]
        amp_01 = view[:, 0, :, 1, :]
    else:  # qubit_j is hi_q
        amp_10 = view[:, 0, :, 1, :]
        amp_01 = view[:, 1, :, 0, :]
    tmp = amp_10.copy()
    amp_10 *= a
    amp_10 -= np.conj(b) * amp_01
    amp_01 *= np.conj(a)
    amp_01 += b * tmp
    return statevector


def furxy(statevector: np.ndarray, beta: float, qubit_i: int, qubit_j: int) -> np.ndarray:
    """Apply ``exp(-i β (X_i X_j + Y_i Y_j)/2)``, in place."""
    a = complex(np.cos(beta))
    b = -1j * complex(np.sin(beta))
    return apply_xy_su2(statevector, a, b, qubit_i, qubit_j)


def furxy_ring(statevector: np.ndarray, beta: float, n_qubits: int) -> np.ndarray:
    """Apply the ring XY mixer (Trotterized), in place."""
    if statevector.shape[0] != (1 << n_qubits):
        raise ValueError(
            f"state vector length {statevector.shape[0]} does not match n={n_qubits}"
        )
    for i, j in ring_edges(n_qubits):
        furxy(statevector, beta, i, j)
    return statevector


def furxy_complete(statevector: np.ndarray, beta: float, n_qubits: int) -> np.ndarray:
    """Apply the complete-graph XY mixer (Trotterized), in place."""
    if statevector.shape[0] != (1 << n_qubits):
        raise ValueError(
            f"state vector length {statevector.shape[0]} does not match n={n_qubits}"
        )
    for i, j in complete_edges(n_qubits):
        furxy(statevector, beta, i, j)
    return statevector
