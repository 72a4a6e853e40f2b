"""Tensor recombination of fragment expectation tables.

After the fragments run, every observable ``t = e_1 ⊗ e_2`` split across
the cut owns two tables:

- ``m_table`` — fragment 1's ``4^k`` conjugated-Pauli expectations
  ``M_t[m] = ⟨ψ₁| e_1 ⊗ σ̃_m |ψ₁⟩``;
- ``r_table`` — fragment 2's ``4^k`` per-variant expectations
  ``R_t[s] = ⟨ψ_s| e_2 |ψ_s⟩``.

The pipeline's observables are a fragment's folded cost diagonal against
the other fragment's identity, and each crossing term's two parities
(:class:`repro.cutting.pipeline.CutQAOAPipeline`).

The exact wire-cut identity stitches them through the fixed ``(4, 4)``
coefficient matrix ``C`` (:func:`repro.cutting.variants.coefficient_matrix`),
one factor per cut qubit:

.. math::

    \\langle t \\rangle = \\frac{1}{2^k} \\sum_{m, s}
        M_t[m] \\Big( \\prod_{q=0}^{k-1} C[m_q, s_q] \\Big) R_t[s]

:func:`recombine_term` evaluates that sum as a tensor-network contraction
in :mod:`repro.tensornet`: the ``M`` and ``R`` tables reshape into rank-k
tensors (one dimension-4 index per cut) and each cut contributes one ``C``
tensor bridging its measurement index to its preparation index.  The
pairwise contraction never materializes the full ``16^k`` coefficient
tensor — cost stays ``O(k · 4^{k+1})``.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from ..tensornet import Tensor, TensorNetwork, contract_network
from .variants import coefficient_matrix

__all__ = ["recombine_term", "recombine_terms"]


def recombine_term(m_table: np.ndarray, r_table: np.ndarray,
                   n_cuts: int) -> float:
    """Contract one term's fragment tables into its expectation value.

    ``m_table`` and ``r_table`` are flat length-``4^k`` arrays indexed by
    base-4 variant digits, cut 0 in the lowest digit (the layout produced
    by :func:`repro.cutting.variants.variant_digits`).  ``k = 0`` means the
    term never crosses the cut and the tables are scalars in disguise.
    """
    k = int(n_cuts)
    m_flat = np.asarray(m_table, dtype=np.float64).reshape(-1)
    r_flat = np.asarray(r_table, dtype=np.float64).reshape(-1)
    if m_flat.shape != (4 ** k,) or r_flat.shape != (4 ** k,):
        raise ValueError(
            f"fragment tables must have 4^{k} entries, got "
            f"{m_flat.shape[0]} and {r_flat.shape[0]}")
    if k == 0:
        return float(m_flat[0] * r_flat[0])
    # Integer index labels: cut q's measurement index is q, its preparation
    # index is k + q.  reshape((4,)*k) puts digit k-1 on axis 0 and digit 0
    # on the last axis, so the table axes are labelled highest cut first.
    m_axes = tuple(range(k - 1, -1, -1))
    s_axes = tuple(range(2 * k - 1, k - 1, -1))
    c = coefficient_matrix()
    tensors = [Tensor(m_flat.reshape((4,) * k), m_axes)]
    tensors.extend(Tensor(c, (q, k + q)) for q in range(k))
    tensors.append(Tensor(r_flat.reshape((4,) * k), s_axes))
    value = contract_network(TensorNetwork(tensors)).data.item()
    return float(value) * 0.5 ** k


def recombine_terms(weights: Sequence[float], m_tables: np.ndarray,
                    r_tables: np.ndarray, n_cuts: int) -> float:
    """Weighted sum of :func:`recombine_term` over all cost terms.

    ``m_tables`` / ``r_tables`` are ``(n_terms, 4^k)`` stacks; returns
    ``Σ_t w_t ⟨t⟩``.
    """
    m_stack = np.atleast_2d(np.asarray(m_tables, dtype=np.float64))
    r_stack = np.atleast_2d(np.asarray(r_tables, dtype=np.float64))
    if len(weights) != m_stack.shape[0] or len(weights) != r_stack.shape[0]:
        raise ValueError("one fragment table pair is required per term")
    return float(sum(
        w * recombine_term(m_stack[t], r_stack[t], n_cuts)
        for t, w in enumerate(weights)))
