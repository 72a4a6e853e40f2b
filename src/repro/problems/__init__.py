"""Optimization problems used in the paper's evaluation.

Submodules
----------
``terms``
    The polynomial-over-spins cost-function representation (Eq. 1) plus
    reference (brute-force) evaluators.
``maxcut``
    MaxCut terms and graph generators (Fig. 2 and Listing 1 workloads).
``labs``
    Low Autocorrelation Binary Sequences problem (Figs. 3–5 workloads).
``portfolio``
    Mean-variance portfolio optimization for the XY-mixer (constrained) path.
"""

from . import labs, maxcut, portfolio, terms
from .terms import TermsPolynomial

__all__ = ["terms", "maxcut", "labs", "portfolio", "TermsPolynomial"]
