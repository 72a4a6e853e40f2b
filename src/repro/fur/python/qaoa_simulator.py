"""Portable NumPy QAOA simulators (the paper's ``python`` backend).

Each class implements Algorithm 3: the cost diagonal is precomputed once (in
the constructor, via the base class), and each layer applies

1. the phase operator as an element-wise multiplication of the state vector
   with ``exp(-i γ_l · c)``, and
2. the mixer via the fast uniform SU(2) kernels (Algorithms 1–2) or their XY
   extensions.

The three classes differ only in the mixer (transverse-field X, XY-ring,
XY-complete), mirroring QOKit's simulator families.

:meth:`simulate_qaoa` is the reference loop, one layer at a time over the
single-vector kernels (:func:`~repro.fur.python.furx.furx_all`,
:func:`~repro.fur.python.furxy.furxy_ring`,
:func:`~repro.fur.python.furxy.furxy_complete` and the direct phase), and
stays the parity reference of every backend.  Batched evaluation runs the
shared execution engine (:mod:`repro.fur.engine`) through the host-block
hooks of :mod:`repro.fur.jit.qaoa_simulator`, over the NumPy block tier
:mod:`repro.fur.python.kernels` — the same kernels as the ``jit`` backend's
``numpy`` rung, so nothing here builds or loads the C library.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import Any

import numpy as np

from ..base import QAOAFastSimulatorBase, validate_angles
from ..jit.qaoa_simulator import HostBlockHooks, XMixerHooks, XYMixerHooks
from . import kernels
from .furx import direct_phase_batch, furx_all
from .furxy import furxy_complete, furxy_ring

__all__ = [
    "QAOAFURXSimulator",
    "QAOAFURXYRingSimulator",
    "QAOAFURXYCompleteSimulator",
]


class _QAOAFURPythonSimulatorBase(HostBlockHooks, QAOAFastSimulatorBase):
    """Shared host-NumPy reference loop; subclasses supply the mixer."""

    backend_name = "python"
    _kernels = kernels

    def _apply_mixer(self, sv: np.ndarray, beta: float, n_trotters: int) -> None:
        raise NotImplementedError

    def _apply_phase(self, sv: np.ndarray, gamma: float) -> None:
        """Phase operator: ``sv[x] *= exp(-i γ c[x])`` (Algorithm 3, line 4).

        The factors are evaluated in double from the float64 diagonal and
        rounded once to the state's precision.
        """
        direct_phase_batch(sv[None, :], np.array([gamma]), self._costs)

    def simulate_qaoa(self, gammas: Sequence[float], betas: Sequence[float],
                      sv0: np.ndarray | None = None, *, n_trotters: int = 1,
                      **kwargs: Any) -> np.ndarray:
        """Evolve the initial state through ``p`` QAOA layers.

        Parameters
        ----------
        gammas, betas:
            The QAOA angles (equal length ``p``); layer ``l`` applies
            ``exp(-i β_l M) exp(-i γ_l C)``.
        sv0:
            Optional initial state (defaults to ``|+>^n``).
        n_trotters:
            Number of Trotter slices used per mixer application by the XY
            mixers (ignored by the X mixer, whose factors commute exactly).

        Returns
        -------
        numpy.ndarray
            The evolved state vector (the backend's *result* object).
        """
        if kwargs:
            raise TypeError(f"unexpected keyword arguments: {sorted(kwargs)}")
        if n_trotters < 1:
            raise ValueError("n_trotters must be at least 1")
        g, b = validate_angles(gammas, betas)
        sv = self._validate_sv0(sv0)
        for gamma, beta in zip(g, b):
            self._apply_phase(sv, float(gamma))
            self._apply_mixer(sv, float(beta), n_trotters)
        return sv


class QAOAFURXSimulator(XMixerHooks, _QAOAFURPythonSimulatorBase):
    """QAOA with the transverse-field mixer ``exp(-i β Σ_i X_i)`` (NumPy)."""

    def _apply_mixer(self, sv: np.ndarray, beta: float, n_trotters: int) -> None:
        # The X-mixer factors commute, so Trotterization is exact and unused.
        furx_all(sv, beta, self._n_qubits)


class QAOAFURXYRingSimulator(XYMixerHooks, _QAOAFURPythonSimulatorBase):
    """QAOA with the ring XY mixer (Hamming-weight preserving, NumPy)."""

    mixer_name = "xyring"
    _xy_kind = "ring"

    def _apply_mixer(self, sv: np.ndarray, beta: float, n_trotters: int) -> None:
        for _ in range(n_trotters):
            furxy_ring(sv, beta / n_trotters, self._n_qubits)


class QAOAFURXYCompleteSimulator(XYMixerHooks, _QAOAFURPythonSimulatorBase):
    """QAOA with the complete-graph XY mixer (Hamming-weight preserving, NumPy)."""

    mixer_name = "xycomplete"
    _xy_kind = "complete"

    def _apply_mixer(self, sv: np.ndarray, beta: float, n_trotters: int) -> None:
        for _ in range(n_trotters):
            furxy_complete(sv, beta / n_trotters, self._n_qubits)
