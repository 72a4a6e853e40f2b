"""QAOA objective factories over any simulator backend (the Fig. 1 loop).

The quantity tuned during QAOA parameter optimization is
``E(γ, β) = <γβ|Ĉ|γβ>`` (or, alternatively, the overlap with the ground
state).  :func:`get_qaoa_objective` builds a plain callable
``f(theta) -> float`` over any of the simulator backends, with bookkeeping of
evaluation counts and best-seen values, so the optimization drivers and the
benchmark harness can treat every backend identically — which is exactly the
comparison behind the paper's headline "11× faster parameter optimization"
claim.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from ..fur.base import QAOAFastSimulatorBase, validate_angles
from ..fur.registry import simulator as _construct_simulator
from .parameters import split_parameters

__all__ = ["EvaluationBookkeepingMixin", "QAOAObjective", "get_qaoa_objective",
           "make_simulator"]


def make_simulator(n_qubits: int,
                   terms: Iterable[tuple[float, Iterable[int]]] | None = None,
                   costs: np.ndarray | None = None, *,
                   backend: str | type[QAOAFastSimulatorBase] = "auto",
                   mixer: str = "x", **simulator_kwargs: Any) -> QAOAFastSimulatorBase:
    """Instantiate a simulator from a backend name or class.

    A thin wrapper over the :func:`repro.simulator` facade, kept for
    compatibility: ``backend`` may be a registry name or alias (``auto``,
    ``python``, ``jit``/``c``, ``gpu``, ``gpumpi``, ``cusvmpi``), a simulator
    *class*, or an already-constructed simulator instance (returned
    unchanged).
    """
    return _construct_simulator(n_qubits, terms=terms, costs=costs,
                                backend=backend, mixer=mixer, **simulator_kwargs)


class EvaluationBookkeepingMixin:
    """Shared evaluation bookkeeping: count, history and best-seen tracking.

    Mixed into :class:`QAOAObjective` and the serving layer's
    :class:`repro.serve.ServedQAOAObjective` so every objective flavour keeps
    identical statistics.  The host class declares the ``n_evaluations``,
    ``best_value``, ``best_parameters`` and ``history`` fields (dataclass
    fields cannot live on a shared non-dataclass base).
    """

    def _record_evaluation(self, theta: np.ndarray, value: float) -> None:
        """Account one evaluation of the flat parameter vector ``theta``."""
        self.n_evaluations += 1
        self.history.append(float(value))
        if value < self.best_value:
            self.best_value = float(value)
            self.best_parameters = np.array(theta, dtype=np.float64, copy=True)

    def reset_statistics(self) -> None:
        """Clear the evaluation counters and history."""
        self.n_evaluations = 0
        self.best_value = np.inf
        self.best_parameters = None
        self.history.clear()


@dataclass
class QAOAObjective(EvaluationBookkeepingMixin):
    """Callable QAOA objective with evaluation bookkeeping.

    Calling the object with a flat parameter vector ``theta = (γ…, β…)``
    simulates the circuit on the configured backend and returns the objective
    value (expectation by default, negated overlap if configured so that the
    optimizer always minimizes).
    """

    simulator: QAOAFastSimulatorBase
    p: int
    objective: str = "expectation"
    sv0: np.ndarray | None = None
    simulate_kwargs: dict[str, Any] = field(default_factory=dict)
    #: memory budget (bytes) handed to the fused batch engines; ``None`` uses
    #: the backend default (larger batches are split into sub-batches)
    batch_memory_budget: float | None = None
    #: running statistics
    n_evaluations: int = 0
    best_value: float = np.inf
    best_parameters: np.ndarray | None = None
    history: list[float] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.p <= 0:
            raise ValueError("p must be positive")
        if self.objective not in ("expectation", "overlap"):
            raise ValueError("objective must be 'expectation' or 'overlap'")

    # -- evaluation ------------------------------------------------------------
    def evaluate(self, gammas: Sequence[float], betas: Sequence[float]) -> float:
        """Evaluate the objective for explicit (γ, β) schedules.

        The schedule is a one-row batch through the body of
        :meth:`evaluate_batch`: the same plan, reduction and bookkeeping.
        It calls that body, not the public method, so a subclass that
        instruments :meth:`evaluate_batch` sees only batches.
        """
        g, b = validate_angles(gammas, betas)
        if g.shape[0] != self.p:
            raise ValueError(
                f"parameter vector encodes p={g.shape[0]}, objective expects p={self.p}"
            )
        return float(self._evaluate_rows(np.concatenate([g, b])[None])[0])

    def evaluate_batch(self, thetas: np.ndarray) -> np.ndarray:
        """Evaluate the objective for a batch of flat parameter vectors.

        ``thetas`` is ``(B, 2p)`` shaped (a single vector is promoted to a
        batch of one); the returned array holds one objective value per row.
        Routes through the simulator's batched API and hence the shared
        execution engine (:mod:`repro.fur.engine`): every backend that
        implements the kernel-provider protocol — including the distributed
        ``gpumpi``/``cusvmpi`` families — evolves a ``(B, 2^n)`` state block
        through all layers at once under a cached execution plan, splitting
        batches that exceed :attr:`batch_memory_budget` into sub-batches.
        The usual bookkeeping (evaluation count, history, best-seen) is kept
        per row.  This is the natural entry point for population-based
        optimizers and parameter grid scans
        (:func:`repro.qaoa.grid_scan_qaoa`,
        :func:`repro.qaoa.population_optimize`).
        """
        arr = np.atleast_2d(np.asarray(thetas, dtype=np.float64))
        if arr.ndim != 2:
            raise ValueError("thetas must be a (batch, 2p) array")
        if arr.shape[1] != 2 * self.p:
            detail = (f"encode p={arr.shape[1] // 2}" if arr.shape[1] % 2 == 0
                      else "have odd length (no valid p)")
            raise ValueError(
                f"parameter vectors of length {arr.shape[1]} {detail}, "
                f"objective expects p={self.p}"
            )
        return self._evaluate_rows(arr)

    def _evaluate_rows(self, thetas: np.ndarray) -> np.ndarray:
        """Objective values of validated ``(B, 2p)`` rows, each recorded."""
        gammas_batch, betas_batch = thetas[:, :self.p], thetas[:, self.p:]
        if self.objective == "expectation":
            values = self.simulator.get_expectation_batch(
                gammas_batch, betas_batch, sv0=self.sv0,
                memory_budget=self.batch_memory_budget, **self.simulate_kwargs)
        else:
            # One simulate+reduce per row: never holds more than one evolved
            # state, so memory stays independent of the batch size.  The
            # *negated* overlap is returned so all objectives are minimized.
            values = np.array([
                -self.simulator.get_overlap(
                    self.simulator.simulate_qaoa(g, b, sv0=self.sv0,
                                                 **self.simulate_kwargs),
                    preserve_state=False)
                for g, b in zip(gammas_batch, betas_batch)
            ])
        for theta, value in zip(thetas, values):
            self._record_evaluation(theta, float(value))
        return values

    def __call__(self, theta: np.ndarray) -> float:
        return self.evaluate(*split_parameters(theta))


def get_qaoa_objective(n_qubits: int, p: int,
                       terms: Iterable[tuple[float, Iterable[int]]] | None = None,
                       costs: np.ndarray | None = None, *,
                       backend: str | type[QAOAFastSimulatorBase] | QAOAFastSimulatorBase = "auto",
                       mixer: str = "x", objective: str = "expectation",
                       sv0: np.ndarray | None = None,
                       simulate_kwargs: dict[str, Any] | None = None,
                       batch_memory_budget: float | None = None,
                       **simulator_kwargs: Any) -> QAOAObjective:
    """Build a :class:`QAOAObjective` for the given problem and backend.

    This is the one-line entry point mirroring QOKit's high-level API: the
    returned object is a plain callable suitable for ``scipy.optimize``.
    Simulator construction routes through the backend registry
    (:func:`repro.simulator`), and repeated calls for the same ``terms``
    reuse the process-wide precomputed-diagonal cache — rebuilding an
    objective per depth or per restart no longer repeats the O(2^n)
    precomputation.
    """
    simulator = make_simulator(n_qubits, terms=terms, costs=costs,
                               backend=backend, mixer=mixer, **simulator_kwargs)
    return QAOAObjective(simulator=simulator, p=p, objective=objective, sv0=sv0,
                         simulate_kwargs=dict(simulate_kwargs or {}),
                         batch_memory_budget=batch_memory_budget)
