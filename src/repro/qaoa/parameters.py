"""QAOA parameter initialization and transfer strategies.

QOKit ships pre-optimized parameters for its benchmark problems; this module
provides the substitute: the standard parameter-setting
strategies from the QAOA literature that the simulator's optimization workflow
starts from —

* **linear ramp / TQA initialization** (Sack & Serbyn, the reference the paper
  discusses in its Sec. VII comparison): γ ramps up, β ramps down along the
  schedule, which approximates a Trotterized quantum annealing path;
* **INTERP extrapolation** (Zhou et al.): good parameters at depth ``p`` are
  linearly interpolated to seed depth ``p+1``, the workhorse for reaching the
  high depths the simulator targets;
* **Fourier parameterization** helpers, which represent the schedules by a few
  low-frequency coefficients.

All functions return ``(gammas, betas)`` pairs ready to pass to
``simulate_qaoa``.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "linear_ramp_parameters",
    "tqa_initialization",
    "random_initialization",
    "interp_extrapolate",
    "fourier_to_schedule",
    "schedule_to_fourier",
    "stack_parameters",
    "split_parameters",
]


def linear_ramp_parameters(p: int, *, delta_t: float = 0.75,
                           gamma_scale: float = 1.0,
                           beta_scale: float = 1.0) -> tuple[np.ndarray, np.ndarray]:
    """Linear-ramp schedule: γ_l grows, β_l shrinks linearly over the p layers.

    ``delta_t`` plays the role of the annealing time step; the defaults follow
    the common choice Δt ≈ 0.75 which works well for MaxCut- and LABS-like
    problems at moderate depth.
    """
    if p <= 0:
        raise ValueError("p must be positive")
    steps = (np.arange(p) + 0.5) / p
    gammas = gamma_scale * delta_t * steps
    betas = beta_scale * delta_t * (1.0 - steps)
    return gammas, betas


def tqa_initialization(p: int, total_time: float | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Trotterized-quantum-annealing initialization (Sack & Serbyn).

    The annealing time defaults to ``0.75 * p``, which keeps the per-layer
    angles in the regime where the Trotter error stays benign.
    """
    if p <= 0:
        raise ValueError("p must be positive")
    if total_time is None:
        total_time = 0.75 * p
    dt = total_time / p
    steps = (np.arange(p) + 0.5) / p
    return dt * steps, dt * (1.0 - steps)


def random_initialization(p: int, *, seed: int | None = None,
                          gamma_range: float = np.pi,
                          beta_range: float = np.pi / 2) -> tuple[np.ndarray, np.ndarray]:
    """Uniform random angles (the baseline initialization in ablation studies)."""
    if p <= 0:
        raise ValueError("p must be positive")
    rng = np.random.default_rng(seed)
    return rng.uniform(0, gamma_range, p), rng.uniform(0, beta_range, p)


def interp_extrapolate(gammas: np.ndarray, betas: np.ndarray,
                       new_p: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """INTERP strategy: extend a depth-p schedule to depth ``new_p`` (default p+1).

    The optimized angles at depth p are treated as samples of a smooth schedule
    and linearly interpolated onto the finer grid, preserving the endpoints.
    """
    gammas = np.atleast_1d(np.asarray(gammas, dtype=np.float64))
    betas = np.atleast_1d(np.asarray(betas, dtype=np.float64))
    if gammas.shape != betas.shape or gammas.ndim != 1:
        raise ValueError("gammas and betas must be 1-D arrays of equal length")
    p = gammas.shape[0]
    if new_p is None:
        new_p = p + 1
    if new_p < p:
        raise ValueError("INTERP can only extend schedules, not shrink them")
    if new_p == p:
        return gammas.copy(), betas.copy()
    old_grid = (np.arange(p) + 0.5) / p
    new_grid = (np.arange(new_p) + 0.5) / new_p
    return (np.interp(new_grid, old_grid, gammas),
            np.interp(new_grid, old_grid, betas))


def fourier_to_schedule(u: np.ndarray, v: np.ndarray, p: int) -> tuple[np.ndarray, np.ndarray]:
    """FOURIER parameterization: build (γ, β) schedules from q coefficients.

    γ_l = Σ_m u_m sin((m+1/2)(l+1/2)π/p),  β_l = Σ_m v_m cos((m+1/2)(l+1/2)π/p).
    """
    u = np.atleast_1d(np.asarray(u, dtype=np.float64))
    v = np.atleast_1d(np.asarray(v, dtype=np.float64))
    if u.shape != v.shape:
        raise ValueError("u and v must have the same length")
    l = np.arange(p) + 0.5
    m = np.arange(u.shape[0]) + 0.5
    phases = np.outer(l, m) * np.pi / p
    return np.sin(phases) @ u, np.cos(phases) @ v


def schedule_to_fourier(gammas: np.ndarray, betas: np.ndarray,
                        q: int) -> tuple[np.ndarray, np.ndarray]:
    """Least-squares fit of a schedule by ``q`` Fourier coefficients."""
    gammas = np.atleast_1d(np.asarray(gammas, dtype=np.float64))
    betas = np.atleast_1d(np.asarray(betas, dtype=np.float64))
    p = gammas.shape[0]
    if q <= 0 or q > p:
        raise ValueError(f"q must be in [1, p], got {q}")
    l = np.arange(p) + 0.5
    m = np.arange(q) + 0.5
    phases = np.outer(l, m) * np.pi / p
    u, *_ = np.linalg.lstsq(np.sin(phases), gammas, rcond=None)
    v, *_ = np.linalg.lstsq(np.cos(phases), betas, rcond=None)
    return u, v


def stack_parameters(gammas: np.ndarray, betas: np.ndarray) -> np.ndarray:
    """Concatenate (γ, β) into the single flat vector optimizers work with."""
    gammas = np.atleast_1d(np.asarray(gammas, dtype=np.float64))
    betas = np.atleast_1d(np.asarray(betas, dtype=np.float64))
    if gammas.shape != betas.shape:
        raise ValueError("gammas and betas must have the same length")
    return np.concatenate([gammas, betas])


def split_parameters(theta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Split a flat parameter vector back into (γ, β)."""
    theta = np.atleast_1d(np.asarray(theta, dtype=np.float64))
    if theta.shape[0] % 2 != 0:
        raise ValueError("flat parameter vector must have even length (γ then β)")
    p = theta.shape[0] // 2
    return theta[:p].copy(), theta[p:].copy()
