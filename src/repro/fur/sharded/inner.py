"""Inner kernel providers: which single-shard kernels run inside each slab.

The sharded backend owns the slicing, the worker pool and the slab
exchanges; the arithmetic *inside* a shard is delegated to an existing
kernel family so the compiled single-pass tier, the precision paths and the
cache-blocked traversal all come free:

* ``"jit"`` — the single-pass tier of :mod:`repro.fur.jit.kernels` (numba or
  runtime-compiled C when live, its numpy kernels otherwise): phase + every
  X butterfly of a layer per cache-sized tile.
* ``"c"`` — the allocation-free blocked NumPy kernels of
  :mod:`repro.fur.cvect.kernels` (not the ``c`` backend, which is the jit
  tier): one blocked SU(2) sweep per qubit.  Its pair update is
  position-independent, which is what makes results bitwise-invariant under
  the shard count — the inner of the shard-count invariance tests, and the
  fixed inner of the distributed ``gpumpi``/``cusvmpi`` backends
  (:mod:`repro.fur.mpi`).
* ``"python"`` — the gemm-grouped NumPy kernels of
  :mod:`repro.fur.python.furx` (allocating; the portable fallback).
* ``"auto"`` (default) — ``jit`` when its compiled path is live, else ``c``.

Adapters normalize the per-slab call surface: a batched phase sweep, a
batched all-local X sweep, and the fused phase+X sweep.  XY edge rotations
and expectation reductions are position-based and shared by all inners (see
:mod:`repro.fur.sharded.qaoa_simulator`), so they are not part of this
protocol.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from ..cvect.kernels import (
    KernelWorkspace,
    apply_phase_batch_inplace,
    apply_su2_batch_blocked,
)

__all__ = ["InnerProvider", "resolve_inner", "INNER_NAMES"]

INNER_NAMES = ("auto", "jit", "c", "python")


class InnerProvider:
    """Per-slab kernel adapter; subclasses bind one kernel family."""

    name: str = "base"

    def warm(self, dtype: np.dtype, n_local: int) -> float:
        """Prepare kernels for one slab signature; returns compile seconds."""
        return 0.0

    def phase_block(self, block_s: np.ndarray, gammas: np.ndarray, *,
                    costs: np.ndarray, table: Any,
                    workspace: KernelWorkspace) -> None:
        """Batched phase sweep ``row_r *= exp(-i γ_r c_slice)`` on one slab."""
        raise NotImplementedError

    def furx_sweep(self, block_s: np.ndarray, betas: np.ndarray,
                   a_rows: np.ndarray, b_rows: np.ndarray, *, n_local: int,
                   workspace: KernelWorkspace) -> None:
        """Rotate every local bit position of one slab (the all-local X sweep)."""
        raise NotImplementedError

    def furx_phase_sweep(self, block_s: np.ndarray, gammas: np.ndarray,
                         betas: np.ndarray, a_rows: np.ndarray,
                         b_rows: np.ndarray, *, n_local: int,
                         costs: np.ndarray, table: Any,
                         workspace: KernelWorkspace) -> None:
        """Fused phase + all-local X sweep (default: phase, then sweep)."""
        self.phase_block(block_s, gammas, costs=costs, table=table,
                         workspace=workspace)
        self.furx_sweep(block_s, betas, a_rows, b_rows, n_local=n_local,
                        workspace=workspace)


class _CInner(InnerProvider):
    """Blocked cvect kernels: zero-allocation, shard-count-invariant."""

    name = "c"

    def phase_block(self, block_s, gammas, *, costs, table, workspace):
        apply_phase_batch_inplace(block_s, costs, gammas, workspace,
                                  phase_table=table)

    def furx_sweep(self, block_s, betas, a_rows, b_rows, *, n_local,
                   workspace):
        del betas
        for pos in range(n_local):
            apply_su2_batch_blocked(block_s, a_rows, b_rows, pos, workspace)


class _PythonInner(InnerProvider):
    """Gemm-grouped NumPy X sweep (allocates its own ping-pong scratch)."""

    name = "python"

    def phase_block(self, block_s, gammas, *, costs, table, workspace):
        apply_phase_batch_inplace(block_s, costs, gammas, workspace,
                                  phase_table=table)

    def furx_sweep(self, block_s, betas, a_rows, b_rows, *, n_local,
                   workspace):
        del a_rows, b_rows, workspace
        from ..python.furx import furx_all_batch

        furx_all_batch(block_s, betas, n_local)


class _JitInner(InnerProvider):
    """Single-pass tier: phase + every butterfly of a layer per cache tile."""

    name = "jit"

    def warm(self, dtype, n_local):
        from ..jit import kernels

        return kernels.ensure_kernels(dtype, n_local, "x")

    def phase_block(self, block_s, gammas, *, costs, table, workspace):
        del workspace
        from ..jit import kernels

        kernels.phase_block(block_s, gammas, phase_table=table, costs=costs)

    def furx_sweep(self, block_s, betas, a_rows, b_rows, *, n_local,
                   workspace):
        del a_rows, b_rows, n_local, workspace
        from ..jit import kernels

        kernels.furx_block(block_s, betas)

    def furx_phase_sweep(self, block_s, gammas, betas, a_rows, b_rows, *,
                         n_local, costs, table, workspace):
        del a_rows, b_rows, n_local, workspace
        from ..jit import kernels

        kernels.furx_phase_block(block_s, gammas, betas, phase_table=table,
                                 costs=costs)


_INNERS = {"c": _CInner, "python": _PythonInner, "jit": _JitInner}


def resolve_inner(name: str = "auto") -> InnerProvider:
    """Resolve an inner-provider name to an adapter instance.

    ``"auto"`` probes the jit tier's fallback ladder: a live compiled path
    (numba or the runtime-compiled C library) wins, the numpy rung falls
    back to the blocked ``c`` kernels, which update each slab in place (jit's
    *numpy* rung would allocate a gemm scratch slab per call).
    """
    key = str(name).lower()
    if key not in INNER_NAMES:
        raise ValueError(
            f"unknown inner provider {name!r}; available: {INNER_NAMES}")
    if key == "auto":
        from ..jit import kernels

        key = "jit" if kernels.active_path() != "numpy" else "c"
    return _INNERS[key]()
