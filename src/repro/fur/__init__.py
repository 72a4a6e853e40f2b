"""Fast QAOA simulators exploiting the precomputed diagonal cost operator.

This package is the reproduction of the paper's core contribution (QOKit's
``qokit.fur``).  It exposes

* :class:`~repro.fur.base.QAOAFastSimulatorBase` — the low-level simulation
  API shared by all backends (including batched evaluation,
  ``simulate_qaoa_batch``);
* the backend simulator families (``python``, ``jit`` — alias ``c`` —,
  ``sharded``, ``gpu``, ``gpumpi``, ``cusvmpi``, ``gates``), one class per
  mixer type per backend, every one a full state-vector simulator;
* the backend registry (:mod:`repro.fur.registry`): every family registers
  itself with its metadata (supported mixers and precisions, device class,
  distributed-ness, ``auto`` priority), and :func:`repro.simulator` /
  :func:`get_backend` / :func:`get_simulator_class` resolve names, aliases,
  mixers and precisions through it;
* the process-wide diagonal cache (:mod:`repro.fur.cache`): repeated
  construction for the same problem reuses the precomputed cost vector.
"""

from __future__ import annotations

from .base import (
    DEFAULT_BATCH_MEMORY_BUDGET,
    QAOAFastSimulatorBase,
    batch_block_rows,
    dicke_state,
    uniform_superposition,
)
from .precision import (
    KNOWN_PRECISIONS,
    PrecisionSpec,
    resolve_precision,
)
from .cache import (
    DiagonalCache,
    cached_cost_diagonal,
    diagonal_cache,
    problem_fingerprint,
)
from .diagonal import (
    DiagonalPhaseTable,
    build_phase_table,
    diagonal_memory_bytes,
    diagonal_memory_overhead,
    precompute_cost_diagonal,
    precompute_cost_diagonal_from_function,
    precompute_cost_diagonal_slice,
)
from .registry import (
    ENTRY_POINT_GROUP,
    BackendRegistry,
    BackendSpec,
    UnsupportedBackendKwargError,
    available_backends,
    get_backend,
    get_simulator_class,
    load_entry_point_backends,
    register_backend,
    registry,
    simulator,
)
from .engine import (
    ExecutionEngine,
    ExecutionPlan,
    EngineStats,
    ExpectationOp,
    FusedMixerExpectationOp,
    FusedPhaseMixerOp,
    KernelProvider,
    MixerOp,
    PhaseOp,
)
from .rewrite import (
    OPTIMIZE_LEVELS,
    PASSES,
    CoalesceExchanges,
    FuseMixerIntoExpectation,
    FusePhaseIntoMixer,
    RewritePass,
    RewriteReport,
    resolve_optimize,
    run_passes,
)
from .costmodel import PlanCostModel
from .python import (
    QAOAFURXSimulator,
    QAOAFURXYCompleteSimulator,
    QAOAFURXYRingSimulator,
)

__all__ = [
    "QAOAFastSimulatorBase",
    "uniform_superposition",
    "dicke_state",
    "batch_block_rows",
    "DEFAULT_BATCH_MEMORY_BUDGET",
    "PrecisionSpec",
    "resolve_precision",
    "KNOWN_PRECISIONS",
    "DiagonalPhaseTable",
    "build_phase_table",
    "precompute_cost_diagonal",
    "precompute_cost_diagonal_slice",
    "precompute_cost_diagonal_from_function",
    "diagonal_memory_bytes",
    "diagonal_memory_overhead",
    "DiagonalCache",
    "diagonal_cache",
    "cached_cost_diagonal",
    "problem_fingerprint",
    "QAOAFURXSimulator",
    "QAOAFURXYRingSimulator",
    "QAOAFURXYCompleteSimulator",
    "BackendRegistry",
    "BackendSpec",
    "registry",
    "register_backend",
    "get_backend",
    "get_simulator_class",
    "simulator",
    "available_backends",
    "load_entry_point_backends",
    "ENTRY_POINT_GROUP",
    "ExecutionEngine",
    "ExecutionPlan",
    "EngineStats",
    "KernelProvider",
    "PhaseOp",
    "MixerOp",
    "FusedPhaseMixerOp",
    "FusedMixerExpectationOp",
    "ExpectationOp",
    "OPTIMIZE_LEVELS",
    "resolve_optimize",
    "RewritePass",
    "RewriteReport",
    "FusePhaseIntoMixer",
    "CoalesceExchanges",
    "FuseMixerIntoExpectation",
    "PASSES",
    "run_passes",
    "PlanCostModel",
    "UnsupportedBackendKwargError",
]


# ---------------------------------------------------------------------------
# Built-in backend registrations.  CPU families are imported eagerly above;
# the simulated-GPU and distributed families stay lazy so a missing optional
# dependency never breaks `import repro`.
# ---------------------------------------------------------------------------

@register_backend("python", aliases=("numpy",), mixers=("x", "xyring", "xycomplete"),
                  device="cpu", distributed=False,
                  precisions=("double", "single"),
                  priority=50,
                  constructor_kwargs=("precision", "optimize"),
                  description="portable NumPy reference implementation")
def _load_python_backend() -> dict[str, type[QAOAFastSimulatorBase]]:
    return {
        "x": QAOAFURXSimulator,
        "xyring": QAOAFURXYRingSimulator,
        "xycomplete": QAOAFURXYCompleteSimulator,
    }


def _jit_describe_extra() -> str:
    """Runtime-state line for ``describe()``: live path + thread count."""
    from .jit import kernels

    path = kernels.active_path()
    note = ""
    if path == "cc" and kernels.compiler_info():
        note = f" compiler={kernels.compiler_info()}"
    return (f"path={path} threads={kernels.effective_num_threads()}{note} "
            f"(REPRO_NUM_THREADS/REPRO_JIT_PATH honored)")


# ``c``/``cpu`` name the paper's compiled-C backend: the jit tier's ``cc`` rung.
@register_backend("jit", aliases=("c", "cpu"),
                  mixers=("x", "xyring", "xycomplete"),
                  device="cpu", distributed=False,
                  precisions=("double", "single"),
                  priority=100,
                  constructor_kwargs=("precision", "optimize"),
                  description="single-pass cache-blocked fused kernels "
                              "(compiled C, numpy fallback)",
                  describe_extra=_jit_describe_extra)
def _load_jit_backend() -> dict[str, type[QAOAFastSimulatorBase]]:
    from .jit import (
        QAOAFURXSimulatorJIT,
        QAOAFURXYCompleteSimulatorJIT,
        QAOAFURXYRingSimulatorJIT,
    )

    return {
        "x": QAOAFURXSimulatorJIT,
        "xyring": QAOAFURXYRingSimulatorJIT,
        "xycomplete": QAOAFURXYCompleteSimulatorJIT,
    }


def _sharded_describe_extra() -> str:
    """Runtime-state line for ``describe()``: shard count and pool threads."""
    from .sharded import shard_report

    return shard_report()


@register_backend("sharded", aliases=("multidevice",),
                  mixers=("x", "xyring", "xycomplete"),
                  device="cpu", distributed=False,
                  precisions=("double", "single"),
                  priority=40,
                  constructor_kwargs=("n_shards", "precision", "optimize"),
                  description="in-process sharded backend: global/local qubit "
                              "slabs on the jit row pool, coalesced slab swaps",
                  describe_extra=_sharded_describe_extra)
def _load_sharded_backend() -> dict[str, type[QAOAFastSimulatorBase]]:
    from .sharded import (
        QAOAFURXSimulatorSharded,
        QAOAFURXYCompleteSimulatorSharded,
        QAOAFURXYRingSimulatorSharded,
    )

    return {
        "x": QAOAFURXSimulatorSharded,
        "xyring": QAOAFURXYRingSimulatorSharded,
        "xycomplete": QAOAFURXYCompleteSimulatorSharded,
    }


@register_backend("gpu", aliases=("nbcuda",), mixers=("x", "xyring", "xycomplete"),
                  device="gpu", distributed=False,
                  precisions=("double", "single"),
                  priority=30,
                  constructor_kwargs=("device", "device_spec", "precision",
                                      "optimize"),
                  description="simulated-GPU backend (numba-CUDA analogue)")
def _load_gpu_backend() -> dict[str, type[QAOAFastSimulatorBase]]:
    from .simgpu import (
        QAOAFURXSimulatorGPU,
        QAOAFURXYCompleteSimulatorGPU,
        QAOAFURXYRingSimulatorGPU,
    )

    return {
        "x": QAOAFURXSimulatorGPU,
        "xyring": QAOAFURXYRingSimulatorGPU,
        "xycomplete": QAOAFURXYCompleteSimulatorGPU,
    }


@register_backend("gpumpi", mixers=("x",), device="gpu", distributed=True,
                  precisions=("double", "single"),
                  priority=20,
                  constructor_kwargs=("n_ranks", "alltoall_algorithm",
                                      "precision", "optimize"),
                  description="distributed GPU backend (custom Alltoall, Algorithm 4)")
def _load_gpumpi_backend() -> dict[str, type[QAOAFastSimulatorBase]]:
    from .mpi import QAOAFURXSimulatorGPUMPI

    return {"x": QAOAFURXSimulatorGPUMPI}


@register_backend("cusvmpi", aliases=("custatevec",), mixers=("x",), device="gpu",
                  distributed=True, precisions=("double", "single"),
                  priority=10,
                  constructor_kwargs=("n_ranks", "precision", "optimize"),
                  description="distributed index-bit-swap backend (cuStateVec analogue)")
def _load_cusvmpi_backend() -> dict[str, type[QAOAFastSimulatorBase]]:
    from .mpi import QAOAFURXSimulatorCUSVMPI

    return {"x": QAOAFURXSimulatorCUSVMPI}


@register_backend("gates", aliases=("statevector",),
                  mixers=("x", "xyring", "xycomplete"),
                  device="cpu", distributed=False,
                  precisions=("double", "single"),
                  priority=5,
                  constructor_kwargs=("mixer", "phase_strategy", "dtype",
                                      "precision", "optimize"),
                  description="gate-by-gate state-vector baseline "
                              "(Qiskit/cuStateVec analogue)")
def _load_gates_backend() -> dict[str, type[QAOAFastSimulatorBase]]:
    from ..gates.qaoa import (
        QAOAGateBasedXSimulator,
        QAOAGateBasedXYCompleteSimulator,
        QAOAGateBasedXYRingSimulator,
    )

    return {
        "x": QAOAGateBasedXSimulator,
        "xyring": QAOAGateBasedXYRingSimulator,
        "xycomplete": QAOAGateBasedXYCompleteSimulator,
    }


# Third-party backends advertised through the ``repro.fur.backends``
# entry-point group register after the built-ins (a plugin clashing with a
# built-in name is skipped with a warning, never the other way around).
# This runs last so a plugin's spec-carrier module importing ``repro.fur``
# sees the fully-initialized module.
load_entry_point_backends()
