"""Fast QAOA simulators exploiting the precomputed diagonal cost operator.

This package is the reproduction of the paper's core contribution (QOKit's
``qokit.fur``).  It exposes

* :class:`~repro.fur.base.QAOAFastSimulatorBase` — the low-level simulation
  API shared by all backends (including batched evaluation,
  ``simulate_qaoa_batch``);
* the backend simulator families (``python``, ``c``, ``gpu``, ``gpumpi``,
  ``cusvmpi``, ``gates``, ``tensornet``), one class per mixer type per
  backend;
* the backend registry (:mod:`repro.fur.registry`): every family registers
  itself with capability metadata (supported mixers, device class,
  distributed-ness, capability tier, ``auto`` priority), and
  :func:`repro.simulator` / :func:`get_backend` /
  :func:`get_simulator_class` resolve names, aliases and capabilities
  through it — including the tier (``full`` vs ``expectation-only``), so an
  amplitude-less family like tensornet is constructible by name but never
  chosen for a statevector-shaped request;
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
    CompressedDiagonal,
    DiagonalPhaseTable,
    build_phase_table,
    compress_diagonal,
    diagonal_memory_bytes,
    diagonal_memory_overhead,
    precompute_cost_diagonal,
    precompute_cost_diagonal_from_function,
    precompute_cost_diagonal_slice,
)
from .capabilities import (
    CAPABILITY_OPERATIONS,
    CAPABILITY_TIERS,
    UnsupportedCapabilityError,
    require_capability,
    resolve_capability_tier,
    tier_supports,
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
from .cvect import (
    QAOAFURXSimulatorC,
    QAOAFURXYCompleteSimulatorC,
    QAOAFURXYRingSimulatorC,
)
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
    "CompressedDiagonal",
    "compress_diagonal",
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
    "QAOAFURXSimulatorC",
    "QAOAFURXYRingSimulatorC",
    "QAOAFURXYCompleteSimulatorC",
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
    "CAPABILITY_TIERS",
    "CAPABILITY_OPERATIONS",
    "UnsupportedBackendKwargError",
    "UnsupportedCapabilityError",
    "require_capability",
    "resolve_capability_tier",
    "tier_supports",
    "SIMULATORS",
]


# ---------------------------------------------------------------------------
# Built-in backend registrations.  CPU families are imported eagerly above;
# the simulated-GPU and distributed families stay lazy so a missing optional
# dependency never breaks `import repro`.
# ---------------------------------------------------------------------------

@register_backend("c", aliases=("cpu",), mixers=("x", "xyring", "xycomplete"),
                  device="cpu", distributed=False,
                  precisions=("double", "single"),
                  priority=100,
                  constructor_kwargs=("block_size", "precision", "optimize"),
                  description="cache-blocked, allocation-free CPU kernels")
def _load_c_backend() -> dict[str, type[QAOAFastSimulatorBase]]:
    return {
        "x": QAOAFURXSimulatorC,
        "xyring": QAOAFURXYRingSimulatorC,
        "xycomplete": QAOAFURXYCompleteSimulatorC,
    }


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


def _jit_dynamic_priority() -> int:
    """``auto`` rank of the jit tier: above ``c`` only when compiled.

    ``active_path()`` is a cheap cached probe of the numba → compiled-C →
    numpy fallback ladder.  With a compiled path live the fused single-pass
    kernels beat every other CPU family, so jit outranks ``c`` (100); on the
    numpy delegation rung it keeps its static rank below ``c`` — numpy
    delegation is just the python kernels with extra indirection.
    """
    from .jit import kernels

    return 150 if kernels.active_path() != "numpy" else 60


@register_backend("jit", aliases=("numba",), mixers=("x", "xyring", "xycomplete"),
                  device="cpu", distributed=False,
                  precisions=("double", "single"),
                  priority=60,
                  dynamic_priority=_jit_dynamic_priority,
                  constructor_kwargs=("precision", "optimize"),
                  description="single-pass cache-blocked fused kernels "
                              "(numba; compiled-C/numpy fallback ladder)",
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
    """Runtime-state line for ``describe()``: shard/worker/inner resolution."""
    from .sharded import shard_report

    return shard_report()


@register_backend("sharded", aliases=("multidevice",),
                  mixers=("x", "xyring", "xycomplete"),
                  device="cpu", distributed=False,
                  precisions=("double", "single"),
                  priority=40,
                  constructor_kwargs=("n_shards", "n_workers", "inner",
                                      "block_size", "precision", "optimize"),
                  description="in-process sharded backend: global/local qubit "
                              "slabs, worker pool, coalesced slab swaps",
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
                  constructor_kwargs=("device", "device_spec", "block_size",
                                      "precision", "optimize"),
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
                  constructor_kwargs=("n_ranks", "alltoall_algorithm", "block_size",
                                      "parallel_local", "precision", "optimize"),
                  description="distributed GPU backend (custom Alltoall, Algorithm 4)")
def _load_gpumpi_backend() -> dict[str, type[QAOAFastSimulatorBase]]:
    from .mpi import QAOAFURXSimulatorGPUMPI

    return {"x": QAOAFURXSimulatorGPUMPI}


@register_backend("cusvmpi", aliases=("custatevec",), mixers=("x",), device="gpu",
                  distributed=True, precisions=("double", "single"),
                  priority=10,
                  constructor_kwargs=("n_ranks", "block_size", "parallel_local",
                                      "precision", "optimize"),
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


@register_backend("tensornet", aliases=("tn",), mixers=("x",),
                  device="cpu", distributed=False,
                  precisions=("double",),
                  capabilities="expectation-only",
                  priority=1,
                  constructor_kwargs=("precision", "optimize", "width_heuristic"),
                  description="tensor-network contraction baseline "
                              "(expectation-only; cuTensorNet/QTensor analogue)")
def _load_tensornet_backend() -> dict[str, type[QAOAFastSimulatorBase]]:
    from ..tensornet.backend import QAOATensorNetworkSimulator

    return {"x": QAOATensorNetworkSimulator}


# ---------------------------------------------------------------------------
# Backwards-compatible views of the registry.
# ---------------------------------------------------------------------------

def __getattr__(name: str):
    # Legacy registry views, computed on access so backends registered (or
    # unregistered) after import time stay visible.  New code should use
    # :data:`registry` instead.
    if name == "SIMULATORS":
        # backend name -> loader returning mixer -> class (the v1.0 shape)
        return {n: registry.spec(n).load for n in registry.names()}
    if name == "_ALIASES":
        # alias -> canonical name; ``auto`` is handled by the registry's
        # priority-based resolution rather than a hard-wired alias.
        return registry.aliases()
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


# Third-party backends advertised through the ``repro.fur.backends``
# entry-point group register after the built-ins (a plugin clashing with a
# built-in name is skipped with a warning, never the other way around).
# This runs last so a plugin's spec-carrier module importing ``repro.fur``
# sees the fully-initialized module.
load_entry_point_backends()
