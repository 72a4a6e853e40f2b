"""The ``jit`` backend: single-pass cache-blocked fused kernels.

See :mod:`repro.fur.jit.kernels` for the dual-path (compiled-C / numpy)
kernel implementations and :mod:`repro.fur.jit.qaoa_simulator` for the
:class:`~repro.fur.engine.KernelProvider` classes registered under the
``jit`` backend name (aliases ``c`` and ``cpu``).
"""

from .kernels import (
    active_path,
    effective_num_threads,
    ensure_kernels,
    requested_num_threads,
)
from .qaoa_simulator import (
    QAOAFURXSimulatorJIT,
    QAOAFURXYCompleteSimulatorJIT,
    QAOAFURXYRingSimulatorJIT,
)

__all__ = [
    "active_path",
    "effective_num_threads",
    "requested_num_threads",
    "ensure_kernels",
    "QAOAFURXSimulatorJIT",
    "QAOAFURXYRingSimulatorJIT",
    "QAOAFURXYCompleteSimulatorJIT",
]
