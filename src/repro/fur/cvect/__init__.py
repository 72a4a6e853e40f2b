"""Cache-blocked, allocation-free NumPy kernels.

The shard-count-invariant ``inner="c"`` kernels of the sharded family
(``sharded``, ``gpumpi``, ``cusvmpi``) and part of the simulated-GPU
backend's numerics.  The ``c`` backend name itself resolves to the ``jit``
tier, whose ``cc`` rung is the paper's compiled-C backend.
"""

from .kernels import (
    DEFAULT_BLOCK_SIZE,
    KernelWorkspace,
    apply_phase_inplace,
    apply_su2_blocked,
    expectation_inplace,
    furx_all_blocked,
    furxy_blocked,
)

__all__ = [
    "DEFAULT_BLOCK_SIZE",
    "KernelWorkspace",
    "apply_phase_inplace",
    "apply_su2_blocked",
    "expectation_inplace",
    "furx_all_blocked",
    "furxy_blocked",
]
