"""Portable NumPy ("python") backend: FUR kernels and QAOA simulator classes.

The single-rotation kernels named exactly like their modules (``furx.furx``,
``furxy.furxy``) are deliberately *not* re-exported at package level so the
``repro.fur.python.furx`` / ``repro.fur.python.furxy`` module objects stay
importable; use the module-qualified names for those two.
"""

from . import furx, furxy, kernels
from .furx import apply_su2, furx_all, fwht_inplace, su2_x_rotation
from .furxy import (
    apply_xy_su2,
    complete_edges,
    furxy_complete,
    furxy_ring,
    ring_edges,
)
from .qaoa_simulator import (
    QAOAFURXSimulator,
    QAOAFURXYCompleteSimulator,
    QAOAFURXYRingSimulator,
)

__all__ = [
    "furx",
    "furxy",
    "kernels",
    "apply_su2",
    "furx_all",
    "fwht_inplace",
    "su2_x_rotation",
    "apply_xy_su2",
    "furxy_ring",
    "furxy_complete",
    "ring_edges",
    "complete_edges",
    "QAOAFURXSimulator",
    "QAOAFURXYRingSimulator",
    "QAOAFURXYCompleteSimulator",
]
