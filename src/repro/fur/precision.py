"""Precision as a first-class simulation capability (double / single).

The paper's central performance argument is that statevector QAOA simulation
is *memory-bandwidth bound*: the phase and mixer kernels stream the full
``(2^n,)`` (or fused ``(B, 2^n)``) state on every layer, so the bytes per
amplitude set the layer time almost directly.  Halving the amplitude width —
``complex64`` instead of ``complex128`` — is therefore a ~2x bandwidth win
and doubles the problem size (or batch width) that fits a fixed memory
budget.

This module defines the precision vocabulary threaded through every backend:

* :class:`PrecisionSpec` — one named precision: the complex dtype of the
  state vector;
* :data:`DOUBLE` / :data:`SINGLE` — the two supported precisions
  (``complex128`` and ``complex64``);
* :func:`resolve_precision` — permissive normalization of user spellings
  (``"single"``, ``"fp32"``, ``np.complex64``, ...) to a spec.

Numerical policy (pinned by the test-suite): the *state* and the *phase
factors* follow the selected precision; nothing else does.  The cost
diagonal is the same float64 vector (plus, for repetitive diagonals, the
``uint16`` phase-table index) at both precisions: phase angles are computed
in double and each factor is rounded once to the state's precision, and
expectation values square the amplitudes and accumulate in ``float64`` —
reductions over 2^n float32 partial products would otherwise lose digits
the bandwidth saving does not pay for.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "PrecisionSpec",
    "DOUBLE",
    "SINGLE",
    "KNOWN_PRECISIONS",
    "resolve_precision",
]


@dataclass(frozen=True)
class PrecisionSpec:
    """One named simulation precision and its state dtype."""

    #: canonical name ("double" or "single")
    name: str
    #: dtype of state-vector amplitudes
    complex_dtype: np.dtype

    @property
    def complex_itemsize(self) -> int:
        """Bytes per state-vector amplitude (16 for double, 8 for single)."""
        return int(self.complex_dtype.itemsize)

    @property
    def is_double(self) -> bool:
        """Whether this is the full-precision default."""
        return self.name == "double"


DOUBLE = PrecisionSpec("double", np.dtype(np.complex128))
SINGLE = PrecisionSpec("single", np.dtype(np.complex64))

#: Canonical precision names, default first.
KNOWN_PRECISIONS: tuple[str, ...] = (DOUBLE.name, SINGLE.name)

#: Accepted spellings -> canonical spec.
_ALIASES: dict[str, PrecisionSpec] = {
    "double": DOUBLE,
    "fp64": DOUBLE,
    "complex128": DOUBLE,
    "float64": DOUBLE,
    "single": SINGLE,
    "fp32": SINGLE,
    "complex64": SINGLE,
    "float32": SINGLE,
}


def resolve_precision(precision: str | np.dtype | type | PrecisionSpec | None
                      ) -> PrecisionSpec:
    """Normalize any accepted precision spelling to a :class:`PrecisionSpec`.

    Accepts the canonical names (``"double"``/``"single"``), common aliases
    (``"fp64"``, ``"complex64"``, ...), NumPy dtypes or scalar types
    (``np.complex64``, ``np.dtype("float32")``), an existing spec (returned
    unchanged) and ``None`` (the double-precision default).
    """
    if precision is None:
        return DOUBLE
    if isinstance(precision, PrecisionSpec):
        return precision
    if isinstance(precision, str):
        spec = _ALIASES.get(precision.strip().lower())
        if spec is not None:
            return spec
        raise ValueError(
            f"unknown precision {precision!r}; expected one of "
            f"{sorted(set(_ALIASES))}"
        )
    try:
        name = np.dtype(precision).name
    except TypeError:
        raise ValueError(
            f"precision must be a name, dtype or PrecisionSpec; got {precision!r}"
        ) from None
    spec = _ALIASES.get(name)
    if spec is None:
        raise ValueError(
            f"dtype {name!r} does not map to a simulation precision; "
            f"use complex128/float64 (double) or complex64/float32 (single)"
        )
    return spec
