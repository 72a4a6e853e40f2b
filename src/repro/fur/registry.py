"""Backend registry and the ``repro.simulator`` construction facade.

The paper's portability claim (Listings 1–3: identical user code across CPU,
GPU and distributed backends) is carried by a single extension point:

* :class:`BackendSpec` — capability metadata for one backend family: the
  mixers it implements, its device class, whether it is distributed, its
  capability tier (``full`` vs ``expectation-only`` vs ``amplitude-only`` —
  see :mod:`repro.fur.capabilities`), and a priority used to resolve
  ``backend="auto"``;
* :class:`BackendRegistry` — name/alias resolution, capability filtering and
  lazy loading over a set of specs;
* :func:`register_backend` — decorator through which backends self-register a
  lazy loader (the optional GPU/MPI families are only imported when first
  requested, so a missing optional dependency never breaks ``import repro``);
* :func:`simulator` — the one construction facade (re-exported as
  ``repro.simulator``) used by :func:`repro.qaoa.get_qaoa_objective`, the
  examples and the benchmark harness.

Typical use::

    import repro

    sim = repro.simulator(12, terms=terms)                  # fastest available
    sim = repro.simulator(12, terms=terms, backend="python")
    sim = repro.simulator(12, terms=terms, mixer="xyring")  # XY-ring mixer

Registering a new backend from outside the package::

    from repro.fur.registry import register_backend

    @register_backend("mybackend", mixers=("x",), device="cpu", priority=5)
    def _load_mybackend():
        from mypkg import MySimulator
        return {"x": MySimulator}

Installed third-party packages can skip the import-time registration call
entirely by advertising a :class:`BackendSpec` in the ``repro.fur.backends``
setuptools entry-point group; :func:`load_entry_point_backends` scans the
group once at ``repro.fur`` import time.
"""

from __future__ import annotations

import difflib
import inspect
import warnings
from collections.abc import Callable, Iterable
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

import numpy as np

from .capabilities import (
    UnsupportedCapabilityError,
    resolve_capability_tier,
    tier_supports,
)
from .precision import KNOWN_PRECISIONS, resolve_precision

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .base import QAOAFastSimulatorBase

__all__ = [
    "BackendSpec",
    "BackendRegistry",
    "UnsupportedBackendKwargError",
    "registry",
    "register_backend",
    "get_backend",
    "get_simulator_class",
    "available_backends",
    "simulator",
    "load_entry_point_backends",
    "ENTRY_POINT_GROUP",
]

#: setuptools entry-point group scanned for third-party backend specs.
ENTRY_POINT_GROUP = "repro.fur.backends"

#: Mixer families defined by the paper (transverse-field X, ring XY, complete XY).
KNOWN_MIXERS = ("x", "xyring", "xycomplete")

#: Backend names that no longer exist, mapped to the backend that replaced
#: them.  An unknown-backend error names the replacement instead of guessing
#: a look-alike; these are not aliases and construct nothing.
RETIRED_BACKENDS = {"numba": "jit"}

#: Loader signature: zero-argument callable returning mixer -> simulator class.
BackendLoader = Callable[[], dict[str, type]]


class UnsupportedBackendKwargError(TypeError):
    """A constructor kwarg was passed to a backend that does not accept it.

    Raised by the :func:`simulator` facade at resolution time — before the
    backend constructor runs — so a mis-targeted kwarg (``n_shards`` on a
    non-sharded backend, ``n_ranks`` outside the distributed pair, ...) surfaces
    as a typed error naming the backend and the backends that *do* accept
    the kwarg, instead of leaking the constructor's raw ``TypeError``.
    Subclasses ``TypeError`` so existing ``except TypeError`` call sites
    keep working.
    """


def _unexpected_constructor_kwargs(cls: type, kwargs: dict) -> list[str]:
    """Kwargs the backend class's constructor signature cannot bind.

    The constructor signature is authoritative (registry metadata is only
    used to phrase the error message).  A constructor taking ``**kwargs``
    validates its own keywords, so nothing is flagged for it; signatures
    that cannot be introspected are skipped the same way.
    """
    try:
        sig = inspect.signature(cls.__init__)
    except (TypeError, ValueError):  # pragma: no cover - C-level __init__
        return []
    params = sig.parameters
    if any(p.kind is inspect.Parameter.VAR_KEYWORD for p in params.values()):
        return []
    accepted = {name for name, p in params.items()
                if p.kind in (inspect.Parameter.POSITIONAL_OR_KEYWORD,
                              inspect.Parameter.KEYWORD_ONLY)}
    return sorted(k for k in kwargs if k not in accepted)


@dataclass
class BackendSpec:
    """Capability metadata plus a lazy loader for one backend family.

    Parameters
    ----------
    name:
        Canonical backend name (``"jit"``, ``"python"``, ``"gpu"``, ...).
    loader:
        Zero-argument callable returning ``{mixer_name: simulator_class}``.
        Called at most once on success; import errors are remembered so the
        ``auto`` resolution can skip unavailable backends cheaply.
    aliases:
        Alternative names accepted wherever a backend name is (QOKit
        compatibility names like ``"nbcuda"`` live here).
    mixers:
        Mixer names the family implements.
    device:
        Device class the state vector lives on (``"cpu"`` or ``"gpu"``).
    distributed:
        Whether the backend spreads the state over multiple ranks.  The
        ``auto`` resolution never picks a distributed backend implicitly.
    precisions:
        Simulation precisions the family implements (``"double"`` and/or
        ``"single"`` — see :mod:`repro.fur.precision`).  Defaults to
        double-only; backends must opt in to the complex64 path.
    capabilities:
        Capability tier (see :mod:`repro.fur.capabilities`): ``"full"``
        (statevector + expectation + amplitude), ``"expectation-only"``
        or ``"amplitude-only"``.  Resolution validates requests against it
        and ``auto`` only ever picks full-tier backends.
    priority:
        Resolution order for ``backend="auto"`` — highest available priority
        wins.
    description:
        One-line human-readable summary (shown by ``describe()``).
    describe_extra:
        Optional zero-argument callable returning one extra runtime-state
        line for ``describe()`` (e.g. the ``jit`` family reports which
        implementation path is live and its effective thread count).
        Evaluated lazily, only when ``describe()`` is called.
    constructor_kwargs:
        Keyword arguments the family's simulator constructors accept beyond
        ``(n_qubits, terms, costs)`` — introspection *metadata* used by the
        :func:`simulator` facade to point a mis-targeted kwarg at the
        backends that do accept it (the constructors' signatures stay
        authoritative for what actually binds).
    """

    name: str
    loader: BackendLoader
    aliases: tuple[str, ...] = ()
    mixers: tuple[str, ...] = ("x",)
    device: str = "cpu"
    distributed: bool = False
    precisions: tuple[str, ...] = ("double",)
    capabilities: str = "full"
    priority: int = 0
    description: str = ""
    describe_extra: Callable[[], str] | None = None
    constructor_kwargs: tuple[str, ...] = ()
    _classes: dict[str, type] | None = field(default=None, repr=False)
    _load_error: BaseException | None = field(default=None, repr=False)

    def supports_mixer(self, mixer: str) -> bool:
        """Whether this family implements the given mixer."""
        return mixer in self.mixers

    def supports_precision(self, precision: str) -> bool:
        """Whether this family implements the given simulation precision."""
        return resolve_precision(precision).name in self.precisions

    def supports_capability(self, operation: str) -> bool:
        """Whether the family's tier serves one operation
        (``"statevector"``, ``"expectation"`` or ``"amplitude"``)."""
        return tier_supports(self.capabilities, operation)

    @property
    def available(self) -> bool:
        """Whether the backend's modules import successfully (cached)."""
        try:
            self.load()
        except Exception:
            return False
        return True

    def load(self) -> dict[str, type]:
        """Import the backend and return its mixer -> class mapping (cached)."""
        if self._classes is not None:
            return self._classes
        if self._load_error is not None:
            raise self._load_error
        try:
            classes = dict(self.loader())
        except Exception as exc:  # remember failures: auto must skip fast.
            # KeyboardInterrupt and friends propagate unmemoized so an
            # interrupted slow import can be retried later.
            self._load_error = exc
            raise
        missing = [m for m in self.mixers if m not in classes]
        if missing:
            raise RuntimeError(
                f"backend {self.name!r} declared mixers {sorted(missing)} "
                "but its loader did not provide them"
            )
        self._classes = classes
        return classes

    def simulator_class(self, mixer: str = "x") -> type[QAOAFastSimulatorBase]:
        """The simulator class for one mixer (loading the backend if needed)."""
        if not self.supports_mixer(mixer):
            raise ValueError(
                f"backend {self.name!r} does not implement the {mixer!r} mixer "
                f"(it implements: {', '.join(self.mixers)})"
            )
        return self.load()[mixer]


class BackendRegistry:
    """Name/alias resolution and capability filtering over backend specs."""

    def __init__(self) -> None:
        self._specs: dict[str, BackendSpec] = {}
        self._aliases: dict[str, str] = {}

    # -- registration --------------------------------------------------------
    def register(self, spec: BackendSpec, *, overwrite: bool = False) -> BackendSpec:
        """Add a backend spec; rejects name/alias collisions unless ``overwrite``."""
        if not overwrite:
            taken = self._specs.keys() | self._aliases.keys()
            clashes = {spec.name, *spec.aliases} & taken
            if clashes:
                raise ValueError(
                    f"backend name(s) already registered: {sorted(clashes)}"
                )
        if "auto" in (spec.name, *spec.aliases):
            raise ValueError("'auto' is reserved for automatic backend resolution")
        if spec.name in self._specs:  # overwrite: drop the old spec's aliases
            self.unregister(spec.name)
        self._specs[spec.name] = spec
        for alias in spec.aliases:
            self._aliases[alias] = spec.name
        return spec

    def unregister(self, name: str) -> None:
        """Remove a backend and its aliases (used by tests and plugins)."""
        spec = self._specs.pop(name, None)
        if spec is None:
            raise KeyError(f"backend {name!r} is not registered")
        for alias in spec.aliases:
            if self._aliases.get(alias) == name:
                del self._aliases[alias]

    def register_backend(self, name: str, *, aliases: Iterable[str] = (),
                         mixers: Iterable[str] = ("x",), device: str = "cpu",
                         distributed: bool = False,
                         precisions: Iterable[str] = ("double",),
                         capabilities: str = "full",
                         priority: int = 0,
                         description: str = "",
                         describe_extra: Callable[[], str] | None = None,
                         constructor_kwargs: Iterable[str] = (),
                         overwrite: bool = False) -> Callable[[BackendLoader], BackendLoader]:
        """Decorator form of :meth:`register` for a lazy loader function.

        The decorated function is the backend's loader: called once, on first
        use, and must return ``{mixer_name: simulator_class}``.
        """

        def decorate(loader: BackendLoader) -> BackendLoader:
            self.register(
                BackendSpec(
                    name=name,
                    loader=loader,
                    aliases=tuple(aliases),
                    mixers=tuple(mixers),
                    device=device,
                    distributed=distributed,
                    precisions=tuple(resolve_precision(p).name for p in precisions),
                    capabilities=resolve_capability_tier(capabilities),
                    priority=priority,
                    description=description or (loader.__doc__ or "").strip().split("\n")[0],
                    describe_extra=describe_extra,
                    constructor_kwargs=tuple(constructor_kwargs),
                ),
                overwrite=overwrite,
            )
            return loader

        return decorate

    # -- inspection ----------------------------------------------------------
    def names(self) -> list[str]:
        """Canonical backend names, highest resolution priority first."""
        return sorted(self._specs, key=lambda n: -self._specs[n].priority)

    def aliases(self) -> dict[str, str]:
        """Alias -> canonical-name mapping (copy)."""
        return dict(self._aliases)

    def __contains__(self, name: str) -> bool:
        return name in self._specs or name in self._aliases

    def __iter__(self):
        return iter(self.names())

    def describe(self) -> str:
        """Human-readable table of registered backends and capabilities."""
        lines = []
        for name in self.names():
            spec = self._specs[name]
            tags = [spec.device, spec.capabilities]
            if spec.distributed:
                tags.append("distributed")
            alias_note = f" (aliases: {', '.join(spec.aliases)})" if spec.aliases else ""
            lines.append(
                f"{name:>10}  [{'/'.join(tags)}] mixers={','.join(spec.mixers)} "
                f"precisions={','.join(spec.precisions)} "
                f"priority={spec.priority}{alias_note}  {spec.description}"
            )
            if spec.describe_extra is not None:
                try:
                    extra = spec.describe_extra()
                except Exception as exc:  # introspection must never raise
                    extra = f"(describe_extra failed: {exc!r})"
                lines.append(f"{'':>10}  {extra}")
        return "\n".join(lines)

    def backends_accepting_kwarg(self, kwarg: str) -> list[str]:
        """Canonical names of backends whose constructors accept ``kwarg``.

        Driven by the registrations' ``constructor_kwargs`` metadata; listed
        highest resolution priority first (like :meth:`names`).
        """
        return [name for name in self.names()
                if kwarg in self._specs[name].constructor_kwargs]

    def _unsupported_kwarg_error(self, backend: str, cls: type,
                                 unexpected: list[str]) -> UnsupportedBackendKwargError:
        """Build the typed error for constructor kwargs the backend rejects."""
        accepted = sorted(
            name for name, p in inspect.signature(cls.__init__).parameters.items()
            if name not in ("self", "n_qubits", "terms", "costs")
            and p.kind in (inspect.Parameter.POSITIONAL_OR_KEYWORD,
                           inspect.Parameter.KEYWORD_ONLY)
        )
        parts = [
            f"backend {backend!r} does not accept constructor "
            f"{'kwargs' if len(unexpected) > 1 else 'kwarg'} "
            f"{', '.join(repr(k) for k in unexpected)}"
        ]
        if accepted:
            parts.append(f"it accepts: {', '.join(accepted)}")
        for kwarg in unexpected:
            takers = [n for n in self.backends_accepting_kwarg(kwarg)
                      if n != backend]
            if takers:
                parts.append(
                    f"backends accepting {kwarg!r}: {', '.join(takers)}")
        return UnsupportedBackendKwargError("; ".join(parts))

    # -- resolution ----------------------------------------------------------
    def _unknown_backend_error(self, name: str) -> ValueError:
        successor = RETIRED_BACKENDS.get(name)
        if successor is not None:
            return ValueError(f"simulator backend {name!r} was retired; "
                              f"use {successor!r}")
        canonical = sorted(self._specs)
        aliases = sorted(self._aliases)
        message = (
            f"unknown simulator backend {name!r}; "
            f"backends: {', '.join(canonical)}; "
            f"aliases: {', '.join(aliases)}; "
            "or 'auto' to pick the fastest available"
        )
        close = difflib.get_close_matches(name, canonical + aliases + ["auto"], n=3)
        if close:
            message += f". Did you mean {' or '.join(repr(c) for c in close)}?"
        return ValueError(message)

    def spec(self, name: str) -> BackendSpec:
        """Look up a spec by canonical name or alias (no import triggered)."""
        canonical = self._aliases.get(name, name)
        try:
            return self._specs[canonical]
        except KeyError:
            raise self._unknown_backend_error(name) from None

    def resolve(self, name: str = "auto", *, mixer: str | None = None,
                precision: str | None = None,
                capability: str | None = None) -> BackendSpec:
        """Resolve a backend request to a concrete, importable spec.

        With ``name="auto"``, the highest-priority non-distributed backend
        that imports successfully (and implements ``mixer`` and
        ``precision``, if given) is chosen — so a broken optional dependency
        silently falls back to the next-fastest family instead of failing
        construction.  ``capability`` names the operation the caller needs
        (``"statevector"``, ``"expectation"`` or ``"amplitude"``): ``auto``
        filters candidates by it (and restricts to the ``full`` tier when it
        is omitted), while an explicitly named backend that cannot serve it
        raises :class:`~repro.fur.capabilities.UnsupportedCapabilityError`.
        """
        if precision is not None:
            precision = resolve_precision(precision).name
        if name == "auto":
            if mixer is not None and not any(
                s.supports_mixer(mixer) for s in self._specs.values()
            ):
                known = sorted({m for s in self._specs.values() for m in s.mixers})
                raise ValueError(
                    f"unknown mixer {mixer!r}; registered backends implement: "
                    f"{', '.join(known)}"
                )
            candidates = [
                s for s in map(self._specs.__getitem__, self.names())
                if not s.distributed
                and (s.supports_capability(capability) if capability is not None
                     else s.capabilities == "full")
                and (mixer is None or s.supports_mixer(mixer))
                and (precision is None or s.supports_precision(precision))
            ]
            errors: list[str] = []
            for spec in candidates:
                if spec.available:
                    return spec
                errors.append(f"{spec.name}: {spec._load_error!r}")
            detail = f" (load failures: {'; '.join(errors)})" if errors else ""
            wanted = []
            if mixer is not None:
                wanted.append(f"the {mixer!r} mixer")
            if precision is not None:
                wanted.append(f"{precision!r} precision")
            raise RuntimeError(
                f"no available backend implements {' with '.join(wanted)}{detail}"
                if wanted
                else f"no simulator backend is available{detail}"
            )
        spec = self.spec(name)
        if capability is not None and not spec.supports_capability(capability):
            supporting = sorted(s.name for s in self._specs.values()
                                if s.supports_capability(capability))
            raise UnsupportedCapabilityError(
                f"backend {spec.name!r} is {spec.capabilities!r} and cannot "
                f"serve {capability!r} requests (backends implementing "
                f"{capability!r}: {', '.join(supporting) or 'none'})"
            )
        if mixer is not None and not spec.supports_mixer(mixer):
            supporting = [s.name for s in self._specs.values() if s.supports_mixer(mixer)]
            raise ValueError(
                f"backend {spec.name!r} does not implement the {mixer!r} mixer "
                f"(it implements: {', '.join(spec.mixers)}; "
                f"backends implementing {mixer!r}: {', '.join(sorted(supporting)) or 'none'})"
            )
        if precision is not None and not spec.supports_precision(precision):
            supporting = [s.name for s in self._specs.values()
                          if s.supports_precision(precision)]
            raise ValueError(
                f"backend {spec.name!r} does not implement {precision!r} precision "
                f"(it implements: {', '.join(spec.precisions)}; "
                f"backends implementing {precision!r}: "
                f"{', '.join(sorted(supporting)) or 'none'})"
            )
        return spec

    def simulator_class(self, name: str = "auto", mixer: str = "x",
                        precision: str | None = None) -> type[QAOAFastSimulatorBase]:
        """Resolve and load the simulator class for a backend/mixer pair."""
        return self.resolve(name, mixer=mixer,
                            precision=precision).simulator_class(mixer)


#: The process-wide registry all public entry points consult.
registry = BackendRegistry()

#: Module-level decorator bound to the process-wide registry.
register_backend = registry.register_backend


# ---------------------------------------------------------------------------
# Third-party backend discovery via setuptools entry points.
# ---------------------------------------------------------------------------

def _iter_entry_points(group: str) -> list:
    """All installed entry points of one group (compatible across py3.10+)."""
    from importlib import metadata

    try:
        return list(metadata.entry_points(group=group))
    except TypeError:  # pragma: no cover - legacy dict-shaped API
        return list(metadata.entry_points().get(group, []))


def load_entry_point_backends(target: BackendRegistry | None = None, *,
                              group: str = ENTRY_POINT_GROUP) -> list[str]:
    """Discover and register third-party backends from setuptools entry points.

    An external package advertises a backend by declaring an entry point in
    the ``repro.fur.backends`` group whose target is either a
    :class:`BackendSpec` instance or a zero-argument callable returning one::

        [project.entry-points."repro.fur.backends"]
        mybackend = "mypkg.qaoa:backend_spec"

    This function is called once at ``repro.fur`` import time (after the
    built-in families register), so installed plugins are resolvable by name
    through ``repro.simulator(..., backend="mybackend")``.  The module that
    *carries* the spec is imported during the scan (keep it lightweight);
    the spec's ``loader`` stays lazy as for built-ins, so the simulator
    implementation itself is only imported when the backend is first used.
    A broken plugin (import error, bad spec, name collision with an existing
    backend) is skipped with a ``RuntimeWarning`` rather than breaking
    ``import repro``.

    Returns the canonical names that were registered.
    """
    reg = registry if target is None else target
    registered: list[str] = []
    for ep in _iter_entry_points(group):
        try:
            obj = ep.load()
            spec = obj() if not isinstance(obj, BackendSpec) and callable(obj) else obj
            if not isinstance(spec, BackendSpec):
                raise TypeError(
                    f"entry point must provide a BackendSpec (or a callable "
                    f"returning one), got {type(spec).__name__}"
                )
            reg.register(spec)
            registered.append(spec.name)
        except Exception as exc:
            warnings.warn(
                f"skipping third-party simulator backend {ep.name!r} "
                f"from entry-point group {group!r}: {exc!r}",
                RuntimeWarning,
                stacklevel=2,
            )
    return registered


def get_backend(name: str = "auto", *, mixer: str | None = None,
                precision: str | None = None,
                capability: str | None = None) -> BackendSpec:
    """Resolve a backend name/alias to its :class:`BackendSpec`.

    This is the introspection companion of :func:`simulator`: it exposes the
    capability metadata (supported mixers, precisions, capability tier,
    device class, distributed-ness) without constructing anything.
    """
    return registry.resolve(name, mixer=mixer, precision=precision,
                            capability=capability)


def get_simulator_class(name: str = "auto", mixer: str = "x",
                        precision: str | None = None) -> type[QAOAFastSimulatorBase]:
    """The simulator class registered for a backend/mixer pair."""
    return registry.simulator_class(name, mixer, precision=precision)


def available_backends(*, mixer: str | None = None,
                       precision: str | None = None,
                       capability: str | None = None,
                       importable_only: bool = False) -> list[str]:
    """Names of registered backends, optionally filtered by capability.

    ``mixer`` restricts to families implementing that mixer; ``precision``
    to families implementing that simulation precision; ``capability`` to
    families whose tier serves that operation (``"statevector"``,
    ``"expectation"`` or ``"amplitude"``); ``importable_only`` additionally
    imports each candidate and drops the ones whose optional dependencies
    are missing.
    """
    if precision is not None:
        precision = resolve_precision(precision).name
    names = []
    for name in sorted(registry.names()):
        spec = registry.spec(name)
        if mixer is not None and not spec.supports_mixer(mixer):
            continue
        if precision is not None and not spec.supports_precision(precision):
            continue
        if capability is not None and not spec.supports_capability(capability):
            continue
        if importable_only and not spec.available:
            continue
        names.append(name)
    return names


def simulator(n_qubits: int,
              terms: Iterable[tuple[float, Iterable[int]]] | None = None,
              costs: np.ndarray | None = None, *,
              backend: str | type | Any = "auto",
              mixer: str = "x",
              precision: str | None = None,
              optimize: str | None = None,
              **simulator_kwargs: Any) -> QAOAFastSimulatorBase:
    """Construct a fast QAOA simulator — the package's single entry point.

    Parameters
    ----------
    n_qubits:
        Number of qubits.
    terms:
        Cost polynomial as ``(weight, indices)`` pairs.  Mutually exclusive
        with ``costs``.
    costs:
        Precomputed cost diagonal (skips precomputation).
    backend:
        Registry name or alias (``"auto"``, ``"c"``, ``"python"``, ``"gpu"``,
        ``"gpumpi"``, ``"cusvmpi"``, ...), a simulator *class*, or an
        already-constructed simulator instance (returned unchanged).
        ``"auto"`` picks the highest-priority available backend implementing
        the requested mixer and precision.
    mixer:
        ``"x"`` (transverse field), ``"xyring"`` or ``"xycomplete"``.
    precision:
        ``"double"`` (complex128 state, the default when unspecified) or
        ``"single"`` (complex64 state: ~2x the memory bandwidth, half the
        state memory, expectation values within the single-precision error
        envelope — see the README's Precision section).  When omitted, an
        already-constructed simulator instance passes through at whatever
        precision it was built with; an explicit value must match it.
    optimize:
        ``"default"`` (plan-rewrite optimizer passes enabled — the default
        when unspecified) or ``"none"`` (compiled execution plans keep the
        unrewritten op stream; the pinned baseline of the parity harness).
        Per-call overridable on the batched entry points.
    simulator_kwargs:
        Forwarded to the backend constructor (e.g. ``n_shards`` for the
        ``sharded`` family, ``n_ranks`` for the distributed families).
    """
    from .base import QAOAFastSimulatorBase  # deferred: base imports first
    from .rewrite import resolve_optimize

    spec_precision = resolve_precision(precision)
    if optimize is not None:
        optimize = resolve_optimize(optimize)
    if isinstance(backend, QAOAFastSimulatorBase):
        # An unspecified precision passes the instance through at whatever
        # precision it was built with; only an explicit request is checked.
        if precision is not None and spec_precision.name != backend.precision:
            raise ValueError(
                f"simulator instance runs at {backend.precision!r} precision "
                f"but {spec_precision.name!r} was requested; construct a new "
                "simulator instead of passing an instance"
            )
        if optimize is not None and optimize != backend.optimize:
            raise ValueError(
                f"simulator instance runs at optimize={backend.optimize!r} "
                f"but {optimize!r} was requested; construct a new simulator "
                "instead of passing an instance (or override per call)"
            )
        return backend
    if isinstance(backend, str):
        cls = registry.simulator_class(backend, mixer,
                                       precision=spec_precision.name)
    elif isinstance(backend, type) and issubclass(backend, QAOAFastSimulatorBase):
        cls = backend
    else:
        raise TypeError(
            "backend must be a registry name, a QAOAFastSimulatorBase subclass "
            f"or instance; got {backend!r}"
        )
    if not spec_precision.is_double:
        # Only forwarded when non-default so third-party simulator classes
        # without a ``precision`` keyword keep working through the facade.
        simulator_kwargs["precision"] = spec_precision.name
    if optimize is not None and optimize != "default":
        # Same convention as ``precision``: only a non-default level is
        # forwarded, so classes without an ``optimize`` keyword keep working.
        simulator_kwargs["optimize"] = optimize
    # Validate backend-specific kwargs before the constructor runs, so a
    # mis-targeted kwarg raises the typed registry error (naming the
    # backends that do accept it) instead of the constructor's TypeError.
    unexpected = _unexpected_constructor_kwargs(cls, simulator_kwargs)
    if unexpected:
        backend_name = getattr(cls, "backend_name", None) or (
            backend if isinstance(backend, str) else cls.__name__)
        raise registry._unsupported_kwarg_error(backend_name, cls, unexpected)
    return cls(n_qubits, terms=terms, costs=costs, **simulator_kwargs)
