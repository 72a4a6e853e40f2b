"""Abstract base class shared by all fast QAOA simulator backends.

The paper's low-level simulation API (Sec. IV) is defined by the abstract
class ``qokit.fur.QAOAFastSimulatorBase``; this module is its counterpart.
The contract:

* the constructor receives the problem either as polynomial ``terms`` or as a
  precomputed ``costs`` diagonal, and performs (or ingests) the
  precomputation once;
* ``simulate_qaoa(gammas, betas)`` evolves the initial state through ``p``
  QAOA layers and returns a backend-specific *result* object (the evolved
  state in whatever memory space the backend uses);
* the ``get_*`` output methods accept the result object and always return CPU
  (NumPy) values, so user code is portable across backends, as emphasized in
  Listings 1–3 of the paper.

Backends differ in where the state vector lives (host NumPy array, simulated
GPU device array, per-shard slabs of the sharded family) and in how the mixer
kernels are executed; they share the phase-operator and objective-evaluation
logic, which is where the precomputed diagonal is reused.

Evaluation — one schedule (``simulate_qaoa``) or a batch
(``simulate_qaoa_batch`` / ``get_expectation_batch``) — is orchestrated
entirely by the shared execution engine (:mod:`repro.fur.engine`): every
backend implements the :class:`~repro.fur.engine.KernelProvider` protocol,
and a single schedule is just the engine's compiled one-row plan.  The
provider hooks (``_stage_block``, ``_apply_phase_block``,
``_apply_mixer_block``, ``_block_expectations``, ...) declared here are the
entire per-backend surface of that engine.  The objective has one reduction:
:meth:`get_expectation` views its result as a one-row block
(``_result_block``) and reduces it through the same ``_block_expectations``
the batch plans end in.
"""

from __future__ import annotations

import abc
import threading
from collections.abc import Iterable, Sequence
from typing import Any

import numpy as np

from ..problems.terms import Term, validate_terms
from .cache import cached_cost_diagonal
from .diagonal import DiagonalPhaseTable, build_phase_table
from .precision import PrecisionSpec, resolve_precision
from .rewrite import resolve_optimize

__all__ = [
    "QAOAFastSimulatorBase",
    "uniform_superposition",
    "dicke_state",
    "validate_angles",
    "validate_angle_batches",
    "batch_block_rows",
    "DEFAULT_BATCH_MEMORY_BUDGET",
    "MAX_STATE_BYTES",
]


def _readonly_view(arr: np.ndarray) -> np.ndarray:
    """A non-writeable view of ``arr`` (the array itself is left untouched)."""
    if not arr.flags.writeable:
        return arr
    view = arr.view()
    view.flags.writeable = False
    return view


def host_probabilities(sv: np.ndarray, preserve_state: bool = True) -> np.ndarray:
    """``|ψ_x|²`` of a host state as float64: ``re² + im²`` of the widened parts.

    The components are widened before squaring, so a complex64 state gets
    the exact float64 squares of its amplitudes.  With
    ``preserve_state=False`` a complex128 state's own buffer holds the
    squares (the state is overwritten).
    """
    if preserve_state or sv.dtype != np.complex128:
        return sv.real.astype(np.float64) ** 2 + sv.imag.astype(np.float64) ** 2
    re, im = sv.real, sv.imag
    np.square(re, out=re)
    np.square(im, out=im)
    np.add(re, im, out=re)
    return np.ascontiguousarray(re)


#: Default memory budget (bytes) for the fused batch engines: the scratch a
#: backend may spend on ``(B, 2^n)`` state blocks per sub-batch.  Larger
#: batches are transparently split into sub-batches that fit the budget.
DEFAULT_BATCH_MEMORY_BUDGET: int = 1 << 28  # 256 MiB

#: Largest state vector any backend will attempt, in bytes (256 GiB — the
#: historical n=34 complex128 ceiling).  Expressed in bytes rather than
#: qubits so single precision buys exactly one extra qubit, the "double the
#: problem size in the same memory" direction of the paper.
MAX_STATE_BYTES: int = 1 << 38


def batch_block_rows(batch_size: int, n_states: int,
                     memory_budget: float | None = None, *,
                     blocks: int = 2, itemsize: int = 16) -> int:
    """Rows of a ``(B, 2^n)`` complex block that fit the fused-batch budget.

    ``blocks`` is the number of full-width complex blocks the engine
    materializes simultaneously (e.g. 2 for a state block plus a ping-pong
    scratch) and ``itemsize`` the bytes per amplitude (16 for complex128,
    8 for complex64 — single precision fits twice the rows in the same
    budget).  Always returns at least 1 — a single schedule must be
    simulable regardless of the budget — and never more than ``batch_size``.
    """
    if batch_size <= 0:
        raise ValueError("batch_size must be positive")
    if blocks <= 0:
        raise ValueError("blocks must be positive")
    if itemsize <= 0:
        raise ValueError("itemsize must be positive")
    budget = DEFAULT_BATCH_MEMORY_BUDGET if memory_budget is None else float(memory_budget)
    if budget <= 0:
        raise ValueError("memory_budget must be positive")
    row_bytes = itemsize * n_states * blocks
    rows = int(budget // row_bytes)
    return max(1, min(int(batch_size), rows))


def uniform_superposition(n_qubits: int, dtype: np.dtype | type = np.complex128) -> np.ndarray:
    """The |+>^n initial state: every amplitude equal to 2^{-n/2}."""
    if n_qubits <= 0:
        raise ValueError("n_qubits must be positive")
    size = 1 << n_qubits
    sv = np.empty(size, dtype=dtype)
    sv.fill(1.0 / np.sqrt(size))
    return sv


def dicke_state(n_qubits: int, hamming_weight: int,
                dtype: np.dtype | type = np.complex128) -> np.ndarray:
    """Uniform superposition over all basis states of fixed Hamming weight.

    This is the natural initial state for the Hamming-weight-preserving XY
    mixers (e.g. the portfolio budget constraint): the XY mixer never leaves
    the weight sector the initial state occupies.
    """
    if not 0 <= hamming_weight <= n_qubits:
        raise ValueError(f"hamming weight {hamming_weight} out of range for n={n_qubits}")
    size = 1 << n_qubits
    idx = np.arange(size, dtype=np.uint64)
    mask = np.bitwise_count(idx) == hamming_weight
    count = int(mask.sum())
    sv = np.zeros(size, dtype=dtype)
    sv[mask] = 1.0 / np.sqrt(count)
    return sv


def validate_angles(gammas: Sequence[float] | np.ndarray,
                    betas: Sequence[float] | np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Validate and convert QAOA angle vectors; both must have the same length p."""
    g = np.atleast_1d(np.asarray(gammas, dtype=np.float64))
    b = np.atleast_1d(np.asarray(betas, dtype=np.float64))
    if g.ndim != 1 or b.ndim != 1:
        raise ValueError("gamma and beta must be one-dimensional sequences")
    if g.shape[0] != b.shape[0]:
        raise ValueError(
            f"gamma and beta must have the same length, got {g.shape[0]} and {b.shape[0]}"
        )
    if g.shape[0] == 0:
        raise ValueError("at least one QAOA layer is required")
    if not (np.all(np.isfinite(g)) and np.all(np.isfinite(b))):
        raise ValueError("QAOA angles must be finite")
    return g, b


def validate_angle_batches(gammas_batch: Sequence[Sequence[float]] | np.ndarray,
                           betas_batch: Sequence[Sequence[float]] | np.ndarray
                           ) -> tuple[np.ndarray, np.ndarray]:
    """Validate batched QAOA schedules; both must be (batch, p) shaped.

    Accepts ``(B, p)`` arrays or length-``B`` sequences of length-``p``
    schedules; a single 1-D schedule is promoted to a batch of one.
    """
    g = np.atleast_2d(np.asarray(gammas_batch, dtype=np.float64))
    b = np.atleast_2d(np.asarray(betas_batch, dtype=np.float64))
    if g.ndim != 2 or b.ndim != 2:
        raise ValueError("batched angles must be (batch, p) shaped")
    if g.shape != b.shape:
        raise ValueError(
            f"gamma and beta batches must have the same shape, got {g.shape} and {b.shape}"
        )
    if g.shape[0] == 0 or g.shape[1] == 0:
        raise ValueError("angle batches must contain at least one p>=1 schedule")
    if not (np.all(np.isfinite(g)) and np.all(np.isfinite(b))):
        raise ValueError("QAOA angles must be finite")
    return g, b


class QAOAFastSimulatorBase(abc.ABC):
    """Base class of every fast-QAOA simulator backend.

    Parameters
    ----------
    n_qubits:
        Number of qubits ``n``; the state vector has 2^n amplitudes.
    terms:
        Cost polynomial as an iterable of ``(weight, indices)`` pairs.
        Mutually exclusive with ``costs``.
    costs:
        Precomputed cost diagonal, a length-2^n array (held as float64).
        Passing a precomputed diagonal mirrors QOKit's ``costs=``
        constructor argument and skips the precomputation.  Either way the
        simulator holds the float64 vector and, when the diagonal is
        repetitive enough, one
        :class:`~repro.fur.diagonal.DiagonalPhaseTable` with a ``uint16``
        index (the paper's storage), at both precisions.
    precision:
        ``"double"`` (complex128 state, the default) or ``"single"``
        (complex64 state) — see :mod:`repro.fur.precision`.  Phase angles
        and expectation values are computed in float64 regardless of the
        state precision.
    optimize:
        ``"default"`` (the plan-rewrite optimizer passes of
        :mod:`repro.fur.rewrite` transform compiled execution plans — phase
        sweeps fuse into mixer sweeps, distributed exchanges coalesce across
        the batch, the final mixer fuses into the expectation reduction) or
        ``"none"`` (plans keep the unrewritten op stream).  Per-call
        overridable on the batched entry points; part of the plan-cache key.
    """

    #: human-readable backend name ("python", "jit", "gpu", "gpumpi", "cusvmpi")
    backend_name: str = "base"
    #: mixer implemented by this simulator class ("x", "xyring", "xycomplete")
    mixer_name: str = "x"
    #: whether the mixer consumes a ping-pong scratch block (set by the
    #: gemm-grouped X mixers; XY mixers run in place through the workspace)
    _mixer_needs_scratch: bool = False
    #: whether :meth:`_apply_phase_mixer_block` is implemented — gates the
    #: FusePhaseIntoMixer rewrite (set per mixer class, e.g. X-mixer only)
    supports_fused_phase_mixer: bool = False
    #: whether :meth:`_apply_mixer_block_coalesced` is implemented — gates
    #: the CoalesceExchanges rewrite (the sharded family's slab exchanges)
    supports_coalesced_exchange: bool = False
    #: whether :meth:`_apply_mixer_expectation_block` is implemented — gates
    #: the FuseMixerIntoExpectation rewrite (final mixer's copy-back skipped,
    #: expectation reduced straight out of the ping-pong buffer)
    supports_fused_mixer_expectation: bool = False

    def __init__(self, n_qubits: int,
                 terms: Iterable[tuple[float, Iterable[int]]] | None = None,
                 costs: np.ndarray | None = None, *,
                 precision: str | PrecisionSpec = "double",
                 optimize: str = "default") -> None:
        if n_qubits <= 0:
            raise ValueError(f"n_qubits must be positive, got {n_qubits}")
        self._precision = resolve_precision(precision)
        self._optimize = resolve_optimize(optimize)
        if (terms is None) == (costs is None):
            raise ValueError("provide exactly one of `terms` or `costs`")
        self._n_qubits = int(n_qubits)
        self._n_states = 1 << self._n_qubits
        state_bytes = self._guarded_state_bytes()
        if state_bytes > MAX_STATE_BYTES:
            raise ValueError(
                f"n_qubits={n_qubits} would require {state_bytes / 2**30:.0f} GiB "
                f"for the {self._precision.name}-precision state vector; refusing"
            )
        self._phase_table_cache: DiagonalPhaseTable | None = None
        self._phase_table_built = False
        #: guards the lazily-built phase table and engine against concurrent
        #: first use — the serving layer evaluates on a thread pool.
        self._derived_lock = threading.RLock()
        #: lazily-constructed execution engine (plan cache lives on it)
        self._execution_engine = None
        self._terms: list[Term] | None = None
        if terms is not None:
            self._terms = validate_terms(terms, self._n_qubits)
            host_costs = self._precompute_diagonal(self._terms)
        else:
            host_costs = self._ingest_costs(costs)
        #: the float64 cost vector, read-only (see get_cost_diagonal)
        self._costs = _readonly_view(host_costs)
        self._post_init()

    # -- construction hooks --------------------------------------------------
    def _guarded_state_bytes(self) -> int:
        """Bytes the byte guard compares against :data:`MAX_STATE_BYTES`.

        The default accounts one monolithic state vector — the resident
        footprint of every single-address-space backend.  Backends that hold
        the state in smaller pieces (the in-process sharded family) override
        this with their largest per-piece footprint (slab plus exchange
        staging), which is exactly what raises the single-array ceiling.
        The comparison happens in ``__init__`` against the *module-global*
        ``MAX_STATE_BYTES`` read at call time, so tests can shrink the guard
        by monkeypatching the module attribute.
        """
        return self._n_states * self._precision.complex_itemsize

    def _precompute_diagonal(self, terms: list[Term]) -> np.ndarray:
        """Precompute the cost diagonal on the host (backends may override).

        The default implementation consults the process-wide
        :data:`~repro.fur.cache.diagonal_cache`, so repeated construction for
        the same problem (e.g. one objective per optimization restart) reuses
        the already-computed vector.  The returned array may be a shared
        read-only view; backends must copy before mutating.
        """
        return cached_cost_diagonal(terms, self._n_qubits)

    def _ingest_costs(self, costs: np.ndarray) -> np.ndarray:
        """Validate a user-provided cost diagonal (as C-contiguous float64)."""
        return self._resolve_costs(costs)

    def _post_init(self) -> None:
        """Hook for backends that stage data onto a device / across ranks."""

    # -- basic properties ----------------------------------------------------
    @property
    def n_qubits(self) -> int:
        """Number of qubits."""
        return self._n_qubits

    @property
    def n_states(self) -> int:
        """State-vector length 2^n."""
        return self._n_states

    @property
    def terms(self) -> list[Term] | None:
        """The polynomial terms the simulator was constructed from (if any)."""
        return None if self._terms is None else list(self._terms)

    @property
    def precision(self) -> str:
        """The simulation precision name (``"double"`` or ``"single"``)."""
        return self._precision.name

    @property
    def precision_spec(self) -> PrecisionSpec:
        """The resolved :class:`~repro.fur.precision.PrecisionSpec`."""
        return self._precision

    @property
    def optimize(self) -> str:
        """Default plan-optimizer level (``"default"`` or ``"none"``)."""
        return self._optimize

    @property
    def complex_dtype(self) -> np.dtype:
        """State-vector amplitude dtype (complex128 or complex64)."""
        return self._precision.complex_dtype

    def get_cost_diagonal(self) -> np.ndarray:
        """The precomputed cost vector as a **read-only** host float64 array.

        The returned array is always non-writeable: it may be shared with the
        process-wide diagonal cache (and with every other simulator of the
        same problem), with the engine's plan caches, or alias a
        caller-provided ``costs`` array — so a silent in-place mutation would
        corrupt state far beyond this simulator.  Copy before mutating
        (``diag.copy()``).
        """
        return self._costs

    def _diagonal_phase_table(self) -> DiagonalPhaseTable | None:
        """Unique-value phase table for the default diagonal (lazy, cached).

        Built on first use by the fused batch engines; ``None`` when the
        diagonal has too many distinct values for the gather to pay off.
        """
        if not self._phase_table_built:
            with self._derived_lock:
                if not self._phase_table_built:
                    self._phase_table_cache = build_phase_table(self._costs)
                    self._phase_table_built = True
        return self._phase_table_cache

    # -- the execution engine ------------------------------------------------
    @property
    def engine(self):
        """The per-simulator :class:`~repro.fur.engine.ExecutionEngine`.

        Constructed lazily on first use; its compiled-plan cache lives next
        to the phase-table cache of this simulator.
        """
        if self._execution_engine is None:
            from .engine import ExecutionEngine  # deferred: engine imports base

            with self._derived_lock:
                if self._execution_engine is None:
                    self._execution_engine = ExecutionEngine(self)
        return self._execution_engine

    # -- simulation ----------------------------------------------------------
    def simulate_qaoa(self, gammas: Sequence[float], betas: Sequence[float],
                      sv0: np.ndarray | None = None, *,
                      n_trotters: int = 1) -> Any:
        """Simulate ``p`` QAOA layers and return a backend-specific result object.

        ``sv0`` optionally overrides the initial state (default ``|+>^n``);
        ``n_trotters`` sets the Trotter slices per XY mixer.  The schedule
        runs as the engine's compiled one-row plan at the simulator's own
        ``optimize`` level, so it takes exactly the kernels a row of
        :meth:`simulate_qaoa_batch` does.
        """
        g, b = validate_angles(gammas, betas)
        return self.engine.simulate_batch(g[None], b[None], sv0=sv0,
                                          n_trotters=n_trotters)[0]

    def simulate_qaoa_batch(self, gammas_batch: Sequence[Sequence[float]] | np.ndarray,
                            betas_batch: Sequence[Sequence[float]] | np.ndarray,
                            sv0: np.ndarray | None = None, *,
                            memory_budget: float | None = None,
                            optimize: str | None = None,
                            **kwargs: Any) -> list[Any]:
        """Simulate a batch of (γ, β) schedules over the same problem.

        The batches are ``(B, p)`` shaped; entry ``i`` of the returned list is
        the backend result object for schedule ``i``.  ``sv0`` is one
        ``(2^n,)`` initial state shared by every row.  All
        orchestration is delegated to the shared execution engine, which
        evolves ``(B, 2^n)`` state blocks through all layers at once
        (``memory_budget`` bounds the block scratch by splitting large
        batches into sub-batches); ``optimize`` overrides the simulator's
        plan-optimizer level for this call (``"none"`` pins the unrewritten
        op stream).
        """
        return self.engine.simulate_batch(gammas_batch, betas_batch, sv0=sv0,
                                          memory_budget=memory_budget,
                                          optimize=optimize, **kwargs)

    def get_expectation_batch(self, gammas_batch: Sequence[Sequence[float]] | np.ndarray,
                              betas_batch: Sequence[Sequence[float]] | np.ndarray,
                              costs: np.ndarray | None = None,
                              sv0: np.ndarray | None = None, *,
                              memory_budget: float | None = None,
                              optimize: str | None = None,
                              **kwargs: Any) -> np.ndarray:
        """Objective values for a batch of schedules, as a length-``B`` array.

        Unlike :meth:`simulate_qaoa_batch` this never keeps the evolved
        states: each schedule is reduced to ``<γβ|Ĉ|γβ>`` immediately, with
        the diagonal resolved to float64 exactly once for the whole batch and
        expectations accumulated in float64 regardless of the state precision
        (the engine-wide policy).  On backends without the fused
        mixer+expectation kernel (all but ``python`` and ``jit``) row ``i``
        is bitwise ``get_expectation(simulate_qaoa(...))``.  See
        :meth:`simulate_qaoa_batch` for the ``memory_budget`` and
        ``optimize`` semantics.
        """
        return self.engine.expectation_batch(gammas_batch, betas_batch,
                                             costs=costs, sv0=sv0,
                                             memory_budget=memory_budget,
                                             optimize=optimize, **kwargs)

    # -- kernel-provider hooks (engine-driven; see repro.fur.engine) ---------
    def _batch_rows(self, remaining: int, memory_budget: float | None) -> int:
        """Rows of the next fused sub-batch under the memory budget.

        Called by the engine once per sub-batch with the *remaining* schedule
        count, so backends whose per-row results stay resident (device
        arrays) can re-derive capacity as rows accumulate.
        """
        blocks = 2 if self._mixer_needs_scratch else 1
        return batch_block_rows(remaining, self._n_states, memory_budget,
                                blocks=blocks,
                                itemsize=self._precision.complex_itemsize)

    def _engine_phase_tables(self) -> Any:
        """Phase-table object(s) stored in compiled plans (provider-specific).

        The default is the simulator-level unique-value
        :class:`~repro.fur.diagonal.DiagonalPhaseTable` (or ``None`` when the
        diagonal is not repetitive enough); the sharded family overrides
        this with a tuple of per-shard-slice tables.
        """
        return self._diagonal_phase_table()

    def _stage_block(self, sv0: np.ndarray | None, rows: int) -> Any:
        raise NotImplementedError(
            f"backend {self.backend_name!r} does not implement the fused "
            "kernel-provider protocol"
        )

    def _mixer_scratch(self, block: Any) -> Any:
        """Per-sub-batch ping-pong scratch (providers with scratch mixers override)."""
        return None

    def _apply_phase_block(self, block: Any, gammas: np.ndarray, plan: Any) -> None:
        raise NotImplementedError

    def _apply_mixer_block(self, block: Any, betas: np.ndarray,
                           n_trotters: int, scratch: Any) -> None:
        raise NotImplementedError

    def _apply_mixer_block_coalesced(self, block: Any, betas: np.ndarray,
                                     n_trotters: int, scratch: Any) -> None:
        """Mixer sweep with batch-coalesced global exchanges.

        Only reached for ops rewritten by the CoalesceExchanges pass, which
        is gated on :attr:`supports_coalesced_exchange` — providers setting
        the flag must implement this.
        """
        raise NotImplementedError(
            f"backend {self.backend_name!r} advertises coalesced exchanges "
            "but does not implement _apply_mixer_block_coalesced"
        )

    def _apply_phase_mixer_block(self, block: Any, gammas: np.ndarray,
                                 betas: np.ndarray, op: Any, scratch: Any,
                                 plan: Any) -> None:
        """Fused phase+mixer sweep of one layer.

        Only reached for ops rewritten by the FusePhaseIntoMixer pass, which
        is gated on :attr:`supports_fused_phase_mixer` — providers setting
        the flag must implement this.
        """
        raise NotImplementedError(
            f"backend {self.backend_name!r} advertises the fused phase+mixer "
            "kernel but does not implement _apply_phase_mixer_block"
        )

    def _apply_mixer_expectation_block(self, block: Any,
                                       gammas: np.ndarray | None,
                                       betas: np.ndarray, op: Any,
                                       scratch: Any, costs: Any,
                                       plan: Any) -> np.ndarray:
        """Final mixer sweep fused into the expectation reduction.

        ``gammas`` is non-``None`` when the layer's phase rides along
        (``op.with_phase``).  Only reached for plans rewritten by the
        FuseMixerIntoExpectation pass, which is gated on
        :attr:`supports_fused_mixer_expectation` — providers setting the
        flag must implement this.
        """
        raise NotImplementedError(
            f"backend {self.backend_name!r} advertises the fused "
            "mixer+expectation kernel but does not implement "
            "_apply_mixer_expectation_block"
        )

    def _block_expectations(self, block: Any, costs: Any) -> np.ndarray:
        raise NotImplementedError

    def _block_results(self, block: Any) -> list[Any]:
        """Per-schedule result objects of an evolved block (default: rows)."""
        return list(block)

    def _result_block(self, result: Any) -> Any:
        """One result object as a one-row block, without a copy.

        The inverse of :meth:`_block_results`: the block
        :meth:`get_expectation` hands to :meth:`_block_expectations`.  The
        default serves host-array results.
        """
        return np.ascontiguousarray(result).reshape(1, -1)

    def _release_block(self, block: Any) -> None:
        """Free a block after its reduction (no-op for host blocks)."""

    def _stage_batch_costs(self, resolved: np.ndarray) -> Any:
        """Stage the batch diagonal (device backends upload it here)."""
        return resolved

    def _release_batch_costs(self, staged: Any) -> None:
        """Release a staged batch diagonal (no-op for host arrays)."""

    # -- output methods (always return CPU values) ---------------------------
    @abc.abstractmethod
    def get_statevector(self, result: Any, **kwargs: Any) -> np.ndarray:
        """Full state vector as a host complex array."""

    def get_probabilities(self, result: Any, preserve_state: bool = True,
                          **kwargs: Any) -> np.ndarray:
        """Measurement probabilities |ψ_x|² as a host float64 array.

        The default serves host-array results (:func:`host_probabilities`).
        With ``preserve_state=False`` a backend may reuse the state-vector
        memory for the squared magnitudes (the paper's memory-saving option on
        GPU backends); the result object must not be used afterwards.
        """
        return host_probabilities(np.asarray(result), preserve_state)

    def _resolve_costs(self, costs: np.ndarray | None) -> np.ndarray:
        """Pick between a user-supplied diagonal and the precomputed one."""
        if costs is None:
            return self._costs
        arr = np.ascontiguousarray(costs, dtype=np.float64)
        if arr.shape != (self._n_states,):
            raise ValueError(
                f"cost diagonal has shape {arr.shape}, expected ({self._n_states},)"
            )
        return arr

    def get_expectation(self, result: Any,
                        costs: np.ndarray | None = None,
                        preserve_state: bool = True, **kwargs: Any) -> float:
        """QAOA objective ``<γβ|Ĉ|γβ>`` — one inner product with the diagonal.

        The result is reduced as a one-row block (:meth:`_result_block`) by
        the provider's ``_block_expectations`` against the staged diagonal:
        the batch plans' reduction, never a ``|ψ|²`` array.
        ``preserve_state`` and ``**kwargs`` are accepted for QOKit
        compatibility; the reduction never modifies the state.
        """
        staged = self._stage_batch_costs(self._resolve_costs(costs))
        try:
            return float(self._block_expectations(self._result_block(result),
                                                  staged)[0])
        finally:
            self._release_batch_costs(staged)

    def get_overlap(self, result: Any,
                    costs: np.ndarray | None = None,
                    indices: np.ndarray | Sequence[int] | None = None,
                    preserve_state: bool = True, **kwargs: Any) -> float:
        """Probability of measuring an optimal (minimal-cost) basis state.

        ``indices`` may supply an explicit set of target states; by default the
        argmin set of the cost diagonal is used.
        """
        probs = self.get_probabilities(result, preserve_state=preserve_state, **kwargs)
        if indices is None:
            diag = self._resolve_costs(costs)
            indices = np.flatnonzero(diag == diag.min())
        idx = np.asarray(indices, dtype=np.int64)
        if idx.size == 0:
            raise ValueError("overlap requested against an empty set of indices")
        if idx.min() < 0 or idx.max() >= self._n_states:
            raise ValueError("overlap indices out of range")
        return float(probs[idx].sum())

    def sample_bitstrings(self, result: Any, n_samples: int, *,
                          seed: int | None = None,
                          preserve_state: bool = True, **kwargs: Any) -> np.ndarray:
        """Sample measurement outcomes from the evolved state.

        Returns an ``(n_samples, n_qubits)`` array of 0/1 outcomes (little-endian:
        column ``q`` is qubit ``q``), drawn from the exact probability
        distribution of the result state.  This is the "measure the prepared
        state" step of the QAOA workflow (used e.g. for the sampling-frequency
        analyses the paper's companion studies perform).
        """
        if n_samples <= 0:
            raise ValueError("n_samples must be positive")
        probs = np.asarray(self.get_probabilities(result, preserve_state=preserve_state,
                                                  **kwargs), dtype=np.float64)
        total = probs.sum()
        if not np.isfinite(total) or total <= 0:
            raise ValueError("result state has non-normalizable probabilities")
        rng = np.random.default_rng(seed)
        indices = rng.choice(self._n_states, size=n_samples, p=probs / total)
        shifts = np.arange(self._n_qubits, dtype=np.uint64)
        return ((indices[:, None].astype(np.uint64) >> shifts[None, :]) & np.uint64(1)).astype(np.int8)

    # -- misc ----------------------------------------------------------------
    def initial_state(self, dtype: np.dtype | type | None = None) -> np.ndarray:
        """Default initial state |+>^n as a host array.

        ``dtype`` overrides the amplitude dtype; by default it follows the
        simulator's precision (complex64 for ``precision="single"``).
        """
        if dtype is None:
            dtype = self._precision.complex_dtype
        return uniform_superposition(self._n_qubits, dtype=dtype)

    def _validate_sv0(self, sv0: np.ndarray | None) -> np.ndarray:
        """Return a host copy of the initial state at the simulation precision.

        The copy honours the simulator's complex dtype rather than
        unconditionally widening to complex128 — a caller-supplied complex64
        state on a single-precision simulator is copied, never upcast.
        """
        if sv0 is None:
            return self.initial_state()
        arr = np.array(sv0, dtype=self._precision.complex_dtype, copy=True)
        if arr.shape != (self._n_states,):
            raise ValueError(
                f"initial state has shape {arr.shape}, expected ({self._n_states},)"
            )
        return arr

    def _validate_sv0_block(self, sv0: np.ndarray | None, rows: int) -> np.ndarray:
        """A ``(rows, 2^n)`` block of initial states at the simulation precision.

        The staging helper of the block providers: ``sv0=None`` tiles
        ``|+>^n``, and a ``(2^n,)`` state is validated and tiled across all
        rows.  Both write the block with a single broadcast pass; ``None``
        fills it directly, without a 2^n temporary state per call.
        """
        block = np.empty((rows, self._n_states),
                         dtype=self._precision.complex_dtype)
        if sv0 is None:
            block.fill(1.0 / np.sqrt(self._n_states))  # |+>^n
        else:
            np.copyto(block, self._validate_sv0(sv0)[None, :])
        return block

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"{type(self).__name__}(n_qubits={self._n_qubits}, "
                f"backend={self.backend_name!r}, mixer={self.mixer_name!r}, "
                f"precision={self.precision!r})")
