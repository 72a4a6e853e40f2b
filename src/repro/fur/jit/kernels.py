"""Single-pass cache-blocked fused kernels (the ``jit`` backend tier).

Every other CPU backend executes a fused op as a *sequence* of numpy passes
over the ``(rows, 2^n)`` block — a phase-table gather, then one gemm per
butterfly group — so throughput is pinned to memory bandwidth times the pass
count.  The kernels here execute an entire fused op in one pass: per
cache-sized tile of each row they apply the phase multiply and *all* SU(2)
butterflies whose stride fits the tile, then finish the few high-qubit
strides with streaming sweeps.  ~6 flops/amplitude/qubit instead of the gemm
formulation's ~32, and the block is read once, not once per qubit group.

Three execution paths provide the same public functions (the dual-path idiom
of SNIPPETS.md Snippet 1, ``delande/and-python``):

* ``numba`` — ``@njit(parallel=True, cache=True)`` kernels, used when numba
  imports (the ``pip install repro[jit]`` extra);
* ``cc`` — the identical tiled loop structure as C, compiled at first use
  with the system compiler and driven through :mod:`ctypes` (the shared
  object is cached on disk keyed by a source hash, so the compile cost is
  paid once per machine);
* ``numpy`` — delegates to the ``python`` backend's multi-pass kernels, so
  the backend stays importable and correct with no compiler and no numba.

:func:`active_path` reports which path is live; ``REPRO_JIT_PATH`` forces
one (``numba``/``cc``/``numpy``/``auto``), falling down the ladder when the
requested path is unavailable.  ``REPRO_NUM_THREADS`` bounds the worker
count of both the numba thread pool and the ctypes row pool.  Kernel
compilation is lazy and cached per ``(path, dtype, n_qubits, mixer)``
signature: :func:`ensure_kernels` returns the seconds newly spent compiling
(zero on a warm signature) so providers can report compile time separately
from execution time in :class:`~repro.fur.engine.EngineStats`.
"""

from __future__ import annotations

import ctypes
import hashlib
import logging
import os
import shutil
import subprocess
import tempfile
import threading
import time
from typing import Any

import numpy as np

__all__ = [
    "NUMBA_AVAILABLE",
    "KNOWN_PATHS",
    "DEFAULT_TILE_QUBITS",
    "active_path",
    "requested_num_threads",
    "effective_num_threads",
    "ensure_kernels",
    "compiler_info",
    "phase_block",
    "furx_block",
    "furx_phase_block",
    "furx_expectation_block",
    "furxy_block",
    "expectation_block",
    "mixer_edges",
]

# --------------------------------------------------------------------------
# Optional-dependency detection (dual-path idiom: try numba, remember).
# --------------------------------------------------------------------------

try:  # pragma: no cover - exercised only where numba is installed
    import numba
    from numba import njit, prange

    NUMBA_AVAILABLE = True
except ImportError:
    NUMBA_AVAILABLE = False

    def njit(*args, **kwargs):  # type: ignore[misc]
        """Identity decorator standing in for numba.njit."""
        def decorate(func):
            return func
        if args and callable(args[0]) and not kwargs:
            return args[0]
        return decorate

    prange = range

#: Execution paths in ladder order (first available wins).
KNOWN_PATHS = ("numba", "cc", "numpy")

#: Default tile size in qubits: 2^11 complex128 amplitudes = 32 KiB, half a
#: typical L1D, leaving room for the factor table.  Measured throughput is
#: flat over tile_q 9..13 on the reference machine.
DEFAULT_TILE_QUBITS = 11

_EMPTY_I64 = np.empty(0, dtype=np.int64)
_EMPTY_F64 = np.empty(0, dtype=np.float64)


# --------------------------------------------------------------------------
# Thread-count knob (REPRO_NUM_THREADS).
# --------------------------------------------------------------------------

def requested_num_threads() -> int | None:
    """The ``REPRO_NUM_THREADS`` request, or ``None`` when unset/invalid."""
    raw = os.environ.get("REPRO_NUM_THREADS", "").strip()
    if not raw:
        return None
    try:
        value = int(raw)
    except ValueError:
        return None
    return value if value > 0 else None


def effective_num_threads() -> int:
    """Worker threads the active path will actually use.

    The ``numba`` path asks numba (after applying the env request); the
    ``cc`` path sizes its row pool to ``min(request, cpu_count)``; the
    ``numpy`` path runs single-threaded (numpy's internal threading aside).
    """
    path = active_path()
    if path == "numba":  # pragma: no cover - requires numba
        _apply_numba_threads()
        return int(numba.get_num_threads())
    if path == "cc":
        cpus = os.cpu_count() or 1
        requested = requested_num_threads()
        return min(requested, cpus) if requested is not None else cpus
    return 1


def _apply_numba_threads() -> None:  # pragma: no cover - requires numba
    requested = requested_num_threads()
    if requested is not None:
        numba.set_num_threads(min(requested, numba.config.NUMBA_NUM_THREADS))


_row_pool = None
_row_pool_size = 0
_row_pool_lock = threading.Lock()


def _parallel_rows(rows: int, run_slice) -> None:
    """Run ``run_slice(r0, r1)`` over row ranges, threaded when it pays.

    ctypes releases the GIL for the duration of each foreign call, so row
    slices of the block are processed concurrently by a persistent pool
    sized by :func:`effective_num_threads`.
    """
    global _row_pool, _row_pool_size
    workers = min(effective_num_threads(), rows)
    if workers <= 1:
        run_slice(0, rows)
        return
    from concurrent.futures import ThreadPoolExecutor

    with _row_pool_lock:
        if _row_pool is None or _row_pool_size < workers:
            if _row_pool is not None:
                _row_pool.shutdown(wait=False)
            _row_pool = ThreadPoolExecutor(
                max_workers=workers, thread_name_prefix="repro-jit")
            _row_pool_size = workers
        pool = _row_pool
    chunk = -(-rows // workers)
    futures = [pool.submit(run_slice, r0, min(r0 + chunk, rows))
               for r0 in range(0, rows, chunk)]
    for future in futures:
        future.result()


# --------------------------------------------------------------------------
# The C path: one embedded source, compiled at first use, loaded via ctypes.
# --------------------------------------------------------------------------

# The per-precision kernel family is generated from one template (tokens
# @REAL@ / @SUF@) so the float32 path is structurally identical to float64.
_C_TEMPLATE = r"""
/* ---- @SUF@ (@REAL@) kernels ------------------------------------------- */

static void butterfly_span_@SUF@(@REAL@ *lo, @REAL@ *hi, ptrdiff_t count,
                                 @REAL@ c, @REAL@ s)
{
    for (ptrdiff_t k = 0; k < count; ++k) {
        @REAL@ ar = lo[2 * k], ai = lo[2 * k + 1];
        @REAL@ br = hi[2 * k], bi = hi[2 * k + 1];
        lo[2 * k]     = c * ar + s * bi;
        lo[2 * k + 1] = c * ai - s * br;
        hi[2 * k]     = c * br + s * ai;
        hi[2 * k + 1] = c * bi - s * ar;
    }
}

/* last-stride butterfly fused with the cost-weighted norm reduction */
static double butterfly_span_expec_@SUF@(@REAL@ *lo, @REAL@ *hi,
                                         ptrdiff_t count, @REAL@ c, @REAL@ s,
                                         const double *clo, const double *chi)
{
    double total = 0.0, part = 0.0;
    for (ptrdiff_t k = 0; k < count; ++k) {
        @REAL@ ar = lo[2 * k], ai = lo[2 * k + 1];
        @REAL@ br = hi[2 * k], bi = hi[2 * k + 1];
        @REAL@ lr = c * ar + s * bi, li = c * ai - s * br;
        @REAL@ hr = c * br + s * ai, hi_ = c * bi - s * ar;
        lo[2 * k] = lr;  lo[2 * k + 1] = li;
        hi[2 * k] = hr;  hi[2 * k + 1] = hi_;
        part += clo[k] * ((double)lr * lr + (double)li * li)
              + chi[k] * ((double)hr * hr + (double)hi_ * hi_);
        if ((k & 4095) == 4095) { total += part; part = 0.0; }
    }
    return total + part;
}

/* phase multiply over a span: mode 1 = unique-value table gather,
 * mode 2 = direct cos/sin of -gamma*cost */
static void phase_span_@SUF@(@REAL@ *tx, ptrdiff_t s0, ptrdiff_t len,
                             int mode, const @REAL@ *factors_row,
                             const int64_t *inverse, double gamma,
                             const @REAL@ *pcosts)
{
    if (mode == 1) {
        const int64_t *idx = inverse + s0;
        for (ptrdiff_t i = 0; i < len; ++i) {
            @REAL@ fr = factors_row[2 * idx[i]];
            @REAL@ fi = factors_row[2 * idx[i] + 1];
            @REAL@ ar = tx[2 * i], ai = tx[2 * i + 1];
            tx[2 * i]     = ar * fr - ai * fi;
            tx[2 * i + 1] = ar * fi + ai * fr;
        }
    } else if (mode == 2) {
        const @REAL@ *cost = pcosts + s0;
        for (ptrdiff_t i = 0; i < len; ++i) {
            double th = -gamma * (double)cost[i];
            @REAL@ fr = (@REAL@)cos(th), fi = (@REAL@)sin(th);
            @REAL@ ar = tx[2 * i], ai = tx[2 * i + 1];
            tx[2 * i]     = ar * fr - ai * fi;
            tx[2 * i + 1] = ar * fi + ai * fr;
        }
    }
}

static double reduce_span_@SUF@(const @REAL@ *tx, ptrdiff_t s0, ptrdiff_t len,
                                const double *ecosts)
{
    const double *cost = ecosts + s0;
    double total = 0.0, part = 0.0;
    for (ptrdiff_t i = 0; i < len; ++i) {
        @REAL@ ar = tx[2 * i], ai = tx[2 * i + 1];
        part += cost[i] * ((double)ar * ar + (double)ai * ai);
        if ((i & 4095) == 4095) { total += part; part = 0.0; }
    }
    return total + part;
}

/* fused phase + full X mixer on one row, single cache-blocked pass:
 * per tile apply the phase multiply and every butterfly whose stride fits
 * the tile, then finish the high strides with streaming sweeps */
static void furx_row_@SUF@(@REAL@ *x, int n_qubits, double c_, double s_,
                           int mode, const @REAL@ *factors_row,
                           const int64_t *inverse, double gamma,
                           const @REAL@ *pcosts, int tile_q)
{
    const @REAL@ c = (@REAL@)c_, s = (@REAL@)s_;
    const ptrdiff_t n = (ptrdiff_t)1 << n_qubits;
    const int t = tile_q < n_qubits ? tile_q : n_qubits;
    const ptrdiff_t T = (ptrdiff_t)1 << t;
    for (ptrdiff_t s0 = 0; s0 < n; s0 += T) {
        @REAL@ *tx = x + 2 * s0;
        if (mode)
            phase_span_@SUF@(tx, s0, T, mode, factors_row, inverse, gamma,
                             pcosts);
        for (int q = 0; q < t; ++q) {
            const ptrdiff_t stride = (ptrdiff_t)1 << q;
            for (ptrdiff_t base = 0; base < T; base += 2 * stride)
                butterfly_span_@SUF@(tx + 2 * base,
                                     tx + 2 * (base + stride), stride, c, s);
        }
    }
    for (int q = t; q < n_qubits; ++q) {
        const ptrdiff_t stride = (ptrdiff_t)1 << q;
        for (ptrdiff_t base = 0; base < n; base += 2 * stride)
            butterfly_span_@SUF@(x + 2 * base, x + 2 * (base + stride),
                                 stride, c, s);
    }
}

void jit_furx_@SUF@(@REAL@ *block, ptrdiff_t rows, int n_qubits,
                    const double *cs, const double *ss, int mode,
                    const @REAL@ *factors, ptrdiff_t n_unique,
                    const int64_t *inverse, const double *gammas,
                    const @REAL@ *pcosts, int tile_q)
{
    const ptrdiff_t n = (ptrdiff_t)1 << n_qubits;
    for (ptrdiff_t r = 0; r < rows; ++r)
        furx_row_@SUF@(block + 2 * r * n, n_qubits, cs[r], ss[r], mode,
                       factors ? factors + 2 * r * n_unique : 0, inverse,
                       gammas ? gammas[r] : 0.0, pcosts, tile_q);
}

/* fused phase + X mixer + expectation: the trailing reduction rides the
 * mixer's own sweep — the last-stride butterfly (or, when every stride fits
 * one tile, the tile itself) accumulates sum(cost * |amp|^2) as it writes */
void jit_furx_expec_@SUF@(@REAL@ *block, ptrdiff_t rows, int n_qubits,
                          const double *cs, const double *ss, int mode,
                          const @REAL@ *factors, ptrdiff_t n_unique,
                          const int64_t *inverse, const double *gammas,
                          const @REAL@ *pcosts, int tile_q,
                          const double *ecosts, double *out)
{
    const ptrdiff_t n = (ptrdiff_t)1 << n_qubits;
    const int t = tile_q < n_qubits ? tile_q : n_qubits;
    const ptrdiff_t T = (ptrdiff_t)1 << t;
    for (ptrdiff_t r = 0; r < rows; ++r) {
        @REAL@ *x = block + 2 * r * n;
        const @REAL@ c = (@REAL@)cs[r], s = (@REAL@)ss[r];
        const @REAL@ *factors_row = factors ? factors + 2 * r * n_unique : 0;
        const double gamma = gammas ? gammas[r] : 0.0;
        double acc = 0.0;
        for (ptrdiff_t s0 = 0; s0 < n; s0 += T) {
            @REAL@ *tx = x + 2 * s0;
            if (mode)
                phase_span_@SUF@(tx, s0, T, mode, factors_row, inverse,
                                 gamma, pcosts);
            for (int q = 0; q < t; ++q) {
                const ptrdiff_t stride = (ptrdiff_t)1 << q;
                for (ptrdiff_t base = 0; base < T; base += 2 * stride)
                    butterfly_span_@SUF@(tx + 2 * base,
                                         tx + 2 * (base + stride),
                                         stride, c, s);
            }
            if (t == n_qubits)
                acc += reduce_span_@SUF@(tx, s0, T, ecosts);
        }
        for (int q = t; q < n_qubits - 1; ++q) {
            const ptrdiff_t stride = (ptrdiff_t)1 << q;
            for (ptrdiff_t base = 0; base < n; base += 2 * stride)
                butterfly_span_@SUF@(x + 2 * base, x + 2 * (base + stride),
                                     stride, c, s);
        }
        if (t < n_qubits) {
            const ptrdiff_t stride = n >> 1;
            acc = butterfly_span_expec_@SUF@(x, x + 2 * stride, stride, c, s,
                                             ecosts, ecosts + stride);
        }
        out[r] = acc;
    }
}

void jit_phase_@SUF@(@REAL@ *block, ptrdiff_t rows, ptrdiff_t n_states,
                     int mode, const @REAL@ *factors, ptrdiff_t n_unique,
                     const int64_t *inverse, const double *gammas,
                     const @REAL@ *pcosts)
{
    for (ptrdiff_t r = 0; r < rows; ++r)
        phase_span_@SUF@(block + 2 * r * n_states, 0, n_states, mode,
                         factors ? factors + 2 * r * n_unique : 0, inverse,
                         gammas ? gammas[r] : 0.0, pcosts);
}

void jit_expec_@SUF@(const @REAL@ *block, ptrdiff_t rows, ptrdiff_t n_states,
                     const double *ecosts, double *out)
{
    for (ptrdiff_t r = 0; r < rows; ++r)
        out[r] = reduce_span_@SUF@(block + 2 * r * n_states, 0, n_states,
                                   ecosts);
}

/* ordered-edge XY mixer (ring or complete, edges normalized a < b), with
 * optional leading phase multiply; the {|01>,|10>} subspace rotation is the
 * same (c, s) butterfly applied to the (x|1<<a, x|1<<b) pairs */
void jit_furxy_@SUF@(@REAL@ *block, ptrdiff_t rows, int n_qubits,
                     const double *cs, const double *ss, int n_trotters,
                     const int64_t *edges, ptrdiff_t n_edges, int mode,
                     const @REAL@ *factors, ptrdiff_t n_unique,
                     const int64_t *inverse, const double *gammas,
                     const @REAL@ *pcosts)
{
    const ptrdiff_t n = (ptrdiff_t)1 << n_qubits;
    for (ptrdiff_t r = 0; r < rows; ++r) {
        @REAL@ *x = block + 2 * r * n;
        const @REAL@ c = (@REAL@)cs[r], s = (@REAL@)ss[r];
        if (mode)
            phase_span_@SUF@(x, 0, n, mode,
                             factors ? factors + 2 * r * n_unique : 0,
                             inverse, gammas ? gammas[r] : 0.0, pcosts);
        for (int trot = 0; trot < n_trotters; ++trot)
            for (ptrdiff_t e = 0; e < n_edges; ++e) {
                const ptrdiff_t sa = (ptrdiff_t)1 << edges[2 * e];
                const ptrdiff_t sb = (ptrdiff_t)1 << edges[2 * e + 1];
                for (ptrdiff_t h = 0; h < n; h += 2 * sb)
                    for (ptrdiff_t m = h; m < h + sb; m += 2 * sa)
                        for (ptrdiff_t l = m; l < m + sa; ++l)
                            butterfly_span_@SUF@(x + 2 * (l + sa),
                                                 x + 2 * (l + sb), 1, c, s);
            }
    }
}
"""

_C_PRELUDE = """\
/* Generated by repro.fur.jit.kernels — do not edit (cached by source hash). */
#include <math.h>
#include <stddef.h>
#include <stdint.h>
"""


def _c_source() -> str:
    parts = [_C_PRELUDE]
    for real, suf in (("double", "f64"), ("float", "f32")):
        parts.append(_C_TEMPLATE.replace("@REAL@", real).replace("@SUF@", suf))
    return "".join(parts)


def _find_compiler() -> str | None:
    for name in ("cc", "gcc", "clang"):
        found = shutil.which(name)
        if found:
            return found
    return None


_clib: ctypes.CDLL | None = None
_clib_error: BaseException | None = None
_c_build_seconds: float = 0.0
_c_compiler: str | None = None
_clib_lock = threading.Lock()


def _cache_dir() -> str:
    base = os.environ.get("XDG_CACHE_HOME") or os.path.join(
        os.path.expanduser("~"), ".cache")
    try:
        path = os.path.join(base, "repro-jit")
        os.makedirs(path, exist_ok=True)
        return path
    except OSError:
        return tempfile.mkdtemp(prefix="repro-jit-")


def _build_clib() -> ctypes.CDLL:
    """Compile the embedded source (once per machine) and load it."""
    global _c_build_seconds, _c_compiler
    source = _c_source()
    tag = hashlib.sha256(source.encode()).hexdigest()[:16]
    cache = _cache_dir()
    lib_path = os.path.join(cache, f"libreprojit-{tag}.so")
    if not os.path.exists(lib_path):
        compiler = _find_compiler()
        if compiler is None:
            raise RuntimeError("no C compiler found (tried cc, gcc, clang)")
        _c_compiler = compiler
        src_path = os.path.join(cache, f"reprojit-{tag}.c")
        with open(src_path, "w") as fh:
            fh.write(source)
        tmp_path = f"{lib_path}.{os.getpid()}.tmp"
        base_cmd = [compiler, "-O3", "-fPIC", "-shared", "-std=c99",
                    src_path, "-o", tmp_path, "-lm"]
        start = time.perf_counter()
        result = subprocess.run(base_cmd[:2] + ["-march=native"] + base_cmd[2:],
                                capture_output=True, text=True)
        if result.returncode != 0:  # e.g. compilers without -march=native
            result = subprocess.run(base_cmd, capture_output=True, text=True)
        if result.returncode != 0:
            raise RuntimeError(
                f"C kernel compilation failed with {compiler}: "
                f"{result.stderr.strip()[:500]}"
            )
        os.replace(tmp_path, lib_path)  # atomic under concurrent builds
        _c_build_seconds = time.perf_counter() - start
    lib = ctypes.CDLL(lib_path)
    _declare_argtypes(lib)
    return lib


def _declare_argtypes(lib: ctypes.CDLL) -> None:
    p = ctypes.c_void_p
    ssz = ctypes.c_ssize_t
    i = ctypes.c_int
    for suf in ("f64", "f32"):
        fn = getattr(lib, f"jit_furx_{suf}")
        fn.restype = None
        fn.argtypes = [p, ssz, i, p, p, i, p, ssz, p, p, p, i]
        fn = getattr(lib, f"jit_furx_expec_{suf}")
        fn.restype = None
        fn.argtypes = [p, ssz, i, p, p, i, p, ssz, p, p, p, i, p, p]
        fn = getattr(lib, f"jit_phase_{suf}")
        fn.restype = None
        fn.argtypes = [p, ssz, ssz, i, p, ssz, p, p, p]
        fn = getattr(lib, f"jit_expec_{suf}")
        fn.restype = None
        fn.argtypes = [p, ssz, ssz, p, p]
        fn = getattr(lib, f"jit_furxy_{suf}")
        fn.restype = None
        fn.argtypes = [p, ssz, i, p, p, i, p, ssz, i, p, ssz, p, p, p]


def _load_clib() -> ctypes.CDLL | None:
    """The compiled kernel library, or ``None`` when unavailable (cached)."""
    global _clib, _clib_error
    with _clib_lock:
        if _clib is not None:
            return _clib
        if _clib_error is not None:
            return None
        try:
            _clib = _build_clib()
        except Exception as exc:
            _clib_error = exc
            return None
        return _clib


def compiler_info() -> str | None:
    """The compiler used by the ``cc`` path (None on other paths)."""
    return _c_compiler


# --------------------------------------------------------------------------
# Path resolution.
# --------------------------------------------------------------------------

_active_path: str | None = None
_path_lock = threading.Lock()
_log = logging.getLogger("repro.fur.jit")


def active_path() -> str:
    """Which implementation serves the public kernels (resolved lazily).

    Ladder: ``numba`` when importable, else ``cc`` when a compiler (or a
    cached shared object) is available, else ``numpy``.  ``REPRO_JIT_PATH``
    starts the ladder lower (e.g. ``numpy`` forces the fallback; useful for
    tests and for excluding the compile cost in constrained environments).
    Falling to ``numpy`` from a higher starting rung logs one WARNING on the
    ``repro.fur.jit`` logger naming the C build error.
    """
    global _active_path
    if _active_path is not None:
        return _active_path
    with _path_lock:
        if _active_path is not None:
            return _active_path
        forced = os.environ.get("REPRO_JIT_PATH", "auto").strip().lower()
        start = forced if forced in KNOWN_PATHS else "numba"
        ladder = KNOWN_PATHS[KNOWN_PATHS.index(start):]
        for candidate in ladder:
            if candidate == "numba" and NUMBA_AVAILABLE:
                path = "numba"
                break
            if candidate == "cc" and _load_clib() is not None:
                path = "cc"
                break
        else:
            path = "numpy"
            if start != "numpy":
                _log.warning("jit kernels fell back to the numpy rung "
                             "(~3x slower than cc): compiled C path "
                             "unavailable: %s", _clib_error)
        _active_path = path
        return path


def _reset_path_cache() -> None:
    """Forget the resolved path (test hook, re-reads REPRO_JIT_PATH)."""
    global _active_path
    _active_path = None


# --------------------------------------------------------------------------
# Lazy per-signature compilation with separate time accounting.
# --------------------------------------------------------------------------

_ensured: set[tuple] = set()
_c_time_reported = False
_ensure_lock = threading.Lock()


def ensure_kernels(dtype: Any, n_qubits: int, mixer: str) -> float:
    """Make the kernels for one ``(dtype, n, mixer)`` signature ready.

    Returns the wall-clock seconds *newly* spent compiling for this
    signature (0.0 when it was already warm): the one-time shared-object
    build on the ``cc`` path, or the numba type-specialization triggered by
    a tiny dummy invocation on the ``numba`` path (numba specializes on
    argument *types*, so warming a 4-state block compiles the kernels the
    full-size block will run).  Providers add the result to
    ``EngineStats.kernel_compile_time_s``.
    """
    global _c_time_reported
    path = active_path()
    key = (path, np.dtype(dtype).str, int(n_qubits), mixer)
    with _ensure_lock:
        if key in _ensured:
            return 0.0
        spent = 0.0
        if path == "cc":
            if not _c_time_reported:
                spent = _c_build_seconds
                _c_time_reported = True
        elif path == "numba":  # pragma: no cover - requires numba
            _apply_numba_threads()
            start = time.perf_counter()
            _warm_numba(np.dtype(dtype), mixer)
            spent = time.perf_counter() - start
        _ensured.add(key)
        return spent


def _warm_numba(dtype: np.dtype, mixer: str) -> None:  # pragma: no cover
    """Compile the numba kernels for one dtype by calling them on 4 states."""
    block = np.full((1, 4), 0.5 + 0.0j, dtype=dtype)
    angles = np.full(1, 0.25)
    real = np.zeros(4, dtype=_real_dtype(dtype))
    out = np.zeros(1)
    factors = np.empty((0, 0), dtype=dtype)
    if mixer == "x":
        _nb_furx(block.copy(), angles, angles, 2, factors, _EMPTY_I64,
                 angles, real, DEFAULT_TILE_QUBITS)
        _nb_furx_expec(block.copy(), angles, angles, 2, factors, _EMPTY_I64,
                       angles, real, DEFAULT_TILE_QUBITS,
                       np.zeros(4), out)
    else:
        edges = np.array([[0, 1]], dtype=np.int64)
        _nb_furxy(block.copy(), angles, angles, 1, edges, 2, factors,
                  _EMPTY_I64, angles, real)
    _nb_phase(block.copy(), 2, factors, _EMPTY_I64, angles, real)
    _nb_expec(block, np.zeros(4), out)


def _real_dtype(dtype: np.dtype) -> np.dtype:
    return np.dtype(np.float32 if np.dtype(dtype) == np.complex64
                    else np.float64)


# --------------------------------------------------------------------------
# Shared argument staging.
# --------------------------------------------------------------------------

def _check_block(block: np.ndarray) -> tuple[int, int, int]:
    if block.ndim != 2 or not block.flags.c_contiguous:
        raise ValueError("block must be a C-contiguous (rows, 2^n) array")
    rows, n_states = block.shape
    n_qubits = int(n_states).bit_length() - 1
    if (1 << n_qubits) != n_states:
        raise ValueError(f"block width {n_states} is not a power of two")
    return rows, n_states, n_qubits


def _phase_args(block: np.ndarray, gammas: np.ndarray | None,
                phase_table: Any, costs: np.ndarray | None):
    """Normalize the phase inputs to (mode, factors, inverse, gammas, costs).

    mode 0 = no phase, 1 = unique-value table gather, 2 = direct cos/sin.
    All arrays come back C-contiguous at the dtypes the compiled kernels
    expect (complex factors at block dtype, int64 inverse, float64 gammas,
    real costs at the block's real dtype).
    """
    real = _real_dtype(block.dtype)
    if gammas is None:
        return (0, np.empty((0, 0), dtype=block.dtype), _EMPTY_I64,
                _EMPTY_F64, np.empty(0, dtype=real))
    g = np.ascontiguousarray(gammas, dtype=np.float64)
    if phase_table is not None:
        factors = np.ascontiguousarray(
            phase_table.factors_batch(g, dtype=block.dtype))
        inverse = np.ascontiguousarray(phase_table.inverse, dtype=np.int64)
        return 1, factors, inverse, g, np.empty(0, dtype=real)
    if costs is None:
        raise ValueError("phase application needs a phase_table or costs")
    pcosts = np.ascontiguousarray(costs, dtype=real)
    return 2, np.empty((0, 0), dtype=block.dtype), _EMPTY_I64, g, pcosts


def _ptr(arr: np.ndarray):
    return ctypes.c_void_p(arr.ctypes.data) if arr.size else None


def _suffix(block: np.ndarray) -> str:
    return "f32" if block.dtype == np.complex64 else "f64"


def mixer_edges(kind: str, n_qubits: int) -> np.ndarray:
    """The ordered, (low, high)-normalized edge list of one XY mixer.

    Matches the application order of the ``python`` backend's
    :func:`~repro.fur.python.furxy.furxy_ring`/``furxy_complete`` exactly —
    the XY mixer is an *ordered* product, so edge order is part of the
    contract.  (The subspace butterfly is symmetric under swapping the two
    amplitudes, so normalizing each edge to (min, max) is value-preserving.)
    """
    from ..python.furxy import complete_edges, ring_edges

    pairs = (ring_edges(n_qubits) if kind == "ring"
             else complete_edges(n_qubits))
    edges = np.array([(min(i, j), max(i, j)) for i, j in pairs],
                     dtype=np.int64)
    return np.ascontiguousarray(edges)


# --------------------------------------------------------------------------
# Public kernels: X mixer family.
# --------------------------------------------------------------------------

def furx_phase_block(block: np.ndarray, gammas: np.ndarray | None,
                     betas: np.ndarray, *, phase_table: Any = None,
                     costs: np.ndarray | None = None,
                     tile_q: int = DEFAULT_TILE_QUBITS) -> None:
    """Fused phase + full X mixer on every row of a block, in place.

    ``gammas=None`` skips the phase (plain ``exp(-i β_r Σ X)``); otherwise
    each row is multiplied by ``exp(-i γ_r c)`` as its first tile touch.
    Semantics match :func:`repro.fur.python.furx.furx_phase_all_batch`.
    """
    rows, n_states, n_qubits = _check_block(block)
    path = active_path()
    if path == "numpy":
        _np_furx_phase(block, gammas, betas, n_qubits, phase_table, costs)
        return
    mode, factors, inverse, g, pcosts = _phase_args(block, gammas,
                                                    phase_table, costs)
    b = np.ascontiguousarray(betas, dtype=np.float64)
    cs, ss = np.cos(b), np.sin(b)
    if path == "numba":  # pragma: no cover - requires numba
        _nb_furx(block, cs, ss, mode, factors, inverse, g, pcosts, tile_q)
        return
    lib = _load_clib()
    fn = getattr(lib, f"jit_furx_{_suffix(block)}")
    n_unique = factors.shape[1]

    def run_slice(r0: int, r1: int) -> None:
        fn(_ptr(block[r0:r1]), r1 - r0, n_qubits, _ptr(cs[r0:r1]),
           _ptr(ss[r0:r1]), mode, _ptr(factors[r0:r1]), n_unique,
           _ptr(inverse), _ptr(g[r0:r1]) if mode else None, _ptr(pcosts),
           tile_q)

    _parallel_rows(rows, run_slice)


def furx_block(block: np.ndarray, betas: np.ndarray, *,
               tile_q: int = DEFAULT_TILE_QUBITS) -> None:
    """Full X mixer ``exp(-i β_r Σ_i X_i)`` on every row, in place."""
    furx_phase_block(block, None, betas, tile_q=tile_q)


def furx_expectation_block(block: np.ndarray, gammas: np.ndarray | None,
                           betas: np.ndarray, ecosts: np.ndarray, *,
                           phase_table: Any = None,
                           costs: np.ndarray | None = None,
                           tile_q: int = DEFAULT_TILE_QUBITS) -> np.ndarray:
    """Fused (phase +) X mixer + expectation: per-row ``Σ c|ψ|²`` (float64).

    The reduction rides the mixer's final sweep instead of re-reading the
    block; the block still holds the evolved state afterwards.
    """
    rows, n_states, n_qubits = _check_block(block)
    ecosts = np.ascontiguousarray(ecosts, dtype=np.float64)
    path = active_path()
    if path == "numpy":
        _np_furx_phase(block, gammas, betas, n_qubits, phase_table, costs)
        return _np_expectations(block, ecosts)
    mode, factors, inverse, g, pcosts = _phase_args(block, gammas,
                                                    phase_table, costs)
    b = np.ascontiguousarray(betas, dtype=np.float64)
    cs, ss = np.cos(b), np.sin(b)
    out = np.zeros(rows, dtype=np.float64)
    if path == "numba":  # pragma: no cover - requires numba
        _nb_furx_expec(block, cs, ss, mode, factors, inverse, g, pcosts,
                       tile_q, ecosts, out)
        return out
    lib = _load_clib()
    fn = getattr(lib, f"jit_furx_expec_{_suffix(block)}")
    n_unique = factors.shape[1]

    def run_slice(r0: int, r1: int) -> None:
        fn(_ptr(block[r0:r1]), r1 - r0, n_qubits, _ptr(cs[r0:r1]),
           _ptr(ss[r0:r1]), mode, _ptr(factors[r0:r1]), n_unique,
           _ptr(inverse), _ptr(g[r0:r1]) if mode else None, _ptr(pcosts),
           tile_q, _ptr(ecosts), _ptr(out[r0:r1]))

    _parallel_rows(rows, run_slice)
    return out


# --------------------------------------------------------------------------
# Public kernels: XY mixer family, phase-only sweep, expectation-only.
# --------------------------------------------------------------------------

def furxy_block(block: np.ndarray, gammas: np.ndarray | None,
                betas: np.ndarray, *, kind: str, n_trotters: int = 1,
                phase_table: Any = None,
                costs: np.ndarray | None = None) -> None:
    """(Phase +) ordered XY mixer (``kind`` = "ring"/"complete"), in place.

    Applies ``n_trotters`` repetitions at angle ``β_r / n_trotters`` in the
    exact edge order of the ``python`` backend's kernels.
    """
    if kind not in ("ring", "complete"):
        raise ValueError(f"kind must be 'ring' or 'complete', got {kind!r}")
    rows, n_states, n_qubits = _check_block(block)
    path = active_path()
    if path == "numpy":
        _np_furxy(block, gammas, betas, n_qubits, kind, n_trotters,
                  phase_table, costs)
        return
    mode, factors, inverse, g, pcosts = _phase_args(block, gammas,
                                                    phase_table, costs)
    b = np.ascontiguousarray(betas, dtype=np.float64) / n_trotters
    cs, ss = np.cos(b), np.sin(b)
    edges = mixer_edges(kind, n_qubits)
    if path == "numba":  # pragma: no cover - requires numba
        _nb_furxy(block, cs, ss, n_trotters, edges, mode, factors, inverse,
                  g, pcosts)
        return
    lib = _load_clib()
    fn = getattr(lib, f"jit_furxy_{_suffix(block)}")
    n_unique = factors.shape[1]

    def run_slice(r0: int, r1: int) -> None:
        fn(_ptr(block[r0:r1]), r1 - r0, n_qubits, _ptr(cs[r0:r1]),
           _ptr(ss[r0:r1]), n_trotters, _ptr(edges), len(edges), mode,
           _ptr(factors[r0:r1]), n_unique, _ptr(inverse),
           _ptr(g[r0:r1]) if mode else None, _ptr(pcosts))

    _parallel_rows(rows, run_slice)


def phase_block(block: np.ndarray, gammas: np.ndarray, *,
                phase_table: Any = None,
                costs: np.ndarray | None = None) -> None:
    """Phase operator ``row_r *= exp(-i γ_r c)`` on every row, in place."""
    rows, n_states, _ = _check_block(block)
    path = active_path()
    if path == "numpy":
        _np_phase(block, gammas, phase_table, costs)
        return
    mode, factors, inverse, g, pcosts = _phase_args(block, gammas,
                                                    phase_table, costs)
    if path == "numba":  # pragma: no cover - requires numba
        _nb_phase(block, mode, factors, inverse, g, pcosts)
        return
    lib = _load_clib()
    fn = getattr(lib, f"jit_phase_{_suffix(block)}")
    n_unique = factors.shape[1]

    def run_slice(r0: int, r1: int) -> None:
        fn(_ptr(block[r0:r1]), r1 - r0, n_states, mode,
           _ptr(factors[r0:r1]), n_unique, _ptr(inverse), _ptr(g[r0:r1]),
           _ptr(pcosts))

    _parallel_rows(rows, run_slice)


def expectation_block(block: np.ndarray, ecosts: np.ndarray) -> np.ndarray:
    """Per-row ``Σ_x c[x] |ψ_x|²`` of a block (float64, one fused read)."""
    rows, n_states, _ = _check_block(block)
    ecosts = np.ascontiguousarray(ecosts, dtype=np.float64)
    path = active_path()
    if path == "numpy":
        return _np_expectations(block, ecosts)
    out = np.zeros(rows, dtype=np.float64)
    if path == "numba":  # pragma: no cover - requires numba
        _nb_expec(block, ecosts, out)
        return out
    lib = _load_clib()
    fn = getattr(lib, f"jit_expec_{_suffix(block)}")

    def run_slice(r0: int, r1: int) -> None:
        fn(_ptr(block[r0:r1]), r1 - r0, n_states, _ptr(ecosts),
           _ptr(out[r0:r1]))

    _parallel_rows(rows, run_slice)
    return out


# --------------------------------------------------------------------------
# numpy fallback path: delegate to the python backend's multi-pass kernels.
# --------------------------------------------------------------------------

_NP_PHASE_CHUNK = 1 << 20


def _np_furx_phase(block, gammas, betas, n_qubits, phase_table, costs):
    from ..python.furx import furx_all_batch, furx_phase_all_batch

    betas = np.asarray(betas, dtype=np.float64)
    scratch = np.empty_like(block)
    if gammas is None:
        furx_all_batch(block, betas, n_qubits, scratch=scratch)
    else:
        furx_phase_all_batch(block, np.asarray(gammas, dtype=np.float64),
                             betas, n_qubits, phase_table=phase_table,
                             costs=costs, scratch=scratch)


def _np_furxy(block, gammas, betas, n_qubits, kind, n_trotters,
              phase_table, costs):
    from ..python.furxy import furxy_complete_batch, furxy_ring_batch

    if gammas is not None:
        _np_phase(block, gammas, phase_table, costs)
    betas = np.asarray(betas, dtype=np.float64) / n_trotters
    apply = furxy_ring_batch if kind == "ring" else furxy_complete_batch
    for _ in range(n_trotters):
        apply(block, betas, n_qubits)


def _np_phase(block, gammas, phase_table, costs):
    rows, n = block.shape
    g = np.asarray(gammas, dtype=np.float64)
    if phase_table is not None:
        factors = phase_table.factors_batch(g, dtype=block.dtype)
        buf = np.empty(n, dtype=block.dtype)
        for r in range(rows):
            np.take(factors[r], phase_table.inverse, out=buf)
            block[r] *= buf
        return
    if costs is None:
        raise ValueError("phase application needs a phase_table or costs")
    coeff = (-1j * g).astype(block.dtype)
    cols = max(1, _NP_PHASE_CHUNK // rows)
    for s in range(0, n, cols):
        e = min(s + cols, n)
        block[:, s:e] *= np.exp(coeff[:, None] * costs[s:e][None, :])


def _np_expectations(block, ecosts):
    from ..python.qaoa_simulator import _block_expectations

    return _block_expectations(block, ecosts)


# --------------------------------------------------------------------------
# numba path: the same tiled loop structure, JIT-compiled per dtype.
# --------------------------------------------------------------------------

if NUMBA_AVAILABLE:  # pragma: no cover - requires numba

    @njit(parallel=True, cache=True)
    def _nb_furx(block, cs, ss, mode, factors, inverse, gammas, pcosts,
                 tile_q):
        rows, n = block.shape
        nq = 0
        while (1 << nq) < n:
            nq += 1
        t = min(tile_q, nq)
        tile = 1 << t
        for r in prange(rows):
            x = block[r]
            c = cs[r]
            s = ss[r]
            for s0 in range(0, n, tile):
                if mode == 1:
                    for i in range(s0, s0 + tile):
                        x[i] = x[i] * factors[r, inverse[i]]
                elif mode == 2:
                    g = gammas[r]
                    for i in range(s0, s0 + tile):
                        th = -g * pcosts[i]
                        x[i] = x[i] * complex(np.cos(th), np.sin(th))
                for q in range(t):
                    stride = 1 << q
                    for base in range(s0, s0 + tile, 2 * stride):
                        for k in range(base, base + stride):
                            a = x[k]
                            b = x[k + stride]
                            x[k] = complex(c * a.real + s * b.imag,
                                           c * a.imag - s * b.real)
                            x[k + stride] = complex(c * b.real + s * a.imag,
                                                    c * b.imag - s * a.real)
            for q in range(t, nq):
                stride = 1 << q
                for base in range(0, n, 2 * stride):
                    for k in range(base, base + stride):
                        a = x[k]
                        b = x[k + stride]
                        x[k] = complex(c * a.real + s * b.imag,
                                       c * a.imag - s * b.real)
                        x[k + stride] = complex(c * b.real + s * a.imag,
                                                c * b.imag - s * a.real)

    @njit(parallel=True, cache=True)
    def _nb_furx_expec(block, cs, ss, mode, factors, inverse, gammas,
                       pcosts, tile_q, ecosts, out):
        rows, n = block.shape
        nq = 0
        while (1 << nq) < n:
            nq += 1
        t = min(tile_q, nq)
        tile = 1 << t
        for r in prange(rows):
            x = block[r]
            c = cs[r]
            s = ss[r]
            acc = 0.0
            for s0 in range(0, n, tile):
                if mode == 1:
                    for i in range(s0, s0 + tile):
                        x[i] = x[i] * factors[r, inverse[i]]
                elif mode == 2:
                    g = gammas[r]
                    for i in range(s0, s0 + tile):
                        th = -g * pcosts[i]
                        x[i] = x[i] * complex(np.cos(th), np.sin(th))
                for q in range(t):
                    stride = 1 << q
                    for base in range(s0, s0 + tile, 2 * stride):
                        for k in range(base, base + stride):
                            a = x[k]
                            b = x[k + stride]
                            x[k] = complex(c * a.real + s * b.imag,
                                           c * a.imag - s * b.real)
                            x[k + stride] = complex(c * b.real + s * a.imag,
                                                    c * b.imag - s * a.real)
                if t == nq:
                    for i in range(s0, s0 + tile):
                        v = x[i]
                        acc += ecosts[i] * (v.real * v.real
                                            + v.imag * v.imag)
            for q in range(t, nq - 1):
                stride = 1 << q
                for base in range(0, n, 2 * stride):
                    for k in range(base, base + stride):
                        a = x[k]
                        b = x[k + stride]
                        x[k] = complex(c * a.real + s * b.imag,
                                       c * a.imag - s * b.real)
                        x[k + stride] = complex(c * b.real + s * a.imag,
                                                c * b.imag - s * a.real)
            if t < nq:
                stride = n >> 1
                acc = 0.0
                for k in range(stride):
                    a = x[k]
                    b = x[k + stride]
                    lo = complex(c * a.real + s * b.imag,
                                 c * a.imag - s * b.real)
                    hi = complex(c * b.real + s * a.imag,
                                 c * b.imag - s * a.real)
                    x[k] = lo
                    x[k + stride] = hi
                    acc += ecosts[k] * (lo.real * lo.real
                                        + lo.imag * lo.imag)
                    acc += ecosts[k + stride] * (hi.real * hi.real
                                                 + hi.imag * hi.imag)
            out[r] = acc

    @njit(parallel=True, cache=True)
    def _nb_furxy(block, cs, ss, n_trotters, edges, mode, factors, inverse,
                  gammas, pcosts):
        rows, n = block.shape
        n_edges = edges.shape[0]
        for r in prange(rows):
            x = block[r]
            c = cs[r]
            s = ss[r]
            if mode == 1:
                for i in range(n):
                    x[i] = x[i] * factors[r, inverse[i]]
            elif mode == 2:
                g = gammas[r]
                for i in range(n):
                    th = -g * pcosts[i]
                    x[i] = x[i] * complex(np.cos(th), np.sin(th))
            for _ in range(n_trotters):
                for e in range(n_edges):
                    sa = 1 << edges[e, 0]
                    sb = 1 << edges[e, 1]
                    for h in range(0, n, 2 * sb):
                        for m in range(h, h + sb, 2 * sa):
                            for l in range(m, m + sa):
                                a = x[l + sa]
                                b = x[l + sb]
                                x[l + sa] = complex(c * a.real + s * b.imag,
                                                    c * a.imag - s * b.real)
                                x[l + sb] = complex(c * b.real + s * a.imag,
                                                    c * b.imag - s * a.real)

    @njit(parallel=True, cache=True)
    def _nb_phase(block, mode, factors, inverse, gammas, pcosts):
        rows, n = block.shape
        for r in prange(rows):
            x = block[r]
            if mode == 1:
                for i in range(n):
                    x[i] = x[i] * factors[r, inverse[i]]
            elif mode == 2:
                g = gammas[r]
                for i in range(n):
                    th = -g * pcosts[i]
                    x[i] = x[i] * complex(np.cos(th), np.sin(th))

    @njit(parallel=True, cache=True)
    def _nb_expec(block, ecosts, out):
        rows, n = block.shape
        for r in prange(rows):
            x = block[r]
            acc = 0.0
            for i in range(n):
                v = x[i]
                acc += ecosts[i] * (v.real * v.real + v.imag * v.imag)
            out[r] = acc
