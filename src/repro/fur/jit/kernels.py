"""Single-pass cache-blocked fused kernels (the ``jit`` backend tier).

Every other CPU backend executes a fused op as a *sequence* of numpy passes
over the ``(rows, 2^n)`` block — a phase-table gather, then one gemm per
butterfly group — so throughput is pinned to memory bandwidth times the pass
count.  The kernels here execute a fused op in two passes per row: per
cache-sized tile they apply the phase multiply and *all* SU(2) butterflies
whose stride fits the tile, then a column-grouped pass applies every
higher stride to a few adjacent columns of the row's ``(2^(n-t), 2^t)``
view while they stay in cache.  ~6 flops/amplitude/qubit instead of the
gemm formulation's ~32, and the block is read twice, not once per qubit.

Two execution paths provide the same public functions (the dual-path idiom
of SNIPPETS.md Snippet 1, ``delande/and-python``), mirroring the paper's
compiled C and numpy simulators:

* ``cc`` — the tiled loops as C, compiled at first use with the system
  compiler and driven through :mod:`ctypes` (the shared object is cached
  on disk keyed by a source hash, so the compile cost is paid once per
  machine; a sidecar file next to it names the compiler that built it);
* ``numpy`` — the NumPy block tier of :mod:`repro.fur.python.kernels`
  (the ``python`` backend's own batched kernels: gemm-grouped X passes,
  blocked sweeps for the phase, single-position X rotations and XY edges,
  the row-independent expectation reduction), to which every public kernel
  here forwards, so the backend stays importable and correct with no
  compiler.

Every rung's butterfly is position-independent: the same pair of
amplitudes gets the same bits whichever stride (bit position) it sits at,
so the sharded backends' relabelled global rotations reproduce the
unsharded result bitwise.

:func:`active_path` reports which path is live; ``REPRO_JIT_PATH`` forces
one (``cc``/``numpy``/``auto``), falling to ``numpy`` when the C library
is unavailable.  ``REPRO_NUM_THREADS`` bounds the row pool
(:func:`run_tasks`: the ``cc`` rung's row slices and the sharded backends'
tasks).  On the ``cc`` rung a call with fewer rows than the pool has
threads splits each row of at least ``_SPLIT_MIN_STATES`` amplitudes too:
its tile pass, then its column groups (and the fused expectation's
last-stride flush blocks), one :func:`run_tasks` round each, with bits
equal to the unsplit row's.  The C library is built (or loaded) once per
process: :func:`ensure_kernels` returns the build seconds on its first
call so providers can report compile time separately from execution time
in :class:`~repro.fur.engine.EngineStats`.
"""

from __future__ import annotations

import ctypes
import functools
import hashlib
import logging
import os
import shutil
import subprocess
import tempfile
import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor
from typing import Any

import numpy as np

from ..python import kernels as _numpy_rung
from ..python.kernels import check_block as _check_block
from ..python.kernels import check_positions, edge_array, mixer_edges

__all__ = [
    "KNOWN_PATHS",
    "DEFAULT_TILE_QUBITS",
    "active_path",
    "requested_num_threads",
    "effective_num_threads",
    "pool_threads",
    "row_ranges",
    "run_tasks",
    "ensure_kernels",
    "compiler_info",
    "phase_block",
    "furx_block",
    "rotate_x_block",
    "furx_phase_block",
    "furx_expectation_block",
    "furxy_block",
    "expectation_block",
    "mixer_edges",
]

#: Execution paths in ladder order (first available wins).
KNOWN_PATHS = ("cc", "numpy")

#: Default tile size in qubits: 2^11 complex128 amplitudes = 32 KiB, half a
#: typical L1D, leaving room for the factor table.  Measured throughput is
#: flat over tile_q 9..13 on the reference machine.
DEFAULT_TILE_QUBITS = 11

#: Columns per group, and strides per step, of the fused X layer's
#: column-grouped pass: it applies every stride at or above the tile to
#: ``_GROUP_COLUMNS`` adjacent columns of the row's ``(2^(n-t), 2^t)``
#: view, ``_GROUP_STRIDES`` strides (2^4 rows) at a time.  Rows of the
#: view lie 32 KiB apart, so on huge pages (numpy's large arrays) all
#: 2^(n-t) rows of a group collide in a few L2 sets.  Tile plus high
#: strides of one n=18 complex128 row on huge pages, one thread, 2-vCPU
#: Sapphire Rapids Xeon (2 MiB 16-way L2), median ms: one sweep per stride
#: 3.1; every stride in one step 4.5 (32 columns); four strides per step
#: 3.1 at 32 columns, 2.8 at 64, 2.7 at 128.  At n=20: 20.4 against 17.5
#: (128 columns, four strides).
_GROUP_COLUMNS = 128
_GROUP_STRIDES = 4

#: Pairs per partial sum of the fused expectation's last-stride reduction
#: (and of ``reduce_span``): a split of that loop cuts only between blocks.
_FLUSH_PAIRS = 4096

#: Smallest row (amplitudes) whose fused X layer splits across the row
#: pool when a call has fewer rows than threads.  A split costs two or
#: three :func:`run_tasks` rounds per layer, ~0.1 ms each.  One-row
#: ``furx_phase_block`` (phase table) on a 2-vCPU Sapphire Rapids Xeon,
#: split over two threads vs one, median ms: n=14 0.49 vs 0.30, n=15 0.64
#: vs 0.53, n=16 0.88 vs 1.06, n=18 2.85 vs 4.38.
_SPLIT_MIN_STATES = 1 << 16

#: Largest |γ·c| the ``cc`` rung's direct phase gives to its own
#: vectorized sin/cos; larger angles get libm's ``cos``/``sin``.  That
#: sin/cos reduces its argument exactly only below 2^20·π/2, and QAOA
#: angles stay far below this limit.
_PHASE_DIRECT_LIMIT = 1e5

_EMPTY_U16 = np.empty(0, dtype=np.uint16)
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

    The ``cc`` path sizes its row pool to ``min(request, cpu_count)``; the
    ``numpy`` path runs single-threaded (numpy's internal threading aside).
    """
    return pool_threads() if active_path() == "cc" else 1


_row_pool = None
_row_pool_size = 0
_row_pool_lock = threading.Lock()
_in_pool = threading.local()


def pool_threads() -> int:
    """Threads of the row pool, the one compute pool of :mod:`repro.fur`:
    ``min(REPRO_NUM_THREADS, cpu_count)``, else the core count."""
    cpus = os.cpu_count() or 1
    requested = requested_num_threads()
    return min(requested, cpus) if requested is not None else cpus


def row_ranges(rows: int, parts: int) -> list[tuple[int, int]]:
    """``[r0, r1)`` ranges splitting ``rows`` into ``min(parts, rows)``
    near-equal chunks."""
    chunk = max(1, -(-rows // max(1, min(parts, rows))))
    return [(r0, min(r0 + chunk, rows)) for r0 in range(0, rows, chunk)]


def _run(task) -> BaseException | None:
    try:
        task()
    except Exception as exc:  # noqa: BLE001 - re-raised by run_tasks
        return exc
    return None


def run_tasks(tasks) -> None:
    """Run every callable of ``tasks`` on the row pool, the caller helping.

    The caller runs the first task itself, then takes back every sibling
    no pool thread has started and runs it inline; it waits only on the
    siblings already running.  So a call completes even while every pool
    thread is busy with other callers' tasks, and a one-row split costs
    no hand-off when the pool is idle.  While the caller runs tasks it
    counts as a pool worker, so a task's own kernels never nest.

    Returns or raises only once every task has finished (a failed task
    never leaves a sibling writing behind the caller's back), re-raising
    the first failure in task order.  Runs them inline, in order, with one
    thread or one task, or when called from a pool worker: the pool never
    submits to itself.
    """
    global _row_pool, _row_pool_size
    threads = pool_threads()
    if threads <= 1 or len(tasks) <= 1 or getattr(_in_pool, "worker", False):
        errors = [_run(task) for task in tasks]
    else:
        with _row_pool_lock:
            if _row_pool_size != threads:
                if _row_pool is not None:
                    _row_pool.shutdown(wait=False)
                _row_pool = ThreadPoolExecutor(
                    max_workers=threads, thread_name_prefix="repro-jit",
                    initializer=setattr, initargs=(_in_pool, "worker", True))
                _row_pool_size = threads
            # submitted under the lock: a resize cannot shut the pool first
            futures = [_row_pool.submit(task) for task in tasks[1:]]
        _in_pool.worker = True
        try:
            errors = [_run(tasks[0])]
            errors += [_run(task) if future.cancel() else future
                       for task, future in zip(tasks[1:], futures)]
        finally:
            _in_pool.worker = False
        errors = [e.exception() if isinstance(e, Future) else e
                  for e in errors]
    first = next((e for e in errors if e is not None), None)
    if first is not None:
        raise first


def _parallel_rows(rows: int, run_slice) -> None:
    """Run ``run_slice(r0, r1)`` over row slices on the row pool (ctypes
    releases the GIL); from a pool worker, all rows in one slice.

    This splits rows only; the fused X layers split each of a few big rows
    as well (:func:`_row_parts`)."""
    parts = 1 if getattr(_in_pool, "worker", False) else pool_threads()
    run_tasks([functools.partial(run_slice, r0, r1)
               for r0, r1 in row_ranges(rows, parts)])


def _row_parts(rows: int, n_qubits: int, tile_q: int) -> int:
    """Slices each row of a fused X layer splits into on the ``cc`` rung.

    1 (the row split) unless the call has fewer rows than the pool has
    threads and a row holds at least :data:`_SPLIT_MIN_STATES` amplitudes
    beyond one tile; then enough slices per row to give every thread one.
    """
    threads = pool_threads()
    if (not 0 < rows < threads or getattr(_in_pool, "worker", False)
            or n_qubits <= tile_q or (1 << n_qubits) < _SPLIT_MIN_STATES):
        return 1
    return -(-threads // rows)


def _split_furx(lib, block, cs, ss, parts, phase, tile_q, q_end):
    """One fused X layer of every row, each row's passes split ``parts``
    ways: the tile pass, then (after :func:`run_tasks` returns, the only
    barrier) the column-grouped pass of strides ``tile_q..q_end-1``.  The
    C loops are the ones the row split runs, so the bits are too."""
    rows, _, n_qubits = _check_block(block)
    suf = _suffix(block)
    mode, factors, inverse, g, pcosts = phase
    tiles = getattr(lib, f"jit_furx_tiles_{suf}")
    groups = getattr(lib, f"jit_furx_groups_{suf}")
    n_groups = -(-(1 << tile_q) // _GROUP_COLUMNS)
    run_tasks([functools.partial(
        tiles, _ptr(block[r]), n_qubits, k0, k1, cs[r], ss[r], mode,
        _ptr(factors[r]) if mode == 1 else None, _ptr(inverse),
        g[r] if mode else 0.0, _ptr(pcosts), tile_q)
        for r in range(rows)
        for k0, k1 in row_ranges(1 << (n_qubits - tile_q), parts)])
    run_tasks([functools.partial(groups, _ptr(block[r]), n_qubits, q_end,
                                 g0, g1, cs[r], ss[r], tile_q)
               for r in range(rows) for g0, g1 in row_ranges(n_groups, parts)])


# --------------------------------------------------------------------------
# The C path: one embedded source, compiled at first use, loaded via ctypes.
# --------------------------------------------------------------------------

# The per-precision kernel family is generated from one template (tokens
# @REAL@ / @SUF@) so the float32 path is structurally identical to float64.
_C_TEMPLATE = r"""
/* ---- @SUF@ (@REAL@) kernels ------------------------------------------- */

/* The X butterfly on one amplitude pair.  Each product's sign is folded
 * into its coefficient (c*ai + ns*br with ns = -s, not c*ai - s*br), so
 * every statement adds two rounded products: the vectorizer finds no
 * alternating add/subtract to fuse into vfmaddsub/vfmsubadd, and the
 * vector body, the scalar epilogue and every stride round alike.  The
 * result bits do not depend on the bit position a qubit sits at. */
static void pair_@SUF@(@REAL@ *lo, @REAL@ *hi, @REAL@ c, @REAL@ s,
                       @REAL@ ns)
{
    @REAL@ ar = lo[0], ai = lo[1], br = hi[0], bi = hi[1];
    lo[0] = c * ar + s * bi;
    lo[1] = c * ai + ns * br;
    hi[0] = c * br + s * ai;
    hi[1] = c * bi + ns * ar;
}

/* the butterflies of two disjoint runs of w amplitudes, pair by pair */
static void pairs_@SUF@(@REAL@ *restrict lo, @REAL@ *restrict hi,
                        ptrdiff_t w, @REAL@ c, @REAL@ s)
{
    const @REAL@ ns = -s;
    for (ptrdiff_t k = 0; k < w; ++k)
        pair_@SUF@(lo + 2 * k, hi + 2 * k, c, s, ns);
}

/* every butterfly of bit position q over a span of len amplitudes; at
 * q = 0 one loop walks the adjacent pairs, because a one-pair run is too
 * short for the vectorizer (the fold made each butterfly dearer, and this
 * loop pays for it) */
static void sweep_@SUF@(@REAL@ *x, ptrdiff_t len, int q, @REAL@ c, @REAL@ s)
{
    const @REAL@ ns = -s;
    const ptrdiff_t stride = (ptrdiff_t)1 << q;
    if (q == 0) {
        for (ptrdiff_t k = 0; k < len; k += 2)
            pair_@SUF@(x + 2 * k, x + 2 * k + 2, c, s, ns);
        return;
    }
    for (ptrdiff_t base = 0; base < len; base += 2 * stride)
        for (ptrdiff_t k = base; k < base + stride; ++k)
            pair_@SUF@(x + 2 * k, x + 2 * (k + stride), c, s, ns);
}

/* the last-stride butterfly of one row, fused with the cost-weighted norm
 * reduction, over the pair blocks [b0, b1) of @FLUSH@ pairs: block b's
 * partial sum goes to partials[b - b0].  Summed in block order from 0.0, the
 * partials give one sequential reduction's bits, however the blocks
 * were split. */
void jit_expec_tail_@SUF@(@REAL@ *x, int n_qubits, ptrdiff_t b0,
                          ptrdiff_t b1, double cd, double sd,
                          const double *ecosts, double *partials)
{
    const ptrdiff_t half = (ptrdiff_t)1 << (n_qubits - 1);
    const @REAL@ c = (@REAL@)cd, s = (@REAL@)sd, ns = -s;
    @REAL@ *lo = x, *hi = x + 2 * half;
    const double *clo = ecosts, *chi = ecosts + half;
    for (ptrdiff_t b = b0; b < b1; ++b) {
        const ptrdiff_t k1 = (b + 1) * @FLUSH@ < half ? (b + 1) * @FLUSH@
                                                      : half;
        double part = 0.0;
        for (ptrdiff_t k = b * @FLUSH@; k < k1; ++k) {
            @REAL@ ar = lo[2 * k], ai = lo[2 * k + 1];
            @REAL@ br = hi[2 * k], bi = hi[2 * k + 1];
            @REAL@ lr = c * ar + s * bi, li = c * ai + ns * br;
            @REAL@ hr = c * br + s * ai, hi_ = c * bi + ns * ar;
            lo[2 * k] = lr;  lo[2 * k + 1] = li;
            hi[2 * k] = hr;  hi[2 * k + 1] = hi_;
            part += clo[k] * ((double)lr * lr + (double)li * li)
                  + chi[k] * ((double)hr * hr + (double)hi_ * hi_);
        }
        partials[b - b0] = part;
    }
}

/* one amplitude times the factor fr + i fi; the sign folds into the
 * factor as in the butterfly (and in the table gather below) */
static inline void cmul_@SUF@(@REAL@ *a, @REAL@ fr, @REAL@ fi)
{
    @REAL@ ar = a[0], ai = a[1], nfi = -fi;
    a[0] = ar * fr + ai * nfi;
    a[1] = ar * fi + ai * fr;
}

/* phase multiply over a span: mode 1 = unique-value table gather,
 * mode 2 = direct cos/sin of -gamma*cost, in double and rounded once to
 * @REAL@.  Mode 2 takes the vectorized sincos_direct while every angle of
 * the span is within PHASE_DIRECT_LIMIT; a span with a larger (or NaN)
 * angle runs a scalar loop that gives each such angle libm's cos and sin
 * and the rest sincos_direct, so an amplitude's bits never depend on the
 * span it falls in. */
static void phase_span_@SUF@(@REAL@ *tx, ptrdiff_t s0, ptrdiff_t len,
                             int mode, const @REAL@ *factors_row,
                             const uint16_t *inverse, double gamma,
                             const double *pcosts)
{
    if (mode == 1) {
        const uint16_t *idx = inverse + s0;
        for (ptrdiff_t i = 0; i < len; ++i) {
            @REAL@ fr = factors_row[2 * idx[i]];
            @REAL@ fi = factors_row[2 * idx[i] + 1], nfi = -fi;
            @REAL@ ar = tx[2 * i], ai = tx[2 * i + 1];
            tx[2 * i]     = ar * fr + ai * nfi;
            tx[2 * i + 1] = ar * fi + ai * fr;
        }
    } else if (mode == 2) {
        const double *cost = pcosts + s0;
        int wide = 0;
        for (ptrdiff_t i = 0; i < len; ++i)
            wide |= !(fabs(gamma * cost[i]) <= PHASE_DIRECT_LIMIT);
        if (!wide) {
            for (ptrdiff_t i = 0; i < len; ++i) {
                double sn, cs;
                sincos_direct(-gamma * cost[i], &sn, &cs);
                cmul_@SUF@(tx + 2 * i, (@REAL@)cs, (@REAL@)sn);
            }
            return;
        }
        for (ptrdiff_t i = 0; i < len; ++i) {
            double th = -gamma * cost[i], sn, cs;
            if (fabs(th) <= PHASE_DIRECT_LIMIT) {
                sincos_direct(th, &sn, &cs);
            } else {
                cs = cos(th);
                sn = sin(th);
            }
            cmul_@SUF@(tx + 2 * i, (@REAL@)cs, (@REAL@)sn);
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
        if ((i & (@FLUSH@ - 1)) == @FLUSH@ - 1) { total += part; part = 0.0; }
    }
    return total + part;
}

/* The fused X layer of one row runs as two passes, each splittable across
 * threads (the caller's run between them is the only barrier):
 *
 * the tile pass, over tiles [k0, k1) of 2^t amplitudes: per tile the phase
 * multiply, then every butterfly whose stride fits the tile (q < t) */
void jit_furx_tiles_@SUF@(@REAL@ *x, int n_qubits, ptrdiff_t k0,
                          ptrdiff_t k1, double cd, double sd, int mode,
                          const @REAL@ *factors_row, const uint16_t *inverse,
                          double gamma, const double *pcosts, int tile_q)
{
    const int t = tile_q < n_qubits ? tile_q : n_qubits;
    const ptrdiff_t T = (ptrdiff_t)1 << t;
    const @REAL@ c = (@REAL@)cd, s = (@REAL@)sd;
    for (ptrdiff_t k = k0; k < k1; ++k) {
        @REAL@ *tx = x + 2 * k * T;
        if (mode)
            phase_span_@SUF@(tx, k * T, T, mode, factors_row, inverse, gamma,
                             pcosts);
        for (int q = 0; q < t; ++q)
            sweep_@SUF@(tx, T, q, c, s);
    }
}

/* and the column-grouped pass, over groups [g0, g1) of the row seen as a
 * (2^(n-t), 2^t) matrix: each group of @GROUP@ adjacent columns applies
 * the strides q = t..q_end-1 in order.  It takes them @STRIDES@ at a time,
 * so each step mixes only 2^@STRIDES@ rows: those stay in cache, where all
 * of a group's rows, a power-of-two stride apart, would collide in the
 * cache sets.  Every amplitude meets the same butterflies in the same
 * order as under one streamed sweep per stride, so the bits are those
 * sweeps' bits. */
void jit_furx_groups_@SUF@(@REAL@ *x, int n_qubits, int q_end,
                           ptrdiff_t g0, ptrdiff_t g1, double cd, double sd,
                           int tile_q)
{
    const int t = tile_q < n_qubits ? tile_q : n_qubits;
    const ptrdiff_t T = (ptrdiff_t)1 << t;
    const ptrdiff_t R = (ptrdiff_t)1 << (n_qubits - t);
    const @REAL@ c = (@REAL@)cd, s = (@REAL@)sd;
    for (ptrdiff_t g = g0; g < g1; ++g) {
        const ptrdiff_t c0 = g * @GROUP@;
        const ptrdiff_t w = c0 + @GROUP@ < T ? @GROUP@ : T - c0;
        for (int qa = t; qa < q_end; qa += @STRIDES@) {
            const int qb = qa + @STRIDES@ < q_end ? qa + @STRIDES@ : q_end;
            /* rows m, m + step, ... m + span - step: the ones strides
             * qa..qb-1 mix with each other */
            const ptrdiff_t step = (ptrdiff_t)1 << (qa - t);
            const ptrdiff_t span = (ptrdiff_t)1 << (qb - t);
            for (ptrdiff_t j0 = 0; j0 < R; j0 += span)
                for (ptrdiff_t m = j0; m < j0 + step; ++m)
                    for (int q = qa; q < qb; ++q) {
                        const ptrdiff_t h = (ptrdiff_t)1 << (q - t);
                        for (ptrdiff_t b = m; b < m + span; b += 2 * h)
                            for (ptrdiff_t j = b; j < b + h; j += step)
                                pairs_@SUF@(x + 2 * (j * T + c0),
                                            x + 2 * ((j + h) * T + c0), w,
                                            c, s);
                    }
        }
    }
}

/* fused phase + X rotations of bit positions 0..q_end-1 on one row: all
 * tiles, then all column groups */
static void furx_row_@SUF@(@REAL@ *x, int n_qubits, int q_end, @REAL@ c,
                           @REAL@ s, int mode, const @REAL@ *factors_row,
                           const uint16_t *inverse, double gamma,
                           const double *pcosts, int tile_q)
{
    const int t = tile_q < n_qubits ? tile_q : n_qubits;
    jit_furx_tiles_@SUF@(x, n_qubits, 0, (ptrdiff_t)1 << (n_qubits - t), c,
                         s, mode, factors_row, inverse, gamma, pcosts,
                         tile_q);
    jit_furx_groups_@SUF@(x, n_qubits, q_end, 0,
                          (((ptrdiff_t)1 << t) + @GROUP@ - 1) / @GROUP@, c,
                          s, tile_q);
}

/* optional phase, then X rotations at the given bit positions, in order:
 * the tiled single pass when positions are 0..n-1, one strided sweep per
 * position otherwise (the butterfly rounds the same either way) */
void jit_rotx_@SUF@(@REAL@ *block, ptrdiff_t rows, int n_qubits,
                    const double *cs, const double *ss,
                    const int64_t *positions, int n_positions, int mode,
                    const @REAL@ *factors, ptrdiff_t n_unique,
                    const uint16_t *inverse, const double *gammas,
                    const double *pcosts, int tile_q)
{
    const ptrdiff_t n = (ptrdiff_t)1 << n_qubits;
    int full = n_positions == n_qubits;
    for (int i = 0; full && i < n_positions; ++i)
        full = positions[i] == i;
    for (ptrdiff_t r = 0; r < rows; ++r) {
        @REAL@ *x = block + 2 * r * n;
        const @REAL@ c = (@REAL@)cs[r], s = (@REAL@)ss[r];
        const @REAL@ *factors_row = factors ? factors + 2 * r * n_unique : 0;
        const double gamma = gammas ? gammas[r] : 0.0;
        if (full) {
            furx_row_@SUF@(x, n_qubits, n_qubits, c, s, mode, factors_row,
                           inverse, gamma, pcosts, tile_q);
            continue;
        }
        if (mode)
            phase_span_@SUF@(x, 0, n, mode, factors_row, inverse, gamma,
                             pcosts);
        for (int i = 0; i < n_positions; ++i)
            sweep_@SUF@(x, n, (int)positions[i], c, s);
    }
}

/* fused phase + X mixer + expectation: the trailing reduction rides the
 * mixer's own sweep — the last-stride butterfly (or, when every stride fits
 * one tile, the tile itself) accumulates sum(cost * |amp|^2) as it writes */
void jit_furx_expec_@SUF@(@REAL@ *block, ptrdiff_t rows, int n_qubits,
                          const double *cs, const double *ss, int mode,
                          const @REAL@ *factors, ptrdiff_t n_unique,
                          const uint16_t *inverse, const double *gammas,
                          const double *pcosts, int tile_q,
                          const double *ecosts, double *out)
{
    const ptrdiff_t n = (ptrdiff_t)1 << n_qubits, half = n >> 1;
    const int tiled = tile_q >= n_qubits;
    for (ptrdiff_t r = 0; r < rows; ++r) {
        @REAL@ *x = block + 2 * r * n;
        const @REAL@ c = (@REAL@)cs[r], s = (@REAL@)ss[r];
        furx_row_@SUF@(x, n_qubits, tiled ? n_qubits : n_qubits - 1, c, s,
                       mode, factors ? factors + 2 * r * n_unique : 0,
                       inverse, gammas ? gammas[r] : 0.0, pcosts, tile_q);
        if (tiled) {
            out[r] = reduce_span_@SUF@(x, 0, n, ecosts);
            continue;
        }
        double total = 0.0, part;
        for (ptrdiff_t b = 0; b * @FLUSH@ < half; ++b) {
            jit_expec_tail_@SUF@(x, n_qubits, b, b + 1, c, s, ecosts, &part);
            total += part;
        }
        out[r] = total;
    }
}

void jit_phase_@SUF@(@REAL@ *block, ptrdiff_t rows, ptrdiff_t n_states,
                     int mode, const @REAL@ *factors, ptrdiff_t n_unique,
                     const uint16_t *inverse, const double *gammas,
                     const double *pcosts)
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

/* ordered-edge XY mixer (edges normalized a < b), with optional leading
 * phase multiply; the {|01>,|10>} subspace rotation is the same (c, s)
 * butterfly applied to the (x|1<<a, x|1<<b) pairs */
void jit_furxy_@SUF@(@REAL@ *block, ptrdiff_t rows, int n_qubits,
                     const double *cs, const double *ss, int n_trotters,
                     const int64_t *edges, ptrdiff_t n_edges, int mode,
                     const @REAL@ *factors, ptrdiff_t n_unique,
                     const uint16_t *inverse, const double *gammas,
                     const double *pcosts)
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
                            pair_@SUF@(x + 2 * (l + sa), x + 2 * (l + sb), c,
                                       s, -s);
            }
    }
}
"""

_C_PRELUDE = """\
/* Generated by repro.fur.jit.kernels — do not edit (cached by source hash). */
#include <math.h>
#include <stddef.h>
#include <stdint.h>
#include <string.h>

#define PHASE_DIRECT_LIMIT @LIMIT@

/* sin and cos of x, |x| <= PHASE_DIRECT_LIMIT, with no branch and no call,
 * so the phase loops vectorize.  fdlibm's medium-range reduction, second
 * round: k = nearest integer to x*2/pi (the 1.5*2^52 shift leaves k mod 4
 * in the low bits), then x - k*pi/2 as the double-double y0 + y1, with
 * pi/2 split into 33-bit pieces so k*pio2_1 and k*pio2_2 are exact for
 * |k| < 2^20 (no fma(): without -march=native it is a software call).
 * Then fdlibm's __kernel_sin/__kernel_cos polynomials on |y0| <= pi/4,
 * and the quadrant folded in with selects.  Within 1 ulp of libm. */
static inline void sincos_direct(double x, double *sn, double *cs)
{
    const double shift = 6755399441055744.0;              /* 1.5 * 2^52 */
    const double invpio2 = 6.36619772367581382433e-01;    /* 2/pi */
    const double pio2_1 = 1.57079632673412561417e+00;     /* pi/2, 33 bits */
    const double pio2_2 = 6.07710050630396597660e-11;     /* next 33 bits */
    const double pio2_2t = 2.02226624879595063154e-21;    /* the rest */
    const double t = x * invpio2 + shift, k = t - shift;
    uint64_t q;
    memcpy(&q, &t, sizeof q);
    const double r = x - k * pio2_1;
    double w = k * pio2_2;
    const double rr = r - w;
    w = k * pio2_2t - ((r - rr) - w);
    const double y0 = rr - w, y1 = (rr - y0) - w;

    const double z = y0 * y0, zz = z * z, v = z * y0;
    const double ps = 8.33333333332248946124e-03
        + z * (-1.98412698298579493134e-04 + z * 2.75573137070700676789e-06)
        + z * zz * (-2.50507602534068634195e-08
                    + z * 1.58969099521155010221e-10);
    const double s = y0 - ((z * (0.5 * y1 - v * ps) - y1)
                           - v * -1.66666666666666324348e-01);
    const double pc = z * (4.16666666666666019037e-02
                           + z * (-1.38888888888741095749e-03
                                  + z * 2.48015872894767294178e-05))
        + zz * zz * (-2.75573143513906633035e-07
                     + z * (2.08757232129817482790e-09
                            + z * -1.13596475577881948265e-11));
    const double hz = 0.5 * z, wc = 1.0 - hz;
    const double c = wc + (((1.0 - wc) - hz) + (z * pc - y0 * y1));

    const double sa = q & 1 ? c : s, ca = q & 1 ? s : c;
    *sn = q & 2 ? -sa : sa;
    *cs = (q + 1) & 2 ? -ca : ca;
}
"""


def _c_source() -> str:
    template = (_C_TEMPLATE.replace("@GROUP@", str(_GROUP_COLUMNS))
                .replace("@STRIDES@", str(_GROUP_STRIDES))
                .replace("@FLUSH@", str(_FLUSH_PAIRS)))
    parts = [_C_PRELUDE.replace("@LIMIT@", repr(_PHASE_DIRECT_LIMIT))]
    for real, suf in (("double", "f64"), ("float", "f32")):
        parts.append(template.replace("@REAL@", real).replace("@SUF@", suf))
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
_log = logging.getLogger("repro.fur.jit")


def _cache_dir() -> str:
    base = os.environ.get("XDG_CACHE_HOME") or os.path.join(
        os.path.expanduser("~"), ".cache")
    try:
        path = os.path.join(base, "repro-jit")
        os.makedirs(path, exist_ok=True)
        return path
    except OSError:
        return tempfile.mkdtemp(prefix="repro-jit-")


def _compiler_name(compiler: str) -> str:
    """``compiler`` plus the first line of its ``--version`` output."""
    try:
        result = subprocess.run([compiler, "--version"], capture_output=True,
                                text=True, timeout=30)
        version = result.stdout.strip().splitlines()[0]
    except (OSError, subprocess.SubprocessError, IndexError):
        return compiler
    return f"{compiler} ({version})"


def _compile_clib(source: str, src_path: str, lib_path: str) -> None:
    """Compile ``source`` to ``lib_path``, naming the compiler in the
    ``<lib_path>.compiler`` sidecar.  Both files appear through
    ``os.replace`` (atomic under concurrent builds), the sidecar first, so
    a cached shared object always has one."""
    global _c_build_seconds, _c_compiler
    compiler = _find_compiler()
    if compiler is None:
        raise RuntimeError("no C compiler found (tried cc, gcc, clang)")
    name = _compiler_name(compiler)
    with open(src_path, "w") as fh:
        fh.write(source)
    tmp_path = f"{lib_path}.{os.getpid()}.tmp"
    with open(tmp_path, "w") as fh:
        fh.write(name)
    os.replace(tmp_path, f"{lib_path}.compiler")
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
    os.replace(tmp_path, lib_path)
    _c_build_seconds = time.perf_counter() - start
    _c_compiler = name


def _open_clib(lib_path: str) -> ctypes.CDLL:
    lib = ctypes.CDLL(lib_path)
    _declare_argtypes(lib)
    return lib


def _build_clib() -> ctypes.CDLL:
    """Load the cached shared object, else compile it (once per machine).

    A cache entry is the object plus its ``.compiler`` sidecar; an object
    without one (cached before sidecars existed) is rebuilt.  A cached
    object that fails to load is rebuilt once, with one WARNING naming the
    file and the load error."""
    global _c_compiler
    source = _c_source()
    tag = hashlib.sha256(source.encode()).hexdigest()[:16]
    cache = _cache_dir()
    lib_path = os.path.join(cache, f"libreprojit-{tag}.so")
    try:
        with open(f"{lib_path}.compiler") as fh:
            name = fh.read().strip()
    except OSError:
        name = None
    if name and os.path.exists(lib_path):
        try:
            lib = _open_clib(lib_path)
        except OSError as exc:
            _log.warning("cached jit kernel library %s failed to load (%s); "
                         "rebuilding it", lib_path, exc)
        else:
            _c_compiler = name
            return lib
    _compile_clib(source, os.path.join(cache, f"reprojit-{tag}.c"), lib_path)
    return _open_clib(lib_path)


def _declare_argtypes(lib: ctypes.CDLL) -> None:
    p = ctypes.c_void_p
    ssz = ctypes.c_ssize_t
    i = ctypes.c_int
    d = ctypes.c_double
    for suf in ("f64", "f32"):
        fn = getattr(lib, f"jit_rotx_{suf}")
        fn.restype = None
        fn.argtypes = [p, ssz, i, p, p, p, i, i, p, ssz, p, p, p, i]
        fn = getattr(lib, f"jit_furx_expec_{suf}")
        fn.restype = None
        fn.argtypes = [p, ssz, i, p, p, i, p, ssz, p, p, p, i, p, p]
        fn = getattr(lib, f"jit_furx_tiles_{suf}")
        fn.restype = None
        fn.argtypes = [p, i, ssz, ssz, d, d, i, p, p, d, p, i]
        fn = getattr(lib, f"jit_furx_groups_{suf}")
        fn.restype = None
        fn.argtypes = [p, i, i, ssz, ssz, d, d, i]
        fn = getattr(lib, f"jit_expec_tail_{suf}")
        fn.restype = None
        fn.argtypes = [p, i, ssz, ssz, d, d, p, p]
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
    """The compiler that built the ``cc`` path's library, with the first
    line of its ``--version`` (``None`` until the library is loaded)."""
    return _c_compiler


# --------------------------------------------------------------------------
# Path resolution.
# --------------------------------------------------------------------------

_active_path: str | None = None
_path_lock = threading.Lock()


def active_path() -> str:
    """Which implementation serves the public kernels (resolved lazily).

    ``cc`` when a compiler (or a cached shared object) is available, else
    ``numpy``.  ``REPRO_JIT_PATH=numpy`` forces the fallback (useful for
    tests and for excluding the compile cost in constrained environments);
    ``cc`` and ``auto`` (the default) both try ``cc`` first, and any other
    value logs one WARNING and does the same.  Falling to ``numpy`` from
    ``cc`` logs one WARNING on the ``repro.fur.jit`` logger naming the C
    build error.
    """
    global _active_path
    if _active_path is not None:
        return _active_path
    with _path_lock:
        if _active_path is not None:
            return _active_path
        forced = os.environ.get("REPRO_JIT_PATH", "auto").strip().lower()
        if forced not in KNOWN_PATHS + ("auto", ""):
            _log.warning("ignoring REPRO_JIT_PATH=%r (accepted: cc|numpy|"
                         "auto); trying the cc path first", forced)
        if forced == "numpy":
            path = "numpy"
        elif _load_clib() is not None:
            path = "cc"
        else:
            path = "numpy"
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
# One C build per process, booked once.
# --------------------------------------------------------------------------

_c_time_reported = False
_ensure_lock = threading.Lock()


def ensure_kernels(dtype: Any, n_qubits: int, mixer: str) -> float:
    """Resolve the kernel path, building or loading the C library.

    Returns the seconds this process spent compiling that library on its
    first call on the ``cc`` path, and 0.0 on every other call: one
    library serves every ``(dtype, n, mixer)`` signature, so the arguments
    only name the caller's.  Providers call it once at construction and add
    the result to ``EngineStats.kernel_compile_time_s``.
    """
    global _c_time_reported
    path = active_path()
    with _ensure_lock:
        if path != "cc" or _c_time_reported:
            return 0.0
        _c_time_reported = True
        return _c_build_seconds


# --------------------------------------------------------------------------
# Shared argument staging.
# --------------------------------------------------------------------------

def _phase_args(block: np.ndarray, gammas: np.ndarray | None,
                phase_table: Any, costs: np.ndarray | None):
    """Normalize the phase inputs to (mode, factors, inverse, gammas, costs).

    mode 0 = no phase, 1 = unique-value table gather, 2 = direct cos/sin
    of ``-γ·c`` per amplitude (the diagonals :func:`build_phase_table`
    declines), in double and rounded once to the block's precision: the
    ``cc`` rung's branch-free vectorized sin/cos, within 1 ulp of libm,
    and libm's own bits for any ``|γ·c|`` above ``_PHASE_DIRECT_LIMIT``.
    All arrays come back C-contiguous at the dtypes the compiled kernels
    expect (complex factors at block dtype, the table's ``uint16``
    inverse, float64 gammas, float64 costs) — the arrays a simulator holds,
    passed without a copy.
    """
    empty = np.empty((0, 0), dtype=block.dtype)
    if gammas is None:
        return 0, empty, _EMPTY_U16, _EMPTY_F64, _EMPTY_F64
    g = np.ascontiguousarray(gammas, dtype=np.float64)
    if phase_table is not None:
        factors = np.ascontiguousarray(
            phase_table.factors_batch(g, dtype=block.dtype))
        inverse = np.ascontiguousarray(phase_table.inverse, dtype=np.uint16)
        return 1, factors, inverse, g, _EMPTY_F64
    if costs is None:
        raise ValueError("phase application needs a phase_table or costs")
    pcosts = np.ascontiguousarray(costs, dtype=np.float64)
    return 2, empty, _EMPTY_U16, g, pcosts


def _ptr(arr: np.ndarray):
    return ctypes.c_void_p(arr.ctypes.data) if arr.size else None


def _suffix(block: np.ndarray) -> str:
    return "f32" if block.dtype == np.complex64 else "f64"


# --------------------------------------------------------------------------
# Public kernels: X mixer family.
# --------------------------------------------------------------------------

def rotate_x_block(block: np.ndarray, betas: np.ndarray, positions: Any, *,
                   gammas: np.ndarray | None = None, phase_table: Any = None,
                   costs: np.ndarray | None = None,
                   tile_q: int = DEFAULT_TILE_QUBITS) -> None:
    """Optional phase, then ``exp(-i β_r X)`` at each bit position, in place.

    With ``gammas`` (and a ``phase_table`` or ``costs``) row ``r`` is first
    multiplied by ``exp(-i γ_r c)``; the rotations then run in the order
    of ``positions``.  On every rung the arithmetic does not depend on the
    position a rotation acts on, so a qubit rotated at a relabelled
    position (the sharded backends' global step) gets the same bits as at
    its home position.  The ``cc`` rung runs the tiled single pass of
    :func:`furx_phase_block` when ``positions`` is ``0..n-1`` and one
    strided sweep per position otherwise; the numpy rung runs the blocked
    pair update per position.
    """
    if active_path() == "numpy":
        _numpy_rung.rotate_x_block(block, betas, positions, gammas=gammas,
                                   phase_table=phase_table, costs=costs)
        return
    _, _, n_qubits = _check_block(block)
    pos = check_positions(positions, n_qubits)
    _compiled_rotate_x(block, betas, pos, gammas, phase_table, costs, tile_q)


def _compiled_rotate_x(block, betas, positions, gammas, phase_table, costs,
                       tile_q):
    rows, _, n_qubits = _check_block(block)
    mode, factors, inverse, g, pcosts = _phase_args(block, gammas,
                                                    phase_table, costs)
    b = np.ascontiguousarray(betas, dtype=np.float64)
    cs, ss = np.cos(b), np.sin(b)
    lib = _load_clib()
    parts = _row_parts(rows, n_qubits, tile_q)
    if parts > 1 and np.array_equal(positions, np.arange(n_qubits)):
        _split_furx(lib, block, cs, ss, parts,
                    (mode, factors, inverse, g, pcosts), tile_q, n_qubits)
        return
    fn = getattr(lib, f"jit_rotx_{_suffix(block)}")
    n_unique = factors.shape[1]

    def run_slice(r0: int, r1: int) -> None:
        fn(_ptr(block[r0:r1]), r1 - r0, n_qubits, _ptr(cs[r0:r1]),
           _ptr(ss[r0:r1]), _ptr(positions), len(positions), mode,
           _ptr(factors[r0:r1]), n_unique, _ptr(inverse),
           _ptr(g[r0:r1]) if mode else None, _ptr(pcosts), tile_q)

    _parallel_rows(rows, run_slice)


def furx_phase_block(block: np.ndarray, gammas: np.ndarray | None,
                     betas: np.ndarray, *, phase_table: Any = None,
                     costs: np.ndarray | None = None,
                     tile_q: int = DEFAULT_TILE_QUBITS,
                     scratch: np.ndarray | None = None) -> None:
    """Fused phase + full X mixer on every row of a block, in place.

    ``gammas=None`` skips the phase (plain ``exp(-i β_r Σ X)``); otherwise
    each row is multiplied by ``exp(-i γ_r c)`` as its first tile touch.
    Semantics match :func:`repro.fur.python.furx.furx_phase_all_batch`.
    The ``cc`` path runs in place; only the ``numpy`` path's gemm passes
    ping-pong through ``scratch`` (a block-shaped buffer, allocated per
    call when ``None``).
    """
    if active_path() == "numpy":
        _numpy_rung.furx_phase_block(block, gammas, betas,
                                     phase_table=phase_table, costs=costs,
                                     scratch=scratch)
        return
    _, _, n_qubits = _check_block(block)
    _compiled_rotate_x(block, betas, np.arange(n_qubits, dtype=np.int64),
                       gammas, phase_table, costs, tile_q)


def furx_block(block: np.ndarray, betas: np.ndarray, *,
               tile_q: int = DEFAULT_TILE_QUBITS,
               scratch: np.ndarray | None = None) -> None:
    """Full X mixer ``exp(-i β_r Σ_i X_i)`` on every row, in place.

    ``scratch`` is as for :func:`furx_phase_block`: the numpy rung runs the
    gemm passes here, and :func:`rotate_x_block` stays the
    position-independent rotation on every rung.
    """
    furx_phase_block(block, None, betas, tile_q=tile_q, scratch=scratch)


def mixer_needs_scratch() -> bool:
    """Whether the X mixer kernels want a block-shaped ``scratch=`` buffer.

    Only the numpy rung's gemm passes ping-pong through a second block, so
    memory budgets count one exactly when this is true.
    """
    return active_path() == "numpy"


def furx_expectation_block(block: np.ndarray, gammas: np.ndarray | None,
                           betas: np.ndarray, ecosts: np.ndarray, *,
                           phase_table: Any = None,
                           costs: np.ndarray | None = None,
                           tile_q: int = DEFAULT_TILE_QUBITS,
                           scratch: np.ndarray | None = None) -> np.ndarray:
    """Fused (phase +) X mixer + expectation: per-row ``Σ c|ψ|²`` (float64).

    The reduction rides the mixer's final sweep instead of re-reading the
    block; the block still holds the evolved state afterwards.  ``scratch``
    is as for :func:`furx_phase_block`.
    """
    if active_path() == "numpy":
        return _numpy_rung.furx_expectation_block(
            block, gammas, betas, ecosts, phase_table=phase_table,
            costs=costs, scratch=scratch)
    rows, n_states, n_qubits = _check_block(block)
    ecosts = np.ascontiguousarray(ecosts, dtype=np.float64)
    mode, factors, inverse, g, pcosts = _phase_args(block, gammas,
                                                    phase_table, costs)
    b = np.ascontiguousarray(betas, dtype=np.float64)
    cs, ss = np.cos(b), np.sin(b)
    out = np.zeros(rows, dtype=np.float64)
    lib = _load_clib()
    parts = _row_parts(rows, n_qubits, tile_q)
    if parts > 1:
        # the last stride runs apart, cut only at flush boundaries: one
        # partial per flush block, summed in block order as the row
        # kernel sums them
        _split_furx(lib, block, cs, ss, parts,
                    (mode, factors, inverse, g, pcosts), tile_q, n_qubits - 1)
        tail = getattr(lib, f"jit_expec_tail_{_suffix(block)}")
        partials = np.empty((rows, -(-(n_states >> 1) // _FLUSH_PAIRS)))
        run_tasks([functools.partial(tail, _ptr(block[r]), n_qubits, b0, b1,
                                     cs[r], ss[r], _ptr(ecosts),
                                     _ptr(partials[r, b0:]))
                   for r in range(rows)
                   for b0, b1 in row_ranges(partials.shape[1], parts)])
        for r, row in enumerate(partials.tolist()):
            total = 0.0
            for part in row:
                total += part
            out[r] = total
        return out
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
                betas: np.ndarray, *, edges: Any, n_trotters: int = 1,
                phase_table: Any = None,
                costs: np.ndarray | None = None) -> None:
    """(Phase +) ordered XY mixer over an explicit edge list, in place.

    Applies ``n_trotters`` repetitions at angle ``β_r / n_trotters``, one
    ``{|01>,|10>}`` rotation per ``(i, j)`` pair of ``edges`` in the given
    order (:func:`mixer_edges` gives the ring and complete mixers' order).
    """
    if active_path() == "numpy":
        _numpy_rung.furxy_block(block, gammas, betas, edges=edges,
                                n_trotters=n_trotters,
                                phase_table=phase_table, costs=costs)
        return
    rows, n_states, n_qubits = _check_block(block)
    edges = edge_array(edges, n_qubits)
    b = np.ascontiguousarray(betas, dtype=np.float64) / n_trotters
    mode, factors, inverse, g, pcosts = _phase_args(block, gammas,
                                                    phase_table, costs)
    cs, ss = np.cos(b), np.sin(b)
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
    if active_path() == "numpy":
        _numpy_rung.phase_block(block, gammas, phase_table=phase_table,
                                costs=costs)
        return
    rows, n_states, _ = _check_block(block)
    mode, factors, inverse, g, pcosts = _phase_args(block, gammas,
                                                    phase_table, costs)
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
    if active_path() == "numpy":
        return _numpy_rung.expectation_block(block, ecosts)
    rows, n_states, _ = _check_block(block)
    ecosts = np.ascontiguousarray(ecosts, dtype=np.float64)
    out = np.zeros(rows, dtype=np.float64)
    lib = _load_clib()
    fn = getattr(lib, f"jit_expec_{_suffix(block)}")

    def run_slice(r0: int, r1: int) -> None:
        fn(_ptr(block[r0:r1]), r1 - r0, n_states, _ptr(ecosts),
           _ptr(out[r0:r1]))

    _parallel_rows(rows, run_slice)
    return out
