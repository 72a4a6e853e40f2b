#!/usr/bin/env python
"""Fused batched evaluation vs the looped default (the Fig. 2 access pattern).

The paper's headline result is end-to-end parameter-optimization speed:
thousands of objective evaluations over the *same* precomputed diagonal.
This benchmark measures the shared execution engine's fused path (a
``(B, 2^n)`` state block evolved through all layers, see
:mod:`repro.fur.engine`) against its looped path (``mode="looped"``), on the
LABS workload the paper uses — and, per backend, the double-vs-single
precision trade (``precision="single"``: complex64 state, half the bytes per
amplitude).

Usage::

    PYTHONPATH=src python benchmarks/bench_batched_evaluation.py           # full size
    PYTHONPATH=src python benchmarks/bench_batched_evaluation.py --smoke   # CI-sized
    PYTHONPATH=src python benchmarks/bench_batched_evaluation.py --check   # assert >=3x
    PYTHONPATH=src python benchmarks/bench_batched_evaluation.py \
        --json BENCH_precision.json                           # machine-readable record
    PYTHONPATH=src python benchmarks/bench_batched_evaluation.py \
        --engine-report                        # BENCH_engine.json incl. distributed

Full size is B=32 schedules, n=16 qubits, p=4 layers; ``--check`` fails the
run unless the ``python`` backend's fused path is at least 3x faster than the
looped default (the acceptance bar for the fused engine), the
single-precision expectations stay within the 1e-5 relative error envelope,
the plan-rewrite optimizer (``optimize="default"``) beats the unoptimized op
stream (``optimize="none"``) on the ``python`` and ``c`` backends, and (with
``--engine-report``) every distributed backend's fused path beats its looped
default.  ``--engine-report`` additionally records the engine's plan-compile
time, blocks executed, per-backend fused throughput — including the
distributed families — and the optimized-vs-unoptimized rewrite section in
``BENCH_engine.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

import numpy as np

try:
    import repro
except ImportError:  # running without PYTHONPATH=src
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    import repro

from repro.fur import diagonal_cache
from repro.fur.base import batch_block_rows
from repro.problems import labs

#: Required fused-vs-looped advantage on the ``python`` backend (--check).
REQUIRED_PYTHON_SPEEDUP = 3.0

#: Required sharded(best) advantage over the best single-worker backend at
#: full size (--check) — only enforced on machines with this many cores.
REQUIRED_SHARDED_SPEEDUP = 1.5
SHARDED_GATE_MIN_CORES = 4

#: Pinned single-vs-double relative error envelope for expectations (--check).
SINGLE_PRECISION_RTOL = 1e-5

#: Cut-vs-uncut expectation agreement required of the fragment pipeline
#: (--check).  The wire-cut recombination is algebraically exact at p=1, so
#: only floating-point roundoff separates the two paths.
CUT_PARITY_ATOL = 1e-10


def _best_of(callable_, repeats: int) -> float:
    best = np.inf
    for _ in range(repeats):
        start = time.perf_counter()
        callable_()
        best = min(best, time.perf_counter() - start)
    return best


def _paired_timings(callables: list, repeats: int) -> np.ndarray:
    """Per-round timings with the candidates interleaved, shape (repeats, k).

    Used for close pairs (the optimized-vs-unoptimized plans differ by a few
    percent): alternating the candidates inside each round makes every round
    a *paired* sample, so machine drift (frequency scaling, cache state)
    hits both sides equally and cancels in the per-round ratio.  Callers
    compare via the median of those ratios — far more stable at few-percent
    margins than comparing two independently-located best-of floors.
    """
    times = np.empty((repeats, len(callables)))
    for rep in range(repeats):
        for i, fn in enumerate(callables):
            start = time.perf_counter()
            fn()
            times[rep, i] = time.perf_counter() - start
    return times


def bench_backend(backend: str, terms, n: int, batch: int, p: int,
                  repeats: int, rng: np.random.Generator,
                  simulator_kwargs: dict | None = None) -> dict:
    """Time the engine's fused vs looped ``get_expectation_batch`` paths.

    The fused path is also timed with the plan-rewrite optimizer disabled
    (``optimize="none"``), so the report records what the rewrite passes
    (phase-into-mixer fusion, exchange coalescing) buy per backend.
    """
    sim = repro.simulator(n, terms=terms, backend=backend,
                          **(simulator_kwargs or {}))
    gammas = rng.uniform(0.0, 1.0, (batch, p))
    betas = rng.uniform(0.0, 1.0, (batch, p))

    # One untimed warm-up round per evaluation path before any timed repeat:
    # the first fused call compiles the execution plan and (jit tier) the
    # kernels themselves, so timing it would skew the round by the one-time
    # JIT cost.  Compile time is recorded as its own fields below
    # (compile_time_s / kernel_compile_time_s), never inside timings; the
    # warm-up results double as the correctness cross-check.
    fused_values = sim.get_expectation_batch(gammas, betas)
    looped_values = sim.get_expectation_batch(gammas, betas, mode="looped")
    unopt_values = sim.get_expectation_batch(gammas, betas, optimize="none")
    np.testing.assert_allclose(fused_values, looped_values, rtol=1e-10)
    np.testing.assert_allclose(fused_values, unopt_values, rtol=1e-10)

    pairs = _paired_timings(
        [lambda: sim.get_expectation_batch(gammas, betas),
         lambda: sim.get_expectation_batch(gammas, betas, optimize="none")],
        10 * repeats)
    fused = float(pairs[:, 0].min())
    unoptimized = float(pairs[:, 1].min())
    looped = _best_of(
        lambda: sim.get_expectation_batch(gammas, betas, mode="looped"),
        repeats)
    stats = sim.engine.stats.as_dict()
    record = {
        "backend": backend,
        "fused_s": fused,
        "looped_s": looped,
        "speedup": looped / fused,
        "fused_schedules_per_s": batch / fused,
        "unoptimized_s": unoptimized,
        # Median of the paired per-round ratios (see _paired_timings) — the
        # drift-cancelling statistic the rewrite gate asserts on.
        "rewrite_speedup": float(np.median(pairs[:, 1] / pairs[:, 0])),
        # One-time compile costs, recorded apart from the timed rounds: the
        # engine's plan compilation and the provider's kernel JIT (numba
        # specialization / the jit tier's shared-object build).
        "compile_time_s": stats["compile_time_s"],
        "kernel_compile_time_s": stats["kernel_compile_time_s"],
        "engine": stats,
    }
    if backend == "gpu":
        record["modeled_device_s"] = sim.modeled_device_time()
    return record


def _fused_block_bytes(sim, batch: int) -> int:
    """Peak fused-engine state-block bytes for one sub-batch of ``sim``."""
    itemsize = sim.precision_spec.complex_itemsize
    blocks = 2 if getattr(sim, "_mixer_needs_scratch", False) else 1
    rows = batch_block_rows(batch, sim.n_states, None, blocks=blocks,
                            itemsize=itemsize)
    return blocks * rows * sim.n_states * itemsize


def bench_precision(backend: str, terms, n: int, batch: int, p: int,
                    repeats: int, rng: np.random.Generator) -> dict:
    """Double-vs-single fused evaluation for one backend.

    Reports the wall-clock speedup, the peak state-memory ratio of the fused
    block, the modeled device speedup (gpu backend: the bandwidth-bound
    model, which halving bytes-per-amplitude improves by construction) and
    the worst relative error of the single-precision expectations.
    """
    gammas = rng.uniform(0.0, 1.0, (batch, p))
    betas = rng.uniform(0.0, 1.0, (batch, p))
    sims, values, times, modeled = {}, {}, {}, {}
    for prec in ("double", "single"):
        sim = repro.simulator(n, terms=terms, backend=backend, precision=prec)
        values[prec] = sim.get_expectation_batch(gammas, betas)  # warm-up
        times[prec] = _best_of(lambda s=sim: s.get_expectation_batch(gammas, betas),
                               repeats)
        if backend == "gpu":
            sim.reset_device_clock()
            sim.get_expectation_batch(gammas, betas)
            modeled[prec] = sim.modeled_device_time()
        sims[prec] = sim
    scale = np.max(np.abs(values["double"]))
    max_rel_err = float(np.max(np.abs(values["single"] - values["double"]))
                        / max(scale, 1e-300))
    double_bytes = _fused_block_bytes(sims["double"], batch)
    single_bytes = _fused_block_bytes(sims["single"], batch)
    record = {
        "backend": backend,
        "double_s": times["double"],
        "single_s": times["single"],
        "speedup": times["double"] / times["single"],
        "state_block_bytes_double": double_bytes,
        "state_block_bytes_single": single_bytes,
        "memory_ratio": double_bytes / single_bytes,
        "max_rel_err": max_rel_err,
    }
    if modeled:
        record["modeled_device_s_double"] = modeled["double"]
        record["modeled_device_s_single"] = modeled["single"]
        record["modeled_device_speedup"] = modeled["double"] / modeled["single"]
    return record


def _bridge_terms(n: int) -> list[tuple[float, tuple[int, int]]]:
    """Two weighted rings joined by a single bridge edge.

    The natural half/half partition leaves exactly one crossing term, so
    the cut pipeline runs with ``k = 1`` (4 fragment-B variants) — the
    cheapest non-trivial cut, which keeps the beyond-memory leg about the
    admission ceiling rather than the variant count.
    """
    half = n // 2
    terms = [(0.5, (i, (i + 1) % half)) for i in range(half)]
    terms += [(0.5, (half + i, half + (i + 1) % half)) for i in range(half)]
    terms.append((0.7, (0, half)))
    return terms


def bench_cutting(smoke: bool, repeats: int) -> dict:
    """Circuit-cutting fragment pipeline: fused vs looped fragment
    evaluation, parity against the uncut expectation, and the
    beyond-memory admission demonstration."""
    import repro.fur.base as fur_base
    from repro.cutting import CutQAOAPipeline

    gammas, betas = [0.31], [0.57]

    # Parity + fragment-evaluation timing at a size the monolithic
    # simulator still admits, so the uncut expectation is the reference.
    n = 12 if smoke else 16
    terms = _bridge_terms(n)
    sim = repro.simulator(n, terms=terms, backend="python")
    uncut = float(sim.get_expectation(sim.simulate_qaoa(gammas, betas)))

    modes = {}
    pipe = None
    for mode in ("looped", "fused"):
        pipe = CutQAOAPipeline(n, terms, backend="python", mode=mode,
                               partition=range(n // 2))
        value = float(pipe.expectation(gammas, betas))
        modes[mode] = {
            "value": value,
            "abs_err": abs(value - uncut),
            "eval_s": _best_of(lambda: pipe.expectation(gammas, betas),
                               repeats),
        }

    # Beyond-memory admission: evaluate an n whose monolithic state the
    # admission guard rejects.  The smoke run shrinks the ceiling
    # in-process (and restores it) so the same reduced-size problem serves
    # as the demonstration; the full run needs no such trick — a 2^36
    # single-precision state is 512 GiB, 2x over the default ceiling,
    # while the fragments stay at 2^19 amplitudes.
    if smoke:
        n_adm, precision = n, "double"
        guard_bytes = 2 ** (n - 1) * 16
    else:
        n_adm, precision = 36, "single"
        guard_bytes = None
    adm_terms = _bridge_terms(n_adm)
    saved = fur_base.MAX_STATE_BYTES
    try:
        if guard_bytes is not None:
            fur_base.MAX_STATE_BYTES = guard_bytes
        try:
            repro.simulator(n_adm, terms=adm_terms, backend="python",
                            precision=precision)
            rejected = False
        except ValueError:
            rejected = True
        adm_pipe = CutQAOAPipeline(n_adm, adm_terms, backend="python",
                                   precision=precision,
                                   partition=range(n_adm // 2))
        t0 = time.perf_counter()
        adm_value = float(adm_pipe.expectation(gammas, betas))
        adm_s = time.perf_counter() - t0
    finally:
        fur_base.MAX_STATE_BYTES = saved

    state_bytes = 2 ** n_adm * (8 if precision == "single" else 16)
    return {
        "workload": {"problem": "bridged-rings", "n": n, "p": 1,
                     "repeats": repeats, "smoke": smoke},
        "uncut_value": uncut,
        "modes": modes,
        "fused_speedup": modes["looped"]["eval_s"] / modes["fused"]["eval_s"],
        "stats": pipe.stats.as_dict(),
        "admission": {
            "n": n_adm,
            "precision": precision,
            "state_bytes": state_bytes,
            "max_state_bytes": (guard_bytes if guard_bytes is not None
                                else saved),
            "synthetic_guard": guard_bytes is not None,
            "monolithic_rejected": rejected,
            "cut_qubits": adm_pipe.spec.n_cuts,
            "fragment_qubits": [len(adm_pipe.spec.fragment_a),
                                len(adm_pipe.spec.fragment_b)
                                + adm_pipe.spec.n_cuts],
            "value": adm_value,
            "reference_value": uncut if n_adm == n else None,
            "eval_s": adm_s,
            "stats": adm_pipe.stats.as_dict(),
        },
    }


def cache_metrics() -> dict:
    """Snapshot of the process-wide diagonal-cache counters."""
    stats = diagonal_cache.stats
    return {
        "hits": stats.hits,
        "misses": stats.misses,
        "evictions": stats.evictions,
        "entries": len(diagonal_cache),
        "bytes": diagonal_cache.currsize_bytes(),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--smoke", action="store_true",
                        help="small CI-sized problem (exercises the fused path only)")
    parser.add_argument("--check", action="store_true",
                        help=f"exit non-zero unless the python backend speedup is "
                             f">= {REQUIRED_PYTHON_SPEEDUP}x")
    parser.add_argument("--backends", nargs="+",
                        default=["python", "c", "jit", "gpu"],
                        help="backends to benchmark")
    parser.add_argument("--json", metavar="PATH", default=None,
                        help="write a machine-readable BENCH_precision.json record")
    parser.add_argument("--engine-report", metavar="PATH", nargs="?",
                        const="BENCH_engine.json", default=None,
                        help="write a BENCH_engine.json execution-engine record "
                             "(plan-compile time, blocks executed, fused "
                             "throughput incl. the distributed backends)")
    parser.add_argument("--distributed-backends", nargs="+",
                        default=["gpumpi", "cusvmpi"],
                        help="distributed backends for the engine report")
    parser.add_argument("--n-ranks", type=int, default=4,
                        help="virtual rank count for the distributed backends")
    args = parser.parse_args(argv)

    if args.smoke:
        n, batch, p, repeats = 10, 6, 2, 1
    else:
        n, batch, p, repeats = 16, 32, 4, 2
    terms = labs.get_terms(n)
    rng = np.random.default_rng(42)

    print(f"Batched evaluation benchmark: LABS n={n}, B={batch}, p={p} "
          f"({'smoke' if args.smoke else 'full'})")
    print(f"{'backend':>8}  {'looped [s]':>11}  {'fused [s]':>11}  {'speedup':>8}")
    results = []
    for backend in args.backends:
        rec = bench_backend(backend, terms, n, batch, p, repeats, rng)
        results.append(rec)
        extra = (f"  (modeled device {rec['modeled_device_s']:.3f} s)"
                 if "modeled_device_s" in rec else "")
        print(f"{rec['backend']:>8}  {rec['looped_s']:>11.3f}  {rec['fused_s']:>11.3f}  "
              f"{rec['speedup']:>7.2f}x{extra}")

    print(f"\nPlan rewrites: fused path, optimize=default vs optimize=none")
    print(f"{'backend':>8}  {'none [s]':>11}  {'default [s]':>11}  {'speedup':>8}  passes")
    for rec in results:
        passes = ", ".join(f"{name}:{entry['rewrites']}"
                           for name, entry in rec["engine"]["rewrites"].items()
                           if entry["rewrites"])
        print(f"{rec['backend']:>8}  {rec['unoptimized_s']:>11.3f}  "
              f"{rec['fused_s']:>11.3f}  {rec['rewrite_speedup']:>7.2f}x  "
              f"{passes or '-'}")

    print(f"\nPrecision: fused double vs single (complex128 vs complex64 state)")
    print(f"{'backend':>8}  {'double [s]':>11}  {'single [s]':>11}  {'speedup':>8}  "
          f"{'mem ratio':>9}  {'max rel err':>12}")
    precision_results = []
    for backend in args.backends:
        rec = bench_precision(backend, terms, n, batch, p, repeats, rng)
        precision_results.append(rec)
        extra = (f"  (modeled device {rec['modeled_device_speedup']:.2f}x)"
                 if "modeled_device_speedup" in rec else "")
        print(f"{rec['backend']:>8}  {rec['double_s']:>11.3f}  {rec['single_s']:>11.3f}  "
              f"{rec['speedup']:>7.2f}x  {rec['memory_ratio']:>8.2f}x  "
              f"{rec['max_rel_err']:>12.2e}{extra}")

    distributed_results = []
    baseline_results = []
    sharded_results = []
    sharded_gate = None
    cutting_rec = None
    if args.engine_report:
        print(f"\nExecution engine: distributed fused batch "
              f"(n_ranks={args.n_ranks})")
        print(f"{'backend':>8}  {'looped [s]':>11}  {'fused [s]':>11}  {'speedup':>8}")
        for backend in args.distributed_backends:
            rec = bench_backend(backend, terms, n, batch, p, repeats, rng,
                                simulator_kwargs={"n_ranks": args.n_ranks})
            rec["n_ranks"] = args.n_ranks
            distributed_results.append(rec)
            print(f"{rec['backend']:>8}  {rec['looped_s']:>11.3f}  "
                  f"{rec['fused_s']:>11.3f}  {rec['speedup']:>7.2f}x")

        # Sharded scaling: the in-process sharded backend at 1/2/4/8 shards
        # on the same workload.  Each row records the slab-exchange traffic
        # its engine counted, so the exchange cost of relabeling global
        # qubits is visible next to the throughput it buys.
        shard_counts = [k for k in ([1, 2] if args.smoke else [1, 2, 4, 8])
                        if k.bit_length() - 1 <= n // 2]
        print(f"\nSharded scaling: in-process slab shards "
              f"(cores={os.cpu_count()})")
        print(f"{'shards':>8}  {'fused [s]':>11}  {'sched/s':>9}  "
              f"{'exchanges':>9}  {'exchanged MiB':>13}")
        for k in shard_counts:
            rec = bench_backend("sharded", terms, n, batch, p, repeats, rng,
                                simulator_kwargs={"n_shards": k})
            rec["n_shards"] = k
            sharded_results.append(rec)
            print(f"{k:>8}  {rec['fused_s']:>11.3f}  "
                  f"{rec['fused_schedules_per_s']:>9.1f}  "
                  f"{rec['engine']['shard_exchanges']:>9}  "
                  f"{rec['engine']['exchange_bytes'] / 2**20:>13.1f}")
        best_sharded = max(sharded_results,
                           key=lambda r: r["fused_schedules_per_s"])
        single_rate = max((r["fused_schedules_per_s"] for r in results),
                          default=0.0)
        cores = os.cpu_count() or 1
        sharded_gate = {
            "required_speedup": REQUIRED_SHARDED_SPEEDUP,
            "min_cores": SHARDED_GATE_MIN_CORES,
            "cores": cores,
            "best_n_shards": best_sharded["n_shards"],
            "best_sharded_schedules_per_s": best_sharded["fused_schedules_per_s"],
            "best_single_worker_schedules_per_s": single_rate,
            "speedup": (best_sharded["fused_schedules_per_s"] / single_rate
                        if single_rate else None),
        }
        if cores < SHARDED_GATE_MIN_CORES:
            sharded_gate["skipped"] = (
                f"only {cores} core(s): the worker pool cannot parallelize "
                f"shards, so the {REQUIRED_SHARDED_SPEEDUP}x gate needs "
                f">= {SHARDED_GATE_MIN_CORES} cores")
        print(f"sharded(best, k={best_sharded['n_shards']}): "
              f"{best_sharded['fused_schedules_per_s']:.1f} sched/s vs best "
              f"single-worker {single_rate:.1f}"
              + (f"  [gate skipped: {sharded_gate['skipped']}]"
                 if "skipped" in sharded_gate else ""))

        # The gate-by-gate state-vector baseline rides the same engine now;
        # reduced size because it walks every gate of every schedule row.
        bn, bbatch, bp = (8, 4, 2) if args.smoke else (10, 8, 2)
        baseline_terms = labs.get_terms(bn)
        gates_rec = bench_backend("gates", baseline_terms, bn, bbatch, bp,
                                  repeats, rng)
        gates_rec["workload"] = {"problem": "labs", "n": bn, "batch": bbatch,
                                 "p": bp}
        baseline_results.append(gates_rec)
        print(f"\nBaseline: gate-by-gate statevector "
              f"(n={bn}, B={bbatch}, p={bp})")
        print(f"{'backend':>8}  {'looped [s]':>11}  {'fused [s]':>11}  {'speedup':>8}")
        print(f"{gates_rec['backend']:>8}  {gates_rec['looped_s']:>11.3f}  "
              f"{gates_rec['fused_s']:>11.3f}  {gates_rec['speedup']:>7.2f}x")

        # Circuit cutting (ROADMAP item 2): fused vs looped fragment
        # evaluation, parity with the uncut expectation, and the
        # beyond-memory admission demonstration.
        cutting_rec = bench_cutting(bool(args.smoke), repeats)
        cw = cutting_rec["workload"]
        print(f"\nCircuit cutting: bridged rings n={cw['n']}, p=1, "
              f"k={cutting_rec['stats']['cut_qubits']} cut qubit(s)")
        print(f"{'mode':>8}  {'eval [s]':>11}  {'abs err vs uncut':>17}")
        for mode, rec in cutting_rec["modes"].items():
            print(f"{mode:>8}  {rec['eval_s']:>11.3f}  "
                  f"{rec['abs_err']:>17.2e}")
        adm = cutting_rec["admission"]
        print(f"admission: n={adm['n']} {adm['precision']} needs "
              f"{adm['state_bytes'] / 2**30:.3g} GiB monolithic vs "
              f"{adm['max_state_bytes'] / 2**30:.3g} GiB ceiling"
              f"{' (synthetic)' if adm['synthetic_guard'] else ''} -> "
              f"monolithic {'rejected' if adm['monolithic_rejected'] else 'ADMITTED'}, "
              f"cut value {adm['value']:+.6f} in {adm['eval_s']:.3f} s "
              f"(fragments {adm['fragment_qubits']} qubits)")

        # Per-pass rows: every optimizer pass that ran for each backend,
        # including the zero-rewrite ones (so a pass silently not firing is
        # visible in the record).
        per_pass = [
            {"backend": r["backend"], "pass": name, **entry}
            for r in results + distributed_results + baseline_results
            for name, entry in r["engine"]["rewrites"].items()
        ]
        print(f"\nPer-pass rewrite rows")
        print(f"{'backend':>8}  {'pass':>24}  {'runs':>5}  {'rewrites':>8}  "
              f"{'ops before/after':>16}")
        for row in per_pass:
            print(f"{row['backend']:>8}  {row['pass']:>24}  {row['runs']:>5}  "
                  f"{row['rewrites']:>8}  "
                  f"{row['ops_before']:>7} / {row['ops_after']:<6}")

        all_recs = results + distributed_results + baseline_results
        compile_s = sum(r["engine"]["compile_time_s"] for r in all_recs)
        kernel_compile_s = sum(r["engine"]["kernel_compile_time_s"]
                               for r in all_recs)
        blocks = sum(r["engine"]["blocks_executed"] for r in all_recs)
        print(f"engine totals: {compile_s * 1e3:.3f} ms plan-compile, "
              f"{kernel_compile_s * 1e3:.3f} ms kernel-compile, "
              f"{blocks} blocks executed")
        payload = {
            "workload": {"problem": "labs", "n": n, "batch": batch, "p": p,
                         "repeats": repeats, "smoke": bool(args.smoke)},
            # Stable machine-diffable perf trajectory: backend name ->
            # fused schedules/s, one flat block across PRs.  The sharded
            # family contributes one row: its best shard count's rate.
            "summary": {
                **{r["backend"]: r["fused_schedules_per_s"] for r in all_recs},
                "sharded": max(r["fused_schedules_per_s"]
                               for r in sharded_results),
            },
            "backends": results,
            "distributed": distributed_results,
            "baselines": baseline_results,
            "sharded": sharded_results,
            "sharded_gate": sharded_gate,
            # Optimized-vs-unoptimized report: what the plan-rewrite passes
            # buy on the fused path, per backend.
            "rewrite": [
                {
                    "backend": r["backend"],
                    "optimized_s": r["fused_s"],
                    "unoptimized_s": r["unoptimized_s"],
                    "speedup": r["rewrite_speedup"],
                    "passes": r["engine"]["rewrites"],
                }
                for r in results + distributed_results + baseline_results
            ],
            "per_pass": per_pass,
            # Circuit-cutting fragment pipeline: fused-vs-looped fragment
            # evaluation, cut-vs-uncut parity, telemetry, and the
            # beyond-memory admission record.
            "cutting": cutting_rec,
        }
        Path(args.engine_report).write_text(json.dumps(payload, indent=2) + "\n")
        print(f"wrote {args.engine_report}")

    cache = cache_metrics()
    print(f"\nDiagonal cache: {cache['hits']} hits, {cache['misses']} misses, "
          f"{cache['evictions']} evictions, {cache['entries']} entries, "
          f"{cache['bytes'] / 2**20:.1f} MiB resident")

    if args.json:
        payload = {
            "workload": {"problem": "labs", "n": n, "batch": batch, "p": p,
                         "repeats": repeats, "smoke": bool(args.smoke)},
            "fused_vs_looped": results,
            "precision": precision_results,
            "diagonal_cache": cache,
        }
        Path(args.json).write_text(json.dumps(payload, indent=2) + "\n")
        print(f"wrote {args.json}")

    if args.check:
        bad_err = [r for r in precision_results
                   if r["max_rel_err"] > SINGLE_PRECISION_RTOL]
        if bad_err:
            print(f"FAIL: single-precision relative error exceeds "
                  f"{SINGLE_PRECISION_RTOL:g}: "
                  f"{[(r['backend'], r['max_rel_err']) for r in bad_err]}",
                  file=sys.stderr)
            return 1
        print(f"OK: single-precision expectations within {SINGLE_PRECISION_RTOL:g} "
              "relative of double")
        # The three-pass pipeline must actually run on the CPU families
        # (presence of a row, not a rewrite count: zero-rewrite rows are
        # legitimate, a missing row means the pass silently stopped running).
        required_passes = ("fuse-phase-mixer", "coalesce-exchanges",
                           "fuse-mixer-expectation")
        missing = [(r["backend"], name) for r in results
                   if r["backend"] in ("python", "c")
                   for name in required_passes
                   if name not in r["engine"]["rewrites"]]
        if missing:
            print(f"FAIL: optimizer passes missing from the engine report: "
                  f"{missing}", file=sys.stderr)
            return 1
        print("OK: all optimizer passes ran on the python and c backends")
    if args.check and cutting_rec is not None:
        # The cutting pipeline's acceptance bars (ROADMAP item 2): the cut
        # expectation must match the uncut reference on both fragment
        # evaluation modes, and the pipeline must evaluate an n whose
        # monolithic state the admission guard rejects.  Both run in smoke
        # too — the smoke leg shrinks the ceiling in-process instead of
        # paying for 2^19-amplitude fragments.
        bad_modes = {mode: rec["abs_err"]
                     for mode, rec in cutting_rec["modes"].items()
                     if rec["abs_err"] > CUT_PARITY_ATOL}
        if bad_modes:
            print(f"FAIL: cut expectation deviates from uncut by more than "
                  f"{CUT_PARITY_ATOL:g}: {bad_modes}", file=sys.stderr)
            return 1
        print(f"OK: cut expectation matches uncut within {CUT_PARITY_ATOL:g} "
              "(fused and looped fragment evaluation)")
        adm = cutting_rec["admission"]
        if not adm["monolithic_rejected"]:
            print(f"FAIL: the admission guard accepted the monolithic "
                  f"n={adm['n']} {adm['precision']} state "
                  f"({adm['state_bytes'] / 2**30:.0f} GiB) — the "
                  "beyond-memory demonstration is vacuous", file=sys.stderr)
            return 1
        if not np.isfinite(adm["value"]):
            print(f"FAIL: cut evaluation at n={adm['n']} returned "
                  f"{adm['value']}", file=sys.stderr)
            return 1
        ref = adm["reference_value"]
        if ref is not None and abs(adm["value"] - ref) > CUT_PARITY_ATOL:
            print(f"FAIL: beyond-guard cut value {adm['value']} deviates "
                  f"from the pre-guard reference {ref}", file=sys.stderr)
            return 1
        print(f"OK: cut pipeline evaluated n={adm['n']} {adm['precision']} "
              f"(monolithic {adm['state_bytes'] / 2**30:.3g} GiB state "
              "rejected by the admission guard)")
    if args.check and sharded_gate is not None and not args.smoke:
        # The sharded backend's acceptance bar: its best shard count must
        # beat the best single-worker backend by the required factor — but
        # only where the worker pool can actually parallelize (the gate is
        # recorded as skipped, with the reason, on small runners).
        if "skipped" in sharded_gate:
            print(f"SKIP: sharded speedup gate — {sharded_gate['skipped']}")
        elif (sharded_gate["speedup"] or 0.0) < REQUIRED_SHARDED_SPEEDUP:
            print(f"FAIL: sharded(best) {sharded_gate['speedup']:.2f}x "
                  f"< required {REQUIRED_SHARDED_SPEEDUP}x over the best "
                  "single-worker backend", file=sys.stderr)
            return 1
        else:
            print(f"OK: sharded(best) beats the best single-worker backend "
                  f"by >= {REQUIRED_SHARDED_SPEEDUP}x")
    if args.check and distributed_results and not args.smoke:
        slow = [r for r in distributed_results if r["speedup"] <= 1.0]
        if slow:
            print(f"FAIL: distributed fused path does not beat the looped "
                  f"default: {[(r['backend'], r['speedup']) for r in slow]}",
                  file=sys.stderr)
            return 1
        print("OK: distributed fused batch beats the looped default on every "
              "distributed backend")
    if args.check and not args.smoke:
        python_recs = [r for r in results if r["backend"] == "python"]
        if not python_recs:
            print("--check requires the python backend in --backends", file=sys.stderr)
            return 2
        if python_recs[0]["speedup"] < REQUIRED_PYTHON_SPEEDUP:
            print(f"FAIL: python fused speedup {python_recs[0]['speedup']:.2f}x "
                  f"< required {REQUIRED_PYTHON_SPEEDUP}x", file=sys.stderr)
            return 1
        print(f"OK: python fused speedup >= {REQUIRED_PYTHON_SPEEDUP}x")
        # The plan-rewrite acceptance bar (full-size only, like the other
        # perf gates): the optimized plan must beat the unoptimized op
        # stream on the python and c backends.
        slow_rewrite = [r for r in results
                        if r["backend"] in ("python", "c")
                        and r["rewrite_speedup"] <= 1.0]
        if slow_rewrite:
            print(f"FAIL: optimize='default' does not beat optimize='none': "
                  f"{[(r['backend'], round(r['rewrite_speedup'], 3)) for r in slow_rewrite]}",
                  file=sys.stderr)
            return 1
        print("OK: optimize='default' beats optimize='none' on the python "
              "and c backends")
        # The jit kernel tier's acceptance bar (ROADMAP item 3): its
        # single-pass fused kernels must beat the c backend's fused
        # throughput at full size, whichever implementation path is live.
        by_name = {r["backend"]: r for r in results}
        if "jit" in by_name and "c" in by_name:
            jit_rate = by_name["jit"]["fused_schedules_per_s"]
            c_rate = by_name["c"]["fused_schedules_per_s"]
            if jit_rate <= c_rate:
                print(f"FAIL: jit fused throughput {jit_rate:.1f} "
                      f"schedules/s does not beat c ({c_rate:.1f})",
                      file=sys.stderr)
                return 1
            print(f"OK: jit fused throughput beats c "
                  f"({jit_rate:.1f} vs {c_rate:.1f} schedules/s)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
