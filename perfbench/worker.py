"""One workload in one fresh process: set-up, measured loop, checks, record.

Run by ``perfbench/run.py`` (which sets the environment: ``PYTHONPATH``, the
BLAS thread caps, the jit cache directory).  Prints one JSON record on its
last stdout line.  ``--prime`` instead builds/loads the jit kernels untimed
and prints which rung is live.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time

import numpy as np

#: The jit kernels the traced run times, in report order.
KERNELS = ("phase_block", "furx_block", "furx_phase_block",
           "furx_expectation_block", "expectation_block")

#: A run's latencies are split into up to this many equal windows (in start
#: order, at least five samples each) and a latency percentile is the mean of
#: the middle half of the per-window percentiles.  On a shared host,
#: interference comes in bursts of a second or more, and a burst then moves
#: at most a quarter of the windows, not the run's figure; the host also
#: switches between speed modes ~1.4x apart for tens of seconds, and the
#: mean moves with the share of the run spent in each mode where a median
#: would jump between them (``maxcut-cobyla`` p50 quartile spread over seeded
#: runs: 0.18 with the median, 0.11 with this mean).
LATENCY_WINDOWS = 15

#: Set-up is repeated (cold diagonal cache each time) up to this many times,
#: stopping after three once they have taken SETUP_BUDGET_S; the median is
#: reported.
SETUPS = 9
SETUP_BUDGET_S = 3.0

#: End-to-end metrics: (name, unit).
#: The tail is gated at p90: a run's p99 amplifies the host's speed (the
#: same ``serve-mixed`` inputs gave 28-53 ms in five runs while p90 tracked
#: p50 at ~2x), so p99 is recorded but is not a metric.
END_TO_END = (("setup_s", "s"), ("evals_per_s", "1/s"),
              ("latency_p50_ms", "ms"), ("latency_p90_ms", "ms"),
              ("peak_rss_mib", "MiB"))


def prime() -> dict:
    """Build (or load) the jit kernel library outside any timed region."""
    from repro.fur.jit import kernels

    path = kernels.active_path()
    for dtype in (np.complex128, np.complex64):
        kernels.ensure_kernels(dtype, 4, "x")
        block = np.full((1, 16), 0.25, dtype=dtype)
        kernels.furx_block(block, np.array([0.1]))
    return {"active_path": path, "compiler_info": kernels.compiler_info()}


# ---------------------------------------------------------------------------
# Tracing: which public functions are wrapped, under which span names.
# ---------------------------------------------------------------------------

def _kernel_bytes(kernel: str):
    """Counter: computed bytes moved, from ``PlanCostModel.op_bytes``."""
    from repro.fur.costmodel import PlanCostModel
    from repro.fur.rewrite import (ExpectationOp, FusedMixerExpectationOp,
                                   FusedPhaseMixerOp, MixerOp, PhaseOp)
    from repro.parallel.perfmodel import PerformanceModel

    models: dict[tuple[int, int], PlanCostModel] = {}

    def op_for(args):
        if kernel == "phase_block":
            return PhaseOp(layer=0)
        if kernel == "furx_block":
            return MixerOp(layer=0)
        if kernel == "furx_phase_block":
            return MixerOp(layer=0) if args[1] is None else FusedPhaseMixerOp(layer=0)
        if kernel == "furx_expectation_block":
            return FusedMixerExpectationOp(layer=0, with_phase=args[1] is not None)
        return ExpectationOp()

    def counters(args, kwargs, result, state):
        block = args[0]
        rows, n_states = block.shape
        key = (n_states, block.itemsize)
        model = models.get(key)
        if model is None:
            # state precision from the block; phase diagonal at its real dtype
            perf = PerformanceModel(state_bytes=block.itemsize,
                                    diag_bytes=block.itemsize // 2)
            model = models[key] = PlanCostModel(n_states.bit_length() - 1, perf,
                                                single_pass_mixer=True)
        return {"bytes": rows * model.op_bytes(op_for(args))}

    return counters


def _rows(args, kwargs, result, state):
    return {"rows": len(args[1])}


def _plan_before(args, kwargs):
    stats = args[0].stats
    return stats.plan_compiles, stats.compile_time_s, stats.plan_cache_hits


def _plan_counters(args, kwargs, result, before):
    stats = args[0].stats
    return {"compiles": stats.plan_compiles - before[0],
            "compile_s": stats.compile_time_s - before[1],
            "cache_hits": stats.plan_cache_hits - before[2]}


def install_tracing(tracer) -> None:
    from importlib import import_module

    from repro.cutting import CutQAOAPipeline
    from repro.fur.base import QAOAFastSimulatorBase
    from repro.fur.engine import ExecutionEngine
    from repro.fur.jit.qaoa_simulator import _QAOAFURJITSimulatorBase
    from repro.problems import labs, maxcut
    from repro.qaoa import QAOAObjective
    from repro.serve import QAOAService

    # import_module: ``repro.fur.registry`` the attribute is the registry
    # instance, which shadows the module of the same name.
    diagonal = import_module("repro.fur.diagonal")
    kernels = import_module("repro.fur.jit.kernels")
    wrap = tracer.wrap
    wrap(maxcut, "get_maxcut_terms", "problems.terms")
    wrap(labs, "get_terms", "problems.terms")
    wrap(diagonal, "precompute_cost_diagonal", "diag.precompute")
    wrap(diagonal, "build_phase_table", "diag.phase_table")
    wrap(import_module("repro.fur.registry"), "simulator", "registry.simulator")
    wrap(ExecutionEngine, "plan", "engine.plan", pre=_plan_before,
         counters=_plan_counters)
    wrap(ExecutionEngine, "expectation_batch", "engine.batch", counters=_rows)
    wrap(ExecutionEngine, "simulate_batch", "engine.batch", counters=_rows)
    wrap(import_module("repro.fur.rewrite"), "run_passes", "engine.rewrite")
    for name in KERNELS:
        wrap(kernels, name, f"kernel.{name}", fold="kernel",
             counters=_kernel_bytes(name))
    wrap(_QAOAFURJITSimulatorBase, "simulate_qaoa", "looped.simulate_qaoa")
    wrap(QAOAFastSimulatorBase, "get_expectation", "looped.get_expectation")
    wrap(QAOAObjective, "__call__", "qaoa.objective")
    wrap(QAOAObjective, "evaluate_batch", "qaoa.objective")
    optimization = import_module("repro.qaoa.optimization")
    wrap(optimization, "minimize_qaoa", "qaoa.optimizer")
    wrap(optimization, "population_optimize", "qaoa.optimizer")
    wrap(QAOAService, "submit", "serve.submit")
    wrap(CutQAOAPipeline, "__init__", "cut.pipeline")
    wrap(CutQAOAPipeline, "expectation", "cut.pipeline")


# ---------------------------------------------------------------------------
# Metrics.
# ---------------------------------------------------------------------------

def _pct_ms(samples, q: float, windows: int = LATENCY_WINDOWS) -> float:
    """Interquartile mean over equal windows of the ``q``-th percentile, in ms."""
    if not samples:
        return 0.0
    windows = max(1, min(windows, len(samples) // 5))
    parts = np.array_split(np.asarray(samples), windows)
    per_window = np.sort([np.percentile(part, q) for part in parts])
    quarter = windows // 4
    return float(per_window[quarter:windows - quarter].mean() * 1e3)


def end_to_end(setup_s: list[float], run, peak_rss_mib: float) -> dict:
    """End-to-end metrics ``{name: [value, unit]}``."""
    values = {
        "setup_s": statistics.median(setup_s),
        "evals_per_s": run.completed / run.elapsed_s,
        "latency_p50_ms": _pct_ms(run.latencies_s, 50),
        "latency_p90_ms": _pct_ms(run.latencies_s, 90),
        "peak_rss_mib": peak_rss_mib,
    }
    return {name: [values[name], unit] for name, unit in END_TO_END}


def per_layer(tracer, cache_delta: dict, layer_stats: dict, run,
              region_s: float, covered_s: float) -> tuple[dict, list[str]]:
    """Per-layer metrics ``{name: [value, unit]}`` and the names that do not
    apply to this workload (reported as 0).

    ``kernel.*.ceiling_frac``, ``host.rmw_gbps`` and ``trace.overhead_frac``
    need the host probe and the untraced run; the launcher fills them in.
    """
    metrics: dict[str, list] = {}
    not_applicable: list[str] = []

    def put(name, value, unit, applies=True):
        metrics[name] = [float(value) if applies else 0.0, unit]
        if not applies:
            not_applicable.append(name)

    get = tracer.get
    terms = get("problems.terms")
    put("problems.terms_s", terms.total_s, "s", terms.calls > 0)
    put("diag.precompute_s", get("diag.precompute").total_s, "s")
    table = get("diag.phase_table")
    put("diag.phase_table_s", table.total_s, "s", table.calls > 0)
    put("diag.cache_hits", cache_delta["hits"], "count")
    put("diag.cache_misses", cache_delta["misses"], "count")
    put("registry.construct_s", get("registry.simulator").self_s, "s")

    for name in KERNELS:
        span = get(f"kernel.{name}")
        live = span.calls > 0
        nbytes = span.counters.get("bytes", 0.0)
        prefix = f"kernel.{name}"
        put(f"{prefix}.calls", span.calls, "count", live)
        put(f"{prefix}.self_s", span.self_s, "s", live)
        put(f"{prefix}.model_bytes", nbytes, "B", live)
        put(f"{prefix}.gbps", nbytes / span.self_s / 1e9 if live else 0.0,
            "GB/s", live)
        put(f"{prefix}.ceiling_frac", 0.0, "ratio", live)

    batch, plan = get("engine.batch"), get("engine.plan")
    live = batch.calls > 0
    put("engine.calls", batch.calls, "count", live)
    put("engine.rows", batch.counters.get("rows", 0.0), "count", live)
    put("engine.call_s", batch.total_s, "s", live)
    put("engine.self_s", batch.self_s, "s", live)
    put("engine.plan_compiles", plan.counters.get("compiles", 0.0), "count", live)
    put("engine.plan_compile_s", plan.counters.get("compile_s", 0.0), "s", live)
    put("engine.plan_cache_hits", plan.counters.get("cache_hits", 0.0), "count",
        live)
    put("engine.rewrite_s", get("engine.rewrite").total_s, "s", live)

    simulate, expect = get("looped.simulate_qaoa"), get("looped.get_expectation")
    put("looped.simulate_self_s", simulate.self_s, "s", simulate.calls > 0)
    put("looped.expectation_s", expect.total_s, "s", expect.calls > 0)

    objective, optimizer = get("qaoa.objective"), get("qaoa.optimizer")
    put("qaoa.objective_s", objective.total_s, "s", objective.calls > 0)
    put("qaoa.optimizer_self_s", optimizer.self_s, "s", optimizer.calls > 0)

    svc = layer_stats.get("service")
    live = svc is not None
    svc = svc or {"queue_wait": {}, "execution": {}}
    batches = svc.get("batches", 0)
    rows = svc.get("evaluated_rows", 0)
    completed = svc.get("completed", 0)
    ms = lambda v: (v or 0.0) * 1e3  # noqa: E731 - seconds or None -> ms
    put("serve.queue_wait_p50_ms", ms(svc["queue_wait"].get("p50_s")), "ms", live)
    put("serve.queue_wait_p99_ms", ms(svc["queue_wait"].get("p99_s")), "ms", live)
    put("serve.exec_p50_ms", ms(svc["execution"].get("p50_s")), "ms", live)
    put("serve.exec_p99_ms", ms(svc["execution"].get("p99_s")), "ms", live)
    put("serve.flushes", batches, "count", live)
    put("serve.batch_rows_mean", rows / batches if batches else 0.0, "rows", live)
    put("serve.coalesced_frac", rows / completed if completed else 0.0, "ratio",
        live)
    put("serve.shed", svc.get("shed", 0), "count", live)
    put("serve.sim_constructed", svc.get("simulators_constructed", 0), "count",
        live)
    put("serve.gen_lag_p99_ms", _pct_ms(run.extra.get("gen_lag_s"), 99, 1),
        "ms", live)

    cut = layer_stats.get("cutting")
    live = cut is not None
    cut = cut or {}
    put("cut.fragment_s", cut.get("fragment_wall_s", 0.0), "s", live)
    put("cut.recombine_s", cut.get("recombine_wall_s", 0.0), "s", live)
    put("cut.variants", cut.get("variants_evaluated", 0), "count", live)

    put("host.rmw_gbps", 0.0, "GB/s")
    # An open-loop client's idle time (no request in flight) is not
    # workload time.
    idle_s = run.extra.get("idle_s", 0.0)
    put("trace.accounted_frac", covered_s / (region_s - idle_s), "ratio")
    put("trace.overhead_frac", 0.0, "ratio")
    return metrics, not_applicable


def layer_table(tracer, region_s: float) -> dict:
    """Every span name: calls, inclusive and self seconds, self share."""
    return {name: {"calls": s.calls, "total_s": s.total_s, "self_s": s.self_s,
                   "self_share": s.self_s / region_s,
                   **{k: v for k, v in s.counters.items()}}
            for name, s in sorted(tracer.stats.items())}


# ---------------------------------------------------------------------------
# The run.
# ---------------------------------------------------------------------------

def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    import repro
    from host import machine_stamp
    from repro.fur.jit import kernels
    from tracer import Tracer
    from workloads import WORKLOADS

    workload = WORKLOADS[name](seed)
    tracer = Tracer()
    if trace:
        install_tracing(tracer)
    cache = repro.fur.diagonal_cache
    cache.clear()
    hits0, misses0 = cache.stats.hits, cache.stats.misses

    tracer.recording = trace
    region_start = time.perf_counter()
    state = workload.setup()
    setup_s = [time.perf_counter() - region_start]
    run = workload.run(state, seconds)
    region_end = time.perf_counter()
    tracer.recording = False
    tracer.uninstall()
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    region_s = region_end - region_start
    cache_delta = {"hits": cache.stats.hits - hits0,
                   "misses": cache.stats.misses - misses0}
    layer_stats = workload.layer_stats(state)
    backend = workload.backend(state)
    checks = workload.checks(state)
    workload.teardown(state)

    while len(setup_s) < SETUPS and (len(setup_s) < 3
                                     or sum(setup_s) < SETUP_BUDGET_S):
        cache.clear()
        start = time.perf_counter()
        extra = workload.setup()
        setup_s.append(time.perf_counter() - start)
        workload.teardown(extra)

    record = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "machine": machine_stamp(),
        "params": {k: v for k, v in vars(workload).items()
                   if isinstance(v, (int, float, str, tuple))},
        "repro_version": repro.__version__,
        "jit_active_path": kernels.active_path(),
        "jit_threads": kernels.effective_num_threads(),
        "backend": backend,
        "setup_s_samples": setup_s,
        "region_s": region_s,
        "run": {"attempted": run.attempted, "completed": run.completed,
                "failed": run.failed, "elapsed_s": run.elapsed_s,
                "latency_samples": len(run.latencies_s),
                **{k: v for k, v in run.extra.items() if k != "gen_lag_s"}},
        "checks": [vars(c) for c in checks],
        "attempted": run.attempted + sum(c.ops for c in checks),
        "failed": run.failed + sum(c.failed for c in checks),
        "correct": all(c.failed == 0 for c in checks),
        "end_to_end": end_to_end(setup_s, run, peak_rss_mib),
        "latency_p99_ms": _pct_ms(run.latencies_s, 99),
    }
    if trace:
        metrics, not_applicable = per_layer(
            tracer, cache_delta, layer_stats, run, region_s,
            tracer.covered_s(region_start, region_end))
        record["per_layer"] = metrics
        record["not_applicable"] = not_applicable
        record["layers"] = layer_table(tracer, region_s)
    return record


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--prime", action="store_true")
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.prime:
        record = prime()
    else:
        record = run_workload(args.workload, args.seed, args.seconds,
                              bool(args.trace))
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
