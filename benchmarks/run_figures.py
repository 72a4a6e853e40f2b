"""Standalone harness printing the data series behind every figure of the paper.

``pytest benchmarks/ --benchmark-only`` gives statistically careful timings;
this script is the quick, human-readable companion: it runs each experiment
once at reproduction scale and prints the rows/series in the same layout as
the paper's figures, so every series can be regenerated with a single
command:

    python benchmarks/run_figures.py            # everything (a few minutes)
    python benchmarks/run_figures.py fig3 fig5  # selected figures only
"""

from __future__ import annotations

import sys
import time

import numpy as np

import repro
from repro.fur import diagonal_cache, precompute_cost_diagonal
from repro.fur.mpi import QAOAFURXSimulatorCUSVMPI, QAOAFURXSimulatorGPUMPI
from repro.gates import QAOAGateBasedSimulator, build_qaoa_circuit, fuse_circuit, StatevectorSimulator
from repro.parallel import POLARIS_LIKE, PerformanceModel
from repro.problems import labs, maxcut
from repro.qaoa import get_qaoa_objective, linear_ramp_parameters, minimize_qaoa
from repro.tensornet import TensorNetworkSimulator


def _timed(fn, repeats: int = 3) -> float:
    """Best-of-``repeats`` wall-clock time of ``fn()``."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _cache_snapshot() -> tuple[int, int, int]:
    """Current (hits, misses, evictions) of the process-wide diagonal cache."""
    stats = diagonal_cache.stats
    return stats.hits, stats.misses, stats.evictions


def _print_cache_delta(label: str, before: tuple[int, int, int]) -> None:
    """Report the diagonal-cache traffic one experiment generated."""
    hits, misses, evictions = (a - b for a, b in zip(_cache_snapshot(), before))
    print(f"  [diagonal cache] {label}: {hits} hits, {misses} misses "
          f"({misses} precomputations), {evictions} evictions; "
          f"{len(diagonal_cache)} entries / "
          f"{diagonal_cache.currsize_bytes() / 2**20:.1f} MiB resident")


def fig2(max_n: int = 14) -> None:
    """Figure 2: end-to-end CPU QAOA expectation, p=6, MaxCut 3-regular."""
    print("\n=== Figure 2: end-to-end QAOA expectation, p=6, MaxCut 3-regular ===")
    print(f"{'n':>4} {'FUR c [s]':>12} {'gates diag [s]':>15} {'gates ladder [s]':>17}")
    gammas, betas = linear_ramp_parameters(6, delta_t=0.4)
    for n in range(6, max_n + 1, 2):
        terms = maxcut.maxcut_terms_from_graph(maxcut.random_regular_graph(3, n, seed=n))
        sims = {
            "fur": repro.simulator(n, terms=terms, backend="c"),
            "diag": QAOAGateBasedSimulator(n, terms=terms, phase_strategy="diagonal"),
            "ladder": QAOAGateBasedSimulator(n, terms=terms, phase_strategy="ladder"),
        }
        times = {k: _timed(lambda s=s: s.get_expectation(s.simulate_qaoa(gammas, betas)),
                           repeats=3 if k == "fur" else 1)
                 for k, s in sims.items()}
        print(f"{n:>4} {times['fur']:>12.4f} {times['diag']:>15.4f} {times['ladder']:>17.4f}")


def fig3(max_n: int = 12, tn_max_n: int = 10) -> None:
    """Figure 3: time per single LABS QAOA layer across simulator types."""
    print("\n=== Figure 3: single LABS QAOA layer ===")
    print(f"{'n':>4} {'FUR c [s]':>12} {'FUR python [s]':>15} {'gates [s]':>12} {'tensor net [s]':>15}")
    gammas, betas = linear_ramp_parameters(1, delta_t=0.4)
    for n in range(6, max_n + 1, 2):
        terms = labs.get_terms(n)
        fur_c = repro.simulator(n, terms=terms, backend="c")
        fur_py = repro.simulator(n, terms=terms, backend="python")
        gate = QAOAGateBasedSimulator(n, terms=terms)
        t_c = _timed(lambda: fur_c.simulate_qaoa(gammas, betas))
        t_py = _timed(lambda: fur_py.simulate_qaoa(gammas, betas))
        t_gate = _timed(lambda: gate.simulate_qaoa(gammas, betas), repeats=1)
        if n <= tn_max_n:
            tns = TensorNetworkSimulator()
            t_tn = _timed(lambda: tns.qaoa_amplitude(terms, gammas, betas, n), repeats=1)
            tn_col = f"{t_tn:>15.4f}"
        else:
            tn_col = f"{'—':>15}"
        print(f"{n:>4} {t_c:>12.4f} {t_py:>15.4f} {t_gate:>12.4f} {tn_col}")


def fig4(n: int = 12) -> None:
    """Figure 4: total simulation time vs number of layers, LABS."""
    print(f"\n=== Figure 4: total time vs depth p (LABS n={n}) ===")
    print(f"{'p':>6} {'FUR ready diag [s]':>20} {'FUR + precompute [s]':>22} {'gates [s]':>12}")
    terms = labs.get_terms(n)
    costs = precompute_cost_diagonal(terms, n)
    gate = QAOAGateBasedSimulator(n, terms=terms)
    ready = repro.simulator(n, costs=costs, backend="c")
    for p in (1, 4, 16, 64, 256):
        gammas, betas = linear_ramp_parameters(p, delta_t=0.4)
        t_ready = _timed(lambda: ready.get_expectation(ready.simulate_qaoa(gammas, betas)), 1)

        def with_precompute():
            with diagonal_cache.bypass():  # time the cold precompute path
                sim = repro.simulator(n, terms=terms, backend="c")
            sim.get_expectation(sim.simulate_qaoa(gammas, betas))

        t_pre = _timed(with_precompute, 1)
        if p <= 16:
            t_gate = _timed(lambda: gate.get_expectation(gate.simulate_qaoa(gammas, betas)), 1)
            gate_col = f"{t_gate:>12.3f}"
        else:
            gate_col = f"{'—':>12}"
        print(f"{p:>6} {t_ready:>20.3f} {t_pre:>22.3f} {gate_col}")


def fig5(n_executed: int = 12) -> None:
    """Figure 5: weak scaling — executed at small scale, modeled at paper scale."""
    print(f"\n=== Figure 5a: executed distributed layer (LABS n={n_executed}, virtual cluster) ===")
    print(f"{'K ranks':>8} {'Alltoall backend [s]':>22} {'index-swap backend [s]':>24}")
    terms = labs.get_terms(n_executed)
    gammas, betas = linear_ramp_parameters(1, delta_t=0.4)
    for k in (2, 4, 8):
        a2a = QAOAFURXSimulatorGPUMPI(n_executed, terms=terms, n_ranks=k)
        swap = QAOAFURXSimulatorCUSVMPI(n_executed, terms=terms, n_ranks=k)
        t_a2a = _timed(lambda: a2a.simulate_qaoa(gammas, betas))
        t_swap = _timed(lambda: swap.simulate_qaoa(gammas, betas))
        print(f"{k:>8} {t_a2a:>22.4f} {t_swap:>24.4f}")

    print("\n=== Figure 5b: modeled weak scaling at paper scale (30 local qubits/GPU) ===")
    print(f"{'K GPUs':>8} {'n':>4} {'MPI Alltoall [s]':>18} {'cuSV index swap [s]':>20}")
    model = PerformanceModel(POLARIS_LIKE)
    for k in (8, 16, 32, 64, 128):
        n = 30 + (k.bit_length() - 1)
        mpi = model.layer_time(n, k, "mpi_alltoall").total_time
        cusv = model.layer_time(n, k, "cusv_p2p").total_time
        print(f"{k:>8} {n:>4} {mpi:>18.1f} {cusv:>20.1f}")


def optimization(n: int = 12, p: int = 4, maxiter: int = 30) -> None:
    """Headline claim: end-to-end parameter-optimization speedup."""
    print(f"\n=== Parameter-optimization speedup (LABS n={n}, p={p}, COBYLA {maxiter} iters) ===")
    terms = labs.get_terms(n)
    results = {}
    for label, backend in (("FUR c", "c"), ("gate-based", QAOAGateBasedSimulator)):
        start = time.perf_counter()
        res = minimize_qaoa(get_qaoa_objective(n, p, terms=terms, backend=backend),
                            method="COBYLA", maxiter=maxiter)
        elapsed = time.perf_counter() - start
        results[label] = elapsed
        print(f"  {label:<12}: {elapsed:8.2f} s  (best <E> = {res.value:.3f})")
    print(f"  speedup: {results['gate-based'] / results['FUR c']:.1f}x  (paper: 11x at n=26)")


def ablations(n: int = 12) -> None:
    """Gate-fusion and mixer-strategy ablation summaries."""
    print(f"\n=== Ablation: gate fusion (LABS n={n}, one layer) ===")
    terms = labs.get_terms(n)
    gammas, betas = linear_ramp_parameters(1, delta_t=0.4)
    circuit = build_qaoa_circuit(terms, gammas, betas, n, include_initial_state=False)
    fused = fuse_circuit(circuit, 2)
    sv0 = np.full(1 << n, 1 / np.sqrt(1 << n), dtype=np.complex128)
    engine = StatevectorSimulator()
    fur = repro.simulator(n, terms=terms, backend="c")
    t_unfused = _timed(lambda: engine.run(circuit, initial_state=sv0), 1)
    t_fused = _timed(lambda: engine.run(fused, initial_state=sv0), 1)
    t_fur = _timed(lambda: fur.simulate_qaoa(gammas, betas))
    print(f"  unfused: {circuit.num_gates} gates, {t_unfused:.3f} s; "
          f"fused F=2: {fused.num_gates} gates, {t_fused:.3f} s; "
          f"FUR: {n} rotations, {t_fur:.4f} s")


FIGURES = {
    "fig2": fig2,
    "fig3": fig3,
    "fig4": fig4,
    "fig5": fig5,
    "optimization": optimization,
    "ablations": ablations,
}


def main(argv: list[str]) -> None:
    selected = argv or list(FIGURES)
    unknown = [name for name in selected if name not in FIGURES]
    if unknown:
        raise SystemExit(f"unknown figure(s) {unknown}; available: {sorted(FIGURES)}")
    for name in selected:
        before = _cache_snapshot()
        FIGURES[name]()
        _print_cache_delta(name, before)


if __name__ == "__main__":
    main(sys.argv[1:])
