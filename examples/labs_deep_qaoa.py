"""High-depth QAOA on the LABS problem (the paper's headline workload).

Demonstrates why the precomputed-diagonal simulator matters: the LABS cost
function has Θ(n²) two- and four-body terms, so a gate-based simulator pays
hundreds of gates per layer while the fast simulator pays one element-wise
multiply.  The example

1. sweeps the depth p with an annealing-like linear-ramp schedule and reports
   the energy, merit factor and ground-state overlap at each depth,
2. refines the deepest schedule with a local optimizer,
3. compares the result against the exact minimum of the precomputed
   diagonal, checked against the known optimal LABS energy.

Run with:  python examples/labs_deep_qaoa.py [n_qubits]
"""

from __future__ import annotations

import argparse
import time

import repro
from repro.gates import phase_separator_gate_count
from repro.problems import labs
from repro.qaoa import get_qaoa_objective, linear_ramp_parameters, minimize_qaoa


def main(n: int = 12) -> None:
    terms = labs.get_terms(n)
    optimal = labs.true_optimal_energy(n)
    print(f"LABS problem with n={n}: {len(terms)} polynomial terms, "
          f"optimal sidelobe energy E*={optimal}, "
          f"optimal merit factor F*={labs.optimal_merit_factor(n):.3f}")
    print(f"A gate-based simulator would execute "
          f"{phase_separator_gate_count(terms, n)} gates per phase operator; "
          f"the FUR simulator executes {n} mixer rotations plus one multiply.\n")

    sim = repro.simulator(n, terms=terms)

    print(f"{'p':>4} {'<E>':>10} {'merit factor':>14} {'GS overlap':>12} {'time [s]':>10}")
    for p in (1, 2, 4, 8, 16, 32):
        gammas, betas = linear_ramp_parameters(p, delta_t=0.3)
        start = time.perf_counter()
        result = sim.simulate_qaoa(gammas, betas)
        energy = sim.get_expectation(result)
        overlap = sim.get_overlap(result)
        elapsed = time.perf_counter() - start
        merit = labs.merit_factor_from_energy(energy, n)
        print(f"{p:>4} {energy:>10.3f} {merit:>14.3f} {overlap:>12.4f} {elapsed:>10.3f}")

    # --- refine the p=8 schedule with a local optimizer ------------------------
    p = 8
    print(f"\nOptimizing the p={p} schedule with COBYLA ...")
    objective = get_qaoa_objective(n, p, terms=terms, backend="auto")
    gammas0, betas0 = linear_ramp_parameters(p, delta_t=0.3)
    opt = minimize_qaoa(objective, gammas0, betas0, method="COBYLA", maxiter=150)
    print(f"  optimized <E> = {opt.value:.3f} "
          f"(merit factor {labs.merit_factor_from_energy(opt.value, n):.3f}) "
          f"after {opt.n_evaluations} objective evaluations "
          f"in {opt.wall_time:.2f} s")

    # --- exact optimum: the minimum of the precomputed diagonal ---------------
    costs = sim.get_cost_diagonal()
    exact = float(costs.min())
    if exact != optimal:
        raise SystemExit(f"diagonal minimum {exact} != known optimum {optimal}")
    n_optima = int((costs == exact).sum())
    print(f"\nExact minimum of the precomputed diagonal: E = {exact:.0f} "
          f"(known optimum {optimal}), attained by {n_optima} of {costs.size} sequences")
    print("QAOA expectation values above are averages over the measured distribution;")
    print("sampling from the optimized state concentrates on low-energy sequences.")


def _parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("n_qubits", nargs="?", type=int, default=12,
                        help="problem size (default: %(default)s)")
    return parser.parse_args(argv)


if __name__ == "__main__":
    main(_parse_args().n_qubits)
