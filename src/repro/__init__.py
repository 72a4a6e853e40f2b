"""repro — reproduction of "Fast Simulation of High-Depth QAOA Circuits" (SC 2023).

The package mirrors the structure of the paper's QOKit framework:

* :mod:`repro.fur` — the fast QAOA simulators built on the precomputed
  diagonal cost operator (the paper's core contribution), with CPU, simulated
  GPU and distributed (virtual-cluster) backends behind one backend registry;
* :mod:`repro.problems` — MaxCut, LABS and portfolio problem generators;
* :mod:`repro.qaoa` — objective factories, parameter initialization and
  optimization drivers;
* :mod:`repro.gates` — a gate-based state-vector simulator (baseline);
* :mod:`repro.tensornet` — a tensor-network contraction simulator (the
  Fig. 3 baseline, and the cut recombination's contraction); it is not a
  registry backend;
* :mod:`repro.parallel` — the virtual-cluster substrate (collectives,
  topology and performance model);
* :mod:`repro.cutting` — circuit cutting: splits the cost graph into two
  fragments across ``k`` cut qubits, each holding one cost diagonal, and
  evaluates them as two row-pool tasks with one state-vector evolution each
  (all ``4^k`` variant tables come from that state), then recombines with
  a tensor contraction, so ``p = 1`` problems beyond the monolithic state
  budget still evaluate exactly (``repro.cut_qaoa_expectation(...)``; see
  the README's Circuit cutting section);
* :mod:`repro.serve` — an async serving layer over the execution engine:
  concurrent expectation requests are routed by problem fingerprint,
  micro-batched into fused engine calls and exact duplicates coalesced
  (``svc = repro.serve(backend="python")``; see the README's Serving
  section).

Quickstart — every backend/mixer combination is constructed through the
single :func:`repro.simulator` facade::

    import repro

    n = 12
    terms = [(0.3, (i, j)) for i in range(n) for j in range(i + 1, n)]

    sim = repro.simulator(n, terms=terms)        # fastest available backend
    costs = sim.get_cost_diagonal()              # the precomputed diagonal
    result = sim.simulate_qaoa(gammas, betas)
    energy = sim.get_expectation(result)

    # explicit backend / mixer / precision selection and introspection:
    sim = repro.simulator(n, terms=terms, backend="python", mixer="xyring")
    sim = repro.simulator(n, terms=terms, precision="single")  # complex64 state:
                                                 # ~2x bandwidth, half the memory
    spec = repro.fur.get_backend("gpu")          # mixers, precisions, device

    # batched evaluation shares the precomputed diagonal across schedules:
    energies = sim.get_expectation_batch(gammas_batch, betas_batch)

Backends self-register with their metadata (supported mixers and
precisions, device class, distributed-ness, ``auto`` priority) via
:func:`repro.fur.register_backend`; see :mod:`repro.fur.registry`.  Every
registered backend is a full state-vector simulator; the gate-based
baseline is registered too, as ``backend="gates"``.
"""

from . import cutting, fur, problems, serve
from .cutting import CutQAOAObjective, CutQAOAPipeline, cut_qaoa_expectation
from .fur.registry import simulator
from .problems import labs, maxcut, portfolio

__version__ = "1.6.0"

__all__ = [
    "cutting",
    "fur",
    "problems",
    "serve",
    "CutQAOAObjective",
    "CutQAOAPipeline",
    "cut_qaoa_expectation",
    "labs",
    "maxcut",
    "portfolio",
    "simulator",
    "__version__",
]
