"""Tests for the shared layered execution-plan engine (repro.fur.engine).

Covers

* plan-cache hit/invalidate semantics: repeated evaluation at the same
  ``(p, n_trotters, budget)`` reuses the compiled plan, any change (including
  the simulator precision) recompiles,
* fused-batch vs per-row-loop parity (``simulate_qaoa`` + ``get_expectation``
  per schedule) across backends x mixers x precisions,
* the distributed fused path (``gpumpi``/``cusvmpi`` kernel providers
  over per-rank slice blocks),
* engine statistics and keyword validation,
* the shared-``sv0`` contract on every backend: one ``(2^n,)``
  initial state drives every row, and a 2-D or wrong-length ``sv0`` is
  rejected before any row runs,
* the read-only guarantees of ``get_cost_diagonal()`` and the plan/phase
  caches (the PR 1 shared-diagonal mutation hazard).
"""

import numpy as np
import pytest

import repro
from repro.fur import available_backends
from repro.fur.engine import ExpectationOp, FusedPhaseMixerOp, MixerOp, PhaseOp
from repro.problems import labs
from repro.testing import per_row_expectations

BACKENDS = ["python", "c", "gpu"]
MIXERS = ["x", "xyring", "xycomplete"]
PRECISIONS = ["double", "single"]
N = 6


@pytest.fixture
def rng():
    return np.random.default_rng(2024)


class TestPlanCompilation:
    def test_ops_sequence_is_declarative(self):
        sim = repro.simulator(N, terms=labs.get_terms(N), backend="python")
        plan = sim.engine.plan(3, reduce=True, optimize="none")
        assert plan.ops == (
            PhaseOp(0), MixerOp(0, 1),
            PhaseOp(1), MixerOp(1, 1),
            PhaseOp(2), MixerOp(2, 1),
            ExpectationOp(),
        )
        assert plan.p == 3 and plan.reduce
        assert plan.mixer == "x" and plan.precision == "double"
        assert plan.optimize == "none" and plan.rewrites == ()
        assert plan.compile_time_s >= 0.0

    def test_simulate_plan_has_no_reduction(self):
        sim = repro.simulator(N, terms=labs.get_terms(N), backend="python")
        plan = sim.engine.plan(2, reduce=False)
        assert not any(isinstance(op, ExpectationOp) for op in plan.ops)

    def test_plan_carries_phase_table(self):
        # LABS diagonals are highly repetitive -> the table must resolve.
        sim = repro.simulator(N, terms=labs.get_terms(N), backend="python")
        plan = sim.engine.plan(2)
        assert plan.phase_tables is not None
        assert plan.phase_tables is sim._diagonal_phase_table()

    def test_invalid_plan_arguments(self):
        sim = repro.simulator(N, terms=labs.get_terms(N), backend="python")
        with pytest.raises(ValueError, match="p must be positive"):
            sim.engine.plan(0)
        with pytest.raises(ValueError, match="n_trotters"):
            sim.engine.plan(2, n_trotters=0)


class TestPlanCacheSemantics:
    def test_same_shape_hits_cache(self, rng):
        sim = repro.simulator(N, terms=labs.get_terms(N), backend="c")
        gb = rng.uniform(0, 1, (4, 3))
        bb = rng.uniform(0, 1, (4, 3))
        sim.get_expectation_batch(gb, bb)
        compiles = sim.engine.stats.plan_compiles
        sim.get_expectation_batch(gb, bb)
        sim.get_expectation_batch(gb, bb)
        assert sim.engine.stats.plan_compiles == compiles
        assert sim.engine.stats.plan_cache_hits >= 2
        # identical key -> the very same plan object
        assert sim.engine.plan(3) is sim.engine.plan(3)

    def test_p_change_recompiles(self, rng):
        sim = repro.simulator(N, terms=labs.get_terms(N), backend="python")
        sim.get_expectation_batch(rng.uniform(0, 1, (2, 2)), rng.uniform(0, 1, (2, 2)))
        before = sim.engine.stats.plan_compiles
        sim.get_expectation_batch(rng.uniform(0, 1, (2, 4)), rng.uniform(0, 1, (2, 4)))
        assert sim.engine.stats.plan_compiles == before + 1

    def test_n_trotters_change_recompiles(self):
        sim = repro.simulator(N, terms=labs.get_terms(N), backend="python",
                              mixer="xyring")
        p1 = sim.engine.plan(2, n_trotters=1)
        p2 = sim.engine.plan(2, n_trotters=3)
        assert p1 is not p2
        assert p2.ops[0] == FusedPhaseMixerOp(0, 3)

    def test_memory_budget_change_recompiles(self):
        sim = repro.simulator(N, terms=labs.get_terms(N), backend="python")
        assert sim.engine.plan(2) is not sim.engine.plan(2, memory_budget=2.0 ** 20)

    def test_precision_is_part_of_the_key(self):
        terms = labs.get_terms(N)
        double = repro.simulator(N, terms=terms, backend="c")
        single = repro.simulator(N, terms=terms, backend="c", precision="single")
        kd = double.engine.plan(2).key
        ks = single.engine.plan(2).key
        assert kd != ks
        # only the precision component differs (the key ends in
        # (..., precision, optimize))
        assert kd[:-2] == ks[:-2] and kd[-1] == ks[-1]

    def test_clear_plans_forces_recompile(self):
        sim = repro.simulator(N, terms=labs.get_terms(N), backend="python")
        first = sim.engine.plan(2)
        assert sim.engine.plan_cache_size() == 1
        sim.engine.clear_plans()
        assert sim.engine.plan_cache_size() == 0
        assert sim.engine.plan(2) is not first


class TestEngineParity:
    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("mixer", MIXERS)
    @pytest.mark.parametrize("precision", PRECISIONS)
    def test_fused_matches_looped(self, backend, mixer, precision, rng):
        sim = repro.simulator(N, terms=labs.get_terms(N), backend=backend,
                              mixer=mixer, precision=precision)
        gb = rng.uniform(-1, 1, (4, 2))
        bb = rng.uniform(-1, 1, (4, 2))
        fused = sim.get_expectation_batch(gb, bb)
        looped = per_row_expectations(sim, gb, bb)
        tol = 1e-12 if precision == "double" else 2e-5
        np.testing.assert_allclose(fused, looped, rtol=tol, atol=tol)
        assert fused.dtype == np.float64  # float64 accumulation policy

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_integer_diagonal_construction(self, backend, rng):
        terms = labs.get_terms(N)
        reference = repro.simulator(N, terms=terms, backend="python")
        costs = reference.get_cost_diagonal().copy()
        sim = repro.simulator(N, costs=costs.astype(np.uint16), backend=backend)
        gb = rng.uniform(0, 1, (3, 2))
        bb = rng.uniform(0, 1, (3, 2))
        np.testing.assert_allclose(sim.get_expectation_batch(gb, bb),
                                   reference.get_expectation_batch(gb, bb),
                                   atol=1e-12)


#: (backend, mixer, constructor kwargs) of every simulator whose single
#: schedule is the engine's one-row plan
ONE_ROW_CONFIGS = [
    *[("jit", m, {}) for m in ("x", "xyring")],
    *[("gates", m, {}) for m in ("x", "xyring")],
    *[("sharded", m, {"n_shards": k})
      for m in ("x", "xyring") for k in (1, 2, 4)],
    *[("gpumpi", "x", {"n_ranks": k}) for k in (1, 2, 4)],
    *[("cusvmpi", "x", {"n_ranks": k}) for k in (1, 2, 4)],
]


@pytest.mark.parametrize("precision", PRECISIONS)
@pytest.mark.parametrize(
    "backend,mixer,kwargs", ONE_ROW_CONFIGS,
    ids=["-".join([b, m, *map(str, kw.values())])
         for b, m, kw in ONE_ROW_CONFIGS])
def test_simulate_qaoa_is_the_one_row_batch(backend, mixer, kwargs, precision,
                                             rng):
    """``simulate_qaoa(g, b)`` is bitwise ``simulate_qaoa_batch([g], [b])[0]``."""
    sim = repro.simulator(N, terms=labs.get_terms(N), backend=backend,
                          mixer=mixer, precision=precision, **kwargs)
    g, b = rng.uniform(-1, 1, 3), rng.uniform(-1, 1, 3)
    one = sim.get_statevector(sim.simulate_qaoa(g, b))
    row = sim.get_statevector(sim.simulate_qaoa_batch([g], [b])[0])
    assert one.dtype == row.dtype == sim.complex_dtype
    np.testing.assert_array_equal(one, row)


class TestDistributedFused:
    @pytest.mark.parametrize("backend", ["gpumpi", "cusvmpi"])
    @pytest.mark.parametrize("n_ranks", [2, 4])
    def test_fused_matches_looped_and_single_node(self, backend, n_ranks, rng):
        terms = labs.get_terms(8)
        sim = repro.simulator(8, terms=terms, backend=backend, n_ranks=n_ranks)
        reference = repro.simulator(8, terms=terms, backend="python")
        gb = rng.uniform(0, 1, (5, 3))
        bb = rng.uniform(0, 1, (5, 3))
        fused = sim.get_expectation_batch(gb, bb)
        np.testing.assert_allclose(fused, per_row_expectations(sim, gb, bb),
                                   atol=1e-12)
        np.testing.assert_allclose(fused, reference.get_expectation_batch(gb, bb),
                                   atol=1e-10)

    @pytest.mark.parametrize("backend", ["gpumpi", "cusvmpi"])
    def test_fused_batch_results_match_per_schedule(self, backend, rng):
        terms = labs.get_terms(6)
        sim = repro.simulator(6, terms=terms, backend=backend, n_ranks=2)
        gb = rng.uniform(0, 1, (3, 2))
        bb = rng.uniform(0, 1, (3, 2))
        results = sim.simulate_qaoa_batch(gb, bb)
        assert len(results) == 3
        for res, (g, b) in zip(results, zip(gb, bb)):
            assert res.n_ranks == 2
            np.testing.assert_allclose(res.gather(),
                                       sim.simulate_qaoa(g, b).gather(),
                                       atol=1e-12)

    def test_fused_distributed_single_precision(self, rng):
        terms = labs.get_terms(8)
        sim = repro.simulator(8, terms=terms, backend="gpumpi", n_ranks=2,
                              precision="single")
        reference = repro.simulator(8, terms=terms, backend="python")
        gb = rng.uniform(0, 1, (3, 2))
        bb = rng.uniform(0, 1, (3, 2))
        fused = sim.get_expectation_batch(gb, bb)
        ref = reference.get_expectation_batch(gb, bb)
        scale = np.maximum(np.abs(ref), 1.0)
        assert np.max(np.abs(fused - ref) / scale) <= 1e-5

    def test_cusvmpi_batched_exchange_message_count_is_rows_independent(self, rng):
        # The batched index-bit swap exchanges whole (rows, half) blocks, so
        # the message count matches a single schedule's layer while the
        # per-row loop pays one exchange per schedule.
        terms = labs.get_terms(6)
        gb = rng.uniform(0, 1, (4, 1))
        bb = rng.uniform(0, 1, (4, 1))
        fused_sim = repro.simulator(6, terms=terms, backend="cusvmpi", n_ranks=2)
        fused_sim.get_expectation_batch(gb, bb)
        fused_msgs = sum(t.num_messages for t in fused_sim.traffic_log)
        looped_sim = repro.simulator(6, terms=terms, backend="cusvmpi", n_ranks=2)
        per_row_expectations(looped_sim, gb, bb)
        looped_msgs = sum(t.num_messages for t in looped_sim.traffic_log)
        assert fused_msgs < looped_msgs
        assert looped_msgs == 4 * fused_msgs  # one exchange set per schedule

    def test_memory_budget_splits_distributed_batches(self, rng):
        terms = labs.get_terms(6)
        sim = repro.simulator(6, terms=terms, backend="gpumpi", n_ranks=2)
        gb = rng.uniform(0, 1, (5, 2))
        bb = rng.uniform(0, 1, (5, 2))
        whole = sim.get_expectation_batch(gb, bb)
        blocks_before = sim.engine.stats.blocks_executed
        split = sim.get_expectation_batch(gb, bb, memory_budget=16 * (1 << 6))
        np.testing.assert_allclose(split, whole, atol=1e-12)
        assert sim.engine.stats.blocks_executed - blocks_before == 5


class TestEngineStatsAndKwargs:
    def test_blocks_and_rows_counted(self, rng):
        sim = repro.simulator(5, terms=labs.get_terms(5), backend="python")
        gb = rng.uniform(0, 1, (7, 2))
        bb = rng.uniform(0, 1, (7, 2))
        # a budget of one state vector (x2 blocks for the X-mixer scratch)
        sim.get_expectation_batch(gb, bb, memory_budget=2 * 16 * (1 << 5))
        assert sim.engine.stats.blocks_executed == 7
        assert sim.engine.stats.rows_executed == 7

    def test_fused_rejects_unknown_kwargs(self, rng):
        sim = repro.simulator(5, terms=labs.get_terms(5), backend="python")
        with pytest.raises(TypeError, match="unexpected keyword"):
            sim.get_expectation_batch([[0.1]], [[0.2]], bogus=1)


class TestSharedInitialState:
    """``sv0`` is ``None`` or one ``(2^n,)`` state shared by every row."""

    BACKENDS = available_backends(importable_only=True)

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("call", ["simulate_batch", "expectation_batch"])
    def test_2d_sv0_block_is_rejected(self, backend, call, rng):
        n = 4
        sim = repro.simulator(n, terms=labs.get_terms(n), backend=backend)
        gb = rng.uniform(0, 1, (3, 2))
        bb = rng.uniform(0, 1, (3, 2))
        block = np.tile(sim.initial_state(), (3, 1))
        rows = sim.engine.stats.rows_executed
        with pytest.raises(ValueError, match=rf"expected \({1 << n},\)"):
            getattr(sim.engine, call)(gb, bb, sv0=block)
        assert sim.engine.stats.rows_executed == rows

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_shared_sv0_matches_individual_evolution(self, backend, rng):
        n = 5
        sim = repro.simulator(n, terms=labs.get_terms(n), backend=backend)
        gb = rng.uniform(0, 1, (3, 2))
        bb = rng.uniform(0, 1, (3, 2))
        shared = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
        shared /= np.linalg.norm(shared)
        singles = [sim.simulate_qaoa(g, b, sv0=shared) for g, b in zip(gb, bb)]
        want = [sim.get_expectation(r) for r in singles]
        stats = sim.engine.stats
        rows = stats.rows_executed
        got = sim.engine.expectation_batch(gb, bb, sv0=shared)
        np.testing.assert_allclose(got, want, atol=1e-12)
        assert stats.rows_executed == rows + 3
        results = sim.engine.simulate_batch(gb, bb, sv0=shared)
        for result, single in zip(results, singles):
            np.testing.assert_allclose(
                np.asarray(sim.get_statevector(result)),
                np.asarray(sim.get_statevector(single)), atol=1e-12)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_wrong_length_sv0_is_rejected(self, backend, rng):
        n = 4
        sim = repro.simulator(n, terms=labs.get_terms(n), backend=backend)
        gb = rng.uniform(0, 1, (3, 2))
        bb = rng.uniform(0, 1, (3, 2))
        short = np.ones((1 << n) - 1, dtype=complex)
        rows = sim.engine.stats.rows_executed
        for call in ("simulate_batch", "expectation_batch"):
            with pytest.raises(ValueError, match=rf"expected \({1 << n},\)"):
                getattr(sim.engine, call)(gb, bb, sv0=short)
        assert sim.engine.stats.rows_executed == rows


class TestReadOnlyDiagonals:
    """Regression: the PR 1 shared-diagonal mutation hazard."""

    @pytest.mark.parametrize("construction", ["terms", "costs", "integer"])
    def test_get_cost_diagonal_is_read_only(self, construction):
        terms = labs.get_terms(N)
        if construction == "terms":
            sim = repro.simulator(N, terms=terms, backend="python")
        else:
            costs = repro.simulator(N, terms=terms,
                                    backend="python").get_cost_diagonal().copy()
            if construction == "integer":
                costs = costs.astype(np.uint16)
            sim = repro.simulator(N, costs=costs, backend="python")
        diag = sim.get_cost_diagonal()
        with pytest.raises(ValueError, match="read-only"):
            diag[0] = 123.0

    def test_mutation_cannot_corrupt_the_shared_cache(self, rng):
        terms = labs.get_terms(7)
        first = repro.simulator(7, terms=terms, backend="python")
        value = first.get_expectation_batch([[0.4]], [[0.3]])[0]
        with pytest.raises(ValueError):
            first.get_cost_diagonal()[:] = 0.0
        # A second simulator of the same problem shares the cached diagonal
        # and must still see unmutated values.
        second = repro.simulator(7, terms=terms, backend="c")
        assert second.get_expectation_batch([[0.4]], [[0.3]])[0] == pytest.approx(value)

    def test_plan_phase_tables_are_read_only(self):
        sim = repro.simulator(N, terms=labs.get_terms(N), backend="python")
        plan = sim.engine.plan(2)
        table = plan.phase_tables
        assert table is not None
        with pytest.raises(ValueError):
            table.inverse[0] = 1
        with pytest.raises(ValueError):
            table.unique_values[0] = -1.0

    def test_copy_remains_writable(self):
        sim = repro.simulator(N, terms=labs.get_terms(N), backend="python")
        copy = sim.get_cost_diagonal().copy()
        copy[0] = 5.0  # the documented escape hatch
        assert copy[0] == 5.0
