"""Plan-rewrite optimizer passes (repro.fur.rewrite) and their parity pins.

Covers

* the randomized cross-backend parity harness: random terms, angles, mixers,
  precisions and batch shapes (seeded via the session ``seeded_rng`` fixture,
  reproducible from the seed printed in the pytest header), asserting
  optimized == unoptimized == the per-row loop (``simulate_qaoa`` +
  ``get_expectation`` per schedule) within the established envelopes
  (1e-5 single / 1e-12 double) for every importable backend,
* unit semantics of the three passes (FusePhaseIntoMixer,
  CoalesceExchanges, FuseMixerIntoExpectation) and their fixed order,
  including their gating on the provider's ``supports_*`` flags,
* the compiled op list of every importable backend x mixer, pinned,
* exactness of every backend's kernels at angle 0,
* the ``optimize`` knob: constructor default, per-call override, facade
  validation and plan-cache key membership,
* the coalesced gpumpi exchange: bitwise consistency with the per-row path
  at 2 and 4 ranks, and the batch-size-independent message count,
* engine statistics for rewrites (fused ops counted distinctly,
  ops-before/after per pass, one pipeline run per compiled plan).
"""

import numpy as np
import pytest

import repro
from repro.fur import available_backends, get_backend
from repro.fur.engine import (
    ExpectationOp,
    FusedMixerExpectationOp,
    FusedPhaseMixerOp,
    MixerOp,
    PhaseOp,
)
from repro.fur.rewrite import (
    PASSES,
    CoalesceExchanges,
    FuseMixerIntoExpectation,
    FusePhaseIntoMixer,
    resolve_optimize,
    run_passes,
)
from repro.problems import labs
from repro.testing import per_row_expectations, random_terms

#: Every backend importable in this environment participates in the harness.
BACKENDS = available_backends(importable_only=True)
PRECISIONS = ("double", "single")

#: Established parity envelopes (relative, applied against the looped path).
ENVELOPE = {"double": 1e-12, "single": 1e-5}

#: Random configurations drawn per backend x precision cell.
N_TRIALS = 3


def _random_config(rng, spec):
    """One random problem/schedule configuration for a backend spec."""
    n = int(rng.integers(5, 9))
    p = int(rng.integers(1, 5))
    batch = int(rng.integers(1, 6))
    mixer = str(rng.choice(spec.mixers))
    terms = random_terms(rng, n, n_terms=int(rng.integers(3, 9)))
    gammas = rng.uniform(-2.0, 2.0, (p,))[None, :] * rng.uniform(0.5, 1.0, (batch, 1))
    betas = rng.uniform(-2.0, 2.0, (batch, p))
    gammas = np.ascontiguousarray(gammas)
    # Randomly zero whole angle columns: every kernel must be exact at
    # angle 0, with no shortcut around it.
    if rng.random() < 0.5:
        gammas[:, int(rng.integers(p))] = 0.0
    if rng.random() < 0.5:
        betas[:, int(rng.integers(p))] = 0.0
    kwargs = {}
    if spec.distributed:
        kwargs["n_ranks"] = int(rng.choice([2, 4]))
    return n, mixer, terms, gammas, betas, kwargs


class TestRandomizedParityHarness:
    """optimized == unoptimized == looped, across everything, from one seed."""

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("precision", PRECISIONS)
    def test_optimized_matches_unoptimized_and_looped(self, backend, precision,
                                                      seeded_rng):
        spec = get_backend(backend)
        if not spec.supports_precision(precision):
            pytest.skip(f"{backend} does not implement {precision}")
        for trial in range(N_TRIALS):
            n, mixer, terms, gb, bb, kwargs = _random_config(seeded_rng, spec)
            sim = repro.simulator(n, terms=terms, backend=backend,
                                  mixer=mixer, precision=precision, **kwargs)
            optimized = sim.get_expectation_batch(gb, bb)
            unoptimized = sim.get_expectation_batch(gb, bb, optimize="none")
            looped = per_row_expectations(sim, gb, bb)
            tol = ENVELOPE[precision] * max(1.0, float(np.max(np.abs(looped))))
            context = (f"backend={backend} precision={precision} "
                       f"trial={trial} n={n} mixer={mixer} "
                       f"shape={gb.shape} kwargs={kwargs} "
                       "(reproduce via the seed in the pytest header)")
            np.testing.assert_allclose(optimized, unoptimized, atol=tol,
                                       err_msg=f"optimized vs unoptimized: {context}")
            np.testing.assert_allclose(optimized, looped, atol=tol,
                                       err_msg=f"optimized vs looped: {context}")
            np.testing.assert_allclose(unoptimized, looped, atol=tol,
                                       err_msg=f"unoptimized vs looped: {context}")

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_simulate_batch_states_match_unoptimized(self, backend, seeded_rng):
        """The evolved states (not just expectations) survive the rewrites."""
        spec = get_backend(backend)
        kwargs = {"n_ranks": 2} if spec.distributed else {}
        terms = labs.get_terms(6)
        gb = seeded_rng.uniform(-1.0, 1.0, (3, 2))
        bb = seeded_rng.uniform(-1.0, 1.0, (3, 2))
        sim = repro.simulator(6, terms=terms, backend=backend, **kwargs)
        optimized = sim.simulate_qaoa_batch(gb, bb)
        unoptimized = sim.simulate_qaoa_batch(gb, bb, optimize="none")
        for opt_res, unopt_res in zip(optimized, unoptimized):
            np.testing.assert_allclose(
                np.asarray(sim.get_statevector(opt_res)),
                np.asarray(sim.get_statevector(unopt_res)), atol=1e-12)


class _Flags:
    """Minimal stand-in provider exposing only the given capability flags."""

    def __init__(self, **flags):
        self.__dict__.update(flags)


def _backend_kwargs(spec):
    """Constructor kwargs that pin a backend's shape independent of the host."""
    if spec.distributed:
        return {"n_ranks": 2}
    if spec.name == "sharded":
        return {"n_shards": 2}
    return {}


class TestPassSemantics:
    def test_fuse_pass_merges_x_layers(self):
        sim = repro.simulator(6, terms=labs.get_terms(6), backend="python")
        plan = sim.engine.plan(3)
        assert plan.optimize == "default"
        # every layer fuses phase+mixer; the tail additionally absorbs the
        # expectation reduction (FuseMixerIntoExpectation)
        assert plan.ops == (FusedPhaseMixerOp(0), FusedPhaseMixerOp(1),
                            FusedMixerExpectationOp(2, with_phase=True))
        fuse = [r for r in plan.rewrites if r.pass_name == "fuse-phase-mixer"]
        assert fuse and fuse[0].rewrites == 3
        assert fuse[0].ops_before == 7 and fuse[0].ops_after == 4
        fme = [r for r in plan.rewrites if r.pass_name == "fuse-mixer-expectation"]
        assert fme and fme[0].rewrites == 1
        assert fme[0].ops_before == 4 and fme[0].ops_after == 3

    def test_xy_mixers_keep_split_ops(self):
        sim = repro.simulator(6, terms=labs.get_terms(6), backend="gpu",
                              mixer="xyring")
        plan = sim.engine.plan(2)
        # no fused XY kernels: every pass runs and rewrites nothing
        assert plan.ops == (PhaseOp(0), MixerOp(0, 1),
                            PhaseOp(1), MixerOp(1, 1), ExpectationOp())
        assert [r.pass_name for r in plan.rewrites] == [p.name for p in PASSES]
        assert all(r.rewrites == 0 for r in plan.rewrites)

    def test_coalesce_marks_gpumpi_ops_only(self):
        terms = labs.get_terms(6)
        gpumpi = repro.simulator(6, terms=terms, backend="gpumpi", n_ranks=2)
        plan = gpumpi.engine.plan(2)
        assert plan.ops[:2] == (FusedPhaseMixerOp(0, coalesce=True),
                                FusedPhaseMixerOp(1, coalesce=True))
        cusvmpi = repro.simulator(6, terms=terms, backend="cusvmpi", n_ranks=2)
        assert cusvmpi.engine.plan(2).ops[0] == FusedPhaseMixerOp(0)

    def test_fuse_gated_on_provider_capability(self):
        class NoFusion:
            supports_fused_phase_mixer = False
            supports_coalesced_exchange = False

        ops = (PhaseOp(0), MixerOp(0), ExpectationOp())
        out, reports = run_passes(ops, NoFusion())
        assert out == ops
        assert all(r.rewrites == 0 for r in reports)

    def test_default_pipeline_order(self):
        kinds = [type(p) for p in PASSES]
        assert kinds == [FusePhaseIntoMixer, CoalesceExchanges,
                         FuseMixerIntoExpectation]

    def test_fuse_mixer_into_expectation_rewrites_the_tail(self):
        fme = FuseMixerIntoExpectation()
        cap = _Flags(supports_fused_mixer_expectation=True)
        ops = (PhaseOp(0), MixerOp(1, 2), ExpectationOp())
        out, n = fme.run(ops, cap)
        assert out == (PhaseOp(0), FusedMixerExpectationOp(1, n_trotters=2))
        assert n == 1
        # a fused phase+mixer tail keeps its phase half (with_phase=True)
        out2, n2 = fme.run((FusedPhaseMixerOp(1), ExpectationOp()), cap)
        assert out2 == (FusedMixerExpectationOp(1, with_phase=True),)
        assert n2 == 1
        # coalesced (distributed) tails are left alone
        coalesced = (MixerOp(1, coalesce=True), ExpectationOp())
        assert fme.run(coalesced, cap) == (coalesced, 0)
        # gated on the provider capability
        assert fme.run(ops, _Flags()) == (ops, 0)

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("precision", PRECISIONS)
    def test_all_zero_schedule_reduces_to_initial_state(self, backend,
                                                        precision):
        # exp(0) = I exactly: the kernels themselves must leave |+> intact
        spec = get_backend(backend)
        if not spec.supports_precision(precision):
            pytest.skip(f"{backend} does not implement {precision}")
        for mixer in spec.mixers:
            sim = repro.simulator(6, terms=labs.get_terms(6), backend=backend,
                                  mixer=mixer, precision=precision,
                                  **_backend_kwargs(spec))
            values = sim.get_expectation_batch(np.zeros((2, 3)),
                                               np.zeros((2, 3)))
            expected = float(sim.get_cost_diagonal().mean())
            np.testing.assert_allclose(values, [expected, expected], rtol=0,
                                       atol=ENVELOPE[precision],
                                       err_msg=f"mixer={mixer}")


def _split(p, coalesce=False):
    ops = []
    for layer in range(p):
        ops += [PhaseOp(layer), MixerOp(layer, coalesce=coalesce)]
    return tuple(ops) + (ExpectationOp(),)


#: Compiled ``plan.ops`` at p = 1 and p = 3 per op-list shape.
_PINNED_SHAPES = {
    "fused-tail": {
        1: (FusedMixerExpectationOp(0, with_phase=True),),
        3: (FusedPhaseMixerOp(0), FusedPhaseMixerOp(1),
            FusedMixerExpectationOp(2, with_phase=True)),
    },
    "fused": {
        1: (FusedPhaseMixerOp(0), ExpectationOp()),
        3: (FusedPhaseMixerOp(0), FusedPhaseMixerOp(1), FusedPhaseMixerOp(2),
            ExpectationOp()),
    },
    "fused-coalesced": {
        1: (FusedPhaseMixerOp(0, coalesce=True), ExpectationOp()),
        3: (FusedPhaseMixerOp(0, coalesce=True),
            FusedPhaseMixerOp(1, coalesce=True),
            FusedPhaseMixerOp(2, coalesce=True), ExpectationOp()),
    },
    "split": {1: _split(1), 3: _split(3)},
    "split-coalesced": {1: _split(1, coalesce=True), 3: _split(3, coalesce=True)},
}

#: backend x mixer -> op-list shape of its default-optimized plans.
_PINNED_PLANS = {
    ("python", "x"): "fused-tail",
    ("python", "xyring"): "fused",
    ("python", "xycomplete"): "fused",
    ("jit", "x"): "fused-tail",
    ("jit", "xyring"): "fused",
    ("jit", "xycomplete"): "fused",
    ("sharded", "x"): "fused-coalesced",
    ("sharded", "xyring"): "split-coalesced",
    ("sharded", "xycomplete"): "split-coalesced",
    ("gpu", "x"): "fused",
    ("gpu", "xyring"): "split",
    ("gpu", "xycomplete"): "split",
    ("gpumpi", "x"): "fused-coalesced",
    ("cusvmpi", "x"): "fused",
    ("gates", "x"): "split",
    ("gates", "xyring"): "split",
    ("gates", "xycomplete"): "split",
}


class TestPinnedPlans:
    """The compiled op list of every importable backend x mixer."""

    def test_table_covers_every_importable_backend_and_mixer(self):
        cells = {(b, m) for b in BACKENDS for m in get_backend(b).mixers}
        assert cells <= set(_PINNED_PLANS)

    @pytest.mark.parametrize("backend,mixer", sorted(_PINNED_PLANS))
    @pytest.mark.parametrize("n", [6, 10])
    def test_compiled_ops(self, backend, mixer, n):
        if backend not in BACKENDS:
            pytest.skip(f"{backend} is not importable here")
        spec = get_backend(backend)
        sim = repro.simulator(n, terms=labs.get_terms(n), backend=backend,
                              mixer=mixer, **_backend_kwargs(spec))
        shape = _PINNED_SHAPES[_PINNED_PLANS[backend, mixer]]
        for p in (1, 3):
            assert sim.engine.plan(p).ops == shape[p], f"p={p}"


class TestOptimizeKnob:
    def test_optimize_is_part_of_the_plan_key(self):
        sim = repro.simulator(6, terms=labs.get_terms(6), backend="python")
        default = sim.engine.plan(2)
        none = sim.engine.plan(2, optimize="none")
        assert default is not none
        assert default.key != none.key
        assert default.key[:-1] == none.key[:-1]  # only optimize differs
        assert none.ops == (PhaseOp(0), MixerOp(0, 1),
                            PhaseOp(1), MixerOp(1, 1), ExpectationOp())

    def test_constructor_knob_sets_the_default(self):
        sim = repro.simulator(6, terms=labs.get_terms(6), backend="python",
                              optimize="none")
        assert sim.optimize == "none"
        assert sim.engine.plan(2).optimize == "none"
        # the per-call override still enables the pipeline
        assert sim.engine.plan(2, optimize="default").ops[0] == FusedPhaseMixerOp(0)

    @pytest.mark.parametrize("backend", ["python", "c", "gpu"])
    def test_facade_forwards_optimize(self, backend):
        sim = repro.simulator(6, terms=labs.get_terms(6), backend=backend,
                              optimize="none")
        assert sim.optimize == "none"

    def test_invalid_optimize_rejected(self):
        terms = labs.get_terms(6)
        with pytest.raises(ValueError, match="unknown optimize level"):
            repro.simulator(6, terms=terms, optimize="aggressive")
        with pytest.raises(ValueError, match="unknown optimize level"):
            resolve_optimize("fast")
        sim = repro.simulator(6, terms=terms, backend="python")
        with pytest.raises(ValueError, match="unknown optimize level"):
            sim.get_expectation_batch([[0.1]], [[0.2]], optimize="fast")

    def test_instance_passthrough_checks_optimize(self):
        sim = repro.simulator(6, terms=labs.get_terms(6), backend="python",
                              optimize="none")
        assert repro.simulator(6, backend=sim, terms=None) is sim
        with pytest.raises(ValueError, match="optimize"):
            repro.simulator(6, backend=sim, terms=None, optimize="default")


class TestCoalescedExchange:
    """The gpumpi block-wide Alltoall vs the per-row path."""

    @pytest.mark.parametrize("n_ranks", [2, 4])
    def test_bitwise_consistent_with_per_row_path(self, n_ranks, seeded_rng):
        terms = labs.get_terms(8)
        gb = seeded_rng.uniform(0.0, 1.0, (3, 2))
        bb = seeded_rng.uniform(0.0, 1.0, (3, 2))
        coalesced = repro.simulator(8, terms=terms, backend="gpumpi",
                                    n_ranks=n_ranks)
        per_row = repro.simulator(8, terms=terms, backend="gpumpi",
                                  n_ranks=n_ranks, optimize="none")
        res_c = coalesced.simulate_qaoa_batch(gb, bb)
        res_p = per_row.simulate_qaoa_batch(gb, bb)
        for a, b in zip(res_c, res_p):
            np.testing.assert_array_equal(a.gather(), b.gather())
        np.testing.assert_array_equal(
            coalesced.get_expectation_batch(gb, bb),
            per_row.get_expectation_batch(gb, bb, optimize="none"))

    @pytest.mark.parametrize("n_ranks", [2, 4])
    def test_message_count_is_batch_size_independent(self, n_ranks, seeded_rng):
        terms = labs.get_terms(8)
        p = 2
        counts = {}
        for batch in (2, 5):
            sim = repro.simulator(8, terms=terms, backend="gpumpi",
                                  n_ranks=n_ranks)
            sim.get_expectation_batch(seeded_rng.uniform(0.3, 1.0, (batch, p)),
                                      seeded_rng.uniform(0.3, 1.0, (batch, p)))
            counts[batch] = sum(t.num_messages for t in sim.traffic_log)
        # coalesced: 2 exchanges per layer x K(K-1) messages, regardless of B
        assert counts[2] == counts[5]
        assert counts[2] == p * 2 * n_ranks * (n_ranks - 1)

    def test_per_row_message_count_scales_with_batch(self, seeded_rng):
        terms = labs.get_terms(8)
        counts = {}
        for batch in (2, 5):
            sim = repro.simulator(8, terms=terms, backend="gpumpi", n_ranks=2,
                                  optimize="none")
            sim.get_expectation_batch(seeded_rng.uniform(0.3, 1.0, (batch, 2)),
                                      seeded_rng.uniform(0.3, 1.0, (batch, 2)))
            counts[batch] = sum(t.num_messages for t in sim.traffic_log)
        assert counts[5] == counts[2] * 5 // 2

    @pytest.mark.parametrize("algorithm", ["direct", "pairwise", "ring", "bruck"])
    def test_alltoall_algorithms_stay_consistent(self, algorithm, seeded_rng):
        terms = labs.get_terms(6)
        gb = seeded_rng.uniform(0.0, 1.0, (3, 2))
        bb = seeded_rng.uniform(0.0, 1.0, (3, 2))
        sim = repro.simulator(6, terms=terms, backend="gpumpi", n_ranks=2,
                              alltoall_algorithm=algorithm)
        reference = repro.simulator(6, terms=terms, backend="python")
        np.testing.assert_allclose(sim.get_expectation_batch(gb, bb),
                                   reference.get_expectation_batch(gb, bb),
                                   atol=1e-10)

    def test_non_direct_algorithm_keeps_the_per_row_path(self, seeded_rng):
        # The coalesced exchange is the direct algorithm over block slabs;
        # requesting another algorithm must keep the per-row exchanges (and
        # their algorithm-shaped traffic traces) instead of silently
        # ignoring the knob.
        terms = labs.get_terms(6)
        sim = repro.simulator(6, terms=terms, backend="gpumpi", n_ranks=2,
                              alltoall_algorithm="bruck")
        assert not sim.supports_coalesced_exchange
        plan = sim.engine.plan(2)
        assert plan.ops[0] == FusedPhaseMixerOp(0)  # fusion still applies
        assert not plan.ops[0].coalesce
        gb = seeded_rng.uniform(0.3, 1.0, (3, 2))
        bb = seeded_rng.uniform(0.3, 1.0, (3, 2))
        sim.get_expectation_batch(gb, bb)
        assert sim.engine.stats.coalesced_exchange_ops == 0
        # one trace per schedule row per exchange: the per-row path
        assert len(sim.traffic_log) == 3 * 2 * 2


class TestRewriteStats:
    def test_fused_ops_counted_distinctly(self, seeded_rng):
        sim = repro.simulator(6, terms=labs.get_terms(6), backend="python")
        gb = seeded_rng.uniform(0.3, 1.0, (4, 3))
        bb = seeded_rng.uniform(0.3, 1.0, (4, 3))
        sim.get_expectation_batch(gb, bb)
        stats = sim.engine.stats.as_dict()
        assert stats["fused_ops_executed"] == 3  # one per layer, one block
        assert stats["mixer_expectation_fused_ops"] == 1  # the plan tail
        assert stats["rewrites"]["fuse-phase-mixer"]["rewrites"] == 3
        assert stats["rewrites"]["fuse-phase-mixer"]["ops_before"] == 7
        assert stats["rewrites"]["fuse-phase-mixer"]["ops_after"] == 4
        assert stats["rewrites"]["fuse-mixer-expectation"]["rewrites"] == 1

    @pytest.mark.parametrize("backend", ["python", "jit"])
    def test_rewrites_run_once_per_compiled_plan(self, backend, seeded_rng):
        sim = repro.simulator(6, terms=labs.get_terms(6), backend=backend)
        for _ in range(3):
            sim.get_expectation_batch(seeded_rng.uniform(0.3, 1.0, (2, 3)),
                                      seeded_rng.uniform(0.3, 1.0, (2, 3)))
        stats = sim.engine.stats
        assert stats.plan_compiles == 1
        assert set(stats.rewrites) == {p.name for p in PASSES}
        assert all(entry["runs"] == 1 for entry in stats.rewrites.values())

    def test_coalesced_exchanges_counted(self, seeded_rng):
        sim = repro.simulator(6, terms=labs.get_terms(6), backend="gpumpi",
                              n_ranks=2)
        gb = seeded_rng.uniform(0.3, 1.0, (2, 2))
        bb = seeded_rng.uniform(0.3, 1.0, (2, 2))
        sim.get_expectation_batch(gb, bb)
        assert sim.engine.stats.coalesced_exchange_ops == 2

    def test_unoptimized_runs_record_no_rewrites(self, seeded_rng):
        sim = repro.simulator(6, terms=labs.get_terms(6), backend="python",
                              optimize="none")
        sim.get_expectation_batch(seeded_rng.uniform(0.3, 1.0, (2, 2)),
                                  seeded_rng.uniform(0.3, 1.0, (2, 2)))
        stats = sim.engine.stats.as_dict()
        assert stats["fused_ops_executed"] == 0
        assert stats["rewrites"] == {}
