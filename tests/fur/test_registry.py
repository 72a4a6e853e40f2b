"""Tests for the backend registry, the simulator facade, the diagonal cache
and the batched-evaluation API."""

import numpy as np
import pytest

import repro
from repro import fur
from repro.fur import diagonal_cache
from repro.fur.cache import DiagonalCache, problem_fingerprint
from repro.fur.jit import (
    QAOAFURXSimulatorJIT,
    QAOAFURXYCompleteSimulatorJIT,
    QAOAFURXYRingSimulatorJIT,
)
from repro.fur.python import (
    QAOAFURXSimulator,
    QAOAFURXYCompleteSimulator,
    QAOAFURXYRingSimulator,
)
from repro.fur.registry import BackendSpec, registry
from repro.testing import random_terms

TERMS = [(0.5, (0, 1)), (-0.25, (1, 2)), (1.0, (0,))]


CPU_CLASSES = {
    ("jit", "x"): QAOAFURXSimulatorJIT,
    ("jit", "xyring"): QAOAFURXYRingSimulatorJIT,
    ("jit", "xycomplete"): QAOAFURXYCompleteSimulatorJIT,
    ("python", "x"): QAOAFURXSimulator,
    ("python", "xyring"): QAOAFURXYRingSimulator,
    ("python", "xycomplete"): QAOAFURXYCompleteSimulator,
}


class TestRegistryResolution:
    def test_canonical_names(self):
        assert set(fur.available_backends()) == {
            "python", "jit", "sharded", "gpu", "gpumpi", "cusvmpi", "gates",
        }

    def test_alias_resolution(self):
        assert fur.get_backend("numpy").name == "python"
        assert fur.get_backend("c").name == "jit"
        assert fur.get_backend("cpu").name == "jit"
        assert fur.get_backend("nbcuda").name == "gpu"
        assert fur.get_backend("custatevec").name == "cusvmpi"
        assert fur.get_backend("multidevice").name == "sharded"

    def test_auto_resolves_to_highest_priority(self):
        assert fur.get_backend("auto").name == "jit"
        assert fur.get_simulator_class("auto") is QAOAFURXSimulatorJIT

    def test_backend_metadata(self):
        spec = fur.get_backend("gpumpi")
        assert spec.mixers == ("x",)
        assert spec.distributed
        assert spec.device == "gpu"
        assert not fur.get_backend("c").distributed

    def test_unknown_backend_lists_names_and_aliases_separately(self):
        with pytest.raises(ValueError, match=r"backends: .*; aliases: "):
            fur.get_backend("pyton")

    def test_unknown_backend_suggests_close_matches(self):
        with pytest.raises(ValueError, match="Did you mean 'python'"):
            fur.get_backend("pyton")

    def test_retired_backend_names_its_successor(self):
        with pytest.raises(ValueError, match="'numba' was retired") as info:
            repro.simulator(6, terms=[(1.0, (0, 1))], backend="numba")
        assert "use 'jit'" in str(info.value)
        assert "numpy" not in str(info.value)

    def test_mixer_filtering_names_alternatives(self):
        with pytest.raises(ValueError, match="backends implementing 'xyring'"):
            fur.get_simulator_class("gpumpi", "xyring")

    def test_unknown_mixer_is_value_error(self):
        with pytest.raises(ValueError, match="unknown mixer"):
            fur.get_backend("auto", mixer="nope")

    def test_available_backends_filters_by_mixer(self):
        xy = fur.available_backends(mixer="xyring")
        assert "gpumpi" not in xy and "cusvmpi" not in xy
        assert {"jit", "python", "gpu"} <= set(xy)

    def test_describe_mentions_every_backend(self):
        text = registry.describe()
        for name in fur.available_backends():
            assert name in text

    def test_describe_tags_device_and_distribution(self):
        lines = registry.describe().splitlines()
        assert any(line.strip().startswith("jit  [cpu]") for line in lines)
        assert any(line.strip().startswith("gpumpi  [gpu/distributed]")
                   for line in lines)


class TestStateVectorBackends:
    @pytest.mark.parametrize("backend", sorted(registry.names()))
    def test_every_backend_hands_back_a_state(self, backend):
        # n=6 leaves local qubits for the distributed families' default ranks
        sim = repro.simulator(6, terms=TERMS, backend=backend)
        result = sim.simulate_qaoa([0.1], [0.2])
        state = sim.get_statevector(result)
        assert state.shape == (64,)
        np.testing.assert_allclose(np.vdot(state, state).real, 1.0, rtol=1e-12)
        energy = sim.get_expectation(result)
        np.testing.assert_allclose(
            energy, np.dot(sim.get_cost_diagonal(), np.abs(state) ** 2),
            rtol=1e-12, atol=1e-12)

    def test_baseline_backends_resolve_by_name_and_alias(self):
        assert fur.get_backend("gates").name == "gates"
        assert fur.get_backend("statevector").name == "gates"

    def test_gates_backend_constructs_through_facade(self):
        sim = repro.simulator(3, terms=TERMS, backend="gates", mixer="xyring")
        assert sim.backend_name == "gates"
        assert sim.mixer_name == "xyring"
        result = sim.simulate_qaoa([0.1], [0.2])
        probs = sim.get_probabilities(result)
        np.testing.assert_allclose(probs.sum(), 1.0, rtol=1e-12)

    @pytest.mark.parametrize("name", ["tensornet", "tn"])
    def test_tensornet_is_retired(self, name):
        successor = r"retired; use repro\.tensornet\.TensorNetworkSimulator"
        with pytest.raises(ValueError, match=successor):
            repro.simulator(3, terms=TERMS, backend=name)
        with pytest.raises(ValueError, match=successor):
            fur.get_backend(name)
        assert name not in fur.available_backends()


class TestAutoFallback:
    def test_auto_skips_backend_whose_import_fails(self):
        def broken_loader():
            raise ImportError("optional dependency missing")

        registry.register(BackendSpec(name="brokenfast", loader=broken_loader,
                                      mixers=("x",), priority=10_000))
        try:
            # brokenfast outranks everything, but auto must fall back to jit.
            assert fur.get_backend("auto").name == "jit"
            assert fur.get_simulator_class("auto") is QAOAFURXSimulatorJIT
            # explicit selection still surfaces the import error
            with pytest.raises(ImportError, match="optional dependency"):
                fur.get_simulator_class("brokenfast")
        finally:
            registry.unregister("brokenfast")

    def test_name_and_alias_collisions_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            registry.register(BackendSpec(name="c", loader=dict))
        with pytest.raises(ValueError, match="already registered"):
            registry.register(BackendSpec(name="fresh", aliases=("numpy",), loader=dict))
        with pytest.raises(ValueError, match="reserved"):
            registry.register(BackendSpec(name="auto", loader=dict))

    def test_overwrite_drops_stale_aliases(self):
        registry.register(BackendSpec(name="tmpbk", aliases=("tmpalias",),
                                      loader=dict, priority=-50))
        try:
            registry.register(BackendSpec(name="tmpbk", aliases=(), loader=dict,
                                          priority=-50), overwrite=True)
            with pytest.raises(ValueError, match="unknown simulator backend"):
                registry.spec("tmpalias")
        finally:
            registry.unregister("tmpbk")

    def test_names_track_registrations(self):
        registry.register(BackendSpec(name="tmpbk2", aliases=("tmpalias2",),
                                      loader=dict, priority=-50))
        try:
            assert "tmpbk2" in registry.names()
            assert registry.aliases()["tmpalias2"] == "tmpbk2"
        finally:
            registry.unregister("tmpbk2")
        assert "tmpbk2" not in registry.names()
        assert "tmpalias2" not in registry.aliases()

    def test_register_backend_decorator_roundtrip(self):
        @fur.register_backend("toy", aliases=("plaything",), mixers=("x",),
                              priority=-5, description="test-only")
        def _load_toy():
            return {"x": QAOAFURXSimulator}

        try:
            assert fur.get_backend("plaything").name == "toy"
            assert fur.get_simulator_class("toy") is QAOAFURXSimulator
            # negative priority: auto still prefers the real backends
            assert fur.get_backend("auto").name == "jit"
        finally:
            registry.unregister("toy")


class TestCAlias:
    """``c``/``cpu`` name the paper's compiled-C backend: the jit tier."""

    @pytest.mark.parametrize("name", ["c", "cpu"])
    def test_c_constructs_jit(self, name):
        sim = repro.simulator(4, terms=TERMS, backend=name, mixer="xyring")
        assert type(sim) is QAOAFURXYRingSimulatorJIT

    def test_auto_is_jit_on_the_numpy_rung(self, monkeypatch):
        from repro.fur.jit import kernels

        monkeypatch.setenv("REPRO_JIT_PATH", "numpy")
        kernels._reset_path_cache()
        try:
            assert kernels.active_path() == "numpy"
            assert fur.get_backend("auto").name == "jit"
        finally:
            kernels._reset_path_cache()


class TestSimulatorFacade:
    @pytest.mark.parametrize("backend", ["jit", "python"])
    @pytest.mark.parametrize("mixer", ["x", "xyring", "xycomplete"])
    def test_constructs_every_cpu_backend_mixer_combination(self, backend, mixer):
        sim = repro.simulator(4, terms=TERMS, backend=backend, mixer=mixer)
        assert type(sim) is CPU_CLASSES[(backend, mixer)]
        assert sim.backend_name == backend
        assert sim.mixer_name == mixer

    def test_accepts_class_and_instance(self):
        sim = repro.simulator(4, terms=TERMS, backend=QAOAFURXSimulator)
        assert type(sim) is QAOAFURXSimulator
        assert repro.simulator(4, backend=sim) is sim

    def test_rejects_non_simulator_backend(self):
        with pytest.raises(TypeError):
            repro.simulator(4, terms=TERMS, backend=42)

    def test_forwards_constructor_kwargs(self):
        sim = repro.simulator(4, terms=TERMS, backend="sharded", n_shards=2)
        assert sim.n_shards == 2

    def test_matches_resolved_class(self):
        cls = fur.get_simulator_class("c")
        assert type(repro.simulator(4, terms=TERMS, backend="c")) is cls

    def test_chooser_shims_are_gone(self):
        # the v1.0 `choose_simulator*` deprecation shims were removed in v1.3
        for shim in ["choose_simulator", "choose_simulator_xyring",
                     "choose_simulator_xycomplete"]:
            with pytest.raises(AttributeError):
                getattr(fur, shim)

    def test_listing1_flow(self):
        """The paper's Listing 1, modulo the package name and registry API."""
        simclass = fur.get_simulator_class("auto")
        n = 6
        terms = [(0.3, (i, j)) for i in range(n) for j in range(i + 1, n)]
        sim = simclass(n, terms=terms)
        costs = sim.get_cost_diagonal()
        assert costs.shape == (64,)
        result = sim.simulate_qaoa([0.1], [0.2])
        energy = sim.get_expectation(result)
        assert costs.min() - 1e-9 <= energy <= costs.max() + 1e-9


class TestRegistryViews:
    def test_names_and_loaders_match_available_backends(self):
        assert set(registry.names()) == set(fur.available_backends())
        assert registry.spec("jit").load()["x"] is QAOAFURXSimulatorJIT
        assert registry.aliases()["c"] == "jit"

    def test_legacy_module_views_are_gone(self):
        for view in ["SIMULATORS", "_ALIASES"]:
            with pytest.raises(AttributeError):
                getattr(fur, view)


class TestDiagonalCache:
    @pytest.fixture(autouse=True)
    def clean_cache(self):
        diagonal_cache.clear()
        yield
        diagonal_cache.clear()

    def test_hit_miss_accounting(self):
        repro.simulator(5, terms=TERMS, backend="c")
        assert diagonal_cache.stats.misses == 1
        assert diagonal_cache.stats.hits == 0
        repro.simulator(5, terms=TERMS, backend="python")
        assert diagonal_cache.stats.hits == 1
        # different problem -> miss
        repro.simulator(5, terms=[(1.0, (0, 2))], backend="c")
        assert diagonal_cache.stats.misses == 2

    def test_repeated_objective_precomputes_once(self, monkeypatch):
        import repro.fur.cache as cache_mod
        from repro.qaoa import get_qaoa_objective

        calls = {"n": 0}
        real = cache_mod.precompute_cost_diagonal

        def counting(*args, **kwargs):
            calls["n"] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(cache_mod, "precompute_cost_diagonal", counting)
        obj1 = get_qaoa_objective(5, 2, terms=TERMS, backend="c")
        obj2 = get_qaoa_objective(5, 2, terms=TERMS, backend="c")
        assert calls["n"] == 1
        # the cached diagonal is shared, not recomputed or copied
        assert obj1.simulator.get_cost_diagonal() is obj2.simulator.get_cost_diagonal()

    def test_cached_diagonal_is_read_only_and_correct(self, rng):
        terms = random_terms(rng, 5, 8)
        sim = repro.simulator(5, terms=terms, backend="python")
        diag = sim.get_cost_diagonal()
        assert not diag.flags.writeable
        from repro.fur import precompute_cost_diagonal
        np.testing.assert_allclose(diag, precompute_cost_diagonal(terms, 5))

    def test_costs_constructor_bypasses_cache(self):
        costs = np.arange(16, dtype=np.float64)
        repro.simulator(4, costs=costs, backend="c")
        assert diagonal_cache.stats.misses == 0
        assert len(diagonal_cache) == 0

    def test_eviction_respects_maxsize(self):
        small = DiagonalCache(maxsize=2)
        t = [[(1.0, (0, i))] for i in range(1, 4)]
        from repro.problems.terms import validate_terms
        for terms in t:
            small.get(validate_terms(terms, 4), 4)
        assert len(small) == 2
        assert small.stats.evictions == 1

    def test_eviction_respects_byte_budget(self):
        from repro.problems.terms import validate_terms

        entry_bytes = 8 * (1 << 6)  # one float64 diagonal at n=6
        small = DiagonalCache(maxsize=100, max_bytes=2 * entry_bytes)
        for i in range(1, 4):
            small.get(validate_terms([(1.0, (0, i))], 6), 6)
        assert len(small) == 2
        assert small.currsize_bytes() <= small.max_bytes
        assert small.stats.evictions == 1

    def test_oversized_entry_not_cached_and_writable(self):
        from repro.problems.terms import validate_terms

        tiny = DiagonalCache(maxsize=100, max_bytes=8)  # smaller than any diagonal
        diag = tiny.get(validate_terms([(1.0, (0, 1))], 4), 4)
        assert len(tiny) == 0
        assert diag.flags.writeable  # private array, safe to mutate

    def test_disable_forces_recompute(self):
        diagonal_cache.disable()
        try:
            repro.simulator(4, terms=TERMS, backend="c")
            repro.simulator(4, terms=TERMS, backend="c")
            assert diagonal_cache.stats.hits == 0
            assert diagonal_cache.stats.misses == 2
        finally:
            diagonal_cache.enable()

    def test_fingerprint_stability(self):
        fp1 = problem_fingerprint(TERMS, 5)
        fp2 = problem_fingerprint(list(TERMS), 5)
        assert fp1 == fp2
        assert fp1 != problem_fingerprint(TERMS, 6)
        assert fp1 != problem_fingerprint([(0.5, (0, 1))], 5)


class TestBatchedEvaluation:
    @pytest.mark.parametrize("backend", ["c", "python"])
    def test_batch_matches_sequential(self, backend, qaoa_angles):
        gammas, betas = qaoa_angles
        sim = repro.simulator(5, terms=TERMS, backend=backend)
        gb = np.array([gammas, [0.5, -0.1], [0.0, 0.9]])
        bb = np.array([betas, [0.2, 0.4], [1.1, -0.3]])
        batched = sim.get_expectation_batch(gb, bb)
        sequential = [sim.get_expectation(sim.simulate_qaoa(g, b))
                      for g, b in zip(gb, bb)]
        np.testing.assert_allclose(batched, sequential, rtol=1e-12)

    def test_simulate_qaoa_batch_returns_per_schedule_results(self):
        sim = repro.simulator(4, terms=TERMS, backend="python")
        results = sim.simulate_qaoa_batch([[0.1], [0.2]], [[0.3], [0.4]])
        assert len(results) == 2
        assert not np.allclose(results[0], results[1])

    def test_batch_shape_validation(self):
        sim = repro.simulator(4, terms=TERMS, backend="c")
        with pytest.raises(ValueError, match="same shape"):
            sim.simulate_qaoa_batch([[0.1, 0.2]], [[0.3]])
        with pytest.raises(ValueError, match="finite"):
            sim.get_expectation_batch([[np.nan]], [[0.1]])

    def test_single_schedule_promoted_to_batch_of_one(self):
        sim = repro.simulator(4, terms=TERMS, backend="c")
        vals = sim.get_expectation_batch([0.1, 0.2], [0.3, 0.4])
        assert vals.shape == (1,)
        ref = sim.get_expectation(sim.simulate_qaoa([0.1, 0.2], [0.3, 0.4]))
        np.testing.assert_allclose(vals[0], ref)

    def test_objective_evaluate_batch_bookkeeping(self):
        from repro.qaoa import get_qaoa_objective

        obj = get_qaoa_objective(5, 2, terms=TERMS, backend="c")
        thetas = np.array([[0.1, 0.2, 0.3, 0.4],
                           [0.5, 0.6, 0.7, 0.8],
                           [0.0, 0.0, 0.0, 0.0]])
        values = obj.evaluate_batch(thetas)
        assert values.shape == (3,)
        assert obj.n_evaluations == 3
        assert obj.best_value == pytest.approx(values.min())
        singles = [obj(theta) for theta in thetas]
        np.testing.assert_allclose(values, singles, rtol=1e-12)

    def test_objective_evaluate_batch_overlap_mode(self):
        from repro.qaoa import get_qaoa_objective

        obj = get_qaoa_objective(4, 1, terms=TERMS, backend="python",
                                 objective="overlap")
        values = obj.evaluate_batch(np.array([[0.1, 0.2], [0.3, 0.4]]))
        assert np.all(values <= 0)  # negated overlap
        assert obj.n_evaluations == 2


class TestEntryPointDiscovery:
    """Satellite: third-party backends via the repro.fur.backends entry-point
    group (scanned once at repro.fur import time)."""

    @staticmethod
    def _stub_entry_point(name, target):
        class StubEntryPoint:
            def load(self):
                return target

        ep = StubEntryPoint()
        ep.name = name
        return ep

    def _patched_group(self, monkeypatch, entry_points):
        import importlib

        # ``repro.fur.registry`` the *attribute* is the registry instance;
        # fetch the module itself to patch the entry-point iterator.
        registry_mod = importlib.import_module("repro.fur.registry")
        monkeypatch.setattr(registry_mod, "_iter_entry_points",
                            lambda group: list(entry_points))

    def test_spec_entry_point_registers(self, monkeypatch):
        from repro.fur.registry import (
            BackendRegistry,
            BackendSpec,
            load_entry_point_backends,
        )

        spec = BackendSpec(name="plugin", aliases=("thirdparty",),
                           loader=lambda: {"x": QAOAFURXSimulator},
                           mixers=("x",), priority=7)
        self._patched_group(monkeypatch, [self._stub_entry_point("plugin", spec)])
        target = BackendRegistry()
        assert load_entry_point_backends(target) == ["plugin"]
        assert target.simulator_class("plugin", "x") is QAOAFURXSimulator
        assert target.spec("thirdparty").name == "plugin"

    def test_callable_entry_point_registers(self, monkeypatch):
        from repro.fur.registry import (
            BackendRegistry,
            BackendSpec,
            load_entry_point_backends,
        )

        def make_spec():
            return BackendSpec(name="factoryplugin",
                               loader=lambda: {"x": QAOAFURXSimulatorJIT})

        self._patched_group(monkeypatch,
                            [self._stub_entry_point("factoryplugin", make_spec)])
        target = BackendRegistry()
        assert load_entry_point_backends(target) == ["factoryplugin"]
        assert target.simulator_class("factoryplugin", "x") is QAOAFURXSimulatorJIT

    def test_broken_entry_point_is_skipped_with_warning(self, monkeypatch):
        from repro.fur.registry import BackendRegistry, load_entry_point_backends

        class ExplodingEntryPoint:
            name = "broken"

            def load(self):
                raise ImportError("plugin dependency missing")

        self._patched_group(monkeypatch, [ExplodingEntryPoint()])
        target = BackendRegistry()
        with pytest.warns(RuntimeWarning, match="broken"):
            assert load_entry_point_backends(target) == []
        assert "broken" not in target

    def test_non_spec_entry_point_is_skipped_with_warning(self, monkeypatch):
        from repro.fur.registry import BackendRegistry, load_entry_point_backends

        self._patched_group(monkeypatch,
                            [self._stub_entry_point("bogus", object())])
        target = BackendRegistry()
        with pytest.warns(RuntimeWarning, match="bogus"):
            assert load_entry_point_backends(target) == []

    def test_name_collision_with_builtin_is_skipped(self, monkeypatch):
        from repro.fur.registry import (
            BackendSpec,
            load_entry_point_backends,
            registry as process_registry,
        )

        hijack = BackendSpec(name="python", loader=lambda: {"x": QAOAFURXSimulatorJIT})
        self._patched_group(monkeypatch, [self._stub_entry_point("python", hijack)])
        before = process_registry.spec("python").loader
        with pytest.warns(RuntimeWarning, match="already registered"):
            assert load_entry_point_backends() == []
        assert process_registry.spec("python").loader is before
