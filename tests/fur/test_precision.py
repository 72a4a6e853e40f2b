"""End-to-end tests of the configurable-precision (complex64) simulation path.

Covers

* precision resolution (names, aliases, dtypes) and the registry capability
  metadata / facade validation,
* the single-precision state dtype across every backend and mixer, one
  schedule at a time and in fused batches, including fused == per-row-loop
  parity at single precision,
* the pinned numerical policy: expectations accumulate in float64 and stay
  within the 1e-5 relative error envelope of double precision on the Fig. 2
  MaxCut workload,
* memory accounting: ``batch_block_rows`` and the simulated device both fit
  twice the rows at single precision,
* host-array probabilities and overlaps are the exact float64 squares of
  the amplitude components, also for complex64 states,
* one diagonal at both precisions: the float64 vector plus the ``uint16``
  phase-table index, at most 10 bytes per amplitude held after an
  evaluation, and single-precision energies that are the float64-square
  reduction of the state,
* without a phase table, single-precision phase factors are ``exp(-iγc)``
  evaluated in double and rounded once,
* regressions: a caller-supplied complex64 ``sv0`` is honoured (not upcast)
  and the vectorized brute-force index helpers match the scalar definitions.
"""

import numpy as np
import pytest

import repro
from repro.fur import (
    PrecisionSpec,
    batch_block_rows,
    build_phase_table,
    resolve_precision,
    uniform_superposition,
)
from repro.fur.base import QAOAFastSimulatorBase
from repro.fur.precision import DOUBLE, SINGLE
from repro.fur.registry import BackendSpec, registry
from repro.problems import labs, maxcut
from repro.problems.terms import (
    bits_from_index,
    index_from_bits,
    index_from_spins,
    spins_from_index,
)
from repro.qaoa import get_qaoa_objective
from repro.testing import per_row_expectations, random_terms

BACKENDS = ["python", "c", "gpu"]
MIXERS = ["x", "xyring", "xycomplete"]

#: Pinned single-precision error envelope for expectation values.
SINGLE_RTOL = 1e-5


@pytest.fixture(scope="module")
def fig2_workload():
    """The Fig. 2-scale workload: 3-regular MaxCut at n=12, p=6."""
    n, p = 12, 6
    graph = maxcut.random_regular_graph(3, n, seed=12)
    terms = maxcut.maxcut_terms_from_graph(graph)
    rng = np.random.default_rng(99)
    gammas = rng.uniform(0.0, 1.0, p)
    betas = rng.uniform(0.0, 1.0, p)
    return n, terms, gammas, betas


class TestResolvePrecision:
    def test_canonical_names(self):
        assert resolve_precision("double") is DOUBLE
        assert resolve_precision("single") is SINGLE
        assert resolve_precision(None) is DOUBLE

    @pytest.mark.parametrize("alias,expected", [
        ("fp64", "double"), ("complex128", "double"), ("float64", "double"),
        ("fp32", "single"), ("complex64", "single"), ("float32", "single"),
        ("SINGLE", "single"), (" double ", "double"),
    ])
    def test_aliases(self, alias, expected):
        assert resolve_precision(alias).name == expected

    def test_dtypes_accepted(self):
        assert resolve_precision(np.complex64).name == "single"
        assert resolve_precision(np.dtype("float32")).name == "single"
        assert resolve_precision(np.complex128).name == "double"

    def test_spec_passthrough(self):
        assert resolve_precision(SINGLE) is SINGLE

    def test_spec_fields(self):
        assert SINGLE.complex_dtype == np.complex64
        # no precision-matched diagonal dtype: the diagonal is float64
        assert not hasattr(SINGLE, "real_dtype")
        assert SINGLE.complex_itemsize == 8
        assert DOUBLE.complex_itemsize == 16
        assert DOUBLE.is_double and not SINGLE.is_double

    @pytest.mark.parametrize("bad", ["half", "quad", np.int32, object()])
    def test_rejects_unknown(self, bad):
        with pytest.raises(ValueError):
            resolve_precision(bad)


class TestRegistryPrecisionCapability:
    def test_builtin_backends_declare_single(self):
        for name in ("python", "c", "gpu", "gpumpi", "cusvmpi"):
            spec = registry.spec(name)
            assert spec.supports_precision("single")
            assert spec.supports_precision("complex64")  # alias-aware

    def test_spec_default_is_double_only(self):
        spec = BackendSpec(name="thirdparty", loader=dict)
        assert spec.supports_precision("double")
        assert not spec.supports_precision("single")

    def test_facade_rejects_unsupported_precision(self):
        @repro.fur.register_backend("dbl_only", mixers=("x",), priority=-100)
        def _load():
            from repro.fur.python import QAOAFURXSimulator
            return {"x": QAOAFURXSimulator}

        try:
            with pytest.raises(ValueError, match="does not implement 'single'"):
                repro.simulator(4, terms=[(1.0, (0, 1))], backend="dbl_only",
                                precision="single")
        finally:
            registry.unregister("dbl_only")

    def test_auto_resolution_filters_by_precision(self):
        spec = registry.resolve("auto", precision="single")
        assert spec.supports_precision("single")

    def test_available_backends_precision_filter(self):
        names = repro.fur.available_backends(precision="single")
        assert {"python", "jit", "gpu"} <= set(names)

    def test_facade_rejects_instance_precision_mismatch(self):
        sim = repro.simulator(4, terms=[(1.0, (0, 1))], backend="python")
        with pytest.raises(ValueError, match="precision"):
            repro.simulator(4, terms=[(1.0, (0, 1))], backend=sim,
                            precision="single")
        # matching precision passes the instance through unchanged
        assert repro.simulator(4, terms=[(1.0, (0, 1))], backend=sim,
                               precision="double") is sim

    def test_facade_passes_instances_through_when_precision_unspecified(self):
        # a single-precision instance must survive the optimization-loop
        # passthrough (make_simulator/get_qaoa_objective forward it untouched)
        single = repro.simulator(4, terms=[(1.0, (0, 1))], backend="python",
                                 precision="single")
        assert repro.simulator(4, terms=[(1.0, (0, 1))], backend=single) is single
        obj = get_qaoa_objective(4, 2, terms=[(1.0, (0, 1))], backend=single)
        assert obj.simulator is single


class TestSinglePrecisionStateDtype:
    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("mixer", MIXERS)
    def test_statevector_dtype_and_norm(self, backend, mixer, qaoa_angles):
        terms = [(1.0, (0, 1)), (0.5, (1, 2)), (-0.25, (0, 2, 3))]
        sim = repro.simulator(5, terms=terms, backend=backend, mixer=mixer,
                              precision="single")
        assert sim.precision == "single"
        assert sim.complex_dtype == np.complex64
        assert sim.get_cost_diagonal().dtype == np.float64
        result = sim.simulate_qaoa(*qaoa_angles)
        sv = sim.get_statevector(result)
        assert sv.dtype == np.complex64
        assert np.abs(np.vdot(sv, sv) - 1.0) < 1e-5
        probs = sim.get_probabilities(sim.simulate_qaoa(*qaoa_angles))
        assert probs.dtype == np.float64  # output/accumulation policy
        assert probs.sum() == pytest.approx(1.0, abs=1e-5)

    def test_initial_state_follows_precision(self):
        terms = [(1.0, (0, 1))]
        single = repro.simulator(4, terms=terms, backend="python", precision="single")
        double = repro.simulator(4, terms=terms, backend="python")
        assert single.initial_state().dtype == np.complex64
        assert double.initial_state().dtype == np.complex128
        # an explicit dtype still wins
        assert single.initial_state(dtype=np.complex128).dtype == np.complex128

    def test_uniform_superposition_dtype(self):
        sv = uniform_superposition(5, dtype=np.complex64)
        assert sv.dtype == np.complex64
        assert np.abs(np.vdot(sv, sv) - 1.0) < 1e-6


class TestSv0DtypeRegression:
    """A caller-supplied complex64 sv0 is honoured, never silently upcast."""

    def test_complex64_sv0_not_upcast_on_single(self, qaoa_angles):
        sim = repro.simulator(4, terms=[(1.0, (0, 1))], backend="python",
                              precision="single")
        sv0 = uniform_superposition(4, dtype=np.complex64)
        validated = sim._validate_sv0(sv0)
        assert validated.dtype == np.complex64
        result = sim.simulate_qaoa(*qaoa_angles, sv0=sv0)
        assert sim.get_statevector(result).dtype == np.complex64
        # the input buffer is copied, not evolved in place
        np.testing.assert_array_equal(sv0, uniform_superposition(4, dtype=np.complex64))

    def test_sv0_copied_to_simulator_precision_on_double(self):
        sim = repro.simulator(4, terms=[(1.0, (0, 1))], backend="python")
        sv0 = uniform_superposition(4, dtype=np.complex64)
        assert sim._validate_sv0(sv0).dtype == np.complex128

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_complex64_sv0_across_backends(self, backend, qaoa_angles):
        sim = repro.simulator(4, terms=[(1.0, (0, 1))], backend=backend,
                              precision="single")
        sv0 = np.zeros(16, dtype=np.complex64)
        sv0[3] = 1.0
        result = sim.simulate_qaoa(*qaoa_angles, sv0=sv0)
        sv = sim.get_statevector(result)
        assert sv.dtype == np.complex64
        assert np.abs(np.vdot(sv, sv) - 1.0) < 1e-5


class TestFloat64Probabilities:
    """Host-array probabilities are ``re² + im²`` of the float64-widened parts."""

    @staticmethod
    def _squares(sv):
        return sv.real.astype(np.float64) ** 2 + sv.imag.astype(np.float64) ** 2

    @pytest.mark.parametrize("backend, kwargs", [
        ("python", {}), ("jit", {}), ("gates", {}), ("sharded", {"n_shards": 2})])
    def test_single_precision_probabilities_and_overlap(self, backend, kwargs,
                                                        qaoa_angles):
        n = 8
        sim = repro.simulator(n, terms=labs.get_terms(n), backend=backend,
                              precision="single", **kwargs)
        result = sim.simulate_qaoa(*qaoa_angles)
        sv = np.asarray(sim.get_statevector(result))
        assert sv.dtype == np.complex64
        want = self._squares(sv)
        probs = sim.get_probabilities(result)
        assert probs.dtype == np.float64
        np.testing.assert_array_equal(probs, want)
        costs = sim.get_cost_diagonal()
        optimum = np.flatnonzero(costs == costs.min())
        assert sim.get_overlap(result) == float(want[optimum].sum())

    @pytest.mark.parametrize("backend", ["python", "jit", "gates", "sharded"])
    def test_double_precision_in_place_matches(self, backend, qaoa_angles):
        n = 6
        sim = repro.simulator(n, terms=labs.get_terms(n), backend=backend)
        result = sim.simulate_qaoa(*qaoa_angles)
        want = self._squares(np.asarray(sim.get_statevector(result)))
        np.testing.assert_array_equal(sim.get_probabilities(result), want)
        np.testing.assert_array_equal(
            sim.get_probabilities(result, preserve_state=False), want)


class TestNumericalPolicy:
    """Single precision stays within 1e-5 relative of double (Fig. 2 scale)."""

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_fig2_maxcut_expectation_envelope(self, backend, fig2_workload):
        n, terms, gammas, betas = fig2_workload
        double = repro.simulator(n, terms=terms, backend=backend)
        single = repro.simulator(n, terms=terms, backend=backend,
                                 precision="single")
        e_double = double.get_expectation(double.simulate_qaoa(gammas, betas))
        e_single = single.get_expectation(single.simulate_qaoa(gammas, betas))
        assert abs(e_single - e_double) <= SINGLE_RTOL * max(abs(e_double), 1.0)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_fig2_maxcut_batched_envelope(self, backend, fig2_workload):
        n, terms, gammas, betas = fig2_workload
        gb = np.stack([gammas, gammas * 0.7, gammas * 1.2])
        bb = np.stack([betas, betas * 1.1, betas * 0.8])
        double = repro.simulator(n, terms=terms, backend=backend)
        single = repro.simulator(n, terms=terms, backend=backend,
                                 precision="single")
        e_double = double.get_expectation_batch(gb, bb)
        e_single = single.get_expectation_batch(gb, bb)
        assert e_single.dtype == np.float64  # float64 accumulation policy
        scale = np.maximum(np.abs(e_double), 1.0)
        assert np.max(np.abs(e_single - e_double) / scale) <= SINGLE_RTOL

    def test_objective_factory_precision_kwarg(self, fig2_workload):
        n, terms, gammas, betas = fig2_workload
        obj = get_qaoa_objective(n, len(gammas), terms=terms, backend="c",
                                 precision="single")
        assert obj.simulator.precision == "single"
        theta = np.concatenate([gammas, betas])
        ref = get_qaoa_objective(n, len(gammas), terms=terms, backend="c")
        assert obj(theta) == pytest.approx(ref(theta), rel=SINGLE_RTOL, abs=SINGLE_RTOL)


class TestFusedLoopedParitySingle:
    """Satellite: the fused-vs-looped parity matrix repeated at single precision."""

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("mixer", MIXERS)
    def test_fused_matches_looped(self, backend, mixer, rng):
        n, batch, p = 6, 5, 3
        terms = [(float(w), idx) for w, idx in
                 [(1.0, (0, 1)), (0.5, (2, 3)), (-0.75, (1, 4)), (0.25, (0, 5))]]
        sim = repro.simulator(n, terms=terms, backend=backend, mixer=mixer,
                              precision="single")
        gb = rng.uniform(0.0, 1.0, (batch, p))
        bb = rng.uniform(0.0, 1.0, (batch, p))
        fused = sim.get_expectation_batch(gb, bb)
        looped = per_row_expectations(sim, gb, bb)
        np.testing.assert_allclose(fused, looped, rtol=2e-5, atol=2e-5)
        fused_states = [sim.get_statevector(r)
                        for r in sim.simulate_qaoa_batch(gb, bb)]
        for i, sv in enumerate(fused_states):
            assert sv.dtype == np.complex64
            ref = sim.get_statevector(sim.simulate_qaoa(gb[i], bb[i]))
            np.testing.assert_allclose(sv, ref, rtol=2e-4, atol=2e-5)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_sub_batch_splitting_single(self, backend, rng):
        n, batch, p = 6, 7, 2
        terms = [(1.0, (0, 1)), (0.5, (2, 3))]
        sim = repro.simulator(n, terms=terms, backend=backend, precision="single")
        gb = rng.uniform(0.0, 1.0, (batch, p))
        bb = rng.uniform(0.0, 1.0, (batch, p))
        whole = sim.get_expectation_batch(gb, bb)
        # budget of exactly 2 single-precision rows (state + scratch blocks)
        budget = 2 * 2 * (1 << n) * 8
        split = sim.get_expectation_batch(gb, bb, memory_budget=budget)
        np.testing.assert_allclose(split, whole, rtol=1e-6, atol=1e-6)


class TestMemoryAccounting:
    def test_batch_block_rows_itemsize(self):
        n_states = 1 << 10
        budget = 64 * 16 * n_states  # exactly 32 double rows at blocks=2
        double_rows = batch_block_rows(1024, n_states, budget, blocks=2, itemsize=16)
        single_rows = batch_block_rows(1024, n_states, budget, blocks=2, itemsize=8)
        assert single_rows == 2 * double_rows

    def test_batch_block_rows_rejects_bad_itemsize(self):
        with pytest.raises(ValueError):
            batch_block_rows(4, 16, itemsize=0)

    def test_fused_mixin_uses_precision_itemsize(self):
        terms = [(1.0, (0, 1))]
        double = repro.simulator(8, terms=terms, backend="python")
        single = repro.simulator(8, terms=terms, backend="python",
                                 precision="single")
        budget = 4 * 2 * 16 * (1 << 8)  # 4 double rows incl. scratch block
        assert double._batch_rows(1024, budget) == 4
        assert single._batch_rows(1024, budget) == 8

    def test_device_capacity_doubles_at_single(self):
        from repro.fur.simgpu.device import DeviceSpec, SimulatedDevice

        n = 8
        spec = DeviceSpec(name="tiny", memory_capacity=6 * 16 * (1 << n) + 8 * (1 << n),
                          memory_bandwidth=1e12, pcie_bandwidth=1e10,
                          kernel_launch_overhead=0.0)
        terms = [(1.0, (0, 1))]
        double = repro.simulator(n, terms=terms, backend="gpu",
                                 device=SimulatedDevice(spec))
        single = repro.simulator(n, terms=terms, backend="gpu",
                                 device=SimulatedDevice(spec), precision="single")
        # single precision fits twice the device rows in the same free memory
        assert single._batch_rows(64, None) >= 2 * double._batch_rows(64, None)

    def test_single_state_memory_halved(self):
        terms = [(1.0, (0, 1))]
        double = repro.simulator(10, terms=terms, backend="gpu")
        single = repro.simulator(10, terms=terms, backend="gpu",
                                 precision="single")
        d_res = double.simulate_qaoa([0.1], [0.2])
        s_res = single.simulate_qaoa([0.1], [0.2])
        assert s_res.nbytes * 2 == d_res.nbytes

    def test_state_size_guard_mentions_precision(self):
        # the guard is byte-based: n=35 complex128 exceeds the 256 GiB cap
        # (and fails before any allocation happens)
        with pytest.raises(ValueError, match="double-precision"):
            repro.fur.QAOAFURXSimulator(35, terms=[(1.0, (0, 1))])


class TestPhaseTableAndDiagonalDtypes:
    def test_phase_table_factor_dtype(self):
        table = build_phase_table(np.tile([0.0, 1.0, 2.0, 1.0], 8))
        assert table is not None
        assert table.factors_batch([0.3]).dtype == np.complex128
        batch = table.factors_batch(np.array([0.1, 0.2]), dtype=np.complex64)
        assert batch.dtype == np.complex64
        np.testing.assert_allclose(
            batch, table.factors_batch(np.array([0.1, 0.2])), rtol=1e-6)
        single = np.ones((2, len(table)), dtype=np.complex64)
        double = np.ones((2, len(table)), dtype=np.complex128)
        table.apply(single, batch, 0, np.empty(len(table), np.complex64))
        table.apply(double, table.factors_batch(np.array([0.1, 0.2])), 0,
                    np.empty(len(table), np.complex128))
        np.testing.assert_allclose(single, double, rtol=1e-6)

    def test_one_held_diagonal_at_both_precisions(self):
        """Single precision holds the double-precision diagonal: the same
        cached float64 vector and a uint16 phase-table index."""
        terms = [(1.0, (0, 1)), (2.0, (2, 3))]
        single = repro.simulator(5, terms=terms, backend="python",
                                 precision="single")
        double = repro.simulator(5, terms=terms, backend="python")
        held = single.get_cost_diagonal()
        assert held.dtype == np.float64 and not held.flags.writeable
        assert held is double.get_cost_diagonal()  # one cached vector
        assert single._diagonal_phase_table().inverse.dtype == np.uint16

    def test_gpu_device_diagonal_dtype(self):
        sim = repro.simulator(5, terms=[(1.0, (0, 1))], backend="gpu",
                              precision="single")
        # the device copy and the host mirror are both the float64 vector
        assert sim._costs_device.dtype == np.float64
        assert sim.get_cost_diagonal().dtype == np.float64


class TestDirectPhaseSingle:
    """No phase table at single precision: every host phase path (the
    reference loop, the split sweep, the fused phase + mixer pass) scales
    the complex64 state by ``exp(-iγc)`` evaluated in double from the
    float64 diagonal and rounded once to complex64."""

    @pytest.mark.parametrize("backend", ["python", "jit-numpy"])
    @pytest.mark.parametrize("mixer", ["x", "xyring"])
    def test_phase_only_layer(self, backend, mixer, request):
        if backend == "jit-numpy":
            request.getfixturevalue("numpy_rung")
            backend = "jit"
        n = 10
        sim = repro.simulator(n, terms=random_terms(np.random.default_rng(4), n, 30),
                              backend=backend, mixer=mixer, precision="single")
        assert sim._diagonal_phase_table() is None
        rng = np.random.default_rng(10)
        sv0 = (rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)).astype(np.complex64)
        gammas = np.array([[0.37], [-1.1]])
        # beta = 0 makes each mixer multiply by exactly 1 and add exact zeros
        want = [sv0 * np.exp(-1j * g * sim.get_cost_diagonal()).astype(np.complex64)
                for g in gammas[:, 0]]
        one = sim.get_statevector(sim.simulate_qaoa(gammas[0], [0.0], sv0=sv0))
        assert np.array_equal(one, want[0])
        batch = sim.simulate_qaoa_batch(gammas, np.zeros((2, 1)), sv0=sv0)
        for got, w in zip(batch, want):
            assert np.array_equal(sim.get_statevector(got), w)


def _held_per_amplitude(sim) -> float:
    """Bytes per amplitude of the distinct real/integer buffers reachable
    from ``sim`` that scale with the state (at least 2^n / 256 elements):
    the cost vector, phase-table indices and any copy of either.  Views
    count once, through their base buffer."""
    seen, roots = set(), {}
    stack = [sim]
    while stack:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, np.ndarray):
            while isinstance(obj.base, np.ndarray):
                obj = obj.base
            roots[id(obj)] = obj
        elif isinstance(obj, dict):
            stack.extend(obj.values())
        elif isinstance(obj, (list, tuple, set, frozenset)):
            stack.extend(obj)
        elif type(obj).__module__.startswith("repro"):
            stack.extend(getattr(obj, "__dict__", {}).values())
            stack.extend(getattr(obj, name) for name in
                         getattr(type(obj), "__slots__", ()) if hasattr(obj, name))
    n_states = sim.n_states
    return sum(a.nbytes for a in roots.values()
               if not np.iscomplexobj(a) and a.size >= n_states // 256) / n_states


class TestHeldDiagonal:
    """One diagonal representation: the float64 vector plus, for repetitive
    diagonals, the uint16 phase-table index — at both precisions."""

    N = 18

    @pytest.fixture(scope="class", params=["labs", "maxcut"])
    def terms(self, request):
        if request.param == "labs":
            return labs.get_terms(self.N)
        graph = maxcut.random_regular_graph(3, self.N, seed=18)
        return maxcut.maxcut_terms_from_graph(graph)

    @pytest.mark.parametrize("precision", ["double", "single"])
    @pytest.mark.parametrize("backend,kwargs", [
        ("jit", {}), ("python", {}), ("sharded", {"n_shards": 2})])
    def test_at_most_10_bytes_per_amplitude(self, terms, backend, kwargs,
                                            precision):
        sim = repro.simulator(self.N, terms=terms, backend=backend,
                              precision=precision, **kwargs)
        sim.get_expectation_batch([[0.2]], [[0.3]])
        assert sim._engine_phase_tables() is not None
        assert _held_per_amplitude(sim) <= 10.0

    @pytest.mark.parametrize("construction", ["terms", "costs"])
    def test_sharded_slices_view_the_one_vector(self, construction):
        n = 12
        terms = labs.get_terms(n)
        if construction == "costs":
            costs = repro.simulator(n, terms=terms,
                                    backend="python").get_cost_diagonal()
            sim = repro.simulator(n, costs=costs, backend="sharded", n_shards=4)
        else:
            sim = repro.simulator(n, terms=terms, backend="sharded", n_shards=4)
        full = sim.get_cost_diagonal()
        assert all(np.shares_memory(c, full) for c in sim._cost_slices)
        np.testing.assert_array_equal(np.concatenate(sim._cost_slices), full)
        if construction == "terms":
            # the diagonal cache: one host vector per problem, not per simulator
            other = repro.simulator(n, terms=terms, backend="sharded", n_shards=2)
            assert np.shares_memory(other.get_cost_diagonal(), full)
        tables = sim._engine_phase_tables()
        assert all(t.inverse.dtype == np.uint16 for t in tables)


class TestDistributedSinglePrecision:
    @pytest.mark.parametrize("backend", ["gpumpi", "cusvmpi"])
    def test_distributed_matches_single_node(self, backend, qaoa_angles):
        from repro.fur.registry import get_simulator_class

        n = 6
        terms = [(1.0, (0, 1)), (0.5, (2, 3)), (-0.25, (1, 4))]
        cls = get_simulator_class(backend, "x", precision="single")
        dist = cls(n, terms=terms, n_ranks=4, precision="single")
        result = dist.simulate_qaoa(*qaoa_angles)
        sv = dist.get_statevector(result)
        assert sv.dtype == np.complex64
        ref = repro.simulator(n, terms=terms, backend="python",
                              precision="single")
        ref_sv = ref.get_statevector(ref.simulate_qaoa(*qaoa_angles))
        np.testing.assert_allclose(sv, ref_sv, rtol=1e-5, atol=1e-6)
        e_ref = ref.get_expectation(ref.simulate_qaoa(*qaoa_angles))
        assert dist.get_expectation(result) == pytest.approx(e_ref, rel=1e-5)


class TestVectorizedBruteForceHelpers:
    """Satellite: shift/mask broadcasts replace the per-element Python loops."""

    def test_bits_from_index_matches_scalar_definition(self):
        for n in (1, 5, 13):
            for x in (0, 1, (1 << n) - 1, (1 << n) // 3):
                expected = [(x >> q) & 1 for q in range(n)]
                got = bits_from_index(x, n)
                assert got.dtype == np.int64
                assert got.tolist() == expected

    def test_bits_from_index_range_check(self):
        with pytest.raises(ValueError):
            bits_from_index(8, 3)
        with pytest.raises(ValueError):
            bits_from_index(-1, 3)

    def test_index_round_trips(self):
        rng = np.random.default_rng(3)
        for n in (1, 7, 20):
            for x in rng.integers(0, 1 << n, size=5):
                x = int(x)
                assert index_from_bits(bits_from_index(x, n)) == x
                assert index_from_spins(spins_from_index(x, n)) == x

    def test_index_from_bits_beyond_uint64(self):
        # n >= 64 must use arbitrary-precision ints, not overflow silently
        assert index_from_bits([0] * 64 + [1]) == 1 << 64
        assert index_from_spins([1] * 64 + [-1]) == 1 << 64

    def test_index_from_bits_validation(self):
        with pytest.raises(ValueError, match="not 0/1"):
            index_from_bits([0, 2, 1])
        with pytest.raises(ValueError, match="not ±1"):
            index_from_spins([1, 0, -1])

    def test_evaluate_terms_rejects_2d_spins(self):
        from repro.problems.terms import evaluate_terms_on_spins

        with pytest.raises(ValueError, match="one-dimensional"):
            evaluate_terms_on_spins([(1.0, (0, 1))], np.array([[1, -1], [-1, 1]]))
