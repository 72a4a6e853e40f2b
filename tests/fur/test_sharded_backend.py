"""Tests for the in-process sharded backend: slab-swap bookkeeping,
shard-count invariance, exchange accounting, per-shard admission and the
shard telemetry surface."""

import numpy as np
import pytest

import repro
from repro import fur
from repro.fur.sharded import (
    QAOAFURXSimulatorSharded,
    ShardedStateVector,
    ShardLayout,
    resolve_n_shards,
    resolve_n_workers,
    shard_report,
    sharded_state_bytes,
)
from repro.fur.sharded.inner import INNER_NAMES, resolve_inner

TERMS = [(0.5, (0, 1)), (-0.25, (1, 2)), (1.0, (0,))]


def few_value_costs(rng, n):
    """A diagonal with few unique values, so every shard slice gets a phase
    table (keeps the single-precision table path identical across shard
    counts — the bitwise-invariance precondition)."""
    return rng.choice([-2.0, -1.0, 0.0, 1.0], size=1 << n)


class TestShardLayout:
    def test_starts_at_identity(self):
        layout = ShardLayout(6, 4)
        assert layout.is_identity()
        assert [layout.position_of(q) for q in range(6)] == list(range(6))
        assert all(layout.is_local(q) for q in range(4))
        assert not layout.is_local(4) and not layout.is_local(5)

    def test_global_local_relabel_round_trip(self):
        layout = ShardLayout(6, 4)
        # relabel global qubit 5 (shard bit 1) into local position 2 ...
        layout.swap_positions(2, 5)
        assert layout.position_of(5) == 2
        assert layout.position_of(2) == 5
        assert layout.is_local(5) and not layout.is_local(2)
        assert not layout.is_identity()
        # ... and the same transposition restores the canonical order
        layout.swap_positions(2, 5)
        assert layout.is_identity()
        layout.assert_identity()

    def test_assert_identity_raises_on_unbalanced_relabel(self):
        layout = ShardLayout(5, 3)
        layout.swap_positions(0, 4)
        with pytest.raises(RuntimeError, match="permuted state"):
            layout.assert_identity()

    def test_position_validation(self):
        layout = ShardLayout(4, 2)
        with pytest.raises(ValueError, match="out of range"):
            layout.swap_positions(0, 4)
        with pytest.raises(ValueError, match="out of range"):
            layout.position_of(7)

    def test_perm_is_a_copy(self):
        layout = ShardLayout(4, 2)
        layout.perm[0] = 99
        assert layout.is_identity()


class TestShardResolution:
    def test_explicit_count_validated(self):
        assert resolve_n_shards(8, 4) == 4
        with pytest.raises(ValueError, match="power of two"):
            resolve_n_shards(8, 3)
        with pytest.raises(ValueError, match="power of two"):
            resolve_n_shards(8, 0)
        with pytest.raises(ValueError, match="global qubits"):
            resolve_n_shards(8, 16, max_global=2)

    def test_env_override_rounded_and_clamped(self, monkeypatch):
        monkeypatch.setenv("REPRO_NUM_SHARDS", "6")
        assert resolve_n_shards(10) == 4  # rounded down to a power of two
        assert resolve_n_shards(10, max_global=1) == 2  # clamped, not rejected
        monkeypatch.setenv("REPRO_NUM_SHARDS", "not-a-number")
        assert resolve_n_shards(10) >= 1  # falls back to the core count

    def test_worker_budget(self):
        assert resolve_n_workers(4, 2) == 2
        assert resolve_n_workers(4, 99) == 4  # never more workers than shards
        with pytest.raises(ValueError, match="positive"):
            resolve_n_workers(4, 0)

    def test_sharded_state_bytes_counts_slab_plus_staging(self):
        slab = (1 << 10) * 16 // 4
        assert sharded_state_bytes(10, 16, 4) == slab + slab // 2
        # one shard degenerates to the monolithic state (plus staging)
        assert sharded_state_bytes(10, 16, 1) == (1 << 10) * 16 * 3 // 2

    def test_resolve_inner_names(self):
        for name in INNER_NAMES:
            assert resolve_inner(name).name in ("jit", "c", "python")
        with pytest.raises(ValueError, match="unknown inner provider"):
            resolve_inner("fortran")

    def test_shard_report_shape(self):
        report = shard_report()
        assert "shards=" in report and "workers=" in report
        assert "inner=" in report


class TestShardedSimulation:
    @pytest.mark.parametrize("mixer", ["x", "xyring", "xycomplete"])
    @pytest.mark.parametrize("n_shards", [2, 4])
    def test_matches_python_backend(self, mixer, n_shards, rng):
        n = 6
        terms = [(float(rng.normal()), (i, (i + 1) % n)) for i in range(n)]
        gammas, betas = rng.normal(size=(2, 3))
        ref = repro.simulator(n, terms=terms, backend="python", mixer=mixer)
        expected = ref.get_statevector(ref.simulate_qaoa(gammas, betas))
        sim = repro.simulator(n, terms=terms, backend="sharded", mixer=mixer,
                              n_shards=n_shards)
        sv = sim.get_statevector(sim.simulate_qaoa(gammas, betas))
        np.testing.assert_allclose(sv, expected, atol=1e-12)

    def test_trotterized_xy_matches_python(self, rng):
        n = 5
        gammas, betas = rng.normal(size=(2, 2))
        ref = repro.simulator(n, terms=TERMS, backend="python", mixer="xyring")
        expected = ref.get_statevector(
            ref.simulate_qaoa(gammas, betas, n_trotters=3))
        sim = repro.simulator(n, terms=TERMS, backend="sharded", mixer="xyring",
                              n_shards=2)
        sv = sim.get_statevector(sim.simulate_qaoa(gammas, betas, n_trotters=3))
        np.testing.assert_allclose(sv, expected, atol=1e-12)

    @pytest.mark.parametrize("precision", ["double", "single"])
    def test_bitwise_invariant_under_shard_count(self, precision, rng):
        # The blocked c inner's pair update is position-independent and the
        # expectation reduction uses a fixed segment grid, so results must be
        # *bitwise* identical at 1, 2, 4 and 8 shards.
        n = 8
        costs = few_value_costs(rng, n)
        gammas, betas = rng.normal(size=(2, 3, 2))
        reference = None
        for n_shards in (1, 2, 4, 8):
            sim = repro.simulator(n, costs=costs, backend="sharded",
                                  precision=precision, n_shards=n_shards,
                                  inner="c")
            results = sim.simulate_qaoa_batch(gammas, betas)
            states = np.stack([sim.get_statevector(r) for r in results])
            energies = np.asarray(sim.get_expectation_batch(gammas, betas))
            if reference is None:
                reference = (states, energies)
            else:
                assert np.array_equal(reference[0], states)
                assert np.array_equal(reference[1], energies)

    def test_exchange_count_independent_of_batch_size(self, rng):
        n = 7
        counts = []
        for rows in (2, 8):
            sim = repro.simulator(n, terms=TERMS, backend="sharded",
                                  n_shards=4, inner="c")
            sim.get_expectation_batch(rng.normal(size=(rows, 2)),
                                      rng.normal(size=(rows, 2)))
            counts.append(sim.engine.stats.shard_exchanges)
        assert counts[0] > 0
        # coalesced exchanges: one message per slab pair per transposition,
        # regardless of how many batch rows ride the slab
        assert counts[0] == counts[1]

    def test_engine_telemetry_recorded(self, rng):
        sim = repro.simulator(6, terms=TERMS, backend="sharded", n_shards=4,
                              inner="c")
        sim.get_expectation_batch(rng.normal(size=(3, 2)),
                                  rng.normal(size=(3, 2)))
        stats = sim.engine.stats
        assert stats.shard_exchanges > 0
        assert stats.exchange_bytes > 0
        fractions = stats.shard_busy_fractions()
        assert set(fractions) == {"0", "1", "2", "3"}
        assert all(0.0 <= f <= 1.0 for f in fractions.values())
        as_dict = stats.as_dict()
        assert as_dict["shard_exchanges"] == stats.shard_exchanges
        assert as_dict["exchange_bytes"] == stats.exchange_bytes

    def test_result_gather_and_shard_views(self, rng):
        sim = repro.simulator(5, terms=TERMS, backend="sharded", n_shards=2)
        result = sim.simulate_qaoa([0.1], [0.2])
        assert isinstance(result, ShardedStateVector)
        assert result.n_shards == 2
        slabs = sim.get_statevector(result, gather=False)
        gathered = sim.get_statevector(result)
        assert gathered.shape == (32,)
        assert len(slabs) == 2 and all(s.shape == (16,) for s in slabs)
        np.testing.assert_array_equal(np.concatenate(slabs), gathered)
        probs = sim.get_probabilities(result)
        np.testing.assert_allclose(probs.sum(), 1.0, rtol=1e-12)

    def test_shard_count_capped_by_mixer_budget(self):
        # X relabels g global qubits into the top g local positions, which
        # needs 2g <= n; XY additionally needs two free local positions.
        with pytest.raises(ValueError, match="global qubits"):
            repro.simulator(4, terms=TERMS, backend="sharded", n_shards=8)
        sim = repro.simulator(4, terms=TERMS, backend="sharded", n_shards=4)
        assert sim.n_shards == 4

    def test_constructor_metadata(self):
        sim = repro.simulator(6, terms=TERMS, backend="sharded", n_shards=4,
                              n_workers=2, inner="c")
        assert sim.backend_name == "sharded"
        assert sim.n_shards == 4
        assert sim.n_global_qubits == 2
        assert sim.n_local_qubits == 4
        assert sim.n_shard_workers == 2
        assert sim.inner_name == "c"
        assert sim.supports_coalesced_exchange


class TestPerShardAdmission:
    def test_sharded_admits_what_single_array_guard_rejects(self, monkeypatch):
        import repro.fur.base as base

        n = 10
        itemsize = 16  # complex128
        # Guard sized between the monolithic state and one shard's footprint.
        monkeypatch.setattr(base, "MAX_STATE_BYTES",
                            (1 << n) * itemsize - 1)
        with pytest.raises(ValueError, match="refusing"):
            repro.simulator(n, terms=TERMS, backend="c")
        sim = repro.simulator(n, terms=TERMS, backend="sharded", n_shards=4)
        assert sim.n_shards == 4

    def test_serve_admission_is_per_shard(self):
        from repro.serve.admission import AdmissionController, AdmissionError

        n = 10
        guard = (1 << n) * 16 - 1  # below the monolithic complex128 state
        ctrl = AdmissionController(max_state_bytes=guard)
        with pytest.raises(AdmissionError, match="rejecting"):
            ctrl.check(n, "double")
        ctrl.check(n, "double", n_shards=4)  # per-shard slab fits

    def test_service_routes_shard_count_into_admission(self):
        from repro.serve import QAOAService
        from repro.serve.admission import AdmissionError

        n = 10
        guard = (1 << n) * 16 - 1
        svc = QAOAService(backend="sharded", n_shards=4)
        svc._admission.max_state_bytes = guard
        key, _, _ = svc._route(n, TERMS, [0.1], [0.2], None, None, None, None)
        assert key.backend == "sharded"
        mono = QAOAService(backend="c")
        mono._admission.max_state_bytes = guard
        with pytest.raises(AdmissionError, match="rejecting"):
            mono._route(n, TERMS, [0.1], [0.2], None, None, None, None)

    def test_service_rejects_invalid_shard_knob(self):
        from repro.serve import QAOAService
        from repro.serve.admission import AdmissionError

        svc = QAOAService(backend="sharded", n_shards=3)
        with pytest.raises(AdmissionError, match="power of two"):
            svc._route(6, TERMS, [0.1], [0.2], None, None, None, None)


class TestServeShardTelemetry:
    def test_service_stats_harvest_shard_traffic(self):
        from repro.serve import QAOAService

        with QAOAService(backend="sharded", n_shards=4, window_ms=0.0) as svc:
            value = svc.submit_sync(6, TERMS, [0.1], [0.2])
            assert np.isfinite(value)
            snapshot = svc.stats.as_dict()
        assert snapshot["shard_exchanges"] > 0
        assert snapshot["exchange_bytes"] > 0
        config = svc.config()
        assert config["n_shards"] == 4

    def test_monolithic_routes_record_zero_shard_traffic(self):
        from repro.serve import QAOAService

        with QAOAService(backend="c", window_ms=0.0) as svc:
            svc.submit_sync(5, TERMS, [0.1], [0.2])
            snapshot = svc.stats.as_dict()
        assert snapshot["shard_exchanges"] == 0
        assert snapshot["exchange_bytes"] == 0

    def test_describe_extra_reports_shards(self):
        from repro.fur.registry import registry

        text = registry.describe()
        assert "sharded" in text
        assert "shards=" in text and "inner=" in text

