"""Tests for the in-process sharded backend: slab-swap bookkeeping,
shard-count invariance, exchange accounting, per-shard admission and the
shard telemetry surface."""

import time

import numpy as np
import pytest

import repro
from repro import fur
from repro.fur.sharded import (
    QAOAFURXSimulatorSharded,
    ShardedStateVector,
    ShardLayout,
    resolve_n_shards,
    shard_report,
    sharded_state_bytes,
)

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

    def test_sharded_state_bytes_counts_slab_plus_staging(self):
        slab = (1 << 10) * 16 // 4
        assert sharded_state_bytes(10, 16, 4) == slab + slab // 2
        # one shard degenerates to the monolithic state (plus staging)
        assert sharded_state_bytes(10, 16, 1) == (1 << 10) * 16 * 3 // 2

    def test_shard_report_shape(self, monkeypatch):
        # the shard count and the row pool's threads, which honour
        # REPRO_NUM_THREADS like every jit kernel
        monkeypatch.setenv("REPRO_NUM_THREADS", "1")
        report = shard_report()
        assert report.startswith("shards=") and report.endswith(" threads=1")


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

    @pytest.mark.parametrize("mixer", ["x", "xyring"])
    @pytest.mark.parametrize("precision", ["double", "single"])
    def test_bitwise_invariant_under_shard_count(self, precision, mixer, rng):
        # Every jit rung's butterfly is position-independent and the
        # expectation reduction uses a fixed segment grid, so results must be
        # *bitwise* identical at 1, 2, 4 and 8 shards.
        n = 8
        costs = few_value_costs(rng, n)
        gammas, betas = rng.normal(size=(2, 3, 2))
        reference = None
        for n_shards in (1, 2, 4, 8):
            sim = repro.simulator(n, costs=costs, backend="sharded",
                                  mixer=mixer, precision=precision,
                                  n_shards=n_shards)
            results = sim.simulate_qaoa_batch(gammas, betas)
            states = np.stack([sim.get_statevector(r) for r in results])
            energies = np.asarray(sim.get_expectation_batch(gammas, betas))
            if reference is None:
                reference = (states, energies)
            else:
                assert np.array_equal(reference[0], states)
                assert np.array_equal(reference[1], energies)

    def test_bitwise_invariant_over_shard_counts(self):
        # Real-weighted terms=: no phase table, so every shard's direct
        # phase reads its view of the one cached diagonal.
        from repro.fur import precompute_cost_diagonal
        from repro.testing import random_terms

        n = 17
        rng = np.random.default_rng(17)
        terms = random_terms(rng, n, 30, max_order=3) + [(0.37, (2, n - 1))]
        full = precompute_cost_diagonal(terms, n)
        gammas, betas = rng.normal(size=(2, 1, 2))
        reference = None
        for n_shards in (1, 2, 4, 8):
            sim = repro.simulator(n, terms=terms, backend="sharded",
                                  n_shards=n_shards)
            assert np.array_equal(sim.get_cost_diagonal(), full)
            state = sim.get_statevector(sim.simulate_qaoa(gammas[0], betas[0]))
            energies = np.asarray(sim.get_expectation_batch(gammas, betas))
            if reference is None:
                reference = (state, energies)
            else:
                assert np.array_equal(reference[0], state)
                assert np.array_equal(reference[1], energies)

    @pytest.mark.parametrize("rung", ["active", "numpy"])
    @pytest.mark.parametrize("mixer", ["x", "xyring"])
    @pytest.mark.parametrize("rows", [1, 5])
    def test_bitwise_invariant_under_thread_budget(self, rung, mixer, rows,
                                                   request, monkeypatch, rng):
        # The (shard, row-chunk) grid splits each shard's rows into
        # ceil(T/K) chunks of the row pool's T threads; the kernels compute
        # each row on its own, so states and energies must not change with
        # T.  T is forced (instead of REPRO_NUM_THREADS, which is clamped to
        # the cores) so the splits run on any host: at T=3 and K=2 every
        # shard's 5 rows are two chunks.
        if rung == "numpy":
            request.getfixturevalue("numpy_rung")
        from repro.fur.jit import kernels

        n = 8
        costs = few_value_costs(rng, n)
        gammas, betas = rng.normal(size=(2, rows, 2))
        reference = None
        for threads in (1, 2, 3):
            monkeypatch.setattr(kernels, "pool_threads", lambda: threads)
            for n_shards in (1, 2, 4):
                sim = repro.simulator(n, costs=costs, backend="sharded",
                                      mixer=mixer, n_shards=n_shards)
                states = np.stack([
                    sim.get_statevector(r)
                    for r in sim.simulate_qaoa_batch(gammas, betas)])
                energies = np.asarray(sim.get_expectation_batch(gammas, betas))
                if reference is None:
                    reference = (states, energies)
                else:
                    assert np.array_equal(reference[0], states)
                    assert np.array_equal(reference[1], energies)

    @pytest.mark.parametrize("rung", ["active", "numpy"])
    def test_bitwise_invariant_when_only_some_shards_get_a_table(
            self, rung, request, rng):
        # LABS n=10 at 8 shards: some 128-state slices are repetitive enough
        # for a phase table, the others take the direct exp path.  Both must
        # give the table's factors, or single precision drifts with K.
        if rung == "numpy":
            request.getfixturevalue("numpy_rung")
        from repro.problems import labs

        n = 10
        gammas, betas = rng.normal(size=(2, 3, 2))
        results = []
        for n_shards in (1, 8):
            sim = repro.simulator(n, terms=labs.get_terms(n),
                                  backend="sharded", precision="single",
                                  n_shards=n_shards)
            tables = sim._engine_phase_tables()
            results.append((
                np.stack([sim.get_statevector(r)
                          for r in sim.simulate_qaoa_batch(gammas, betas)]),
                np.asarray(sim.get_expectation_batch(gammas, betas))))
        assert any(t is None for t in tables)
        assert any(t is not None for t in tables)
        assert np.array_equal(results[0][0], results[1][0])
        assert np.array_equal(results[0][1], results[1][1])

    def test_exchange_count_independent_of_batch_size(self, rng):
        n = 7
        counts = []
        for rows in (2, 8):
            sim = repro.simulator(n, terms=TERMS, backend="sharded",
                                  n_shards=4)
            sim.get_expectation_batch(rng.normal(size=(rows, 2)),
                                      rng.normal(size=(rows, 2)))
            counts.append(sim.engine.stats.shard_exchanges)
        assert counts[0] > 0
        # coalesced exchanges: one message per slab pair per transposition,
        # regardless of how many batch rows ride the slab
        assert counts[0] == counts[1]

    def test_engine_telemetry_recorded(self, rng):
        sim = repro.simulator(6, terms=TERMS, backend="sharded", n_shards=4)
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

    def test_failing_shard_waits_for_the_others(self, rng, monkeypatch):
        # Shard 0's kernel raises while shard 1 is still working: the error
        # must reach the caller only after shard 1 has finished, with the
        # dispatch telemetry recorded, and the simulator must stay usable.
        from repro.fur.jit import kernels

        # two pool threads for two shards: one task per shard on any host
        monkeypatch.setenv("REPRO_NUM_THREADS", "2")
        sim = repro.simulator(6, terms=TERMS, backend="sharded", n_shards=2)
        real_rotate = kernels.rotate_x_block
        finished = []

        def faulty_rotate(block_s, betas, positions, **phase):
            if phase.get("costs") is sim._cost_slices[0]:
                raise RuntimeError("shard 0 failed")
            time.sleep(0.3)
            real_rotate(block_s, betas, positions, **phase)
            finished.append(1)

        monkeypatch.setattr(kernels, "rotate_x_block", faulty_rotate)
        gammas, betas = rng.normal(size=(2, 3, 2))
        wall_before = sim.engine.stats.shard_wall_s
        with pytest.raises(RuntimeError, match="shard 0 failed"):
            sim.get_expectation_batch(gammas, betas)
        assert finished == [1]
        assert sim.engine.stats.shard_wall_s > wall_before
        monkeypatch.undo()
        reference = repro.simulator(6, terms=TERMS, backend="sharded",
                                    n_shards=2)
        np.testing.assert_array_equal(
            sim.get_expectation_batch(gammas, betas),
            reference.get_expectation_batch(gammas, betas))

    def test_failure_inside_global_step_does_not_poison_the_layout(
            self, rng, monkeypatch):
        # A kernel failing between the two transposes leaves the relabeling
        # half done; the next block must still start from the identity.
        from repro.fur.jit import kernels

        sim = repro.simulator(6, terms=TERMS, backend="sharded", n_shards=2)
        real_rotate = kernels.rotate_x_block

        def failing_global_rotation(block_s, betas, positions, **phase):
            if list(positions) != list(range(sim.n_local_qubits)):
                raise RuntimeError("rotation failed")
            real_rotate(block_s, betas, positions, **phase)

        monkeypatch.setattr(kernels, "rotate_x_block",
                            failing_global_rotation)
        gammas, betas = rng.normal(size=(2, 3, 2))
        with pytest.raises(RuntimeError, match="rotation failed"):
            sim.get_expectation_batch(gammas, betas)
        monkeypatch.undo()
        reference = repro.simulator(6, terms=TERMS, backend="sharded",
                                    n_shards=2)
        np.testing.assert_array_equal(
            sim.get_expectation_batch(gammas, betas),
            reference.get_expectation_batch(gammas, betas))

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
        sim = repro.simulator(6, terms=TERMS, backend="sharded", n_shards=4)
        assert sim.backend_name == "sharded"
        assert sim.n_shards == 4
        assert sim.n_global_qubits == 2
        assert sim.n_local_qubits == 4
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
        line = next(ln for ln in text.splitlines() if "shards=" in ln)
        assert "threads=" in line and "workers=" not in line

