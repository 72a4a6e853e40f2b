"""Service-level behavior: routing, lifecycle, admission, overload, LRU."""

import asyncio

import numpy as np
import pytest

import repro
import repro.serve
from repro.serve import (
    AdmissionError,
    QAOAService,
    RouteKey,
    ServiceClosedError,
    ServiceOverloadedError,
)


def ring_terms(n):
    return [(0.5, (i, (i + 1) % n)) for i in range(n)]


N = 8
TERMS = ring_terms(N)
GAMMAS = [0.1, 0.25]
BETAS = [0.3, 0.15]


def reference_value(n=N, terms=TERMS, gammas=GAMMAS, betas=BETAS, **kwargs):
    sim = repro.simulator(n, terms=terms, backend="python", **kwargs)
    return float(sim.get_expectation_batch(np.array([gammas]),
                                           np.array([betas]))[0])


class TestSubmission:
    def test_submit_sync_matches_direct_simulation(self):
        with repro.serve(backend="python") as svc:
            value = svc.submit_sync(N, TERMS, GAMMAS, BETAS)
        assert value == pytest.approx(reference_value(), rel=1e-12)

    def test_async_submit_matches_direct_simulation(self):
        async def run():
            async with QAOAService(backend="python") as svc:
                return await svc.submit(N, TERMS, GAMMAS, BETAS)

        assert asyncio.run(run()) == pytest.approx(reference_value(), rel=1e-12)

    def test_module_is_callable_facade(self):
        svc = repro.serve(backend="python", window_ms=0.5, max_batch=4)
        assert isinstance(svc, QAOAService)
        assert svc.config()["max_batch"] == 4
        svc.close()

    def test_submit_future_collects_concurrent_requests(self):
        rng = np.random.default_rng(7)
        schedules = rng.uniform(0, 1, size=(6, 4))
        with repro.serve(backend="python") as svc:
            futures = [svc.submit_future(N, TERMS, row[:2], row[2:])
                       for row in schedules]
            values = [f.result(30) for f in futures]
        sim = repro.simulator(N, terms=TERMS, backend="python")
        expected = sim.get_expectation_batch(schedules[:, :2], schedules[:, 2:])
        np.testing.assert_allclose(values, expected, rtol=1e-12)

    def test_per_call_precision_override(self):
        with repro.serve(backend="python") as svc:
            value = svc.submit_sync(N, TERMS, GAMMAS, BETAS, precision="single")
        assert value == pytest.approx(reference_value(precision="single"),
                                      rel=1e-5)


class TestRejectedSubmissions:
    """Every submission routing refuses is counted once in ``rejected``."""

    @pytest.mark.parametrize("kwargs,match", [
        ({"backend": "nope"}, "unknown simulator backend 'nope'"),
        ({"backend": "tensornet"}, r"repro\.tensornet\.TensorNetworkSimulator"),
        ({"backend": "gpumpi", "mixer": "xyring"}, "does not implement"),
        ({"gammas": [0.1, 0.2], "betas": [0.3]}, None),
    ], ids=["unknown", "retired", "missing-mixer", "mismatched-angles"])
    def test_refused_submission_is_counted_once(self, kwargs, match):
        request = {"gammas": GAMMAS, "betas": BETAS, **kwargs}
        with repro.serve(backend="python") as svc:
            with pytest.raises(ValueError, match=match):
                svc.submit_sync(N, TERMS, **request)
            assert svc.stats.rejected == 1
            assert svc.stats.requests == 0
            assert not svc.live_simulators()


class TestRouting:
    def test_equivalent_spellings_share_routing_key(self):
        svc = QAOAService(backend="python")
        key1, _, _ = svc._route(N, TERMS, GAMMAS, BETAS, None, None, None, None)
        # alias + explicit defaults must land on the same key
        key2, _, _ = svc._route(N, list(TERMS), GAMMAS, BETAS, "numpy", "x",
                                "double", "default")
        assert key1 == key2
        svc.close()

    def test_depth_is_part_of_the_key(self):
        svc = QAOAService(backend="python")
        key1, _, _ = svc._route(N, TERMS, [0.1], [0.2], None, None, None, None)
        key2, _, _ = svc._route(N, TERMS, [0.1, 0.1], [0.2, 0.2],
                                None, None, None, None)
        assert key1.p == 1 and key2.p == 2 and key1 != key2
        svc.close()

    def test_mixed_keys_never_cross_batch(self):
        """Traffic on two problems makes two batchers, two simulators, and
        each simulator's engine sees only its own key's rows."""
        other = ring_terms(N)[:-1]  # different problem, same n

        async def run():
            async with QAOAService(backend="python", window_ms=20.0,
                                   max_batch=4) as svc:
                submissions = [svc.submit(N, TERMS, GAMMAS, BETAS)
                               for _ in range(4)]
                submissions += [svc.submit(N, other, GAMMAS, BETAS)
                                for _ in range(4)]
                await asyncio.gather(*submissions)
                return svc, svc.live_simulators()

        svc, live = asyncio.run(run())
        assert len(live) == 2
        assert len(svc._batchers) == 2
        for key, sim in live.items():
            assert isinstance(key, RouteKey)
            # each engine executed exactly one batch of 1 unique row
            # (4 duplicates coalesced into one evaluation per key)
            assert sim.engine.stats.rows_executed == 1
        hist = svc.stats.batch_size_histogram()
        assert hist == {4: 2}
        assert svc.stats.coalesced_hits == 6

    def test_max_batch_splits_flushes(self):
        async def run():
            rng = np.random.default_rng(3)
            thetas = rng.uniform(0, 1, size=(8, 4))
            async with QAOAService(backend="python", window_ms=50.0,
                                   max_batch=4) as svc:
                await asyncio.gather(*[
                    svc.submit(N, TERMS, row[:2], row[2:]) for row in thetas
                ])
                return svc.stats.batch_size_histogram()

        # 8 distinct requests with max_batch=4: two full flushes
        assert asyncio.run(run()) == {4: 2}


class TestAdmission:
    def test_unservable_request_rejected_with_stats(self):
        with repro.serve(backend="python") as svc:
            with pytest.raises(AdmissionError, match="state vector"):
                svc.submit_sync(40, [(1.0, (0, 1))], GAMMAS, BETAS)
            assert svc.stats.rejected == 1
            assert svc.stats.requests == 0

    def test_max_qubits_ceiling(self):
        with repro.serve(backend="python", max_qubits=6) as svc:
            with pytest.raises(AdmissionError, match="max_qubits"):
                svc.submit_sync(N, TERMS, GAMMAS, BETAS)

    def test_overload_sheds_with_typed_exception(self):
        async def run():
            async with QAOAService(backend="python", window_ms=200.0,
                                   max_pending=2, overload="shed") as svc:
                first = [asyncio.ensure_future(
                    svc.submit(N, TERMS, [g, g], BETAS)) for g in (0.1, 0.2)]
                await asyncio.sleep(0)  # let both get admitted
                with pytest.raises(ServiceOverloadedError):
                    await svc.submit(N, TERMS, [0.3, 0.3], BETAS)
                shed = svc.stats.shed
                await asyncio.gather(*first)
                return shed, svc.stats.requests

        shed, requests = asyncio.run(run())
        assert shed == 1
        assert requests == 2

    def test_overload_wait_applies_backpressure(self):
        async def run():
            async with QAOAService(backend="python", window_ms=1.0,
                                   max_pending=2, overload="wait") as svc:
                values = await asyncio.gather(*[
                    svc.submit(N, TERMS, [0.01 * i, 0.02], BETAS)
                    for i in range(6)
                ])
                return values, svc.stats

        values, stats = asyncio.run(run())
        assert len(values) == 6
        assert stats.shed == 0
        assert stats.completed == 6

    def test_effective_max_batch_clamped_by_memory_budget(self):
        # budget for ~4 rows of 2^8 complex128 with the ping-pong factor
        budget = 4 * 2 * (1 << N) * 16
        svc = QAOAService(backend="python", max_batch=64, memory_budget=budget)
        key, _, _ = svc._route(N, TERMS, GAMMAS, BETAS, None, None, None, None)
        assert svc._batcher_for(key).max_batch == 4
        svc.close()


class TestLifecycle:
    def test_closed_service_refuses_submissions(self):
        svc = repro.serve(backend="python")
        with svc:
            svc.submit_sync(N, TERMS, GAMMAS, BETAS)
        with pytest.raises(ServiceClosedError):
            svc.submit_sync(N, TERMS, GAMMAS, BETAS)
        with pytest.raises(ServiceClosedError):
            asyncio.run(svc.submit(N, TERMS, GAMMAS, BETAS))

    def test_async_close_refuses_submissions(self):
        async def run():
            async with QAOAService(backend="python") as svc:
                await svc.submit(N, TERMS, GAMMAS, BETAS)
            with pytest.raises(ServiceClosedError):
                await svc.submit(N, TERMS, GAMMAS, BETAS)

        asyncio.run(run())

    def test_simulator_lru_evicts_and_counts(self):
        problems = [ring_terms(N), ring_terms(N)[:-1], ring_terms(N)[:-2]]
        with repro.serve(backend="python", max_live_simulators=1) as svc:
            for terms in problems:
                svc.submit_sync(N, terms, GAMMAS, BETAS)
            assert svc.stats.simulators_constructed == 3
            assert svc.stats.simulators_evicted == 2
            assert len(svc.live_simulators()) == 1

    def test_live_simulators_reused_across_batches(self):
        with repro.serve(backend="python") as svc:
            svc.submit_sync(N, TERMS, GAMMAS, BETAS)
            svc.submit_sync(N, TERMS, [0.9, 0.9], BETAS)
            assert svc.stats.simulators_constructed == 1
            (sim,) = svc.live_simulators().values()
            # second batch reused the compiled plan of the first
            assert sim.engine.stats.plan_cache_hits >= 1

    def test_service_bound_to_one_loop(self):
        svc = QAOAService(backend="python")

        async def bind():
            svc._ensure_loop_state()

        asyncio.run(bind())
        with pytest.raises(RuntimeError, match="different event loop"):
            asyncio.run(bind())
        svc.close()

    def test_describe_is_json_serializable(self):
        import json

        with repro.serve(backend="python") as svc:
            svc.submit_sync(N, TERMS, GAMMAS, BETAS)
            snapshot = svc.describe()
        payload = json.loads(json.dumps(snapshot))
        assert payload["config"]["backend"] == "python"
        assert payload["stats"]["completed"] == 1
        assert len(payload["live_simulators"]) == 1
        assert payload["live_simulators"][0]["engine"]["rows_executed"] == 1


class TestValidation:
    def test_constructor_rejects_bad_knobs(self):
        with pytest.raises(ValueError, match="window_ms"):
            QAOAService(window_ms=-1.0)
        with pytest.raises(ValueError, match="max_batch"):
            QAOAService(max_batch=0)
        with pytest.raises(ValueError, match="max_live_simulators"):
            QAOAService(max_live_simulators=0)
        with pytest.raises(ValueError, match="overload"):
            QAOAService(overload="panic")

    def test_mismatched_angles_rejected(self):
        with repro.serve(backend="python") as svc:
            with pytest.raises(ValueError):
                svc.submit_sync(N, TERMS, [0.1, 0.2], [0.3])
