"""Unit tests for the metrics surface and the ``python -m repro.serve`` CLI."""

import json

import pytest

from repro.fur.registry import registry
from repro.serve import LatencyRecorder, ServiceStats
from repro.serve.__main__ import main


class TestLatencyRecorder:
    def test_empty_recorder_reports_none(self):
        rec = LatencyRecorder()
        assert rec.count == 0
        assert rec.percentiles() == {"p50": None, "p95": None, "p99": None}
        snapshot = rec.as_dict()
        assert snapshot["count"] == 0
        assert snapshot["mean_s"] is None
        assert snapshot["p50_s"] is None

    def test_percentiles_over_samples(self):
        rec = LatencyRecorder()
        rec.record_many(float(i) for i in range(1, 101))
        pct = rec.percentiles()
        assert pct["p50"] == pytest.approx(50.5)
        assert pct["p95"] == pytest.approx(95.05)
        assert rec.count == 100
        assert rec.total_seconds == pytest.approx(5050.0)
        assert rec.as_dict()["mean_s"] == pytest.approx(50.5)

    def test_window_bounds_retained_samples(self):
        rec = LatencyRecorder(max_samples=10)
        rec.record_many(float(i) for i in range(100))
        # count keeps the lifetime total, percentiles only the window
        assert rec.count == 100
        assert rec.percentiles()["p50"] == pytest.approx(94.5)

    def test_rejects_nonpositive_window(self):
        with pytest.raises(ValueError):
            LatencyRecorder(max_samples=0)


class TestServiceStats:
    def test_batch_accounting_identity(self):
        stats = ServiceStats()
        for _ in range(3):
            stats.record_admitted()
        stats.record_batch(size=3, unique=2, queue_waits=[0.001] * 3,
                          execution_s=0.01)
        assert stats.requests == 3
        assert stats.completed == 3
        assert stats.coalesced_hits == 1
        assert stats.evaluated_rows == 2
        assert stats.batches == 1
        assert stats.batch_size_histogram() == {3: 1}
        assert stats.queue_wait.count == 3
        assert stats.execution.count == 1

    def test_invalid_batch_accounting_rejected(self):
        stats = ServiceStats()
        with pytest.raises(ValueError):
            stats.record_batch(size=2, unique=0, queue_waits=[], execution_s=0.0)
        with pytest.raises(ValueError):
            stats.record_batch(size=2, unique=3, queue_waits=[], execution_s=0.0)

    def test_shed_and_rejected_are_not_requests(self):
        stats = ServiceStats()
        stats.record_shed()
        stats.record_rejected()
        stats.record_batch_failure(2)
        assert stats.requests == 0
        assert stats.shed == 1
        assert stats.rejected == 1
        assert stats.failed == 2

    def test_as_dict_round_trips_through_json(self):
        stats = ServiceStats()
        stats.record_admitted()
        stats.record_batch(size=1, unique=1, queue_waits=[0.002],
                          execution_s=0.005)
        stats.record_simulator_constructed()
        payload = json.loads(json.dumps(stats.as_dict()))
        assert payload["completed"] == 1
        assert payload["batch_size_histogram"] == {"1": 1}
        assert payload["simulators_constructed"] == 1
        assert payload["execution"]["count"] == 1
        assert payload["queue_wait"]["p50_s"] == pytest.approx(0.002)


class TestCli:
    def test_describe_prints_registry_and_defaults(self, capsys):
        assert main(["--describe"]) == 0
        out = capsys.readouterr().out
        assert "Backend registry:" in out
        assert "python" in out
        assert "window_ms" in out
        assert "coalesced_hits" in out
        # every registered backend is part of the operational surface
        for name in registry.names():
            assert name in out

    def test_json_mode_emits_parseable_snapshot(self, capsys):
        assert main(["--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert set(payload) == {"backends", "config", "stats",
                                "live_simulators"}
        assert payload["config"]["overload"] == "shed"
        assert payload["stats"]["requests"] == 0

    def test_no_arguments_prints_help(self, capsys):
        assert main([]) == 2
        assert "--describe" in capsys.readouterr().out
