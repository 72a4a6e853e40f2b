"""Pipeline-level tests: telemetry, objective bookkeeping, admission."""

import numpy as np
import pytest

import repro
import repro.fur.base as fur_base
from repro.cutting import CutQAOAObjective, CutQAOAPipeline

RING = [(0.7, (i, (i + 1) % 8)) for i in range(8)]


class TestCuttingStats:
    def test_counters_accumulate(self):
        pipe = CutQAOAPipeline(8, RING, backend="python", partition=range(4))
        k = pipe.spec.n_cuts
        pipe.expectation([0.1], [0.2])
        pipe.expectation([0.3], [0.4])
        stats = pipe.stats
        assert stats.evaluations == 2
        assert stats.fragments_evaluated == 4
        assert stats.variants_evaluated == 2 * (1 + 4 ** k)
        assert stats.cut_qubits == k
        assert stats.recombined_terms == 2 * len(RING)
        crossing = sum(1 for _w, m1, m2 in pipe.assignment.measured
                       if m1 and m2)
        assert crossing == 2
        # one contraction per fragment diagonal, one per crossing term
        assert stats.tensor_contractions == 2 * (2 + crossing)
        assert stats.fragment_wall_s > 0
        assert stats.recombine_wall_s > 0

    def test_as_dict_is_json_ready(self):
        import json

        pipe = CutQAOAPipeline(8, RING, backend="python")
        pipe.expectation([0.1], [0.2])
        payload = json.loads(json.dumps(pipe.stats.as_dict()))
        assert payload["evaluations"] == 1
        assert set(payload) == set(vars(pipe.stats))

    def test_reset_preserves_cut_width(self):
        pipe = CutQAOAPipeline(8, RING, backend="python")
        pipe.expectation([0.1], [0.2])
        pipe.stats.reset()
        assert pipe.stats.evaluations == 0
        assert pipe.stats.cut_qubits == pipe.spec.n_cuts


class TestFragmentMemory:
    def test_bridged_rings_keep_a_few_observable_rows(self):
        """Identity, the folded diagonal and one parity row per distinct
        crossing mask: 4 rows on fragment A (crossing edges (0, 1) and
        (7, 0) around cut qubit 0), 3 on fragment B (the bridge's slot
        bit); no (4^k, 2^{n_2}) prep block is kept."""
        n = 16
        terms = [(0.5, (i, (i + 1) % 8)) for i in range(8)]
        terms += [(0.5, (8 + i, 8 + (i + 1) % 8)) for i in range(8)]
        terms.append((0.7, (0, 8)))
        pipe = CutQAOAPipeline(n, terms, backend="python",
                               partition=range(8))
        k = pipe.spec.n_cuts
        n2 = pipe.sim2.n_qubits
        assert (k, n2) == (1, 9)
        assert pipe._rows_a.shape == (4, 2 ** (8 - k))
        assert pipe._rows_b.shape == (3, 2 ** n2)
        arrays = [v for v in vars(pipe).values() if isinstance(v, np.ndarray)]
        assert all(a.size < 4 ** k * 2 ** n2 for a in arrays)


class TestCutQAOAObjective:
    def test_bookkeeping_matches_monolithic_objective(self):
        obj = CutQAOAObjective.build(8, RING, backend="python")
        v1 = obj([0.1, 0.2])
        v2 = obj([0.3, 0.4])
        assert obj.n_evaluations == 2
        assert obj.history == [v1, v2]
        assert obj.best_value == min(v1, v2)
        best = [0.1, 0.2] if v1 <= v2 else [0.3, 0.4]
        np.testing.assert_allclose(obj.best_parameters, best)
        obj.reset_statistics()
        assert obj.n_evaluations == 0
        assert obj.history == []
        assert obj.best_parameters is None

    def test_objective_value_matches_uncut(self):
        sim = repro.simulator(8, terms=RING, backend="python")
        want = sim.get_expectation(sim.simulate_qaoa([0.13], [0.27]))
        obj = CutQAOAObjective.build(8, RING, backend="python")
        assert obj([0.13, 0.27]) == pytest.approx(want, abs=1e-12)

    def test_stats_passthrough(self):
        obj = CutQAOAObjective.build(8, RING, backend="python")
        obj([0.1, 0.2])
        assert obj.stats.evaluations == 1


class TestBeyondMemoryAdmission:
    def test_cut_pipeline_admits_what_the_state_guard_rejects(self, monkeypatch):
        """The tentpole's acceptance criterion, in miniature.

        With the admission ceiling shrunk so the monolithic 2^10 state is
        rejected, the cut pipeline (largest fragment 2^6) still evaluates
        — and still matches the value computed without the ceiling.
        """
        n = 10
        terms = [(0.5, (i, (i + 1) % n)) for i in range(n)]
        sim = repro.simulator(n, terms=terms, backend="python")
        want = sim.get_expectation(sim.simulate_qaoa([0.21], [0.43]))

        monkeypatch.setattr(fur_base, "MAX_STATE_BYTES", 2 ** 9 * 16)
        with pytest.raises(ValueError, match="state"):
            repro.simulator(n, terms=terms, backend="python")
        got = repro.cut_qaoa_expectation(n, terms, [0.21], [0.43],
                                         backend="python",
                                         partition=range(5))
        assert got == pytest.approx(want, abs=1e-12)

    def test_serial_worker_pool_matches_concurrent(self):
        pipe_par = CutQAOAPipeline(8, RING, backend="python")
        pipe_ser = CutQAOAPipeline(8, RING, backend="python", n_workers=1)
        assert pipe_ser.expectation([0.1], [0.2]) == pytest.approx(
            pipe_par.expectation([0.1], [0.2]), abs=1e-14)
