"""Pipeline-level tests: telemetry, fragment memory, the chunked reduction,
objective bookkeeping, admission and the one row pool."""

from pathlib import Path

import numpy as np
import pytest

import repro
import repro.fur.base as fur_base
from repro.cutting import CutQAOAObjective, CutQAOAPipeline, pipeline
from repro.fur import UnsupportedBackendKwargError

RING = [(0.7, (i, (i + 1) % 8)) for i in range(8)]
RING12 = [(0.3 + 0.05 * i, (i, (i + 1) % 12)) for i in range(12)]


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
    def test_bridged_rings_hold_one_diagonal_per_fragment(self):
        """Each fragment holds its cost diagonal and crossing masks only:
        at most 8 observable bytes per fragment amplitude, and no
        (4^k, 2^{n_2}) prep block."""
        n = 16
        terms = [(0.5, (i, (i + 1) % 8)) for i in range(8)]
        terms += [(0.5, (8 + i, 8 + (i + 1) % 8)) for i in range(8)]
        terms.append((0.7, (0, 8)))
        pipe = CutQAOAPipeline(n, terms, backend="python",
                               partition=range(8))
        k = pipe.spec.n_cuts
        n1, n2 = pipe.sim1.n_qubits, pipe.sim2.n_qubits
        assert (k, n1, n2) == (1, 8, 9)
        arrays = [v for v in vars(pipe).values() if isinstance(v, np.ndarray)]
        assert sum(a.nbytes for a in arrays) <= 8 * (2 ** n1 + 2 ** n2)
        assert all(a.size < 4 ** k * 2 ** n2 for a in arrays)


class TestReducedMatrices:
    @pytest.mark.parametrize("k, copies", [(1, 1), (1, 2), (2, 4)])
    def test_chunked_parities_match_dense_rows(self, k, copies, seeded_rng):
        """A fragment twice ``_CHUNK`` wide, masks with bits above the
        chunk width and (``copies > 1``) in the cut-bit copies: the gram
        entries are bitwise those of the dense weight rows."""
        d, length = 1 << k, 2 * pipeline._CHUNK
        size = copies * length
        slices = (seeded_rng.standard_normal((d, length))
                  + 1j * seeded_rng.standard_normal((d, length)))
        diag = seeded_rng.standard_normal(size)
        masks = [0b101, length >> 1 | 3, size - 1, size >> 1 | 1 << 13]
        x = np.arange(size)
        rows = np.array([np.ones(size), diag]
                        + [1.0 - 2.0 * (np.bitwise_count(x & m) & 1)
                           for m in masks]).reshape(-1, length)
        lo, hi = np.triu_indices(d)
        off = lo != hi
        re, im = slices.real, slices.imag
        parts = np.concatenate(
            [re[lo] * re[hi] + im[lo] * im[hi],
             re[lo[off]] * im[hi[off]] - im[lo[off]] * re[hi[off]]])
        gram = np.zeros((rows.shape[0], d * d))
        for start in range(0, length, pipeline._CHUNK):
            window = slice(start, start + pipeline._CHUNK)
            gram += rows[:, window] @ np.ascontiguousarray(parts[:, window]).T
        upper = gram[:, :lo.size] + 0j
        upper[:, off] += 1j * gram[:, lo.size:]
        want = np.empty((rows.shape[0], d, d), dtype=np.complex128)
        want[:, hi, lo] = upper.conj()
        want[:, lo, hi] = upper
        got = pipeline._reduced_matrices(diag, masks, slices)
        assert got.shape == (2 + len(masks), copies, d, d)
        assert np.array_equal(got.reshape(want.shape), want)


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



class TestOnePool:
    """The two fragments are two tasks on the jit tier's row pool."""

    def test_bitwise_equal_under_one_and_two_threads(self, monkeypatch):
        values = []
        for threads in ("1", "2"):
            monkeypatch.setenv("REPRO_NUM_THREADS", threads)
            pipe = CutQAOAPipeline(12, RING12, partition=range(6))
            values.append([pipe.expectation([g], [b])
                           for g, b in [(0.1, 0.2), (-0.7, 0.45)]])
        assert values[0] == values[1]

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_fragment_failure_reraises_after_both_finish(self, threads,
                                                         monkeypatch):
        monkeypatch.setenv("REPRO_NUM_THREADS", threads)
        pipe = CutQAOAPipeline(8, RING, backend="python")
        pipe.expectation([0.1], [0.2])
        finished = []
        fragment_one = pipe._fragment_one

        def one(gamma, beta):
            finished.append(fragment_one(gamma, beta))

        def two(gamma, beta):
            raise RuntimeError("fragment two failed")

        monkeypatch.setattr(pipe, "_fragment_one", one)
        monkeypatch.setattr(pipe, "_fragment_two", two)
        with pytest.raises(RuntimeError, match="fragment two failed"):
            pipe.expectation([0.3], [0.4])
        assert len(finished) == 1
        assert pipe.stats.evaluations == 1

    def test_n_workers_is_not_a_pipeline_option(self):
        # the retired knob reaches the facade, which owns no worker pools
        with pytest.raises(UnsupportedBackendKwargError, match="'n_workers'"):
            CutQAOAPipeline(8, RING, n_workers=2)

    def test_thread_pools_are_built_in_two_places_only(self):
        """The row pool (jit kernels) and the serving layer's executor are
        the package's only thread pools."""
        src = Path(repro.__file__).parent
        owners = {path.relative_to(src).as_posix()
                  for path in src.rglob("*.py")
                  if "ThreadPoolExecutor(" in path.read_text()}
        assert owners == {"fur/jit/kernels.py", "serve/service.py"}
