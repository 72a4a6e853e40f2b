"""Tests for the distributed simulators (Algorithm 4 and the index-swap variant)."""

import numpy as np
import pytest

import repro
from repro.fur import get_simulator_class
from repro.fur.mpi import QAOAFURXSimulatorCUSVMPI, QAOAFURXSimulatorGPUMPI
from repro.problems import labs, maxcut

DISTRIBUTED_CLASSES = [QAOAFURXSimulatorGPUMPI, QAOAFURXSimulatorCUSVMPI]


def reference_state(n, terms, gammas, betas):
    sim = get_simulator_class("c")(n, terms=terms)
    res = sim.simulate_qaoa(gammas, betas)
    return sim, np.asarray(sim.get_statevector(res))


class TestDistributedCorrectness:
    @pytest.mark.parametrize("cls", DISTRIBUTED_CLASSES)
    @pytest.mark.parametrize("n_ranks", [1, 2, 4, 8])
    def test_matches_single_node_labs(self, cls, n_ranks):
        n, p = 8, 2
        terms = labs.get_terms(n)
        rng = np.random.default_rng(n_ranks)
        gammas, betas = rng.uniform(0, 1, p), rng.uniform(0, 1, p)
        ref_sim, ref = reference_state(n, terms, gammas, betas)
        sim = cls(n, terms=terms, n_ranks=n_ranks)
        res = sim.simulate_qaoa(gammas, betas)
        np.testing.assert_allclose(sim.get_statevector(res), ref, atol=1e-12)
        assert sim.get_expectation(res) == pytest.approx(
            ref_sim.get_expectation(ref_sim.simulate_qaoa(gammas, betas)), abs=1e-10)

    @pytest.mark.parametrize("cls", DISTRIBUTED_CLASSES)
    def test_matches_single_node_maxcut(self, cls, small_maxcut, qaoa_angles):
        graph, terms = small_maxcut
        gammas, betas = qaoa_angles
        _, ref = reference_state(6, terms, gammas, betas)
        sim = cls(6, terms=terms, n_ranks=4)
        np.testing.assert_allclose(
            sim.get_statevector(sim.simulate_qaoa(gammas, betas)), ref, atol=1e-12)

    @pytest.mark.parametrize("algorithm", ["direct", "pairwise", "ring", "bruck"])
    def test_gpumpi_alltoall_algorithms_agree(self, algorithm, qaoa_angles):
        n = 8
        terms = labs.get_terms(n)
        gammas, betas = qaoa_angles
        _, ref = reference_state(n, terms, gammas, betas)
        sim = QAOAFURXSimulatorGPUMPI(n, terms=terms, n_ranks=4, alltoall_algorithm=algorithm)
        np.testing.assert_allclose(
            sim.get_statevector(sim.simulate_qaoa(gammas, betas)), ref, atol=1e-12)

    @pytest.mark.parametrize("cls", DISTRIBUTED_CLASSES)
    def test_custom_initial_state(self, cls, qaoa_angles):
        n = 6
        terms = labs.get_terms(n)
        gammas, betas = qaoa_angles
        rng = np.random.default_rng(3)
        sv0 = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
        sv0 /= np.linalg.norm(sv0)
        ref_sim = get_simulator_class("c")(n, terms=terms)
        ref = np.asarray(ref_sim.get_statevector(ref_sim.simulate_qaoa(gammas, betas, sv0=sv0)))
        sim = cls(n, terms=terms, n_ranks=4)
        np.testing.assert_allclose(
            sim.get_statevector(sim.simulate_qaoa(gammas, betas, sv0=sv0)), ref, atol=1e-12)


class TestDistributedOutputs:
    def test_slices_and_gather(self, qaoa_angles):
        n = 8
        terms = labs.get_terms(n)
        gammas, betas = qaoa_angles
        sim = QAOAFURXSimulatorGPUMPI(n, terms=terms, n_ranks=4)
        res = sim.simulate_qaoa(gammas, betas)
        slices = sim.get_statevector(res, mpi_gather=False)
        assert len(slices) == 4
        assert all(s.shape == (64,) for s in slices)
        np.testing.assert_allclose(np.concatenate(slices), sim.get_statevector(res))
        probs = sim.get_probabilities(res)
        assert probs.sum() == pytest.approx(1.0, abs=1e-10)

    def test_overlap_matches_single_node(self, qaoa_angles):
        n = 8
        terms = labs.get_terms(n)
        gammas, betas = qaoa_angles
        ref_sim = get_simulator_class("c")(n, terms=terms)
        ref_ov = ref_sim.get_overlap(ref_sim.simulate_qaoa(gammas, betas))
        sim = QAOAFURXSimulatorCUSVMPI(n, terms=terms, n_ranks=8)
        assert sim.get_overlap(sim.simulate_qaoa(gammas, betas)) == pytest.approx(ref_ov, abs=1e-10)

    def test_cost_slices_are_local_precomputations(self):
        """Each rank's cost slice equals the corresponding slice of the full diagonal."""
        n = 8
        terms = labs.get_terms(n)
        sim = QAOAFURXSimulatorGPUMPI(n, terms=terms, n_ranks=4)
        full = sim.get_cost_diagonal()
        np.testing.assert_allclose(full, labs.energies_all_sequences(n))
        s = sim.local_states
        for r, sl in enumerate(sim._cost_slices):
            np.testing.assert_allclose(sl, full[r * s:(r + 1) * s])

    def test_costs_constructor_path(self, qaoa_angles):
        n = 8
        terms = labs.get_terms(n)
        from repro.fur import precompute_cost_diagonal

        costs = precompute_cost_diagonal(terms, n)
        gammas, betas = qaoa_angles
        _, ref = reference_state(n, terms, gammas, betas)
        sim = QAOAFURXSimulatorGPUMPI(n, costs=costs, n_ranks=4)
        np.testing.assert_allclose(
            sim.get_statevector(sim.simulate_qaoa(gammas, betas)), ref, atol=1e-12)


class TestCommunicationPatterns:
    def test_gpumpi_traffic_two_alltoalls_per_layer(self, qaoa_angles):
        n, p = 8, 2
        terms = labs.get_terms(n)
        gammas, betas = qaoa_angles
        sim = QAOAFURXSimulatorGPUMPI(n, terms=terms, n_ranks=4)
        sim.simulate_qaoa(gammas, betas)
        assert len(sim.traffic_log) == 2 * p
        # each alltoall moves (K-1)/K of the state vector (counting both directions once)
        slice_bytes = (1 << n) // 4 * 16
        expected = 4 * 3 * (slice_bytes // 4)
        assert all(t.total_bytes == expected for t in sim.traffic_log)

    def test_cusvmpi_traffic_is_pairwise(self, qaoa_angles):
        n, p = 8, 2
        terms = labs.get_terms(n)
        gammas, betas = qaoa_angles
        sim = QAOAFURXSimulatorCUSVMPI(n, terms=terms, n_ranks=4)
        sim.simulate_qaoa(gammas, betas)
        assert len(sim.traffic_log) == p
        for trace in sim.traffic_log:
            # every message is half a slice, between ranks differing in one bit
            for msg in trace.messages:
                assert msg.nbytes == (1 << n) // 4 // 2 * 16
                assert bin(msg.source ^ msg.dest).count("1") == 1

    def test_single_rank_no_communication(self, qaoa_angles):
        n = 6
        terms = labs.get_terms(n)
        gammas, betas = qaoa_angles
        sim = QAOAFURXSimulatorGPUMPI(n, terms=terms, n_ranks=1)
        sim.simulate_qaoa(gammas, betas)
        assert sim.traffic_log == []


#: (backend, alltoall algorithm, K, optimize, len(traffic_log),
#: (num_messages, num_rounds, total_bytes) of every trace) for one fused
#: LABS n=8, p=2, B=3 batch in double precision.
PINNED_TRAFFIC = [
    ("gpumpi", "direct", 2, "default", 4, (2, 1, 6144)),
    ("gpumpi", "direct", 2, "none", 12, (2, 1, 2048)),
    ("gpumpi", "direct", 4, "default", 4, (12, 1, 9216)),
    ("gpumpi", "direct", 4, "none", 12, (12, 1, 3072)),
    ("gpumpi", "direct", 8, "default", 4, (56, 1, 10752)),
    ("gpumpi", "direct", 8, "none", 12, (56, 1, 3584)),
    ("gpumpi", "pairwise", 2, "default", 12, (2, 1, 2048)),
    ("gpumpi", "pairwise", 2, "none", 12, (2, 1, 2048)),
    ("gpumpi", "pairwise", 4, "default", 12, (12, 3, 3072)),
    ("gpumpi", "pairwise", 4, "none", 12, (12, 3, 3072)),
    ("gpumpi", "pairwise", 8, "default", 12, (56, 7, 3584)),
    ("gpumpi", "pairwise", 8, "none", 12, (56, 7, 3584)),
    ("gpumpi", "ring", 2, "default", 12, (2, 1, 2048)),
    ("gpumpi", "ring", 2, "none", 12, (2, 1, 2048)),
    ("gpumpi", "ring", 4, "default", 12, (12, 3, 3072)),
    ("gpumpi", "ring", 4, "none", 12, (12, 3, 3072)),
    ("gpumpi", "ring", 8, "default", 12, (56, 7, 3584)),
    ("gpumpi", "ring", 8, "none", 12, (56, 7, 3584)),
    ("gpumpi", "bruck", 2, "default", 12, (2, 1, 2048)),
    ("gpumpi", "bruck", 2, "none", 12, (2, 1, 2048)),
    ("gpumpi", "bruck", 4, "default", 12, (8, 2, 4096)),
    ("gpumpi", "bruck", 4, "none", 12, (8, 2, 4096)),
    ("gpumpi", "bruck", 8, "default", 12, (24, 3, 6144)),
    ("gpumpi", "bruck", 8, "none", 12, (24, 3, 6144)),
    ("cusvmpi", None, 2, "default", 2, (4, 1, 12288)),
    ("cusvmpi", None, 2, "none", 2, (4, 1, 12288)),
    ("cusvmpi", None, 4, "default", 2, (16, 2, 24576)),
    ("cusvmpi", None, 4, "none", 2, (16, 2, 24576)),
    ("cusvmpi", None, 8, "default", 2, (48, 3, 36864)),
    ("cusvmpi", None, 8, "none", 2, (48, 3, 36864)),
]


class TestPinnedTraffic:
    @staticmethod
    def _angles():
        rng = np.random.default_rng(2024)
        return rng.uniform(0, 1, (3, 2)), rng.uniform(0, 1, (3, 2))

    @pytest.mark.parametrize(
        "backend,algorithm,n_ranks,optimize,n_traces,shape", PINNED_TRAFFIC)
    def test_traffic_traces(self, backend, algorithm, n_ranks, optimize,
                            n_traces, shape):
        kwargs = {"alltoall_algorithm": algorithm} if algorithm else {}
        sim = repro.simulator(8, terms=labs.get_terms(8), backend=backend,
                              n_ranks=n_ranks, optimize=optimize, **kwargs)
        sim.get_expectation_batch(*self._angles())
        assert len(sim.traffic_log) == n_traces
        for trace in sim.traffic_log:
            assert (trace.num_messages, trace.num_rounds,
                    trace.total_bytes) == shape

    @pytest.mark.parametrize("backend", ["gpumpi", "cusvmpi"])
    @pytest.mark.parametrize("n_ranks", [1, 2, 4, 8])
    @pytest.mark.parametrize("precision", ["double", "single"])
    def test_fused_states_equal_sharded(self, backend, n_ranks, precision):
        # gpumpi/cusvmpi are the sharded X simulator with one shard per
        # rank: only the exchange differs, never the arithmetic.
        terms = labs.get_terms(8)
        gammas, betas = self._angles()
        sim = repro.simulator(8, terms=terms, backend=backend,
                              n_ranks=n_ranks, precision=precision)
        sharded = repro.simulator(8, terms=terms, backend="sharded",
                                  n_shards=n_ranks, precision=precision)
        for a, b in zip(sim.simulate_qaoa_batch(gammas, betas),
                        sharded.simulate_qaoa_batch(gammas, betas)):
            assert np.array_equal(a.gather(), b.gather())


class TestValidation:
    def test_rank_count_must_be_power_of_two(self):
        with pytest.raises(ValueError):
            QAOAFURXSimulatorGPUMPI(8, terms=[(1.0, (0,))], n_ranks=3)

    def test_too_many_ranks_for_qubits(self):
        with pytest.raises(ValueError):
            QAOAFURXSimulatorGPUMPI(4, terms=[(1.0, (0,))], n_ranks=8)

    def test_unknown_alltoall_algorithm(self):
        with pytest.raises(ValueError):
            QAOAFURXSimulatorGPUMPI(8, terms=[(1.0, (0,))], n_ranks=4, alltoall_algorithm="magic")

    @pytest.mark.parametrize("algorithm, slabs", [
        ("direct", 1.5), ("pairwise", 2), ("ring", 2), ("bruck", 3)])
    def test_byte_guard_counts_alltoall_staging(self, algorithm, slabs):
        n, k = 8, 4
        sim = QAOAFURXSimulatorGPUMPI(n, terms=[(1.0, (0,))], n_ranks=k,
                                      alltoall_algorithm=algorithm)
        slab = (1 << n) * 16 // k
        assert sim._guarded_state_bytes() == int(slabs * slab)
