"""Tests for the driver-level alltoall algorithms and traffic accounting."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.parallel import (
    ALLTOALL_ALGORITHMS,
    TrafficTrace,
    alltoall,
)


def make_buffers(rng, size, chunk):
    return [rng.normal(size=size * chunk) for _ in range(size)]


class TestAlltoallAlgorithms:
    @pytest.mark.parametrize("algorithm", sorted(ALLTOALL_ALGORITHMS))
    @pytest.mark.parametrize("size,chunk", [(2, 1), (4, 3), (8, 2)])
    def test_transposition_semantics(self, rng, algorithm, size, chunk):
        buffers = make_buffers(rng, size, chunk)
        out, _ = alltoall(buffers, algorithm)
        for dst in range(size):
            for src in range(size):
                np.testing.assert_allclose(
                    out[dst][src * chunk:(src + 1) * chunk],
                    buffers[src][dst * chunk:(dst + 1) * chunk],
                )

    @pytest.mark.parametrize("algorithm", sorted(ALLTOALL_ALGORITHMS))
    def test_double_application_is_identity(self, rng, algorithm):
        buffers = make_buffers(rng, 4, 4)
        once, _ = alltoall(buffers, algorithm)
        twice, _ = alltoall(once, algorithm)
        for a, b in zip(twice, buffers):
            np.testing.assert_allclose(a, b)

    @given(st.integers(min_value=0, max_value=3), st.integers(min_value=1, max_value=4),
           st.integers(min_value=0, max_value=2 ** 31 - 1))
    @settings(max_examples=30, deadline=None)
    def test_property_all_algorithms_agree(self, k, chunk, seed):
        size = 1 << k
        rng = np.random.default_rng(seed)
        buffers = make_buffers(rng, size, chunk)
        reference, _ = alltoall(buffers, "direct")
        for algorithm in ALLTOALL_ALGORITHMS:
            out, _ = alltoall(buffers, algorithm)
            for a, b in zip(out, reference):
                np.testing.assert_allclose(a, b)

    def test_unknown_algorithm(self):
        with pytest.raises(ValueError):
            alltoall([np.zeros(4)], "carrier-pigeon")

    def test_validation_errors(self):
        with pytest.raises(ValueError):
            alltoall([], "direct")
        with pytest.raises(ValueError):
            alltoall([np.zeros(4), np.zeros(6)], "direct")
        with pytest.raises(ValueError):
            alltoall([np.zeros(3), np.zeros(3)], "direct")
        with pytest.raises(ValueError):
            alltoall([np.zeros((2, 2)), np.zeros((2, 2))], "direct")

    def test_power_of_two_requirement(self):
        buffers = [np.zeros(3) for _ in range(3)]
        with pytest.raises(ValueError):
            alltoall(buffers, "pairwise")
        with pytest.raises(ValueError):
            alltoall(buffers, "bruck")
        # ring and direct accept any size
        alltoall(buffers, "ring")
        alltoall(buffers, "direct")


class TestTrafficAccounting:
    def test_direct_traffic_volume(self, rng):
        size, chunk = 8, 4
        buffers = make_buffers(rng, size, chunk)
        _, trace = alltoall(buffers, "direct")
        assert trace.total_bytes == size * (size - 1) * chunk * 8
        assert trace.num_rounds == 1
        assert trace.num_messages == size * (size - 1)
        assert trace.max_bytes_per_rank() == (size - 1) * chunk * 8

    def test_pairwise_and_ring_same_volume_more_rounds(self, rng):
        size, chunk = 8, 2
        buffers = make_buffers(rng, size, chunk)
        _, direct = alltoall(buffers, "direct")
        _, pairwise = alltoall(buffers, "pairwise")
        _, ring = alltoall(buffers, "ring")
        assert pairwise.total_bytes == direct.total_bytes
        assert ring.total_bytes == direct.total_bytes
        assert pairwise.num_rounds == size - 1
        assert ring.num_rounds == size - 1

    def test_bruck_fewer_rounds_more_bytes(self, rng):
        size, chunk = 16, 2
        buffers = make_buffers(rng, size, chunk)
        _, direct = alltoall(buffers, "direct")
        _, bruck = alltoall(buffers, "bruck")
        assert bruck.num_rounds == 4  # log2(16)
        assert bruck.total_bytes > direct.total_bytes

    def test_trace_ignores_self_and_empty_messages(self):
        trace = TrafficTrace()
        trace.add(0, 0, 100, 0)
        trace.add(0, 1, 0, 0)
        trace.add(0, 1, 10, 0)
        assert trace.num_messages == 1
        assert trace.total_bytes == 10

    def test_empty_trace(self):
        trace = TrafficTrace()
        assert trace.total_bytes == 0
        assert trace.num_rounds == 0
        assert trace.max_bytes_per_rank() == 0

