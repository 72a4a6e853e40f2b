"""The memory-traffic cost model that prices plan ops in bytes."""

import pytest

from repro.fur.costmodel import PlanCostModel
from repro.fur.rewrite import (
    ExpectationOp,
    FusedMixerExpectationOp,
    FusedPhaseMixerOp,
    MixerOp,
    PhaseOp,
)
from repro.parallel.perfmodel import PerformanceModel


@pytest.fixture
def model():
    return PlanCostModel(n_qubits=8)


class TestOpPrices:
    def test_prices_are_positive_integers(self, model):
        ops = [PhaseOp(0), MixerOp(0), FusedPhaseMixerOp(0),
               FusedMixerExpectationOp(0), ExpectationOp()]
        for op in ops:
            price = model.op_bytes(op)
            assert isinstance(price, int) and price > 0

    def test_fused_ops_are_cheaper_than_their_parts(self, model):
        split = model.op_bytes(PhaseOp(0)) + model.op_bytes(MixerOp(0))
        assert model.op_bytes(FusedPhaseMixerOp(0)) < split
        tail = model.op_bytes(MixerOp(0)) + model.op_bytes(ExpectationOp())
        assert model.op_bytes(FusedMixerExpectationOp(0)) < tail

    def test_trotterization_scales_mixer_cost(self, model):
        assert model.op_bytes(MixerOp(0, n_trotters=3)) == 3 * model.op_bytes(MixerOp(0))

    @pytest.mark.parametrize("single_pass,expected", [
        (False, [8704, 65536, 66048, 66048, 66560, 4608]),
        (True, [8704, 8192, 8704, 8704, 9216, 4608]),
    ])
    def test_single_rank_prices_are_pinned(self, single_pass, expected):
        # 2^8 states, complex128 state, uint16 diagonal (the defaults); the
        # per-op ledgers divide measured seconds into exactly these numbers
        model = PlanCostModel(8, single_pass_mixer=single_pass)
        ops = [PhaseOp(0), MixerOp(0), FusedPhaseMixerOp(0),
               FusedMixerExpectationOp(0),
               FusedMixerExpectationOp(0, with_phase=True), ExpectationOp()]
        assert [model.op_bytes(op) for op in ops] == expected

    @pytest.mark.parametrize("n,sweeps,expectation_sweeps", [
        (8, 1, 1), (11, 1, 1), (12, 2, 2), (13, 2, 3), (16, 2, 3),
        (18, 2, 3)])
    def test_single_pass_mixer_prices_the_sweeps_the_kernel_makes(
            self, n, sweeps, expectation_sweeps):
        # one tiled read-modify-write sweep covers the 11 tile qubits, one
        # column-grouped sweep every higher one; the fused expectation's
        # last stride is a sweep of its own, reading the costs as it goes
        model = PlanCostModel(n, single_pass_mixer=True)
        states = 1 << n
        sweep = 2 * model.model.state_bytes * states
        assert model.op_bytes(MixerOp(0)) == sweeps * sweep
        assert (model.op_bytes(FusedMixerExpectationOp(0))
                == expectation_sweeps * sweep
                + states * model.model.diag_bytes)

    def test_precision_enters_through_the_performance_model(self):
        perf = PerformanceModel(state_bytes=8, diag_bytes=4)
        model = PlanCostModel(10, perf, single_pass_mixer=True)
        states = 1 << 10
        assert model.op_bytes(PhaseOp(0)) == states * (2 * 8 + 4)
        assert model.op_bytes(ExpectationOp()) == states * (8 + 4)
