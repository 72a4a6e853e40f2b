"""Tests for the simulator base class, initial states and angle validation."""

import numpy as np
import pytest

from repro.fur import base as B
from repro.fur.python import QAOAFURXSimulator


class TestInitialStates:
    def test_uniform_superposition(self):
        sv = B.uniform_superposition(5)
        assert sv.shape == (32,)
        np.testing.assert_allclose(sv, 1 / np.sqrt(32))
        assert np.linalg.norm(sv) == pytest.approx(1.0)

    def test_uniform_superposition_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            B.uniform_superposition(0)

    def test_dicke_state_support_and_norm(self):
        sv = B.dicke_state(5, 2)
        idx = np.flatnonzero(np.abs(sv) > 0)
        assert len(idx) == 10  # C(5, 2)
        assert all(bin(int(x)).count("1") == 2 for x in idx)
        assert np.linalg.norm(sv) == pytest.approx(1.0)

    def test_dicke_state_extremes(self):
        assert B.dicke_state(4, 0)[0] == pytest.approx(1.0)
        assert B.dicke_state(4, 4)[-1] == pytest.approx(1.0)
        with pytest.raises(ValueError):
            B.dicke_state(4, 5)


class TestValidateAngles:
    def test_accepts_equal_length(self):
        g, b = B.validate_angles([0.1, 0.2], (0.3, 0.4))
        assert g.shape == b.shape == (2,)

    def test_scalar_promoted(self):
        g, b = B.validate_angles(0.1, 0.2)
        assert g.shape == (1,)

    def test_rejects_mismatched_lengths(self):
        with pytest.raises(ValueError):
            B.validate_angles([0.1], [0.2, 0.3])

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            B.validate_angles([], [])

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            B.validate_angles([np.nan], [0.1])

    def test_rejects_matrices(self):
        with pytest.raises(ValueError):
            B.validate_angles([[0.1]], [[0.2]])


class TestConstructor:
    def test_terms_xor_costs_required(self):
        with pytest.raises(ValueError):
            QAOAFURXSimulator(3)
        with pytest.raises(ValueError):
            QAOAFURXSimulator(3, terms=[(1.0, (0,))], costs=np.zeros(8))

    def test_nonpositive_qubits_rejected(self):
        with pytest.raises(ValueError):
            QAOAFURXSimulator(0, terms=[(1.0, (0,))])

    def test_huge_qubit_count_rejected(self):
        with pytest.raises(ValueError):
            QAOAFURXSimulator(40, terms=[(1.0, (0,))])

    def test_costs_shape_checked(self):
        with pytest.raises(ValueError):
            QAOAFURXSimulator(3, costs=np.zeros(5))

    def test_costs_array_accepted(self):
        costs = np.arange(8, dtype=float)
        sim = QAOAFURXSimulator(3, costs=costs)
        np.testing.assert_allclose(sim.get_cost_diagonal(), costs)
        assert sim.terms is None

    def test_integer_costs_held_as_float64(self):
        """Integer costs become the read-only float64 vector; the compact
        form is the phase table's uint16 index."""
        costs = np.array([bin(x).count("1") for x in range(64)], dtype=np.uint16)
        sim = QAOAFURXSimulator(6, costs=costs)
        held = sim.get_cost_diagonal()
        assert held.dtype == np.float64 and not held.flags.writeable
        np.testing.assert_array_equal(held, costs)
        table = sim._diagonal_phase_table()
        assert table.inverse.dtype == np.uint16
        np.testing.assert_array_equal(table.unique_values[table.inverse], costs)

    def test_terms_retrievable(self):
        terms = [(1.0, (0, 1)), (0.5, (2,))]
        sim = QAOAFURXSimulator(3, terms=terms)
        assert sim.terms == [(1.0, (0, 1)), (0.5, (2,))]
        assert sim.n_qubits == 3
        assert sim.n_states == 8

    def test_out_of_range_term_rejected(self):
        with pytest.raises(ValueError):
            QAOAFURXSimulator(3, terms=[(1.0, (7,))])


class TestOutputHelpers:
    def test_resolve_costs_validation(self):
        sim = QAOAFURXSimulator(3, terms=[(1.0, (0, 1))])
        res = sim.simulate_qaoa([0.1], [0.2])
        with pytest.raises(ValueError):
            sim.get_expectation(res, costs=np.zeros(4))

    def test_custom_costs_override(self):
        sim = QAOAFURXSimulator(3, terms=[(1.0, (0, 1))])
        res = sim.simulate_qaoa([0.1], [0.2])
        # constant costs -> expectation equals the constant
        assert sim.get_expectation(res, costs=np.full(8, 2.5)) == pytest.approx(2.5)

    def test_overlap_with_explicit_indices(self):
        sim = QAOAFURXSimulator(3, terms=[(1.0, (0,))])
        res = sim.simulate_qaoa([0.0], [0.0])
        # state is still |+>^3: each basis state has probability 1/8
        assert sim.get_overlap(res, indices=[0, 1]) == pytest.approx(0.25)

    def test_overlap_index_validation(self):
        sim = QAOAFURXSimulator(3, terms=[(1.0, (0,))])
        res = sim.simulate_qaoa([0.1], [0.1])
        with pytest.raises(ValueError):
            sim.get_overlap(res, indices=[])
        with pytest.raises(ValueError):
            sim.get_overlap(res, indices=[100])

    def test_invalid_sv0_shape(self):
        sim = QAOAFURXSimulator(3, terms=[(1.0, (0,))])
        with pytest.raises(ValueError):
            sim.simulate_qaoa([0.1], [0.1], sv0=np.zeros(4))

    def test_sv0_not_mutated(self):
        sim = QAOAFURXSimulator(3, terms=[(1.0, (0,))])
        sv0 = np.full(8, 1 / np.sqrt(8), dtype=np.complex128)
        sv0_copy = sv0.copy()
        sim.simulate_qaoa([0.3], [0.4], sv0=sv0)
        np.testing.assert_array_equal(sv0, sv0_copy)
