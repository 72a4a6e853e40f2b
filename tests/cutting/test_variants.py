"""Unit tests for the variant-enumeration ingredients."""

import numpy as np
import pytest

import repro
from repro.cutting import coefficient_matrix, conjugated_paulis
from repro.cutting.variants import (
    PAULIS,
    PREP_STATES,
    apply_one_qubit,
    preparation_maps,
    variant_digits,
    variant_tables,
)
from repro.testing import random_terms


def test_paulis_and_prep_states_are_what_they_claim():
    assert np.allclose(PAULIS[1] @ PAULIS[1], np.eye(2))
    assert np.allclose(PAULIS[2] @ PAULIS[2], np.eye(2))
    for state in PREP_STATES:
        assert np.isclose(np.vdot(state, state), 1.0)


def test_coefficient_matrix_reconstructs_every_pauli():
    """The defining identity: σ_m = Σ_s C[m, s] |s⟩⟨s|, exactly."""
    c = coefficient_matrix()
    for m in range(4):
        built = sum(c[m, s] * np.outer(PREP_STATES[s],
                                       PREP_STATES[s].conj())
                    for s in range(4))
        np.testing.assert_allclose(built, PAULIS[m], atol=1e-15)


@pytest.mark.parametrize("beta", [0.0, 0.3, -1.2, np.pi / 2])
def test_conjugated_paulis_undo_the_mixer_rotation(beta):
    """⟨ψ|σ̃|ψ⟩ must equal ⟨U†ψ|σ|U†ψ⟩ for U = exp(-iβX)."""
    sigmas = conjugated_paulis(beta)
    c, s = np.cos(beta), np.sin(beta)
    u = np.array([[c, -1j * s], [-1j * s, c]])
    rng = np.random.default_rng(5)
    psi = rng.normal(size=2) + 1j * rng.normal(size=2)
    psi /= np.linalg.norm(psi)
    pre = u.conj().T @ psi
    for m in range(4):
        lhs = np.vdot(psi, sigmas[m] @ psi)
        rhs = np.vdot(pre, PAULIS[m] @ pre)
        assert np.isclose(lhs, rhs, atol=1e-14)
        # σ̃ stays Hermitian, so the measured table is real
        np.testing.assert_allclose(sigmas[m], sigmas[m].conj().T, atol=1e-15)


def test_conjugated_paulis_at_zero_are_the_paulis():
    np.testing.assert_allclose(conjugated_paulis(0.0), PAULIS, atol=1e-15)


def test_apply_one_qubit_little_endian():
    # |00> --X on qubit 1--> |10> (index 2 little-endian)
    sv = np.zeros(4, dtype=complex)
    sv[0] = 1.0
    out = apply_one_qubit(sv, PAULIS[1], 1, 2)
    assert np.isclose(out[2], 1.0)
    out = apply_one_qubit(sv, PAULIS[1], 0, 2)
    assert np.isclose(out[1], 1.0)


def test_variant_digits_little_endian():
    assert variant_digits(0, 3) == (0, 0, 0)
    assert variant_digits(1, 3) == (1, 0, 0)   # cut 0 in the lowest digit
    assert variant_digits(4, 3) == (0, 1, 0)
    assert variant_digits(0b100100 + 2, 3) == (2, 1, 2)


def _prep_block(n_qubits, n_slots):
    """Per-variant initial states: |+> on the low qubits, variant v's slot
    i (qubit n - k + i) in PREP_STATES[digit i of v]."""
    n_own = n_qubits - n_slots
    plus = np.full(2 ** n_own, 2.0 ** (-n_own / 2), dtype=np.complex128)
    block = []
    for v in range(4 ** n_slots):
        sv = plus
        for digit in variant_digits(v, n_slots):
            sv = np.kron(PREP_STATES[digit], sv)  # slot above the last one
        block.append(sv)
    return np.array(block)


def _apply_slot_maps(psi, maps, variant, n_qubits, n_slots):
    for i, digit in enumerate(variant_digits(variant, n_slots)):
        psi = apply_one_qubit(psi, maps[digit], n_qubits - n_slots + i,
                              n_qubits)
    return psi


@pytest.mark.parametrize("backend", ["python", "jit"])
@pytest.mark.parametrize("n_slots", [1, 2])
def test_preparation_maps_reproduce_prep_evolution(backend, n_slots,
                                                   seeded_rng):
    """O_s ψ₊ on the slots is the p=1 evolution of prep state s."""
    n = 5
    terms = random_terms(seeded_rng, n, n_terms=2 * n, max_order=3)
    terms.append((0.4, (n - 1,)))  # a slot-only term
    gamma = float(seeded_rng.uniform(-1, 1))
    beta = float(seeded_rng.uniform(-1, 1))
    sim = repro.simulator(n, terms=terms, backend=backend)
    block = _prep_block(n, n_slots)
    plus = np.asarray(sim.get_statevector(sim.simulate_qaoa([gamma], [beta])))
    maps = preparation_maps(beta)
    for v, sv0 in enumerate(block):
        want = np.asarray(sim.get_statevector(
            sim.simulate_qaoa([gamma], [beta], sv0=sv0)))
        got = _apply_slot_maps(plus, maps, v, n, n_slots)
        np.testing.assert_allclose(got, want, atol=1e-12, err_msg=f"v={v}")


def test_preparation_maps_at_zero_scale_the_prep_diagonals():
    want = np.sqrt(2.0) * np.array([np.diag(s) for s in PREP_STATES])
    np.testing.assert_allclose(preparation_maps(0.0), want, atol=1e-15)


@pytest.mark.parametrize("n_cuts", [1, 2, 3])
def test_variant_tables_match_explicit_variants(n_cuts, seeded_rng):
    """Both table shapes against states built variant by variant: the
    conjugated-Pauli readout (Y = 1) and the per-slot prep maps (Y = 2^k),
    with the cut qubits on the top bits of a 5-qubit register."""
    n, k = 5, n_cuts
    d = 2 ** k
    psi = seeded_rng.normal(size=2 ** n) + 1j * seeded_rng.normal(size=2 ** n)
    psi /= np.linalg.norm(psi)
    rows = seeded_rng.normal(size=(3, 2 ** n))
    slices = psi.reshape(d, -1)
    beta = 0.37

    # observables off the cut bits: Y = 1, M[u, m] = <psi| e_u ⊗ σ̃_m |psi>
    own = rows[:, : 2 ** (n - k)]
    rho = np.einsum("ur,br,cr->ubc", own, slices.conj(), slices)
    got = variant_tables(rho[:, None], conjugated_paulis(beta)[:, None])
    sigmas = conjugated_paulis(beta)
    for m in range(4 ** k):
        phi = _apply_slot_maps(psi, sigmas, m, n, k)
        for u in range(3):
            want = np.vdot(psi, np.tile(own[u], d) * phi).real
            assert got[u, m] == pytest.approx(want, abs=1e-12)

    # observables on every bit: Y = 2^k, R[u, s] = <psi_s| e_u |psi_s>
    rho = np.einsum("uyr,br,cr->uybc", rows.reshape(3, d, -1),
                    slices.conj(), slices)
    maps = preparation_maps(beta)
    got = variant_tables(rho, np.einsum("syb,syc->sybc", maps.conj(), maps))
    for s in range(4 ** k):
        phi = _apply_slot_maps(psi, maps, s, n, k)
        want = rows @ (np.abs(phi) ** 2)
        np.testing.assert_allclose(got[:, s], want, atol=1e-12)
