"""Tests for the jit backend: single-pass fused kernels and their fallback ladder.

Covers

* kernel parity against the python backend's multi-pass reference kernels
  within the established envelopes (1e-12 double / 1e-5 single) for every
  mixer, both phase modes (unique-value table gather and direct cos/sin),
  and the fused mixer+expectation reduction,
* the two rungs: the numpy path is exercised unconditionally (via
  ``REPRO_JIT_PATH``) so the suite pins the delegation contract even on
  machines where a C compiler is available; a failed C build (also with
  every compiler off ``PATH``, in a subprocess) falls to numpy with exactly
  one WARNING on the ``repro.fur.jit`` logger, as does an unrecognised
  ``REPRO_JIT_PATH`` before trying ``cc``,
* the on-disk library cache: a cached load names the compiler that built
  it (its ``.compiler`` sidecar), and a corrupt cached object is rebuilt
  once with one WARNING,
* ``ensure_kernels`` compile-time accounting (the C build seconds once per
  process, 0.0 after) and its flow into
  ``EngineStats.kernel_compile_time_s``,
* the ``REPRO_NUM_THREADS`` knob and ``effective_num_threads`` resolution,
  and the row pool's dispatch (every task finishes before a failure is
  re-raised, pool workers run nested kernels inline, a caller runs the
  tasks no pool thread has started, every task runs exactly once) and the
  one-row split, bitwise invariant under the pool size,
* registry integration: capability tiers and the ``describe()`` extra
  line reporting the active path,
* bitwise pins of the shared arithmetic: the X rotation is the
  two-rounding formula on every rung and bit position (the full mixer on
  the compiled rungs, through the column-grouped pass too), the phase a
  plain complex multiply, and no fused add/subtract in the compiled
  kernels,
* the ``cc`` rung's direct phase: its vectorized sin/cos within 2 ulp of
  libm up to ``_PHASE_DIRECT_LIMIT`` (sweeps, k·π/4 ± 1 ulp, ±0,
  subnormals), libm's bits above it, span-independent bits, and every
  phase-carrying kernel's states against the numpy rung,
* edge/argument validation (bad XY kind or edges, non-contiguous blocks,
  phase without table or costs) and XY edge-order equivalence with the ordered
  ``python`` kernels.
"""

import json
import logging
import math
import os
import re
import shutil
import subprocess
import sys
import threading
import time

import numpy as np
import pytest

import repro
import repro.fur as fur
from repro.fur.diagonal import build_phase_table
from repro.fur.jit import kernels
from repro.fur.python import kernels as np_kernels
from repro.fur.python.furx import furx_all_batch, furx_phase_all_batch
from repro.fur.python.furxy import (
    complete_edges,
    furxy_complete,
    furxy_ring,
    ring_edges,
)
from repro.problems import labs

PRECISIONS = ("double", "single")
DTYPES = {"double": np.complex128, "single": np.complex64}
ATOL = {"double": 1e-12, "single": 1e-5}

#: The resolved path plus the numpy delegation path; identical on machines
#: without a compiler (both cheap, so just run both).
PATHS = ("active", "numpy")


@pytest.fixture(params=PATHS)
def jit_path(request, monkeypatch):
    """Run the test body on one implementation path, restoring afterwards."""
    if request.param == "numpy":
        monkeypatch.setenv("REPRO_JIT_PATH", "numpy")
    else:
        monkeypatch.delenv("REPRO_JIT_PATH", raising=False)
    kernels._reset_path_cache()
    yield kernels.active_path()
    kernels._reset_path_cache()


def random_block(rng, rows, n_qubits, dtype):
    shape = (rows, 1 << n_qubits)
    block = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    block /= np.linalg.norm(block, axis=1, keepdims=True)
    return np.ascontiguousarray(block.astype(dtype))


def labs_costs(n_qubits):
    sim = repro.simulator(n_qubits, terms=labs.get_terms(n_qubits),
                          backend="python")
    return np.asarray(sim.get_cost_diagonal(), dtype=np.float64)


class TestFurxKernels:
    N = 6
    ROWS = 5

    @pytest.mark.parametrize("precision", PRECISIONS)
    @pytest.mark.parametrize("phase_mode", ["table", "costs", "none"])
    def test_fused_phase_mixer_matches_python(self, rng, jit_path, precision,
                                              phase_mode):
        dtype, atol = DTYPES[precision], ATOL[precision]
        costs = labs_costs(self.N)  # float64 at both precisions
        block = random_block(rng, self.ROWS, self.N, dtype)
        expected = block.copy()
        gammas = np.linspace(0.1, 0.9, self.ROWS)
        betas = np.linspace(-0.7, 0.6, self.ROWS)
        table = build_phase_table(costs)
        assert table is not None  # LABS diagonals have few unique values
        scratch = np.empty_like(expected)
        if phase_mode == "none":
            kernels.furx_block(block, betas)
            furx_all_batch(expected, betas, self.N, scratch=scratch)
        elif phase_mode == "table":
            kernels.furx_phase_block(block, gammas, betas, phase_table=table)
            furx_phase_all_batch(expected, gammas, betas, self.N,
                                 phase_table=table, scratch=scratch)
        else:
            kernels.furx_phase_block(block, gammas, betas, costs=costs)
            furx_phase_all_batch(expected, gammas, betas, self.N,
                                 costs=costs, scratch=scratch)
        np.testing.assert_allclose(block, expected, atol=atol)

    @pytest.mark.parametrize("precision", PRECISIONS)
    def test_small_tile_matches_default_tile(self, rng, jit_path, precision):
        """Tiling is an implementation detail: tile_q must not change values."""
        dtype, atol = DTYPES[precision], ATOL[precision]
        block = random_block(rng, 3, self.N, dtype)
        reference = block.copy()
        betas = np.array([0.3, -0.2, 0.85])
        kernels.furx_block(block, betas, tile_q=2)
        kernels.furx_block(reference, betas)
        np.testing.assert_allclose(block, reference, atol=atol)

    @pytest.mark.parametrize("precision", PRECISIONS)
    def test_fused_expectation_matches_separate(self, rng, jit_path,
                                                precision):
        dtype, atol = DTYPES[precision], ATOL[precision]
        costs = labs_costs(self.N)
        block = random_block(rng, self.ROWS, self.N, dtype)
        expected_block = block.copy()
        gammas = np.linspace(-0.4, 0.8, self.ROWS)
        betas = np.linspace(0.2, 1.1, self.ROWS)
        table = build_phase_table(costs)
        out = kernels.furx_expectation_block(block, gammas, betas, costs,
                                             phase_table=table)
        scratch = np.empty_like(expected_block)
        furx_phase_all_batch(expected_block, gammas, betas, self.N,
                             phase_table=table, scratch=scratch)
        # the block still holds the evolved state, and the reduction is the
        # plain per-row sum of c|psi|^2 over that state
        np.testing.assert_allclose(block, expected_block, atol=atol)
        np.testing.assert_allclose(
            out, (np.abs(expected_block.astype(np.complex128)) ** 2) @ costs,
            atol=10 * atol)
        assert out.dtype == np.float64

    def test_expectation_reduction_accuracy_large_block(self, rng, jit_path):
        """The chunked accumulation keeps the reduction inside the envelope."""
        n = 10
        costs = labs_costs(n)
        block = random_block(rng, 2, n, np.complex128)
        out = kernels.expectation_block(block, costs)
        expected = np.einsum("rx,x->r", np.abs(block) ** 2, costs)
        np.testing.assert_allclose(out, expected, rtol=1e-12)


def two_rounding_rotation(block, betas, positions):
    """The X butterfly ``c·a ± s·b`` in plain numpy real arithmetic: every
    product and every sum rounded once, in the block's precision."""
    real = block.real.dtype
    out = block.copy()
    cs, ss = np.cos(betas).astype(real), np.sin(betas).astype(real)
    for row, c, s in zip(out, cs, ss):
        for q in positions:
            view = row.reshape(-1, 2, 1 << q)
            a, b = view[:, 0].copy(), view[:, 1].copy()
            view[:, 0].real = c * a.real + s * b.imag
            view[:, 0].imag = c * a.imag - s * b.real
            view[:, 1].real = c * b.real + s * a.imag
            view[:, 1].imag = c * b.imag - s * a.real
    return out


class TestKernelArithmetic:
    """Bitwise pins of the arithmetic every provider shares.

    ``rotate_x_block`` equals the two-rounding formula on every rung and at
    every bit position — what makes the sharded backends' relabelled
    global rotations reproduce the unsharded bits.  ``furx_block`` is that
    formula on the compiled rungs and the python backend's gemm passes on
    the numpy rung.  The compiled phase is the two-rounding complex
    multiply; the numpy rung's phase is numpy's own complex multiply (which
    may fuse one product per component).
    """

    N = 9

    @pytest.mark.parametrize("precision", PRECISIONS)
    @pytest.mark.parametrize("tile_q", [kernels.DEFAULT_TILE_QUBITS, 2])
    def test_furx_block_is_the_two_rounding_formula(self, rng, jit_path,
                                                    precision, tile_q):
        # tile_q=2 sends strides 2..8 through the column-grouped pass
        block = random_block(rng, 3, self.N, DTYPES[precision])
        betas = rng.uniform(-1.5, 1.5, 3)
        if jit_path == "numpy":
            expected = furx_all_batch(block.copy(), betas, self.N)
        else:
            expected = two_rounding_rotation(block, betas, range(self.N))
        kernels.furx_block(block, betas, tile_q=tile_q)
        assert np.array_equal(block, expected)

    @pytest.mark.parametrize("precision", PRECISIONS)
    @pytest.mark.parametrize("positions", [[8], [0, 5, 2], [7, 8, 0, 1],
                                           list(range(9))])
    def test_rotate_x_block_is_the_two_rounding_formula(
            self, rng, jit_path, precision, positions):
        block = random_block(rng, 3, self.N, DTYPES[precision])
        betas = rng.uniform(-1.5, 1.5, 3)
        expected = two_rounding_rotation(block, betas, positions)
        kernels.rotate_x_block(block, betas, positions)
        assert np.array_equal(block, expected)

    @pytest.mark.parametrize("precision", PRECISIONS)
    def test_phase_block_is_a_plain_complex_multiply(self, rng, jit_path,
                                                     precision):
        dtype = DTYPES[precision]
        costs = labs_costs(self.N)
        table = build_phase_table(costs)
        block = random_block(rng, 3, self.N, dtype)
        gammas = rng.uniform(-1.0, 1.0, 3)
        f = table.factors_batch(gammas, dtype=dtype)[:, table.inverse]
        if jit_path == "numpy":
            expected = block * f
        else:
            expected = np.empty_like(block)
            expected.real = block.real * f.real - block.imag * f.imag
            expected.imag = block.real * f.imag + block.imag * f.real
        kernels.phase_block(block, gammas, phase_table=table)
        assert np.array_equal(block, expected)

    @pytest.mark.parametrize("precision", PRECISIONS)
    def test_fused_phase_rotation_is_phase_then_rotation(self, rng, jit_path,
                                                         precision):
        costs = labs_costs(self.N)
        table = build_phase_table(costs)
        block = random_block(rng, 2, self.N, DTYPES[precision])
        gammas, betas = rng.uniform(-1.0, 1.0, (2, 2))
        expected = block.copy()
        kernels.phase_block(expected, gammas, phase_table=table)
        kernels.rotate_x_block(expected, betas, [3, 8])
        kernels.rotate_x_block(block, betas, [3, 8], gammas=gammas,
                               phase_table=table)
        assert np.array_equal(block, expected)

    def test_positions_validated(self, rng, jit_path):
        block = random_block(rng, 1, 3, np.complex128)
        with pytest.raises(ValueError, match="bit positions"):
            kernels.rotate_x_block(block, np.array([0.1]), [3])

    def test_compiled_kernels_fuse_no_add_subtract(self):
        # Shard-count invariance rests on every butterfly rounding its two
        # products apart.  The vectorizer fuses an alternating
        # c*ai - s*br / c*ar + s*bi into vfmaddsub/vfmsubadd; the sign-folded
        # butterfly gives it none, and the shared object must hold none.
        objdump = shutil.which("objdump")
        if objdump is None or kernels.active_path() != "cc":
            pytest.skip("needs objdump and the cc rung")
        lib_path = kernels._load_clib()._name
        listing = subprocess.run([objdump, "-d", lib_path], check=True,
                                 capture_output=True, text=True).stdout
        assert "<jit_rotx_f64>:" in listing
        assert re.findall(r"\bvfm(?:addsub|subadd)\w*", listing) == []


def _ulp_distance(a, b):
    """Units in the last place between float64 arrays (±0 count as equal)."""
    def key(x):
        bits = np.ascontiguousarray(x, dtype=np.float64).view(np.int64)
        return np.where(bits < 0, np.int64(-2 ** 63) - bits, bits)
    return np.abs(key(a) - key(b))


def _direct_factors(theta, gamma):
    """The ``cc`` direct phase's factors ``exp(-i γ c)`` for ``c = theta``,
    read off a block of ``1 - 0j`` (the multiply then keeps every bit of
    the factor, the sign of a zero sine included)."""
    size = 1 << max(1, int(np.ceil(np.log2(theta.size))))
    costs = np.zeros(size)
    costs[:theta.size] = theta
    block = np.full((1, size), complex(1.0, -0.0))
    kernels.phase_block(block, np.array([gamma]), costs=costs)
    return block[0, :theta.size]


def _libm_factors(theta, gamma):
    angles = (-gamma * theta).tolist()
    return (np.array([math.cos(a) for a in angles]),
            np.array([math.sin(a) for a in angles]))


class TestDirectPhase:
    """The ``cc`` rung's direct phase (no phase table): its branch-free
    sin/cos is within 2 ulp of libm up to ``_PHASE_DIRECT_LIMIT``, angles
    beyond it get libm's bits, and its states match the numpy rung."""

    LIMIT = kernels._PHASE_DIRECT_LIMIT

    @pytest.fixture(autouse=True)
    def _cc_only(self):
        if kernels.active_path() != "cc":
            pytest.skip("the direct sin/cos is the cc rung's")

    @pytest.mark.parametrize("gamma", [1.0, -1.0])
    def test_within_two_ulp_of_libm(self, gamma):
        rng = np.random.default_rng(21)
        k_top = int(self.LIMIT // (math.pi / 4))
        ks = [k for k in range(-64, 65)] + list(range(k_top - 64, k_top + 1))
        near = [np.nextafter(k * math.pi / 4, side)
                for k in ks + [-k for k in ks] for side in (-np.inf, np.inf)]
        near += [k * math.pi / 4 for k in ks]
        theta = np.concatenate([
            np.linspace(-self.LIMIT, self.LIMIT, (1 << 16) + 1),
            rng.uniform(-8.0, 8.0, 1 << 14),
            np.exp(rng.uniform(-30.0, math.log(self.LIMIT), 1 << 14))
            * rng.choice([-1.0, 1.0], 1 << 14),
            near,
            [5e-324, -5e-324, 1e-310, -2.2e-308],
        ])
        assert np.abs(theta).max() <= self.LIMIT
        f = _direct_factors(theta, gamma)
        cos, sin = _libm_factors(theta, gamma)
        assert _ulp_distance(f.real, cos).max() <= 2
        assert _ulp_distance(f.imag, sin).max() <= 2
        # the reduced angle's double-double tail keeps most factors on
        # libm's bits: ~6% differ here, ~29% without the tail
        assert np.mean((f.real != cos) | (f.imag != sin)) <= 0.1

    @pytest.mark.parametrize("gamma", [1.0, -1.0])
    def test_signed_zero_and_subnormal_angles_are_exact(self, gamma):
        theta = np.array([0.0, -0.0, 5e-324, -5e-324, 1e-310, -2.2e-308])
        f = _direct_factors(theta, gamma)
        cos, sin = _libm_factors(theta, gamma)
        assert np.array_equal(f.real, cos)
        assert np.array_equal(f.imag, sin)
        assert np.array_equal(np.signbit(f.imag), np.signbit(sin))

    @pytest.mark.parametrize("gamma", [1.0, -1.0])
    def test_libm_bits_above_the_limit(self, gamma):
        rng = np.random.default_rng(22)
        big = np.concatenate([
            [np.nextafter(self.LIMIT, np.inf), 2.0 ** 20 * math.pi, 1e300],
            rng.uniform(self.LIMIT, 1e9, 256)])
        big *= rng.choice([-1.0, 1.0], big.size)
        small = rng.uniform(-50.0, 50.0, 1024)
        mixed = small.copy()
        at = rng.choice(small.size, big.size, replace=False)
        mixed[at] = big
        f = _direct_factors(mixed, gamma)
        cos, sin = _libm_factors(mixed, gamma)
        assert np.array_equal(f.real[at], cos[at])
        assert np.array_equal(f.imag[at], sin[at])
        # the in-range angles of a mixed span keep the bits they get in a
        # span of their own
        rest = np.setdiff1d(np.arange(small.size), at)
        alone = _direct_factors(small, gamma)
        assert np.array_equal(f[rest], alone[rest])
        assert np.array_equal(_direct_factors(big, gamma).real, cos[at])

    @pytest.mark.parametrize("precision", PRECISIONS)
    @pytest.mark.parametrize("kernel", ["phase", "furx_phase",
                                        "furx_expectation", "furxy"])
    def test_states_match_the_numpy_rung(self, rng, monkeypatch, precision,
                                         kernel):
        n, rows = 10, 3
        dtype, atol = DTYPES[precision], ATOL[precision]
        costs = rng.normal(scale=4.0, size=1 << n)
        assert build_phase_table(costs) is None
        gammas = np.array([0.4, -1.3, 2.9])
        betas = np.array([0.3, -0.7, 1.1])
        start = random_block(rng, rows, n, dtype)

        def run():
            block = start.copy()
            values = None
            if kernel == "phase":
                kernels.phase_block(block, gammas, costs=costs)
            elif kernel == "furx_phase":
                kernels.furx_phase_block(block, gammas, betas, costs=costs)
            elif kernel == "furx_expectation":
                values = kernels.furx_expectation_block(
                    block, gammas, betas, costs, costs=costs)
            else:
                kernels.furxy_block(block, gammas, betas, costs=costs,
                                    edges=kernels.mixer_edges("ring", n))
            return block, values

        compiled, compiled_values = run()
        monkeypatch.setenv("REPRO_JIT_PATH", "numpy")
        kernels._reset_path_cache()
        try:
            expected, expected_values = run()
        finally:
            monkeypatch.delenv("REPRO_JIT_PATH")
            kernels._reset_path_cache()
        np.testing.assert_allclose(compiled, expected, rtol=0, atol=atol)
        if expected_values is not None:
            np.testing.assert_allclose(compiled_values, expected_values,
                                       rtol=0, atol=atol * np.abs(costs).max())


class TestFurxyKernels:
    N = 5
    ROWS = 4

    @pytest.mark.parametrize("precision", PRECISIONS)
    @pytest.mark.parametrize("kind", ["ring", "complete"])
    @pytest.mark.parametrize("n_trotters", [1, 3])
    def test_matches_python_ordered_product(self, rng, jit_path, precision,
                                            kind, n_trotters):
        dtype, atol = DTYPES[precision], ATOL[precision]
        costs = labs_costs(self.N)
        block = random_block(rng, self.ROWS, self.N, dtype)
        expected = block.copy()
        gammas = np.linspace(0.15, 0.75, self.ROWS)
        betas = np.linspace(-0.5, 0.9, self.ROWS)
        table = build_phase_table(costs)
        kernels.furxy_block(block, gammas, betas,
                            edges=kernels.mixer_edges(kind, self.N),
                            n_trotters=n_trotters, phase_table=table)
        factors = table.factors_batch(gammas, dtype=dtype)
        for r in range(self.ROWS):
            expected[r] *= factors[r][table.inverse]
        apply = furxy_ring if kind == "ring" else furxy_complete
        for row, beta in zip(expected, betas):
            for _ in range(n_trotters):
                apply(row, beta / n_trotters, self.N)
        np.testing.assert_allclose(block, expected, atol=atol)

    def test_edge_order_matches_python_kernels(self):
        for kind, reference in (("ring", ring_edges),
                                ("complete", complete_edges)):
            edges = kernels.mixer_edges(kind, self.N)
            expected = [(min(i, j), max(i, j)) for i, j in reference(self.N)]
            assert [tuple(e) for e in edges.tolist()] == expected
            assert edges.dtype == np.int64

    def test_bad_kind_rejected(self):
        with pytest.raises(ValueError, match="ring"):
            kernels.mixer_edges("star", self.N)

    @pytest.mark.parametrize("edges", [[(0, 0)], [(1, 3)], [(-1, 2)]])
    def test_bad_edges_rejected(self, rng, jit_path, edges):
        block = random_block(rng, 1, 3, np.complex128)
        with pytest.raises(ValueError, match="distinct qubits"):
            kernels.furxy_block(block, None, np.array([0.1]), edges=edges)


class TestPhaseAndValidation:
    @pytest.mark.parametrize("precision", PRECISIONS)
    def test_phase_block_direct_costs(self, rng, jit_path, precision):
        dtype, atol = DTYPES[precision], ATOL[precision]
        n, rows = 6, 3
        costs = labs_costs(n)
        block = random_block(rng, rows, n, dtype)
        gammas = np.array([0.2, -0.9, 1.4])
        expected = block * np.exp(-1j * gammas[:, None] * costs[None, :])
        kernels.phase_block(block, gammas, costs=costs)
        np.testing.assert_allclose(block, expected.astype(dtype), atol=atol)

    def test_phase_without_table_or_costs_rejected(self, rng, jit_path):
        block = random_block(rng, 1, 3, np.complex128)
        with pytest.raises(ValueError, match="phase_table or costs"):
            kernels.phase_block(block, np.array([0.3]))

    def test_non_contiguous_block_rejected(self, rng):
        block = random_block(rng, 4, 3, np.complex128)[:, ::2]
        with pytest.raises(ValueError, match="C-contiguous"):
            kernels.furx_block(block, np.zeros(4))
        with pytest.raises(ValueError, match="C-contiguous"):
            kernels.furx_block(random_block(rng, 2, 3, np.complex128)[0],
                               np.zeros(1))

    def test_non_power_of_two_block_rejected(self):
        block = np.zeros((2, 6), dtype=np.complex128)
        with pytest.raises(ValueError, match="power of two"):
            kernels.furx_block(block, np.zeros(2))


class TestPathLadderAndCompileAccounting:
    def test_active_path_is_known(self):
        kernels._reset_path_cache()
        assert kernels.KNOWN_PATHS == ("cc", "numpy")
        assert kernels.active_path() in kernels.KNOWN_PATHS

    def test_forced_numpy_path(self, monkeypatch):
        monkeypatch.setenv("REPRO_JIT_PATH", "numpy")
        kernels._reset_path_cache()
        try:
            assert kernels.active_path() == "numpy"
            assert kernels.effective_num_threads() == 1
        finally:
            kernels._reset_path_cache()

    def test_unknown_forced_path_falls_back_to_ladder(self, monkeypatch,
                                                      caplog):
        monkeypatch.delenv("REPRO_JIT_PATH", raising=False)
        kernels._reset_path_cache()
        auto = kernels.active_path()
        monkeypatch.setenv("REPRO_JIT_PATH", "quantum-accelerator")
        kernels._reset_path_cache()
        try:
            with caplog.at_level(logging.WARNING, logger="repro.fur.jit"):
                assert kernels.active_path() == auto
                assert kernels.active_path() == auto
        finally:
            kernels._reset_path_cache()
        records = [r for r in caplog.records if r.name == "repro.fur.jit"
                   and "REPRO_JIT_PATH" in r.getMessage()]
        assert len(records) == 1
        assert records[0].levelno == logging.WARNING
        message = records[0].getMessage()
        assert "'quantum-accelerator'" in message
        assert "cc|numpy|auto" in message

    def test_failed_c_build_warns_once(self, monkeypatch, caplog):
        def broken_build():
            raise RuntimeError("no C compiler found (tried cc, gcc, clang)")

        monkeypatch.delenv("REPRO_JIT_PATH", raising=False)
        monkeypatch.setattr(kernels, "_clib", None)
        monkeypatch.setattr(kernels, "_clib_error", None)
        monkeypatch.setattr(kernels, "_build_clib", broken_build)
        kernels._reset_path_cache()
        try:
            with caplog.at_level(logging.WARNING, logger="repro.fur.jit"):
                assert kernels.active_path() == "numpy"
                assert kernels.active_path() == "numpy"
                assert kernels.active_path() == "numpy"
        finally:
            kernels._reset_path_cache()
        records = [r for r in caplog.records if r.name == "repro.fur.jit"]
        assert len(records) == 1
        assert records[0].levelno == logging.WARNING
        message = records[0].getMessage()
        assert "numpy" in message and "no C compiler found" in message

    def test_racing_first_calls_warn_once(self, monkeypatch, caplog):
        n_threads = 8
        barrier = threading.Barrier(n_threads)

        def slow_broken_build():
            time.sleep(0.05)  # keep the other callers queued behind the build
            raise RuntimeError("no C compiler found (tried cc, gcc, clang)")

        def first_call(results, i):
            barrier.wait()
            results[i] = kernels.active_path()

        monkeypatch.delenv("REPRO_JIT_PATH", raising=False)
        monkeypatch.setattr(kernels, "_clib", None)
        monkeypatch.setattr(kernels, "_clib_error", None)
        monkeypatch.setattr(kernels, "_build_clib", slow_broken_build)
        kernels._reset_path_cache()
        results = [None] * n_threads
        try:
            with caplog.at_level(logging.WARNING, logger="repro.fur.jit"):
                threads = [threading.Thread(target=first_call,
                                            args=(results, i))
                           for i in range(n_threads)]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join()
        finally:
            kernels._reset_path_cache()
        assert results == ["numpy"] * n_threads
        records = [r for r in caplog.records if r.name == "repro.fur.jit"]
        assert len(records) == 1

    def test_forced_numpy_path_logs_nothing(self, monkeypatch, caplog):
        monkeypatch.setenv("REPRO_JIT_PATH", "numpy")
        kernels._reset_path_cache()
        try:
            with caplog.at_level(logging.DEBUG, logger="repro.fur.jit"):
                assert kernels.active_path() == "numpy"
        finally:
            kernels._reset_path_cache()
        assert [r for r in caplog.records if r.name == "repro.fur.jit"] == []

    def test_ensure_kernels_reports_new_seconds_once(self, jit_path):
        first = kernels.ensure_kernels(np.complex128, 7, "x")
        again = kernels.ensure_kernels(np.complex128, 7, "x")
        assert isinstance(first, float) and first >= 0.0
        assert again == 0.0



#: Run in a fresh interpreter: resolve the path and print it, the compiler
#: name, the ``repro.fur.jit`` log messages and, with ``labs``, a LABS
#: n=8 p=2 energy on ``jit`` and on ``python``.
_PROBE = """
import json, logging, sys
messages = []
handler = logging.Handler()
handler.emit = lambda record: messages.append(record.getMessage())
logging.getLogger("repro.fur.jit").addHandler(handler)
import repro
from repro.fur.jit import kernels
from repro.problems import labs
out = {"path": kernels.active_path(), "compiler": kernels.compiler_info()}
if sys.argv[1:] == ["labs"]:
    for backend in ("jit", "python"):
        sim = repro.simulator(8, terms=labs.get_terms(8), backend=backend)
        out[backend] = sim.get_expectation(
            sim.simulate_qaoa([0.2, 0.5], [0.6, 0.3]))
out["messages"] = messages
print(json.dumps(out))
"""


def _probe(xdg_cache, *args, path_env=None):
    """Run :data:`_PROBE` with ``XDG_CACHE_HOME=xdg_cache`` (and ``PATH``
    replaced when ``path_env`` is given); its JSON record."""
    env = {k: v for k, v in os.environ.items() if k != "REPRO_JIT_PATH"}
    src = os.path.dirname(os.path.dirname(repro.__file__))
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in [env.get("PYTHONPATH")] if p])
    env["XDG_CACHE_HOME"] = str(xdg_cache)
    if path_env is not None:
        env["PATH"] = path_env
    result = subprocess.run([sys.executable, "-c", _PROBE, *args], env=env,
                            capture_output=True, text=True, timeout=300,
                            check=True)
    return json.loads(result.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def built_cache(tmp_path_factory):
    """One fresh cache directory, cold-built once by a subprocess: yields
    the directory and that process's record."""
    if kernels._find_compiler() is None:
        pytest.skip("needs a C compiler")
    cache = tmp_path_factory.mktemp("xdg-cache")
    return cache, _probe(cache)


class TestLibraryCache:
    def test_cached_load_names_the_compiler(self, built_cache):
        cache, cold = built_cache
        cached = _probe(cache)
        assert cold["path"] == cached["path"] == "cc"
        assert cold["compiler"] is not None
        assert cached["compiler"] == cold["compiler"]
        assert cold["messages"] == cached["messages"] == []

    @pytest.mark.parametrize("damage", ["truncated", "no sidecar"])
    def test_damaged_cache_entry_is_rebuilt(self, built_cache, tmp_path,
                                            monkeypatch, caplog, damage):
        shutil.copytree(built_cache[0] / "repro-jit", tmp_path / "repro-jit")
        (lib,) = (tmp_path / "repro-jit").glob("libreprojit-*.so")
        sidecar = lib.with_name(lib.name + ".compiler")
        if damage == "truncated":
            lib.write_bytes(lib.read_bytes()[:64])
        else:
            sidecar.unlink()
            lib.write_bytes(b"not loaded again")
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
        monkeypatch.delenv("REPRO_JIT_PATH", raising=False)
        for name, value in (("_clib", None), ("_clib_error", None),
                            ("_c_compiler", None), ("_c_build_seconds", 0.0)):
            monkeypatch.setattr(kernels, name, value)
        kernels._reset_path_cache()
        try:
            with caplog.at_level(logging.WARNING, logger="repro.fur.jit"):
                assert kernels.active_path() == "cc"
                assert kernels.compiler_info() == built_cache[1]["compiler"]
        finally:
            kernels._reset_path_cache()
        assert lib.stat().st_size > 64
        assert sidecar.read_text() == built_cache[1]["compiler"]
        records = [r for r in caplog.records if r.name == "repro.fur.jit"]
        if damage == "no sidecar":  # an entry from before sidecars existed
            assert records == []
        else:
            assert len(records) == 1
            assert records[0].levelno == logging.WARNING
            assert str(lib) in records[0].getMessage()

    def test_hidden_compiler_falls_to_numpy(self, tmp_path):
        empty_bin = tmp_path / "bin"
        empty_bin.mkdir()
        out = _probe(tmp_path / "cache", "labs", path_env=str(empty_bin))
        assert out["path"] == "numpy"
        assert out["compiler"] is None
        assert len(out["messages"]) == 1
        assert "no C compiler found" in out["messages"][0]
        assert abs(out["jit"] - out["python"]) <= 1e-12


class TestThreadKnob:
    def test_requested_num_threads_parses_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_NUM_THREADS", raising=False)
        assert kernels.requested_num_threads() is None
        monkeypatch.setenv("REPRO_NUM_THREADS", "3")
        assert kernels.requested_num_threads() == 3
        monkeypatch.setenv("REPRO_NUM_THREADS", "not-a-number")
        assert kernels.requested_num_threads() is None
        monkeypatch.setenv("REPRO_NUM_THREADS", "0")
        assert kernels.requested_num_threads() is None

    def test_effective_threads_capped_by_cpu_count(self, monkeypatch):
        monkeypatch.setenv("REPRO_NUM_THREADS", "100000")
        assert 1 <= kernels.effective_num_threads() <= 100000

    def test_parity_is_thread_count_independent(self, rng, monkeypatch):
        """Row slicing must not change values (pure per-row parallelism)."""
        block = random_block(rng, 8, 5, np.complex128)
        reference = block.copy()
        betas = np.linspace(-1.0, 1.0, 8)
        monkeypatch.setenv("REPRO_NUM_THREADS", "4")
        kernels.furx_block(block, betas)
        monkeypatch.setenv("REPRO_NUM_THREADS", "1")
        kernels.furx_block(reference, betas)
        np.testing.assert_array_equal(block, reference)

    def test_failing_slice_waits_for_its_sibling(self, rng, monkeypatch):
        # The row pool returns or raises only after every slice finished:
        # a failed slice must not leave a sibling writing the block behind
        # the caller's back, and the pool must stay usable afterwards.
        monkeypatch.setenv("REPRO_NUM_THREADS", "2")
        finished = []

        def run_slice(r0, r1):
            if r0 == 0:
                raise RuntimeError("slice 0 failed")
            time.sleep(0.2)
            finished.append((r0, r1))

        with pytest.raises(RuntimeError, match="slice 0 failed"):
            kernels._parallel_rows(4, run_slice)
        # two slices on a host with two cores, one (the failing one) on one
        assert finished == ([(2, 4)] if (os.cpu_count() or 1) >= 2 else [])
        block = random_block(rng, 4, 6, np.complex128)
        reference = block.copy()
        betas = np.linspace(-1.0, 1.0, 4)
        kernels.rotate_x_block(block, betas, range(6))
        for r in range(4):
            kernels.rotate_x_block(reference[r:r + 1], betas[r:r + 1],
                                   range(6))
        np.testing.assert_array_equal(block, reference)

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_tasks_all_run_and_first_failure_wins(self, threads,
                                                  monkeypatch):
        # Serial (T=1) and pooled dispatch alike: every task runs, then the
        # first failure in task order is re-raised.
        monkeypatch.setenv("REPRO_NUM_THREADS", threads)
        ran = []

        def task(i):
            time.sleep(0.05 * (3 - i))
            ran.append(i)
            if i in (1, 2):
                raise ValueError(f"task {i} failed")

        with pytest.raises(ValueError, match="task 1 failed"):
            kernels.run_tasks([lambda i=i: task(i) for i in range(4)])
        assert sorted(ran) == [0, 1, 2, 3]
        kernels.run_tasks([lambda: ran.append("again")] * 2)
        assert ran.count("again") == 2

    def test_pool_workers_run_kernels_inline(self, rng, monkeypatch):
        # A kernel called from a task runs its rows in one slice on the
        # thread running that task, a pool worker or the helping caller:
        # the pool never submits to itself.
        monkeypatch.setenv("REPRO_NUM_THREADS", "2")
        seen = []

        def outer():
            task_thread = threading.current_thread().name
            kernels._parallel_rows(
                8, lambda r0, r1: seen.append(
                    (r0, r1, task_thread, threading.current_thread().name)))

        kernels.run_tasks([outer, outer])
        assert sorted(r[:2] for r in seen) == [(0, 8), (0, 8)]
        assert all(task == inner for *_, task, inner in seen)
        # the caller stops counting as a pool worker once its tasks are done
        assert not getattr(kernels._in_pool, "worker", False)

    @pytest.mark.parametrize("n", [16, 17])
    @pytest.mark.parametrize("rows", [1, 3])
    @pytest.mark.parametrize("precision", PRECISIONS)
    @pytest.mark.parametrize("phase", ["table", "direct"])
    def test_bitwise_invariant_under_row_split(self, rng, monkeypatch, n,
                                               rows, precision, phase):
        # With fewer rows than threads a big row's fused X layer splits
        # across the pool (tiles, then column groups, then the
        # expectation's flush blocks).  The pool size is forced so every
        # split runs on any host: at 2-4 threads one row splits, and three
        # rows split only at 4.
        costs = labs_costs(n)
        kw = ({"phase_table": build_phase_table(costs)} if phase == "table"
              else {"costs": costs})
        block = random_block(rng, rows, n, DTYPES[precision])
        gammas, betas = rng.uniform(-1.0, 1.0, (2, rows))

        def run():
            out = [block.copy() for _ in range(4)]
            kernels.furx_phase_block(out[0], gammas, betas, **kw)
            kernels.furx_block(out[1], betas)
            kernels.rotate_x_block(out[2], betas, range(n), gammas=gammas,
                                   **kw)
            energies = kernels.furx_expectation_block(out[3], gammas, betas,
                                                      costs, **kw)
            return out, energies

        reference = None
        for threads in (1, 2, 3, 4):
            monkeypatch.setattr(kernels, "pool_threads", lambda: threads)
            states, energies = run()
            if reference is None:
                reference = (states, energies)
                continue
            for got, want in zip(states, reference[0]):
                assert np.array_equal(got, want)
            assert np.array_equal(energies, reference[1])

    def test_caller_runs_unstarted_tasks(self, monkeypatch):
        # While every pool thread is blocked, a run_tasks from another
        # thread still completes: its caller takes back the tasks no pool
        # thread has started and runs them itself.
        monkeypatch.setattr(kernels, "pool_threads", lambda: 2)
        release = threading.Event()
        started = []

        def hold():
            started.append(threading.current_thread().name)
            release.wait(30)

        # the hog's caller runs one task, the two pool threads the others
        hog = threading.Thread(target=kernels.run_tasks, args=([hold] * 3,))
        ran = []
        probe = threading.Thread(target=kernels.run_tasks,
                                 args=([lambda: ran.append(1)] * 2,))
        hog.start()
        try:
            deadline = time.monotonic() + 10
            while (sum(name.startswith("repro-jit") for name in started) < 2
                   and time.monotonic() < deadline):
                time.sleep(0.01)
            probe.start()
            probe.join(timeout=5)
            assert not probe.is_alive(), "run_tasks waited on a busy pool"
            assert ran == [1, 1]
        finally:
            release.set()
            hog.join(timeout=30)
            if probe.ident is not None:
                probe.join(timeout=30)
        assert not hog.is_alive() and not probe.is_alive()

    def test_concurrent_callers_run_every_task_exactly_once(self,
                                                            monkeypatch):
        # Callers race the pool for each task (cancel it and run it inline,
        # or wait on the running worker): under rapid thread switching and
        # more callers and workers than cores, no task may run twice or be
        # skipped, and every call must return.
        monkeypatch.setattr(kernels, "pool_threads", lambda: 3)
        counts = [[0] * 8 for _ in range(4)]
        lock = threading.Lock()

        def bump(caller, i):
            with lock:
                counts[caller][i] += 1

        def caller(c):
            for _ in range(50):
                kernels.run_tasks([lambda i=i: bump(c, i) for i in range(8)])

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            callers = [threading.Thread(target=caller, args=(c,))
                       for c in range(4)]
            for t in callers:
                t.start()
            for t in callers:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in callers)
        assert counts == [[50] * 8 for _ in range(4)]


class TestRegistryIntegration:
    def test_jit_registered(self):
        spec = fur.get_backend("jit")
        assert spec.name == "jit"
        assert set(spec.mixers) == {"x", "xyring", "xycomplete"}
        assert set(spec.precisions) == {"double", "single"}

    def test_describe_reports_active_path(self):
        text = fur.registry.describe()
        assert "jit" in text
        assert f"path={kernels.active_path()}" in text
        assert "REPRO_NUM_THREADS" in text

    @pytest.mark.parametrize("mixer", ["x", "xyring", "xycomplete"])
    def test_statevector_parity_with_python(self, mixer, small_labs_terms,
                                            qaoa_angles):
        n = 6
        gammas, betas = qaoa_angles
        svs = {}
        for backend in ("python", "jit"):
            sim = repro.simulator(n, terms=small_labs_terms, backend=backend,
                                  mixer=mixer)
            svs[backend] = np.asarray(
                sim.get_statevector(sim.simulate_qaoa(gammas, betas)))
        np.testing.assert_allclose(svs["jit"], svs["python"], atol=1e-12)

    def test_fused_batch_matches_python_and_books_compile_time(
            self, rng, small_labs_terms):
        n, batch, p = 6, 4, 2
        gb = rng.uniform(-1.0, 1.0, (batch, p))
        bb = rng.uniform(-1.0, 1.0, (batch, p))
        jit_sim = repro.simulator(n, terms=small_labs_terms, backend="jit")
        ref_sim = repro.simulator(n, terms=small_labs_terms,
                                  backend="python")
        np.testing.assert_allclose(jit_sim.get_expectation_batch(gb, bb),
                                   ref_sim.get_expectation_batch(gb, bb),
                                   atol=1e-10)
        stats = jit_sim.engine.stats.as_dict()
        assert "kernel_compile_time_s" in stats
        assert stats["kernel_compile_time_s"] >= 0.0



class TestMixerScratchBudget:
    """The numpy path's gemm mixer ping-pongs, so it counts two blocks."""

    N = 6

    def test_sub_batch_rows_count_the_numpy_scratch(self, jit_path,
                                                    small_labs_terms):
        sim = repro.simulator(self.N, terms=small_labs_terms, backend="jit")
        row_bytes = 16 << self.N
        rows = sim._batch_rows(32, 8 * row_bytes)
        assert sim._mixer_needs_scratch == (jit_path == "numpy")
        assert rows == (4 if jit_path == "numpy" else 8)

    def test_gpu_x_mixer_gets_scratch_on_the_numpy_rung(self, jit_path,
                                                         small_labs_terms):
        # (its sub-batches always count two blocks: see its _batch_rows)
        sim = repro.simulator(self.N, terms=small_labs_terms, backend="gpu")
        assert sim._mixer_needs_scratch == (jit_path == "numpy")

    def test_numpy_path_reuses_the_engine_scratch(self, monkeypatch, rng,
                                                  small_labs_terms):
        monkeypatch.setenv("REPRO_JIT_PATH", "numpy")
        kernels._reset_path_cache()
        try:
            sim = repro.simulator(self.N, terms=small_labs_terms,
                                  backend="jit")
            handed, used = [], []

            def make_scratch(block):
                handed.append(np.empty_like(block))
                return handed[-1]

            monkeypatch.setattr(sim, "_mixer_scratch", make_scratch)
            real = np_kernels.furx_phase_block

            def spy(*args, **kwargs):
                used.append(kwargs["scratch"])
                return real(*args, **kwargs)

            monkeypatch.setattr(np_kernels, "furx_phase_block", spy)
            gb = rng.uniform(-1.0, 1.0, (4, 3))
            bb = rng.uniform(-1.0, 1.0, (4, 3))
            sim.get_expectation_batch(gb, bb, memory_budget=4 * (16 << self.N))
            assert len(handed) == 2  # two sub-batches of two rows each
            assert len(used) == 6 and all(
                any(s is h for h in handed) for s in used)
        finally:
            kernels._reset_path_cache()
