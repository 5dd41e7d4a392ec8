"""Tests for the spectral infrastructure: grids, symbols, transforms,
multipliers and the alias-free product."""

import math
import os
import pathlib
import pickle
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest
import scipy.fft
from hypothesis import given, settings
from hypothesis import strategies as st

from ilwbo import BO, ILW, ModelParams, SpectralGrid, spectral
from ilwbo.spectral import (
    ProductKernel,
    _padded_size,
    derivative_symbol,
    l2_norm,
    nodal_inner,
    projected_product,
    state_from_nodal,
    state_to_nodal,
    symbol_J,
    symbol_T,
    symbol_g,
    to_coefficients,
    to_nodal,
    translate_state,
)

from conftest import (
    apply_multiplier,
    brute_force_product,
    derivative,
    full_arrays,
    full_l2_norm,
    full_state,
    hermitian_symmetrize_reference,
    product_kernel_reference,
    quadratic_terms,
    random_hermitian,
    state_l2_norm,
    state_of,
    translate_reference,
)

ILW_P = ModelParams(0.8, 1.2, ILW)
BO_P = ModelParams(0.8, 1.2, BO)


class TestModelParams:
    def test_reference_values_accepted(self):
        p = ModelParams(gamma=0.8, alpha=1.2, regime=ILW)
        assert p.gamma == 0.8 and p.regime == ILW

    @pytest.mark.parametrize("gamma", [0.0, 1.0, 1.3, -0.2])
    def test_gamma_range(self, gamma):
        with pytest.raises(ValueError, match="gamma"):
            ModelParams(gamma=gamma, alpha=1.2, regime=ILW)

    @pytest.mark.parametrize("alpha", [1.0, 0.5, math.inf, math.nan])
    def test_alpha_range(self, alpha):
        # alpha = inf made symbol_J nan at every k
        with pytest.raises(ValueError, match="alpha"):
            ModelParams(gamma=0.8, alpha=alpha, regime=BO)

    def test_gamma_whose_reciprocal_overflows(self):
        # 1/gamma = inf made the evolve tables nan
        with pytest.raises(ValueError, match="gamma=5e-324"):
            ModelParams(gamma=5e-324, alpha=1.2, regime=BO)
        assert ModelParams(gamma=1e-300, alpha=1.2, regime=BO).gamma == 1e-300

    @pytest.mark.parametrize("alpha, gamma", [(1e300, 1e-10), (1e300, 1e-300), (2.0, 1e-308)])
    def test_symbol_scale_must_be_finite(self, alpha, gamma):
        # alpha/gamma = inf made g nan at k = 0 (inf * 0)
        with pytest.raises(ValueError, match=re.escape(f"alpha={alpha} and gamma={gamma}")):
            ModelParams(gamma=gamma, alpha=alpha, regime=BO)

    def test_regime_name(self):
        with pytest.raises(ValueError, match="regime"):
            ModelParams(gamma=0.8, alpha=1.2, regime="klein-gordon")


class TestSpectralGrid:
    def test_validation(self):
        with pytest.raises(ValueError, match="even"):
            SpectralGrid(half_length=1.0, n_modes=9)
        with pytest.raises(ValueError, match="even"):
            SpectralGrid(half_length=1.0, n_modes=4)
        with pytest.raises(ValueError, match="half_length"):
            SpectralGrid(half_length=-1.0, n_modes=16)

    @pytest.mark.parametrize("n", [64.0, 64.5, "64"])
    def test_mode_count_must_be_an_integer(self, n):
        # a float N failed only at the first transform, inside scipy
        with pytest.raises(ValueError, match="n_modes N"):
            SpectralGrid(half_length=8.0, n_modes=n)

    def test_numpy_integer_mode_count(self):
        grid = SpectralGrid(half_length=8.0, n_modes=np.int64(64))
        assert grid == SpectralGrid(half_length=8.0, n_modes=64)

    def test_period_must_be_finite(self):
        # 2l overflows, which would make every node non-finite
        with pytest.raises(ValueError, match="l=1e"):
            SpectralGrid(half_length=1e308, n_modes=16)
        assert np.isfinite(SpectralGrid(half_length=8e307, n_modes=16).nodes).all()

    def test_largest_wavenumber_must_be_finite(self):
        # pi/l overflows, which made every wavenumber inf or nan
        with pytest.raises(ValueError, match="l=1e-320"):
            SpectralGrid(half_length=1e-320, n_modes=64)
        with pytest.raises(ValueError, match="l=1e-307"):
            SpectralGrid(half_length=1e-307, n_modes=2**16)  # pi/l is finite, pi*(N/2)/l is not
        grid = SpectralGrid(half_length=1e-300, n_modes=64)
        assert np.isfinite(grid.wavenumbers).all()

    def test_a_grid_in_use_pickles_as_its_two_fields(self):
        grid = SpectralGrid(half_length=8.0, n_modes=64)
        tables = (grid.nodes, grid.wavenumbers, grid._phase)
        loaded = pickle.loads(pickle.dumps(grid))
        assert loaded == grid
        # the tables are not carried over, but rebuilt, to the bit, where used
        assert not {"nodes", "mode_numbers", "wavenumbers", "_phase"} & set(vars(loaded))
        for table, rebuilt in zip(tables, (loaded.nodes, loaded.wavenumbers, loaded._phase)):
            assert table.dtype == rebuilt.dtype and table.tobytes() == rebuilt.tobytes()

    @pytest.mark.parametrize("n", [2 ** k for k in range(3, 15)])
    def test_pickle_is_the_same_whether_or_not_the_tables_are_cached(self, n):
        grid = SpectralGrid(half_length=8.0, n_modes=n)
        fresh = pickle.dumps(grid)
        assert len(grid.nodes) == len(grid.wavenumbers) == len(grid._phase) == n  # in use
        assert pickle.dumps(grid) == fresh
        assert len(fresh) < 128

    def test_the_size_guard_stops_at_the_largest_addressable_complex_array(self):
        # 16 N bytes: at N = 2**59 they overflow intp; below, numpy itself
        # raises MemoryError for an array it cannot allocate
        with pytest.raises(MemoryError, match="n_modes N=576460752303423488 is too large"):
            SpectralGrid(half_length=1.0, n_modes=2 ** 59)
        assert SpectralGrid(half_length=1.0, n_modes=2 ** 59 - 2).n_modes == 2 ** 59 - 2

    @pytest.mark.parametrize("n", [8, 32, 256, 1024])
    def test_node_endpoints_exact(self, n):
        grid = SpectralGrid(half_length=64.0, n_modes=n)
        assert grid.nodes[0] == -64.0
        assert grid.nodes[-1] == 64.0 - grid.node_spacing

    def test_wavenumber_ordering_matches_fft(self):
        # documented permutation: standard FFT order [0..N/2-1, -N/2..-1]
        grid = SpectralGrid(half_length=2.0, n_modes=16)
        assert np.array_equal(grid.mode_numbers, np.fft.fftfreq(16, 1 / 16))
        assert np.allclose(grid.wavenumbers, np.pi / 2.0 * grid.mode_numbers)
        assert grid.mode_numbers[8] == -8  # unpaired slot


class TestSymbols:
    def test_ilw_symbol_at_zero(self):
        # |k| coth|k| -> 1 as k -> 0
        assert symbol_g(ILW_P, 0.0) == pytest.approx(1.5, abs=1e-14)

    def test_bo_symbol_direct(self):
        assert symbol_g(BO_P, 2.0) == pytest.approx(3.0, rel=1e-14)

    def test_ilw_large_k_asymptote(self):
        val = float(symbol_g(ILW_P, 50.0))
        assert val == pytest.approx(1.5 * 50.0, rel=1e-10)

    @pytest.mark.parametrize("regime", [ILW, BO])
    def test_overflowing_symbol_is_its_limit(self, regime):
        # a finite alpha/gamma times a large |k| overflows quietly to g's
        # limit +inf, where T = 0 and J = (alpha-1)/alpha exactly
        params = ModelParams(gamma=1e-300, alpha=1.2, regime=regime)
        k = np.array([0.0, 1.0, 1e10])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            g, t, j = symbol_g(params, k), symbol_T(params, k), symbol_J(params, k)
        assert np.isfinite(g[:2]).all() and g[2] == np.inf
        assert t[2] == 0.0 and j[2] == (1.2 - 1.0) / 1.2

    def test_symbol_T_at_zero(self):
        assert symbol_T(ILW_P, 0.0) == pytest.approx(0.4, abs=1e-15)

    def test_branch_seams(self):
        # piecewise evaluation must be continuous across its cut points
        # (allow for the symbol's own slope over the tiny k increment)
        for cut in (1e-8, 20.0):
            dk = 2e-12 * cut
            below = float(symbol_g(ILW_P, cut * (1 - 1e-12)))
            above = float(symbol_g(ILW_P, cut * (1 + 1e-12)))
            slope_bound = 2.0 * 1.5  # (alpha/gamma) * max d(|k|coth|k|)/dk
            assert abs(above - below) <= slope_bound * dk + 1e-13 * (1 + below)

    @pytest.mark.parametrize("params", [ILW_P, BO_P])
    def test_even_nonnegative_monotone(self, params):
        k = np.linspace(0.0, 40.0, 4001)
        g = symbol_g(params, k)
        assert np.all(g >= 0)
        assert np.all(np.diff(g) >= -1e-12)
        assert np.allclose(symbol_g(params, -k), g, rtol=0, atol=0)

    @pytest.mark.parametrize("params", [ILW_P, BO_P])
    def test_T_and_J_ranges(self, params):
        k = np.linspace(-60.0, 60.0, 2001)
        t = symbol_T(params, k)
        j = symbol_J(params, k)
        assert np.all((t > 0) & (t <= 1.0))
        floor = (params.alpha - 1.0) / params.alpha
        assert np.all((j > floor) & (j <= 1.0))

    @given(k=st.floats(min_value=-1e3, max_value=1e3, allow_nan=False),
           gamma=st.floats(min_value=0.05, max_value=0.95),
           alpha=st.floats(min_value=1.01, max_value=5.0))
    @settings(max_examples=100, deadline=None)
    def test_J_partial_fraction_identity(self, k, gamma, alpha):
        for regime in (ILW, BO):
            p = ModelParams(gamma, alpha, regime)
            g = float(symbol_g(p, k))
            lhs = float(symbol_J(p, k))
            rhs = (alpha - 1.0) / alpha + 1.0 / (alpha * (1.0 + g))
            direct = (1.0 + (alpha - 1.0) / alpha * g) / (1.0 + g)
            assert lhs == pytest.approx(rhs, rel=1e-14, abs=1e-14)
            assert lhs == pytest.approx(direct, rel=1e-13, abs=1e-13)

    @given(k=st.floats(min_value=-1e3, max_value=1e3, allow_nan=False))
    @settings(max_examples=60, deadline=None)
    def test_T_inverts_one_plus_g(self, k):
        assert float(symbol_T(ILW_P, k) * (1.0 + symbol_g(ILW_P, k))) == pytest.approx(
            1.0, rel=1e-14
        )


class TestTransforms:
    def test_cosine_coefficients(self):
        grid = SpectralGrid(half_length=3.0, n_modes=32)
        c = to_coefficients(grid, np.cos(np.pi * grid.nodes / 3.0))
        assert c[1] == pytest.approx(0.5, abs=1e-14)
        assert c[-1] == pytest.approx(0.5, abs=1e-14)
        others = np.delete(c, [1, 31])
        assert np.max(np.abs(others)) < 1e-14

    def test_roundtrip(self):
        grid = SpectralGrid(half_length=5.0, n_modes=64)
        rng = np.random.default_rng(3)
        f = rng.standard_normal(64)
        back = to_nodal(grid, to_coefficients(grid, f))
        assert np.max(np.abs(back - f)) < 1e-13 * max(1.0, np.max(np.abs(f)))

    def test_hermitian_coefficients_give_real_values(self):
        grid = SpectralGrid(half_length=2.0, n_modes=32)
        c = random_hermitian(grid, np.random.default_rng(5))
        vals = to_nodal(grid, c)
        assert np.max(np.abs(vals.imag)) < 1e-13 * np.max(np.abs(vals.real))

    def test_length_mismatch(self):
        grid = SpectralGrid(half_length=2.0, n_modes=16)
        with pytest.raises(ValueError):
            to_coefficients(grid, np.zeros(8))
        with pytest.raises(ValueError):
            to_nodal(grid, np.zeros(32, dtype=complex))

    @pytest.mark.parametrize("n", [8, 16, 64, 1024, 4096, 16384])
    def test_state_roundtrip(self, n):
        grid = SpectralGrid(half_length=5.0, n_modes=n)
        rng = np.random.default_rng(n)
        zeta, u = rng.standard_normal(n), rng.standard_normal(n)
        for back, f in zip(state_to_nodal(grid, state_from_nodal(grid, zeta, u)), (zeta, u)):
            assert np.max(np.abs(back - f)) <= 1e-15 * np.max(np.abs(f))


class TestMultipliers:
    def test_derivative_of_sine(self):
        grid = SpectralGrid(half_length=4.0, n_modes=32)
        k1 = np.pi / 4.0
        c = to_coefficients(grid, np.sin(k1 * grid.nodes))
        d = to_nodal(grid, derivative(grid, c)).real
        assert np.max(np.abs(d - k1 * np.cos(k1 * grid.nodes))) < 1e-12

    def test_transport_symbol_kills_constants(self, ilw_params):
        grid = SpectralGrid(half_length=4.0, n_modes=32)
        c = to_coefficients(grid, np.full(32, 2.5))
        sym = symbol_T(ilw_params, grid.wavenumbers) * derivative_symbol(grid)
        out = apply_multiplier(grid, c, sym)
        assert np.max(np.abs(out)) < 1e-15

    def test_transport_operator_norm_attained(self, ilw_params):
        # norm over modes equals the max of |ik/(1+g)| on the grid, and each
        # basis element realizes exactly its own symbol value
        grid = SpectralGrid(half_length=8.0, n_modes=64)
        sym = symbol_T(ilw_params, grid.wavenumbers) * derivative_symbol(grid)
        gains = []
        for i in range(grid.n_modes):
            e = np.zeros(64, dtype=complex)
            e[i] = 1.0
            out = apply_multiplier(grid, e, sym)
            gains.append(np.linalg.norm(out))
        gains = np.array(gains)
        assert np.allclose(gains, np.abs(sym), atol=1e-15)
        assert np.max(gains) == pytest.approx(np.max(np.abs(sym)), rel=1e-14)
        assert np.isfinite(np.max(gains))

    def test_even_real_symbol_preserves_hermitian(self, bo_params):
        grid = SpectralGrid(half_length=2.0, n_modes=64)
        c = random_hermitian(grid, np.random.default_rng(7))
        out = apply_multiplier(grid, c, lambda k: symbol_g(bo_params, k))
        assert np.max(np.abs(out - hermitian_symmetrize_reference(out))) < 1e-14


class TestProjectedProduct:
    def test_either_factor_off_the_grid_is_rejected(self):
        grid = SpectralGrid(half_length=2.0, n_modes=16)
        good, short = np.zeros(16, dtype=complex), np.zeros(8, dtype=complex)
        for f, g in ((good, short), (short, good)):
            with pytest.raises(ValueError, match="do not match the grid"):
                projected_product(grid, f, g)

    def test_single_mode_placement(self):
        grid = SpectralGrid(half_length=2.0, n_modes=16)
        f = np.zeros(16, dtype=complex)
        g = np.zeros(16, dtype=complex)
        f[3] = 1.0
        g[2] = 1.0
        out = projected_product(grid, f, g)
        assert out[5] == pytest.approx(1.0, abs=1e-14)
        out[5] = 0.0
        assert np.max(np.abs(out)) < 1e-14

    def test_highest_modes_truncate_cleanly(self):
        # product of the two highest retained modes leaves the band entirely
        grid = SpectralGrid(half_length=2.0, n_modes=16)
        f = np.zeros(16, dtype=complex)
        f[7] = 1.0  # k = +7 = N/2 - 1
        out = projected_product(grid, f, f)
        assert np.max(np.abs(out)) < 1e-14

    @pytest.mark.parametrize("n", [8, 16, 32])
    def test_matches_convolution_oracle(self, n):
        grid = SpectralGrid(half_length=3.0, n_modes=n)
        rng = np.random.default_rng(n)
        f = random_hermitian(grid, rng)
        g = random_hermitian(grid, rng)
        mine = projected_product(grid, f, g)
        oracle = brute_force_product(grid, f, g)
        assert np.max(np.abs(mine - oracle)) < 1e-12

    def test_bilinear_and_commutative(self):
        grid = SpectralGrid(half_length=1.0, n_modes=16)
        rng = np.random.default_rng(9)
        f, g, h = (random_hermitian(grid, rng) for _ in range(3))
        a, b = 0.7, -1.3
        left = projected_product(grid, a * f + b * g, h)
        right = a * projected_product(grid, f, h) + b * projected_product(grid, g, h)
        assert np.max(np.abs(left - right)) < 1e-12
        assert np.max(np.abs(projected_product(grid, f, g) - projected_product(grid, g, f))) < 1e-14

    @pytest.mark.parametrize("n", [8, 32, 1024])
    def test_non_hermitian_inputs_match_linear_convolution(self, n):
        # the general product of any complex coefficients; the -N/2 input
        # enters one-sided and the -N/2 output slot stays empty
        grid = SpectralGrid(half_length=3.0, n_modes=n)
        rng = np.random.default_rng(n)
        f, g = (rng.standard_normal(n) + 1j * rng.standard_normal(n) for _ in range(2))
        h = n // 2
        full = np.convolve(np.fft.fftshift(f), np.fft.fftshift(g))  # modes -N .. N-2
        want = np.fft.ifftshift(full[h: h + n])  # modes -N/2 .. N/2-1, FFT order
        want[h] = 0.0
        got = projected_product(grid, f, g)
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))

    def test_grid_mismatch(self):
        grid = SpectralGrid(half_length=1.0, n_modes=16)
        with pytest.raises(ValueError):
            projected_product(grid, np.zeros(8, dtype=complex), np.zeros(16, dtype=complex))


class TestQuadraticTerms:
    """The half-spectrum kernel against the Hermitian parts of two projected
    products: equal at every k != 0; at k = 0 it is the product with the -N/2
    input coefficient split in halves between -N/2 and +N/2."""

    @staticmethod
    def _inputs(grid, rng, kind):
        zeta, u = random_hermitian(grid, rng), random_hermitian(grid, rng)
        if kind == "nyquist":
            # with a nonzero (real) unpaired -N/2 coefficient
            zeta[grid.n_modes // 2], u[grid.n_modes // 2] = rng.standard_normal(2)
        return zeta, u

    @pytest.mark.parametrize("kind", ["hermitian", "nyquist"])
    @pytest.mark.parametrize("n", [8, 32, 1024])
    def test_equals_two_projected_products(self, kind, n):
        grid = SpectralGrid(half_length=3.0, n_modes=n)
        zeta, u = self._inputs(grid, np.random.default_rng(n), kind)
        got = full_state(quadratic_terms(grid, state_of(zeta, u).half))
        h = n // 2
        for mine, f, g in ((got[0], zeta, u), (got[1], u, u)):
            want = hermitian_symmetrize_reference(projected_product(grid, f, g))
            assert np.max(np.abs(mine[1:] - want[1:])) <= 1e-15 * np.max(np.abs(want))
            # k = 0: sum of f[k1] g[-k1], the -N/2 pair counted as two halves
            split_mean = f @ np.roll(g[::-1], 1) - f[h] * g[h] / 2
            assert abs(mine[0] - split_mean) <= 1e-15 * np.sum(np.abs(f) * np.abs(g[::-1]))
            assert mine[0].imag == 0.0 and mine[h] == 0.0

    def test_inputs_untouched(self):
        grid = SpectralGrid(half_length=3.0, n_modes=32)
        half = state_of(*self._inputs(grid, np.random.default_rng(4), "nyquist")).half
        before = half.copy()
        quadratic_terms(grid, half)
        assert np.array_equal(half, before)

    def test_grid_mismatch(self):
        grid = SpectralGrid(half_length=1.0, n_modes=16)
        for shape in ((2, 5), (2, 16), (9,)):
            with pytest.raises(ValueError):
                quadratic_terms(grid, np.zeros(shape, dtype=complex))


class TestProductKernel:
    """A kernel writes its factors times the products of a kernel with unit
    factors (`quadratic_terms`), bit for bit, with the -N/2 slot +0.0."""

    @staticmethod
    def _case(n, kind):
        grid = SpectralGrid(half_length=3.0, n_modes=n)
        rng = np.random.default_rng(n)
        h = n // 2
        half = state_of(random_hermitian(grid, rng), random_hermitian(grid, rng)).half
        half[:, h] = rng.standard_normal(2)  # a nonzero -N/2 input coefficient
        if kind == "scalars":
            factors = np.array([[2.0], [1.0]])
        else:  # a complex table, zero at -N/2 as the evolver's is
            factors = rng.standard_normal((2, h + 1)) + 1j * rng.standard_normal((2, h + 1))
            factors[:, h] = 0.0
        return grid, half, factors

    @pytest.mark.parametrize("kind", ["table", "scalars"])
    @pytest.mark.parametrize("n", [8, 64, 1024])
    def test_factors_times_unit_products(self, n, kind):
        grid, half, factors = self._case(n, kind)
        out = np.empty_like(half)
        got = ProductKernel(grid, factors)(half, out)
        assert got is out
        # in the kernel's order: with fused multiply-adds a general complex
        # product can round differently with its operands swapped
        assert np.array_equal(got, quadratic_terms(grid, half) * factors)
        edge = got[:, n // 2]
        assert np.all(edge == 0.0)
        assert not np.signbit(edge.real).any() and not np.signbit(edge.imag).any()

    @pytest.mark.parametrize("kind", ["table", "scalars"])
    @pytest.mark.parametrize("n", [8, 64, 1024])
    def test_leaves_input_and_earlier_output_alone(self, n, kind):
        grid, half, factors = self._case(n, kind)
        kernel = ProductKernel(grid, factors)
        before = half.copy()
        first = kernel(half, np.empty_like(half))
        kept = first.copy()
        kernel(2.0 * half, np.empty_like(half))
        assert np.array_equal(half, before)
        assert np.array_equal(first, kept)

    @pytest.mark.parametrize("n", [8, 32, 64, 128, 256, 512, 1024, 2048, 4096, 16384])
    def test_matches_public_scipy_fft_oracle_bitwise(self, n):
        # every N of the shipped configs and workloads; three calls in a row
        # on one kernel, so nothing in its own buffers carries between calls
        grid, _, factors = self._case(n, "table")
        kernel = ProductKernel(grid, factors)
        rng = np.random.default_rng(n + 1)
        h = n // 2
        results = []
        for _ in range(3):
            half = state_of(random_hermitian(grid, rng), random_hermitian(grid, rng)).half
            half[:, h] = rng.standard_normal(2)
            before = half.copy()
            out = np.empty_like(half)
            got = kernel(half, out)
            assert got is out
            want = product_kernel_reference(grid, half, factors)
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
            assert np.array_equal(half.view(np.uint64), before.view(np.uint64))
            # the zero padding above the band is still +0.0, bit for bit
            assert not kernel._padded[:, h + 1:].view(np.uint64).any()
            results.append((got, got.copy()))
        # a later call writes no earlier caller's out
        for got, kept in results:
            assert np.array_equal(got.view(np.uint64), kept.view(np.uint64))


class TestProductKernelIsExact:
    """At N = 2 mod 4, (3N + 1) // 2 is odd: the padded grid must round it up
    to stay alias-free.  The oracle is a direct sum, not the kernel's sizes."""

    @pytest.mark.parametrize("n", [10, 14, 18])
    def test_truncated_convolution(self, n):
        h = n // 2
        rng = np.random.default_rng(n)
        half = rng.standard_normal((2, h + 1)) + 1j * rng.standard_normal((2, h + 1))
        half[:, [0, h]] = half[:, [0, h]].real
        # modes -N/2..N/2 of each real field, the -N/2 coefficient split in
        # halves between -N/2 and N/2, as the kernel reads it
        full = np.concatenate([np.conj(half[:, :0:-1]), half], axis=1)
        full[:, [0, 2 * h]] = half[:, [h]] / 2
        exact = np.stack([np.convolve(full[0], full[1]), np.convolve(full[1], full[1])])
        exact = exact[:, 2 * h: 3 * h]  # the sums for k = 0..N/2-1
        out = ProductKernel(SpectralGrid(2.0, n), 1.0)(half, np.empty((2, h + 1), dtype=complex))
        assert np.max(np.abs(out[:, :h] - exact)) < 1e-13
        assert np.all(out[:, h] == 0.0)


    def test_the_padded_grid_is_the_least_even_size_of_3n_over_2(self):
        # an odd size is as exact, but moves the last bits of every product
        # at N = 2 mod 4, and so the bytes a run writes
        assert [_padded_size(n) for n in (8, 10, 14, 16, 18, 1024)] == [12, 16, 22, 24, 28, 1536]


class TestFftWorkers:
    def test_results_agree_across_worker_counts(self):
        from ilwbo.spectral import set_fft_workers

        grid = SpectralGrid(half_length=16.0, n_modes=256)
        rng = np.random.default_rng(23)
        f = random_hermitian(grid, rng)
        g = random_hermitian(grid, rng)
        try:
            set_fft_workers(1)
            single = projected_product(grid, f, g)
            set_fft_workers(-1)
            many = projected_product(grid, f, g)
        finally:
            set_fft_workers(1)
        assert np.max(np.abs(single - many)) < 1e-12

    def test_a_process_starts_with_one_worker(self):
        probe = "import ilwbo.spectral as s; print(s._fft_workers)"
        src = str(pathlib.Path(spectral.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get(
            "PYTHONPATH")])))
        done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                              env=env, timeout=60, check=True)
        assert done.stdout.strip() == "1"

    def test_kernel_resolves_its_worker_count_when_built(self):
        from ilwbo.spectral import set_fft_workers

        grid = SpectralGrid(half_length=16.0, n_modes=4096)
        rng = np.random.default_rng(29)
        half = state_of(random_hermitian(grid, rng), random_hermitian(grid, rng)).half
        try:
            set_fft_workers(-1)
            many = ProductKernel(grid, 1.0)
        finally:
            set_fft_workers(1)
        single = ProductKernel(grid, 1.0)
        # -1 means every core, as for scipy.fft, and the kernel keeps it
        assert many._threads == os.cpu_count() and single._threads == 1
        got, want = many(half, np.empty_like(half)), single(half, np.empty_like(half))
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    def test_zero_workers_raise_when_the_kernel_is_built(self):
        from ilwbo.spectral import set_fft_workers

        grid = SpectralGrid(half_length=3.0, n_modes=32)
        with pytest.raises(ValueError):
            scipy.fft.rfft(np.zeros(32), workers=0)
        try:
            set_fft_workers(0)
            with pytest.raises(ValueError):
                ProductKernel(grid, 1.0)
        finally:
            set_fft_workers(1)


class TestTranslate:
    def test_exact_on_single_mode(self):
        grid = SpectralGrid(half_length=2.0, n_modes=32)
        k1 = np.pi / 2.0
        state = state_from_nodal(grid, np.cos(k1 * grid.nodes), np.sin(k1 * grid.nodes))
        zeta, u = state_to_nodal(grid, translate_state(grid, state, 0.3))
        assert np.max(np.abs(zeta - np.cos(k1 * (grid.nodes - 0.3)))) < 1e-13
        assert np.max(np.abs(u - np.sin(k1 * (grid.nodes - 0.3)))) < 1e-13

    def test_unitary(self):
        grid = SpectralGrid(half_length=2.0, n_modes=64)
        rng = np.random.default_rng(13)
        state = state_of(random_hermitian(grid, rng), random_hermitian(grid, rng))
        out = translate_state(grid, state, 0.7137)
        assert state_l2_norm(grid, out) == pytest.approx(state_l2_norm(grid, state), rel=1e-13)

    @pytest.mark.parametrize("n", [8, 16, 64, 1024, 4096, 16384])
    @pytest.mark.parametrize("shift", [0.3, -1.7, 12.345])
    def test_matches_full_length_projection(self, n, shift):
        # states of random real nodal data: with a nonzero real -N/2 mode,
        # which the full-length phase makes complex and the projection real
        grid = SpectralGrid(half_length=3.0, n_modes=n)
        rng = np.random.default_rng(n)
        state = state_from_nodal(grid, rng.standard_normal(n), rng.standard_normal(n))
        got = translate_state(grid, state, shift)
        want = translate_reference(grid, state, shift)
        for mine, theirs in ((got.zeta_hat, want[0]), (got.u_hat, want[1])):
            # the projection averages c[k] e[k] with the conjugate of
            # c[-k] e[-k]; the two products may differ in their last bit
            assert np.max(np.abs(mine - theirs)) <= 1e-15 * np.max(np.abs(theirs))
            assert mine[n // 2].imag == 0.0


class TestNodalInner:
    @pytest.mark.parametrize("n", [8, 16, 64, 256, 1024, 4096, 16384])
    def test_half_spectrum_sum_equals_full_length_parseval(self, n):
        # states of random real nodal data: Hermitian, with a nonzero real -N/2 mode
        grid = SpectralGrid(3.0, n)
        rng = np.random.default_rng(n)
        a, b = (state_from_nodal(grid, rng.standard_normal(n), rng.standard_normal(n))
                for _ in range(2))
        full_a, full_b = full_arrays(a), full_arrays(b)
        full = n * np.vdot(full_b, full_a).real
        half = nodal_inner(grid, a.half, b.half)
        # |<a, b>| <= N ||a|| ||b||; the two sums differ only in rounding
        scale = n * np.linalg.norm(full_a) * np.linalg.norm(full_b)
        assert abs(half - full) <= 1e-14 * scale

    @pytest.mark.parametrize("n", [8, 64, 1024, 16384])
    def test_l2_norm_equals_full_length_sum(self, n):
        # the row norms of the half spectrum against 2l * sum |c|^2 over all N modes
        grid = SpectralGrid(3.0, n)
        rng = np.random.default_rng(n)
        state = state_from_nodal(grid, rng.standard_normal(n), rng.standard_normal(n))
        assert state.half[:, n // 2].all()
        norms = [l2_norm(grid, state.half[i:i + 1]) for i in range(2)]
        assert norms == pytest.approx([full_l2_norm(grid, state.zeta_hat),
                                       full_l2_norm(grid, state.u_hat)], rel=1e-14)
        assert l2_norm(grid, state.half) == pytest.approx(state_l2_norm(grid, state), rel=1e-14)
