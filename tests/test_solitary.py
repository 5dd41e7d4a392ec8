"""Tests for the traveling-wave fixed-point system and Petviashvili iteration."""

import math
import warnings

import numpy as np
import pytest

from ilwbo import BO, ILW, ModelParams, SolitaryConfig, SpectralGrid, StatePair, solitary
from ilwbo.accel import cycled_solve
from ilwbo.errors import NonConvergenceError, SingularModeError
from ilwbo.solitary import (
    IterationTrace,
    Workspace,
    evaluate_iterate,
    petviashvili_step,
    seed_profile,
)
from ilwbo.spectral import (
    nodal_norm,
    state_from_nodal,
    state_to_nodal,
    symbol_g,
    to_nodal,
    translate_state,
)

from conftest import (
    apply_S,
    assemble_S_mode,
    brute_force_product,
    fresh_evaluate_iterate,
    fresh_petviashvili_step,
    full_state,
    nonlinearity_F,
    random_hermitian,
    residual_norm,
    solve_S,
    state_of,
    zero_state,
)


def random_half(grid, rng, scale=1.0):
    return state_of(random_hermitian(grid, rng, scale), random_hermitian(grid, rng, scale)).half

ILW_P = ModelParams(0.8, 1.2, ILW)
BO_P = ModelParams(0.8, 1.2, BO)


def dense_block_solve(params, grid, c, rhs):
    """Independent oracle: assemble the full 2N-by-2N block system with the
    nonlocal operator as a dense nodal matrix and solve by elimination."""
    n = grid.n_modes
    x = grid.nodes
    basis = np.exp(1j * np.outer(x, grid.wavenumbers))  # nodal <- coefficient
    basis_inv = np.conj(basis.T) / n
    g_dense = (basis @ np.diag(symbol_g(params, grid.wavenumbers)) @ basis_inv).real
    eye = np.eye(n)
    beta = (params.alpha - 1.0) / params.alpha
    s_full = np.block([
        [-c * (eye + g_dense), (eye + beta * g_dense) / params.gamma],
        [(1.0 - params.gamma) * eye, -c * eye],
    ])
    rhs_nodal = np.concatenate([to_nodal(grid, c).real for c in full_state(rhs)])
    sol = np.linalg.solve(s_full, rhs_nodal)
    return state_from_nodal(grid, sol[:n], sol[n:]).half


class TestSolitaryConfig:
    def test_validation(self):
        with pytest.raises(ValueError, match="speed"):
            SolitaryConfig(speed=0.0)
        with pytest.raises(ValueError, match="tol"):
            SolitaryConfig(speed=0.5, tol=0.0)
        with pytest.raises(ValueError, match="mw"):
            SolitaryConfig(speed=0.5, mw=0)
        with pytest.raises(ValueError, match="seed_amplitude"):
            SolitaryConfig(speed=0.5, seed_amplitude=0.0)
        with pytest.raises(ValueError, match="seed_width"):
            SolitaryConfig(speed=0.5, seed_width=-1.0)
        with pytest.raises(ValueError, match="seed_width"):
            SolitaryConfig(speed=0.5, seed_width=0.0)

    def test_one_iteration_is_the_least_cap(self):
        assert SolitaryConfig(speed=0.5, max_iter=1).max_iter == 1
        with pytest.raises(ValueError, match="max_iter must be >= 1"):
            SolitaryConfig(speed=0.5, max_iter=0)

    def test_speed_whose_reciprocal_overflows(self):
        # 1/c = inf made the seed's u non-finite
        with pytest.raises(ValueError, match="speed c=-5e-324"):
            SolitaryConfig(speed=-5e-324)
        assert SolitaryConfig(speed=1e-300).speed == 1e-300
        assert SolitaryConfig(speed=1e-308).speed == 1e-308  # 1/c = 1e308, finite

    @pytest.mark.parametrize("name", ["max_iter", "mw"])
    def test_non_integral_counts_are_rejected(self, name):
        # mw = 1.5 reached cycled_solve, which raised a bare TypeError
        for value in (1.5, 2.0, "2"):
            with pytest.raises(ValueError, match=f"^{name} must be an integer"):
                SolitaryConfig(**{"speed": 0.57, name: value})
        assert getattr(SolitaryConfig(**{"speed": 0.57, name: np.int64(2)}), name) == 2

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("name", ["speed", "tol", "seed_amplitude", "seed_width"])
    def test_non_finite_values_are_rejected(self, name, value):
        # tol = nan ran to max_iter and speed = nan ended as "diverged"
        with pytest.raises(ValueError, match=f"^{name} must be finite"):
            SolitaryConfig(**{"speed": 0.5, name: value})


class TestAssembleSMode:
    def test_ilw_zero_mode_entries(self):
        # g(0) = alpha/gamma = 1.5 fills in the hand-computed entries
        m = assemble_S_mode(ILW_P, 0.52, 0.0)
        expected = np.array([[-1.3, 1.5625], [0.2, -0.52]])
        assert np.allclose(m, expected, atol=1e-14)
        assert np.linalg.det(m) == pytest.approx(0.3635, abs=1e-14)

    def test_bo_zero_mode(self):
        c = 0.57
        m = assemble_S_mode(BO_P, c, 0.0)
        assert np.allclose(m, [[-c, 1.25], [0.2, -c]], atol=1e-14)
        assert np.linalg.det(m) == pytest.approx(c * c - 0.25, abs=1e-14)

    def test_determinant_growth(self):
        # det = c^2 (1+g) - ((1-gamma)/gamma)(1 + beta g) grows linearly in g
        # with slope c^2 - (1-gamma)(alpha-1)/(gamma*alpha)
        c = 0.52
        k = np.linspace(200.0, 400.0, 21)
        dets = np.array([np.linalg.det(assemble_S_mode(ILW_P, c, kk)) for kk in k])
        g = symbol_g(ILW_P, k)
        slope = np.polyfit(g, dets, 1)[0]
        expected = c * c - (1 - 0.8) * (1.2 - 1) / (0.8 * 1.2)
        assert slope == pytest.approx(expected, rel=1e-10)
        assert dets[-1] > 10.0 * abs(np.linalg.det(assemble_S_mode(ILW_P, c, 0.0)))


class TestSolveS:
    # apply_S, solve_S and nonlinearity_F are the fresh-array oracle of
    # conftest; TestWorkspace holds the solver's workspace to them bit for bit
    def test_inverse_composition(self):
        grid = SpectralGrid(8.0, 32)
        rng = np.random.default_rng(4)
        z = random_half(grid, rng)
        back = solve_S(ILW_P, grid, 0.52, apply_S(ILW_P, grid, 0.52, z))
        assert np.max(np.abs(back[0] - z[0])) < 1e-12
        assert np.max(np.abs(back[1] - z[1])) < 1e-12

    def test_zero_rhs(self):
        grid = SpectralGrid(8.0, 32)
        out = solve_S(BO_P, grid, 0.57, zero_state(grid).half)
        assert np.max(np.abs(out[0])) == 0.0

    def test_linearity(self):
        grid = SpectralGrid(8.0, 32)
        rng = np.random.default_rng(17)
        rhs = random_half(grid, rng)
        a = solve_S(ILW_P, grid, 0.52, 3.5 * rhs)
        b = 3.5 * solve_S(ILW_P, grid, 0.52, rhs)
        assert np.max(np.abs(a[0] - b[0])) < 1e-12
        assert np.max(np.abs(a[1] - b[1])) < 1e-12

    @pytest.mark.parametrize("params,c", [(ILW_P, 0.52), (BO_P, 0.57)])
    def test_matches_dense_block_oracle(self, params, c):
        grid = SpectralGrid(4.0, 8)
        rng = np.random.default_rng(8)
        rhs = random_half(grid, rng)
        mine = solve_S(params, grid, c, rhs)
        oracle = dense_block_solve(params, grid, c, rhs)
        assert np.max(np.abs(mine[0] - oracle[0])) < 1e-10
        assert np.max(np.abs(mine[1] - oracle[1])) < 1e-10

    def test_singular_speed_detected(self):
        # pick c so that det S vanishes exactly at a chosen grid mode: the
        # per-mode determinant root of c^2 (1+g) = ((1-gamma)/gamma)(1+beta*g)
        grid = SpectralGrid(64.0, 64)
        kt = grid.wavenumbers[5]
        g = float(symbol_g(ILW_P, kt))
        beta = (1.2 - 1.0) / 1.2
        c_sing = np.sqrt((0.2 / 0.8) * (1 + beta * g) / (1 + g))
        rng = np.random.default_rng(10)
        rhs = random_half(grid, rng)
        with pytest.raises(SingularModeError) as excinfo:
            solve_S(ILW_P, grid, c_sing, rhs)
        assert abs(excinfo.value.ktilde) == pytest.approx(abs(kt), rel=1e-12)

    @pytest.mark.parametrize("ratio, singular", [(0.5e-12, True), (1.5e-12, False)])
    def test_the_singular_floor(self, ratio, singular):
        # c with |det S| at mode 5 = ratio * the mode's largest entry, against
        # DET_FLOOR = 1e-12: det = c^2 (1+g) - ((1-gamma)/gamma)(1+beta*g)
        grid = SpectralGrid(64.0, 64)
        g = float(symbol_g(ILW_P, grid.wavenumbers[5]))
        product = (0.2 / 0.8) * (1 + g / 6)
        c_sing = math.sqrt(product / (1 + g))
        largest = max(c_sing * (1 + g), (1 + g / 6) / 0.8, 0.2)
        c = math.sqrt((product + ratio * largest) / (1 + g))
        rhs = random_half(grid, np.random.default_rng(10))
        if singular:
            with pytest.raises(SingularModeError):
                solve_S(ILW_P, grid, c, rhs)
        else:
            solve_S(ILW_P, grid, c, rhs)

    def test_a_determinant_on_the_floor_is_singular(self, monkeypatch):
        # B-O, gamma 0.5, c 1.5: at k = 0, where g = 0, det S = c^2 - 1 = 1.25
        # and the largest entry is 1/gamma = 2, both exact, so a DET_FLOOR of
        # 0.625 puts |det| on the floor there; every other mode lies above it
        params, grid = ModelParams(0.5, 1.2, BO), SpectralGrid(16.0, 32)
        rhs = random_half(grid, np.random.default_rng(3))
        monkeypatch.setattr(solitary, "DET_FLOOR", 0.625)
        with pytest.raises(SingularModeError) as excinfo:
            solve_S(params, grid, 1.5, rhs)
        assert excinfo.value.ktilde == 0.0
        monkeypatch.setattr(solitary, "DET_FLOOR", 0.62)
        solve_S(params, grid, 1.5, rhs)


class TestNonlinearity:
    def test_zero(self):
        grid = SpectralGrid(4.0, 16)
        out = nonlinearity_F(ILW_P, grid, zero_state(grid).half)
        assert np.max(np.abs(out[0])) == 0.0

    def test_quadratic_homogeneity(self):
        grid = SpectralGrid(4.0, 32)
        rng = np.random.default_rng(6)
        z = random_half(grid, rng, 0.2)
        s = -1.7
        a = nonlinearity_F(BO_P, grid, s * z)
        b = (s * s) * nonlinearity_F(BO_P, grid, z)
        assert np.max(np.abs(a[0] - b[0])) < 1e-12
        assert np.max(np.abs(a[1] - b[1])) < 1e-12

    def test_single_mode_against_convolution_oracle(self):
        grid = SpectralGrid(4.0, 16)
        zeta_hat, u_hat = np.zeros((2, 16), dtype=complex)
        zeta_hat[1] = 0.2
        zeta_hat[-1] = 0.2
        u_hat[2] = -0.1
        u_hat[-2] = -0.1
        out = full_state(nonlinearity_F(ILW_P, grid, state_of(zeta_hat, u_hat).half))
        zu = brute_force_product(grid, zeta_hat, u_hat) / 0.8
        uu = brute_force_product(grid, u_hat, u_hat) / 1.6
        assert np.max(np.abs(out[0] - zu)) < 1e-13
        assert np.max(np.abs(out[1] - uu)) < 1e-13


class TestWorkspace:
    """The workspace against the fresh-array functions in conftest, to the bit."""

    @pytest.mark.parametrize("params, c", [(ILW_P, 0.52), (BO_P, 0.57)])
    @pytest.mark.parametrize("n", [8, 64, 1024])
    def test_matches_the_fresh_array_functions(self, params, c, n):
        grid = SpectralGrid(n / 16.0, n)
        rng = np.random.default_rng(n)
        z = random_half(grid, rng, 0.3).real.copy()
        workspace = Workspace(params, grid, c)
        out = np.full_like(z, np.nan)
        assert np.array_equal(workspace.apply_S(z, out), apply_S(params, grid, c, z))
        assert np.array_equal(workspace.solve_S(z, out), solve_S(params, grid, c, z))
        assert np.array_equal(workspace.F(z, out), nonlinearity_F(params, grid, z))
        fz = np.full_like(z, np.nan)
        m, res = workspace.evaluate(z, fz)
        want_fz, want_m, want_res = fresh_evaluate_iterate(params, grid, c, z)
        assert np.array_equal(fz, want_fz)
        assert (m, res) == (want_m, want_res)
        want_step = fresh_petviashvili_step(params, grid, c, want_fz, want_m)
        assert np.array_equal(workspace.step(fz, m, out), want_step)
        # the ladder's wrappers build a workspace per call
        got_fz, got_m, got_res = evaluate_iterate(params, grid, c, z)
        assert np.array_equal(got_fz, want_fz) and (got_m, got_res) == (want_m, want_res)
        assert np.array_equal(petviashvili_step(params, grid, c, fz, m), want_step)


    @pytest.mark.parametrize("below", [False, True])
    def test_m_is_nan_only_strictly_below_the_denominator_floor(self, monkeypatch, below):
        # ||Z||^2 = 1, <S Z, Z> = 2 and <F(Z), Z> exactly DENOMINATOR_FLOOR
        # still divide; one ulp less is negligible
        grid = SpectralGrid(4.0, 64)
        z = random_half(grid, np.random.default_rng(1), 0.3).real
        fz = np.empty_like(z)
        workspace = Workspace(BO_P, grid, 0.57)
        floor = solitary.DENOMINATOR_FLOOR
        den = np.nextafter(floor, 0.0) if below else floor

        def inner(grid, a, b):
            return 1.0 if a is b else den if a is fz else 2.0

        monkeypatch.setattr(solitary, "nodal_inner", inner)
        m = workspace.evaluate(z, fz)[0]
        assert math.isnan(m) if below else m == 2.0 / floor


class TestSeedProfile:
    def test_even_profile_has_real_coefficients(self):
        # the seed is the cosine coefficients: the real part of the half
        # spectrum, whose imaginary part is only rounding
        grid = SpectralGrid(16.0, 128)
        cfg = SolitaryConfig(speed=0.5, seed_amplitude=-0.4, seed_width=0.8)
        seed = seed_profile(ILW_P, grid, cfg)
        zeta = -0.4 / np.cosh(0.8 * grid.nodes) ** 2
        half = state_from_nodal(grid, zeta, (1.0 - 0.8) * zeta / 0.5).half
        assert seed.dtype == np.float64 and seed.flags.c_contiguous
        assert np.array_equal(seed, half.real)
        assert 0.0 < np.max(np.abs(half.imag)) < 1e-16

    def test_wide_grid_builds_without_overflow_warnings(self):
        grid = SpectralGrid(1024.0, 16384)
        cfg = SolitaryConfig(speed=0.57, seed_width=0.8)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            seed = seed_profile(BO_P, grid, cfg)
        assert np.isfinite(seed).all()

    def test_linearized_velocity_relation(self):
        grid = SpectralGrid(16.0, 128)
        cfg = SolitaryConfig(speed=0.5, seed_amplitude=-0.3, seed_width=1.0)
        seed = seed_profile(BO_P, grid, cfg)
        zeta, u = state_to_nodal(grid, StatePair(seed))
        assert np.max(np.abs(u - (1 - 0.8) * zeta / 0.5)) < 1e-13


class TestPetviashvili:
    def test_iterations_used_is_the_last_rows_solve_count(self):
        trace = IterationTrace()
        assert trace.iterations_used == 0
        for inner in (0, 1, 1, 2):
            trace.append(1.0, 1.0, "plain", inner)
        assert trace.iterations_used == 2
        with pytest.raises(AttributeError):
            trace.iterations_used = 5

    def test_restart_from_converged_wave(self, bo_params, wave_grid, bo_wave):
        # criterion-10 behavior: the converged output is a fixed point
        config, wave, _ = bo_wave
        _, trace = cycled_solve(bo_params, wave_grid, config, seed=wave)
        assert trace.converged
        assert trace.iterations_used == 0
        assert abs(trace.m_factors[0] - 1.0) <= 1e-6
        assert trace.residuals[0] <= config.tol

    def test_fixed_point_stays(self, bo_params, wave_grid, bo_wave):
        config, wave, _ = bo_wave
        fz, m, _ = evaluate_iterate(bo_params, wave_grid, config.speed, wave.half.real)
        z1 = petviashvili_step(bo_params, wave_grid, config.speed, fz, m)
        diff = StatePair(z1 - wave.half)
        # the wave satisfies the system to RES <= tol, so one update moves it
        # by at most the residual level
        assert np.max(np.abs(diff.zeta_hat)) < config.tol
        assert np.max(np.abs(diff.u_hat)) < config.tol

    def test_m_tends_to_one(self, ilw_wave, bo_wave):
        for _, _, trace in (ilw_wave, bo_wave):
            assert abs(trace.m_factors[-1] - 1.0) <= 1e-6

    def test_nonconvergence_trace_has_cap_rows(self, ilw_params, wave_grid):
        config = SolitaryConfig(speed=0.52, tol=1e-10, max_iter=5, mw=1, seed_width=1.2)
        with pytest.raises(NonConvergenceError) as excinfo:
            cycled_solve(ilw_params, wave_grid, config)
        trace = excinfo.value.trace
        assert len(trace.residuals) == 6  # the seed and each of the 5 solves
        assert trace.iterations_used == 5
        assert not trace.converged

    def test_denominator_collapse(self):
        # F(zeta, 0) = 0, so <F(Z), Z> vanishes for any pure-zeta state
        grid = SpectralGrid(8.0, 32)
        zeta_hat = np.zeros(32, dtype=complex)
        zeta_hat[1] = 0.5
        zeta_hat[-1] = 0.5
        z = state_of(zeta_hat, np.zeros(32, dtype=complex))
        fz, m, res = evaluate_iterate(ILW_P, grid, 0.52, z.half.real)
        assert np.isnan(m)
        # F(Z) and the residual are computed as for any iterate
        assert not fz.any()
        assert res == nodal_norm(grid, apply_S(ILW_P, grid, 0.52, z.half.real)) > 0

    def test_zero_seed_rejected(self, ilw_params):
        grid = SpectralGrid(8.0, 32)
        config = SolitaryConfig(speed=0.52)
        with pytest.raises(ValueError, match="seed"):
            cycled_solve(ilw_params, grid, config, seed=zero_state(grid))

    def test_a_translated_seed_is_rejected(self, ilw_params, ilw_smooth_wave):
        # the solve runs on cosine coefficients, which hold even waves only
        grid, config, wave, _ = ilw_smooth_wave
        shift_nodes = 37
        seed = seed_profile(ilw_params, grid, config)
        zeta, u = state_to_nodal(grid, StatePair(seed))
        shifted_seed = state_from_nodal(
            grid, np.roll(zeta, shift_nodes), np.roll(u, shift_nodes))
        before = shifted_seed.half.copy()
        with pytest.raises(ValueError, match="seed must be even"):
            cycled_solve(ilw_params, grid, config, seed=shifted_seed)
        assert np.array_equal(shifted_seed.half, before)
        # the translated wave is the solved one, turned
        shifted_wave = translate_state(grid, wave, shift_nodes * grid.node_spacing)
        assert residual_norm(ilw_params, grid, config.speed, shifted_wave) <= config.tol

    def test_same_wave_from_different_seed_amplitudes(self, ilw_params, ilw_smooth_wave):
        grid, config, wave, _ = ilw_smooth_wave
        other_cfg = SolitaryConfig(
            speed=config.speed, tol=config.tol, max_iter=config.max_iter,
            mw=1, seed_amplitude=-0.25, seed_width=config.seed_width,
        )
        other, trace = cycled_solve(ilw_params, grid, other_cfg)
        assert trace.converged
        a = state_to_nodal(grid, wave)[0]
        b = state_to_nodal(grid, other)[0]
        # align crests before comparing
        shift = np.argmax(np.abs(b)) - np.argmax(np.abs(a))
        assert np.max(np.abs(np.roll(b, -shift) - a)) < 1e-8

    def test_algebraic_relation_on_resolved_wave(self, bo_params, wave_grid, bo_wave):
        # second (derivative-free) equation holds pointwise once the wave is
        # spectrally resolved
        config, wave, _ = bo_wave
        zeta, u = state_to_nodal(wave_grid, wave)
        resid = -config.speed * u + (1 - 0.8) * zeta - u * u / (2 * 0.8)
        assert np.max(np.abs(resid)) <= 10.0 * config.tol

    def test_planted_small_instance(self):
        # plant the exact discrete solution on N=8 with an independent dense
        # Newton solve, then require the iteration to recover it
        params = BO_P
        grid = SpectralGrid(16.0, 8)
        c = 0.57
        x = grid.nodes
        basis = np.exp(1j * np.outer(x, grid.wavenumbers))
        basis_inv = np.conj(basis.T) / grid.n_modes
        g_dense = (basis @ np.diag(symbol_g(params, grid.wavenumbers)) @ basis_inv).real
        eye = np.eye(8)
        beta = (params.alpha - 1.0) / params.alpha
        s_full = np.block([
            [-c * (eye + g_dense), (eye + beta * g_dense) / params.gamma],
            [(1.0 - params.gamma) * eye, -c * eye],
        ])

        def gal_f(v):
            # same alias-free quadratic terms as the iteration under test
            z = state_from_nodal(grid, v[:8], v[8:]).half
            f = full_state(nonlinearity_F(params, grid, z))
            return np.concatenate([to_nodal(grid, c).real for c in f])

        v = np.concatenate([-0.4 / np.cosh(0.4 * x) ** 2,
                            -0.1 / np.cosh(0.4 * x) ** 2])
        for _ in range(80):
            r = s_full @ v - gal_f(v)
            if np.linalg.norm(r) < 1e-13:
                break
            jac = np.zeros((16, 16))
            eps = 1e-7
            for i in range(16):
                dv = np.zeros(16)
                dv[i] = eps
                jac[:, i] = (gal_f(v + dv) - gal_f(v - dv)) / (2 * eps)
            v = v - np.linalg.solve(s_full - jac, r)
        assert np.linalg.norm(s_full @ v - gal_f(v)) < 1e-12
        assert np.abs(v).max() > 1e-3  # nontrivial solution planted

        planted = state_from_nodal(grid, v[:8], v[8:])
        config = SolitaryConfig(speed=c, tol=1e-12, max_iter=200, mw=1)
        seed = state_from_nodal(grid, 1.3 * v[:8], 1.3 * v[8:])
        recovered, trace = cycled_solve(params, grid, config, seed=StatePair(seed.half.real))
        assert trace.converged
        assert np.max(np.abs(recovered.zeta_hat - planted.zeta_hat)) < 1e-10
        assert np.max(np.abs(recovered.u_hat - planted.u_hat)) < 1e-10

    def test_demo_runs_converge(self, ilw_wave, bo_wave):
        for _, _, trace in (ilw_wave, bo_wave):
            assert trace.converged
            assert trace.iterations_used <= 500
