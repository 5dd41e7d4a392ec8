"""Tests for minimal polynomial extrapolation and cycling-mode acceleration."""

import numpy as np
import pytest

from ilwbo import BO, ILW, ModelParams, SolitaryConfig, SpectralGrid
from ilwbo.accel import cycled_solve, mpe_coefficients, mpe_extrapolate
from ilwbo.solitary import evaluate_iterate, petviashvili_step, seed_profile
from ilwbo.spectral import state_from_nodal, state_to_nodal

from conftest import (
    full_arrays,
    full_state,
    reference_cycled_solve,
    reference_mpe_coefficients,
    residual_norm,
    zero_state,
)


def embed(grid, vec):
    """Embed a real vector into paired-mode slots of a half spectrum, all of
    the same Parseval weight, so that array arithmetic and the nodal norm act
    on it exactly like plain vector arithmetic and the Euclidean norm."""
    z = zero_state(grid).half
    z[0, 1: len(vec) + 1] = vec
    return z


def extract(grid, state, dim):
    return state[0, 1: dim + 1].real


class TestMpeCoefficients:
    def test_scalar_affine_example(self):
        # z -> 0.5 z + 1 from 0: iterates (0, 1, 1.5); the order-1 system
        # c0 * W0 = -W1 gives c = (-1/2, 1), gammas (-1, 2), X = 2 exactly
        grid = SpectralGrid(1.0, 8)
        window = [embed(grid, [z]) for z in (0.0, 1.0, 1.5)]
        gammas = mpe_coefficients(window)
        assert np.allclose(gammas, [-1.0, 2.0], atol=1e-13)
        x = mpe_extrapolate(window, gammas)
        assert extract(grid, x, 1)[0] == pytest.approx(2.0, abs=1e-12)

    def test_stationary_window(self):
        grid = SpectralGrid(1.0, 8)
        same = embed(grid, [0.7, -0.2])
        window = [same.copy() for _ in range(4)]
        gammas = mpe_coefficients(window)
        assert np.allclose(gammas, [0.0, 0.0, 1.0], atol=0.0)
        x = mpe_extrapolate(window, gammas)
        assert np.allclose(extract(grid, x, 2), [0.7, -0.2], atol=1e-15)

    def test_gammas_sum_to_one_exactly(self):
        grid = SpectralGrid(1.0, 16)
        rng = np.random.default_rng(0)
        window = [embed(grid, rng.standard_normal(3)) for _ in range(5)]
        gammas = mpe_coefficients(window)
        assert gammas.sum() == pytest.approx(1.0, abs=1e-15)

    def test_two_dimensional_affine(self):
        # spectral radius < 1; one extrapolation of order 2 is exact
        m = np.array([[0.5, 0.2], [-0.1, 0.3]])
        b = np.array([1.0, -0.5])
        fixed = np.linalg.solve(np.eye(2) - m, b)
        grid = SpectralGrid(1.0, 16)
        z = np.zeros(2)
        iterates = [z.copy()]
        for _ in range(3):
            z = m @ z + b
            iterates.append(z.copy())
        window = [embed(grid, v) for v in iterates]
        gammas = mpe_coefficients(window)
        x = extract(grid, mpe_extrapolate(window, gammas), 2)
        assert np.max(np.abs(x - fixed)) < 1e-10

    @pytest.mark.parametrize("dim", [2, 3, 4, 5, 6])
    def test_exact_on_affine_iterations(self, dim):
        # minimal polynomial degree <= dim and 1 not an eigenvalue: the
        # extrapolation over dim+2 iterates recovers the fixed point
        rng = np.random.default_rng(dim)
        eigs = rng.uniform(-0.9, 0.9, size=dim)
        basis = rng.standard_normal((dim, dim)) + np.eye(dim)
        m = basis @ np.diag(eigs) @ np.linalg.inv(basis)
        b = rng.standard_normal(dim)
        fixed = np.linalg.solve(np.eye(dim) - m, b)
        grid = SpectralGrid(1.0, 32)
        z = rng.standard_normal(dim)
        iterates = [z.copy()]
        for _ in range(dim + 1):
            z = m @ z + b
            iterates.append(z.copy())
        window = [embed(grid, v) for v in iterates]
        x = extract(grid, mpe_extrapolate(window, mpe_coefficients(window)), dim)
        assert np.max(np.abs(x - fixed)) < 1e-9

    def test_degenerate_sum(self):
        # z -> z + 1 has eigenvalue 1: the coefficient sum vanishes
        grid = SpectralGrid(1.0, 8)
        window = [embed(grid, [float(j)]) for j in range(3)]
        gammas = mpe_coefficients(window)
        assert gammas.shape == (2,) and np.isnan(gammas).all()

    def test_window_too_short(self):
        grid = SpectralGrid(1.0, 8)
        with pytest.raises(ValueError):
            mpe_coefficients([zero_state(grid).half])


class TestMpeExtrapolate:
    def test_identity_gammas(self):
        grid = SpectralGrid(1.0, 8)
        window = [embed(grid, [1.0]), embed(grid, [2.0]), embed(grid, [3.0])]
        x = mpe_extrapolate(window, np.array([0.0, 1.0]))
        assert extract(grid, x, 1)[0] == pytest.approx(2.0, abs=1e-15)

    def test_affine_combination_of_equal_iterates(self):
        grid = SpectralGrid(1.0, 8)
        same = embed(grid, [0.4])
        window = [same.copy() for _ in range(3)]
        x = mpe_extrapolate(window, np.array([3.0, -2.0]))
        assert extract(grid, x, 1)[0] == pytest.approx(0.4, abs=1e-14)

    def test_sum_tolerance_scales_with_weight_magnitude(self):
        # gammas = c / sum(c) as mpe_coefficients forms them: with a near-
        # degenerate sum the weights are large and their rounded sum misses
        # 1 by ~eps * sum|gamma|, far beyond an absolute 1e-12 (this crashed
        # cycled_solve on B-O c = 0.62, mw = 4)
        grid = SpectralGrid(1.0, 8)
        window = [embed(grid, [1.0]), embed(grid, [1.0]), embed(grid, [1.0])]
        rng = np.random.default_rng(0)
        missed = 0
        for _ in range(200):
            big = rng.standard_normal() * 1e6
            c = np.array([big, 2.0 + rng.standard_normal() - big, 1.0])
            gammas = c / c.sum()
            missed += abs(gammas.sum() - 1.0) > 1e-12
            x = mpe_extrapolate(window, gammas)
            assert extract(grid, x, 1)[0] == pytest.approx(1.0, rel=1e-6)
        assert missed > 0

    def test_rejects_non_affine_weights(self):
        grid = SpectralGrid(1.0, 8)
        window = [embed(grid, [1.0]), embed(grid, [2.0])]
        for gammas in ([0.3, 0.3], [np.nan, np.nan]):  # nan: a degenerate sum's weights
            with pytest.raises(ValueError, match="sum to 1"):
                mpe_extrapolate(window, np.array(gammas))


class TestCycledSolve:
    def test_acceleration_reduces_iterations(self, ilw_params, bo_params, wave_grid):
        for params, c in ((ilw_params, 0.52), (bo_params, 0.57)):
            counts = {}
            for mw in (1, 2):
                config = SolitaryConfig(speed=c, tol=1e-10, max_iter=500, mw=mw)
                _, trace = cycled_solve(params, wave_grid, config)
                counts[mw] = trace.iterations_used
            assert counts[2] < counts[1]

    def test_trace_phases_and_counts(self, bo_params, wave_grid):
        config = SolitaryConfig(speed=0.57, tol=1e-8, max_iter=300, mw=3)
        _, trace = cycled_solve(bo_params, wave_grid, config)
        assert trace.converged
        assert set(trace.phases) <= {"plain", "extrapolated"}
        assert "extrapolated" in trace.phases
        # inner-step counter never decreases and matches iterations_used
        assert trace.inner_steps == sorted(trace.inner_steps)
        assert trace.inner_steps[-1] == trace.iterations_used
        # extrapolations cost no fixed-point solves
        plain_rows = sum(1 for ph in trace.phases if ph == "plain")
        assert plain_rows == trace.iterations_used + 1

    def test_converged_profiles_agree_across_widths(self, bo_params, wave_grid):
        # accelerated and plain runs land on the same wave (after aligning
        # crests, to the residual tolerance)
        tol = 1e-10
        profiles = {}
        for mw in (1, 2, 3, 4):
            config = SolitaryConfig(speed=0.57, tol=tol, max_iter=500, mw=mw)
            wave, trace = cycled_solve(bo_params, wave_grid, config)
            assert trace.converged
            profiles[mw] = state_to_nodal(wave_grid, wave)[0]
        base = profiles[1]
        i0 = np.argmax(np.abs(base))
        for mw in (2, 3, 4):
            other = profiles[mw]
            shift = np.argmax(np.abs(other)) - i0
            assert np.max(np.abs(np.roll(other, -shift) - base)) <= 10.0 * tol

    def test_guarded_cycling_never_ends_worse(self, ilw_params, wave_grid):
        # converged result must beat every plain iterate seen along the way
        config = SolitaryConfig(speed=0.52, tol=1e-10, max_iter=500, mw=4)
        wave, trace = cycled_solve(ilw_params, wave_grid, config)
        final = residual_norm(ilw_params, wave_grid, config.speed, wave)
        plain_res = [r for r, ph in zip(trace.residuals, trace.phases) if ph == "plain"]
        assert final <= min(plain_res)


class TestMatchesFullLengthOracle:
    """The half-spectrum solve against the full-length solve in conftest."""

    def test_mpe_coefficients_on_random_windows(self):
        grid = SpectralGrid(8.0, 256)
        rng = np.random.default_rng(3)
        for size in (3, 4, 5, 6):
            window = [state_from_nodal(grid, rng.standard_normal(256),
                                       rng.standard_normal(256)).half
                      for _ in range(size)]
            gammas = mpe_coefficients(window)
            want = reference_mpe_coefficients([full_state(z) for z in window])
            assert np.max(np.abs(gammas - want)) <= 1e-12 * max(1.0, np.max(np.abs(want)))

    @pytest.mark.parametrize("params, c", [(ModelParams(0.8, 1.2, BO), 0.57),
                                           (ModelParams(0.8, 1.2, ILW), 0.40)])
    def test_mpe_coefficients_on_petviashvili_windows(self, wave_grid, params, c):
        config = SolitaryConfig(speed=c)
        window = [seed_profile(params, wave_grid, config)]
        for _ in range(5):
            fz, m, _ = evaluate_iterate(params, wave_grid, c, window[-1])
            window.append(petviashvili_step(params, wave_grid, c, fz, m))
        for size in (3, 4, 6):
            gammas = mpe_coefficients(window[:size])
            want = reference_mpe_coefficients([full_state(z) for z in window[:size]])
            assert np.max(np.abs(gammas - want)) <= 1e-12 * max(1.0, np.max(np.abs(want)))

    @pytest.mark.parametrize("params, c", [(ModelParams(0.8, 1.2, BO), 0.57),
                                           (ModelParams(0.8, 1.2, ILW), 0.40)])
    @pytest.mark.parametrize("mw", [1, 2, 4])
    def test_cycled_solve(self, wave_grid, params, c, mw):
        # seed_width 0.5: the CLI default, which the desk's accel block and
        # the benchmark's solitary sweep run with
        config = SolitaryConfig(speed=c, tol=1e-10, max_iter=500, mw=mw, seed_width=0.5)
        wave, trace = cycled_solve(params, wave_grid, config)
        want, want_trace = reference_cycled_solve(params, wave_grid, config)
        assert trace.converged and want_trace.converged
        assert trace.iterations_used == want_trace.iterations_used
        assert trace.phases == want_trace.phases
        assert trace.inner_steps == want_trace.inner_steps
        assert np.max(np.abs(full_arrays(wave) - want)) <= 1e-12 * np.max(np.abs(want))
        residual_gap = np.abs(np.subtract(trace.residuals, want_trace.residuals))
        assert np.max(residual_gap) <= 1e-12 * want_trace.residuals[0]
        if mw > 1:
            extrapolated = trace.phases.count("extrapolated")
            counts = trace.extrapolations
            assert extrapolated > 0 and counts["skipped"] == 0
            assert counts["accepted"] + counts["rejected"] == extrapolated
