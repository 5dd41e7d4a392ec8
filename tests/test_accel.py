"""Tests for minimal polynomial extrapolation and cycling-mode acceleration."""

from dataclasses import replace

import numpy as np
import pytest

from ilwbo import BO, ILW, ModelParams, SolitaryConfig, SpectralGrid, StatePair, accel
from ilwbo.accel import cycled_solve, mpe_coefficients, mpe_extrapolate
from ilwbo.errors import NonConvergenceError
from ilwbo.solitary import evaluate_iterate, petviashvili_step, seed_profile
from ilwbo.spectral import state_from_nodal, state_to_nodal

from conftest import (
    fresh_cycled_solve,
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

    @pytest.mark.parametrize("n", [8, 1024])
    @pytest.mark.parametrize("q", range(6))
    def test_stationary_window_bytes(self, q, n):
        # the minimum-norm solution for all-zero differences: exactly
        # (0, ..., 0, 1), with no negative zero
        rng = np.random.default_rng(q)
        same = rng.standard_normal((2, n // 2 + 1)) + 1j * rng.standard_normal((2, n // 2 + 1))
        window = np.stack([same] * (q + 2))
        assert mpe_coefficients(window).tobytes() == np.eye(q + 1)[-1].tobytes()

    def test_two_iterate_window(self):
        # order 0: no free coefficient, so the weight is exactly 1
        grid = SpectralGrid(1.0, 8)
        window = [embed(grid, [0.3, 1.0]), embed(grid, [-1.1, 2.0])]
        assert mpe_coefficients(window).tobytes() == np.ones(1).tobytes()

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

    def test_degenerate_sum_of_large_coefficients(self):
        # c = (1000, -1001 + 1e-11, 1): the sum, about 1e-11, is below
        # SUM_FLOOR * max|c| (about 1e-9), though above SUM_FLOOR / max|c|
        grid = SpectralGrid(1.0, 8)
        steps = [[1.0, 0.0], [0.0, 1.0], [-1000.0, 1001.0 - 1e-11]]
        window = [embed(grid, [0.0, 0.0])]
        for step in steps:
            window.append(window[-1] + embed(grid, step))
        gammas = mpe_coefficients(window)
        assert gammas.shape == (3,) and np.isnan(gammas).all()

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

    def test_a_sum_that_misses_1_by_exactly_the_bound_is_accepted(self):
        # the bound is inclusive: these weights miss 1 by 1e-12 * sum|gamma|
        # to the last bit (y was searched for that)
        grid = SpectralGrid(1.0, 8)
        window = [embed(grid, [1.0]), embed(grid, [1.0]), embed(grid, [1.0])]
        y = float.fromhex("0x1.0008bd41a259cp+0")
        gammas = np.array([float.fromhex("0x1.00000000034c8p+0"), y, -y])
        assert abs(gammas.sum() - 1.0) == 1e-12 * np.abs(gammas).sum()
        x = mpe_extrapolate(window, gammas)
        assert extract(grid, x, 1)[0] == pytest.approx(1.0, abs=1e-11)

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
                config = SolitaryConfig(speed=c, tol=1e-10, max_iter=500, mw=mw, seed_width=1.2)
                _, trace = cycled_solve(params, wave_grid, config)
                counts[mw] = trace.iterations_used
            assert counts[2] < counts[1]

    def test_trace_phases_and_counts(self, bo_params, wave_grid):
        config = SolitaryConfig(speed=0.57, tol=1e-8, max_iter=300, mw=3, seed_width=1.2)
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
            config = SolitaryConfig(speed=0.57, tol=tol, max_iter=500, mw=mw, seed_width=1.2)
            wave, trace = cycled_solve(bo_params, wave_grid, config)
            assert trace.converged
            profiles[mw] = state_to_nodal(wave_grid, wave)[0]
        base = profiles[1]
        i0 = np.argmax(np.abs(base))
        for mw in (2, 3, 4):
            other = profiles[mw]
            shift = np.argmax(np.abs(other)) - i0
            assert np.max(np.abs(np.roll(other, -shift) - base)) <= 10.0 * tol

    @pytest.mark.parametrize("mw", [2**40, 2**59, 2**70])
    def test_window_too_large_to_allocate_names_mw(self, bo_params, wave_grid, mw):
        # numpy raises MemoryError for 2**40 and ValueError past its address space
        with pytest.raises(ValueError, match=f"^mw={mw} asks for an iterate window too large"):
            cycled_solve(bo_params, wave_grid, SolitaryConfig(speed=0.57, mw=mw))

    def test_guarded_cycling_never_ends_worse(self, ilw_params, wave_grid):
        # converged result must beat every plain iterate seen along the way
        config = SolitaryConfig(speed=0.52, tol=1e-10, max_iter=500, mw=4, seed_width=1.2)
        wave, trace = cycled_solve(ilw_params, wave_grid, config)
        final = residual_norm(ilw_params, wave_grid, config.speed, wave)
        plain_res = [r for r, ph in zip(trace.residuals, trace.phases) if ph == "plain"]
        assert final <= min(plain_res)


def assert_same_trace(trace, want):
    assert trace.residuals == want.residuals
    assert trace.m_factors == want.m_factors
    assert trace.phases == want.phases
    assert trace.inner_steps == want.inner_steps
    assert trace.extrapolations == want.extrapolations
    assert (trace.converged, trace.iterations_used) == (want.converged, want.iterations_used)


class TestMatchesFreshArrayLoop:
    """`cycled_solve`, on its workspace and per-solve window, against the
    fresh-array loop in conftest: the same wave and trace to the bit."""

    @pytest.mark.parametrize("params, c", [(ModelParams(0.8, 1.2, BO), 0.57),
                                           (ModelParams(0.8, 1.2, ILW), 0.40)])
    @pytest.mark.parametrize("mw", [1, 2, 4])
    def test_converged_solve(self, wave_grid, params, c, mw):
        config = SolitaryConfig(speed=c, mw=mw)
        wave, trace = cycled_solve(params, wave_grid, config)
        want, want_trace = fresh_cycled_solve(params, wave_grid, config)
        assert trace.converged
        if mw > 1:  # both guard outcomes occur
            assert trace.extrapolations["accepted"] > 0 and trace.extrapolations["rejected"] > 0
        assert np.array_equal(wave.half, want.half)
        assert_same_trace(trace, want_trace)

    @pytest.mark.parametrize("mw", [1, 3])
    def test_solve_stopped_by_max_iter(self, bo_params, wave_grid, mw):
        config = SolitaryConfig(speed=0.57, mw=mw, max_iter=7)
        with pytest.raises(NonConvergenceError) as got:
            cycled_solve(bo_params, wave_grid, config)
        with pytest.raises(NonConvergenceError) as want:
            fresh_cycled_solve(bo_params, wave_grid, config)
        assert got.value.trace.iterations_used == 7
        assert_same_trace(got.value.trace, want.value.trace)

    def test_skipped_cycles(self, ilw_params, wave_grid, monkeypatch):
        monkeypatch.setattr(accel, "mpe_coefficients",
                            lambda window: np.full(len(window) - 1, np.nan))
        config = SolitaryConfig(speed=0.40, mw=3)
        wave, trace = cycled_solve(ilw_params, wave_grid, config)
        want, want_trace = fresh_cycled_solve(ilw_params, wave_grid, config)
        assert trace.extrapolations["skipped"] > 0
        assert np.array_equal(wave.half, want.half)
        assert_same_trace(trace, want_trace)

    def test_restart_from_a_seed(self, bo_params, wave_grid, bo_wave):
        config, converged, _ = bo_wave
        config = replace(config, mw=2)
        seed = StatePair(0.9 * converged.half)
        before = seed.half.copy()
        wave, trace = cycled_solve(bo_params, wave_grid, config, seed=seed)
        want, want_trace = fresh_cycled_solve(bo_params, wave_grid, config, seed=seed)
        assert np.array_equal(seed.half, before)
        assert np.array_equal(wave.half, want.half)
        assert_same_trace(trace, want_trace)

    def test_the_wave_owns_its_memory(self, bo_params, wave_grid):
        # a view into the per-solve window would pin mw+1 states
        config = SolitaryConfig(speed=0.57, mw=4)
        first, _ = cycled_solve(bo_params, wave_grid, config)
        second, _ = cycled_solve(bo_params, wave_grid, config)
        for wave in (first, second):
            assert wave.half.base is None
        assert not np.shares_memory(first.half, second.half)
        # a seed that has converged already comes back as a new array
        again, trace = cycled_solve(bo_params, wave_grid, config, seed=first)
        assert trace.iterations_used == 0
        assert again.half.base is None and not np.shares_memory(again.half, first.half)


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
        config = SolitaryConfig(speed=c, seed_width=1.2)
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
