"""Tests for the semidiscrete right-hand side and RK4 time stepping."""

import math

import numpy as np
import pytest
import scipy.linalg

import ilwbo.evolution as evolution
from ilwbo import BO, ILW, ModelParams, SpectralGrid
from ilwbo.errors import StepFailureError
from ilwbo.evolution import (
    EvolutionConfig,
    evolve,
    linear_speed_bound,
    max_stable_dt,
    semidiscrete_rhs,
    step,
)
from ilwbo.harness import gaussian_state, sech2_state, state_l2_distance
from ilwbo.spectral import (
    l2_norm,
    symbol_J,
    symbol_T,
    to_nodal,
)

from conftest import (
    Snapshots,
    brute_force_product,
    full_arrays,
    full_l2_norm,
    half_spectrum_rhs,
    half_spectrum_step,
    hermitian_symmetrize_reference,
    linear_mode_matrix,
    random_hermitian,
    reference_step,
    state_l2_norm,
    state_of,
    zero_mode_drift,
    zero_state,
)

ILW_P = ModelParams(0.8, 1.2, ILW)
BO_P = ModelParams(0.8, 1.2, BO)


def dense_rhs_oracle(params, grid, state):
    """Per-mode evaluation assembled by hand from the coefficient system,
    with the quadratic terms from the brute-force convolution oracle."""
    k = grid.wavenumbers
    ik = 1j * k
    ik[grid.n_modes // 2] = 0.0
    j = symbol_J(params, k)
    t = symbol_T(params, k)
    zu = brute_force_product(grid, state.zeta_hat, state.u_hat)
    uu = brute_force_product(grid, state.u_hat, state.u_hat)
    dz = -(1.0 / params.gamma) * j * ik * state.u_hat + (1.0 / params.gamma) * t * ik * zu
    du = -(1.0 - params.gamma) * ik * state.zeta_hat + ik * uu / (2.0 * params.gamma)
    return state_of(dz, du)


class TestSemidiscreteRhs:
    def test_zero_state(self):
        grid = SpectralGrid(2.0, 16)
        out = semidiscrete_rhs(ILW_P, grid, zero_state(grid))
        assert state_l2_norm(grid, out) == 0.0

    def test_constant_state(self):
        # every term carries a factor i*ktilde, which vanishes at k = 0
        grid = SpectralGrid(2.0, 16)
        zeta_hat, u_hat = np.zeros((2, 16), dtype=complex)
        zeta_hat[0] = 0.3
        u_hat[0] = -0.7
        state = state_of(zeta_hat, u_hat)
        out = semidiscrete_rhs(BO_P, grid, state)
        assert state_l2_norm(grid, out) < 1e-15

    @pytest.mark.parametrize("params", [ILW_P, BO_P])
    def test_matches_dense_mode_oracle(self, params):
        grid = SpectralGrid(3.0, 16)
        rng = np.random.default_rng(21)
        state = state_of(random_hermitian(grid, rng, 0.3), random_hermitian(grid, rng, 0.3))
        mine = semidiscrete_rhs(params, grid, state)
        oracle = dense_rhs_oracle(params, grid, state)
        assert np.max(np.abs(mine.zeta_hat - oracle.zeta_hat)) < 1e-12
        assert np.max(np.abs(mine.u_hat - oracle.u_hat)) < 1e-12

    def test_single_mode_state(self, ilw_params):
        grid = SpectralGrid(4.0, 16)
        zeta_hat, u_hat = np.zeros((2, 16), dtype=complex)
        zeta_hat[2] = 0.1
        zeta_hat[-2] = 0.1
        u_hat[1] = 0.05
        u_hat[-1] = 0.05
        state = state_of(zeta_hat, u_hat)
        mine = semidiscrete_rhs(ilw_params, grid, state)
        oracle = dense_rhs_oracle(ilw_params, grid, state)
        assert np.max(np.abs(mine.zeta_hat - oracle.zeta_hat)) < 1e-12
        assert np.max(np.abs(mine.u_hat - oracle.u_hat)) < 1e-12

    def test_nonfinite_rejected(self):
        grid = SpectralGrid(2.0, 16)
        zeta_hat, u_hat = np.zeros((2, 16), dtype=complex)
        u_hat[3] = np.nan
        state = state_of(zeta_hat, u_hat)
        with pytest.raises(StepFailureError):
            semidiscrete_rhs(ILW_P, grid, state)


class TestStep:
    def test_zero_fixed(self):
        grid = SpectralGrid(2.0, 16)
        out = step(BO_P, grid, zero_state(grid), 0.01)
        assert state_l2_norm(grid, out) == 0.0

    def test_linearized_step_matches_matrix_exponential(self, monkeypatch):
        # zero the quadratic products: each mode then evolves under its own
        # 2x2 linear matrix, and one RK4 step must match expm to O(dt^5)
        grid = SpectralGrid(4.0, 32)

        class NoProducts:
            def __init__(self, grid, factors):
                pass

            def __call__(self, half, out):
                out[...] = 0.0
                return out

        monkeypatch.setattr(evolution, "ProductKernel", NoProducts)
        rng = np.random.default_rng(2)
        state = state_of(random_hermitian(grid, rng), random_hermitian(grid, rng))
        errs = []
        for dt in (0.02, 0.01):
            out = step(ILW_P, grid, state, dt)
            expected = np.zeros((2, grid.n_modes), dtype=complex)
            for i, kt in enumerate(grid.wavenumbers):
                if i == grid.n_modes // 2:
                    propagator = np.eye(2)  # derivative symbol zeroed there
                else:
                    propagator = scipy.linalg.expm(dt * linear_mode_matrix(ILW_P, grid, kt))
                vec = propagator @ np.array([state.zeta_hat[i], state.u_hat[i]])
                expected[:, i] = vec
            errs.append(l2_norm(grid, out.half - state_of(*expected).half))
        assert errs[0] < 1e-6
        assert 16.0 <= errs[0] / errs[1] <= 64.0  # local defect is O(dt^5)

    def test_rk4_order_ladder(self):
        # one full step vs two half steps differs at O(dt^5): halving dt must
        # shrink the difference by ~32, within a factor 2
        params = ModelParams(0.5, 1.5, BO)
        grid = SpectralGrid(2.0, 128)
        y0 = gaussian_state(1.0, 0.25)(grid)
        diffs = []
        for dt in (1e-2, 5e-3, 2.5e-3):
            one = step(params, grid, y0, dt)
            half = step(params, grid, step(params, grid, y0, dt / 2), dt / 2)
            diffs.append(l2_norm(grid, one.half - half.half))
        for a, b in zip(diffs[:-1], diffs[1:]):
            assert 16.0 <= a / b <= 64.0

    def test_hermitian_preserved(self):
        grid = SpectralGrid(8.0, 64)
        y = gaussian_state(0.4, 1.0)(grid)
        out = step(ILW_P, grid, y, 0.05)
        for c in (out.zeta_hat, out.u_hat):
            assert np.max(np.abs(c - hermitian_symmetrize_reference(c))) < 1e-15


class TestEvolve:
    @pytest.mark.parametrize("params", [ILW_P, BO_P], ids=["ilw", "bo"])
    @pytest.mark.parametrize("n", [64, 256, 1024, 4096, 16384])
    def test_matches_full_length_reference_stepper(self, params, n):
        # 50 RK4 steps on the half spectrum against the same steps taken on
        # the full-length (2, N) arrays with two projected products per stage
        grid = SpectralGrid(n * 0.125 / 2, n)
        y0 = sech2_state(0.3, 0.8)(grid)
        y = full_arrays(y0)
        dt = 0.0625
        snaps = Snapshots()
        final = evolve(params, grid, y0, EvolutionConfig(t_end=50 * dt, dt=dt, record_every=25),
                       sink=snaps)
        assert snaps.times == [0.0, 25 * dt, 50 * dt]
        assert np.array_equal(final.half, snaps.states[-1].half)
        for i in range(50):
            y = reference_step(params, grid, y, dt)
            if i == 24:
                halfway = y
        for got, want in zip(snaps.states[1:], (halfway, y)):
            scale = np.max(np.abs(want))
            assert np.max(np.abs(got.zeta_hat - want[0])) <= 1e-13 * scale
            assert np.max(np.abs(got.u_hat - want[1])) <= 1e-13 * scale

    def test_zero_initial(self):
        grid = SpectralGrid(4.0, 32)
        snaps = Snapshots()
        final = evolve(BO_P, grid, zero_state(grid), EvolutionConfig(t_end=0.5, dt=0.01),
                       sink=snaps)
        assert all(state_l2_norm(grid, s) == 0.0 for s in snaps.states + [final])

    def test_mean_conservation_is_exact(self):
        # the k=0 right-hand side is identically zero, so the zero modes are
        # bitwise constant along the march
        grid = SpectralGrid(16.0, 64)
        snaps = Snapshots()
        evolve(
            ILW_P, grid, gaussian_state(0.2, 1.5)(grid),
            EvolutionConfig(t_end=1.0, dt=0.02, record_every=1), sink=snaps,
        )
        assert len(snaps.states) == 51 and zero_mode_drift(snaps.states) == 0.0

    def test_reality_throughout(self):
        grid = SpectralGrid(16.0, 64)
        snaps = Snapshots()
        evolve(
            BO_P, grid, gaussian_state(0.3, 1.5)(grid),
            EvolutionConfig(t_end=1.0, dt=0.02, record_every=5), sink=snaps,
        )
        worst = 0.0
        for s in snaps.states:
            worst = max(worst, np.max(np.abs(to_nodal(grid, s.zeta_hat).imag)))
            worst = max(worst, np.max(np.abs(to_nodal(grid, s.u_hat).imag)))
        assert worst < 1e-10

    def test_first_snapshot_is_initial(self):
        grid = SpectralGrid(4.0, 32)
        y0 = gaussian_state(0.1, 0.5)(grid)
        snaps = Snapshots()
        evolve(ILW_P, grid, y0, EvolutionConfig(t_end=0.1, dt=0.01), sink=snaps)
        assert snaps.times[0] == 0.0
        assert l2_norm(grid, snaps.states[0].half - y0.half) < 1e-15

    def test_time_reversal(self):
        # RK4 is not time-symmetric; the forward-backward error is O(dt^4)
        # and must shrink by >= 8x per halving
        grid = SpectralGrid(16.0, 128)
        y0 = gaussian_state(0.3, 1.0)(grid)
        n0 = state_l2_norm(grid, y0)
        errs = []
        for dt in (0.1, 0.05, 0.025):
            n = int(round(1.0 / dt))
            y = y0
            for _ in range(n):
                y = step(ILW_P, grid, y, dt)
            for _ in range(n):
                y = step(ILW_P, grid, y, -dt)
            errs.append(l2_norm(grid, y.half - y0.half) / n0)
        assert errs[0] < 1e-6
        assert errs[0] / errs[1] >= 8.0
        assert errs[1] / errs[2] >= 8.0

    def test_matches_independent_integrator(self):
        # end-to-end cross-check: march the same coefficient ODE system with
        # scipy's adaptive RK45 at tight tolerance and compare terminal states
        import scipy.integrate

        grid = SpectralGrid(8.0, 32)
        y0 = gaussian_state(0.2, 1.0)(grid)
        t_end = 0.5

        def packed_rhs(_t, y):
            n = grid.n_modes
            state = state_of(y[:n] + 1j * y[n:2*n], y[2*n:3*n] + 1j * y[3*n:])
            d = semidiscrete_rhs(BO_P, grid, state)
            return np.concatenate([d.zeta_hat.real, d.zeta_hat.imag,
                                   d.u_hat.real, d.u_hat.imag])

        packed0 = np.concatenate([y0.zeta_hat.real, y0.zeta_hat.imag,
                                  y0.u_hat.real, y0.u_hat.imag])
        sol = scipy.integrate.solve_ivp(packed_rhs, (0.0, t_end), packed0,
                                        rtol=1e-12, atol=1e-14, method="DOP853")
        n = grid.n_modes
        # the packed integrator does not know about Hermitian symmetry and
        # accumulates a small anti-Hermitian noise component; project it out
        # before comparing with the exactly Hermitian march
        end = sol.y[:, -1]
        reference = [hermitian_symmetrize_reference(end[i:i + n] + 1j * end[i + n:i + 2*n])
                     for i in (0, 2 * n)]
        got = evolve(BO_P, grid, y0, EvolutionConfig(t_end=t_end, dt=1e-3))
        err = (full_l2_norm(grid, got.zeta_hat - reference[0])
               + full_l2_norm(grid, got.u_hat - reference[1]))
        assert err < 1e-11

    def test_refinement_is_spectral(self):
        # terminal-state differences between N and 2N fall faster than N^-4
        params = BO_P
        t_end, dt = 0.5, 2e-3
        terminal = {}
        for n in (32, 64, 128, 256):
            grid = SpectralGrid(16.0, n)
            terminal[n] = (grid, evolve(params, grid, gaussian_state(0.1, 1.2)(grid),
                                        EvolutionConfig(t_end=t_end, dt=dt)))
        diffs = []
        for n in (32, 64, 128):
            ga, a = terminal[n]
            gb, b = terminal[2 * n]
            diffs.append(state_l2_distance(ga, a, gb, b))
        assert diffs[0] / diffs[1] > 16.0
        assert diffs[1] / diffs[2] > 16.0

    def test_cfl_guard_rejects_large_dt(self):
        grid = SpectralGrid(16.0, 64)
        dt_max = max_stable_dt(ILW_P, grid, 0.5)
        with pytest.raises(ValueError, match="dt"):
            evolve(ILW_P, grid, gaussian_state(0.1, 1.0)(grid),
                   EvolutionConfig(t_end=1.0, dt=2.0 * dt_max))

    def test_nan_step_bound_fails_the_guard(self, monkeypatch):
        # `dt > nan` is False: a nan bound once let the run start
        grid = SpectralGrid(16.0, 64)
        monkeypatch.setattr(evolution, "max_stable_dt", lambda *args: math.nan)
        with pytest.raises(ValueError, match="step-size guard"):
            evolve(ILW_P, grid, gaussian_state(0.1, 1.0)(grid),
                   EvolutionConfig(t_end=0.1, dt=0.01))

    def test_step_failure_carries_time(self):
        grid = SpectralGrid(4.0, 32)
        zeta_hat, u_hat = np.zeros((2, 32), dtype=complex)
        zeta_hat[1] = np.inf
        zeta_hat[-1] = np.inf
        bad = state_of(zeta_hat, u_hat)
        with np.errstate(invalid="ignore"):
            with pytest.raises(StepFailureError) as excinfo:
                evolve(ILW_P, grid, bad, EvolutionConfig(t_end=0.1, dt=0.01))
        assert excinfo.value.time is not None

    def test_linear_speed_bound_value(self):
        # analytic check: max over modes of sqrt((1-gamma) J / gamma); the
        # maximum sits at the smallest |ktilde| since J decreases with g
        grid = SpectralGrid(16.0, 64)
        got = linear_speed_bound(BO_P, grid)
        j0 = symbol_J(BO_P, np.array([0.0]))[0]
        assert got == pytest.approx(np.sqrt((1 - 0.8) * j0 / 0.8), rel=1e-12)


class TestStepper:
    @pytest.mark.parametrize("params", [ILW_P, BO_P], ids=["ilw", "bo"])
    @pytest.mark.parametrize("n", [32, 1024])
    @pytest.mark.parametrize("t_end", [0.5, 0.53], ids=["full-steps", "short-last-step"])
    def test_evolve_is_the_looped_half_spectrum_oracle_bit_for_bit(self, params, n, t_end):
        grid = SpectralGrid(n * 0.125 / 2, n)
        y0 = sech2_state(0.3, 0.8)(grid)
        config = EvolutionConfig(t_end=t_end, dt=0.05, record_every=3)
        n_full, remainder = config.steps
        n_steps = n_full + (1 if remainder else 0)
        assert (remainder > 0) == (t_end == 0.53)
        snaps = Snapshots()
        final = evolve(params, grid, y0, config, sink=snaps)
        y, want = y0.half, [y0.half]
        for i in range(1, n_steps + 1):
            y = half_spectrum_step(params, grid, y, config.dt if i <= n_full else remainder)
            if i % config.record_every == 0 or i == n_steps:
                want.append(y)
        assert len(snaps.states) == len(want) == config.snapshots
        for got, expected in zip(snaps.states, want):
            assert np.array_equal(got.half, expected)
        assert np.array_equal(final.half, want[-1])

    def test_step_and_rhs_wrappers_are_the_oracle_bit_for_bit(self):
        grid = SpectralGrid(4.0, 64)
        y0 = gaussian_state(0.3, 1.0)(grid)
        assert np.array_equal(step(BO_P, grid, y0, 0.05).half,
                              half_spectrum_step(BO_P, grid, y0.half, 0.05))
        assert np.array_equal(semidiscrete_rhs(BO_P, grid, y0).half,
                              half_spectrum_rhs(BO_P, grid, y0.half))

    def test_sink_states_keep_their_values_after_the_run(self):
        # the steps alternate between two buffers; a state handed to the sink
        # must not be one of them, or later steps would overwrite it
        grid = SpectralGrid(8.0, 64)
        y0 = gaussian_state(0.3, 1.0)(grid)
        before = y0.half.copy()
        kept, copies = [], []

        def sink(t, state):
            kept.append(state)
            copies.append(state.half.copy())

        final = evolve(ILW_P, grid, y0, EvolutionConfig(t_end=0.5, dt=0.05, record_every=1),
                       sink=sink)
        assert len(kept) == 11
        for state, copy in zip(kept, copies):
            assert np.array_equal(state.half, copy)
        assert np.array_equal(y0.half, before)
        assert np.array_equal(final.half, copies[-1])
        assert not any(np.shares_memory(a.half, b.half)
                       for i, a in enumerate(kept) for b in kept[i + 1:])

    def test_nan_initial_state_fails_before_the_first_step(self):
        grid = SpectralGrid(4.0, 32)
        zeta_hat, u_hat = np.zeros((2, 32), dtype=complex)
        zeta_hat[3] = np.nan
        bad = state_of(zeta_hat, u_hat)
        with pytest.raises(StepFailureError, match="^non-finite coefficients in the state$") as info:
            evolve(BO_P, grid, bad, EvolutionConfig(t_end=0.1, dt=0.01))
        assert info.value.time == 0.01
        for call in (lambda: step(BO_P, grid, bad, 0.01),
                     lambda: semidiscrete_rhs(BO_P, grid, bad)):
            with pytest.raises(StepFailureError, match="^non-finite coefficients in the state$"):
                call()

    @pytest.mark.parametrize("t_end, time", [(0.0, 0.0), (0.005, 0.005), (0.1, 0.01)])
    def test_non_finite_initial_state_never_reaches_the_sink(self, t_end, time):
        # with no step (t_end 0) too: the time given is then 0.0
        grid = SpectralGrid(4.0, 32)
        zeta_hat, u_hat = np.zeros((2, 32), dtype=complex)
        zeta_hat[3] = np.inf
        taken = []
        with pytest.raises(StepFailureError, match="^non-finite coefficients in the state$") as info:
            evolve(BO_P, grid, state_of(zeta_hat, u_hat), EvolutionConfig(t_end=t_end, dt=0.01),
                   sink=lambda t, state: taken.append(t))
        assert info.value.time == time
        assert taken == []

    def test_overflowing_step_fails_with_its_end_time(self):
        grid = SpectralGrid(8.0, 64)
        y0 = gaussian_state(1e200, 1.2)(grid)
        with pytest.raises(StepFailureError, match="^time step produced non-finite values$") as info:
            evolve(BO_P, grid, y0, EvolutionConfig(t_end=1.0, dt=0.01))
        assert info.value.time == 0.01


class TestEvolutionConfig:
    @pytest.mark.parametrize("t_end, dt, record_every", [
        (0.0, 0.1, 1), (0.3, 0.1, 1), (0.3, 0.1, 2), (0.33, 0.05, 3), (0.35, 0.05, 7),
        (0.2, 0.01, 10**6)])
    def test_snapshots_counts_the_states_evolve_hands_its_sink(self, t_end, dt, record_every):
        grid = SpectralGrid(8.0, 16)
        config = EvolutionConfig(t_end=t_end, dt=dt, record_every=record_every)
        snaps = Snapshots()
        evolve(BO_P, grid, sech2_state(0.1, 1.0)(grid), config, sink=snaps)
        assert config.snapshots == len(snaps.times)

    def test_validation(self):
        with pytest.raises(ValueError, match="dt"):
            EvolutionConfig(t_end=1.0, dt=0.0)
        with pytest.raises(ValueError, match="t_end"):
            EvolutionConfig(t_end=-1.0, dt=0.1)
        with pytest.raises(ValueError, match="record_every"):
            EvolutionConfig(t_end=1.0, dt=0.1, record_every=0)

    def test_a_remainder_below_1e_12_dt_takes_no_step(self):
        # the tolerance is relative to dt once dt exceeds 1: 2e-12 past
        # three steps of 4 is no fourth step, 1e-11 past them is
        assert EvolutionConfig(t_end=12.0 + 2e-12, dt=4.0).n_steps == 3
        assert EvolutionConfig(t_end=12.0 + 1e-11, dt=4.0).n_steps == 4

    @pytest.mark.parametrize("value", [2.5, 2.0, "2"])
    def test_non_integral_record_every_is_rejected(self, value):
        # record_every = 2.5 reported 5.0 snapshots while evolve handed its sink 3
        with pytest.raises(ValueError, match="^record_every must be an integer"):
            EvolutionConfig(t_end=1.0, dt=0.1, record_every=value)
        assert EvolutionConfig(t_end=1.0, dt=0.1, record_every=np.int64(2)).snapshots == 6

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("name", ["t_end", "dt", "cfl_guard"])
    def test_non_finite_values_are_rejected(self, name, value):
        # cfl_guard = nan switched the step-size guard off, and a non-finite
        # t_end or dt was misreported as a too-small dt
        with pytest.raises(ValueError, match=f"^{name} must be finite"):
            EvolutionConfig(**{"t_end": 1.0, "dt": 0.1, name: value})
