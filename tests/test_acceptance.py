"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Reference setup: gamma=0.8, alpha=1.2; demonstration speeds c=0.52 (ILW) and
c=0.57 (B-O) on the 1024-mode grid with half-length 64, tol=1e-10.

Two ILW checks are expected to fail at these exact parameters and are kept
red on purpose: the smooth ILW solitary family at gamma=0.8, alpha=1.2
terminates at a fold near c=0.414 (the fold location is resolution
independent), so no smooth wave exists at c=0.52.  The iteration still
converges (criterion 1), but its limit carries an order-1e-4 band-edge
component; the pointwise quadratic relation then fails at the truncation-tail
level and the profile has no exponential tail window.  Both effects are
independent of resolution.  At speeds inside the smooth family (e.g. c=0.40)
the same checks pass.  There the algebraic residual (criterion 4) is set by
the grid spacing h, not by tol: it passes at h=0.0625 (l=32, N=1024; tested
below) and reads about 7e-8 at the reference grid's h=0.125.  For the tail
decay at c=0.40 see tests/test_harness.py.
"""

import time

import numpy as np

from ilwbo import (
    EvolutionConfig,
    SolitaryConfig,
    SpectralGrid,
    acceleration_benchmark,
    convergence_study,
    cycled_solve,
    decay_fit,
    evolve,
    traveling_wave_roundtrip,
)
from ilwbo.accel import mpe_coefficients, mpe_extrapolate
from ilwbo.harness import gaussian_state
from ilwbo.spectral import projected_product, state_to_nodal

from conftest import (
    Snapshots,
    brute_force_product,
    random_hermitian,
    solve_S,
    state_of,
    zero_mode_drift,
    zero_state,
)

TOL = 1e-10


def report(criterion: str, ok: bool, detail: str = ""):
    line = f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  [{detail}]"
    print(line)
    return ok


def monotone_after_transient(residuals, transient=10):
    r = np.asarray(residuals)
    return bool(np.all(np.diff(r[transient:]) < 0))


class TestAcceptance:
    def test_c01_ilw_solitary_convergence(self, ilw_params, wave_grid):
        """ILW, c=0.52, N=1024, l=64, tol=1e-10, mw=1: converges within 500
        iterations, residual monotone after at most a 10-iteration transient,
        in under a minute."""
        t0 = time.perf_counter()
        config = SolitaryConfig(speed=0.52, tol=TOL, max_iter=500, mw=1, seed_width=1.2)
        _, trace = cycled_solve(ilw_params, wave_grid, config)
        elapsed = time.perf_counter() - t0
        ok = (
            trace.converged
            and trace.iterations_used <= 500
            and monotone_after_transient(trace.residuals)
            and elapsed < 60.0
        )
        assert report("1 (ILW solitary-wave generation)", ok,
                      f"{trace.iterations_used} iterations, {elapsed:.1f}s")

    def test_c02_bo_solitary_convergence(self, bo_params, wave_grid):
        """B-O, c=0.57: same protocol and caps."""
        t0 = time.perf_counter()
        config = SolitaryConfig(speed=0.57, tol=TOL, max_iter=500, mw=1, seed_width=1.2)
        _, trace = cycled_solve(bo_params, wave_grid, config)
        elapsed = time.perf_counter() - t0
        ok = (
            trace.converged
            and trace.iterations_used <= 500
            and monotone_after_transient(trace.residuals)
            and elapsed < 60.0
        )
        assert report("2 (B-O solitary-wave generation)", ok,
                      f"{trace.iterations_used} iterations, {elapsed:.1f}s")

    def test_c03_acceleration_ordering(self, ilw_params, bo_params, wave_grid):
        """Iterations-to-tol: strictly fewer at mw=2 than mw=1 and
        non-increasing over mw in {1,2,3,4} for both parameter sets; the
        largest absolute drop sits at 1->2 on the B-O benchmark (where that
        claim is anchored), with ties allowed only among mw >= 2."""
        tables = {}
        for name, params, c in (("ilw", ilw_params, 0.52), ("bo", bo_params, 0.57)):
            base = SolitaryConfig(speed=c, tol=TOL, max_iter=500, mw=1, seed_width=1.2)
            rows = acceleration_benchmark(params, wave_grid, base, [1, 2, 3, 4])
            assert all(r.status == "converged" for r in rows)
            tables[name] = {r.mw: r.iterations for r in rows}

        ok = True
        for name, counts in tables.items():
            ok &= counts[2] < counts[1]
            ok &= all(counts[b] <= counts[a] for a, b in ((1, 2), (2, 3), (3, 4)))
            ok &= counts[2] < counts[1]  # ties allowed only among mw >= 2
        bo = tables["bo"]
        first_drop = bo[1] - bo[2]
        ok &= all(bo[a] - bo[b] <= first_drop for a, b in ((2, 3), (3, 4)))
        assert report("3 (acceleration ordering)", ok,
                      f"ilw={tables['ilw']} bo={tables['bo']}")

    def test_c04_algebraic_residual_bo(self, bo_params, wave_grid, bo_wave):
        """Converged B-O wave satisfies the derivative-free second equation
        nodally to max error <= 10*tol."""
        config, wave, _ = bo_wave
        zeta, u = state_to_nodal(wave_grid, wave)
        resid = -config.speed * u + (1 - 0.8) * zeta - u * u / (2 * 0.8)
        worst = float(np.max(np.abs(resid)))
        ok = worst <= 10.0 * TOL
        assert report("4 (algebraic residual, B-O wave)", ok, f"max={worst:.2e}")

    def test_c04_algebraic_residual_ilw(self, ilw_params, wave_grid, ilw_wave):
        """Converged ILW wave satisfies the second equation nodally to
        <= 10*tol.

        EXPECTED RED at c=0.52: the speed lies beyond the fold of the smooth
        ILW family (c ~ 0.414 at these parameters), the converged object is
        not spectrally resolved at any N, and the pointwise relation fails at
        the truncation-tail level (~1e-2) regardless of tol.  The identical
        check passes for the B-O wave and for ILW speeds inside the family.
        """
        config, wave, _ = ilw_wave
        zeta, u = state_to_nodal(wave_grid, wave)
        resid = -config.speed * u + (1 - 0.8) * zeta - u * u / (2 * 0.8)
        worst = float(np.max(np.abs(resid)))
        ok = worst <= 10.0 * TOL
        assert report("4 (algebraic residual, ILW wave)", ok, f"max={worst:.2e}")

    def test_c04_algebraic_residual_ilw_inside_the_family(self, ilw_params):
        """ILW at c=0.40, inside the smooth family, on l=32, N=1024 (h=0.0625):
        the second equation holds nodally to <= 10*tol.  On the h=0.125 grids
        (the reference grid, l=64 N=1024, and l=32 N=512) it reads about 7e-8."""
        grid = SpectralGrid(32.0, 1024)
        config = SolitaryConfig(speed=0.40, tol=TOL, max_iter=500, mw=1, seed_width=1.2)
        wave, trace = cycled_solve(ilw_params, grid, config)
        assert trace.converged
        zeta, u = state_to_nodal(grid, wave)
        resid = -config.speed * u + (1 - 0.8) * zeta - u * u / (2 * 0.8)
        worst = float(np.max(np.abs(resid)))
        ok = worst <= 10.0 * TOL
        assert report("4 (algebraic residual, ILW wave at c=0.40)", ok, f"max={worst:.2e}")

    def test_c05_traveling_wave_roundtrip(self, ilw_params, wave_grid, ilw_wave):
        """ILW wave evolved to T=1 (dt=1e-3, RK4) and phase-shifted back:
        relative L2 deviation <= 1e-6; halving dt cuts the deviation by >= 8x
        until the tolerance floor."""
        config, wave, _ = ilw_wave
        dev = traveling_wave_roundtrip(ilw_params, wave_grid, wave, config.speed, 1.0, 1e-3)
        ladder = [
            traveling_wave_roundtrip(ilw_params, wave_grid, wave, config.speed, 1.0, dt)
            for dt in (0.1, 0.05, 0.025)
        ]
        ratios = [ladder[0] / ladder[1], ladder[1] / ladder[2]]
        above_floor = all(d > 10.0 * dev for d in ladder)
        ok = dev <= 1e-6 and above_floor and all(r >= 8.0 for r in ratios)
        assert report("5 (traveling-wave roundtrip)", ok,
                      f"dev(1e-3)={dev:.2e} ladder ratios={ratios[0]:.1f},{ratios[1]:.1f}")

    def test_c06_tail_decay_ilw(self, wave_grid, ilw_wave):
        """ILW wave: exponential fit quality >= 0.99 on the tail window and
        exponential beats algebraic.

        EXPECTED RED at c=0.52: beyond the fold of the smooth family the
        converged object carries a flat band-edge pedestal (~1e-4), so no
        exponential tail window exists.  The same diagnostic on an ILW wave
        inside the family (c=0.40) gives quality > 0.999 with the fitted rate
        matching the dispersion-root prediction (tests/test_harness.py).
        """
        _, wave, _ = ilw_wave
        zeta, _ = state_to_nodal(wave_grid, wave)
        fit_exp = decay_fit(wave_grid, zeta, "exponential")
        fit_alg = decay_fit(wave_grid, zeta, "algebraic")
        ok = fit_exp.fit_quality >= 0.99 and fit_exp.fit_quality > fit_alg.fit_quality
        assert report("6 (tail decay, ILW wave)", ok,
                      f"exp quality={fit_exp.fit_quality:.4f} alg={fit_alg.fit_quality:.4f}")

    def test_c06_tail_decay_bo(self, bo_params):
        """B-O wave: algebraic fit rate within 2 +- 0.3.

        The x^-2 asymptote emerges slowly, so the fit runs on a wide domain
        (l=256) where the window reaches x ~ 115 while periodic-image
        contamination stays near the 10% level."""
        grid = SpectralGrid(256.0, 4096)
        config = SolitaryConfig(speed=0.57, tol=TOL, max_iter=800, mw=2, seed_width=1.2)
        wave, trace = cycled_solve(bo_params, grid, config)
        assert trace.converged
        zeta, _ = state_to_nodal(grid, wave)
        fit = decay_fit(grid, zeta, "algebraic")
        ok = abs(fit.fitted_rate - 2.0) <= 0.3
        assert report("6 (tail decay, B-O wave)", ok,
                      f"rate={fit.fitted_rate:.3f} quality={fit.fit_quality:.4f}")

    def test_c07_spectral_convergence_proxy(self, ilw_params, bo_params):
        """Self-convergence on analytic data: successive error ratios >= 16
        across N in {32, 64, 128} for both regimes."""
        details = []
        ok = True
        for name, params in (("ilw", ilw_params), ("bo", bo_params)):
            rep = convergence_study(params, gaussian_state(0.1, 1.2), [32, 64, 128],
                                    t_end=1.0, dt=0.002, half_length=16.0)
            ratios = [rep.errors[i] / rep.errors[i + 1] for i in range(2)]
            ok &= all(r >= 16.0 for r in ratios)
            details.append(f"{name} ratios={ratios[0]:.0f},{ratios[1]:.0f}")
        assert report("7 (spectral convergence proxy)", ok, "; ".join(details))

    def test_c08_mean_conservation(self, ilw_params, bo_params, wave_grid, ilw_wave):
        """Zero modes of both coefficient sequences drift <= 1e-12 per unit
        time on the evolution runs used throughout the suite."""
        drifts = []
        _, wave, _ = ilw_wave
        snaps = Snapshots()
        evolve(ilw_params, wave_grid, wave,
               EvolutionConfig(t_end=1.0, dt=0.01, record_every=1), sink=snaps)
        drifts.append(zero_mode_drift(snaps.states))
        for params in (ilw_params, bo_params):
            grid = SpectralGrid(16.0, 128)
            snaps = Snapshots()
            evolve(params, grid, gaussian_state(0.1, 1.2)(grid),
                   EvolutionConfig(t_end=1.0, dt=0.002, record_every=1), sink=snaps)
            drifts.append(zero_mode_drift(snaps.states))
        ok = all(d <= 1e-12 for d in drifts)
        assert report("8 (mean conservation)", ok, f"max drift={max(drifts):.1e}")

    def test_c09_oracle_equivalences(self, ilw_params, bo_params):
        """Dealiased product vs O(N^2) convolution (<=1e-12 on N=8,16,32),
        per-mode solve vs dense 2N-by-2N solve (<=1e-10 on N=8), and MPE
        exactness on affine iterations of dimension <= 6 (<=1e-9)."""
        ok = True
        worst_prod = 0.0
        for n in (8, 16, 32):
            grid = SpectralGrid(3.0, n)
            rng = np.random.default_rng(100 + n)
            f = random_hermitian(grid, rng)
            h = random_hermitian(grid, rng)
            err = float(np.max(np.abs(
                projected_product(grid, f, h) - brute_force_product(grid, f, h))))
            worst_prod = max(worst_prod, err)
        ok &= worst_prod <= 1e-12

        from test_solitary import dense_block_solve

        grid8 = SpectralGrid(4.0, 8)
        rng = np.random.default_rng(1)
        rhs = state_of(random_hermitian(grid8, rng), random_hermitian(grid8, rng)).half
        mine = solve_S(ilw_params, grid8, 0.52, rhs)
        oracle = dense_block_solve(ilw_params, grid8, 0.52, rhs)
        solve_err = float(np.max(np.abs(mine - oracle)))
        ok &= solve_err <= 1e-10

        worst_mpe = 0.0
        for dim in (2, 3, 4, 5, 6):
            rng = np.random.default_rng(dim)
            eigs = rng.uniform(-0.9, 0.9, size=dim)
            basis = rng.standard_normal((dim, dim)) + np.eye(dim)
            m = basis @ np.diag(eigs) @ np.linalg.inv(basis)
            b = rng.standard_normal(dim)
            fixed = np.linalg.solve(np.eye(dim) - m, b)
            grid = SpectralGrid(1.0, 32)
            vec = rng.standard_normal(dim)
            window = []
            for _ in range(dim + 2):
                state = zero_state(grid).half
                state[0, 1: dim + 1] = vec
                window.append(state)
                vec = m @ vec + b
            x = mpe_extrapolate(window, mpe_coefficients(window))
            got = x[0, 1: dim + 1].real
            worst_mpe = max(worst_mpe, float(np.max(np.abs(got - fixed))))
        ok &= worst_mpe <= 1e-9
        assert report(
            "9 (oracle equivalences)", ok,
            f"product={worst_prod:.1e} solve={solve_err:.1e} mpe={worst_mpe:.1e}")

    def test_c10_fixed_point_sanity(self, ilw_params, bo_params, wave_grid,
                                    ilw_wave, bo_wave):
        """Restarting the iteration from its own converged output gives
        m_0 within 1e-6 of 1 and RES <= tol at iteration 0."""
        ok = True
        details = []
        for name, params, bundle in (("ilw", ilw_params, ilw_wave),
                                     ("bo", bo_params, bo_wave)):
            config, wave, _ = bundle
            _, trace = cycled_solve(params, wave_grid, config, seed=wave)
            ok &= trace.converged and trace.iterations_used == 0
            ok &= abs(trace.m_factors[0] - 1.0) <= 1e-6
            ok &= trace.residuals[0] <= config.tol
            details.append(f"{name}: m0-1={trace.m_factors[0]-1:.1e} RES0={trace.residuals[0]:.1e}")
        assert report("10 (fixed-point sanity)", ok, "; ".join(details))
