"""Tests for the verification harness: refinement studies, round trips,
tail-decay fits and the acceleration benchmark."""

import json
import os
import pathlib
import pickle
import sys
import time
import warnings

import numpy as np
import pytest
from scipy.optimize import brentq

from ilwbo import BO, ILW, ModelParams, SolitaryConfig, SpectralGrid, StatePair, cli, harness
from ilwbo import io_utils
from ilwbo.errors import StepFailureError, WindowUnderflowError
from ilwbo.harness import (
    acceleration_benchmark,
    convergence_study,
    crest_scale_of,
    decay_fit,
    gaussian_state,
    sech2_state,
    state_l2_distance,
    traveling_wave_roundtrip,
)
from ilwbo.evolution import evolve
from ilwbo.spectral import (
    l2_norm,
    state_from_nodal,
    state_to_nodal,
    symbol_g,
    translate_state,
)

from conftest import full_l2_norm, state_l2_distance_reference

ILW_P = ModelParams(0.8, 1.2, ILW)
BO_P = ModelParams(0.8, 1.2, BO)


def ilw_decay_rate(params, c):
    """Dispersion-root oracle for the exponential tail rate: the positive
    root kappa of c^2 (1 + g(i kappa)) = ((1-gamma)/gamma)(1 + beta g(i kappa))
    where the symbol continues to g(i kappa) = (alpha/gamma) kappa cot(kappa)."""
    beta = (params.alpha - 1.0) / params.alpha
    scale = params.alpha / params.gamma

    def balance(kappa):
        g = scale * kappa / np.tan(kappa)
        return c * c * (1.0 + g) - (1.0 - params.gamma) / params.gamma * (1.0 + beta * g)

    return brentq(balance, 1e-6, np.pi - 1e-6)


class TestConvergenceStudy:
    @pytest.mark.parametrize("params", [ILW_P, BO_P])
    def test_analytic_data_is_spectral(self, params):
        report = convergence_study(
            params, gaussian_state(0.1, 1.2), [32, 64, 128],
            t_end=1.0, dt=0.002, half_length=16.0,
        )
        assert all(e > 0 for e in report.errors)
        assert report.errors == sorted(report.errors, reverse=True)
        # last pair exceeds a factor 10 comfortably (spectral decay)
        assert report.errors[-2] / report.errors[-1] > 10.0
        assert report.is_spectral(16.0)
        # temporal error is subdominant at the finest resolution
        assert report.probe_delta < 0.25 * report.errors[-1]

    def test_band_limited_data_hits_floor(self):
        # data supported on modes |k| <= 5 with a tiny amplitude: every
        # resolution resolves the (weak) cascade, so errors sit at the floor
        def band_limited(grid):
            zeta = 1e-4 * (
                np.cos(np.pi * grid.nodes / grid.half_length)
                + 0.5 * np.cos(5 * np.pi * grid.nodes / grid.half_length)
            )
            return state_from_nodal(grid, zeta, np.zeros_like(zeta))

        report = convergence_study(
            BO_P, band_limited, [32, 64, 128], t_end=0.25, dt=0.002, half_length=16.0,
        )
        assert all(e < 1e-10 for e in report.errors)

    def test_one_evolve_per_resolution_plus_reference_and_probe(self, monkeypatch):
        calls = []

        def counting_evolve(params, grid, initial, config):
            calls.append((grid.n_modes, config.dt))
            return evolve(params, grid, initial, config)

        monkeypatch.setattr(harness, "evolve", counting_evolve)
        convergence_study(BO_P, gaussian_state(0.1, 1.2), [32, 64, 128],
                          t_end=0.01, dt=0.002, half_length=16.0)
        assert calls == [(256, 0.002), (32, 0.002), (64, 0.002), (128, 0.002), (128, 0.001)]

    def test_a_bad_resolution_is_raised_after_the_runs_before_it(self):
        # the reference at N = 48 overflows before N = 6 is found to be too small
        with pytest.raises(StepFailureError, match="non-finite"):
            convergence_study(BO_P, gaussian_state(1e200, 1.2), [6, 24],
                              t_end=0.1, dt=0.01, half_length=16.0)
        with pytest.raises(ValueError, match="n_modes N must be even and >= 8, got 6"):
            convergence_study(BO_P, gaussian_state(0.1, 1.2), [6, 24],
                              t_end=0.1, dt=0.01, half_length=16.0)

    def test_requires_resolution_spread(self):
        for resolutions in ([32, 64], []):
            with pytest.raises(ValueError, match="resolutions .* 4x"):
                convergence_study(ILW_P, gaussian_state(0.1, 1.0), resolutions,
                                  t_end=0.1, dt=0.01, half_length=8.0)

    def test_zero_data_reports_nan_rates(self):
        # every error is exactly zero; the ratios are 0/0, not a crash
        report = convergence_study(BO_P, gaussian_state(0.0, 1.2), [8, 16, 32],
                                   t_end=0.1, dt=0.05, half_length=16.0)
        assert report.errors == [0.0, 0.0, 0.0]
        assert all(np.isnan(r) for r in report.observed_rates)
        assert not report.is_spectral(16.0)


DESK_CONVERGENCE = json.loads(
    (pathlib.Path(__file__).resolve().parent.parent / "configs" / "verify_desk.json").read_text()
)["experiments"][0]

_FORK_JOBS = harness.ForkJobs
_EVOLVE_JOB = harness._evolve_job


@pytest.fixture
def study_pools(monkeypatch):
    """Every study runs on worker processes, as long ones do; yields the
    worker count of each pool built."""
    if not io_utils.fork_workers():
        pytest.skip("the study pool needs fork and at least 2 CPUs")
    built = []

    def recording(workers, *args):
        runner = _FORK_JOBS(workers, *args)
        if runner.workers:
            built.append(runner.workers)
        return runner

    monkeypatch.setattr(harness, "STUDY_POOL_MIN_STEPS", 0)
    monkeypatch.setattr(harness, "ForkJobs", recording)
    return built


def in_process(study, *args, **kwargs):
    """`study(*args, **kwargs)` with every run evolved in this process."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(harness, "STUDY_POOL_MIN_STEPS", float("inf"))
        return study(*args, **kwargs)


_TEST_PID = os.getpid()


def _exit_on_n64(params, grid, initial, config):
    """A pool job whose worker dies, as a killed one would, on the N = 64 run;
    run in this process, it evolves that run."""
    if grid.n_modes == 64 and os.getpid() != _TEST_PID:
        os._exit(1)
    return _EVOLVE_JOB(params, grid, initial, config)


_job_log = None  # the file `_logged_evolve_job` appends to, set before a pool forks


def _logged_evolve_job(params, grid, initial, config):
    """`_evolve_job`, logging the process that ran it and the run's N."""
    with open(_job_log, "a") as log:
        log.write(f"{os.getpid()} {grid.n_modes}\n")
    return _EVOLVE_JOB(params, grid, initial, config)


def study_jobs(study, monkeypatch, log, *args, **kwargs):
    """`study(*args, **kwargs)` with its runs going through `_logged_evolve_job`,
    and the (pid, N) pairs logged to `log`, in the order run."""
    monkeypatch.setattr(harness, "_evolve_job", _logged_evolve_job)
    monkeypatch.setattr(sys.modules[__name__], "_job_log", str(log))
    result = study(*args, **kwargs)
    lines = log.read_text().split()
    return result, list(zip(map(int, lines[::2]), map(int, lines[1::2])))


# one study of three resolutions: the reference at 128, then 16, 32, 64 and the probe at 64
STUDY_ARGS = (BO_P, gaussian_state(0.1, 1.2), [16, 32, 64])
STUDY_KWARGS = dict(t_end=0.2, dt=0.002, half_length=16.0)
STUDY_RUNS = [128, 16, 32, 64, 64]


def test_in_process_study_runs_are_the_pool_jobs(tmp_path, monkeypatch):
    want = convergence_study(*STUDY_ARGS, **STUDY_KWARGS)
    monkeypatch.setattr(harness, "STUDY_POOL_MIN_STEPS", float("inf"))
    report, jobs = study_jobs(convergence_study, monkeypatch, tmp_path / "jobs",
                              *STUDY_ARGS, **STUDY_KWARGS)
    assert jobs == [(_TEST_PID, n) for n in STUDY_RUNS] and report == want


def wild_up_to_n64(grid):
    """Gaussian data of amplitude 20 up to N = 64 and 0.1 on finer grids.  In
    the study [16, 32, 64] to t = 3 only the reference and the N = 16 run
    survive: the N = 32 run fails first in run order, at t = 2.93, but the
    N = 64 runs fail after fewer steps."""
    return gaussian_state(20.0 if grid.n_modes <= 64 else 0.1, 1.0)(grid)


class TestStudyPool:
    """The pool path of `convergence_study` against its in-process path."""

    def test_desk_block_writes_the_same_report_and_files(self, tmp_path, study_pools,
                                                         monkeypatch):
        reports = []

        def recording(*args, **kwargs):
            reports.append(harness.convergence_study(*args, **kwargs))
            return reports[-1]

        monkeypatch.setattr(cli, "convergence_study", recording)
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"experiments": [DESK_CONVERGENCE]}))

        def verify(out):
            return cli.main(["verify", "--config", str(config), "--out", str(tmp_path / out),
                             "--quiet"])

        assert in_process(verify, "in-process") == 0 and not study_pools
        assert verify("pooled") == 0 and study_pools == [min(io_utils.fork_workers(), 5)]
        assert reports[0] == reports[1]
        for name in ("convergence_report.csv", "summary.json"):
            assert (tmp_path / "in-process" / name).read_bytes() == \
                (tmp_path / "pooled" / name).read_bytes()

    def test_blow_up_raises_the_first_failing_run_in_run_order(self, study_pools):
        args = (BO_P, wild_up_to_n64, [16, 32, 64])
        kwargs = dict(t_end=3.0, dt=0.01, half_length=16.0)
        with pytest.raises(StepFailureError) as want:
            in_process(convergence_study, *args, **kwargs)
        with pytest.raises(StepFailureError) as got:
            convergence_study(*args, **kwargs)
        assert study_pools and want.value.time == pytest.approx(2.93, abs=1e-9)
        assert (str(got.value), got.value.time) == (str(want.value), want.value.time)

    def test_a_worker_that_dies_falls_back_to_evolving_in_process(self, study_pools,
                                                                  monkeypatch):
        want = in_process(convergence_study, *STUDY_ARGS, **STUDY_KWARGS)
        monkeypatch.setattr(harness, "_evolve_job", _exit_on_n64)
        assert convergence_study(*STUDY_ARGS, **STUDY_KWARGS) == want and study_pools

    def test_workers_run_the_job_the_in_process_path_runs(self, tmp_path, study_pools,
                                                         monkeypatch):
        want = in_process(convergence_study, *STUDY_ARGS, **STUDY_KWARGS)
        report, jobs = study_jobs(convergence_study, monkeypatch, tmp_path / "jobs",
                                  *STUDY_ARGS, **STUDY_KWARGS)
        assert study_pools and sorted(n for _, n in jobs) == sorted(STUDY_RUNS)
        assert _TEST_PID not in {pid for pid, _ in jobs} and report == want

    def test_a_wrapped_evolve_is_not_sent_to_the_workers(self, study_pools, monkeypatch):
        # perfbench's tracer puts a closure, which pickle cannot send, at the
        # name harness.evolve; the pool is handed _evolve_job by name instead
        args = (BO_P, gaussian_state(0.1, 1.2), [16, 32, 64])
        kwargs = dict(t_end=0.2, dt=0.002, half_length=16.0)
        want = in_process(convergence_study, *args, **kwargs)

        def traced(*a, **kw):
            return evolve(*a, **kw)

        with pytest.raises((AttributeError, pickle.PicklingError)):
            pickle.dumps(traced)
        monkeypatch.setattr(harness, "evolve", traced)
        assert convergence_study(*args, **kwargs) == want and study_pools


class TestInitialData:
    def test_sech2_far_tail_is_quiet_and_exact(self):
        # |w x| reaches 819 on this grid: cosh and its square overflow to inf
        grid = SpectralGrid(1024.0, 16384)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            state = sech2_state(0.2, 0.8)(grid)
        zeta, _ = state_to_nodal(grid, state)
        assert np.all(np.isfinite(zeta))
        assert zeta[np.argmax(zeta)] == pytest.approx(0.2, rel=1e-12)


class TestRoundtrip:
    def test_zero_time(self, ilw_params, wave_grid, ilw_wave):
        _, wave, _ = ilw_wave
        assert traveling_wave_roundtrip(ilw_params, wave_grid, wave, 0.52, 0.0, 1e-3) == 0.0

    def test_phase_shift_is_unitary(self, wave_grid, bo_wave):
        _, wave, _ = bo_wave
        shifted = translate_state(wave_grid, wave, -0.57 * 1.0)
        assert full_l2_norm(wave_grid, shifted.zeta_hat) == pytest.approx(
            full_l2_norm(wave_grid, wave.zeta_hat), rel=1e-13
        )
        assert full_l2_norm(wave_grid, shifted.u_hat) == pytest.approx(
            full_l2_norm(wave_grid, wave.u_hat), rel=1e-13
        )

    def test_bo_wave_travels_at_speed_c(self, bo_params, wave_grid, bo_wave):
        config, wave, _ = bo_wave
        dev = traveling_wave_roundtrip(bo_params, wave_grid, wave, config.speed, 1.0, 1e-2)
        assert dev < 1e-6


class TestDecayFit:
    def test_sech2_exponential_rate(self):
        grid = SpectralGrid(20.0, 512)
        profile = 1.0 / np.cosh(grid.nodes) ** 2
        fit = decay_fit(grid, profile, "exponential")
        assert fit.fitted_rate == pytest.approx(2.0, rel=0.05)
        assert fit.fit_quality > 0.999

    def test_window_whose_log_profile_varies_by_less_than_one(self):
        # an exact exponential tail over a short window: its log spans about
        # 0.35, so its total sum of squares is well below 1, and the fit is
        # still exact
        grid = SpectralGrid(12.0, 2048)
        profile = np.exp(-np.abs(grid.nodes))
        fit = decay_fit(grid, profile, "exponential")
        window = (grid.nodes >= fit.window[0]) & (grid.nodes <= fit.window[1])
        logs = np.log(profile[window])
        assert fit.n_points == window.sum() >= 8
        assert np.sum((logs - logs.mean()) ** 2) < 0.5
        assert fit.fitted_rate == pytest.approx(1.0, rel=1e-9)
        assert fit.fit_quality > 0.999

    def test_flat_window_has_quality_zero(self):
        # log|profile| is 0 over the whole window: no variance to explain
        grid = SpectralGrid(16.0, 128)
        profile = np.where(grid.nodes == 0.0, 10.0, 1.0)
        fit = decay_fit(grid, profile, "exponential")
        assert fit.n_points >= harness.MIN_FIT_POINTS
        assert fit.fit_quality == 0.0
        assert fit.fitted_rate == 0.0

    def test_window_of_exactly_the_fewest_points(self):
        # the tail above the floor is cut to its first n window points
        grid = SpectralGrid(32.0, 256)
        full = np.exp(-np.abs(grid.nodes))
        window = (grid.nodes >= decay_fit(grid, full, "exponential").window[0]) & (
            grid.nodes <= harness.OUTER_FRACTION * grid.half_length)
        first = np.flatnonzero(window)
        for n in (harness.MIN_FIT_POINTS, harness.MIN_FIT_POINTS - 1):
            profile = full.copy()
            profile[first[n:]] = 0.0
            if n < harness.MIN_FIT_POINTS:
                with pytest.raises(WindowUnderflowError, match=f"only {n} tail points"):
                    decay_fit(grid, profile, "exponential")
            else:
                fit = decay_fit(grid, profile, "exponential")
                assert fit.n_points == n
                assert fit.fitted_rate == pytest.approx(1.0, rel=1e-9)

    def test_algebraic_rate(self):
        grid = SpectralGrid(40.0, 1024)
        profile = 1.0 / (1.0 + grid.nodes ** 2) ** 2
        fit = decay_fit(grid, profile, "algebraic")
        assert fit.fitted_rate == pytest.approx(4.0, rel=0.05)

    def test_window_underflow(self):
        grid = SpectralGrid(20.0, 256)
        profile = 1e-15 * np.exp(-np.abs(grid.nodes))
        with pytest.raises(WindowUnderflowError):
            decay_fit(grid, profile, "exponential")

    def test_window_underflow_names_the_applied_floor(self):
        # a unit peak sets the relative floor, 1e-7, above the absolute 1e-11
        grid = SpectralGrid(32.0, 256)
        with pytest.raises(WindowUnderflowError, match="above 1e-07 in"):
            decay_fit(grid, np.exp(-grid.nodes ** 2), "exponential")

    def test_profile_without_a_tail(self):
        # a flat profile never falls below 1/e of its peak
        grid = SpectralGrid(10.0, 64)
        with pytest.raises(WindowUnderflowError, match="1/e"):
            decay_fit(grid, np.ones(64), "exponential")

    def test_model_validation(self):
        grid = SpectralGrid(10.0, 64)
        with pytest.raises(ValueError, match="model"):
            decay_fit(grid, np.ones(64), "polynomial")

    def test_crest_scale_measurement(self):
        grid = SpectralGrid(20.0, 512)
        profile = 0.5 * np.exp(-((grid.nodes / 2.0) ** 2))
        assert crest_scale_of(grid, profile) == pytest.approx(2.0, rel=0.05)

    def test_crest_scale_is_the_first_node_strictly_below_peak_over_e(self):
        grid = SpectralGrid(10.0, 64)
        right = np.flatnonzero(grid.nodes > 0)
        profile = np.zeros(64)
        profile[grid.nodes == 0] = 1.0
        profile[right[0]] = 1.0 / np.e  # on the level, not below it
        assert crest_scale_of(grid, profile) == grid.nodes[right[1]]

    def test_ilw_wave_rate_matches_dispersion_root(self, ilw_params, ilw_smooth_wave):
        # the fitted exponential rate of a resolved wave must agree with the
        # root of the linearized far-field balance
        grid, config, wave, _ = ilw_smooth_wave
        zeta, _ = state_to_nodal(grid, wave)
        fit = decay_fit(grid, zeta, "exponential")
        predicted = ilw_decay_rate(ilw_params, config.speed)
        assert fit.fit_quality > 0.99
        assert fit.fitted_rate == pytest.approx(predicted, rel=0.05)

    def test_exponential_beats_algebraic_on_ilw_wave(self, ilw_smooth_wave):
        grid, _, wave, _ = ilw_smooth_wave
        zeta, _ = state_to_nodal(grid, wave)
        fe = decay_fit(grid, zeta, "exponential")
        fa = decay_fit(grid, zeta, "algebraic")
        assert fe.fit_quality >= 0.99
        assert fe.fit_quality > fa.fit_quality


class TestAccelerationBenchmark:
    def test_mw1_column_is_plain_count(self, bo_params, wave_grid, bo_wave):
        _, _, trace = bo_wave
        base = SolitaryConfig(speed=0.57, tol=1e-10, max_iter=500, mw=1, seed_width=1.2)
        rows = acceleration_benchmark(bo_params, wave_grid, base, [1])
        assert rows[0].status == "converged"
        assert rows[0].iterations == trace.iterations_used

    def test_failures_recorded_not_raised(self, bo_params, wave_grid):
        base = SolitaryConfig(speed=0.57, tol=1e-10, max_iter=3, mw=1, seed_width=1.2)
        rows = acceleration_benchmark(bo_params, wave_grid, base, [1, 2])
        assert all(r.status == "not-converged" for r in rows)
        assert all(r.iterations == 3 for r in rows)


    def test_each_row_times_its_own_solve(self, bo_params, wave_grid):
        base = SolitaryConfig(speed=0.57, tol=1e-10, max_iter=3, mw=1, seed_width=1.2)
        began = time.perf_counter()
        rows = acceleration_benchmark(bo_params, wave_grid, base, [1, 2])
        elapsed = time.perf_counter() - began
        assert 0.0 < sum(row.seconds for row in rows) <= elapsed

    def test_singular_speed_is_a_row_of_minus_one_iterations(self):
        # det S vanishes at mode 5: no solve runs, so there is no count
        grid = SpectralGrid(64.0, 64)
        g = float(symbol_g(ILW_P, grid.wavenumbers[5]))
        beta = (1.2 - 1.0) / 1.2
        c_sing = np.sqrt((0.2 / 0.8) * (1 + beta * g) / (1 + g))
        rows = acceleration_benchmark(ILW_P, grid, SolitaryConfig(speed=c_sing), [1])
        assert rows[0].status.startswith("singular-mode ktilde=")
        assert rows[0].iterations == -1 and rows[0].trace is None


class TestStateDistance:
    def test_same_grid_reduces_to_norm(self, wave_grid, bo_wave):
        _, wave, _ = bo_wave
        other = StatePair(1.1 * wave.half)
        d = state_l2_distance(wave_grid, wave, wave_grid, other)
        expected = l2_norm(wave_grid, other.half - wave.half)
        # distance sums the component norms; both vanish together
        assert d == pytest.approx(
            full_l2_norm(wave_grid, other.zeta_hat - wave.zeta_hat)
            + full_l2_norm(wave_grid, other.u_hat - wave.u_hat),
            rel=1e-14,
        )
        assert d == expected

    @pytest.mark.parametrize("scale", [1.0, 1e-6])
    @pytest.mark.parametrize("factor", [1, 2, 8])
    @pytest.mark.parametrize("n", [8, 32, 64])
    def test_matches_pad_and_subtract_oracle(self, n, factor, scale):
        # random half spectra with real, nonzero k = 0 and -N/2 entries; at
        # scale 1e-6 the fine state sits near the coarse one, as in a study
        rng = np.random.default_rng(100 * n + factor)

        def random_state(m):
            half = rng.standard_normal((2, m // 2 + 1)) + 1j * rng.standard_normal((2, m // 2 + 1))
            half[:, 0] = half[:, 0].real
            half[:, -1] = half[:, -1].real
            return half

        coarse_grid, fine_grid = SpectralGrid(5.0, n), SpectralGrid(5.0, factor * n)
        coarse = StatePair(random_state(n))
        fine_half = scale * random_state(factor * n)
        fine_half[:, : n // 2] += coarse.half[:, : n // 2]
        fine = StatePair(fine_half)
        assert coarse.half[:, n // 2].all()
        got = state_l2_distance(coarse_grid, coarse, fine_grid, fine)
        want = state_l2_distance_reference(coarse_grid, coarse, fine_grid, fine)
        assert got == pytest.approx(want, rel=1e-14)
