"""Verification experiments: refinement studies, traveling-wave round trips,
tail-decay diagnostics and acceleration benchmarks.

These tie the spectral, evolution, solitary and acceleration modules together
into the falsifiable checks the package ships with: spectral self-convergence
on analytic data, a solitary wave traveling at its nominal speed under the
time stepper, exponential versus algebraic tail decay, and iteration counts
as a function of the extrapolation width.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from .accel import cycled_solve
from .errors import NonConvergenceError, SingularModeError, WindowUnderflowError
from .evolution import EvolutionConfig, evolve
from .io_utils import ForkJobs
from .solitary import IterationTrace, SolitaryConfig
from .spectral import (
    ModelParams,
    SpectralGrid,
    StatePair,
    l2_norm,
    nodal_inner,
    state_from_nodal,
    translate_state,
)

EXPONENTIAL = "exponential"
ALGEBRAIC = "algebraic"

# Tail fitting: drop points below the numerical noise floor and points
# beyond this fraction of the half-length.  For an algebraic (1/x^2) tail the
# periodic image at distance 2l - x contributes (x/(2l-x))^2 of the true
# value, i.e. 67% at x = 0.9 l; capping at 0.45 l keeps the contamination
# near or below 10%.  For exponential tails the cap is harmless.
OUTER_FRACTION = 0.45
AMPLITUDE_FLOOR = 1e-11
RELATIVE_FLOOR = 1e-7
MIN_FIT_POINTS = 8


@dataclass
class ConvergenceReport:
    """Self-convergence errors against a reference at twice the finest band."""

    resolutions: list[int]
    errors: list[float]
    observed_rates: list[float]
    probe_delta: float

    def is_spectral(self, min_ratio: float) -> bool:
        """True when every successive error ratio meets `min_ratio`."""
        e = np.asarray(self.errors)
        with np.errstate(divide="ignore", invalid="ignore"):  # 0/0 is nan: not spectral
            return bool(np.all(e[:-1] / e[1:] >= min_ratio))


@dataclass
class DecayFit:
    """Least-squares tail fit of log|zeta| against x (exponential) or log x."""

    window: tuple[float, float]
    model: str
    fitted_rate: float
    fit_quality: float
    n_points: int


@dataclass
class AccelRow:
    """One row of the acceleration benchmark table."""

    mw: int
    iterations: int
    seconds: float
    status: str
    trace: IterationTrace | None = None


def gaussian_state(amplitude: float, width: float) -> Callable[[SpectralGrid], StatePair]:
    """Initial-data generator: zeta = a exp(-(x/w)^2), u = 0."""
    if width == 0:
        raise ValueError("width must be nonzero")

    def build(grid: SpectralGrid) -> StatePair:
        # (x/w)^2 overflows to inf far out, where exp(-inf) = 0 is exact
        with np.errstate(over="ignore"):
            zeta = amplitude * np.exp(-((grid.nodes / width) ** 2))
        return state_from_nodal(grid, zeta, np.zeros_like(zeta))

    return build


def sech2_state(amplitude: float, width: float) -> Callable[[SpectralGrid], StatePair]:
    """Initial-data generator: zeta = a sech^2(w x), u = 0."""

    def build(grid: SpectralGrid) -> StatePair:
        # cosh and its square overflow to inf far out, where 1/inf^2 = 0 is exact
        with np.errstate(over="ignore"):
            zeta = amplitude / np.cosh(width * grid.nodes) ** 2
        return state_from_nodal(grid, zeta, np.zeros_like(zeta))

    return build


def state_l2_distance(
    coarse_grid: SpectralGrid, coarse: StatePair, fine_grid: SpectralGrid, fine: StatePair
) -> float:
    """||zeta_N - zeta_ref|| + ||u_N - u_ref|| with the coarse band embedded in
    the fine one.

    The coarse -N/2 coefficient x enters one-sided, at fine mode -N/2 alone.
    On the fine half spectrum, whose entry N/2 stands for both -N/2 and +N/2,
    that is x/2 in that entry plus a Nyquist correction of x^2/2 per field to
    the Parseval sum; on equal grids x simply takes the -N/2 slot.
    """
    h = coarse_grid.n_modes // 2
    embedded = np.zeros_like(fine.half)
    embedded[:, : h + 1] = coarse.half
    nyquist = np.zeros(2)
    if fine_grid.n_modes > coarse_grid.n_modes:
        embedded[:, h] *= 0.5
        nyquist = 0.5 * coarse.half[:, h].real ** 2
    diff = embedded - fine.half
    return sum(
        float(np.sqrt(fine_grid.node_spacing * nodal_inner(fine_grid, row, row)
                      + 2.0 * fine_grid.half_length * corr))
        for row, corr in zip(diff[:, None], nyquist)
    )


# In-process seconds of an RK4 step, STEP_S + STEP_MODE_S N log2 N: a step
# took 45-74/54-102/64-121/145-298/588-771/2700-3350 us at N = 32/128/256/
# 1024/4096/16384 on 2 cores (medians of 9 runs, three sessions).
STEP_S = 50e-6
STEP_MODE_S = 0.012e-6


def _evolve_job(params: ModelParams, grid: SpectralGrid, initial: StatePair,
                config: EvolutionConfig) -> StatePair:
    """A study job: one run, on a worker or, when no worker ran it, here.
    The pool is handed this function, not `evolve`, so a wrapper put around
    `evolve` in this module (a counter, a tracer) need not pickle."""
    return evolve(params, grid, initial, config)


def _evolve_all(params: ModelParams, jobs: list) -> list[StatePair]:
    """The final state of each (grid, initial state, config) job, in job order;
    the error raised is the first failing job's, as when the jobs run in turn.

    Each job is stated to `ForkJobs` as its steps at STEP_S + STEP_MODE_S N
    log2 N seconds each.  When it forks, the jobs run on worker processes
    forked from this one, longest first, so that the last run to start is a
    short one, and the results are read back in job order; a job no worker
    ran runs here.
    """
    seconds = [config.n_steps * (STEP_S + STEP_MODE_S * grid.n_modes * math.log2(grid.n_modes))
               for grid, _, config in jobs]
    runner = ForkJobs(seconds)
    try:
        handles = {i: runner.submit(_evolve_job, params, *jobs[i])
                   for i in sorted(range(len(jobs)), key=seconds.__getitem__, reverse=True)}
        return [runner.result(handles[i]) for i in range(len(jobs))]
    finally:
        runner.close()


def convergence_study(
    params: ModelParams,
    initial: Callable[[SpectralGrid], StatePair],
    resolutions: Sequence[int],
    t_end: float,
    dt: float,
    half_length: float,
) -> ConvergenceReport:
    """Evolve the same initial data at several resolutions and difference the
    terminal states against a reference at twice the finest band.

    The time step is shared by all runs; a dt-halving probe at the finest
    resolution reports the temporal error floor so stagnating spatial errors
    can be recognized rather than misread as a convergence failure.

    The runs (reference, each resolution, probe) are independent: when a
    pool would end sooner, they run on forked worker processes (see
    `_evolve_all`), otherwise one after another here.  Either way the
    report is the same to the bit.  A run that cannot be built raises its
    error before any run starts; of the runs that fail to evolve, the first
    in that order raises its error.
    """
    if not all(isinstance(n, (int, np.integer)) for n in resolutions):
        raise ValueError(f"resolutions must be integers, got {list(resolutions)}")
    res = sorted(int(n) for n in resolutions)
    if not res or res[-1] < 4 * res[0]:
        raise ValueError(f"resolutions {res} must span at least 4x, finest over coarsest")

    runs = [(2 * res[-1], dt)] + [(n, dt) for n in res] + [(res[-1], dt / 2.0)]
    jobs = []
    for n, dt_run in runs:
        grid = SpectralGrid(half_length, n)
        jobs.append((grid, initial(grid), EvolutionConfig(t_end=t_end, dt=dt_run)))
    finals = _evolve_all(params, jobs)
    grids = [grid for grid, _, _ in jobs]

    errors = [
        state_l2_distance(grids[i], finals[i], grids[0], finals[0])
        for i in range(1, len(res) + 1)
    ]

    # zero initial data has errors of exactly zero: nan rates, not a crash
    with np.errstate(divide="ignore", invalid="ignore"):
        rates = [
            float(np.log2(np.float64(errors[i]) / errors[i + 1]))
            for i in range(len(errors) - 1)
        ]

    probe = state_l2_distance(grids[-1], finals[-2], grids[-1], finals[-1])

    return ConvergenceReport(
        resolutions=res,
        errors=errors,
        observed_rates=rates,
        probe_delta=probe,
    )


def traveling_wave_roundtrip(
    params: ModelParams,
    grid: SpectralGrid,
    wave: StatePair,
    c: float,
    t_end: float,
    dt: float,
) -> float:
    """Relative L2 deviation after evolving to t_end and shifting back by c*t_end.

    The shift is exact (a per-mode phase factor), so the deviation isolates
    the time-stepping error plus the residual level of the wave itself.
    """
    if t_end == 0.0:
        return 0.0
    final = evolve(params, grid, wave, EvolutionConfig(t_end=t_end, dt=dt))
    back = translate_state(grid, final, -c * t_end)
    return l2_norm(grid, back.half - wave.half) / l2_norm(grid, wave.half)


def crest_scale_of(grid: SpectralGrid, profile: np.ndarray) -> float:
    """e-folding half-width of |profile| about its crest at x = 0."""
    profile = np.abs(np.asarray(profile, dtype=float))
    peak = profile.max()
    if peak <= 0:
        raise ValueError("profile is identically zero")
    right = (grid.nodes > 0) & (profile < peak / np.e)
    if not right.any():
        raise WindowUnderflowError("profile does not decay below 1/e of its peak")
    return float(grid.nodes[right][0])


def decay_fit(
    grid: SpectralGrid,
    profile: np.ndarray,
    model: str,
) -> DecayFit:
    """Fit the tail decay of a crest-centered profile on the right half-axis.

    The window starts five crest scales from the origin (the crest scale is
    always measured: the e-folding width of the profile), stops at
    OUTER_FRACTION of the half-length, and drops points whose amplitude is
    below the noise floor `max(AMPLITUDE_FLOOR, RELATIVE_FLOOR * peak)`.
    The exponential model fits log|zeta| against x, the algebraic model
    against log x; the fitted rate is the negative slope and the quality is
    the coefficient of determination.
    """
    if model not in (EXPONENTIAL, ALGEBRAIC):
        raise ValueError(f"model must be '{EXPONENTIAL}' or '{ALGEBRAIC}', got {model!r}")
    profile = np.asarray(profile, dtype=float)
    if profile.shape != (grid.n_modes,):
        raise ValueError("profile does not match the grid")

    x = grid.nodes
    x_lo = 5.0 * crest_scale_of(grid, profile)
    x_hi = OUTER_FRACTION * grid.half_length
    floor = max(AMPLITUDE_FLOOR, RELATIVE_FLOOR * np.abs(profile).max())
    mask = (x >= x_lo) & (x <= x_hi) & (np.abs(profile) > floor)
    if int(mask.sum()) < MIN_FIT_POINTS:
        raise WindowUnderflowError(
            f"only {int(mask.sum())} tail points above {floor:g} "
            f"in [{x_lo:g}, {x_hi:g}]"
        )

    xs = x[mask]
    ys = np.log(np.abs(profile[mask]))
    ts = xs if model == EXPONENTIAL else np.log(xs)
    # the fit maps ts onto [-1, 1], so huge or tiny abscissae stay well scaled
    line = np.polynomial.Polynomial.fit(ts, ys, 1)
    fitted = line(ts)
    ss_res = float(np.sum((ys - fitted) ** 2))
    ss_tot = float(np.sum((ys - ys.mean()) ** 2))
    quality = 1.0 - ss_res / ss_tot if ss_tot > 0 else 0.0

    return DecayFit(
        window=(float(xs[0]), float(xs[-1])),
        model=model,
        fitted_rate=float(-line.deriv()(0.0)),
        fit_quality=quality,
        n_points=int(mask.sum()),
    )


def acceleration_benchmark(
    params: ModelParams,
    grid: SpectralGrid,
    base_config: SolitaryConfig,
    mw_list: Sequence[int],
) -> list[AccelRow]:
    """Run the cycled solver once per width, sharing seed, grid and tolerance."""
    rows = []
    for mw in mw_list:
        t0 = time.perf_counter()
        try:
            _, trace = cycled_solve(params, grid, replace(base_config, mw=int(mw)))
            status = trace.termination
        except NonConvergenceError as err:
            trace, status = err.trace, err.trace.termination
        except SingularModeError as err:
            trace, status = None, f"singular-mode ktilde={err.ktilde:.6g}"
        rows.append(
            AccelRow(
                mw=int(mw),
                iterations=-1 if trace is None else trace.iterations_used,
                seconds=time.perf_counter() - t0,
                status=status,
                trace=trace,
            )
        )
    return rows
