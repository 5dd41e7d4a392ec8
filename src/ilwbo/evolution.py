"""Semidiscrete Fourier-Galerkin evolution of the periodic initial-value problem.

Per mode ktilde the coefficient system reads

    d/dt zeta_hat = -(1/gamma) J(ktilde) (i ktilde) u_hat
                    + (1/gamma) T(ktilde) (i ktilde) (zeta u)_hat
    d/dt u_hat    = -(1 - gamma) (i ktilde) zeta_hat
                    + (1/(2 gamma)) (i ktilde) (u^2)_hat

with the quadratic terms formed by the alias-free truncated product, so the
right-hand side is the exact Galerkin projection of the nonlinear terms.
Time stepping is classical explicit RK4 on the (2, N/2+1) half spectrum of
the real pair, the array a `StatePair` holds.  The linear part has purely
imaginary per-mode eigenvalues +-i*ktilde*sqrt((1-gamma) J(ktilde)/gamma),
i.e. it is transport-like, so an explicit method with dt proportional to h
is adequate.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from .errors import StepFailureError
from .spectral import (
    TABLE_CACHE_SIZE,
    ModelParams,
    SpectralGrid,
    StatePair,
    derivative_symbol,
    quadratic_terms,
    symbol_J,
    symbol_T,
)


@dataclass(frozen=True)
class EvolutionConfig:
    """Time-marching parameters."""

    t_end: float
    dt: float
    record_every: int = 1
    cfl_guard: float = 0.5

    def __post_init__(self):
        if self.dt <= 0:
            raise ValueError(f"dt must be positive, got {self.dt}")
        if self.t_end < 0:
            raise ValueError(f"t_end must be nonnegative, got {self.t_end}")
        # past 2**53 steps the step count and t = i*dt are no longer exact
        if not self.t_end / self.dt <= 2 ** 53:
            raise ValueError(f"dt={self.dt} is too small: t_end/dt exceeds 2**53")
        if self.record_every < 1:
            raise ValueError(f"record_every must be >= 1, got {self.record_every}")
        if self.cfl_guard <= 0:
            raise ValueError(f"cfl_guard must be positive, got {self.cfl_guard}")

    @property
    def steps(self) -> tuple[int, float]:
        """The number of full steps of dt, and the shorter last step (0.0 if none)."""
        n_full = int(np.floor(self.t_end / self.dt + 1e-12))
        remainder = self.t_end - n_full * self.dt
        if remainder < 1e-12 * max(self.dt, 1.0):
            remainder = 0.0
        return n_full, remainder

    @property
    def snapshots(self) -> int:
        """The number of states `evolve` hands its sink: the initial one, then
        one every record_every steps and the last."""
        n_full, remainder = self.steps
        n_steps = n_full + (1 if remainder else 0)
        return 1 + -(-n_steps // self.record_every)


@dataclass
class EvolutionRecord:
    """Snapshots and a per-step k = 0 trail, for perfbench's ladder and the tests."""

    times: list[float]
    states: list[StatePair]
    step_times: np.ndarray
    zero_mode_zeta: np.ndarray
    zero_mode_u: np.ndarray


@lru_cache(maxsize=TABLE_CACHE_SIZE)
def _rhs_tables(params: ModelParams, grid: SpectralGrid) -> tuple[np.ndarray, np.ndarray]:
    """Half-spectrum multipliers: d/dt y = linear * y[::-1] + quadratic * products."""
    h = grid.n_modes // 2
    ik = derivative_symbol(grid)[: h + 1]
    k = grid.wavenumbers[: h + 1]
    g = params.gamma
    linear = np.stack((-(1.0 / g) * symbol_J(params, k) * ik, -(1.0 - g) * ik))
    quadratic = np.stack(((1.0 / g) * symbol_T(params, k) * ik, (1.0 / (2.0 * g)) * ik))
    return linear, quadratic


def _rhs(params: ModelParams, grid: SpectralGrid, y: np.ndarray) -> np.ndarray:
    if not np.isfinite(y).all():
        raise StepFailureError("non-finite coefficients in the state")
    linear, quadratic = _rhs_tables(params, grid)
    return linear * y[::-1] + quadratic * quadratic_terms(grid, y)


def _rk4(params: ModelParams, grid: SpectralGrid, y: np.ndarray, dt: float) -> np.ndarray:
    # a diverging run overflows before the finite check catches it; the typed
    # error below is the contract, so keep numpy quiet about the overflow
    with np.errstate(over="ignore", invalid="ignore"):
        k1 = _rhs(params, grid, y)
        k2 = _rhs(params, grid, y + (0.5 * dt) * k1)
        k3 = _rhs(params, grid, y + (0.5 * dt) * k2)
        k4 = _rhs(params, grid, y + dt * k3)
        out = y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    if not np.isfinite(out).all():
        raise StepFailureError("time step produced non-finite values")
    return out


def semidiscrete_rhs(params: ModelParams, grid: SpectralGrid, state: StatePair) -> StatePair:
    """d/dt (zeta_hat, u_hat) of a state, for perfbench's ladder and the tests."""
    return StatePair(_rhs(params, grid, state.half))


def linear_speed_bound(params: ModelParams, grid: SpectralGrid) -> float:
    """Frozen linear wave-speed bound used by the CFL guard.

    Max over modes of (spectral radius of the per-mode linear matrix) / |ktilde|,
    which is sqrt((1-gamma) J(ktilde) / gamma); the ktilde = 0 matrix is zero so
    its spectral radius contributes nothing.
    """
    k = grid.wavenumbers
    j = symbol_J(params, k)
    return float(np.max(np.sqrt((1.0 - params.gamma) * j / params.gamma)))


def max_stable_dt(params: ModelParams, grid: SpectralGrid, cfl_guard: float) -> float:
    return cfl_guard * grid.node_spacing / linear_speed_bound(params, grid)


def step(params: ModelParams, grid: SpectralGrid, state: StatePair, dt: float) -> StatePair:
    """One explicit RK4 step of a state, for perfbench's ladder and the tests."""
    return StatePair(_rk4(params, grid, state.half, dt))


def evolve(
    params: ModelParams,
    grid: SpectralGrid,
    initial: StatePair,
    config: EvolutionConfig,
    sink: Callable[[float, StatePair], None] | None = None,
) -> StatePair:
    """March the semidiscrete system to t_end and return the final state.

    Given a `sink`, each snapshot (every `record_every` steps, plus the
    initial and final states) is handed to `sink(t, state)` and not stored,
    so the run holds O(N) memory whatever its snapshot count.  A failing step
    raises StepFailureError with the time it would have ended at.
    """
    dt_max = max_stable_dt(params, grid, config.cfl_guard)
    if abs(config.dt) > dt_max * (1.0 + 1e-12):
        raise ValueError(
            f"dt={config.dt} violates the step-size guard "
            f"{config.cfl_guard} * h / c_lin = {dt_max:.6g}"
        )

    n_full, remainder = config.steps
    n_steps = n_full + (1 if remainder else 0)

    y, t = initial.half, 0.0
    if sink is not None:
        sink(0.0, initial)
    for i in range(1, n_steps + 1):
        h = config.dt if i <= n_full else remainder
        try:
            y = _rk4(params, grid, y, h)
        except StepFailureError as err:
            raise StepFailureError(str(err), time=t + h) from err
        t = i * config.dt if i <= n_full else config.t_end
        if sink is not None and (i % config.record_every == 0 or i == n_steps):
            sink(t, StatePair(y))
    return StatePair(y)
