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

`evolve` builds one `Stepper` per run: the multiplier tables are read and
the stage buffers allocated once, each stage takes its factored products
from one `spectral.ProductKernel` built on the quadratic table, and the
stages are combined in place in the order of the textbook formula, so every
result is the same to the bit.  The initial state is checked once, then
each step's result: a non-finite stage always leaves a non-finite result.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import StepFailureError
from .spectral import (
    ModelParams,
    ProductKernel,
    SpectralGrid,
    StatePair,
    derivative_symbol,
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
        for name in ("t_end", "dt", "cfl_guard"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.dt <= 0:
            raise ValueError(f"dt must be positive, got {self.dt}")
        if self.t_end < 0:
            raise ValueError(f"t_end must be nonnegative, got {self.t_end}")
        # past 2**53 steps the step count and t = i*dt are no longer exact
        if not self.t_end / self.dt <= 2 ** 53:
            raise ValueError(f"dt={self.dt} is too small: t_end/dt exceeds 2**53")
        if not isinstance(self.record_every, (int, np.integer)):
            raise ValueError(f"record_every must be an integer, got {self.record_every!r}")
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
    def n_steps(self) -> int:
        """The number of RK4 steps to t_end, the shorter last step included."""
        n_full, remainder = self.steps
        return n_full + (1 if remainder else 0)

    @property
    def snapshots(self) -> int:
        """The number of states `evolve` hands its sink: the initial one, then
        one every record_every steps and the last."""
        return 1 + -(-self.n_steps // self.record_every)


@dataclass
class EvolutionRecord:
    """Snapshots and a per-step k = 0 trail, for perfbench's ladder and the tests."""

    times: list[float]
    states: list[StatePair]
    step_times: np.ndarray
    zero_mode_zeta: np.ndarray
    zero_mode_u: np.ndarray


def _rhs_tables(params: ModelParams, grid: SpectralGrid) -> tuple[np.ndarray, np.ndarray]:
    """Half-spectrum multipliers: d/dt y = linear * y[::-1] + quadratic * products,
    with `products` the half spectra of (P_N(zeta u), P_N(u^2)); the
    `ProductKernel` of a `Stepper` takes the quadratic table as its factors."""
    h = grid.n_modes // 2
    ik = derivative_symbol(grid)[: h + 1]
    k = grid.wavenumbers[: h + 1]
    g = params.gamma
    linear = np.stack((-(1.0 / g) * symbol_J(params, k) * ik, -(1.0 - g) * ik))
    quadratic = np.stack(((1.0 / g) * symbol_T(params, k) * ik, (1.0 / (2.0 * g)) * ik))
    return linear, quadratic


class Stepper:
    """Classical RK4 for one problem on stage buffers (k1..k4, the stage
    input and the products) allocated once; it checks each step's result, not
    its input."""

    def __init__(self, params: ModelParams, grid: SpectralGrid):
        self._linear, quadratic = _rhs_tables(params, grid)
        self._product = ProductKernel(grid, quadratic)
        self._k = np.empty((4,) + self._linear.shape, dtype=complex)
        self._stage = np.empty_like(self._linear)
        self._products = np.empty_like(self._linear)

    def rhs(self, y: np.ndarray, out: np.ndarray) -> np.ndarray:
        """d/dt y into `out`."""
        np.multiply(self._linear, y[::-1], out=out)
        return np.add(out, self._product(y, self._products), out=out)

    def __call__(self, y: np.ndarray, dt: float, out: np.ndarray) -> np.ndarray:
        """One step from `y` (left alone) into `out`."""
        (k1, k2, k3, k4), stage = self._k, self._stage
        # a diverging run overflows before the finite check catches it; the
        # typed error below is the contract, so keep numpy quiet about it
        with np.errstate(over="ignore", invalid="ignore"):
            self.rhs(y, k1)
            self.rhs(np.add(y, np.multiply(0.5 * dt, k1, out=stage), out=stage), k2)
            self.rhs(np.add(y, np.multiply(0.5 * dt, k2, out=stage), out=stage), k3)
            self.rhs(np.add(y, np.multiply(dt, k3, out=stage), out=stage), k4)
            np.add(k1, np.multiply(2.0, k2, out=k2), out=k1)
            np.add(k1, np.multiply(2.0, k3, out=k3), out=k1)
            np.add(k1, k4, out=k1)
            out = np.add(y, np.multiply(dt / 6.0, k1, out=k1), out=out)
        if not np.isfinite(out).all():
            raise StepFailureError("time step produced non-finite values")
        return out


def _check_finite(y: np.ndarray, time: float | None = None) -> None:
    if not np.isfinite(y).all():
        raise StepFailureError("non-finite coefficients in the state", time=time)


def semidiscrete_rhs(params: ModelParams, grid: SpectralGrid, state: StatePair) -> StatePair:
    """d/dt (zeta_hat, u_hat) of a state, for perfbench's ladder and the tests."""
    _check_finite(state.half)
    return StatePair(Stepper(params, grid).rhs(state.half, np.empty_like(state.half)))


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
    _check_finite(state.half)
    return StatePair(Stepper(params, grid)(state.half, dt, np.empty_like(state.half)))


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
    if not abs(config.dt) <= dt_max * (1.0 + 1e-12):  # a nan bound fails it too
        raise ValueError(
            f"dt={config.dt} violates the step-size guard "
            f"{config.cfl_guard} * h / c_lin = {dt_max:.6g}"
        )

    n_full, remainder = config.steps
    n_steps = config.n_steps

    stepper = Stepper(params, grid)
    # the steps alternate between these two arrays; the sink gets copies
    states = np.empty((2, 2, grid.n_modes // 2 + 1), dtype=complex)
    y, t = initial.half, 0.0
    if sink is not None:
        sink(0.0, initial)
    if n_steps:
        _check_finite(y, time=config.dt if n_full else remainder)
    for i in range(1, n_steps + 1):
        h = config.dt if i <= n_full else remainder
        try:
            y = stepper(y, h, out=states[i % 2])
        except StepFailureError as err:
            raise StepFailureError(str(err), time=t + h) from err
        t = i * config.dt if i <= n_full else config.t_end
        if sink is not None and (i % config.record_every == 0 or i == n_steps):
            sink(t, StatePair(y.copy()))
    return StatePair(y)
