"""Solitary-wave generation by the Petviashvili fixed-point iteration.

A traveling solution (zeta, u)(x - ct) of the periodic system satisfies, mode
by mode, the 2x2 fixed-point system

    S(ktilde) (zeta_hat, u_hat) = F_hat(ktilde),
    S(ktilde) = [[-c (1 + g),  (1/gamma)(1 + ((alpha-1)/alpha) g)],
                 [ 1 - gamma,  -c                                ]],
    F(zeta, u) = (1/gamma) (zeta*u, u^2/2)   (pointwise products),

where g = g(ktilde).  The Petviashvili update solves

    S Z[n+1] = m_n^2 F(Z[n]),
    m_n = <S Z[n], Z[n]> / <F(Z[n]), Z[n]>,

with the Euclidean inner product over all 2N nodal values; the squared
stabilizing factor matches the quadratic nonlinearity and collapses to 1 at a
solution.  The iteration is monitored by the residual RES = ||S Z - F(Z)||
in the same nodal norm and stops once RES <= tol.  Iterates are (2, N/2+1)
half spectra (the `half` of a `spectral.StatePair`), over which the 2N-value
nodal inner product is a Parseval sum: each mode weighted 2 for its conjugate
partner, k = 0 and -N/2 weighted 1 (`spectral.nodal_inner`).

`Workspace` is the one implementation of S, S^{-1} and F.  `cycled_solve`
builds one per solve: it reads the S tables once, keeps one product kernel
and writes every operation into buffers allocated with it, in the order of
the formulas above, so each iterate is the same to the bit as from fresh
arrays.  `evaluate_iterate` and `petviashvili_step` build one per call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import SingularModeError
from .spectral import (
    TABLE_CACHE_SIZE,
    ModelParams,
    ProductKernel,
    SpectralGrid,
    nodal_inner,
    nodal_norm,
    state_from_nodal,
    symbol_g,
)

# Relative floor below which a per-mode determinant counts as singular.
DET_FLOOR = 1e-12

# Relative floor for the stabilizing-factor denominator <F(Z), Z>.
DENOMINATOR_FLOOR = 1e-14


@dataclass(frozen=True)
class SolitaryConfig:
    """Parameters of one solitary-wave solve."""

    speed: float
    tol: float = 1e-10
    max_iter: int = 500
    mw: int = 1
    seed_amplitude: float = -0.4
    seed_width: float = 0.5

    def __post_init__(self):
        for name in ("speed", "tol", "seed_amplitude", "seed_width"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.speed == 0.0:
            raise ValueError("speed c must be nonzero")
        if self.tol <= 0:
            raise ValueError(f"tol must be positive, got {self.tol}")
        for name in ("max_iter", "mw"):
            if not isinstance(getattr(self, name), (int, np.integer)):
                raise ValueError(f"{name} must be an integer, got {getattr(self, name)!r}")
        if self.max_iter < 1:
            raise ValueError(f"max_iter must be >= 1, got {self.max_iter}")
        if self.mw < 1:
            raise ValueError(f"mw must be >= 1, got {self.mw}")
        if self.seed_amplitude == 0.0:
            raise ValueError("seed_amplitude must be nonzero")
        if self.seed_width <= 0:
            raise ValueError(f"seed_width must be positive, got {self.seed_width}")


@dataclass
class IterationTrace:
    """Per-iteration log of the residual and stabilizing factor.

    One row per residual evaluation.  `phases` distinguishes plain
    Petviashvili steps from extrapolated points; `inner_steps[i]` is the
    number of fixed-point solves performed before row i was recorded, so the
    residual history can be plotted against either solves or cycles.
    `extrapolations` splits the "extrapolated" rows into those accepted and
    rejected by the residual guard, and counts the cycles skipped for a
    degenerate coefficient sum, which leave no row.
    """

    residuals: list[float] = field(default_factory=list)
    m_factors: list[float] = field(default_factory=list)
    phases: list[str] = field(default_factory=list)
    inner_steps: list[int] = field(default_factory=list)
    converged: bool = False
    iterations_used: int = 0
    extrapolations: dict[str, int] = field(
        default_factory=lambda: dict.fromkeys(("accepted", "rejected", "skipped"), 0))

    @property
    def termination(self) -> str:
        """`converged`, `diverged` (stopped at a non-finite residual),
        `denominator-collapse` (stopped at a nan m) or `not-converged`."""
        if self.converged:
            return "converged"
        if not np.isfinite(self.residuals[-1]):
            return "diverged"
        return "denominator-collapse" if np.isnan(self.m_factors[-1]) else "not-converged"

    def append(self, residual: float, m: float, phase: str, inner: int) -> None:
        self.residuals.append(float(residual))
        self.m_factors.append(float(m))
        self.phases.append(phase)
        self.inner_steps.append(int(inner))


@lru_cache(maxsize=TABLE_CACHE_SIZE)
def _S_tables(params: ModelParams, grid: SpectralGrid, c: float):
    """Half-spectrum tables of S (S z = diag * z + off * z[::-1]) and of 1/det S,
    with the singularity check; g is even, so k = 0..N/2 holds every |k|.

    Stored complex, as numpy casts a real factor in a complex product anyway
    (and divides a complex array by a real one as a product with 1/det).
    """
    k = grid.wavenumbers[: grid.n_modes // 2 + 1]
    g = symbol_g(params, k)
    a = params.alpha
    s11 = -c * (1.0 + g)
    s12 = (1.0 + (a - 1.0) / a * g) / params.gamma
    s21 = np.full_like(g, 1.0 - params.gamma)
    s22 = np.full_like(g, -c)
    det = s11 * s22 - s12 * s21
    floor = DET_FLOOR * np.maximum.reduce([np.abs(s11), np.abs(s12), np.abs(s21), np.abs(s22)])
    bad = np.abs(det) <= floor
    if np.any(bad):
        i = int(np.argmin(np.abs(det) - floor))
        raise SingularModeError(k[i], det[i])
    return tuple(np.array(t, dtype=complex) for t in ((s11, s22), (s12, s21), 1.0 / det))


def seed_profile(params: ModelParams, grid: SpectralGrid, config: SolitaryConfig) -> np.ndarray:
    """Initial iterate: zeta = A sech^2(lambda x), u = (1-gamma) zeta / c.

    The u component comes from the second (algebraic) equation of the
    traveling-wave system with its quadratic term dropped.
    """
    # cosh and its square overflow to inf far out, where 1/inf^2 = 0 is exact
    with np.errstate(over="ignore"):
        zeta = config.seed_amplitude / np.cosh(config.seed_width * grid.nodes) ** 2
    u = (1.0 - params.gamma) * zeta / config.speed
    return state_from_nodal(grid, zeta, u).half


class Workspace:
    """One solve's S, S^{-1} and F on buffers allocated once, as
    `evolution.Stepper` is for the evolver.

    It reads the S tables once and keeps one `ProductKernel` built on the
    factors (1/gamma, 0.5/gamma) of F.  Each method writes into the `out` it
    is given with the operations, in their order, of the formulas in the
    module docstring, so every iterate, residual and m is the same to the
    bit as from fresh arrays.  `out` must not alias the input.
    """

    def __init__(self, params: ModelParams, grid: SpectralGrid, c: float):
        self._grid = grid
        self._diag, self._off, self._inv_det = _S_tables(params, grid, c)
        self._diag_reversed = self._diag[::-1].copy()
        self._product = ProductKernel(grid, [[1.0 / params.gamma], [0.5 / params.gamma]])
        self._work = np.empty_like(self._diag)
        self._scratch = np.empty_like(self._diag)

    def apply_S(self, z: np.ndarray, out: np.ndarray) -> np.ndarray:
        """S z = diag * z + off * z[::-1]."""
        np.multiply(self._diag, z, out=out)
        return np.add(out, np.multiply(self._off, z[::-1], out=self._scratch), out=out)

    def solve_S(self, rhs: np.ndarray, out: np.ndarray) -> np.ndarray:
        """S^{-1} rhs, mode by mode (closed-form 2x2 inversion)."""
        np.multiply(self._diag_reversed, rhs, out=out)
        np.subtract(out, np.multiply(self._off, rhs[::-1], out=self._scratch), out=out)
        return np.multiply(out, self._inv_det, out=out)

    def F(self, z: np.ndarray, out: np.ndarray) -> np.ndarray:
        """(1/gamma) (zeta*u, u^2/2) with the alias-free products of the
        evolver; the -N/2 slot is zero."""
        return self._product(z, out)

    def evaluate(self, z: np.ndarray, fz: np.ndarray) -> tuple[float, float]:
        """The stabilizing factor m and the residual RES at iterate Z, with
        F(Z) written into `fz`; m is nan where <F(Z), Z> is negligible
        against ||Z||^2."""
        grid = self._grid
        sz = self.apply_S(z, self._work)
        self.F(z, fz)
        num = nodal_inner(grid, sz, z)
        den = nodal_inner(grid, fz, z)
        norm2 = nodal_inner(grid, z, z)
        m = np.nan if abs(den) < DENOMINATOR_FLOOR * norm2 else num / den
        return m, nodal_norm(grid, np.subtract(sz, fz, out=sz))

    def step(self, fz: np.ndarray, m: float, out: np.ndarray) -> np.ndarray:
        """Solve S Z_next = m^2 F(Z) into `out`; the exponent 2 is fixed by
        the quadratic nonlinearity."""
        return self.solve_S(np.multiply(m * m, fz, out=self._work), out)


def evaluate_iterate(
    params: ModelParams, grid: SpectralGrid, c: float, z: np.ndarray
) -> tuple[np.ndarray, float, float]:
    """F(Z), m and RES at iterate Z on a fresh `Workspace`, for perfbench's
    ladder and the tests."""
    fz = np.empty_like(z)
    m, res = Workspace(params, grid, c).evaluate(z, fz)
    return fz, m, res


def petviashvili_step(
    params: ModelParams, grid: SpectralGrid, c: float, fz: np.ndarray, m: float
) -> np.ndarray:
    """Z_next from F(Z) and m on a fresh `Workspace`, for perfbench's ladder
    and the tests."""
    return Workspace(params, grid, c).step(fz, m, np.empty_like(fz))
