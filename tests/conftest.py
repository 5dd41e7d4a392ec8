import numpy as np
import pytest
from hypothesis import settings

from ilwbo import (
    BO,
    ILW,
    ModelParams,
    SolitaryConfig,
    SpectralGrid,
    StatePair,
    cycled_solve,
)
from ilwbo.solitary import apply_S, nonlinearity_F
from ilwbo.spectral import (
    derivative_symbol,
    hermitian_symmetrize,
    nodal_norm,
    projected_product,
    symbol_g,
    symbol_J,
    symbol_T,
)

# Derandomized so that every run of the suite draws the same examples.
settings.register_profile("ilwbo", derandomize=True, deadline=None)
settings.load_profile("ilwbo")

# Reference parameter sets used throughout: gamma=0.8, alpha=1.2 with the
# demonstration speeds c=0.52 (ILW) and c=0.57 (B-O) on the 1024-mode grid.


@pytest.fixture(scope="session")
def ilw_params():
    return ModelParams(gamma=0.8, alpha=1.2, regime=ILW)


@pytest.fixture(scope="session")
def bo_params():
    return ModelParams(gamma=0.8, alpha=1.2, regime=BO)


@pytest.fixture(scope="session")
def wave_grid():
    return SpectralGrid(half_length=64.0, n_modes=1024)


@pytest.fixture(scope="session")
def ilw_wave(ilw_params, wave_grid):
    """Converged ILW demonstration wave (c=0.52) plus its trace."""
    config = SolitaryConfig(speed=0.52, tol=1e-10, max_iter=500, mw=1)
    wave, trace = cycled_solve(ilw_params, wave_grid, config)
    return config, wave, trace


@pytest.fixture(scope="session")
def bo_wave(bo_params, wave_grid):
    """Converged B-O demonstration wave (c=0.57) plus its trace."""
    config = SolitaryConfig(speed=0.57, tol=1e-10, max_iter=500, mw=1)
    wave, trace = cycled_solve(bo_params, wave_grid, config)
    return config, wave, trace


@pytest.fixture(scope="session")
def ilw_smooth_wave(ilw_params):
    """A speed inside the smooth ILW family (c=0.40), on a fast grid."""
    grid = SpectralGrid(half_length=32.0, n_modes=512)
    config = SolitaryConfig(speed=0.40, tol=1e-10, max_iter=500, mw=1)
    wave, trace = cycled_solve(ilw_params, grid, config)
    return grid, config, wave, trace


def brute_force_product(grid, f_hat, g_hat):
    """O(N^2) linear-convolution-plus-truncation oracle for the dealiased
    product; the unpaired -N/2 output slot is excluded from the band."""
    n = grid.n_modes
    modes = grid.mode_numbers.astype(int)
    index_of = {k: i for i, k in enumerate(modes)}
    out = np.zeros(n, dtype=complex)
    for i, k in enumerate(modes):
        if k == -n // 2:
            continue
        acc = 0.0 + 0.0j
        for j, k1 in enumerate(modes):
            k2 = k - k1
            if k2 in index_of:
                acc += f_hat[j] * g_hat[index_of[k2]]
        out[i] = acc
    return out


def hermitian_symmetrize_reference(coeffs):
    """The Hermitian projection built from a rolled, reversed copy: a bitwise
    oracle for `spectral.hermitian_symmetrize`, which works in place."""
    c = np.asarray(coeffs)
    n = c.shape[0]
    out = np.empty_like(c, dtype=complex)
    rev = np.conj(np.roll(c[::-1], 1))  # entry k holds conj(c[-k])
    out[:] = 0.5 * (c + rev)
    out[0] = c[0].real
    out[n // 2] = c[n // 2].real
    return out


def random_hermitian(grid, rng, scale=1.0):
    from ilwbo.spectral import hermitian_symmetrize

    n = grid.n_modes
    c = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    c = scale * hermitian_symmetrize(c)
    c[n // 2] = 0.0
    return c


# Oracles and helpers used only by the tests.

def zero_state(grid):
    n = grid.n_modes
    return StatePair(np.zeros(n, dtype=complex), np.zeros(n, dtype=complex))


def assemble_S_mode(params, c, ktilde):
    """The 2x2 per-mode matrix S(ktilde)."""
    g = float(symbol_g(params, np.asarray(ktilde)))
    a = params.alpha
    return np.array(
        [
            [-c * (1.0 + g), (1.0 + (a - 1.0) / a * g) / params.gamma],
            [1.0 - params.gamma, -c],
        ]
    )


def residual_norm(params, grid, c, z):
    return nodal_norm(grid, apply_S(params, grid, c, z) - nonlinearity_F(params, grid, z))


def linear_mode_matrix(params, grid, ktilde):
    """2x2 matrix of the linearized per-mode system d/dt (zeta_hat, u_hat)."""
    ik = 1j * ktilde
    j = complex(symbol_J(params, np.asarray(ktilde)))
    return np.array(
        [
            [0.0, -(1.0 / params.gamma) * j * ik],
            [-(1.0 - params.gamma) * ik, 0.0],
        ],
        dtype=complex,
    )


def apply_multiplier(grid, coeffs, symbol):
    """Multiply coefficient k by symbol(ktilde_k); `symbol` is a callable on
    `grid.wavenumbers` or a precomputed per-mode array."""
    values = symbol(grid.wavenumbers) if callable(symbol) else np.asarray(symbol)
    if values.shape != (grid.n_modes,):
        raise ValueError("symbol array does not match the grid mode count")
    return coeffs * values


def derivative(grid, coeffs):
    return coeffs * derivative_symbol(grid)


def reference_rhs(params, grid, state):
    """The full-length StatePair right-hand side: per-mode multipliers on all
    N modes and the Hermitian parts of two `projected_product` calls."""
    ik = derivative_symbol(grid)
    k = grid.wavenumbers
    zu = hermitian_symmetrize(projected_product(grid, state.zeta_hat, state.u_hat))
    uu = hermitian_symmetrize(projected_product(grid, state.u_hat, state.u_hat))
    dzeta = (-(1.0 / params.gamma) * symbol_J(params, k) * ik * state.u_hat
             + (1.0 / params.gamma) * symbol_T(params, k) * ik * zu)
    du = -(1.0 - params.gamma) * ik * state.zeta_hat + (1.0 / (2.0 * params.gamma)) * ik * uu
    return StatePair(dzeta, du)


def reference_step(params, grid, state, dt):
    """Classical RK4 on the full-length StatePair: an oracle for `evolve`,
    which steps the half spectrum."""
    k1 = reference_rhs(params, grid, state)
    k2 = reference_rhs(params, grid, state + (0.5 * dt) * k1)
    k3 = reference_rhs(params, grid, state + (0.5 * dt) * k2)
    k4 = reference_rhs(params, grid, state + dt * k3)
    return state + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
