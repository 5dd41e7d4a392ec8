import functools
import math

import numpy as np
import pytest
import scipy.fft
from hypothesis import settings

from ilwbo import (
    BO,
    ILW,
    ModelParams,
    SolitaryConfig,
    SpectralGrid,
    StatePair,
    accel,
    cycled_solve,
)
from ilwbo.accel import (
    RESIDUAL_GUARD,
    STALL_FACTOR,
    STALL_SOLVES,
    SUM_FLOOR,
    mpe_extrapolate,
)
from ilwbo.errors import NonConvergenceError
from ilwbo.solitary import (
    DENOMINATOR_FLOOR,
    IterationTrace,
    _S_tables,
    seed_profile,
)
from ilwbo.spectral import (
    ProductKernel,
    _padded_size,
    derivative_symbol,
    nodal_inner,
    nodal_norm,
    projected_product,
    symbol_g,
    symbol_J,
    symbol_T,
    to_coefficients,
)

# Derandomized so that every run of the suite draws the same examples.
settings.register_profile("ilwbo", derandomize=True, deadline=None)
settings.load_profile("ilwbo")


def quadratic_terms(grid, half):
    """Half spectra of (P_N(zeta u), P_N(u^2)) for the real fields whose half
    spectra are the rows of `half`, from a fresh `ProductKernel` with unit
    factors: the oracle of the kernel's products, which the evolver's and
    the solver's kernels multiply by their factors."""
    h = grid.n_modes // 2
    if half.shape != (2, h + 1):
        raise ValueError("half spectra do not match the grid")
    return ProductKernel(grid, 1.0)(half, np.empty((2, h + 1), dtype=complex))


def product_kernel_reference(grid, half, factors):
    """`ProductKernel(grid, factors)(half, out)` on fresh arrays, through the
    public `scipy.fft.irfft`/`rfft(norm="forward")`: the kernel's own
    arithmetic, step for step, so its direct pocketfft calls must match it
    bit for bit."""
    h = grid.n_modes // 2
    m = _padded_size(grid.n_modes)
    phase = grid._phase[: h + 1]
    input_phase = phase.copy()
    input_phase[h] *= 0.5
    padded = np.zeros((2, m // 2 + 1), dtype=complex)
    padded[:, : h + 1] = input_phase * half
    values = scipy.fft.irfft(padded, m, norm="forward")
    products = np.stack((values[0] * values[1], values[1] * values[1]))
    spectrum = scipy.fft.rfft(products, norm="forward")
    # a named table: numpy multiplies a large temporary operand in place,
    # which can round a complex product differently in its last bit
    table = (phase * factors).astype(complex)
    out = spectrum[:, : h + 1] * table
    out[:, h] = 0.0
    return out


def even_product_reference(grid, half, factors):
    """`EvenProductKernel(grid, factors)(half, out)` on fresh arrays, through
    the public `scipy.fft.dct` (type 3, then type 2): the kernel's own
    arithmetic, step for step, so its direct pocketfft calls must match it
    bit for bit."""
    h = grid.n_modes // 2
    m = _padded_size(grid.n_modes)
    weight = np.ones(h + 1)
    weight[h] = 0.5
    padded = np.zeros((2, m // 2))
    padded[:, : h + 1] = weight * half
    values = scipy.fft.dct(padded, type=3)
    products = np.stack((values[0] * values[1], values[1] * values[1]))
    out = scipy.fft.dct(products, type=2)[:, : h + 1] * (np.asarray(factors, dtype=float) / m)
    out[:, h] = 0.0
    return out


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
    config = SolitaryConfig(speed=0.52, tol=1e-10, max_iter=500, mw=1, seed_width=1.2)
    wave, trace = cycled_solve(ilw_params, wave_grid, config)
    return config, wave, trace


@pytest.fixture(scope="session")
def bo_wave(bo_params, wave_grid):
    """Converged B-O demonstration wave (c=0.57) plus its trace."""
    config = SolitaryConfig(speed=0.57, tol=1e-10, max_iter=500, mw=1, seed_width=1.2)
    wave, trace = cycled_solve(bo_params, wave_grid, config)
    return config, wave, trace


@pytest.fixture(scope="session")
def ilw_smooth_wave(ilw_params):
    """A speed inside the smooth ILW family (c=0.40), on a fast grid."""
    grid = SpectralGrid(half_length=32.0, n_modes=512)
    config = SolitaryConfig(speed=0.40, tol=1e-10, max_iter=500, mw=1, seed_width=1.2)
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
    """The Hermitian projection, built from a rolled, reversed copy: entry k
    becomes 0.5 * (c[k] + conj(c[-k])), and the mean and the unpaired mode at
    index N/2 are forced real.  The nearest coefficient array of a real field."""
    c = np.asarray(coeffs)
    n = c.shape[0]
    out = np.empty_like(c, dtype=complex)
    rev = np.conj(np.roll(c[::-1], 1))  # entry k holds conj(c[-k])
    out[:] = 0.5 * (c + rev)
    out[0] = c[0].real
    out[n // 2] = c[n // 2].real
    return out


def full_state(half):
    """The (2, N) coefficient arrays with half spectrum `half` and
    c[-k] = conj(c[k]) mirrored in: the mirror oracle for the full-length
    `StatePair.zeta_hat` and `u_hat`."""
    h = half.shape[1] - 1
    full = np.empty((2, 2 * h), dtype=complex)
    full[:, : h + 1] = half
    np.conj(half[:, h - 1: 0: -1], out=full[:, h + 1:])
    return full


def state_of(zeta_hat, u_hat):
    """The state whose half spectrum is the first N/2+1 entries of two
    full-length coefficient arrays (the rest is mirrored back, not read)."""
    h = len(zeta_hat) // 2
    return StatePair(np.stack((zeta_hat[: h + 1], u_hat[: h + 1])))


def full_arrays(state):
    """The (2, N) full-length coefficient arrays of a state."""
    return np.stack((state.zeta_hat, state.u_hat))


def state_from_nodal_reference(grid, zeta, u):
    """Full-length fft and Hermitian projection of each real field, as (2, N)
    arrays: an oracle for `spectral.state_from_nodal`, which takes one
    batched rfft."""
    return np.stack([hermitian_symmetrize_reference(to_coefficients(grid, f))
                     for f in (zeta, u)])


def translate_reference(grid, state, shift):
    """Full-length phase factor and Hermitian projection, as (2, N) arrays:
    an oracle for `spectral.translate_state`, which turns the half spectrum."""
    turn = np.exp(-1j * grid.wavenumbers * shift)
    return np.stack([hermitian_symmetrize_reference(c * turn)
                     for c in (state.zeta_hat, state.u_hat)])


def full_l2_norm(grid, coeffs):
    """Continuous L2 norm on [-l, l] of one full-length coefficient array,
    ||f||^2 = 2l * sum |f_hat|^2 over all N modes: an oracle for
    `spectral.l2_norm`, which weights the half spectrum."""
    return float(np.sqrt(2.0 * grid.half_length * np.sum(np.abs(coeffs) ** 2)))


def state_l2_norm(grid, state):
    """Sum of the component L2 norms, ||zeta|| + ||u||, from the full-length views."""
    return full_l2_norm(grid, state.zeta_hat) + full_l2_norm(grid, state.u_hat)


def pad_modes(coeffs, m):
    """Embed an FFT-ordered coefficient array into a larger band (zero fill);
    the -N/2 coefficient lands at mode -N/2 of the larger band only."""
    n = coeffs.shape[0]
    out = np.zeros(m, dtype=complex)
    out[: n // 2] = coeffs[: n // 2]
    out[m - n // 2:] = coeffs[n // 2:]
    return out


def state_l2_distance_reference(coarse_grid, coarse, fine_grid, fine):
    """Pad the full-length views of the coarse state into the fine band,
    subtract and sum the component norms: an oracle for
    `harness.state_l2_distance`, which works on the half spectra."""
    m = fine_grid.n_modes
    return (full_l2_norm(fine_grid, pad_modes(coarse.zeta_hat, m) - fine.zeta_hat)
            + full_l2_norm(fine_grid, pad_modes(coarse.u_hat, m) - fine.u_hat))


def random_hermitian(grid, rng, scale=1.0):
    n = grid.n_modes
    c = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    c = scale * hermitian_symmetrize_reference(c)
    c[n // 2] = 0.0
    return c


# Oracles and helpers used only by the tests.

def zero_state(grid):
    return StatePair(np.zeros((2, grid.n_modes // 2 + 1), dtype=complex))


class Snapshots:
    """An `evolve` sink that keeps each (t, state) it is given."""

    def __init__(self):
        self.times, self.states = [], []

    def __call__(self, t, state):
        self.times.append(t)
        self.states.append(state)


def zero_mode_drift(states):
    """Largest deviation of either k=0 coefficient from its initial value;
    collected with `record_every=1`, `states` holds every step."""
    zero = np.array([state.half[:, 0] for state in states])
    return float(np.max(np.abs(zero - zero[0])))


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


# The solver on fresh arrays, one per operation, on real cosine coefficients:
# an oracle for `solitary.Workspace` and `accel.cycled_solve`, which run each
# solve on buffers allocated once, with the same operations in the same
# order, so their iterates, residuals and m factors are these to the bit.
# They also take complex half spectra, for `residual_norm` and the
# full-length oracle below.

def apply_S(params, grid, c, z):
    diag, off, _ = _S_tables(params, grid, c)
    return diag * z + off * z[::-1]


def solve_S(params, grid, c, rhs):
    """Apply S(ktilde)^{-1} mode by mode (closed-form 2x2 inversion)."""
    diag, off, inv_det = _S_tables(params, grid, c)
    return (diag[::-1] * rhs - off * rhs[::-1]) * inv_det


def nonlinearity_F(params, grid, z):
    """(1/gamma) (zeta*u, u^2/2) with the alias-free products of the evolver;
    on cosine coefficients, the factors are folded in as the even kernel
    folds them."""
    factors = np.array([[1.0 / params.gamma], [0.5 / params.gamma]])
    if np.isrealobj(z):
        return even_product_reference(grid, z, factors)
    return quadratic_terms(grid, z) * factors


def fresh_evaluate_iterate(params, grid, c, z):
    sz = apply_S(params, grid, c, z)
    fz = nonlinearity_F(params, grid, z)
    num = nodal_inner(grid, sz, z)
    den = nodal_inner(grid, fz, z)
    norm2 = nodal_inner(grid, z, z)
    m = np.nan if abs(den) < DENOMINATOR_FLOOR * norm2 else num / den
    res = nodal_norm(grid, sz - fz)
    return fz, m, res


def fresh_petviashvili_step(params, grid, c, fz, m):
    return solve_S(params, grid, c, (m * m) * fz)


def stall_anchor(residuals):
    """Index of the stall rule's anchor row in a whole residual history: the
    last row below 1/STALL_FACTOR of the anchor row before it."""
    anchor = 0
    for i, res in enumerate(residuals):
        if res < residuals[anchor] / STALL_FACTOR:
            anchor = i
    return anchor


def longest_plateau(trace):
    """The most fixed-point solves that passed since the stall rule's anchor
    at any row of `trace`."""
    return max(solves - trace.inner_steps[stall_anchor(trace.residuals[: i + 1])]
               for i, solves in enumerate(trace.inner_steps))


def fresh_cycled_solve(params, grid, config, seed=None):
    """The cycling loop on a list window of fresh iterates; the MPE weights
    come from `accel.mpe_coefficients`, looked up at each call so that a
    test's monkeypatch reaches both loops.  The stall rule is read off the
    whole trace at the start of each cycle.  It runs on the cosine
    coefficients of `seed_profile`, or of an even seed."""
    c = config.speed
    z = seed_profile(params, grid, config) if seed is None else seed.half.real.copy()
    trace = IterationTrace()
    solves = 0

    def evaluate(x, phase):
        fx, mx, res_x = fresh_evaluate_iterate(params, grid, c, x)
        trace.append(res_x, mx, phase, solves)
        if not math.isfinite(res_x) or math.isnan(mx):
            raise NonConvergenceError(trace)
        trace.converged = res_x <= config.tol
        return fx, mx, res_x

    with np.errstate(over="ignore", invalid="ignore"):
        fz, m, res = evaluate(z, "plain")
        while not trace.converged:
            anchor = stall_anchor(trace.residuals)
            if config.mw > 1 and solves - trace.inner_steps[anchor] >= STALL_SOLVES:
                trace.stall = {"anchor_solve": trace.inner_steps[anchor],
                               "anchor_residual": trace.residuals[anchor],
                               "best_residual": min(trace.residuals[anchor:]),
                               "stall_solves": STALL_SOLVES, "stall_factor": STALL_FACTOR}
                raise NonConvergenceError(trace)
            window = [z]
            for _ in range(config.mw):
                if solves >= config.max_iter:
                    raise NonConvergenceError(trace)
                z = fresh_petviashvili_step(params, grid, c, fz, m)
                solves += 1
                fz, m, res = evaluate(z, "plain")
                if trace.converged:
                    break
                window.append(z)
            if trace.converged or config.mw == 1:
                continue
            gammas = accel.mpe_coefficients(window)
            trace.mpe_weights.append(gammas)
            if np.isnan(gammas).any():
                trace.extrapolations["skipped"] += 1
                continue
            x = mpe_extrapolate(window, gammas)
            fx, mx, res_x = evaluate(x, "extrapolated")
            if res_x <= RESIDUAL_GUARD * res:
                trace.extrapolations["accepted"] += 1
                z, fz, m, res = x, fx, mx, res_x
            else:
                trace.extrapolations["rejected"] += 1
    return StatePair(z.astype(complex)), trace


def residual_norm(params, grid, c, state):
    z = state.half
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


def reference_rhs(params, grid, y):
    """The full-length right-hand side of (2, N) coefficient arrays: per-mode
    multipliers on all N modes and the Hermitian parts of two
    `projected_product` calls."""
    ik = derivative_symbol(grid)
    k = grid.wavenumbers
    zeta_hat, u_hat = y
    zu = hermitian_symmetrize_reference(projected_product(grid, zeta_hat, u_hat))
    uu = hermitian_symmetrize_reference(projected_product(grid, u_hat, u_hat))
    dzeta = (-(1.0 / params.gamma) * symbol_J(params, k) * ik * u_hat
             + (1.0 / params.gamma) * symbol_T(params, k) * ik * zu)
    du = -(1.0 - params.gamma) * ik * zeta_hat + (1.0 / (2.0 * params.gamma)) * ik * uu
    return np.stack((dzeta, du))


def reference_step(params, grid, y, dt):
    """Classical RK4 on (2, N) coefficient arrays: an oracle for `evolve`,
    which steps the half spectrum."""
    k1 = reference_rhs(params, grid, y)
    k2 = reference_rhs(params, grid, y + (0.5 * dt) * k1)
    k3 = reference_rhs(params, grid, y + (0.5 * dt) * k2)
    k4 = reference_rhs(params, grid, y + dt * k3)
    return y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def half_spectrum_rhs(params, grid, y):
    """The right-hand side of a (2, N/2+1) half spectrum from unfolded
    multipliers and `quadratic_terms`, one fresh array per operation: an
    oracle for the evolver's stepper, whose kernel takes the quadratic table
    as its factors and which works on stage buffers."""
    h = grid.n_modes // 2
    ik = derivative_symbol(grid)[: h + 1]
    k = grid.wavenumbers[: h + 1]
    g = params.gamma
    linear = np.stack((-(1.0 / g) * symbol_J(params, k) * ik, -(1.0 - g) * ik))
    quadratic = np.stack(((1.0 / g) * symbol_T(params, k) * ik, (1.0 / (2.0 * g)) * ik))
    return linear * y[::-1] + quadratic * quadratic_terms(grid, y)


def half_spectrum_step(params, grid, y, dt):
    """Classical RK4 on a half spectrum, stage by stage in the stepper's
    order of operations, so its result is the stepper's bit for bit."""
    k1 = half_spectrum_rhs(params, grid, y)
    k2 = half_spectrum_rhs(params, grid, y + (0.5 * dt) * k1)
    k3 = half_spectrum_rhs(params, grid, y + (0.5 * dt) * k2)
    k4 = half_spectrum_rhs(params, grid, y + dt * k3)
    return y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


# The full-length Petviashvili/MPE solve: an oracle for `cycled_solve`, which
# iterates on the half spectrum.  States are (2, N) coefficient arrays, the
# nodal inner product is the plain N * Re vdot over all N modes, and MPE
# solves its least-squares problem on the 4N real parts.

@functools.lru_cache(maxsize=None)
def reference_S_tables(params, grid, c):
    g = symbol_g(params, grid.wavenumbers)
    a = params.alpha
    s11 = -c * (1.0 + g)
    s12 = (1.0 + (a - 1.0) / a * g) / params.gamma
    s21 = np.full_like(g, 1.0 - params.gamma)
    s22 = np.full_like(g, -c)
    return s11, s12, s21, s22, s11 * s22 - s12 * s21


def reference_inner(grid, a, b):
    return grid.n_modes * (np.vdot(b[0], a[0]) + np.vdot(b[1], a[1])).real


def reference_evaluate_iterate(params, grid, c, z):
    s11, s12, s21, s22, _ = reference_S_tables(params, grid, c)
    sz = np.stack((s11 * z[0] + s12 * z[1], s21 * z[0] + s22 * z[1]))
    fz = full_state(nonlinearity_F(params, grid, z[:, : grid.n_modes // 2 + 1]))
    num, den = reference_inner(grid, sz, z), reference_inner(grid, fz, z)
    collapsed = abs(den) < DENOMINATOR_FLOOR * reference_inner(grid, z, z)
    d = sz - fz
    return (fz, math.nan if collapsed else num / den,
            float(np.sqrt(max(reference_inner(grid, d, d), 0.0))))


def reference_petviashvili_step(params, grid, c, fz, m):
    s11, s12, s21, s22, det = reference_S_tables(params, grid, c)
    r = (m * m) * fz
    return np.stack(((s22 * r[0] - s12 * r[1]) / det, (-s21 * r[0] + s11 * r[1]) / det))


def reference_mpe_coefficients(window):
    diffs = [np.concatenate([d[0].real, d[0].imag, d[1].real, d[1].imag])
             for d in (b - a for a, b in zip(window[:-1], window[1:]))]
    q = len(diffs) - 1
    if all(not d.any() for d in diffs):
        return np.eye(q + 1)[-1]
    if q == 0:
        return np.ones(1)
    c_free, *_ = np.linalg.lstsq(np.stack(diffs[:-1], axis=1), -diffs[-1], rcond=None)
    c = np.append(c_free, 1.0)
    if abs(c.sum()) < SUM_FLOOR * np.max(np.abs(c)):
        return np.full(q + 1, math.nan)
    return c / c.sum()


def reference_cycled_solve(params, grid, config):
    """The cycling loop on (2, N) arrays from the seed of `seed_profile`;
    returns the final (2, N) iterate and its IterationTrace."""
    c = config.speed
    z = full_state(seed_profile(params, grid, config))
    trace = IterationTrace()
    solves = 0

    def converged(res, m, phase):
        trace.append(res, m, phase, solves)
        if math.isnan(m):  # a collapsed denominator ends the solve
            raise NonConvergenceError(trace)
        trace.converged = res <= config.tol
        return trace.converged

    fz, m, res = reference_evaluate_iterate(params, grid, c, z)
    if converged(res, m, "plain"):
        return z, trace
    while True:
        window = [z]
        for _ in range(config.mw):
            if solves >= config.max_iter:
                raise NonConvergenceError(trace)
            z = reference_petviashvili_step(params, grid, c, fz, m)
            solves += 1
            fz, m, res = reference_evaluate_iterate(params, grid, c, z)
            if converged(res, m, "plain"):
                return z, trace
            window.append(z)
        if config.mw == 1:
            continue
        gammas = reference_mpe_coefficients(window)
        if np.isnan(gammas).any():
            continue
        x = mpe_extrapolate(window, gammas)
        fx, mx, res_x = reference_evaluate_iterate(params, grid, c, x)
        if converged(res_x, mx, "extrapolated"):
            return x, trace
        if res_x <= RESIDUAL_GUARD * res:
            z, fz, m, res = x, fx, mx, res_x
