"""Real fields are exactly Hermitian where they are formed and stay so.

A `StatePair` holds the half spectrum, and its full-length `zeta_hat` and
`u_hat` mirror it, so a state is Hermitian once its k = 0 and -N/2 entries
are real.  `state_from_nodal` forms a real field by `rfft` (and
`state_to_nodal` reads it by `irfft`); every other operation (real-even and
odd-imaginary multipliers, the per-mode 2x2 solve, real affine combinations,
the `ProductKernel` products) must keep that exact, bit for bit, so the
evolver never re-symmetrizes its state.  The solver's iterates are real
cosine coefficients, whose mirror is Hermitian as it stands.
"""

import numpy as np
import pytest

from ilwbo import BO, ILW, ModelParams, SolitaryConfig, SpectralGrid, StatePair
from ilwbo.accel import cycled_solve, mpe_coefficients, mpe_extrapolate
from ilwbo.evolution import EvolutionConfig, evolve, step
from ilwbo.harness import gaussian_state, sech2_state
from ilwbo.solitary import evaluate_iterate, petviashvili_step, seed_profile
from ilwbo.spectral import projected_product, state_from_nodal

from conftest import (
    Snapshots,
    full_state,
    hermitian_symmetrize_reference,
    quadratic_terms,
    state_from_nodal_reference,
    state_of,
)

ILW_P = ModelParams(0.8, 1.2, ILW)
BO_P = ModelParams(0.8, 1.2, BO)


def assert_exactly_hermitian(*arrays):
    for c in arrays:
        assert np.array_equal(c, hermitian_symmetrize_reference(c))


def assert_state_exactly_hermitian(*states):
    for s in states:
        assert_exactly_hermitian(s.zeta_hat, s.u_hat)


@pytest.mark.parametrize("n", [8, 16, 64, 1024, 4096, 16384])
def test_state_from_nodal_matches_full_length_reference_bitwise(n):
    # the first N/2+1 entries of a full-length fft of real data are those of
    # rfft, and the rest are their conjugates, so projecting changes no bit
    grid = SpectralGrid(3.0, n)
    rng = np.random.default_rng(n)
    zeta, u = rng.standard_normal(n), rng.standard_normal(n)
    zeta[3] = 0.0  # signed zeros must come out the same way as well
    got = state_from_nodal(grid, zeta, u)
    want = state_from_nodal_reference(grid, zeta, u)
    for mine, theirs in ((got.zeta_hat, want[0]), (got.u_hat, want[1])):
        assert mine.dtype == theirs.dtype and mine.shape == theirs.shape
        assert np.array_equal(mine.view(np.uint64), theirs.view(np.uint64))


def test_state_from_nodal_is_hermitian():
    grid = SpectralGrid(8.0, 64)
    rng = np.random.default_rng(7)
    assert_state_exactly_hermitian(
        state_from_nodal(grid, rng.standard_normal(64), rng.standard_normal(64)),
        gaussian_state(0.3, 1.1)(grid),
        sech2_state(0.3, 0.7)(grid),
    )
    # a real field only: rfft rejects complex nodal input
    with pytest.raises(TypeError):
        state_from_nodal(grid, rng.standard_normal(64) + 1j, rng.standard_normal(64))


@pytest.mark.parametrize("n", [8, 32, 1024])
def test_quadratic_terms_are_hermitian(n):
    # any half spectrum: irfft reads the real part of the mean only, rfft
    # returns a real mean, and the -N/2 output slot is zeroed
    grid = SpectralGrid(3.0, n)
    rng = np.random.default_rng(n)
    half = rng.standard_normal((2, n // 2 + 1)) + 1j * rng.standard_normal((2, n // 2 + 1))
    assert_state_exactly_hermitian(StatePair(quadratic_terms(grid, half)))


@pytest.mark.parametrize("n", [8, 10, 16, 64, 1024, 4096, 16384])
def test_full_length_views_match_mirror_oracle_bitwise(n):
    # any complex half spectrum, its k = 0 and -N/2 entries included
    rng = np.random.default_rng(n)
    half = rng.standard_normal((2, n // 2 + 1)) + 1j * rng.standard_normal((2, n // 2 + 1))
    state = StatePair(half)
    want = full_state(half)
    for mine, theirs in ((state.zeta_hat, want[0]), (state.u_hat, want[1])):
        assert mine.dtype == theirs.dtype and mine.shape == (n,)
        assert np.array_equal(mine.view(np.uint64), theirs.view(np.uint64))
        assert not mine.flags.writeable
    assert np.shares_memory(state.zeta_hat, state.zeta_hat)  # built once, not per read


def test_half_spectrum_round_trip_is_exact():
    # half spectrum -> full-length views -> their first N/2+1 entries
    grid = SpectralGrid(8.0, 64)
    for state in (gaussian_state(0.4, 1.0)(grid), sech2_state(0.3, 0.7)(grid)):
        back = state_of(state.zeta_hat, state.u_hat)
        assert np.array_equal(back.half, state.half)
        assert np.array_equal(back.zeta_hat, state.zeta_hat)
        assert np.array_equal(back.u_hat, state.u_hat)


def test_step_and_evolve_keep_state_hermitian():
    grid = SpectralGrid(8.0, 64)
    y0 = gaussian_state(0.4, 1.0)(grid)
    assert_state_exactly_hermitian(step(ILW_P, grid, y0, 0.05), step(BO_P, grid, y0, 0.05))
    snaps = Snapshots()
    final = evolve(BO_P, grid, y0, EvolutionConfig(t_end=1.0, dt=0.05, record_every=4), sink=snaps)
    assert len(snaps.states) == 6
    assert_state_exactly_hermitian(*snaps.states, final)


def test_solver_iterates_stay_hermitian():
    grid = SpectralGrid(32.0, 256)
    config = SolitaryConfig(speed=0.57, tol=1e-9, max_iter=200, mw=3, seed_width=1.2)
    z = seed_profile(BO_P, grid, config)
    window = [z]
    for _ in range(config.mw):
        fz, m, _ = evaluate_iterate(BO_P, grid, config.speed, z)
        z = petviashvili_step(BO_P, grid, config.speed, fz, m)
        window.append(z)
    # a half spectrum is Hermitian once mirrored iff its k = 0 and -N/2 entries are real
    assert_state_exactly_hermitian(*map(StatePair, window))
    assert_state_exactly_hermitian(StatePair(mpe_extrapolate(window, mpe_coefficients(window))))
    wave, trace = cycled_solve(BO_P, grid, config)
    assert trace.converged and "extrapolated" in trace.phases
    assert_state_exactly_hermitian(wave)


def test_projected_product_splits_the_unpaired_input_mode():
    # The one-sided -N/2 input coefficient, once the product is projected,
    # acts as if split in halves between -N/2 and +N/2, except at k = 0.
    n = 16
    grid = SpectralGrid(3.0, n)
    rng = np.random.default_rng(5)
    f, g = (hermitian_symmetrize_reference(rng.standard_normal(n)
                                           + 1j * rng.standard_normal(n))
            for _ in range(2))
    modes = grid.mode_numbers.astype(int)

    def split(c):
        coeffs = dict(zip(modes.tolist(), c))
        coeffs[-n // 2] = coeffs[n // 2] = c[n // 2] / 2
        return coeffs

    fs, gs = split(f), split(g)
    want = np.array([sum(a * gs[k - k1] for k1, a in fs.items() if k - k1 in gs)
                     for k in modes])
    want[n // 2] = 0.0  # the -N/2 output slot stays empty
    want[0] -= f[n // 2] * g[n // 2] / 2
    assert np.allclose(hermitian_symmetrize_reference(projected_product(grid, f, g)), want,
                       rtol=0, atol=1e-13)
