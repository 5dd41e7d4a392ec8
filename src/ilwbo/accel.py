"""Minimal polynomial extrapolation (MPE) over Petviashvili iterates.

Given a window of consecutive iterates Z_0, ..., Z_{q+1} with differences
W_j = Z_{j+1} - Z_j, the order-q extrapolation solves, in the least-squares
sense,

    c_0 W_0 + ... + c_{q-1} W_{q-1} = -W_q,     c_q = 1,

normalizes gamma_j = c_j / sum(c) (so the gammas sum to one exactly) and
returns the affine recombination X = sum_j gamma_j Z_j over the first q+1
iterates.  For an affine iteration Z -> M Z + b this recovers the fixed point
exactly whenever the minimal polynomial of M with respect to the initial
error has degree <= q and 1 is not an eigenvalue of M.

`cycled_solve` wraps the Petviashvili iteration in cycling mode: with width
mw >= 2 it runs mw fixed-point solves, extrapolates over the resulting window
of mw+1 iterates (order mw-1), restarts from the extrapolated point, and
repeats; mw = 1 is the plain iteration, the same loop with the
extrapolation step skipped.  An extrapolated point is accepted
only if it does not increase the residual; otherwise the cycle continues from
the last plain iterate, so cycling can never do worse than the plain
iteration (a looser 10x acceptance window lets occasional bad extrapolations
through during the nonlinear transient and measurably slows convergence).
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .errors import NonConvergenceError
from .solitary import (
    IterationTrace,
    SolitaryConfig,
    evaluate_iterate,
    petviashvili_step,
    seed_profile,
)
from .spectral import ModelParams, SpectralGrid, StatePair, nodal_norm

# Accept an extrapolated point only if it does not worsen the residual.
RESIDUAL_GUARD = 1.0

# |sum(c)| below this (relative to max |c|) makes the gammas meaningless.
SUM_FLOOR = 1e-12


def mpe_coefficients(window: Sequence[np.ndarray]) -> np.ndarray:
    """Affine weights gamma_0..gamma_q for a window of q+2 half-spectrum iterates.

    The least squares are taken in the nodal norm: each difference, as real
    numbers, scaled by the root of its Parseval weight (see `nodal_inner`).
    A stationary window (all differences exactly zero) short-circuits to
    gamma = (0, ..., 0, 1): the sequence has already converged and the last
    combined iterate is returned unchanged.  Rank-deficient difference
    matrices are handled by the minimum-norm least-squares solution; a
    vanishing coefficient sum gives nan weights, and the caller skips the
    extrapolation for this cycle.
    """
    if len(window) < 2:
        raise ValueError("window must hold at least two iterates")
    diffs = np.diff(np.stack(window), axis=0)
    q = len(diffs) - 1  # extrapolation order
    if not diffs.any():
        return np.eye(q + 1)[-1]
    if q == 0:
        return np.ones(1)
    diffs[..., 1:-1] *= math.sqrt(2.0)
    real = diffs.view(float).reshape(q + 1, -1)
    c_free, *_ = np.linalg.lstsq(real[:-1].T, -real[-1], rcond=None)
    c = np.append(c_free, 1.0)
    total = c.sum()
    if abs(total) < SUM_FLOOR * np.max(np.abs(c)):
        return np.full_like(c, np.nan)
    return c / total


def mpe_extrapolate(window: Sequence[np.ndarray], gammas: np.ndarray) -> np.ndarray:
    """Affine recombination sum_j gamma_j Z_j over the first len(gammas) iterates."""
    gammas = np.asarray(gammas, dtype=float)
    if len(gammas) > len(window):
        raise ValueError("more coefficients than window iterates")
    # c / sum(c) rounds each gamma, so the sum misses 1 by about eps * sum|gamma|;
    # written as `not <=` so that nan weights (a degenerate sum) fail it too
    if not abs(gammas.sum() - 1.0) <= 1e-12 * max(1.0, np.abs(gammas).sum()):
        raise ValueError(f"coefficients must sum to 1, got {gammas.sum()!r}")
    out = gammas[0] * window[0]
    for g, z in zip(gammas[1:], window[1:]):
        out = out + g * z
    return out


def cycled_solve(
    params: ModelParams,
    grid: SpectralGrid,
    config: SolitaryConfig,
    seed: StatePair | None = None,
) -> tuple[StatePair, IterationTrace]:
    """Petviashvili iteration in MPE cycling mode with width config.mw.

    The residual is recorded and checked against the tolerance after every
    fixed-point solve and after every extrapolation; the iteration cap counts
    fixed-point solves only (extrapolations are a few small least-squares
    problems and essentially free).  Every fixed-point solve is evaluated, so
    a run stopped by the cap records max_iter + 1 plain rows, the seed's included.
    A non-finite residual (divergence) or a nan stabilizing factor (collapsed
    denominator) also raises NonConvergenceError, with that row last.  The
    iteration runs on the half spectrum of `seed`, and the returned wave wraps
    the last iterate.
    """
    c = config.speed
    z = seed.half if seed is not None else seed_profile(params, grid, config)
    if nodal_norm(grid, z) == 0.0:
        raise ValueError("the seed's nodal norm underflows to 0: seed_amplitude is too small"
                         if seed is None else "seed iterate must be nonzero")

    trace = IterationTrace()
    solves = 0

    def evaluate(x: np.ndarray, phase: str):
        fx, mx, res_x = evaluate_iterate(params, grid, c, x)
        trace.append(res_x, mx, phase, solves)
        trace.iterations_used = solves
        # before the tolerance: a collapse at a tiny iterate is no solution
        if not math.isfinite(res_x) or math.isnan(mx):
            raise NonConvergenceError(trace)
        trace.converged = res_x <= config.tol
        return fx, mx, res_x

    # a diverging iterate overflows on its way to a non-finite residual
    with np.errstate(over="ignore", invalid="ignore"):
        fz, m, res = evaluate(z, "plain")
        while not trace.converged:
            window = [z]
            for _ in range(config.mw):
                if solves >= config.max_iter:
                    raise NonConvergenceError(trace)
                z = petviashvili_step(params, grid, c, fz, m)
                solves += 1
                fz, m, res = evaluate(z, "plain")
                if trace.converged:
                    break
                window.append(z)
            if trace.converged or config.mw == 1:
                continue
            gammas = mpe_coefficients(window)
            if np.isnan(gammas).any():
                trace.extrapolations["skipped"] += 1
                continue  # keep iterating from the last plain iterate
            x = mpe_extrapolate(window, gammas)
            fx, mx, res_x = evaluate(x, "extrapolated")
            if res_x <= RESIDUAL_GUARD * res:
                trace.extrapolations["accepted"] += 1
                z, fz, m, res = x, fx, mx, res_x
            else:  # restart the cycle from the last plain iterate
                trace.extrapolations["rejected"] += 1
    return StatePair(z), trace
