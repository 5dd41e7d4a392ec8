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

`cycled_solve` wraps the Petviashvili iteration, on the cosine coefficients of
an even wave (see `solitary`), in cycling mode: with width mw >= 2 it runs mw
fixed-point solves, extrapolates over the resulting window of mw+1 iterates
(order mw-1), restarts from the extrapolated point, and repeats; mw = 1 is the
plain iteration, the same loop with the extrapolation step skipped.  An
extrapolated point is accepted only if it does not increase the residual;
otherwise the cycle continues from the last plain iterate, so cycling can
never do worse than the plain iteration (a looser 10x acceptance window lets
occasional bad extrapolations through during the nonlinear transient and
measurably slows convergence).

A cycling solve (mw >= 2) also stops once its residual has stopped falling:
past the end of a solitary-wave family the leading Ritz value of the
extrapolation sits on the unit circle and the residual on a plateau, which no
number of further cycles leaves.  The anchor is the residual of the last row
that fell below 1/STALL_FACTOR of the anchor before it (the seed's row
first); at the end of a cycle, STALL_SOLVES fixed-point solves past the
anchor's stop the solve as `stalled`.  The plain iteration (mw = 1) is
exempt: it can sit on a plateau for over 100 solves and then converge.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .errors import NonConvergenceError
from .solitary import IterationTrace, SolitaryConfig, Workspace, seed_profile
from .spectral import ModelParams, SpectralGrid, StatePair, nodal_norm

# Accept an extrapolated point only if it does not worsen the residual.
RESIDUAL_GUARD = 1.0

# The stall rule (see above).  The longest such plateau of a converging solve
# on the benchmark's sweep, the desk, the configs and the tests is 28 solves.
STALL_SOLVES = 60
STALL_FACTOR = 10.0

# |sum(c)| below this (relative to max |c|) makes the gammas meaningless.
SUM_FLOOR = 1e-12


def mpe_coefficients(window: Sequence[np.ndarray] | np.ndarray) -> np.ndarray:
    """Affine weights gamma_0..gamma_q for a window of q+2 iterates, real
    cosine coefficients or complex half spectra: a sequence, or one
    (q+2, 2, N/2+1) array, which is differenced in place of a stacked copy.

    The least squares are taken in the nodal norm: each difference, as real
    numbers (so a real window gives half the rows of a complex one), scaled
    by the root of its Parseval weight (see `nodal_inner`).
    Rank-deficient difference matrices are handled by the minimum-norm
    least-squares solution.  So a stationary window (all differences exactly
    zero) gets c_0..c_{q-1} = 0, i.e. gamma = (0, ..., 0, 1): the last
    combined iterate, unchanged; and a two-iterate window (q = 0, no free
    coefficient) gets gamma = (1,).  A vanishing coefficient sum gives nan
    weights, and the caller skips the extrapolation for this cycle.
    """
    if len(window) < 2:
        raise ValueError("window must hold at least two iterates")
    diffs = np.diff(window, axis=0)
    q = len(diffs) - 1  # extrapolation order
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
    denominator) also raises NonConvergenceError, with that row last, as
    does a stall (see the module docstring), with `trace.stall` set.  Each
    cycle's MPE weights are kept in `trace.mpe_weights`.

    The iteration runs through one `solitary.Workspace`, on the cosine
    coefficients of an even seed: `seed_profile` with no `seed`, or a seed
    whose `half.imag` is all zero, as every returned wave's is.  Any other
    seed raises ValueError; a translated wave is `spectral.translate_state`
    of a solved one.  The seed is left unchanged.  Each cycle's plain
    iterates are written into one (mw+1, 2, N/2+1) window allocated per
    solve, F(Z) alternates between two buffers, and the returned wave is a
    complex copy of the last iterate that owns its memory.
    """
    c = config.speed
    if seed is None:
        z = seed_profile(params, grid, config)
    elif seed.half.imag.any():
        raise ValueError("seed must be even: its half.imag must be all zero")
    else:
        # contiguous, as np.vdot can round a strided view differently
        z = np.ascontiguousarray(seed.half.real)
    try:
        window = np.empty((config.mw + 1,) + z.shape)
    except (MemoryError, ValueError) as err:  # numpy's ValueError: no address space holds it
        raise ValueError(f"mw={config.mw} asks for an iterate window too large to allocate "
                         f"({err})") from err
    fz, fx = np.empty_like(window[0]), np.empty_like(window[0])
    trace = IterationTrace()
    solves = 0
    anchor_solve, anchor_res, best_res = 0, math.inf, math.inf

    def evaluate(x: np.ndarray, f: np.ndarray, phase: str):
        nonlocal anchor_solve, anchor_res, best_res
        mx, res_x = workspace.evaluate(x, f)
        trace.append(res_x, mx, phase, solves)
        # before the tolerance: a collapse at a tiny iterate is no solution
        if not math.isfinite(res_x) or math.isnan(mx):
            raise NonConvergenceError(trace)
        if res_x < anchor_res / STALL_FACTOR:
            anchor_solve, anchor_res = solves, res_x
        best_res = min(best_res, res_x)  # the anchor is below every earlier row
        trace.converged = res_x <= config.tol
        return mx, res_x

    # a diverging iterate overflows on its way to a non-finite residual, as
    # do the S tables of an extreme gamma such as 1e-300 and the seed's norm
    # at seed_amplitude 1e300 (inf - inf in `nodal_inner`)
    with np.errstate(over="ignore", invalid="ignore"):
        if nodal_norm(grid, z) == 0.0:
            raise ValueError("the seed's nodal norm underflows to 0: seed_amplitude is too small"
                             if seed is None else "seed iterate must be nonzero")
        workspace = Workspace(params, grid, c)
        m, res = evaluate(z, fz, "plain")
        while not trace.converged:
            if config.mw > 1:  # the plain iteration is exempt, and only MPE reads window[0]
                if solves - anchor_solve >= STALL_SOLVES:
                    trace.stall = {"anchor_solve": anchor_solve, "anchor_residual": anchor_res,
                                   "best_residual": best_res, "stall_solves": STALL_SOLVES,
                                   "stall_factor": STALL_FACTOR}
                    raise NonConvergenceError(trace)
                window[0] = z
            for j in range(1, config.mw + 1):
                if solves >= config.max_iter:
                    raise NonConvergenceError(trace)
                z = workspace.step(fz, m, out=window[j])
                solves += 1
                m, res = evaluate(z, fz, "plain")
                if trace.converged:
                    break
            if trace.converged or config.mw == 1:
                continue
            gammas = mpe_coefficients(window)
            trace.mpe_weights.append(gammas)
            if np.isnan(gammas).any():
                trace.extrapolations["skipped"] += 1
                continue  # keep iterating from the last plain iterate
            x = mpe_extrapolate(window, gammas)
            mx, res_x = evaluate(x, fx, "extrapolated")
            if res_x <= RESIDUAL_GUARD * res:
                trace.extrapolations["accepted"] += 1
                z, m, res = x, mx, res_x
                fz, fx = fx, fz
            else:  # restart the cycle from the last plain iterate
                trace.extrapolations["rejected"] += 1
    return StatePair(z.astype(complex)), trace
