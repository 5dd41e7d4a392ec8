"""Layer ladder: each layer's kernel timed alone at N in {256, 1024, 4096, 16384}.

FFT pair -> projected_product -> semidiscrete_rhs -> RK4 step on the
evolution side, evaluate_iterate -> petviashvili_step -> mpe_coefficients on
the solitary side; each is timed with one FFT worker (the plain
single-thread baseline) and with one worker per core.  Then the harness
experiments of configs/verify_desk.json, one cycled solve and one snapshot
write, once each, with the CLI's default worker setting.
"""

from __future__ import annotations

import os
import shutil
import statistics
import time
from pathlib import Path

import numpy as np

from ilwbo import accel, evolution, harness, io_utils, solitary, spectral

SIZES = (256, 1024, 4096, 16384)
_H = 0.125
_SPEED = 0.57
_MIN_SECONDS = 0.02
_MIN_REPS = 5
_MAX_REPS = 2000


def _median_us(fn) -> float:
    samples = []
    clock = time.perf_counter
    spent = 0.0
    while (spent < _MIN_SECONDS or len(samples) < _MIN_REPS) and len(samples) < _MAX_REPS:
        start = clock()
        fn()
        samples.append(clock() - start)
        spent += samples[-1]
    return statistics.median(samples) * 1e6


def product_bytes(n: int) -> int:
    """Bytes one projected_product reads and writes, computed from array sizes
    (complex128 fields, float64 phase) as the code stands; cache reuse is
    ignored, so this is a computed figure, not a measured one."""
    m = spectral._padded_size(n)
    c, f = 16, 8
    phase = 4 * f * m + m  # fftfreq, astype, %, ==, where
    pad = 2 * (c * m + 2 * c * n)  # zero fill, copy in both factors
    to_fine = 2 * (f * m + 2 * c * m) + 2 * (2 * c * m)  # phase multiply, ifft
    product = 3 * c * m
    back = 2 * c * m + (f * m + 2 * c * m)  # fft, phase multiply
    truncate = 2 * c * n
    return phase + pad + to_fine + product + back + truncate


def _kernels(n: int) -> dict:
    params = spectral.ModelParams(0.8, 1.2, spectral.BO)
    grid = spectral.SpectralGrid(n * _H / 2, n)
    state = harness.sech2_state(0.2, 0.8)(grid)
    values = spectral.to_nodal(grid, state.zeta_hat).real
    config = solitary.SolitaryConfig(speed=_SPEED, seed_width=0.5)
    z = solitary.seed_profile(params, grid, config)
    window = [z]
    for _ in range(4):
        fz, m, _ = solitary.evaluate_iterate(params, grid, _SPEED, window[-1])
        window.append(solitary.petviashvili_step(params, grid, _SPEED, fz, m))
    fz, m, _ = solitary.evaluate_iterate(params, grid, _SPEED, z)
    dt = 0.5 * _H
    return {
        "spectral.fft_pair_us": lambda: spectral.to_nodal(grid, spectral.to_coefficients(grid, values)),
        "spectral.projected_product_us": lambda: spectral.projected_product(grid, state.zeta_hat, state.u_hat),
        "evolution.rhs_us": lambda: evolution.semidiscrete_rhs(params, grid, state),
        "evolution.step_us": lambda: evolution.step(params, grid, state, dt),
        "solitary.evaluate_iterate_us": lambda: solitary.evaluate_iterate(params, grid, _SPEED, z),
        "solitary.petviashvili_step_us": lambda: solitary.petviashvili_step(params, grid, _SPEED, fz, m),
        "accel.mpe_coefficients_us.mw2": lambda: accel.mpe_coefficients(window[:3]),
        "accel.mpe_coefficients_us.mw4": lambda: accel.mpe_coefficients(window[:5]),
    }


def kernel_ladder(nproc: int) -> dict[str, float]:
    """`<rung>.N<n>` with one FFT worker and `<rung>.N<n>.nproc` with nproc."""
    out = {}
    previous = spectral._fft_workers
    try:
        for n in SIZES:
            kernels = _kernels(n)
            for workers, suffix in ((1, ""), (nproc, ".nproc")):
                spectral.set_fft_workers(workers)
                for name, fn in kernels.items():
                    fn()  # plan caches and lru tables filled before timing
                    out[f"{name}.N{n}{suffix}"] = _median_us(fn)
            out[f"spectral.projected_product_computed_bytes.N{n}"] = float(product_bytes(n))
    finally:
        spectral.set_fft_workers(previous)
    return out


def _timed(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def layer_rungs(desk: dict, work_dir: Path) -> dict[str, float]:
    """Harness, accel and io_utils entry points timed once each."""
    blocks = {b["kind"]: b for b in desk["experiments"]}
    out = {}
    previous = spectral._fft_workers
    spectral.set_fft_workers(-1)  # the CLI default
    try:
        _desk_rungs(blocks, out)
        _io_rung(work_dir, out)
    finally:
        spectral.set_fft_workers(previous)
    return out


def _desk_rungs(blocks: dict, out: dict) -> None:
    conv = blocks["convergence"]
    params = spectral.ModelParams(conv["gamma"], conv["alpha"], conv["regime"])
    out["harness.convergence_study_s"] = _timed(lambda: harness.convergence_study(
        params, harness.gaussian_state(conv["amplitude"], conv["width"]),
        conv["resolutions"], conv["t_end"], conv["dt"], conv["l"]))

    trip = blocks["roundtrip"]
    params = spectral.ModelParams(trip["gamma"], trip["alpha"], trip["regime"])
    grid = spectral.SpectralGrid(trip["l"], trip["N"])
    config = solitary.SolitaryConfig(speed=trip["c"], tol=trip["tol"], max_iter=trip["max_iter"],
                                     mw=trip["mw"], seed_width=0.5)
    wave, _ = accel.cycled_solve(params, grid, config)
    out["harness.roundtrip_s"] = _timed(lambda: harness.traveling_wave_roundtrip(
        params, grid, wave, trip["c"], trip["t_end"], trip["dt"]))
    zeta = spectral.to_nodal(grid, wave.zeta_hat).real
    out["harness.decay_fit_s"] = _timed(lambda: harness.decay_fit(grid, zeta, harness.EXPONENTIAL))

    acc = blocks["accel"]
    params = spectral.ModelParams(acc["gamma"], acc["alpha"], acc["regime"])
    grid = spectral.SpectralGrid(acc["l"], acc["N"])
    config = solitary.SolitaryConfig(speed=acc["c"], tol=acc["tol"], max_iter=acc["max_iter"],
                                     mw=max(acc["mw_list"]), seed_width=0.5)
    out["accel.cycled_solve_s"] = _timed(lambda: accel.cycled_solve(params, grid, config))


def _io_rung(work_dir: Path, out: dict) -> None:
    params = spectral.ModelParams(0.8, 1.2, spectral.BO)
    grid = spectral.SpectralGrid(256.0, 4096)
    state = harness.sech2_state(0.2, 0.8)(grid)
    record = evolution.EvolutionRecord([0.0, 1.0, 2.0, 3.0], [state] * 4, np.zeros(4),
                                       np.zeros(4, complex), np.zeros(4, complex))
    target = work_dir / "ladder-snapshots"
    seconds = _timed(lambda: io_utils.write_snapshots(str(target), grid, params, record))
    shutil.rmtree(target, ignore_errors=True)
    out["io_utils.snapshot_ms.N4096"] = seconds / len(record.times) * 1e3


def nproc() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
