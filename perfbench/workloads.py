"""The four benchmark workloads, as tables of CLI invocations.

A workload is a set of *kinds*; one pass runs every kind once, in an order
drawn from the seed, and for each kind the seed also draws one of a few
stored input *variants*.  Every variant has an entry in ``reference.json``,
so every generated input has a stored reference to check against, and all
variants of a kind cost the same amount of work, so the seed changes the
inputs but not the size of a pass.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

GAMMA = 0.8
ALPHA = 1.2

# Node spacing h = 2l/N = 0.125 on every evolve grid, dt = h/2 (the CFL guard
# allows dt <= h for gamma = 0.8, alpha = 1.2).  Both are exact in binary, so
# t_end = steps * dt gives exactly `steps` RK4 steps.
EVOLVE_H = 0.125
EVOLVE_DT = 0.0625
NO_SNAPSHOTS = 10 ** 6  # record_every beyond the step count: first and last state only

# (regime, initial kind, amplitude, width)
EVOLVE_VARIANTS = (
    ("bo", "sech2", 0.2, 0.8),
    ("ilw", "gaussian", 0.15, 1.5),
    ("bo", "gaussian", -0.1, 2.0),
    ("ilw", "sech2", 0.25, 0.6),
)

# Speed ladders of the solitary sweep; each rung holds the speeds the seed
# picks from.  B-O rungs at c >= 0.62 hold the known stalls (mw = 2) and the
# uncaught ValueError from mpe_extrapolate (mw = 4); they stay in the sweep.
SOLITARY_GRIDS = {"bo": (4096, 256.0), "ilw": (2048, 128.0)}
SOLITARY_RUNGS = {
    "bo": ((0.540, 0.541), (0.600, 0.601), (0.620, 0.621), (0.649, 0.650)),
    "ilw": ((0.360, 0.361), (0.380, 0.381), (0.409, 0.410)),
}
SOLITARY_WIDTHS = (1, 2, 4)
SOLITARY_TOL = 1e-10
SOLITARY_MAX_ITER = 500

# (amplitude, width) of the convergence block of configs/verify_desk.json;
# the first pair is the shipped one.
DESK_CONVERGENCE_VARIANTS = ((0.1, 1.2), (0.09, 1.15), (0.11, 1.25), (0.105, 1.3))

NAMES = ("evolve-compute", "evolve-snapshots", "solitary-sweep", "verify-desk")

# What one unit of `work_per_s` is on each workload.
WORK_UNITS = {
    "evolve-compute": "mode-steps (N x RK4 steps)",
    "evolve-snapshots": "snapshots written",
    "solitary-sweep": "fixed-point solves (trace.csv iter)",
    "verify-desk": "verification experiments",
}


@dataclass(frozen=True)
class Invocation:
    """One CLI call: `ilwbo <command> --config <config>`."""

    kind: str
    key: str  # reference.json entry
    command: str
    config: dict
    work: float | None  # work units, or None when read from the outputs
    snapshots: int = 0  # snapshot files evolve must write
    mode_steps: float = 0.0  # N x RK4 steps of an evolve


def _evolve(kind: str, n: int, steps: int, record_every: int) -> list[Invocation]:
    out = []
    for i, (regime, shape, amplitude, width) in enumerate(EVOLVE_VARIANTS):
        config = {
            "regime": regime, "gamma": GAMMA, "alpha": ALPHA,
            "l": n * EVOLVE_H / 2, "N": n,
            "t_end": steps * EVOLVE_DT, "dt": EVOLVE_DT,
            "record_every": record_every,
            "initial": {"kind": shape, "amplitude": amplitude, "width": width},
        }
        snapshots = 2 if record_every > steps else steps // record_every + 1
        work = float(n * steps) if record_every > steps else float(snapshots)
        out.append(Invocation(kind, f"{kind}/{i}", "evolve", config, work, snapshots,
                              float(n * steps)))
    return out


def _solitary() -> dict[str, list[Invocation]]:
    kinds = {}
    for regime, rungs in SOLITARY_RUNGS.items():
        n, half_length = SOLITARY_GRIDS[regime]
        for rung in rungs:
            for mw in SOLITARY_WIDTHS:
                kind = f"{regime}-c{rung[0]:.3f}-mw{mw}"
                kinds[kind] = [
                    Invocation(kind, f"{regime}-c{c:.3f}-mw{mw}", "solitary", {
                        "regime": regime, "gamma": GAMMA, "alpha": ALPHA,
                        "c": c, "l": half_length, "N": n,
                        "tol": SOLITARY_TOL, "max_iter": SOLITARY_MAX_ITER, "mw": mw,
                    }, None)
                    for c in rung
                ]
    return kinds


def _desk(root: Path) -> dict[str, list[Invocation]]:
    """One kind per experiment of the desk, each run as its own `verify` call,
    so that no single sample lasts the whole desk."""
    blocks = json.loads((root / "configs" / "verify_desk.json").read_text())["experiments"]
    kinds: dict[str, list[Invocation]] = {}
    for i, block in enumerate(blocks):
        kind = f"desk{i}-{block['kind']}"
        variants = [block]
        if block["kind"] == "convergence":
            variants = [dict(block, amplitude=a, width=w) for a, w in DESK_CONVERGENCE_VARIANTS]
        kinds[kind] = [Invocation(kind, f"{kind}/{j}", "verify", {"experiments": [v]}, 1.0)
                       for j, v in enumerate(variants)]
    return kinds


def kinds(workload: str, root: Path) -> dict[str, list[Invocation]]:
    """Kind name -> its variants, for one workload."""
    if workload == "evolve-compute":
        # Python overhead dominates at N = 1024 (~1 ms/step), FFTs and
        # products at N = 16384 (~24 ms/step); the step counts give the two
        # sizes roughly equal time.
        return {"N1024": _evolve("N1024", 1024, 400, NO_SNAPSHOTS),
                "N16384": _evolve("N16384", 16384, 24, NO_SNAPSHOTS)}
    if workload == "evolve-snapshots":
        return {"N4096": _evolve("N4096", 4096, 100, 1)}
    if workload == "solitary-sweep":
        return _solitary()
    if workload == "verify-desk":
        return _desk(root)
    raise ValueError(f"unknown workload {workload!r}")


def passes(table: dict[str, list[Invocation]], seed: int):
    """Endless closed-loop schedule: each pass runs every kind once."""
    rng = random.Random(seed)
    names = sorted(table)
    while True:
        rng.shuffle(names)
        yield [table[name][rng.randrange(len(table[name]))] for name in names]
