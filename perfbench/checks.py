"""Output checks: what each invocation produced, and whether it matches the
stored reference.

`observe` reads an invocation's output directory into a small JSON-able
record; `make_reference.py` stores these records and `judge` compares a new
one against them.  Waves and final states are compared through a
fingerprint: 16 fixed Gaussian projections of the nodal values, whose
distance estimates the relative L2 distance of the full fields.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

WAVE_RTOL = 1e-9  # converged wave or final evolve state against its reference
CROSS_WIDTH_RTOL = 1e-8  # against the mw = 1 wave when the case has none of its own
DRIFT_TOL = 1e-12  # k = 0 coefficient of zeta, first against last snapshot
NUMBER_RTOL = 1e-9  # verify summary numbers
NUMBER_ATOL = 1e-12

_FINGERPRINT_ROWS = 16
_FINGERPRINT_SEED = 20210420


def fingerprint(values: np.ndarray) -> list[float]:
    rng = np.random.default_rng(_FINGERPRINT_SEED)
    basis = rng.standard_normal((_FINGERPRINT_ROWS, values.size)) / math.sqrt(_FINGERPRINT_ROWS)
    return [float(v) for v in basis @ values]


def relative_distance(a, b) -> float:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return float(np.linalg.norm(a - b) / np.linalg.norm(b))


def _load_json(path: Path):
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError):
        return None


def _columns(path: Path) -> np.ndarray:
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def _observe_evolve(out: Path) -> dict:
    index = _load_json(out / "snapshots_manifest.json")
    if index is None:
        return {}
    files = index["files"]
    first, last = _columns(out / files[0]), _columns(out / files[-1])
    zeta, u = last[:, 2], last[:, 3]
    return {
        "snapshots": len(files),
        "zeta_mean_drift": abs(float(np.mean(last[:, 2]) - np.mean(first[:, 2]))),
        "fingerprint": fingerprint(np.concatenate([zeta, u])),
    }


def _observe_solitary(out: Path, manifest: dict | None) -> dict:
    obs = {}
    if manifest is not None:
        obs["termination"] = manifest.get("termination")
        obs["iterations"] = manifest.get("iterations")
        obs["last_residual"] = manifest.get("last_residual")
    trace = out / "trace.csv"
    if trace.is_file():
        rows = _trace_rows(trace)
        obs["solves"] = int(rows[-1]["iter"]) if rows else 0
    wave = out / "wave.csv"
    if wave.is_file():
        data = _columns(wave)
        obs["fingerprint"] = fingerprint(np.concatenate([data[:, 1], data[:, 2]]))
    return obs


def _trace_rows(path: Path) -> list[dict]:
    with path.open() as handle:
        return list(csv.DictReader(handle))


def _extrapolations(out: Path) -> dict:
    """Extrapolated rows of every trace CSV, and how many cycled_solve kept:
    it keeps a point only if it does not raise the residual of the plain
    iterate before it."""
    attempted = kept = 0
    for path in out.glob("trace*.csv"):
        rows = _trace_rows(path)
        for prev, row in zip(rows, rows[1:]):
            if row["phase"] == "extrapolated":
                attempted += 1
                kept += float(row["residual"]) <= float(prev["residual"])
    return {"extrapolated": attempted, "extrapolated_kept": kept}


def _observe_verify(out: Path) -> dict:
    summary = _load_json(out / "summary.json")
    return {} if summary is None else {"experiments": summary["experiments"]}


def observe(command: str, exit_code: int | None, out: Path) -> dict:
    """Record of what one invocation left behind (exit_code None: it raised)."""
    manifest = _load_json(out / "manifest.json")
    obs = {"exit": exit_code, "manifest": manifest is not None,
           "bytes_written": sum(p.stat().st_size for p in out.iterdir() if p.is_file())}
    if exit_code is None:
        return obs
    if command == "evolve":
        obs.update(_observe_evolve(out))
    elif command == "solitary":
        obs.update(_observe_solitary(out, manifest), **_extrapolations(out))
    else:
        obs.update(_observe_verify(out), **_extrapolations(out))
    return obs


def _number_mismatches(obs, ref, path: str) -> list[str]:
    """Values of `ref` that `obs` lacks or differs from; extra keys are fine."""
    if isinstance(ref, dict):
        if not isinstance(obs, dict):
            return [path]
        return [m for k in ref for m in
                (_number_mismatches(obs[k], ref[k], f"{path}.{k}") if k in obs else [f"{path}.{k}"])]
    if isinstance(ref, list):
        if not isinstance(obs, list) or len(obs) != len(ref):
            return [path]
        return [m for i, (o, r) in enumerate(zip(obs, ref))
                for m in _number_mismatches(o, r, f"{path}[{i}]")]
    if isinstance(ref, (int, float)) and not isinstance(ref, bool):
        if isinstance(obs, bool) or not isinstance(obs, (int, float)):
            return [path]
        if math.isnan(ref) and math.isnan(obs):
            return []
        return [] if abs(obs - ref) <= NUMBER_ATOL + NUMBER_RTOL * abs(ref) else [path]
    return [] if obs == ref else [path]


@dataclass
class Verdict:
    """`failure` names why the invocation failed (None: it did not).  A wrong
    number or pattern in an output is also `incorrect`; a run that stops
    with a documented non-zero exit or an exception is a failure only."""

    failure: str | None = None
    incorrect: bool = False
    notes: list[str] = field(default_factory=list)


def judge(command: str, obs: dict, ref: dict, snapshots: int) -> Verdict:
    v = Verdict()

    def wrong(reason: str) -> None:
        v.incorrect = True
        v.notes.append(reason)

    if obs["exit"] is None:
        v.failure = "raised out of cli.main"
        return v
    if obs["exit"] != ref["exit"]:
        v.failure = f"exit {obs['exit']}, expected {ref['exit']}"
    elif not obs["manifest"]:
        v.failure = "no manifest.json"
    if v.failure:
        return v

    if command == "evolve":
        if obs.get("snapshots") != snapshots:
            wrong(f"{obs.get('snapshots')} snapshots, expected {snapshots}")
        elif obs["zeta_mean_drift"] > DRIFT_TOL:
            wrong(f"k=0 drift of zeta {obs['zeta_mean_drift']:.3e}")
        elif relative_distance(obs["fingerprint"], ref["fingerprint"]) > WAVE_RTOL:
            wrong("final snapshot differs from the reference")
    elif command == "solitary":
        if obs.get("termination") != "converged" or "fingerprint" not in obs:
            wrong("exit 0 without a converged wave")
        elif not obs["last_residual"] <= ref["tol"]:
            wrong(f"last residual {obs['last_residual']:.3e} above tol")
        elif relative_distance(obs["fingerprint"], ref["fingerprint"]) > ref["wave_rtol"]:
            wrong("wave differs from the reference")
    else:
        pattern = [(e["kind"], e["pass"]) for e in obs.get("experiments", [])]
        if pattern != [(e["kind"], e["pass"]) for e in ref["experiments"]]:
            wrong(f"pass/fail pattern {pattern}")
        else:
            bad = _number_mismatches(obs["experiments"], ref["experiments"], "experiments")
            if bad:
                wrong("summary numbers differ: " + ", ".join(bad[:5]))
    if v.incorrect:
        v.failure = "output check"
    return v
