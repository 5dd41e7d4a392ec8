"""Command-line entry point: evolve, solitary-wave generation, verification.

Usage:
    ilwbo evolve   --config cfg.json [--out DIR] [--quiet]
    ilwbo solitary --config cfg.json [--out DIR] [--quiet]
    ilwbo verify   --config cfg.json [--out DIR] [--quiet]

Configs are JSON (exact schemas in the README).  Each config is resolved once
against the key tables below, which hold every key's type and default; the
solver keys take theirs from `SolitaryConfig` and `EvolutionConfig`.  Every
run writes a manifest.json with the command name, the resolved configuration
(which can be fed back as a config file to reproduce the run), the list of
emitted files, the exit status and the wall time.

Exit codes:
  0  success (verify: all experiments passed)
  2  configuration error (naming the offending key), a grid too large to
     allocate, or an output file that cannot be written (naming it)
  3  numerical failure during evolve (failing time in the manifest)
  4  solitary iteration did not converge: cap reached, stalled, diverged or
     denominator collapsed (trace.csv written in each case)
  5  singular per-mode matrix (offending wavenumber reported)
  6  verify: at least one experiment failed (its threshold, its solve or its fit)
"""

from __future__ import annotations

import argparse
import contextlib
import copy
import dataclasses
import json
import math
import os
import sys
import time

import numpy as np

from . import __version__
from .accel import cycled_solve
from .errors import IlwboError, NonConvergenceError, SingularModeError, StepFailureError
from .evolution import EvolutionConfig, evolve
from .harness import (
    ALGEBRAIC,
    EXPONENTIAL,
    DecayFit,
    acceleration_benchmark,
    convergence_study,
    decay_fit,
    gaussian_state,
    sech2_state,
    traveling_wave_roundtrip,
)
from .io_utils import (
    OutputDir,
    OutputError,
    SnapshotWriter,
    keep_heap,
    read_profile_csv,
    write_csv,
    write_json,
    write_trace_csv,
    write_wave_csv,
)
from .solitary import SolitaryConfig
from .spectral import (
    BO,
    ILW,
    ModelParams,
    SpectralGrid,
    state_from_nodal,
    state_to_nodal,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_NOT_CONVERGED = 4
EXIT_SINGULAR = 5
EXIT_VERIFY_FAILED = 6


class ConfigError(Exception):
    """Invalid or missing configuration; the message names the key."""


# ----------------------------------------------------------------------------
# Key tables: key -> (kind, default)
#
# A kind is float, int or str; a tuple of the allowed strings; a one-element
# list [kind] for a list of that kind; or a dict {tag: table} for an object
# whose "kind" key picks the table its other keys follow.  A callable default
# is computed from the keys resolved before it.
# ----------------------------------------------------------------------------

_REQUIRED = object()

_MODEL_KEYS = {
    "regime": ((ILW, BO), _REQUIRED),
    "gamma": (float, _REQUIRED),
    "alpha": (float, _REQUIRED),
}

_GRID_KEYS = {"l": (float, _REQUIRED), "N": (int, _REQUIRED)}


def _library_keys(config_class, *names: str) -> dict:
    """Table entries for fields of a library dataclass, with its defaults."""
    fields = {f.name: f.default for f in dataclasses.fields(config_class)}
    return {name: (type(fields[name]), fields[name]) for name in names}


def _library_config(config_class, cfg: dict, **given):
    """`config_class` from `given` and the keys of `cfg` that name its fields;
    a field that `cfg` lacks keeps its default."""
    names = {f.name for f in dataclasses.fields(config_class)}
    return config_class(**{k: v for k, v in cfg.items() if k in names}, **given)


_WAVE_KEYS = {
    **_MODEL_KEYS,
    **_GRID_KEYS,
    "c": (float, _REQUIRED),
    **_library_keys(SolitaryConfig, "tol", "max_iter", "mw", "seed_amplitude", "seed_width"),
}


def _default_record_every(cfg: dict) -> int:
    """About ten snapshots per run (EvolutionConfig rejects a t_end/dt above 2**53)."""
    n_steps = cfg["t_end"] / cfg["dt"] if cfg["dt"] > 0 else 1.0
    return max(1, int(round(n_steps)) // 10) if math.isfinite(n_steps) else 1


_PROFILES = {"gaussian": gaussian_state, "sech2": sech2_state}

_INITIAL_KEYS = {
    **dict.fromkeys(_PROFILES, {"amplitude": (float, _REQUIRED), "width": (float, _REQUIRED)}),
    "from-file": {"path": (str, _REQUIRED)},
}

_EVOLVE_KEYS = {
    **_MODEL_KEYS,
    **_GRID_KEYS,
    "t_end": (float, _REQUIRED),
    "dt": (float, _REQUIRED),
    "record_every": (int, _default_record_every),
    **_library_keys(EvolutionConfig, "cfl_guard"),
    "initial": (_INITIAL_KEYS, _REQUIRED),
}

_EXPERIMENT_KEYS = {
    "convergence": {
        **_MODEL_KEYS,
        "l": (float, 16.0),
        "resolutions": ([int], [32, 64, 128]),
        "t_end": (float, 1.0),
        "dt": (float, 0.002),
        "amplitude": (float, 0.1),
        "width": (float, 1.2),
        "min_ratio": (float, 16.0),
    },
    "roundtrip": {
        **_WAVE_KEYS,
        "t_end": (float, 1.0),
        "dt": (float, 1e-3),
        "threshold": (float, 1e-6),
    },
    "decay": {
        **_WAVE_KEYS,
        "model": (("compare", EXPONENTIAL, ALGEBRAIC), "compare"),
        "min_quality": (float, 0.99),
        "rate_target": (float, 2.0),
        "rate_tol": (float, 0.3),
    },
    # no "mw": each width of mw_list sets its own
    "accel": {k: v for k, v in _WAVE_KEYS.items() if k != "mw"}
             | {"mw_list": ([int], [1, 2, 3, 4])},
}


def _resolve(table: dict, cfg, where: str = "") -> dict:
    """`cfg` with every key of `table` type-checked or defaulted, in table
    order; keys the table does not list are dropped."""
    if not isinstance(cfg, dict):
        raise ConfigError(f"config key '{where[:-1]}' must be an object" if where
                          else "config must be a JSON object")
    out = {}
    for key, (kind, default) in table.items():
        if key in cfg:
            out[key] = _value(kind, cfg[key], where + key)
        elif default is _REQUIRED:
            raise ConfigError(f"missing required config key '{where + key}'")
        else:
            out[key] = default(out) if callable(default) else copy.copy(default)
    return out


def _value(kind, value, name: str):
    if isinstance(kind, dict):
        head = _resolve({"kind": (tuple(kind), _REQUIRED)}, value, name + ".")
        return head | _resolve(kind[head["kind"]], value, name + ".")
    if isinstance(kind, list):
        if not isinstance(value, list) or not value:
            raise ConfigError(f"config key '{name}' must be a non-empty list")
        items = [_value(kind[0], v, f"{name}[{i}]") for i, v in enumerate(value)]
        if kind[0] is int and len(set(items)) < len(items):
            raise ConfigError(f"config key '{name}' must not repeat a value, got {value}")
        return items
    if isinstance(kind, tuple):
        if isinstance(value, str) and value.lower() in kind:
            return value.lower()
        raise ConfigError(f"config key '{name}' must be one of {list(kind)}, got {value!r}")
    if isinstance(value, bool) or not isinstance(value, (int, float) if kind is float else kind):
        raise ConfigError(f"config key '{name}' must be of type {kind.__name__}")
    if kind is float:
        value = float(value)
        if not math.isfinite(value):
            raise ConfigError(f"config key '{name}' must be a finite number, got {value}")
    return value


def _model(cfg: dict) -> ModelParams:
    return ModelParams(gamma=cfg["gamma"], alpha=cfg["alpha"], regime=cfg["regime"])


def _grid(cfg: dict) -> SpectralGrid:
    return SpectralGrid(half_length=cfg["l"], n_modes=cfg["N"])


def _wave_problem(cfg: dict) -> tuple[ModelParams, SpectralGrid, SolitaryConfig]:
    return _model(cfg), _grid(cfg), _library_config(SolitaryConfig, cfg, speed=cfg["c"])


def _initial_state(spec: dict, grid: SpectralGrid):
    if spec["kind"] in _PROFILES:
        return _PROFILES[spec["kind"]](spec["amplitude"], spec["width"])(grid)
    try:
        x, zeta, u = read_profile_csv(spec["path"])
    except (OSError, ValueError) as err:
        raise ConfigError(f"config key 'initial.path': {err}") from err
    if len(x) != grid.n_modes:
        raise ConfigError(
            f"config key 'initial.path': file has {len(x)} rows, grid expects "
            f"{grid.n_modes}"
        )
    if not np.allclose(x, grid.nodes, rtol=0.0, atol=1e-9 * grid.half_length):
        raise ConfigError("config key 'initial.path': x column does not match the grid nodes")
    if not (np.isfinite(zeta).all() and np.isfinite(u).all()):
        raise ConfigError("config key 'initial.path': zeta or u holds a non-finite or "
                          "unparsable value")
    return state_from_nodal(grid, zeta, u)


@contextlib.contextmanager
def _allocating(key: str):
    """A MemoryError, a grid too large to allocate, as a config error naming `key`."""
    try:
        yield
    except MemoryError as err:
        raise ConfigError(f"config key '{key}' asks for a grid too large to allocate ({err})") from err


def _solve_summary(trace) -> dict:
    summary = {
        "termination": trace.termination,
        "iterations": trace.iterations_used,
        "last_residual": trace.residuals[-1],
        "extrapolations": dict(trace.extrapolations),
    }
    if trace.stall is not None:
        summary["stall"] = dict(trace.stall, leading_ritz_modulus=trace.leading_ritz_modulus())
    return summary


# ----------------------------------------------------------------------------
# evolve and solitary
# ----------------------------------------------------------------------------

def cmd_evolve(cfg: dict, out: OutputDir, quiet: bool) -> tuple[int, dict]:
    params, grid = _model(cfg), _grid(cfg)
    config = _library_config(EvolutionConfig, cfg)
    initial = _initial_state(cfg["initial"], grid)
    writer = SnapshotWriter(out, grid, params, config.snapshots)
    try:
        evolve(params, grid, initial, config, sink=writer.write)
    except BaseException:
        # a failed run keeps the snapshots it took, with their index when
        # that can be written; the run's own error is the one reported
        with contextlib.suppress(OSError):
            writer.close()
        raise
    writer.close()
    if not quiet:
        print(f"evolve: wrote {len(out.files)} files to {out.path}")
    return EXIT_OK, {"snapshots": len(writer.times)}


def cmd_solitary(cfg: dict, out: OutputDir, quiet: bool) -> tuple[int, dict]:
    params, grid, config = _wave_problem(cfg)
    wave, trace = cycled_solve(params, grid, config)
    out.write("wave.csv", write_wave_csv, grid, wave)
    out.write("trace.csv", write_trace_csv, trace)
    if not quiet:
        print(
            f"solitary: converged in {trace.iterations_used} iterations "
            f"(residual {trace.residuals[-1]:.3e})"
        )
    return EXIT_OK, _solve_summary(trace)


# ----------------------------------------------------------------------------
# verify
# ----------------------------------------------------------------------------

def _verify_convergence(block: dict, out: OutputDir, tag: str) -> tuple[bool, dict]:
    report = convergence_study(
        _model(block),
        gaussian_state(block["amplitude"], block["width"]),
        block["resolutions"],
        t_end=block["t_end"],
        dt=block["dt"],
        half_length=block["l"],
    )
    ok = report.is_spectral(block["min_ratio"])
    out.write(f"convergence_report{tag}.csv", write_csv, ["N", "error", "rate"],
              [report.resolutions, np.array(report.errors, dtype=float),
               np.array([math.nan] + report.observed_rates, dtype=float)])
    detail = {
        "resolutions": report.resolutions,
        "errors": report.errors,
        "rates": report.observed_rates,
        "probe_delta": report.probe_delta,
        "min_ratio": block["min_ratio"],
        "spectral": ok,
    }
    return ok, detail


def _verify_roundtrip(block: dict, out: OutputDir, tag: str) -> tuple[bool, dict]:
    params, grid, config = _wave_problem(block)
    wave, _ = cycled_solve(params, grid, config)
    deviation = traveling_wave_roundtrip(
        params, grid, wave, config.speed, block["t_end"], block["dt"]
    )
    ok = deviation <= block["threshold"]
    detail = {
        "deviation": deviation,
        "threshold": block["threshold"],
        "t_end": block["t_end"],
        "dt": block["dt"],
        "wave": {key: block[key] for key in _WAVE_KEYS},
    }
    out.write(f"roundtrip{tag}.json", write_json, detail | {"pass": ok})
    return ok, detail


def _fit_record(fit: DecayFit) -> dict:
    return {"model": fit.model, "rate": fit.fitted_rate, "quality": fit.fit_quality,
            "window": list(fit.window), "n_points": fit.n_points}


def _verify_decay(block: dict, out: OutputDir, tag: str) -> tuple[bool, dict]:
    params, grid, config = _wave_problem(block)
    wave, _ = cycled_solve(params, grid, config)
    zeta, _ = state_to_nodal(grid, wave)
    model = block["model"]
    fit = decay_fit(grid, zeta, ALGEBRAIC if model == ALGEBRAIC else EXPONENTIAL)
    record = _fit_record(fit)
    detail = {"model": model, "rate": fit.fitted_rate, "quality": fit.fit_quality}
    if model == ALGEBRAIC:
        ok = abs(fit.fitted_rate - block["rate_target"]) <= block["rate_tol"]
        rule = {"rate_target": block["rate_target"], "rate_tol": block["rate_tol"]}
    else:
        ok = fit.fit_quality >= block["min_quality"]
        rule = {"min_quality": block["min_quality"]}
    if model == "compare":  # the exponential rule, and a closer fit than the algebraic one
        alg = decay_fit(grid, zeta, ALGEBRAIC)
        ok = ok and fit.fit_quality > alg.fit_quality
        record["algebraic_quality"] = alg.fit_quality
        detail = {"model": model} | {f.model: {"rate": f.fitted_rate, "quality": f.fit_quality}
                                     for f in (fit, alg)}
    out.write(f"decay_fit{tag}.json", write_json, record | {"pass": ok})
    return ok, detail | rule


def _accel_ordering_ok(counts: dict[int, int]) -> bool:
    """Iteration counts non-increasing in mw, strictly at 1 -> 2, and with the
    largest absolute drop at 1 -> 2 when both widths are present."""
    widths = sorted(counts)
    pairs = list(zip(widths[:-1], widths[1:]))
    for a, b in pairs:
        if counts[b] > counts[a]:
            return False
        if a == 1 and not counts[b] < counts[a]:
            return False  # ties are only allowed among mw >= 2
    if 1 in counts and 2 in counts:
        first_drop = counts[1] - counts[2]
        for a, b in pairs:
            if counts[a] - counts[b] > first_drop:
                return False
    return True


def _verify_accel(block: dict, out: OutputDir, tag: str) -> tuple[bool, dict]:
    params, grid, config = _wave_problem(block)
    rows = acceleration_benchmark(params, grid, config, block["mw_list"])
    out.write(f"acceleration_table{tag}.csv", write_csv, ("mw", "iterations", "seconds", "status"),
              [[r.mw for r in rows], [r.iterations for r in rows],
               np.array([r.seconds for r in rows], dtype=float), [r.status for r in rows]])
    for row in rows:
        if row.trace is not None:
            out.write(f"trace_mw{row.mw}{tag}.csv", write_trace_csv, row.trace)
    converged = {r.mw: r.iterations for r in rows if r.status == "converged"}
    ok = len(converged) == len(rows) and _accel_ordering_ok(converged)
    detail = {
        "iterations": {str(r.mw): r.iterations for r in rows},
        "status": {str(r.mw): r.status for r in rows},
    }
    return ok, detail


_EXPERIMENTS = {
    "convergence": _verify_convergence,
    "roundtrip": _verify_roundtrip,
    "decay": _verify_decay,
    "accel": _verify_accel,
}


def _write_summary(out: OutputDir, results: list) -> bool:
    all_pass = all(r["pass"] for r in results)
    out.write("summary.json", write_json, {"experiments": results, "all_pass": all_pass})
    return all_pass


def cmd_verify(cfg: dict, out: OutputDir, quiet: bool) -> tuple[int, dict]:
    results = []
    try:
        for i, block in enumerate(cfg["experiments"]):
            kind = block["kind"]
            # each block run before this one has its entry in `results`
            n = 1 + sum(r["kind"] == kind for r in results)
            tag = "" if n == 1 else f"_{n}"
            grid_key = "resolutions" if kind == "convergence" else "N"
            try:
                with _allocating(f"experiments[{i}].{grid_key}"):
                    ok, detail = _EXPERIMENTS[kind](block, out, tag)
            except IlwboError as err:
                # solver-level failures fail the experiment, not the command
                ok, detail = False, {"error": str(err)}
            except (ConfigError, OSError, ValueError) as err:
                # a value the library rejects, a report that cannot be
                # written or a grid too large to allocate ends the command (exit 2)
                results.append({"kind": kind, "pass": False, "detail": {"error": str(err)}})
                raise
            results.append({"kind": kind, "pass": ok, "detail": detail})
            if not quiet:
                print(f"verify[{kind}]: {'PASS' if ok else 'FAIL'}")
    except BaseException:
        # the verdicts of the blocks that ran are kept, and the error that
        # ended the run stays the one reported if that write fails too
        with contextlib.suppress(OSError):
            _write_summary(out, results)
        raise
    all_pass = _write_summary(out, results)
    return (EXIT_OK if all_pass else EXIT_VERIFY_FAILED), {"all_pass": all_pass}


# ----------------------------------------------------------------------------
# entry point
# ----------------------------------------------------------------------------

# command -> (handler, key table, help)
_COMMANDS = {
    "evolve": (cmd_evolve, _EVOLVE_KEYS, "time-step the periodic initial-value problem"),
    "solitary": (cmd_solitary, _WAVE_KEYS,
                 "generate a solitary wave by accelerated fixed-point iteration"),
    "verify": (cmd_verify, {"experiments": ([_EXPERIMENT_KEYS], _REQUIRED)},
               "run verification experiments against their thresholds"),
}


def _parser() -> argparse.ArgumentParser:
    epilog = "exit codes:" + (__doc__ or "").partition("Exit codes:")[2]
    parser = argparse.ArgumentParser(
        prog="ilwbo",
        description="Spectral solver suite for the two-layer ILW / B-O internal-wave systems.",
        epilog=epilog,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, _, help_text) in _COMMANDS.items():
        p = sub.add_parser(
            name,
            help=help_text,
            epilog=epilog,
            formatter_class=argparse.RawDescriptionHelpFormatter,
        )
        p.add_argument("--config", required=True, help="path to the JSON config file")
        p.add_argument("--out", default="./out", help="output directory (default ./out)")
        p.add_argument("--quiet", action="store_true", help="suppress progress output")
    return parser


def main(argv=None) -> int:
    """Run one command; the only place where outcomes become exit codes.

    Every outcome, a configuration error included, leaves a manifest.json
    listing each file the run wrote: every output goes through one
    `OutputDir`, which lists a file once it is complete.  The process keeps
    its heap from here on, as the pool workers do (`io_utils.keep_heap`).
    """
    keep_heap()
    args = _parser().parse_args(argv)
    started = time.perf_counter()
    out = OutputDir(args.out)
    handler, keys, _ = _COMMANDS[args.command]

    config, extra, error = None, {}, None
    try:
        with open(args.config) as handle:
            config = json.load(handle)
        config = _resolve(keys, config)
        with _allocating("N"):  # verify names each block's key itself
            code, extra = handler(config, out, args.quiet)
    except (ConfigError, OSError, ValueError) as err:
        # ValueError: a value the library rejects, such as a dt beyond the
        # step-size guard or resolutions spanning less than 4x
        kind = "output" if isinstance(err, OutputError) else "config"
        code, error = EXIT_CONFIG, f"{kind} error: {err}"
        extra = {"error": error}
    except StepFailureError as err:
        code, error = EXIT_NUMERICAL, f"{args.command}: {err}"
        extra = {"failing_time": err.time, "error": str(err)}
    except NonConvergenceError as err:
        code, error = EXIT_NOT_CONVERGED, f"{args.command}: {err}"
        extra = _solve_summary(err.trace)
        with contextlib.suppress(OSError):  # an unwritable --out is reported below
            out.write("trace.csv", write_trace_csv, err.trace)
    except SingularModeError as err:
        code, error = EXIT_SINGULAR, f"{args.command}: {err}"
        extra = {"termination": "singular-mode", "ktilde": err.ktilde, "det": err.det}
    if error and (code == EXIT_CONFIG or not args.quiet):
        print(error, file=sys.stderr)

    manifest = {
        "command": args.command,
        "version": __version__,
        "config": config,
        "outputs": out.files,
        "exit_status": code,
        "wall_time_seconds": time.perf_counter() - started,
    }
    manifest.update(extra)
    try:
        write_json(os.path.join(args.out, "manifest.json"), manifest)
    except OSError as err:
        # say so in one line, and keep the run's own failure if it had one
        print(f"cannot write the manifest: {err}", file=sys.stderr)
        return code or EXIT_CONFIG
    return code


if __name__ == "__main__":
    sys.exit(main())
