"""File emission helpers: atomic writes, CSV/JSON formats, the output directory.

An `OutputDir` lists each file once its atomic rename has succeeded, so it
names exactly the complete files a run left behind.  All floating-point values
are written with the shortest round-trip decimal representation (Python repr),
so reloading a CSV reproduces the exact binary values and identical runs
produce byte-identical files.  A column of `str` is written as given: the
snapshot writer formats its nodes once and `t` once per file.
"""

from __future__ import annotations

import json
import math
import os
import tempfile
from contextlib import contextmanager
from typing import Sequence

import numpy as np

from .solitary import IterationTrace
from .spectral import SpectralGrid, StatePair, state_to_nodal

# Rows formatted per write: enough to amortise the calls, few enough that the
# strings of one block stay small next to the arrays being written.
CSV_BLOCK_ROWS = 2048


def fmt(value) -> str:
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


@contextmanager
def _atomic_open(path: str):
    """Text handle on a temp file renamed to `path` once the block succeeds,
    so readers never observe a partial file.  An OSError names `path`, not
    the temp file, so a failed write reads the same in every run."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    tmp = None
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
        with os.fdopen(fd, "w") as handle:
            yield handle
        os.replace(tmp, path)
    except BaseException as err:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)
        if isinstance(err, OSError):
            raise type(err)(err.errno, err.strerror, path) from err
        raise


def _format_column(values) -> list[str]:
    """`fmt` of each value; float arrays go through repr of Python floats, and
    values that are all `str` are returned as given."""
    if isinstance(values, np.ndarray) and values.dtype.kind == "f":
        return list(map(repr, values.tolist()))
    if set(map(type, values)) == {str}:
        return list(values)
    return list(map(fmt, values))


def write_csv(path: str, header: Sequence[str], columns: Sequence[Sequence]) -> None:
    """One CSV line per row of the equal-length `columns` (arrays or lists),
    formatted and written CSV_BLOCK_ROWS rows at a time."""
    n_rows = len(columns[0]) if columns else 0
    if any(len(col) != n_rows for col in columns):
        raise ValueError("CSV columns differ in length")
    with _atomic_open(path) as handle:
        handle.write(",".join(header) + "\n")
        for start in range(0, n_rows, CSV_BLOCK_ROWS):
            block = [_format_column(col[start:start + CSV_BLOCK_ROWS]) for col in columns]
            handle.write("\n".join(map(",".join, zip(*block))) + "\n")


def _finite(obj):
    """`obj` with each nan or infinity made None, which JSON writes as null."""
    if isinstance(obj, dict):
        return {key: _finite(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return list(map(_finite, obj))
    return None if isinstance(obj, float) and not math.isfinite(obj) else obj


def write_json(path: str, obj) -> None:
    with _atomic_open(path) as handle:
        handle.write(json.dumps(_finite(obj), indent=2, sort_keys=True, allow_nan=False) + "\n")


# ----------------------------------------------------------------------------
# Solver outputs
# ----------------------------------------------------------------------------

def write_wave_csv(path: str, grid: SpectralGrid, state: StatePair) -> None:
    zeta, u = state_to_nodal(grid, state)
    write_csv(path, ["x", "zeta", "u"], [grid.nodes, zeta, u])


def read_profile_csv(path: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read an x, zeta, u CSV produced by `write_wave_csv` (or compatible)."""
    with open(path) as handle:
        if not any(line.strip() for line in handle):
            raise ValueError("profile CSV has no header line")
    data = np.genfromtxt(path, delimiter=",", names=True)
    for col in ("x", "zeta", "u"):
        if col not in (data.dtype.names or ()):
            raise ValueError(f"profile CSV missing column {col!r}")
    return (
        np.atleast_1d(data["x"]),
        np.atleast_1d(data["zeta"]),
        np.atleast_1d(data["u"]),
    )


def write_trace_csv(path: str, trace: IterationTrace) -> None:
    write_csv(
        path,
        ["iter", "residual", "m_factor", "phase"],
        [trace.inner_steps, trace.residuals, trace.m_factors, trace.phases],
    )


class OutputDir:
    """A run's output directory and the files written into it, in write order."""

    def __init__(self, path: str):
        self.path = path
        self.files: list[str] = []

    def write(self, name: str, writer, *args) -> None:
        """`writer(path/name, *args)`; `name` is listed once the writer has returned."""
        writer(os.path.join(self.path, name), *args)
        self.files.append(name)


class SnapshotWriter:
    """Writes each state it is given as one t,x,zeta,u CSV into `out`, at once
    and atomically; `close` writes the index naming them all.

    The node column is formatted once, when the writer is built, and `t` once
    per file, so each snapshot formats only its zeta and u values.

    The caller owns the writer: pass `write` as `evolve`'s sink so no state is
    held, and call `close` also when the run fails, so the files written so
    far keep their index.  A writer that was given no state writes nothing.
    """

    def __init__(self, out: OutputDir, grid: SpectralGrid, params):
        self.out, self.grid, self.params = out, grid, params
        self._nodes = _format_column(grid.nodes)
        self.times: list[float] = []
        self.files: list[str] = []  # the snapshots, for the index

    def write(self, t: float, state: StatePair) -> None:
        zeta, u = state_to_nodal(self.grid, state)
        name = f"snapshot_{len(self.files):04d}.csv"
        self.out.write(name, write_csv, ["t", "x", "zeta", "u"],
                       [[fmt(t)] * self.grid.n_modes, self._nodes, zeta, u])
        self.times.append(t)
        self.files.append(name)

    def close(self) -> None:
        """Write the index of the snapshots written so far."""
        if not self.files:
            return
        self.out.write("snapshots_manifest.json", write_json, {
            "files": self.files,
            "times": [float(t) for t in self.times],
            "grid": {"half_length": self.grid.half_length, "n_modes": self.grid.n_modes},
            "params": {
                "gamma": self.params.gamma,
                "alpha": self.params.alpha,
                "regime": self.params.regime,
            },
        })


def write_snapshots(out_dir: str, grid: SpectralGrid, params, record) -> list[str]:
    """One t,x,zeta,u CSV per snapshot of `record` plus their index; returns the
    names written.  For perfbench's ladder and the tests: `evolve` holds no record."""
    out = OutputDir(out_dir)
    writer = SnapshotWriter(out, grid, params)
    for t, state in zip(record.times, record.states):
        writer.write(t, state)
    writer.close()
    return out.files
