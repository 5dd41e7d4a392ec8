"""File emission helpers: atomic writes, CSV/JSON formats, the output directory.

An `OutputDir` lists each file once its atomic rename has succeeded, so it
names exactly the complete files a run left behind, also when a large run's
snapshots are written by worker processes.  All floating-point values
are written with the shortest round-trip decimal representation (Python repr),
so reloading a CSV reproduces the exact binary values and identical runs
produce byte-identical files.  A column of `str` is written as given: the
snapshot writer formats its nodes once and `t` once per file.
"""

from __future__ import annotations

import json
import math
import os
from collections import deque
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
    """Text handle on `path`.tmp, renamed to `path` once the block succeeds,
    so readers never observe a partial file.  An OSError names `path`, not
    the temp file, so a failed write reads the same in every run.  The temp
    name is fixed, so writing `path` again replaces what a killed writer left."""
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    tmp = path + ".tmp"
    try:
        with open(tmp, "w") as handle:
            yield handle
        os.replace(tmp, path)
    except BaseException as err:
        if os.path.isfile(tmp):
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


# A run formats its snapshots on forked worker processes when the snapshots
# after the first hold at least this many zeta and u values, (snapshots - 1) *
# 2N.  Starting and stopping a 2-worker pool costs about 15-19 ms and
# formatting a value about 1 us, so the pool breaks even near 20 000 values;
# the margin keeps runs whose gain would be small next to the spread of their
# run time in-process.
POOL_MIN_VALUES = 200_000

# Snapshots in flight per worker: enough to keep each worker busy, few enough
# that the fields held for them stay O(N).
JOBS_PER_WORKER = 2

SNAPSHOT_HEADER = ["t", "x", "zeta", "u"]

_worker_nodes: list[str] = []  # a pool worker's formatted node column


def _set_worker_nodes(nodes: list[str]) -> None:
    _worker_nodes[:] = nodes


def _write_snapshot(path: str, t: str, zeta: np.ndarray, u: np.ndarray) -> None:
    """A pool worker's job: one snapshot CSV, with the nodes of its initializer."""
    write_csv(path, SNAPSHOT_HEADER, [[t] * len(zeta), _worker_nodes, zeta, u])


def fork_workers() -> int:
    """The worker processes a pool forked from this process gets: one per CPU
    this process may run on, or 0 (work in-process) when fork is not available
    or only one CPU is."""
    if not hasattr(os, "sched_getaffinity"):
        return 0
    import multiprocessing

    cpus = len(os.sched_getaffinity(0))
    return cpus if cpus >= 2 and "fork" in multiprocessing.get_all_start_methods() else 0


def fork_pool(workers: int, initializer=None, initargs=()):
    """A `ProcessPoolExecutor` of `workers` processes forked from this one;
    the caller shuts it down.  Imported here, on first use, so a run that
    builds no pool does not import multiprocessing."""
    # fork, not spawn: a spawned worker imports numpy and this package
    # again (about 0.4 s), which would cost more than the pool saves
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    return ProcessPoolExecutor(workers, multiprocessing.get_context("fork"),
                               initializer=initializer, initargs=initargs)


def _pool_workers(n_values: int) -> int:
    """The worker processes to format `n_values` snapshot values on, or 0
    (format in-process) when the values are too few."""
    return fork_workers() if n_values >= POOL_MIN_VALUES else 0


class SnapshotWriter:
    """Writes each state it is given as one t,x,zeta,u CSV into `out`,
    atomically; `close` writes the index naming them all.

    The node column is formatted once, when the writer is built, and `t` once
    per file, so each snapshot formats only its zeta and u values.  When the
    `expected` snapshots hold enough values, worker processes forked from this
    one format and write them, the same bytes, while the caller goes on; each
    file is listed in `out` once its worker has finished, in the order taken.
    A worker's OSError is raised by the next `write` or by `close`; if the
    pool breaks, the snapshots it held are written here instead.

    The caller owns the writer: pass `write` as `evolve`'s sink so no state is
    held, and call `close` also when the run fails, so the files written so
    far keep their index.  A writer that was given no state writes nothing.
    """

    def __init__(self, out: OutputDir, grid: SpectralGrid, params, expected: int = 0):
        self.out, self.grid, self.params = out, grid, params
        self._nodes = _format_column(grid.nodes)
        self.times: list[float] = []
        self.files: list[str] = []  # the snapshots listed, for the index
        self._taken = 0
        self._jobs: deque = deque()  # (name, t, zeta, u, future or None), oldest first
        workers = _pool_workers((expected - 1) * 2 * grid.n_modes)
        self._max_jobs = JOBS_PER_WORKER * workers
        self._pool = fork_pool(workers, _set_worker_nodes, (self._nodes,)) if workers else None

    def write(self, t: float, state: StatePair) -> None:
        zeta, u = state_to_nodal(self.grid, state)
        name = f"snapshot_{self._taken:04d}.csv"
        self._taken += 1
        future = None
        if self._pool is not None:
            from concurrent.futures.process import BrokenProcessPool

            try:
                future = self._pool.submit(_write_snapshot, os.path.join(self.out.path, name),
                                           fmt(t), zeta, u)
            except BrokenProcessPool:
                self._stop_pool()
        self._jobs.append((name, t, zeta, u, future))
        self._finish(self._max_jobs if self._pool is not None else 0)

    def _finish(self, keep: int) -> None:
        """List the snapshots that are done, oldest first, and wait for (or
        write) the oldest until at most `keep` are left."""
        # a job has no future only after the pool has stopped, when keep is 0
        while self._jobs and (len(self._jobs) > keep or self._jobs[0][4].done()):
            name, t, zeta, u, future = self._jobs.popleft()
            if future is None or not self._listed(name, future):
                self.out.write(name, write_csv, SNAPSHOT_HEADER,
                               [[fmt(t)] * self.grid.n_modes, self._nodes, zeta, u])
            self.times.append(t)
            self.files.append(name)

    def _listed(self, name: str, future) -> bool:
        """List `name` once its worker has written it; False if the pool broke."""
        from concurrent.futures.process import BrokenProcessPool

        try:
            self.out.write(name, lambda _path: future.result())
        except BrokenProcessPool:
            self._stop_pool()
            return False
        return True

    def _stop_pool(self) -> None:
        if self._pool is not None:
            self._pool.shutdown()
            self._pool = None

    def close(self) -> None:
        """Wait for the snapshots in flight, stop the pool and write the index of
        the snapshots listed; then raise the first write error met meanwhile."""
        error = None
        try:
            while self._jobs:
                try:
                    self._finish(0)
                except OSError as err:
                    error = error or err
        finally:
            self._stop_pool()
        if self.files:
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
        if error is not None:
            raise error


def write_snapshots(out_dir: str, grid: SpectralGrid, params, record) -> list[str]:
    """One t,x,zeta,u CSV per snapshot of `record` plus their index; returns the
    names written.  For perfbench's ladder and the tests: `evolve` holds no record."""
    out = OutputDir(out_dir)
    writer = SnapshotWriter(out, grid, params)
    for t, state in zip(record.times, record.states):
        writer.write(t, state)
    writer.close()
    return out.files
