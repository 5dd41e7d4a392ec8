"""File emission helpers: atomic writes, CSV/JSON formats, the output directory.

An `OutputDir` lists each file once its atomic rename has succeeded, so it
names exactly the complete files a run left behind, also when a large run's
snapshots are written by worker processes.  A file that cannot be written
raises an `OutputError`.  Every floating-point number in a CSV is written as
the bytes of its Python repr, the shortest round-trip decimal, so reloading a
CSV reproduces the exact binary values and identical runs produce
byte-identical files.  The numpy kernel of `_shortest` makes those bytes for
a whole float array at once; `tests/test_io_utils.py::TestReprBytes` pins
them against repr.  A pool job carries all its inputs, so a worker and this
process run the same call.
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
# byte matrices of one block stay small next to the arrays being written.
CSV_BLOCK_ROWS = 2048


def fmt(value) -> str:
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


class OutputError(OSError):
    """An output file could not be written; it names that file."""


@contextmanager
def _atomic_open(path: str):
    """Binary handle on `path`.tmp, renamed to `path` once the block succeeds,
    so readers never observe a partial file.  An OSError is raised as an
    OutputError naming `path`, not the temp file, so a failed write reads the
    same in every run.  The temp name is fixed, so writing `path` again
    replaces what a killed writer left."""
    tmp = path + ".tmp"
    try:
        os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
        with open(tmp, "wb") as handle:
            yield handle
        os.replace(tmp, path)
    except BaseException as err:
        if os.path.isfile(tmp):
            os.unlink(tmp)
        if isinstance(err, OSError):
            raise OutputError(err.errno, err.strerror, path) from err
        raise


def _repr_bytes(values: np.ndarray) -> np.ndarray:
    """repr's bytes for each value of a float array, one NUL-padded uint8
    row per value.  The kernel is imported on the first call, so that
    importing the package does not build its tables."""
    from ._shortest import repr_bytes

    return repr_bytes(values)


def _column_bytes(values) -> np.ndarray:
    """The `fmt` bytes of each value as a row of a uint8 matrix, NUL-padded:
    a float array through _repr_bytes, a 2-d uint8 array as the rows it
    already is, any other column value by value."""
    if isinstance(values, np.ndarray) and values.dtype.kind == "f":
        return _repr_bytes(values)
    if isinstance(values, np.ndarray) and values.ndim == 2:
        return values
    text = np.array([fmt(value).encode() for value in values], dtype="S")
    return text.view(np.uint8).reshape(len(text), -1)


def write_csv(path: str, header: Sequence[str], columns: Sequence[Sequence]) -> None:
    """One CSV line per row of the equal-length `columns` (arrays, lists, or
    2-d uint8 arrays of rows formatted already), written CSV_BLOCK_ROWS rows
    at a time: each block is one byte matrix, written without its NUL pads."""
    n_rows = len(columns[0]) if columns else 0
    if any(len(col) != n_rows for col in columns):
        raise ValueError("CSV columns differ in length")
    with _atomic_open(path) as handle:
        handle.write((",".join(header) + "\n").encode())
        for start in range(0, n_rows, CSV_BLOCK_ROWS):
            fields = [_column_bytes(col[start:start + CSV_BLOCK_ROWS]) for col in columns]
            buffer = bytearray(len(fields[0]) * sum(f.shape[1] + 1 for f in fields))
            block = np.frombuffer(buffer, np.uint8).reshape(len(fields[0]), -1)
            end = 0
            for field in fields:
                block[:, end:end + field.shape[1]] = field
                end += field.shape[1] + 1
                block[:, end - 1] = ord(",")
            block[:, -1] = ord("\n")
            handle.write(buffer.translate(None, b"\0"))


def _finite(obj):
    """`obj` with each nan or infinity made None, which JSON writes as null."""
    if isinstance(obj, dict):
        return {key: _finite(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return list(map(_finite, obj))
    return None if isinstance(obj, float) and not math.isfinite(obj) else obj


def write_json(path: str, obj) -> None:
    with _atomic_open(path) as handle:
        handle.write((json.dumps(_finite(obj), indent=2, sort_keys=True, allow_nan=False)
                      + "\n").encode())


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
# 2N.  In-process a snapshot costs about 0.4 us per zeta and u value to
# format and write, and starting and stopping a 2-worker pool about 6 ms, so
# the pool breaks even near 100 000 values: N = 4096 runs on 2 cores took 42
# ms in-process and 41 ms pooled at 98 304 values, 79 and 68 ms at 196 608.
# The margin keeps runs whose gain would be small next to the spread of their
# run time in-process.
POOL_MIN_VALUES = 200_000

# Snapshots in flight per worker: enough to keep each worker busy, few enough
# that the fields held for them stay O(N).
JOBS_PER_WORKER = 2

SNAPSHOT_HEADER = ("t", "x", "zeta", "u")


def _write_snapshot(path: str, t: str, nodes: np.ndarray, zeta: np.ndarray, u: np.ndarray) -> None:
    """A snapshot job: one CSV, with `t` formatted and the nodes as the byte
    matrix `SnapshotWriter` formats once."""
    t_bytes = np.frombuffer(t.encode(), np.uint8)
    write_csv(path, SNAPSHOT_HEADER,
              [np.broadcast_to(t_bytes, (len(zeta), len(t_bytes))), nodes, zeta, u])


def _node_bytes(nodes: np.ndarray) -> np.ndarray:
    """A job: the node column as a byte matrix without the columns no node
    uses, formatted CSV_BLOCK_ROWS nodes at a time as write_csv's blocks are."""
    rows = np.concatenate([_repr_bytes(nodes[i:i + CSV_BLOCK_ROWS])
                           for i in range(0, len(nodes), CSV_BLOCK_ROWS)])
    return rows[:, rows.any(axis=0)]


def fork_workers() -> int:
    """The worker processes a pool forked from this process gets: one per CPU
    this process may run on, or 0 (work in-process) when fork is not available
    or only one CPU is."""
    if not hasattr(os, "sched_getaffinity"):
        return 0
    import multiprocessing

    cpus = len(os.sched_getaffinity(0))
    return cpus if cpus >= 2 and "fork" in multiprocessing.get_all_start_methods() else 0


class ForkJobs:
    """Jobs run on `workers` processes forked from this one, or in-process
    when fewer than 2 workers are asked for or a worker died and broke the
    pool; the one place that decides which.  A broken pool is shut down
    without cancelling, so a future still held reads as broken, not as
    cancelled.  The pool machinery is imported only when a pool is built.
    A job is a module-level function of its arguments alone: a worker
    unpickles it by name, and `result` runs it here when no worker did.
    """

    def __init__(self, workers: int):
        self.workers = workers if workers >= 2 else 0
        self._pool = None
        if self.workers:
            # fork, not spawn: a spawned worker imports numpy and this package
            # again (about 0.4 s), which would cost more than the pool saves
            import multiprocessing
            from concurrent.futures import ProcessPoolExecutor

            self._pool = ProcessPoolExecutor(self.workers, multiprocessing.get_context("fork"))

    def submit(self, fn, *args):
        """A future of `fn(*args)` on a worker, or None when no pool runs it."""
        if self._pool is None:
            return None
        from concurrent.futures.process import BrokenProcessPool

        try:
            return self._pool.submit(fn, *args)
        except BrokenProcessPool:
            self.close(cancel=False)
            return None

    def result(self, future, fn, *args):
        """The worker's value of `future`, or `fn(*args)`, the job it was
        submitted as, when no worker ran it or its pool broke; a job's own
        error is raised as it is."""
        if future is not None:
            from concurrent.futures.process import BrokenProcessPool

            try:
                return future.result()
            except BrokenProcessPool:
                self.close(cancel=False)
        return fn(*args)

    def close(self, cancel: bool = True) -> None:
        """Stop the pool once its running jobs are done; the jobs not started
        are cancelled, unless `cancel` is False."""
        if self._pool is not None:
            self._pool.shutdown(cancel_futures=cancel)
            self._pool = None


class SnapshotWriter:
    """Writes each state it is given as one t,x,zeta,u CSV into `out`,
    atomically; `close` writes the index naming them all.

    The node column is formatted once, by a `_node_bytes` job when the writer
    is built, and `t` once per file, so each snapshot's `_write_snapshot` job
    formats only its zeta and u values.  When the `expected` snapshots hold
    enough values, worker processes forked from this one run the jobs while
    the caller goes on, and this process never loads the float kernel;
    otherwise, and for the jobs a broken pool held, the same jobs run here.
    Each file is listed in `out` once its job is done, in the order taken.
    A worker's OSError is raised by the next `write` or by `close`.

    The caller owns the writer: pass `write` as `evolve`'s sink so no state is
    held, and call `close` also when the run fails, so the files written so
    far keep their index.  A writer that was given no state writes nothing.
    """

    def __init__(self, out: OutputDir, grid: SpectralGrid, params, expected: int = 0):
        self.out, self.grid, self.params = out, grid, params
        self.times: list[float] = []
        self.files: list[str] = []  # the snapshots listed, for the index
        self._taken = 0
        self._jobs: deque = deque()  # (name, t, future or None, job arguments), oldest first
        big = (expected - 1) * 2 * grid.n_modes >= POOL_MIN_VALUES
        self._runner = ForkJobs(fork_workers() if big else 0)
        self._max_jobs = JOBS_PER_WORKER * self._runner.workers
        try:
            future = self._runner.submit(_node_bytes, grid.nodes)
            self._nodes = self._runner.result(future, _node_bytes, grid.nodes)
        except BaseException:
            self._runner.close()  # no caller holds the writer yet to close it
            raise

    def write(self, t: float, state: StatePair) -> None:
        zeta, u = state_to_nodal(self.grid, state)
        name = f"snapshot_{self._taken:04d}.csv"
        self._taken += 1
        job = (os.path.join(self.out.path, name), fmt(t), self._nodes, zeta, u)
        future = self._runner.submit(_write_snapshot, *job)
        self._jobs.append((name, t, future, job))
        # a job no pool took is written here, after every job before it
        self._finish(self._max_jobs if future is not None else 0)

    def _finish(self, keep: int) -> None:
        """List the snapshots that are done, oldest first, and wait for (or
        write) the oldest until at most `keep` are left."""
        # every job held has a future while keep > 0
        while self._jobs and (len(self._jobs) > keep or self._jobs[0][2].done()):
            name, t, future, job = self._jobs.popleft()
            self.out.write(name, lambda _path: self._runner.result(future, _write_snapshot, *job))
            self.times.append(t)
            self.files.append(name)

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
            self._runner.close()
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
