"""File emission helpers: atomic writes, CSV/JSON formats, the output directory.

An `OutputDir` lists each file once its atomic rename has succeeded, so it
names exactly the complete files a run left behind, also when a large run's
snapshots are written by worker processes.  A file that cannot be written
raises an `OutputError`.  Every floating-point number in a CSV is written as
the bytes of its Python repr, the shortest round-trip decimal, so reloading a
CSV reproduces the exact binary values and identical runs produce
byte-identical files.  The numpy kernel of `_shortest` makes those bytes for
a whole float array at once; `tests/test_io_utils.py::TestReprBytes` pins
them against repr.
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

# Rows formatted per write.  With a block's float columns in one kernel call,
# `perfbench/run.py --workload evolve-compute` on 2 cores (3 rounds) read
# wall_s 0.255 s and peak RSS 67.5-67.7 MB at 2048 rows, 0.251 s and
# 69.2-69.4 MB at 4096, and 0.261 s and 74.9-75.1 MB unblocked.
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


def _block_bytes(parts: list) -> list[np.ndarray]:
    """The `fmt` bytes of each value of a block's equal-length column `parts`,
    one NUL-padded uint8 matrix per column: the float arrays all through one
    _repr_bytes call over their concatenation, since a call costs about 250 us
    plus about 0.2 us per value; a 2-d uint8 array as the rows it already is;
    any other column value by value."""
    is_float = [isinstance(part, np.ndarray) and part.dtype.kind == "f" for part in parts]
    floats = [part for part, flag in zip(parts, is_float) if flag]
    rows = iter(np.split(_repr_bytes(np.concatenate(floats)), len(floats)) if floats else ())
    fields = []
    for part, flag in zip(parts, is_float):
        if flag:
            fields.append(next(rows))
        elif isinstance(part, np.ndarray) and part.ndim == 2:
            fields.append(part)
        else:
            text = np.array([fmt(value).encode() for value in part], dtype="S")
            fields.append(text.view(np.uint8).reshape(len(text), -1))
    return fields


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
            fields = _block_bytes([col[start:start + CSV_BLOCK_ROWS] for col in columns])
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
        [trace.inner_steps, np.array(trace.residuals, dtype=float),
         np.array(trace.m_factors, dtype=float), trace.phases],
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


# Snapshots per pool job, and jobs in flight per worker.  A job costs this
# process one pickling and one dispatch, so several snapshots a job leave it
# more time to step; but the writer and the pool hold the half spectra, 16 (N
# + 2) bytes each, of up to JOBS_PER_WORKER * workers + 1 jobs.  3 x 2 read
# the least wall_s and peak RSS on `evolve-snapshots` (2 cores; see CHANGES).
SNAPSHOTS_PER_JOB = 3
JOBS_PER_WORKER = 2

# The in-process seconds per zeta and u value of a snapshot (its transform,
# the float kernel and the write), and to start and stop a pool; on 2 cores,
# medians of three sessions: 0.35-0.47 us per value at N = 4096, and 9.7-13.5
# ms for a 2-worker pool given two no-op jobs.
SNAPSHOT_VALUE_S = 0.4e-6
POOL_START_S = 0.01

SNAPSHOT_HEADER = ("t", "x", "zeta", "u")


def _write_snapshot(path: str, t: str, nodes: np.ndarray, zeta: np.ndarray, u: np.ndarray) -> None:
    """One CSV, with `t` formatted and the nodes as the byte matrix
    `SnapshotWriter` formats once."""
    t_bytes = np.frombuffer(t.encode(), np.uint8)
    write_csv(path, SNAPSHOT_HEADER,
              [np.broadcast_to(t_bytes, (len(zeta), len(t_bytes))), nodes, zeta, u])


def _write_snapshots(grid: SpectralGrid, nodes: np.ndarray, paths: Sequence[str],
                     times: Sequence[str], halves: Sequence[np.ndarray]) -> None:
    """A snapshot job: for each path, the CSV of the state whose half spectrum
    is `halves[i]` at the formatted time `times[i]`, in order, stopping at the
    first error; the node byte matrix comes once for the whole batch."""
    for path, t, half in zip(paths, times, halves):
        _write_snapshot(path, t, nodes, *state_to_nodal(grid, StatePair(half)))


def _snapshot_job_seconds(snapshots: int, n_modes: int) -> list[float]:
    """The in-process seconds of each job of SNAPSHOTS_PER_JOB snapshots of N =
    `n_modes`, or past `most` jobs `most` equal shares: alike on `most` CPUs."""
    value_s, most = 2 * n_modes * SNAPSHOT_VALUE_S, 1024
    if snapshots > most * SNAPSHOTS_PER_JOB:
        return [snapshots * value_s / most] * most
    return [min(SNAPSHOTS_PER_JOB, snapshots - i) * value_s
            for i in range(0, snapshots, SNAPSHOTS_PER_JOB)]


def _node_bytes(nodes: np.ndarray) -> np.ndarray:
    """The node column as a byte matrix without the columns no node uses,
    formatted CSV_BLOCK_ROWS nodes at a time as write_csv's blocks are."""
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


# glibc's mallopt parameters, and prctl's option that names a signal the
# calling process gets when its parent dies
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
_PR_SET_PDEATHSIG = 1


def _glibc() -> bool:
    try:
        return bool(os.confstr("CS_GNU_LIBC_VERSION"))
    except (AttributeError, OSError, ValueError):
        return False


def _libc():
    """The C library through ctypes, or None when there is none."""
    import ctypes

    try:
        return ctypes.CDLL(None)
    except OSError:
        return None


def keep_heap() -> None:
    """Where glibc is the C library, raise this process's mmap threshold to
    32 MiB and its trim threshold to 64 MiB, so that the float kernel's and
    pocketfft's arrays are reused from the heap, not mapped and faulted in
    again on every call; both are set, since setting either one turns off
    glibc's dynamic threshold.  `cli.main` and each pool worker call it.
    Elsewhere it does nothing, and a failed call is ignored: it never raises."""
    libc = _libc() if _glibc() else None
    if libc is not None:
        libc.mallopt(_M_MMAP_THRESHOLD, 32 << 20)
        libc.mallopt(_M_TRIM_THRESHOLD, 64 << 20)


def _init_worker(parent: int) -> None:
    """Each pool worker runs this once, after its fork from `parent`.

    It asks Linux for SIGTERM when the thread that forked it ends (prctl's
    PR_SET_PDEATHSIG, through ctypes), so that a parent killed by SIGKILL
    leaves no worker behind, and it exits at once if `parent` has died
    already.  Then it keeps its heap (`keep_heap`).  A call the C library
    lacks is skipped and a failed one ignored: this never raises."""
    import signal

    libc = _libc()
    if hasattr(libc, "prctl"):
        libc.prctl(_PR_SET_PDEATHSIG, signal.SIGTERM)
    if os.getppid() != parent:
        os._exit(0)
    keep_heap()


class ForkJobs:
    """Jobs run on `pool_size` processes forked from this one, given each
    job's estimated in-process seconds, or in-process when that is 0 or a
    worker died and broke the pool; the one place that decides which.  A
    broken pool is shut down without cancelling, so a future still held
    reads as broken, not as cancelled.  The pool machinery is imported only
    when a pool is built.  A job is a module-level function of its arguments
    alone: a worker unpickles it by name, and `result` runs it here when no
    worker did.  Each worker first runs `_init_worker`, which ties its life
    to this process and keeps its heap between jobs.
    """

    def __init__(self, seconds: Sequence[float]):
        self.workers = self.pool_size(seconds, fork_workers())
        self._pool = None
        if self.workers:
            # fork, not spawn: a spawned worker imports numpy and this package
            # again (about 0.4 s), which would cost more than the pool saves
            import multiprocessing
            from concurrent.futures import ProcessPoolExecutor
            from concurrent.futures.process import BrokenProcessPool

            self._broken = BrokenProcessPool
            self._pool = ProcessPoolExecutor(self.workers, multiprocessing.get_context("fork"),
                                             initializer=_init_worker, initargs=(os.getpid(),))

    @staticmethod
    def pool_size(seconds: Sequence[float], cpus: int) -> int:
        """w = min(cpus, jobs) workers for jobs of these in-process `seconds`,
        when w >= 2 and the pool, which takes the longest job or an even
        share plus POOL_START_S, ends before the jobs in turn would; else 0."""
        workers, total = min(cpus, len(seconds)), sum(seconds)
        pays = workers >= 2 and max(max(seconds), total / workers) + POOL_START_S < total
        return workers if pays else 0

    def submit(self, fn, *args) -> tuple:
        """The handle `result` takes for the job `fn(*args)`, sent to a
        worker when a pool runs."""
        future = None
        if self._pool is not None:
            try:
                future = self._pool.submit(fn, *args)
            except self._broken:
                self.close(cancel=False)
        return future, fn, args

    def result(self, handle: tuple):
        """The value of the job `handle` names: the worker's, or the job run
        here when no worker ran it or its pool broke; a job's own error is
        raised as it is."""
        future, fn, args = handle
        if future is not None:
            try:
                return future.result()
            except self._broken:
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

    The node column is formatted once, here, when the writer is built, and
    `t` once per file.  The `expected` snapshots are stated to `ForkJobs` by
    `_snapshot_job_seconds`.  When it forks, workers forked at the first
    job, so that they inherit the loaded float kernel, run the
    `_write_snapshots` jobs while the caller goes on; the writer holds each
    state's half spectrum, which the caller must not change, until its job
    is done.  Otherwise each snapshot's job runs here as it is taken.  The
    jobs that a broken pool held or did not take run here, in order.  Each
    file is listed in `out` once its job is done, in the order taken; of a
    job that failed, the files before the one it failed on.  A worker's
    OSError is raised by a later `write` or by `close`.

    The caller owns the writer: pass `write` as `evolve`'s sink, which gets
    only checked states, and call `close` also when the run fails, so the
    snapshots taken so far are written and keep their index.  A writer given
    no state, as in a run whose initial state is not finite, writes nothing.
    """

    def __init__(self, out: OutputDir, grid: SpectralGrid, params, expected: int = 0):
        self.out, self.grid, self.params = out, grid, params
        self.times: list[float] = []
        self.files: list[str] = []  # the snapshots listed, for the index
        self._taken = 0
        self._batch: list[tuple] = []  # (path, t, half) of the snapshots not yet sent
        self._jobs: deque = deque()  # (times, paths, runner handle), oldest first
        self._nodes = _node_bytes(grid.nodes)
        self._runner = ForkJobs(_snapshot_job_seconds(expected, grid.n_modes))
        self._batch_size = SNAPSHOTS_PER_JOB if self._runner.workers else 1

    def write(self, t: float, state: StatePair) -> None:
        path = os.path.join(self.out.path, f"snapshot_{self._taken:04d}.csv")
        self._taken += 1
        self._batch.append((path, t, state.half))
        if len(self._batch) == self._batch_size:
            self._send()

    def _send(self) -> None:
        """Hand the snapshots not yet sent to the runner as one job."""
        paths, times, halves = zip(*self._batch)
        self._batch = []
        handle = self._runner.submit(_write_snapshots, self.grid, self._nodes, paths,
                                     [fmt(t) for t in times], halves)
        self._jobs.append((times, paths, handle))
        self._finish(JOBS_PER_WORKER * self._runner.workers)

    def _finish(self, keep: int) -> None:
        """Wait for (or run) the oldest job and list its snapshots, until at
        most `keep` jobs are left."""
        while len(self._jobs) > keep:
            times, paths, handle = self._jobs.popleft()
            written = 0
            try:
                self._runner.result(handle)
                written = len(paths)
            except OutputError as err:
                written = paths.index(err.filename)  # the files before it are complete
                raise
            finally:
                names = [os.path.basename(path) for path in paths[:written]]
                self.out.files.extend(names)
                self.files.extend(names)
                self.times.extend(times[:written])

    def close(self) -> None:
        """Send the snapshots not yet sent, wait for the jobs in flight, stop
        the pool and write the index of the snapshots listed; then raise the
        first write error met meanwhile."""
        error = None
        try:
            while self._batch or self._jobs:
                try:
                    if self._batch:
                        self._send()
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
                "params": {"gamma": self.params.gamma, "alpha": self.params.alpha,
                           "regime": self.params.regime},
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
