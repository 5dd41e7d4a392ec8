"""Tests for the CSV writers, whose streamed column writer must produce the
same bytes as the row-by-row writer it replaced, and for the JSON writer."""

import json
import math
import multiprocessing
import os
import pathlib
import signal
import subprocess
import sys
import textwrap
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ilwbo import BO, ModelParams, SpectralGrid, _shortest, io_utils
from ilwbo._shortest import repr_bytes
from ilwbo.evolution import EvolutionConfig, EvolutionRecord, evolve
from ilwbo.harness import sech2_state
from ilwbo.io_utils import (
    CSV_BLOCK_ROWS,
    OutputDir,
    SnapshotWriter,
    write_csv,
    write_json,
    write_snapshots,
)
from ilwbo.solitary import IterationTrace
from ilwbo.spectral import state_to_nodal

from conftest import Snapshots


def _fmt(value) -> str:
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def row_writer(path, header, rows):
    """The row-by-row writer, kept as the byte-level oracle."""
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    with open(path, "w") as handle:
        handle.write("\n".join(lines) + "\n")


def read_bytes(path):
    with open(path, "rb") as handle:
        return handle.read()


def awkward_floats(rng, n):
    values = rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, n)
    values[:8] = [0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324, 1.0, 0.1]
    return values


class TestWriteCsv:
    @pytest.mark.parametrize("n", [0, 1, CSV_BLOCK_ROWS, 2 * CSV_BLOCK_ROWS + 37])
    def test_float_arrays_match_row_writer(self, tmp_path, n):
        rng = np.random.default_rng(n)
        x = awkward_floats(rng, n) if n >= 8 else rng.standard_normal(n)
        z = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        columns = [x, z.real, z.imag]  # strided views as well as a plain array
        write_csv(str(tmp_path / "new.csv"), ["x", "a", "b"], columns)
        row_writer(str(tmp_path / "old.csv"), ["x", "a", "b"], zip(*columns))
        assert read_bytes(tmp_path / "new.csv") == read_bytes(tmp_path / "old.csv")

    def test_int_str_and_scalar_lists_match_row_writer(self, tmp_path):
        n = CSV_BLOCK_ROWS + 5
        rng = np.random.default_rng(1)
        ints = [int(v) for v in rng.integers(-10 ** 6, 10 ** 6, n)]
        np_ints = rng.integers(0, 500, n)
        words = [("plain", "extrapolated", "not-converged")[i % 3] for i in range(n)]
        mixed = [float(v) if i % 2 else np.float64(v) for i, v in enumerate(rng.standard_normal(n))]
        # a str column is written as given, but only when every value is a
        # str: a str first value must not let the floats after it through
        str_first = ["first"] + mixed[1:-1] + [np.str_("last")]
        columns = [ints, np_ints, words, mixed, [3] * n, str_first, ["3"] * n]
        header = ["i", "j", "phase", "value", "t", "s", "r"]
        write_csv(str(tmp_path / "new.csv"), header, columns)
        row_writer(str(tmp_path / "old.csv"), header, zip(*columns))
        assert read_bytes(tmp_path / "new.csv") == read_bytes(tmp_path / "old.csv")

    def test_float_columns_apart_match_row_writer(self, tmp_path):
        # the float columns are formatted together and split back: columns
        # between them and of other kinds keep their place
        n = 2 * CSV_BLOCK_ROWS + 37
        rng = np.random.default_rng(5)
        floats = awkward_floats(rng, n)
        ints = [int(v) for v in rng.integers(-1000, 1000, n)]
        pairs = rng.standard_normal((n, 2))
        t_bytes = np.frombuffer(b"0.25", np.uint8)
        words = [("plain", "extrapolated")[i % 2] for i in range(n)]
        columns = [floats, ints, pairs[:, 1], np.broadcast_to(t_bytes, (n, len(t_bytes))), words]
        header = ["x", "i", "y", "t", "phase"]
        write_csv(str(tmp_path / "new.csv"), header, columns)
        rows = zip(floats, ints, pairs[:, 1], ["0.25"] * n, words)
        row_writer(str(tmp_path / "old.csv"), header, rows)
        assert read_bytes(tmp_path / "new.csv") == read_bytes(tmp_path / "old.csv")

    def test_one_kernel_call_per_block(self, tmp_path, monkeypatch):
        # a call costs about 250 us plus 0.2 us per value, so a block's float
        # columns share one
        calls = []
        kernel = io_utils._repr_bytes
        monkeypatch.setattr(io_utils, "_repr_bytes", lambda values: calls.append(len(values))
                            or kernel(values))
        grid = SpectralGrid(16.0, 256)
        nodes = io_utils._node_bytes(grid.nodes)
        zeta, u = state_to_nodal(grid, sech2_state(0.2, 0.8)(grid))
        calls.clear()
        io_utils._write_snapshot(str(tmp_path / "snapshot.csv"), "0.5", nodes, zeta, u)
        assert calls == [2 * 256]
        calls.clear()
        n = 2 * CSV_BLOCK_ROWS + 37
        columns = list(np.random.default_rng(2).standard_normal((3, n)))
        write_csv(str(tmp_path / "table.csv"), ["a", "b", "c"], columns)
        assert calls == [3 * CSV_BLOCK_ROWS, 3 * CSV_BLOCK_ROWS, 3 * 37]
        row_writer(str(tmp_path / "old.csv"), ["a", "b", "c"], zip(*columns))
        assert read_bytes(tmp_path / "table.csv") == read_bytes(tmp_path / "old.csv")

    def test_no_columns_match_row_writer(self, tmp_path):
        write_csv(str(tmp_path / "new.csv"), [], [])
        row_writer(str(tmp_path / "old.csv"), [], [])
        assert read_bytes(tmp_path / "new.csv") == read_bytes(tmp_path / "old.csv") == b"\n"

    def test_columns_of_unequal_length(self, tmp_path):
        with pytest.raises(ValueError, match="length"):
            write_csv(str(tmp_path / "bad.csv"), ["a", "b"], [[1, 2], [1]])
        assert not os.listdir(tmp_path)


def repr_text(values):
    """The kernel's rows for `values`, one per line, with the NUL pads
    dropped; formatted in blocks of CSV_BLOCK_ROWS, as write_csv does."""
    newlines = np.full((CSV_BLOCK_ROWS, 1), ord("\n"), np.uint8)
    blocks = []
    for i in range(0, len(values), CSV_BLOCK_ROWS):
        rows = repr_bytes(values[i:i + CSV_BLOCK_ROWS])
        blocks.append(np.hstack([rows, newlines[:len(rows)]]).tobytes().translate(None, b"\0"))
    return b"".join(blocks).decode()[:-1]


def repr_lines(values):
    return "\n".join(map(repr, np.asarray(values, dtype=float).tolist()))


def first_difference(values):
    got = repr_text(values).split("\n")
    return next(((x, g) for x, g in zip(values, got) if repr(float(x)) != g), None)


class TestReprBytes:
    """The kernel writes repr's bytes for every double."""

    def test_random_bit_patterns(self):
        # a million doubles spread over every exponent, both signs, and
        # about one in 1024 a nan, an infinity or a subnormal
        bits = np.random.default_rng(20).integers(0, 2 ** 64, 10 ** 6, dtype=np.uint64,
                                                  endpoint=False)
        values = bits.view(np.float64)
        assert repr_text(values) == repr_lines(values), first_difference(values)

    def test_powers_of_two_and_ten_and_their_neighbours(self):
        twos = np.ldexp(1.0, np.arange(-1074, 1024))
        tens = np.array([float(f"1e{e}") for e in range(-323, 309)])
        values = np.concatenate([twos, tens, np.nextafter(tens, 0), np.nextafter(tens, np.inf),
                                 np.nextafter(twos, 0), np.nextafter(twos, np.inf)])
        values = np.concatenate([values, -values])
        assert repr_text(values) == repr_lines(values), first_difference(values)

    def test_integers_zeros_subnormals_and_non_finite_values(self):
        integers = np.concatenate([np.arange(0, 20_000), 2.0 ** 53 + np.arange(-2000, 2000),
                                   2.0 ** 50 + np.arange(-400, 400) / 4])  # .25 and .75 are ties
        subnormals = np.ldexp(np.arange(1, 1000, 7.0), -1074)
        specials = [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, 2.225073858507201e-308,
                    2.2250738585072014e-308, 1.7976931348623157e308, 1e16, 1e-4, 1e-5]
        values = np.concatenate([integers, subnormals, specials])
        values = np.concatenate([values, -values])
        assert repr_text(values) == repr_lines(values), first_difference(values)

    @settings(max_examples=60)
    @given(st.lists(st.floats(allow_nan=True, allow_infinity=True), min_size=1, max_size=50))
    def test_any_floats(self, values):
        assert repr_text(np.array(values)) == repr_lines(values)

    def test_two_significant_digits_in_exponent_notation(self):
        # repr writes "1.5e+20": the point follows the first of two digits
        values = np.array([float(f"{m}e{e}") for m in (1.5, 2.5, 9.9)
                           for e in (-300, -100, -20, -5, 17, 22, 100, 300)])
        values = np.concatenate([values, -values])
        assert repr_text(values) == repr_lines(values), first_difference(values)

    def test_g_table_is_its_definition(self):
        # g = floor(10^-k 2^-r) + 1 for k = _K_MIN.._K_MAX, with r the power
        # of two that puts 10^-k 2^-r in [2^125, 2^126), in exact arithmetic
        table = _shortest._G
        ks = range(_shortest._K_MIN, _shortest._K_MAX + 1)
        assert table.shape == (6, len(ks))
        for i, k in enumerate(ks):
            x = Fraction(10) ** -k
            t = x.numerator.bit_length() - x.denominator.bit_length()
            t -= x < Fraction(2) ** t  # now 2^t <= x < 2^(t + 1)
            g = math.floor(x * Fraction(2) ** (125 - t)) + 1
            assert int(table[0, i]) << 63 | int(table[1, i]) == g, k

    def test_float32_and_strided_arrays(self):
        values = np.random.default_rng(3).standard_normal(101).astype(np.float32)
        assert repr_text(values[::3]) == repr_lines(values[::3])

    def test_the_kernel_is_loaded_by_the_first_csv_write(self, tmp_path):
        # its tables take milliseconds to build: a run pays for them when it
        # writes a CSV, not when it imports the package
        code = ("import sys, numpy, ilwbo.cli, ilwbo.io_utils as io\n"
                "assert 'ilwbo._shortest' not in sys.modules\n"
                f"io.write_csv({str(tmp_path / 'a.csv')!r}, ['x'], [numpy.ones(3)])\n"
                "assert 'ilwbo._shortest' in sys.modules\n")
        src = str(pathlib.Path(io_utils.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get(
            "PYTHONPATH")])))
        subprocess.run([sys.executable, "-c", code], check=True, env=env, timeout=60)
        assert (tmp_path / "a.csv").read_text() == "x\n1.0\n1.0\n1.0\n"


class TestWriteJson:
    def test_non_finite_floats_are_written_as_null(self, tmp_path):
        # and finite values as json.dumps writes them, so the output is strict JSON
        path = tmp_path / "out.json"
        write_json(str(path), {"rates": [math.nan, np.float64(math.inf), 0.1 + 0.2],
                               "fit": {"window": (-math.inf, np.float64(1e-300))},
                               "n": 3, "ok": True, "s": "nan", "none": None})
        expected = {"rates": [None, None, 0.1 + 0.2], "fit": {"window": [None, 1e-300]},
                    "n": 3, "ok": True, "s": "nan", "none": None}
        assert path.read_text() == json.dumps(expected, indent=2, sort_keys=True,
                                              allow_nan=False) + "\n"


class TestReportWriters:
    def test_trace_matches_row_writer_in_one_kernel_call(self, tmp_path, monkeypatch):
        # its two float columns go through the kernel as one array; nan,
        # infinities and subnormals still read as repr writes them
        calls = []
        kernel = io_utils._repr_bytes
        monkeypatch.setattr(io_utils, "_repr_bytes", lambda values: calls.append(len(values))
                            or kernel(values))
        rng = np.random.default_rng(3)
        residuals, m_factors = awkward_floats(rng, 141), awkward_floats(rng, 141)[::-1]
        trace = IterationTrace()
        for i, (res, m) in enumerate(zip(residuals, m_factors)):
            trace.append(res, m, ("plain", "extrapolated")[i % 2], i)
        io_utils.write_trace_csv(str(tmp_path / "trace.csv"), trace)
        assert calls == [2 * 141]
        header = ["iter", "residual", "m_factor", "phase"]
        row_writer(str(tmp_path / "old.csv"), header,
                   zip(trace.inner_steps, trace.residuals, trace.m_factors, trace.phases))
        assert read_bytes(tmp_path / "trace.csv") == read_bytes(tmp_path / "old.csv")

    def test_snapshots_match_row_writer(self, tmp_path):
        params = ModelParams(0.8, 1.2, BO)
        grid = SpectralGrid(64.0, 1024)
        state = sech2_state(0.2, 0.8)(grid)
        times = [0.0, 0.0625, 3]  # an int end time is written as given
        record = EvolutionRecord(times, [state] * 3, np.zeros(3), np.zeros(3, complex),
                                 np.zeros(3, complex))
        write_snapshots(str(tmp_path), grid, params, record)
        zeta, u = state_to_nodal(grid, state)
        for i, t in enumerate(times):
            oracle = tmp_path / f"oracle_{i}.csv"
            row_writer(str(oracle), ["t", "x", "zeta", "u"],
                       zip([t] * grid.n_modes, grid.nodes, zeta, u))
            assert read_bytes(tmp_path / f"snapshot_{i:04d}.csv") == read_bytes(oracle)

    def test_one_writer_over_several_blocks_and_times(self, tmp_path):
        # the formatted nodes are shared by every file and each file formats
        # its own t: no time may leak from one file into the next
        params = ModelParams(0.8, 1.2, BO)
        grid = SpectralGrid(32.0, 4100)
        assert grid.n_modes > 2 * CSV_BLOCK_ROWS
        state = sech2_state(0.2, 0.8)(grid)
        times = [0.0, 0.1 + 0.2, 3, np.float64(1e-5)]
        writer = SnapshotWriter(OutputDir(str(tmp_path)), grid, params)
        for t in times:
            writer.write(t, state)
        writer.close()
        zeta, u = state_to_nodal(grid, state)
        for i, t in enumerate(times):
            oracle = tmp_path / f"oracle_{i}.csv"
            row_writer(str(oracle), ["t", "x", "zeta", "u"],
                       zip([t] * grid.n_modes, grid.nodes, zeta, u))
            assert read_bytes(tmp_path / f"snapshot_{i:04d}.csv") == read_bytes(oracle)

    def test_snapshots_format_the_nodes_once_and_t_once_per_file(self, tmp_path, monkeypatch):
        # k snapshots of an N-node grid: N node values, then per file 2N
        # field values and one t (a writer that formats every cell takes 4kN)
        formatted = []
        kernel, fmt = io_utils._repr_bytes, io_utils.fmt

        def counting_repr_bytes(values):
            formatted.extend(values)
            return kernel(values)

        def counting_fmt(value):
            formatted.append(value)
            return fmt(value)

        monkeypatch.setattr(io_utils, "_repr_bytes", counting_repr_bytes)
        monkeypatch.setattr(io_utils, "fmt", counting_fmt)
        params = ModelParams(0.8, 1.2, BO)
        grid = SpectralGrid(16.0, 256)
        state = sech2_state(0.2, 0.8)(grid)
        times = [0.0, 0.25, 0.5]
        record = EvolutionRecord(times, [state] * 3, np.zeros(3), np.zeros(3, complex),
                                 np.zeros(3, complex))
        write_snapshots(str(tmp_path), grid, params, record)
        n, k = grid.n_modes, len(times)
        assert len(formatted) <= n + k * (2 * n + 1)
        zeta, u = state_to_nodal(grid, state)
        for i, t in enumerate(times):
            oracle = tmp_path / f"oracle_{i}.csv"
            row_writer(str(oracle), ["t", "x", "zeta", "u"],
                       zip([t] * grid.n_modes, grid.nodes, zeta, u))
            assert read_bytes(tmp_path / f"snapshot_{i:04d}.csv") == read_bytes(oracle)

    def test_in_process_each_snapshot_is_written_when_taken(self, tmp_path):
        # no pool: a write error is raised by the write that took the state
        grid, params = SpectralGrid(16.0, 64), ModelParams(0.8, 1.2, BO)
        out = OutputDir(str(tmp_path))
        writer = SnapshotWriter(out, grid, params)
        state = sech2_state(0.2, 0.8)(grid)
        for i in range(3):
            writer.write(0.5 * i, state)
            assert out.files == [f"snapshot_{j:04d}.csv" for j in range(i + 1)]
            assert (tmp_path / out.files[-1]).is_file()
        writer.close()

    def test_streamed_snapshots_match_the_held_record(self, tmp_path):
        # the writer's files against write_snapshots over a record held from
        # the same run's snapshots
        params = ModelParams(0.8, 1.2, BO)
        grid = SpectralGrid(16.0, 256)
        initial = sech2_state(0.2, 0.8)(grid)
        config = EvolutionConfig(t_end=0.33, dt=0.05, record_every=3)  # a short last step
        snaps = Snapshots()
        final = evolve(params, grid, initial, config, sink=snaps)
        held = EvolutionRecord(snaps.times, snaps.states, np.zeros(4), np.zeros(4, complex),
                               np.zeros(4, complex))
        write_snapshots(str(tmp_path / "held"), grid, params, held)
        out = OutputDir(str(tmp_path / "streamed"))
        writer = SnapshotWriter(out, grid, params)
        streamed = evolve(params, grid, initial, config, sink=writer.write)
        writer.close()
        files = out.files
        assert writer.times == snaps.times and snaps.times[-1] == 0.33
        assert len(snaps.states) == 4
        assert np.array_equal(streamed.half, final.half)
        assert sorted(os.listdir(tmp_path / "streamed")) == sorted(files)
        for name in files:
            assert read_bytes(tmp_path / "streamed" / name) == read_bytes(tmp_path / "held" / name)


@pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                    reason="the pool forks its workers")
@pytest.mark.parametrize("cpus, workers", [(1, 0), (2, 2), (3, 3)])
def test_fork_workers_is_one_per_cpu_from_two(monkeypatch, cpus, workers):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
    assert io_utils.fork_workers() == workers


class TestPoolDecision:
    """`ForkJobs.pool_size`, the one pooling rule, as a function of the jobs'
    in-process seconds and the CPUs, and the writer's jobs on both sides of
    its clear corners; the corners near break-even are left unpinned."""

    def test_fewer_than_two_jobs_or_cpus_run_in_process(self):
        assert io_utils.ForkJobs.pool_size([], 4) == 0
        assert io_utils.ForkJobs.pool_size([10.0], 4) == 0
        assert io_utils.ForkJobs.pool_size([10.0, 10.0], 1) == 0
        assert io_utils.ForkJobs.pool_size([10.0, 10.0], 0) == 0

    def test_one_worker_per_job_up_to_the_cpus(self):
        assert io_utils.ForkJobs.pool_size([10.0] * 2, 4) == 2
        assert io_utils.ForkJobs.pool_size([10.0] * 5, 4) == 4

    def test_the_pool_must_end_sooner_than_the_jobs_in_turn(self):
        start = io_utils.POOL_START_S
        # the longest job, or an even share, plus the start: 2 start against 2 start
        assert io_utils.ForkJobs.pool_size([start, start], 2) == 0
        assert io_utils.ForkJobs.pool_size([start] * 3, 2) == 2
        assert io_utils.ForkJobs.pool_size([start] * 3, 3) == 3
        # one long job: the others save less than the start costs
        assert io_utils.ForkJobs.pool_size([100 * start, start / 2], 2) == 0
        assert io_utils.ForkJobs.pool_size([100 * start, 2 * start], 2) == 2

    @pytest.mark.parametrize("snapshots, pooled", [
        (4, False),   # 24 576 values after the first: 15 ms in-process, 17 ms pooled
        (25, True),   # 196 608 values after the first: pooled won 31 of 47 pairs
        (101, True),  # the evolve-snapshots runs
    ])
    def test_snapshot_corners_at_n4096(self, snapshots, pooled):
        seconds = io_utils._snapshot_job_seconds(snapshots, 4096)
        assert len(seconds) == -(-snapshots // io_utils.SNAPSHOTS_PER_JOB)
        assert bool(io_utils.ForkJobs.pool_size(seconds, 2)) is pooled

    @pytest.mark.parametrize("n_modes", [8, 256, 4096, 16384, 1 << 20])
    def test_a_two_snapshot_run_is_one_job_in_process(self, n_modes):
        seconds = io_utils._snapshot_job_seconds(2, n_modes)
        assert len(seconds) == 1 and io_utils.ForkJobs.pool_size(seconds, 64) == 0

    @pytest.mark.parametrize("snapshots", [3 * 1024 + 1, 10 ** 15])
    def test_a_long_run_states_a_bounded_list_with_the_same_decision(self, snapshots):
        # a writer expecting the snapshots of an evolve to t_end = 1e12 states
        # 1024 jobs, not one per three snapshots; they fork on 2 CPUs or more
        seconds = io_utils._snapshot_job_seconds(snapshots, 256)
        assert len(seconds) == 1024
        assert sum(seconds) == pytest.approx(snapshots * 512 * io_utils.SNAPSHOT_VALUE_S)
        assert [io_utils.ForkJobs.pool_size(seconds, cpus) for cpus in (1, 2, 64, 1024)] == \
            [0, 2, 64, 1024]
        small = io_utils._snapshot_job_seconds(3 * 1024, 256)
        assert len(small) == 1024 and max(small) == 3 * 512 * io_utils.SNAPSHOT_VALUE_S
        assert len(io_utils._snapshot_job_seconds(3 * 1000, 256)) == 1000

    def test_the_writer_states_its_expected_snapshots(self, tmp_path, monkeypatch):
        stated = []
        monkeypatch.setattr(io_utils, "ForkJobs",
                            lambda seconds: stated.append(seconds) or _FORK_JOBS([]))
        grid, params = SpectralGrid(16.0, 64), ModelParams(0.8, 1.2, BO)
        for expected in (0, 7):
            SnapshotWriter(OutputDir(str(tmp_path)), grid, params, expected).close()
        assert stated == [[], io_utils._snapshot_job_seconds(7, 64)]
        assert stated[1] == [3 * 128 * io_utils.SNAPSHOT_VALUE_S] * 2 + \
            [128 * io_utils.SNAPSHOT_VALUE_S]


_FORK_JOBS = io_utils.ForkJobs


class FakeLibc:
    """A C library that records the calls made on it; mallopt returns 0,
    glibc's failure value."""

    def __init__(self, calls):
        self.calls = calls

    def prctl(self, *args):
        self.calls.append(("prctl", *args))
        return 0

    def mallopt(self, *args):
        self.calls.append(("mallopt", *args))
        return 0


class WorkerExited(Exception):
    pass


class TestInitWorker:
    """The pool workers' initializer, run here on a recording C library."""

    @pytest.fixture
    def calls(self, monkeypatch):
        import ctypes

        calls = []
        monkeypatch.setattr(ctypes, "CDLL", lambda name: FakeLibc(calls))
        return calls

    def test_dies_with_its_parent_and_keeps_its_heap_under_glibc(self, calls, monkeypatch):
        monkeypatch.setattr(os, "confstr", lambda name: "glibc 2.36")
        io_utils._init_worker(os.getppid())
        assert calls == [("prctl", 1, signal.SIGTERM), ("mallopt", -3, 32 << 20),
                         ("mallopt", -1, 64 << 20)]

    @pytest.mark.parametrize("error", [None, ValueError, OSError, AttributeError])
    def test_leaves_the_allocator_alone_without_glibc(self, calls, monkeypatch, error):
        # os.confstr names no glibc version: it returns None, the name is
        # unknown to the C library, or the platform has no os.confstr
        def confstr(name):
            if error is not None:
                raise error(name)

        if error is AttributeError:
            monkeypatch.delattr(os, "confstr")
        else:
            monkeypatch.setattr(os, "confstr", confstr)
        io_utils._init_worker(os.getppid())
        assert calls == [("prctl", 1, signal.SIGTERM)]

    def test_without_a_c_library_it_does_nothing(self, monkeypatch):
        import ctypes

        def missing(name):
            raise OSError("no C library")

        monkeypatch.setattr(ctypes, "CDLL", missing)
        io_utils._init_worker(os.getppid())

    def test_exits_when_its_parent_has_died_already(self, calls, monkeypatch):
        # a parent that died before prctl was asked sends no signal
        def exit_(code):
            raise WorkerExited(code)

        monkeypatch.setattr(os, "_exit", exit_)
        monkeypatch.setattr(os, "confstr", lambda name: "glibc 2.36")
        with pytest.raises(WorkerExited) as exited:
            io_utils._init_worker(os.getppid() + 1)
        assert exited.value.args == (0,)
        assert calls == [("prctl", 1, signal.SIGTERM)]


class LazyJobs:
    """A stand-in for ForkJobs with `workers` workers: a job is run only when
    its result is asked for, so every job submitted stays pending until then."""

    def __init__(self, workers):
        self.workers, self.pending = workers, 0

    def submit(self, fn, *args):
        self.pending += 1
        return fn, args

    def result(self, handle):
        self.pending -= 1
        fn, args = handle
        return fn(*args)

    def close(self, cancel=True):
        pass


def test_the_writer_keeps_jobs_per_worker_jobs_in_flight(tmp_path, monkeypatch):
    # the writer waits for its oldest job only when it holds more than
    # JOBS_PER_WORKER jobs per worker, and lists every file in order
    runner = LazyJobs(2)
    monkeypatch.setattr(io_utils, "ForkJobs", lambda seconds: runner)
    grid, params = SpectralGrid(16.0, 16), ModelParams(0.8, 1.2, BO)
    state = sech2_state(0.2, 0.8)(grid)
    out = OutputDir(str(tmp_path))
    writer = SnapshotWriter(out, grid, params)
    bound = io_utils.JOBS_PER_WORKER * runner.workers
    taken = (bound + 2) * io_utils.SNAPSHOTS_PER_JOB + 1
    pending = []
    for i in range(taken):
        writer.write(0.5 * i, state)
        pending.append(runner.pending)
    assert max(pending) == bound
    writer.close()
    assert runner.pending == 0
    names = [f"snapshot_{i:04d}.csv" for i in range(taken)]
    assert writer.files == names and out.files == names + ["snapshots_manifest.json"]
    assert sorted(os.listdir(tmp_path)) == sorted(out.files)


@pytest.mark.skipif(not io_utils.fork_workers() or not io_utils._glibc(),
                    reason="a forked worker under glibc")
def test_a_pool_worker_keeps_its_heap(tmp_path):
    # in a fresh process glibc trims a worker's heap between the float
    # kernel's calls and faults it in again: about 3800 minor faults for 5
    # calls on 8192 values with glibc's default thresholds
    code = textwrap.dedent("""
        import resource
        import numpy as np
        from ilwbo import io_utils
        from ilwbo._shortest import repr_bytes

        def job(n):
            values = np.random.default_rng(0).standard_normal(n)
            repr_bytes(values)
            before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            for _ in range(5):
                repr_bytes(values)
            return resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before

        runner = io_utils.ForkJobs([1.0, 1.0])
        assert runner.workers == 2
        print(runner.result(runner.submit(job, 8192)))
        runner.close()
    """)
    assert _fresh_process_output(code) < 50


@pytest.mark.skipif(not io_utils._glibc(), reason="glibc's allocator")
def test_the_cli_process_keeps_its_heap(tmp_path):
    # with glibc's default thresholds a second `main` that solves and writes
    # an N = 4096 wave took 1150-1200 minor faults in a fresh process, and
    # 0-1 with the thresholds that `main` sets
    config = tmp_path / "wave.json"
    config.write_text(json.dumps({"regime": "bo", "gamma": 0.8, "alpha": 1.2, "c": 0.54,
                                  "l": 256.0, "N": 4096, "tol": 1e-10, "max_iter": 500,
                                  "mw": 1}))
    code = textwrap.dedent(f"""
        import resource
        from ilwbo.cli import main

        def run(out):
            assert main(["solitary", "--config", {str(config)!r}, "--out", out, "--quiet"]) == 0

        run({str(tmp_path / "first")!r})
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        run({str(tmp_path / "second")!r})
        print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
    """)
    assert _fresh_process_output(code) < 50
    assert (tmp_path / "second" / "wave.csv").read_bytes() == \
        (tmp_path / "first" / "wave.csv").read_bytes()


def _fresh_process_output(code: str) -> int:
    """The integer that `code` prints, run in a fresh interpreter on this package."""
    src = str(pathlib.Path(io_utils.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get(
        "PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          check=True, env=env, timeout=60)
    return int(done.stdout)
