"""The costs behind `io_utils.ForkJobs`' pooling rule, measured here.

    PYTHONPATH=src python tests/pool_costs.py [ROUNDS]

Run by hand from the repository root; pytest does not collect this file.
Each round prints, as medians of in-process runs:

* `POOL_START_S`: starting a 2-worker `ForkJobs`, two no-op jobs, closing it;
* `SNAPSHOT_VALUE_S`: one `_write_snapshots` job of SNAPSHOTS_PER_JOB
  snapshots at N = 4096, per zeta and u value;
* `STEP_S + STEP_MODE_S N log2 N`: one RK4 step of `evolve` at each N,
  next to what the constants give.

A re-measured figure moves the constant, the comment beside it and
`tests/test_harness.py::TestStudyPoolDecision::test_the_cost_constants_sit_inside_their_measured_ranges`
together.
"""

from __future__ import annotations

import math
import os
import statistics
import sys
import tempfile
import time

from ilwbo import harness, io_utils
from ilwbo.evolution import EvolutionConfig, evolve
from ilwbo.spectral import BO, ModelParams, SpectralGrid

PARAMS = ModelParams(0.8, 1.2, BO)


def _noop(value):
    return value


def _median(fn, runs: int) -> float:
    times = []
    for _ in range(runs):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def pool_start_s() -> float:
    def pool():
        runner = io_utils.ForkJobs([1.0, 1.0])
        handles = [runner.submit(_noop, i) for i in range(2)]
        [runner.result(handle) for handle in handles]
        runner.close()

    return _median(pool, 21)


def snapshot_value_s(n: int = 4096) -> float:
    grid = SpectralGrid(n / 16, n)
    half = harness.sech2_state(0.2, 0.8)(grid).half
    nodes = io_utils._node_bytes(grid.nodes)
    per_job = io_utils.SNAPSHOTS_PER_JOB
    with tempfile.TemporaryDirectory() as tmp:
        paths = [os.path.join(tmp, f"snapshot_{i}.csv") for i in range(per_job)]

        def job():
            io_utils._write_snapshots(grid, nodes, paths, ["0.5"] * per_job, [half] * per_job)

        job()
        return _median(job, 30) / (per_job * 2 * n)


def step_s(n: int) -> float:
    grid = SpectralGrid(16.0, n)
    initial = harness.gaussian_state(0.1, 1.2)(grid)
    config = EvolutionConfig(t_end=max(20, 20000 // n) * 1e-4, dt=1e-4)
    evolve(PARAMS, grid, initial, config)
    return _median(lambda: evolve(PARAMS, grid, initial, config), 9) / config.n_steps


def main(rounds: int) -> None:
    if not io_utils.fork_workers():
        print("the pool needs fork and at least 2 CPUs; POOL_START_S is not measured")
    io_utils.keep_heap()  # as `cli.main` does
    for _ in range(rounds):
        if io_utils.fork_workers():
            print(f"pool start: {pool_start_s() * 1e3:.1f} ms "
                  f"(POOL_START_S {io_utils.POOL_START_S * 1e3:.1f})")
        print(f"snapshot: {snapshot_value_s() * 1e6:.3f} us per value "
              f"(SNAPSHOT_VALUE_S {io_utils.SNAPSHOT_VALUE_S * 1e6:.3f})")
        for n in (32, 128, 256, 1024, 4096, 16384):
            model = harness.STEP_S + harness.STEP_MODE_S * n * math.log2(n)
            print(f"step at N = {n}: {step_s(n) * 1e6:.0f} us (model {model * 1e6:.0f})")


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 1)
