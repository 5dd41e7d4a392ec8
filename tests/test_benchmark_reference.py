"""A quick guard against the stored benchmark reference and the layer ladder.

Runs a few of the benchmark's invocations through `cli.main` and judges each
output with the benchmark's own checks against `perfbench/reference.json`,
so a change that moves a shipped number past its tolerance fails here, not
first in a benchmark run.  It also runs each kernel of the `--trace 1` layer
ladder once, so a library change that breaks the ladder's calls fails here
too.  The perfbench files are only read.
"""

import json
import pathlib
import sys

import pytest

from ilwbo.cli import main

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"
sys.path.insert(0, str(PERFBENCH))

import ladder  # noqa: E402
from checks import judge, observe  # noqa: E402
from workloads import kinds  # noqa: E402


def invocation(workload, key):
    for variants in kinds(workload, PERFBENCH.parent).values():
        for inv in variants:
            if inv.key == key:
                return inv
    raise KeyError(key)


@pytest.mark.parametrize("workload, key", [
    ("verify-desk", "desk4-accel/0"),
    ("verify-desk", "desk1-roundtrip/0"),
    ("solitary-sweep", "bo-c0.540-mw4"),
    ("solitary-sweep", "ilw-c0.409-mw4"),
    ("evolve-compute", "N1024/0"),
    ("evolve-compute", "N16384/0"),
    ("verify-desk", "desk0-convergence/0"),
    ("verify-desk", "desk2-decay/0"),
    ("verify-desk", "desk3-decay/0"),
    ("solitary-sweep", "bo-c0.600-mw2"),
])
def test_output_matches_benchmark_reference(tmp_path, workload, key):
    inv = invocation(workload, key)
    reference = json.loads((PERFBENCH / "reference.json").read_text())[workload][key]
    config, out_dir = tmp_path / "config.json", tmp_path / "out"
    config.write_text(json.dumps(inv.config))
    code = main([inv.command, "--config", str(config), "--out", str(out_dir), "--quiet"])
    verdict = judge(inv.command, observe(inv.command, code, out_dir), reference, inv.snapshots)
    assert verdict.failure is None, (verdict.failure, verdict.notes)


def test_layer_ladder_kernels_run(tmp_path):
    # what `perfbench/run.py --trace 1` calls besides the timed kernels
    assert isinstance(ladder.spectral._fft_workers, int)
    assert ladder.product_bytes(256) > 0
    for kernel in ladder._kernels(256).values():
        kernel()
    # the snapshot rung builds an EvolutionRecord positionally for write_snapshots
    out = {}
    ladder._io_rung(tmp_path, out)
    assert out["io_utils.snapshot_ms.N4096"] > 0
