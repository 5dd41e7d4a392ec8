"""A quick guard against the stored benchmark reference and the layer ladder.

Runs a few of the benchmark's invocations through `cli.main` and judges each
output with the benchmark's own checks against `perfbench/reference.json`,
so a change that moves a shipped number past its tolerance fails here, not
first in a benchmark run.  It also runs each kernel and each layer rung of
the `--trace 1` ladder once, so a library change that breaks the ladder's
calls fails here too.  The perfbench files are only read.
"""

import json
import pathlib
import sys

import pytest

from ilwbo import harness, io_utils
from ilwbo.cli import main
from ilwbo.evolution import EvolutionConfig
from ilwbo.spectral import ModelParams

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"
sys.path.insert(0, str(PERFBENCH))

import ladder  # noqa: E402
from checks import judge, observe  # noqa: E402
from workloads import Invocation, kinds  # noqa: E402


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
    ("solitary-sweep", "bo-c0.600-mw1"),
    ("solitary-sweep", "ilw-c0.409-mw1"),
    ("evolve-snapshots", "N4096/0"),
])
def test_output_matches_benchmark_reference(tmp_path, workload, key):
    inv = invocation(workload, key)
    reference = json.loads((PERFBENCH / "reference.json").read_text())[workload][key]
    config, out_dir = tmp_path / "config.json", tmp_path / "out"
    config.write_text(json.dumps(inv.config))
    code = main([inv.command, "--config", str(config), "--out", str(out_dir), "--quiet"])
    verdict = judge(inv.command, observe(inv.command, code, out_dir), reference, inv.snapshots)
    assert verdict.failure is None, (verdict.failure, verdict.notes)


SWEEP_REFERENCE = json.loads((PERFBENCH / "reference.json").read_text())["solitary-sweep"]


@pytest.mark.parametrize("key", [key for key in SWEEP_REFERENCE if not key.endswith("-mw1")])
def test_cycling_sweep_solves_converge_or_stall(tmp_path, key):
    # converging widths keep the reference's solve count; the ones that ran
    # to the cap or raised (B-O c >= 0.62, past the family's end) now stall
    inv = invocation("solitary-sweep", key)
    config, out_dir = tmp_path / "config.json", tmp_path / "out"
    config.write_text(json.dumps(inv.config))
    code = main([inv.command, "--config", str(config), "--out", str(out_dir), "--quiet"])
    obs = observe(inv.command, code, out_dir)
    baseline = SWEEP_REFERENCE[key]["baseline"]
    if baseline["exit"] == 0:
        assert (code, obs["termination"], obs["solves"]) == (0, "converged", baseline["solves"])
    else:
        assert (code, obs["termination"]) == (4, "stalled")
        assert obs["solves"] == obs["iterations"] < 150
        assert "stall" in json.loads((out_dir / "manifest.json").read_text())


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
    # the harness, accel and io_utils rungs, which set and restore the FFT workers
    desk = json.loads((PERFBENCH.parent / "configs" / "verify_desk.json").read_text())
    workers = ladder.spectral._fft_workers
    rungs = ladder.layer_rungs(desk, tmp_path)
    assert ladder.spectral._fft_workers == workers
    assert sorted(rungs) == sorted([
        "harness.convergence_study_s", "harness.roundtrip_s", "harness.decay_fit_s",
        "accel.cycled_solve_s", "io_utils.snapshot_ms.N4096"])
    assert all(value > 0 for value in rungs.values())


def pool_decision(inv, monkeypatch):
    """The workers `ForkJobs` would fork on 2 CPUs for an invocation's
    snapshots or study runs, or None when it reaches no pool."""
    cfg = inv.config
    if inv.command == "evolve":
        config = EvolutionConfig(t_end=cfg["t_end"], dt=cfg["dt"],
                                 record_every=cfg["record_every"])
        return io_utils.ForkJobs.pool_size(
            io_utils._snapshot_job_seconds(config.snapshots, cfg["N"]), 2)
    blocks = cfg.get("experiments", [])
    if [block["kind"] for block in blocks] != ["convergence"]:
        return None
    block, stated = blocks[0], []
    monkeypatch.setattr(harness, "ForkJobs",
                        lambda seconds: stated.append(seconds) or io_utils.ForkJobs([]))
    harness.convergence_study(ModelParams(block["gamma"], block["alpha"], block["regime"]),
                              harness.gaussian_state(block["amplitude"], block["width"]),
                              block["resolutions"], block["t_end"], block["dt"], block["l"])
    return io_utils.ForkJobs.pool_size(stated[0], 2)


def test_each_benchmark_kind_keeps_its_pool_decision(monkeypatch):
    # evolve-compute's two snapshots are one job; evolve-snapshots writes
    # 101 snapshots at N = 4096; the desk's study takes 3000 steps
    pooled = {"evolve-snapshots": {"N4096"}, "verify-desk": {"desk0-convergence"}}
    for workload in ("evolve-compute", "evolve-snapshots", "solitary-sweep", "verify-desk"):
        for kind, variants in kinds(workload, PERFBENCH.parent).items():
            for inv in variants:
                want = 2 if kind in pooled.get(workload, ()) else (
                    0 if inv.command == "evolve" else None)
                assert pool_decision(inv, monkeypatch) == want, inv.key
    shipped = json.loads((PERFBENCH.parent / "configs" / "evolve_gaussian.json").read_text())
    assert pool_decision(Invocation("shipped", "evolve_gaussian", "evolve", shipped, None),
                         monkeypatch) == 0
