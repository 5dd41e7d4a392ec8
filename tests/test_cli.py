"""End-to-end tests of the command-line interface and its file contracts."""

import contextlib
import csv
import dataclasses
import errno
import io
import json
import math
import os
import pathlib
import pickle
import signal
import subprocess
import sys
import tempfile
import time
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ilwbo import (
    BO,
    ILW,
    EvolutionConfig,
    ModelParams,
    SolitaryConfig,
    SpectralGrid,
    StatePair,
    accel,
    cli,
    io_utils,
    spectral,
)
from ilwbo.cli import main
from ilwbo.harness import decay_fit
from ilwbo.spectral import state_from_nodal, state_to_nodal, symbol_g

CONFIGS = pathlib.Path(__file__).resolve().parent.parent / "configs"


def run_cli(tmp_path, command, config, out="out"):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config))
    out_dir = tmp_path / out
    code = main([command, "--config", str(cfg_path), "--out", str(out_dir), "--quiet"])
    return code, out_dir


def read_manifest(out_dir):
    with open(out_dir / "manifest.json") as handle:
        return json.load(handle)


EVOLVE_CFG = {
    "regime": "bo",
    "gamma": 0.8,
    "alpha": 1.2,
    "l": 8.0,
    "N": 64,
    "t_end": 0.2,
    "dt": 0.01,
    "record_every": 10,
    "initial": {"kind": "gaussian", "amplitude": 0.1, "width": 1.0},
}

SOLITARY_CFG = {
    "regime": "ilw",
    "gamma": 0.8,
    "alpha": 1.2,
    "c": 0.40,
    "l": 32.0,
    "N": 256,
    "tol": 1e-10,
    "max_iter": 500,
    "mw": 1,
}


class TestEvolveCommand:
    def test_missing_key_names_it(self, tmp_path, capsys):
        cfg = {k: v for k, v in EVOLVE_CFG.items() if k != "gamma"}
        code, _ = run_cli(tmp_path, "evolve", cfg)
        assert code == 2
        assert "gamma" in capsys.readouterr().err

    def test_bad_initial_kind(self, tmp_path, capsys):
        cfg = dict(EVOLVE_CFG, initial={"kind": "square-wave"})
        code, _ = run_cli(tmp_path, "evolve", cfg)
        assert code == 2
        assert "initial.kind" in capsys.readouterr().err

    def test_zero_initial_data(self, tmp_path):
        cfg = dict(EVOLVE_CFG, initial={"kind": "gaussian", "amplitude": 0.0, "width": 1.0})
        code, out_dir = run_cli(tmp_path, "evolve", cfg)
        assert code == 0
        manifest = read_manifest(out_dir)
        assert manifest["exit_status"] == 0
        for name in manifest["outputs"]:
            assert (out_dir / name).exists()
        data = np.genfromtxt(out_dir / "snapshot_0000.csv", delimiter=",", names=True)
        assert np.all(data["zeta"] == 0.0)
        assert np.all(data["u"] == 0.0)

    def test_cfl_violation_is_config_error(self, tmp_path, capsys):
        cfg = dict(EVOLVE_CFG, dt=5.0)
        code, _ = run_cli(tmp_path, "evolve", cfg)
        assert code == 2
        assert "dt" in capsys.readouterr().err

    def test_config_roundtrip_reproduces_outputs(self, tmp_path):
        code, out_a = run_cli(tmp_path, "evolve", EVOLVE_CFG, out="a")
        assert code == 0
        manifest = read_manifest(out_a)
        code, out_b = run_cli(tmp_path, "evolve", manifest["config"], out="b")
        assert code == 0
        for name in manifest["outputs"]:
            if name.endswith(".csv"):
                assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    def test_numerical_failure_exit_code(self, tmp_path):
        # far-too-large data diverges within the step-size guard; the failing
        # time must land in the manifest
        cfg = dict(EVOLVE_CFG, t_end=2.0, dt=0.05,
                   initial={"kind": "gaussian", "amplitude": 20.0, "width": 1.0})
        code, out_dir = run_cli(tmp_path, "evolve", cfg)
        assert code == 3
        manifest = read_manifest(out_dir)
        assert manifest["exit_status"] == 3
        assert manifest["failing_time"] > 0.0

    def test_from_file_initial(self, tmp_path):
        # a wave produced by the solitary command feeds back in as initial data
        code, wave_dir = run_cli(tmp_path, "solitary", SOLITARY_CFG, out="wave")
        assert code == 0
        cfg = {
            "regime": "ilw", "gamma": 0.8, "alpha": 1.2,
            "l": 32.0, "N": 256, "t_end": 0.1, "dt": 0.01,
            "initial": {"kind": "from-file", "path": str(wave_dir / "wave.csv")},
        }
        code, out_dir = run_cli(tmp_path, "evolve", cfg, out="evolved")
        assert code == 0
        assert (out_dir / "snapshot_0000.csv").exists()

    def test_from_file_grid_mismatch(self, tmp_path, capsys):
        code, wave_dir = run_cli(tmp_path, "solitary", SOLITARY_CFG, out="wave")
        assert code == 0
        cfg = {
            "regime": "ilw", "gamma": 0.8, "alpha": 1.2,
            "l": 32.0, "N": 128, "t_end": 0.1, "dt": 0.01,
            "initial": {"kind": "from-file", "path": str(wave_dir / "wave.csv")},
        }
        code, _ = run_cli(tmp_path, "evolve", cfg)
        assert code == 2
        assert "initial.path" in capsys.readouterr().err

    def test_from_file_nodes_off_by_more_than_the_tolerance(self, tmp_path, capsys):
        # nodes of l = 32.0002 differ from those of l = 32 by up to 2e-4, a
        # relative 6e-6 that a default rtol of 1e-5 would let through
        grid = SpectralGrid(32.0002, 256)
        rows = [f"{x:.17g},{0.1 * np.exp(-x * x):.17g},0.0\n" for x in grid.nodes]
        profile = tmp_path / "profile.csv"
        profile.write_text("x,zeta,u\n" + "".join(rows))
        cfg = dict(EVOLVE_CFG, l=32.0, N=256, initial={"kind": "from-file", "path": str(profile)})
        code, out_dir = run_cli(tmp_path, "evolve", cfg)
        assert code == 2
        error = read_manifest(out_dir)["error"]
        assert "initial.path" in error and "x column does not match" in error
        assert capsys.readouterr().err == error + "\n"

    @pytest.mark.parametrize("offset, code", [(0.5e-9, 0), (1.5e-9, 2)])
    def test_from_file_nodes_match_to_1e_9_l(self, tmp_path, offset, code):
        grid = SpectralGrid(32.0, 64)
        rows = [f"{x!r},{0.1 * math.exp(-x * x)!r},0.0\n"
                for x in (grid.nodes + offset * grid.half_length).tolist()]
        profile = tmp_path / "profile.csv"
        profile.write_text("x,zeta,u\n" + "".join(rows))
        cfg = dict(EVOLVE_CFG, l=32.0, N=64, initial={"kind": "from-file", "path": str(profile)})
        assert run_cli(tmp_path, "evolve", cfg)[0] == code

    @pytest.mark.parametrize("column", ["zeta", "u"])
    @pytest.mark.parametrize("cell", ["nan", "inf", "abc", ""])
    def test_from_file_bad_value_is_config_error(self, tmp_path, capsys, column, cell):
        grid = SpectralGrid(EVOLVE_CFG["l"], 32)
        rows = [[f"{x:.17g}", f"{0.1 * np.exp(-x * x):.17g}", "0.0"] for x in grid.nodes]
        rows[5][1 if column == "zeta" else 2] = cell
        profile = tmp_path / "profile.csv"
        profile.write_text("x,zeta,u\n" + "".join(",".join(r) + "\n" for r in rows))
        cfg = dict(EVOLVE_CFG, N=32, initial={"kind": "from-file", "path": str(profile)})
        code, out_dir = run_cli(tmp_path, "evolve", cfg)
        assert code == 2
        error = read_manifest(out_dir)["error"]
        assert "initial.path" in error and "non-finite" in error
        assert capsys.readouterr().err == error + "\n"  # no RuntimeWarning either
        assert not list(out_dir.glob("snapshot*"))

    @pytest.mark.parametrize("text", ["", "\n  \n"], ids=["empty", "blank"])
    def test_from_file_without_a_header_is_config_error(self, tmp_path, capsys, text):
        profile = tmp_path / "profile.csv"
        profile.write_text(text)
        cfg = dict(EVOLVE_CFG, initial={"kind": "from-file", "path": str(profile)})
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out_dir = run_cli(tmp_path, "evolve", cfg)
        assert [str(w.message) for w in caught] == []
        assert code == 2
        error = read_manifest(out_dir)["error"]
        assert "initial.path" in error and "no header line" in error
        assert capsys.readouterr().err == error + "\n"

    def test_last_full_step_and_the_remainder_step_are_stamped_apart(self, tmp_path):
        # t_end = 0.035, dt = 0.01: three full steps, then one of 0.005;
        # record_every = 3 divides the full steps, so a snapshot lands on
        # the last full step, at 3 dt, and the final one at t_end
        cfg = dict(EVOLVE_CFG, t_end=0.035, dt=0.01, record_every=3)
        code, out_dir = run_cli(tmp_path, "evolve", cfg)
        assert code == 0
        index = json.loads((out_dir / "snapshots_manifest.json").read_text())
        assert index["times"] == [0.0, 3 * 0.01, 0.035]
        for name, t in zip(index["files"], index["times"]):
            rows = list(csv.DictReader((out_dir / name).read_text().splitlines()))
            assert {row["t"] for row in rows} == {repr(t)}

    @pytest.mark.parametrize("t_end, dt, expected", [
        pytest.param(1.0, 0.01, 10, id="t_end-1"),
        pytest.param(0.5, 0.01, 5, id="t_end-below-1"),
        pytest.param(0.05, 0.1, 1, id="dt-above-t_end"),
        pytest.param(1.0, 0.0, 1, id="dt-0"),
        pytest.param(0.0, 0.1, 1, id="t_end-0"),
    ])
    def test_default_record_every(self, t_end, dt, expected):
        # about ten snapshots a run, and a step count that is not positive
        # resolves without dividing by it (the library then rejects dt = 0)
        assert cli._default_record_every({"t_end": t_end, "dt": dt}) == expected

    @pytest.mark.parametrize("t_end, dt, snapshots", [(1.0, 0.01, 11), (0.005, 0.01, 2)])
    def test_default_record_every_in_a_run(self, tmp_path, t_end, dt, snapshots):
        cfg = {k: v for k, v in dict(EVOLVE_CFG, t_end=t_end, dt=dt).items() if k != "record_every"}
        code, out_dir = run_cli(tmp_path, "evolve", cfg)
        manifest = read_manifest(out_dir)
        assert code == 0 and manifest["snapshots"] == snapshots
        assert manifest["config"]["record_every"] == (10 if snapshots == 11 else 1)

    def test_zero_dt_without_record_every_is_a_config_error(self, tmp_path, capsys):
        cfg = {k: v for k, v in dict(EVOLVE_CFG, dt=0.0).items() if k != "record_every"}
        code, _ = run_cli(tmp_path, "evolve", cfg)
        assert code == 2
        assert capsys.readouterr().err.startswith("config error:")


def singular_speed():
    """Mode 5 of the ILW grid l = 64, N = 64 (gamma 0.8, alpha 1.2) and the
    speed that puts it in the discrete linear spectrum."""
    kt = SpectralGrid(64.0, 64).wavenumbers[5]
    g = float(symbol_g(ModelParams(0.8, 1.2, ILW), kt))
    beta = (1.2 - 1.0) / 1.2
    return kt, float(np.sqrt((0.2 / 0.8) * (1 + beta * g) / (1 + g)))


class TestSolitaryCommand:
    def test_converged_run(self, tmp_path):
        code, out_dir = run_cli(tmp_path, "solitary", SOLITARY_CFG)
        assert code == 0
        manifest = read_manifest(out_dir)
        assert manifest["termination"] == "converged"
        assert set(manifest["outputs"]) == {"wave.csv", "trace.csv"}
        trace = np.genfromtxt(out_dir / "trace.csv", delimiter=",", names=True,
                              dtype=None, encoding="utf-8")
        assert trace["residual"][-1] <= 1e-10

    def test_iteration_cap_exit_code(self, tmp_path):
        cfg = dict(SOLITARY_CFG, max_iter=5)
        code, out_dir = run_cli(tmp_path, "solitary", cfg)
        assert code == 4
        with open(out_dir / "trace.csv") as handle:
            rows = handle.read().strip().splitlines()
        assert len(rows) == 1 + 6  # header, the seed and one row per solve

    def test_singular_speed_exit_code(self, tmp_path):
        kt, c_sing = singular_speed()
        cfg = dict(SOLITARY_CFG, c=c_sing, l=64.0, N=64)
        code, out_dir = run_cli(tmp_path, "solitary", cfg)
        assert code == 5
        manifest = read_manifest(out_dir)
        assert manifest["termination"] == "singular-mode"
        assert abs(manifest["ktilde"]) == pytest.approx(abs(kt), rel=1e-12)

    def test_deterministic_outputs(self, tmp_path):
        code, out_a = run_cli(tmp_path, "solitary", SOLITARY_CFG, out="a")
        code_b, out_b = run_cli(tmp_path, "solitary", SOLITARY_CFG, out="b")
        assert code == code_b == 0
        assert (out_a / "wave.csv").read_bytes() == (out_b / "wave.csv").read_bytes()
        assert (out_a / "trace.csv").read_bytes() == (out_b / "trace.csv").read_bytes()


class TestVerifyCommand:
    def test_convergence_experiment_passes(self, tmp_path):
        cfg = {"experiments": [{
            "kind": "convergence", "regime": "bo", "gamma": 0.8, "alpha": 1.2,
            "l": 16.0, "resolutions": [32, 64, 128], "t_end": 0.5, "dt": 0.002,
            "amplitude": 0.1, "width": 1.2,
        }]}
        code, out_dir = run_cli(tmp_path, "verify", cfg)
        assert code == 0
        assert (out_dir / "convergence_report.csv").exists()
        with open(out_dir / "summary.json") as handle:
            summary = json.load(handle)
        assert summary["all_pass"] is True

    def test_decay_experiment_on_smooth_wave(self, tmp_path):
        cfg = {"experiments": [{
            "kind": "decay", "regime": "ilw", "gamma": 0.8, "alpha": 1.2,
            "c": 0.40, "l": 32.0, "N": 512, "tol": 1e-10, "max_iter": 500,
            "model": "compare",
        }]}
        code, out_dir = run_cli(tmp_path, "verify", cfg)
        assert code == 0
        with open(out_dir / "decay_fit.json") as handle:
            fit = json.load(handle)
        assert fit["model"] == "exponential"
        assert fit["quality"] >= 0.99

    def test_roundtrip_experiment(self, tmp_path):
        cfg = {"experiments": [{
            "kind": "roundtrip", "regime": "bo", "gamma": 0.8, "alpha": 1.2,
            "c": 0.57, "l": 64.0, "N": 512, "tol": 1e-10, "max_iter": 500,
            "t_end": 0.5, "dt": 0.01, "threshold": 1e-6,
        }]}
        code, out_dir = run_cli(tmp_path, "verify", cfg)
        assert code == 0
        with open(out_dir / "roundtrip.json") as handle:
            payload = json.load(handle)
        assert payload["pass"] is True
        assert payload["deviation"] <= 1e-6

    def test_roundtrip_threshold_defaults_to_1e_6(self, tmp_path):
        block = {"kind": "roundtrip", "regime": "bo", "gamma": 0.8, "alpha": 1.2,
                 "c": 0.57, "l": 64.0, "N": 512, "tol": 1e-10, "max_iter": 500,
                 "t_end": 0.5, "dt": 0.01}
        code, out_dir = run_cli(tmp_path, "verify", {"experiments": [block]})
        assert code == 0
        assert read_manifest(out_dir)["config"]["experiments"][0]["threshold"] == 1e-6

    def test_accel_experiment_and_trace_files(self, tmp_path):
        cfg = {"experiments": [{
            "kind": "accel", "regime": "bo", "gamma": 0.8, "alpha": 1.2,
            "c": 0.57, "l": 64.0, "N": 512, "tol": 1e-10, "max_iter": 500,
            "mw_list": [1, 2],
        }]}
        code, out_dir = run_cli(tmp_path, "verify", cfg)
        assert code == 0
        assert (out_dir / "acceleration_table.csv").exists()
        assert (out_dir / "trace_mw1.csv").exists()
        assert (out_dir / "trace_mw2.csv").exists()

    def test_failing_threshold_exits_six(self, tmp_path):
        cfg = {"experiments": [{
            "kind": "convergence", "regime": "bo", "gamma": 0.8, "alpha": 1.2,
            "l": 16.0, "resolutions": [32, 64, 128], "t_end": 0.5, "dt": 0.002,
            "amplitude": 0.1, "width": 1.2, "min_ratio": 1e9,
        }]}
        code, out_dir = run_cli(tmp_path, "verify", cfg)
        assert code == 6
        with open(out_dir / "summary.json") as handle:
            summary = json.load(handle)
        assert summary["all_pass"] is False

    def test_report_tables_match_a_csv_writer_rendering_of_the_summary(self, tmp_path):
        # the report files hold, byte for byte, the numbers summary.json gives
        accel = {"kind": "accel", "regime": "bo", "gamma": 0.8, "alpha": 1.2,
                 "c": 0.57, "l": 16.0, "N": 64, "max_iter": 20, "mw_list": [1, 2]}
        singular = dict(accel, regime="ilw", c=singular_speed()[1], l=64.0, mw_list=[1])
        code, out_dir = run_cli(tmp_path, "verify",
                                {"experiments": [CONVERGENCE_BLOCK, accel, singular]})
        assert code == 6
        convergence, *accels = json.loads((out_dir / "summary.json").read_text())["experiments"]

        def rendered(header, rows):
            handle = io.StringIO()
            writer = csv.writer(handle, lineterminator="\n")
            writer.writerow(header)
            writer.writerows(rows)
            return handle.getvalue()

        detail = convergence["detail"]
        rates = [math.nan] + detail["rates"]
        assert (out_dir / "convergence_report.csv").read_text() == rendered(
            ["N", "error", "rate"], zip(detail["resolutions"], detail["errors"], rates))
        statuses = []
        for block, name in zip(accels, ["acceleration_table.csv", "acceleration_table_2.csv"]):
            text = (out_dir / name).read_text()
            seconds = [float(row["seconds"]) for row in csv.DictReader(io.StringIO(text))]
            detail = block["detail"]
            rows = [(int(mw), detail["iterations"][mw], t, detail["status"][mw])
                    for mw, t in zip(detail["iterations"], seconds)]
            assert text == rendered(["mw", "iterations", "seconds", "status"], rows)
            statuses += [row[3] for row in rows]
        assert statuses[:2] == ["not-converged"] * 2
        assert statuses[2].startswith("singular-mode ktilde=")

    def test_decay_blocks_of_each_model(self, tmp_path):
        # each report and summary detail, as the model's own rule gives it
        # from the library's fits; the failed fit leaves no report
        blocks = [DECAY_ILW, DECAY_BO, dict(DECAY_BO, l=4.0, N=64, model="compare"),
                  dict(DECAY_ILW, model="compare"), dict(DECAY_BO, model="compare"),
                  dict(DECAY_ILW, N=256, model="compare", min_quality=0.5)]
        code, out_dir = run_cli(tmp_path, "verify", {"experiments": blocks})
        assert code == 6
        summary = json.loads((out_dir / "summary.json").read_text())["experiments"]
        assert [entry["pass"] for entry in summary] == [True, True, False, True, False, False]
        assert summary[2]["detail"]["error"].startswith("profile does not decay below 1/e")
        assert not (out_dir / "decay_fit_3.json").exists()
        for i, (block, entry) in enumerate(zip(blocks, summary)):
            if i == 2:
                continue
            grid = SpectralGrid(block["l"], block["N"])
            wave, _ = accel.cycled_solve(ModelParams(0.8, 1.2, block["regime"]), grid,
                                         SolitaryConfig(block["c"], mw=block.get("mw", 1)))
            zeta = state_to_nodal(grid, wave)[0]
            fits = {model: decay_fit(grid, zeta, model) for model in ("exponential", "algebraic")}
            exp, alg = fits["exponential"], fits["algebraic"]
            min_quality = block.get("min_quality", 0.99)
            if block["model"] == "algebraic":
                ok = abs(alg.fitted_rate - 2.0) <= 0.3
                detail = {"model": "algebraic", "rate": alg.fitted_rate,
                          "quality": alg.fit_quality, "rate_target": 2.0, "rate_tol": 0.3}
            elif block["model"] == "exponential":
                ok = exp.fit_quality >= min_quality
                detail = {"model": "exponential", "rate": exp.fitted_rate,
                          "quality": exp.fit_quality, "min_quality": min_quality}
            else:
                ok = exp.fit_quality >= min_quality and exp.fit_quality > alg.fit_quality
                detail = {"model": "compare",
                          "exponential": {"rate": exp.fitted_rate, "quality": exp.fit_quality},
                          "algebraic": {"rate": alg.fitted_rate, "quality": alg.fit_quality},
                          "min_quality": min_quality}
            assert entry == {"kind": "decay", "pass": ok, "detail": detail}
            fit = alg if block["model"] == "algebraic" else exp
            record = {"model": fit.model, "rate": fit.fitted_rate, "quality": fit.fit_quality,
                      "window": list(fit.window), "n_points": fit.n_points, "pass": ok}
            if block["model"] == "compare":
                record["algebraic_quality"] = alg.fit_quality
            tag = f"_{i + 1}" if i else ""
            assert json.loads((out_dir / f"decay_fit{tag}.json").read_text()) == record

    def test_repeated_kinds_are_numbered_per_kind(self, tmp_path):
        blocks = [CONVERGENCE_BLOCK, DECAY_ILW, CONVERGENCE_BLOCK, DECAY_BO,
                  dict(DECAY_ILW, model="compare")]
        code, out_dir = run_cli(tmp_path, "verify", {"experiments": blocks})
        assert code == 0
        assert sorted(read_manifest(out_dir)["outputs"]) == [
            "convergence_report.csv", "convergence_report_2.csv", "decay_fit.json",
            "decay_fit_2.json", "decay_fit_3.json", "summary.json"]
        reports = [json.loads((out_dir / f"decay_fit{tag}.json").read_text())
                   for tag in ("", "_2", "_3")]
        assert [r["model"] for r in reports] == ["exponential", "algebraic", "exponential"]
        assert ["algebraic_quality" in r for r in reports] == [False, False, True]

    def test_unknown_experiment_kind(self, tmp_path, capsys):
        cfg = {"experiments": [{"kind": "bisection"}]}
        code, _ = run_cli(tmp_path, "verify", cfg)
        assert code == 2
        assert "kind" in capsys.readouterr().err


class TestFileFormats:
    def test_wave_csv_roundtrips_binary_exact(self, tmp_path):
        # shortest round-trip decimals: reloading reproduces the exact values
        from ilwbo.io_utils import read_profile_csv, write_wave_csv
        from ilwbo.spectral import state_from_nodal, state_to_nodal

        grid = SpectralGrid(8.0, 64)
        rng = np.random.default_rng(31)
        zeta = rng.standard_normal(64)
        u = rng.standard_normal(64)
        state = state_from_nodal(grid, zeta, u)
        zeta_s, u_s = state_to_nodal(grid, state)
        path = str(tmp_path / "wave.csv")
        write_wave_csv(path, grid, state)
        x_r, zeta_r, u_r = read_profile_csv(path)
        assert np.array_equal(x_r, grid.nodes)
        assert np.array_equal(zeta_r, zeta_s)
        assert np.array_equal(u_r, u_s)


class TestConfigHandling:
    def test_unreadable_config(self, tmp_path, capsys):
        code = main(["evolve", "--config", str(tmp_path / "missing.json"),
                     "--out", str(tmp_path / "out"), "--quiet"])
        assert code == 2
        assert "config error" in capsys.readouterr().err

    def test_invalid_json(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code = main(["evolve", "--config", str(bad), "--out", str(tmp_path / "out")])
        assert code == 2
        assert "config error" in capsys.readouterr().err

    def test_manifest_wall_time_is_the_run_time(self, tmp_path):
        started = time.perf_counter()
        code, out_dir = run_cli(tmp_path, "evolve", EVOLVE_CFG)
        elapsed = time.perf_counter() - started
        assert code == 0 and 0.0 < read_manifest(out_dir)["wall_time_seconds"] <= elapsed

    def test_manifest_lists_every_output(self, tmp_path):
        code, out_dir = run_cli(tmp_path, "evolve", EVOLVE_CFG)
        assert code == 0
        manifest = read_manifest(out_dir)
        emitted = {p for p in os.listdir(out_dir) if p != "manifest.json"}
        assert emitted == set(manifest["outputs"])


CONVERGENCE_BLOCK = {
    "kind": "convergence", "regime": "bo", "gamma": 0.8, "alpha": 1.2,
    "l": 16.0, "resolutions": [16, 32, 64], "t_end": 0.1, "dt": 0.01,
}


# Diverges within the step-size guard: the step to t = 1.1 is the first to fail.
DIVERGING_EVOLVE = dict(EVOLVE_CFG, l=16.0, dt=0.1, initial={
    "kind": "gaussian", "amplitude": 50.0, "width": 1.0})


ACCEL_BLOCK = {"kind": "accel", "regime": "bo", "gamma": 0.8, "alpha": 1.2,
               "c": 0.57, "l": 16.0, "N": 64, "max_iter": 50, "mw_list": [1, 2]}


ROUNDTRIP_BLOCK = {
    "kind": "roundtrip", "regime": "bo", "gamma": 0.8, "alpha": 1.2,
    "c": 0.57, "l": 32.0, "N": 256, "t_end": 0.1, "dt": 0.01,
}

# An ILW wave whose tail is exponential, and a B-O wave whose tail is algebraic.
DECAY_ILW = {
    "kind": "decay", "regime": "ilw", "gamma": 0.8, "alpha": 1.2,
    "c": 0.40, "l": 32.0, "N": 512, "model": "exponential",
}
DECAY_BO = {
    "kind": "decay", "regime": "bo", "gamma": 0.8, "alpha": 1.2,
    "c": 0.57, "l": 128.0, "N": 1024, "mw": 2, "model": "algebraic",
}


def trace_rows(out_dir):
    with open(out_dir / "trace.csv") as handle:
        return list(csv.DictReader(handle))


def listed_outputs_are_on_disk(out_dir):
    """The manifest lists exactly the files the run left in the output directory."""
    on_disk = {p for p in os.listdir(out_dir) if p != "manifest.json"}
    return on_disk == set(read_manifest(out_dir)["outputs"])


# The benchmark's evolve-snapshots run: N = 4096, 100 RK4 steps.
SNAPSHOT_EVOLVE = dict(EVOLVE_CFG, l=256.0, N=4096, dt=0.0625, t_end=6.25, initial={
    "kind": "sech2", "amplitude": 0.2, "width": 0.8})


def evolve_peak_bytes(tmp_path, record_every):
    """tracemalloc's peak over one `ilwbo evolve` of SNAPSHOT_EVOLVE."""
    tracemalloc.start()
    try:
        code, _ = run_cli(tmp_path, "evolve", dict(SNAPSHOT_EVOLVE, record_every=record_every),
                          out=f"every{record_every}")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0
    return peak


def test_evolve_memory_does_not_grow_with_the_snapshot_count(tmp_path):
    # snapshots are written as they are taken, so 101 of them cost what 11 do;
    # the warm-up's 33 snapshots start the worker pool, whose one-time imports
    # are then not charged to the 101-snapshot run
    warm_up = dict(SNAPSHOT_EVOLVE, t_end=2.0, record_every=1)
    assert 32 * 2 * warm_up["N"] >= io_utils.POOL_MIN_VALUES
    run_cli(tmp_path, "evolve", warm_up, out="warm-up")
    assert evolve_peak_bytes(tmp_path, 1) <= 1.5 * evolve_peak_bytes(tmp_path, 10)


# An evolve whose 21 snapshots are each taken one step apart.
POOLED_EVOLVE = dict(EVOLVE_CFG, N=256, record_every=1)

_WRITE_SNAPSHOT = io_utils._write_snapshot
_TEST_PID = os.getpid()


def _exit_on_the_third_snapshot(path, *args):
    """A pool job whose worker dies, as a killed one would, at snapshot 2;
    run in this process, it writes the snapshot."""
    if path.endswith("snapshot_0002.csv") and os.getpid() != _TEST_PID:
        os._exit(1)
    _WRITE_SNAPSHOT(path, *args)


def _logged_snapshot(path, *args):
    """`_write_snapshot`, logging the process that ran it and the file to
    `<output directory>.jobs`."""
    with open(os.path.dirname(path) + ".jobs", "a") as log:
        log.write(f"{os.getpid()} {os.path.basename(path)}\n")
    _WRITE_SNAPSHOT(path, *args)


def snapshot_jobs(out_dir):
    """The (pid, file) pairs `_logged_snapshot` logged for `out_dir`."""
    lines = pathlib.Path(f"{out_dir}.jobs").read_text().split()
    return list(zip(map(int, lines[::2]), lines[1::2]))


POOLED_SNAPSHOTS = [f"snapshot_{i:04d}.csv" for i in range(21)]


def test_in_process_snapshots_run_the_pool_job(tmp_path, monkeypatch):
    monkeypatch.setattr(io_utils, "POOL_MIN_VALUES", float("inf"))
    monkeypatch.setattr(io_utils, "_write_snapshot", _logged_snapshot)
    code, out_dir = run_cli(tmp_path, "evolve", POOLED_EVOLVE)
    assert code == 0
    assert snapshot_jobs(out_dir) == [(_TEST_PID, name) for name in POOLED_SNAPSHOTS]


_FORK_JOBS = io_utils.ForkJobs


@pytest.fixture
def pool_workers(monkeypatch):
    """Every evolve formats its snapshots on worker processes, as large runs
    do; yields the worker count of each writer's runner."""
    if not io_utils.fork_workers():
        pytest.skip("the snapshot pool needs fork and at least 2 CPUs")
    chosen = []

    def recording(workers, *args):
        runner = _FORK_JOBS(workers, *args)
        chosen.append(runner.workers)
        return runner

    monkeypatch.setattr(io_utils, "POOL_MIN_VALUES", 0)
    monkeypatch.setattr(io_utils, "ForkJobs", recording)
    return chosen


def same_outputs(a, b):
    """Both runs wrote the same files, byte for byte, and the same manifest
    apart from its wall time."""
    manifests = [read_manifest(d) for d in (a, b)]
    for manifest in manifests:
        del manifest["wall_time_seconds"]
    names = manifests[0]["outputs"]
    return (manifests[0] == manifests[1] and sorted(os.listdir(a)) == sorted(os.listdir(b))
            and all((a / n).read_bytes() == (b / n).read_bytes() for n in names))


class TestSnapshotPool:
    """The pool path against the in-process path of the same runs."""

    def test_writes_the_same_files_and_index(self, tmp_path, pool_workers):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(io_utils, "POOL_MIN_VALUES", float("inf"))
            assert run_cli(tmp_path, "evolve", POOLED_EVOLVE, out="in-process")[0] == 0
        code, pooled = run_cli(tmp_path, "evolve", POOLED_EVOLVE, out="pooled")
        assert code == 0 and pool_workers[-1] >= 2
        assert len(read_manifest(pooled)["outputs"]) == 22
        assert same_outputs(tmp_path / "in-process", pooled)

    def test_worker_write_error_exits_2_naming_the_file(self, tmp_path, capsys, pool_workers):
        blocked = tmp_path / "out" / "snapshot_0003.csv"
        blocked.mkdir(parents=True)
        code, out_dir = run_cli(tmp_path, "evolve", POOLED_EVOLVE)
        assert code == 2 and pool_workers[-1] >= 2
        err = capsys.readouterr().err
        assert err.startswith("output error:") and err.rstrip().endswith("snapshot_0003.csv'")
        assert "Traceback" not in err
        outputs = read_manifest(out_dir)["outputs"]
        assert outputs[:3] == [f"snapshot_{i:04d}.csv" for i in range(3)]
        assert "snapshot_0003.csv" not in outputs and outputs[-1] == "snapshots_manifest.json"
        index = json.loads((out_dir / "snapshots_manifest.json").read_text())
        assert index["files"] == outputs[:-1]
        assert not list(out_dir.glob("*.tmp"))
        blocked.rmdir()
        assert listed_outputs_are_on_disk(out_dir)

    def test_step_failure_keeps_the_earlier_snapshots_and_index(self, tmp_path, pool_workers):
        cfg = dict(DIVERGING_EVOLVE, t_end=1000.0, record_every=1)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(io_utils, "POOL_MIN_VALUES", float("inf"))
            assert run_cli(tmp_path, "evolve", cfg, out="in-process")[0] == 3
        code, pooled = run_cli(tmp_path, "evolve", cfg, out="pooled")
        assert code == 3 and pool_workers[-1] >= 2
        assert len(read_manifest(pooled)["outputs"]) == 12
        assert same_outputs(tmp_path / "in-process", pooled)
        assert listed_outputs_are_on_disk(pooled)

    def test_a_worker_that_dies_falls_back_to_writing_in_process(self, tmp_path, monkeypatch,
                                                                 pool_workers):
        code, _ = run_cli(tmp_path, "evolve", POOLED_EVOLVE, out="whole")
        assert code == 0
        monkeypatch.setattr(io_utils, "_write_snapshot", _exit_on_the_third_snapshot)
        code, out_dir = run_cli(tmp_path, "evolve", POOLED_EVOLVE, out="broken")
        assert code == 0 and pool_workers[-1] >= 2
        assert same_outputs(tmp_path / "whole", out_dir)
        assert not list(out_dir.glob("*.tmp"))

    def test_workers_run_the_job_the_in_process_path_runs(self, tmp_path, monkeypatch,
                                                         pool_workers):
        monkeypatch.setattr(io_utils, "_write_snapshot", _logged_snapshot)
        code, out_dir = run_cli(tmp_path, "evolve", POOLED_EVOLVE)
        assert code == 0 and pool_workers[-1] >= 2
        jobs = snapshot_jobs(out_dir)
        assert sorted(name for _, name in jobs) == POOLED_SNAPSHOTS
        assert _TEST_PID not in {pid for pid, _ in jobs}

    def test_write_error_inside_a_batch_lists_the_files_before_it(self, tmp_path, capsys,
                                                                  pool_workers):
        # the second snapshot of the second job (snapshot_0005.csv in jobs of
        # four) is blocked: that job writes the one before it, then stops
        per_job = io_utils.SNAPSHOTS_PER_JOB
        assert per_job >= 3  # a file before the blocked one in its job, and one after
        blocked = per_job + 1
        name = f"snapshot_{blocked:04d}.csv"
        for out in ("in-process", "pooled"):
            (tmp_path / out / name).mkdir(parents=True)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(io_utils, "POOL_MIN_VALUES", float("inf"))
            assert run_cli(tmp_path, "evolve", POOLED_EVOLVE, out="in-process")[0] == 2
        capsys.readouterr()
        code, pooled = run_cli(tmp_path, "evolve", POOLED_EVOLVE, out="pooled")
        assert code == 2 and pool_workers[-1] >= 2
        err = capsys.readouterr().err
        assert err.startswith("output error:") and err.rstrip().endswith(f"{name}'")
        before = POOLED_SNAPSHOTS[:blocked]
        assert read_manifest(tmp_path / "in-process")["outputs"] == before + [
            "snapshots_manifest.json"]
        outputs = read_manifest(pooled)["outputs"]
        assert outputs[:blocked] == before and outputs[-1] == "snapshots_manifest.json"
        assert json.loads((pooled / "snapshots_manifest.json").read_text())["files"] == \
            outputs[:-1]
        assert name not in outputs
        rest_of_its_job = set(POOLED_SNAPSHOTS[blocked + 1:2 * per_job])
        assert rest_of_its_job and not rest_of_its_job & (set(outputs) | set(os.listdir(pooled)))
        assert not list(pooled.glob("*.tmp"))
        # the later jobs already sent are written, and listed once complete
        (pooled / name).rmdir()
        assert listed_outputs_are_on_disk(pooled)

    def test_step_failure_inside_a_batch_keeps_the_snapshots_not_yet_sent(self, tmp_path,
                                                                         pool_workers):
        # the step to t = 1.1 fails after 11 snapshots, so the last job's
        # batch is not full: `close` sends it, and the index names it
        cfg = dict(DIVERGING_EVOLVE, t_end=1000.0, record_every=1)
        assert 11 % io_utils.SNAPSHOTS_PER_JOB
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(io_utils, "POOL_MIN_VALUES", float("inf"))
            assert run_cli(tmp_path, "evolve", cfg, out="in-process")[0] == 3
        code, pooled = run_cli(tmp_path, "evolve", cfg, out="pooled")
        assert code == 3 and pool_workers[-1] >= 2
        names = [f"snapshot_{i:04d}.csv" for i in range(11)]
        index = json.loads((pooled / "snapshots_manifest.json").read_text())
        assert index["files"] == names
        assert index["times"] == [0.0] + [i * 0.1 for i in range(1, 11)]
        assert read_manifest(pooled)["outputs"] == names + ["snapshots_manifest.json"]
        assert same_outputs(tmp_path / "in-process", pooled)
        assert listed_outputs_are_on_disk(pooled)

    def test_a_job_sends_its_spectra_and_one_node_matrix(self, tmp_path, monkeypatch,
                                                         pool_workers):
        # per snapshot a half spectrum, 16 (N + 2) bytes, and at most 1 kB for
        # its path, time and pickle framing; the run's own grid, which pickles
        # as (l, N) though it is in use, and not a node matrix per snapshot
        sent = []
        submit = _FORK_JOBS.submit

        def recording(runner, fn, *args):
            sent.append((fn, args))
            return submit(runner, fn, *args)

        monkeypatch.setattr(_FORK_JOBS, "submit", recording)
        params = ModelParams(0.8, 1.2, BO)
        grid = SpectralGrid(16.0, 1024)
        state = state_from_nodal(grid, np.exp(-grid.nodes ** 2), np.zeros(grid.n_modes))
        per_snapshot = 16 * (grid.n_modes + 2) + 1024
        assert len(pickle.dumps(grid)) < 128  # in use, its tables cached: not pickled
        writer = io_utils.SnapshotWriter(io_utils.OutputDir(str(tmp_path)), grid, params, 99)
        for i in range(io_utils.SNAPSHOTS_PER_JOB + 1):
            writer.write(0.25 * i, StatePair(state.half.copy()))
        writer.close()
        assert pool_workers[-1] >= 2
        jobs = [args for fn, args in sent if fn is io_utils._write_snapshots]
        assert [len(args[2]) for args in jobs] == [io_utils.SNAPSHOTS_PER_JOB, 1]
        nodes = len(pickle.dumps(io_utils._node_bytes(grid.nodes)))
        for args in jobs:
            assert args[0] is grid
            assert len(pickle.dumps(args)) < nodes + len(args[2]) * per_snapshot


def test_importing_the_cli_imports_no_process_pool():
    # the snapshot and study pools import their machinery on first use, so a
    # run that builds no pool does not pay for it; concurrent.futures itself
    # comes with numpy.testing, which scipy imports
    probe = ("import sys, ilwbo.cli; "
             "print([m for m in ('multiprocessing', 'concurrent.futures.process') "
             "if m in sys.modules])")
    src = str(pathlib.Path(cli.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get(
        "PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env=env, timeout=60, check=True)
    assert done.stdout.strip() == "[]"


def _children(pid):
    try:
        with open(f"/proc/{pid}/task/{pid}/children") as handle:
            return [int(child) for child in handle.read().split()]
    except FileNotFoundError:
        return []


def _start_time(pid):
    """The start time of process `pid` while it runs; None once it is gone or
    a zombie, which no reaper may collect in a container."""
    try:
        with open(f"/proc/{pid}/stat") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
    except (FileNotFoundError, ProcessLookupError):
        return None
    return None if fields[0] in "ZX" else fields[19]


@pytest.mark.skipif(not os.path.exists(f"/proc/{os.getpid()}/task/{os.getpid()}/children"),
                    reason="finds the workers through Linux's /proc children lists")
def test_a_sigkilled_run_leaves_no_worker_alive(tmp_path):
    # SIGKILL runs no cleanup in the parent: each snapshot worker asked for
    # SIGTERM on its parent's death when it started
    if not io_utils.fork_workers():
        pytest.skip("the snapshot pool needs fork and at least 2 CPUs")
    cfg = tmp_path / "config.json"
    # 101 snapshots of N = 4096, far past POOL_MIN_VALUES; 10 000 steps
    cfg.write_text(json.dumps(dict(EVOLVE_CFG, N=4096, l=64.0, t_end=100.0, record_every=100)))
    src = str(pathlib.Path(cli.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get(
        "PYTHONPATH")])))
    proc = subprocess.Popen([sys.executable, "-m", "ilwbo.cli", "evolve", "--config", str(cfg),
                             "--out", str(tmp_path / "out"), "--quiet"],
                            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, env=env)
    workers = {}
    try:
        deadline = time.monotonic() + 60
        while len(workers) < 2 and proc.poll() is None and time.monotonic() < deadline:
            for pid in _children(proc.pid):
                workers.setdefault(pid, _start_time(pid))
            time.sleep(0.01)
        assert len(workers) >= 2 and proc.poll() is None
        proc.kill()
        proc.wait()
        deadline = time.monotonic() + 2
        alive = list(workers)
        while alive and time.monotonic() < deadline:
            time.sleep(0.05)
            alive = [pid for pid, start in workers.items() if _start_time(pid) == start]
        assert alive == []
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        for pid, start in workers.items():
            if start is not None and _start_time(pid) == start:
                os.kill(pid, signal.SIGKILL)


class TestOutcomes:
    """Inputs that once escaped as tracebacks, and the exit code each maps to."""

    def test_evolve_does_not_allocate_for_the_end_time(self, tmp_path):
        code, out_dir = run_cli(tmp_path, "evolve", dict(DIVERGING_EVOLVE, t_end=1e12))
        assert code == 3
        assert read_manifest(out_dir)["exit_status"] == 3

    @pytest.mark.parametrize("cfg, n_outputs", [
        pytest.param(dict(DIVERGING_EVOLVE, t_end=1000.0, record_every=1), 12, id="step-failure"),
        pytest.param(dict(EVOLVE_CFG, dt=5.0), 0, id="step-guard"),  # fails before any snapshot
    ])
    def test_failed_evolve_leaves_only_its_listed_files(self, tmp_path, cfg, n_outputs):
        code, out_dir = run_cli(tmp_path, "evolve", cfg)
        assert code != 0
        assert len(read_manifest(out_dir)["outputs"]) == n_outputs
        assert not list(out_dir.glob("*.tmp"))
        assert listed_outputs_are_on_disk(out_dir)

    def test_step_failure_keeps_earlier_snapshots(self, tmp_path):
        cfg = dict(DIVERGING_EVOLVE, t_end=1000.0, record_every=1)
        code, out_dir = run_cli(tmp_path, "evolve", cfg)
        assert code == 3
        manifest = read_manifest(out_dir)
        assert manifest["failing_time"] == pytest.approx(1.1)
        index = json.loads((out_dir / "snapshots_manifest.json").read_text())
        assert index["times"] == pytest.approx([0.1 * i for i in range(11)])
        assert len(manifest["outputs"]) == 12
        assert listed_outputs_are_on_disk(out_dir)

    def test_overflowing_evolve_exits_3_at_the_failing_step(self, tmp_path):
        # the state overflows within the first step; the stepper checks each
        # step's result, so the message names the step, not a stage's input
        cfg = dict(EVOLVE_CFG, t_end=1.0, initial={
            "kind": "gaussian", "amplitude": 1e200, "width": 1.2})
        code, out_dir = run_cli(tmp_path, "evolve", cfg)
        assert code == 3
        manifest = read_manifest(out_dir)
        assert manifest["failing_time"] == 0.01
        assert manifest["error"] == "time step produced non-finite values"
        assert manifest["outputs"] == ["snapshot_0000.csv", "snapshots_manifest.json"]

    @pytest.mark.parametrize("t_end, failing_time", [(0.0, 0.0), (0.2, 0.01)])
    @pytest.mark.parametrize("amplitude", [sys.float_info.max, -sys.float_info.max])
    def test_non_finite_initial_state_exits_3_before_any_snapshot(self, tmp_path, t_end,
                                                                  failing_time, amplitude):
        # the largest double is finite, but the transform of its Gaussian
        # overflows: the state is checked before the first snapshot is taken
        cfg = dict(EVOLVE_CFG, t_end=t_end, initial=dict(EVOLVE_CFG["initial"],
                                                         amplitude=amplitude))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out_dir = run_cli(tmp_path, "evolve", cfg)
        assert code == 3
        manifest = read_manifest(out_dir)
        assert manifest["failing_time"] == failing_time
        assert manifest["error"] == "non-finite coefficients in the state"
        assert manifest["outputs"] == []
        assert listed_outputs_are_on_disk(out_dir)

    def test_unwritable_snapshot_index_does_not_hide_a_step_failure(self, tmp_path, monkeypatch):
        write_json = io_utils.write_json

        def fail_on_index(path, obj):
            if path.endswith("snapshots_manifest.json"):
                raise OSError("disk full")
            write_json(path, obj)

        monkeypatch.setattr(io_utils, "write_json", fail_on_index)
        code, out_dir = run_cli(tmp_path, "evolve",
                                dict(DIVERGING_EVOLVE, t_end=1000.0, record_every=1))
        assert code == 3
        manifest = read_manifest(out_dir)
        assert manifest["failing_time"] == pytest.approx(1.1)
        assert manifest["outputs"] == [f"snapshot_{i:04d}.csv" for i in range(11)]
        assert listed_outputs_are_on_disk(out_dir)

    def test_unwritable_output_is_an_output_error(self, tmp_path, capsys):
        # in-process: a directory stands where wave.csv goes
        (tmp_path / "out" / "wave.csv").mkdir(parents=True)
        cfg = json.loads((CONFIGS / "solitary_bo.json").read_text())
        code, out_dir = run_cli(tmp_path, "solitary", cfg)
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("output error: [Errno") and err.rstrip().endswith("wave.csv'")
        assert err.count("\n") == 1
        manifest = read_manifest(out_dir)
        assert manifest["error"] == err.rstrip() and manifest["outputs"] == []
        assert not list(out_dir.glob("*.tmp"))

    def test_file_size_limit_is_an_output_error(self, tmp_path):
        # a child run whose files may not grow past 20 kB: the first snapshot
        # fails with EFBIG, the small manifest is still written
        resource = pytest.importorskip("resource")
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(dict(EVOLVE_CFG, N=1024, l=64.0)))
        src = str(pathlib.Path(cli.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get(
            "PYTHONPATH")])))
        done = subprocess.run(
            [sys.executable, "-m", "ilwbo.cli", "evolve", "--config", str(cfg),
             "--out", str(tmp_path / "out"), "--quiet"],
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_FSIZE, (20_000, 20_000)),
            capture_output=True, text=True, env=env, timeout=60)
        assert done.returncode == 2
        assert done.stderr.startswith(f"output error: [Errno {errno.EFBIG}]")
        assert done.stderr.rstrip().endswith("snapshot_0000.csv'")
        assert read_manifest(tmp_path / "out")["error"] == done.stderr.rstrip()

    def test_failed_solitary_write_lists_the_wave_written_before_it(self, tmp_path):
        (tmp_path / "out" / "trace.csv").mkdir(parents=True)
        cfg = json.loads((CONFIGS / "solitary_bo.json").read_text())
        code, out_dir = run_cli(tmp_path, "solitary", cfg)
        assert code == 2
        assert read_manifest(out_dir)["outputs"] == ["wave.csv"]
        assert (out_dir / "wave.csv").is_file()

    def test_failed_report_write_fails_its_block_and_lists_the_reports_before_it(self, tmp_path):
        (tmp_path / "out" / "trace_mw2.csv").mkdir(parents=True)
        code, out_dir = run_cli(tmp_path, "verify", {"experiments": [ACCEL_BLOCK]})
        assert code == 2
        assert read_manifest(out_dir)["outputs"] == [
            "acceleration_table.csv", "trace_mw1.csv", "summary.json"]
        summary = json.loads((out_dir / "summary.json").read_text())
        assert summary["all_pass"] is False
        [failed] = summary["experiments"]
        assert failed["pass"] is False and "trace_mw2.csv" in failed["detail"]["error"]

    def test_a_failed_write_reads_the_same_in_every_run(self, tmp_path):
        # the error names the report, not the temp file its write went through
        (tmp_path / "out" / "trace_mw2.csv").mkdir(parents=True)
        summaries = []
        for _ in range(2):
            code, out_dir = run_cli(tmp_path, "verify", {"experiments": [ACCEL_BLOCK]})
            assert code == 2
            summaries.append((out_dir / "summary.json").read_bytes())
        assert summaries[0] == summaries[1]
        error = json.loads(summaries[0])["experiments"][0]["detail"]["error"]
        assert error.endswith("trace_mw2.csv'") and ".tmp" not in error

    def test_unwritable_summary_does_not_replace_the_block_error(self, tmp_path, capsys):
        (tmp_path / "out" / "summary.json").mkdir(parents=True)
        cfg = {"experiments": [dict(CONVERGENCE_BLOCK, dt=5.0)]}
        code, out_dir = run_cli(tmp_path, "verify", cfg)
        assert code == 2
        err = capsys.readouterr().err
        assert "dt=5.0" in err and "summary.json" not in err
        manifest = read_manifest(out_dir)
        assert "dt=5.0" in manifest["error"]
        assert manifest["outputs"] == []

    def test_accel_block_has_no_mw_key(self, tmp_path):
        # each width of mw_list sets its own mw, so a block's mw is dropped
        code, plain = run_cli(tmp_path, "verify", {"experiments": [ACCEL_BLOCK]}, out="plain")
        code_mw, with_mw = run_cli(tmp_path, "verify", {"experiments": [dict(ACCEL_BLOCK, mw=0)]},
                                   out="mw")
        assert code_mw == code != 2
        assert read_manifest(with_mw)["config"] == read_manifest(plain)["config"]
        assert "mw" not in read_manifest(with_mw)["config"]["experiments"][0]
        assert (with_mw / "summary.json").read_bytes() == (plain / "summary.json").read_bytes()

    def test_diverging_solve_is_labelled_alike_by_solitary_and_accel(self, tmp_path):
        wave = dict(SOLITARY_CFG, l=64.0, seed_amplitude=1e300)
        code, out_dir = run_cli(tmp_path, "solitary", wave, out="solitary")
        assert code == 4
        assert read_manifest(out_dir)["termination"] == "diverged"
        block = dict(wave, kind="accel", mw_list=[1, 2])
        code, out_dir = run_cli(tmp_path, "verify", {"experiments": [block]}, out="verify")
        assert code == 6
        [result] = json.loads((out_dir / "summary.json").read_text())["experiments"]
        assert result["detail"]["status"] == {"1": "diverged", "2": "diverged"}
        with open(out_dir / "acceleration_table.csv") as handle:
            assert [row["status"] for row in csv.DictReader(handle)] == ["diverged"] * 2

    @pytest.mark.parametrize("key, value, name", [
        ("l", -1.0, "half_length l"), ("N", 7, "n_modes N"), ("c", 0.0, "speed c")])
    def test_library_range_error_names_the_config_key(self, tmp_path, capsys, key, value, name):
        code, out_dir = run_cli(tmp_path, "solitary", dict(SOLITARY_CFG, **{key: value}))
        assert code == 2
        assert name in capsys.readouterr().err
        assert read_manifest(out_dir)["exit_status"] == 2

    @pytest.mark.parametrize("command, cfg", [
        pytest.param("evolve", dict(EVOLVE_CFG, initial={
            "kind": "gaussian", "amplitude": 0.1, "width": 0.0}), id="evolve"),
        pytest.param("verify", {"experiments": [dict(CONVERGENCE_BLOCK, width=0.0)]},
                     id="verify"),
    ])
    def test_zero_gaussian_width(self, tmp_path, capsys, command, cfg):
        code, out_dir = run_cli(tmp_path, command, cfg)
        assert code == 2
        assert "width" in capsys.readouterr().err
        assert read_manifest(out_dir)["exit_status"] == 2

    def test_library_error_in_a_later_block_keeps_earlier_outputs(self, tmp_path):
        cfg = {"experiments": [CONVERGENCE_BLOCK, dict(CONVERGENCE_BLOCK, dt=5.0)]}
        code, out_dir = run_cli(tmp_path, "verify", cfg)
        assert code == 2
        assert read_manifest(out_dir)["outputs"] == ["convergence_report.csv", "summary.json"]
        assert listed_outputs_are_on_disk(out_dir)
        summary = json.loads((out_dir / "summary.json").read_text())
        assert summary["all_pass"] is False
        first, failed = summary["experiments"]
        assert first["pass"] is True and first["detail"]["spectral"] is True
        assert failed["pass"] is False and "dt=5.0" in failed["detail"]["error"]

    @pytest.mark.parametrize("command, cfg, key", [
        pytest.param("solitary", dict(SOLITARY_CFG, N=2**59), "N", id="solitary"),
        pytest.param("evolve", dict(EVOLVE_CFG, N=2**59), "N", id="evolve"),
        pytest.param("verify", {"experiments": [CONVERGENCE_BLOCK, dict(ROUNDTRIP_BLOCK, N=2**59)]},
                     "experiments[1].N", id="verify"),
        pytest.param("verify", {"experiments": [CONVERGENCE_BLOCK, dict(
            CONVERGENCE_BLOCK, resolutions=[32, 2**58])]},
                     "experiments[1].resolutions", id="verify-convergence"),
        # past the largest array numpy can address, where it raises ValueError
        pytest.param("evolve", dict(EVOLVE_CFG, N=2**60), "N", id="evolve-unaddressable"),
        pytest.param("verify", {"experiments": [CONVERGENCE_BLOCK, dict(
            CONVERGENCE_BLOCK, resolutions=[32, 2**59])]},
                     "experiments[1].resolutions", id="verify-convergence-unaddressable"),
    ])
    def test_grid_too_large_to_allocate(self, tmp_path, capsys, command, cfg, key):
        # 4 EiB exceeds any address space, so the request fails without allocating
        code, out_dir = run_cli(tmp_path, command, cfg)
        assert code == 2
        message = f"config key '{key}' asks for a grid too large to allocate"
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {message}") and "Traceback" not in err
        assert read_manifest(out_dir)["exit_status"] == 2
        if command == "verify":
            first, failed = json.loads((out_dir / "summary.json").read_text())["experiments"]
            assert first["pass"] is True
            assert failed["pass"] is False and failed["detail"]["error"].startswith(message)

    def test_decay_block_without_a_tail_fails_and_later_blocks_run(self, tmp_path, capsys):
        # the B-O wave at l = 4 never falls below 1/e of its peak
        decay = {"kind": "decay", "regime": "bo", "gamma": 0.8, "alpha": 1.2,
                 "c": 0.57, "l": 4.0, "N": 64}
        code, out_dir = run_cli(tmp_path, "verify", {"experiments": [decay, CONVERGENCE_BLOCK]})
        assert code == 6
        assert "config error" not in capsys.readouterr().err
        summary = json.loads((out_dir / "summary.json").read_text())
        failed, later = summary["experiments"]
        assert failed == {"kind": "decay", "pass": False,
                          "detail": {"error": "profile does not decay below 1/e of its peak"}}
        assert later["kind"] == "convergence" and later["pass"] is True
        assert read_manifest(out_dir)["outputs"] == ["convergence_report.csv", "summary.json"]

    def test_verify_dt_beyond_step_guard(self, tmp_path, capsys):
        code, out_dir = run_cli(tmp_path, "verify", {"experiments": [dict(CONVERGENCE_BLOCK, dt=0.5)]})
        assert code == 2
        assert "dt=0.5" in capsys.readouterr().err
        assert read_manifest(out_dir)["exit_status"] == 2

    def test_verify_resolutions_spanning_less_than_4x(self, tmp_path, capsys):
        cfg = {"experiments": [dict(CONVERGENCE_BLOCK, resolutions=[32, 64])]}
        code, out_dir = run_cli(tmp_path, "verify", cfg)
        assert code == 2
        assert "resolutions" in capsys.readouterr().err
        assert read_manifest(out_dir)["exit_status"] == 2

    @pytest.mark.parametrize("command, cfg", [
        pytest.param("evolve", {k: v for k, v in dict(EVOLVE_CFG, dt=1e-320).items()
                                if k != "record_every"}, id="evolve"),
        pytest.param("verify", {"experiments": [dict(CONVERGENCE_BLOCK, dt=1e-320)]},
                     id="convergence"),
        pytest.param("verify", {"experiments": [dict(ROUNDTRIP_BLOCK, dt=1e-320)]},
                     id="roundtrip"),
    ])
    def test_step_so_small_that_the_step_count_overflows(self, tmp_path, capsys, command, cfg):
        code, out_dir = run_cli(tmp_path, command, cfg)
        assert code == 2
        assert "dt=1e-320" in capsys.readouterr().err
        assert read_manifest(out_dir)["exit_status"] == 2

    @pytest.mark.parametrize("command, cfg", [
        pytest.param("evolve", dict(EVOLVE_CFG, dt=1e-300), id="evolve"),
        pytest.param("verify", {"experiments": [dict(ROUNDTRIP_BLOCK, dt=1e-300)]},
                     id="roundtrip"),
    ])
    def test_more_than_2_to_the_53_steps_is_a_config_error(self, tmp_path, capsys, command, cfg):
        # t_end/dt = 2e299 is finite, but no step count or i*dt is exact there
        code, out_dir = run_cli(tmp_path, command, cfg)
        assert code == 2
        assert "dt=1e-300" in capsys.readouterr().err
        assert read_manifest(out_dir)["exit_status"] == 2
        EvolutionConfig(t_end=2.0 ** 53, dt=1.0)
        with pytest.raises(ValueError, match="dt=1.0"):
            EvolutionConfig(t_end=2.0 ** 53 + 2.0, dt=1.0)

    @pytest.mark.parametrize("command, cfg", [
        pytest.param("solitary", dict(SOLITARY_CFG, l=1e308), id="solitary"),
        pytest.param("evolve", dict(EVOLVE_CFG, l=1e308), id="evolve"),
    ])
    def test_half_length_whose_period_overflows(self, tmp_path, capsys, command, cfg):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out_dir = run_cli(tmp_path, command, cfg)
        assert code == 2
        assert "l=1e+308" in capsys.readouterr().err
        assert read_manifest(out_dir)["exit_status"] == 2

    @pytest.mark.parametrize("command, cfg, name", [
        pytest.param("evolve", dict(EVOLVE_CFG, l=1e-320), "half_length l=1e-320", id="evolve-l"),
        pytest.param("solitary", dict(SOLITARY_CFG, l=1e-320), "half_length l=1e-320",
                     id="solitary-l"),
        pytest.param("evolve", dict(EVOLVE_CFG, gamma=5e-324), "gamma=5e-324", id="evolve-gamma"),
        pytest.param("solitary", dict(SOLITARY_CFG, c=5e-324), "speed c=5e-324",
                     id="solitary-c"),
    ])
    def test_finite_input_whose_scale_overflows(self, tmp_path, capsys, command, cfg, name):
        # pi*(N/2)/l, 1/gamma and 1/c are inf: numpy warned, then exit 3 or 4
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out_dir = run_cli(tmp_path, command, cfg)
        assert code == 2
        assert capsys.readouterr().err.startswith(f"config error: {name} is too small")
        assert read_manifest(out_dir)["exit_status"] == 2

    @pytest.mark.parametrize("command, cfg, error", [
        pytest.param("evolve", dict(EVOLVE_CFG, alpha=1e300, gamma=1e-10),
                     "alpha=1e+300 and gamma=1e-10 give a symbol scale", id="evolve-alpha-gamma"),
        pytest.param("solitary", dict(SOLITARY_CFG, alpha=1e300, gamma=1e-10),
                     "alpha=1e+300 and gamma=1e-10 give a symbol scale",
                     id="solitary-alpha-gamma"),
        pytest.param("evolve", dict(EVOLVE_CFG, gamma=1e-308),
                     "dt=0.01 violates the step-size guard", id="evolve-gamma"),
        pytest.param("evolve", dict(EVOLVE_CFG, l=1e-306, gamma=0.01),
                     "dt=0.01 violates the step-size guard", id="evolve-l-gamma"),
    ])
    def test_symbol_scale_that_overflows(self, tmp_path, capsys, command, cfg, error):
        # alpha/gamma = inf gave inf*0 at k = 0 (evolve warned and exited 3,
        # solitary exited 4); a finite scale times |k| warned of an overflow
        # before the step-size guard
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out_dir = run_cli(tmp_path, command, cfg)
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {error}") and err.count("\n") == 1
        assert read_manifest(out_dir)["exit_status"] == 2

    @pytest.mark.parametrize("mw", [2**40, 2**59])
    @pytest.mark.parametrize("command", ["solitary", "verify"])
    def test_mpe_window_too_large_to_allocate_names_mw(self, tmp_path, capsys, command, mw):
        # the window was blamed on N (2**40) or named no key (2**59)
        cfg = dict(SOLITARY_CFG, mw=mw) if command == "solitary" else {
            "experiments": [CONVERGENCE_BLOCK, dict(ROUNDTRIP_BLOCK, mw=mw)]}
        code, out_dir = run_cli(tmp_path, command, cfg)
        assert code == 2
        message = f"mw={mw} asks for an iterate window too large to allocate"
        assert capsys.readouterr().err.startswith(f"config error: {message}")
        assert read_manifest(out_dir)["exit_status"] == 2
        if command == "verify":
            first, failed = json.loads((out_dir / "summary.json").read_text())["experiments"]
            assert first["pass"] is True
            assert failed["pass"] is False and failed["detail"]["error"].startswith(message)

    @pytest.mark.parametrize("command, cfg, want", [
        pytest.param("solitary", SOLITARY_CFG, 2, id="solitary"),
        pytest.param("solitary", dict(SOLITARY_CFG, max_iter=3), 4, id="not-converged"),
        pytest.param("evolve", EVOLVE_CFG, 2, id="evolve"),
        pytest.param("verify", {"experiments": [CONVERGENCE_BLOCK]}, 2, id="verify"),
    ])
    @pytest.mark.parametrize("out", ["afile", "afile/sub"])
    def test_output_path_that_is_or_lies_under_a_file(self, tmp_path, capsys, command, cfg,
                                                      want, out):
        # neither the outputs nor the manifest can be written: one line says
        # so, and a run that failed first keeps its own code
        (tmp_path / "afile").write_text("keep")
        code, _ = run_cli(tmp_path, command, cfg, out=out)
        assert code == want
        err = capsys.readouterr().err
        assert err.count("cannot write the manifest") == 1
        assert "Traceback" not in err
        assert (tmp_path / "afile").read_text() == "keep"

    def test_unwritable_manifest_after_a_good_run_exits_2(self, tmp_path, capsys):
        (tmp_path / "out" / "manifest.json").mkdir(parents=True)
        code, out_dir = run_cli(tmp_path, "solitary", SOLITARY_CFG)
        assert code == 2
        assert capsys.readouterr().err.startswith("cannot write the manifest")
        assert sorted(os.listdir(out_dir)) == ["manifest.json", "trace.csv", "wave.csv"]

    @pytest.mark.parametrize("key, value", [("seed_amplitude", 1e300), ("c", 1e-300)])
    def test_diverging_solve_stops_at_the_first_non_finite_residual(
            self, tmp_path, capsys, key, value):
        cfg = dict(SOLITARY_CFG, l=64.0, **{key: value})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out_dir = run_cli(tmp_path, "solitary", cfg)
        assert code == 4
        assert "Warning" not in capsys.readouterr().err

        def reject(constant):
            raise ValueError(f"manifest holds {constant}, which is not JSON")

        manifest = json.loads((out_dir / "manifest.json").read_text(), parse_constant=reject)
        assert manifest["termination"] == "diverged"
        assert manifest["last_residual"] is None
        assert manifest["outputs"] == ["trace.csv"]
        rows = trace_rows(out_dir)
        assert len(rows) == manifest["iterations"] + 1
        assert not math.isfinite(float(rows[-1]["residual"]))
        assert all(math.isfinite(float(r["residual"])) for r in rows[:-1])

    @pytest.mark.parametrize("max_iter, exit_code", [(500, 0), (6, 4)])
    def test_extrapolation_counts_match_the_trace(self, tmp_path, max_iter, exit_code):
        code, out_dir = run_cli(tmp_path, "solitary", dict(SOLITARY_CFG, mw=2, max_iter=max_iter))
        assert code == exit_code
        counts = read_manifest(out_dir)["extrapolations"]
        rows = trace_rows(out_dir)
        pairs = [(prev, row) for prev, row in zip(rows, rows[1:]) if row["phase"] == "extrapolated"]
        assert counts["accepted"] + counts["rejected"] == len(pairs) > 0
        # accepted: the point does not raise the residual of the plain iterate before it
        assert counts["accepted"] == sum(float(row["residual"]) <= float(prev["residual"])
                                         for prev, row in pairs)
        assert counts["skipped"] == 0

    def test_degenerate_sums_are_counted_as_skipped(self, tmp_path, monkeypatch):
        def degenerate(window):
            return np.full(len(window) - 1, np.nan)  # the weights of a vanished sum

        monkeypatch.setattr(accel, "mpe_coefficients", degenerate)
        code, out_dir = run_cli(tmp_path, "solitary", dict(SOLITARY_CFG, mw=2))
        assert code == 0
        manifest = read_manifest(out_dir)
        solves = manifest["iterations"]
        # every full cycle of two solves skips its extrapolation; the last
        # cycle ends at the converged solve
        assert manifest["extrapolations"] == {"accepted": 0, "rejected": 0,
                                              "skipped": (solves - 1) // 2}
        assert all(row["phase"] == "plain" for row in trace_rows(out_dir))

    def test_empty_mw_list(self, tmp_path, capsys):
        block = {"kind": "accel", "regime": "bo", "gamma": 0.8, "alpha": 1.2,
                 "c": 0.57, "l": 16.0, "N": 64, "mw_list": []}
        code, out_dir = run_cli(tmp_path, "verify", {"experiments": [block]})
        assert code == 2
        assert "experiments[0].mw_list" in capsys.readouterr().err
        assert read_manifest(out_dir)["exit_status"] == 2

    @pytest.mark.parametrize("block, key", [
        (dict(ACCEL_BLOCK, mw_list=[2, 2]), "mw_list"),
        (dict(CONVERGENCE_BLOCK, resolutions=[32, 32, 128]), "resolutions"),
    ], ids=["mw_list", "resolutions"])
    def test_repeated_value_in_an_int_list(self, tmp_path, capsys, block, key):
        code, out_dir = run_cli(tmp_path, "verify", {"experiments": [block]})
        assert code == 2
        assert f"'experiments[0].{key}' must not repeat a value" in capsys.readouterr().err
        assert read_manifest(out_dir)["outputs"] == []

    def test_zero_amplitude_convergence_writes_strict_json(self, tmp_path):
        # every error is 0, so the rates are nan: null in summary.json
        def strict(constant):
            raise AssertionError(f"{constant} is not strict JSON")

        block = dict(CONVERGENCE_BLOCK, amplitude=0.0)
        code, out_dir = run_cli(tmp_path, "verify", {"experiments": [block]})
        assert code == 6
        summary = json.loads((out_dir / "summary.json").read_text(), parse_constant=strict)
        assert summary["experiments"][0]["detail"]["rates"] == [None, None]
        json.loads((out_dir / "manifest.json").read_text(), parse_constant=strict)

    def test_solitary_nan_speed(self, tmp_path, capsys):
        code, _ = run_cli(tmp_path, "solitary", dict(SOLITARY_CFG, c=math.nan))
        assert code == 2
        assert "'c'" in capsys.readouterr().err

    def test_evolve_nan_end_time(self, tmp_path, capsys):
        code, _ = run_cli(tmp_path, "evolve", dict(EVOLVE_CFG, t_end=math.nan))
        assert code == 2
        assert "'t_end'" in capsys.readouterr().err

    def test_underflowing_seed_amplitude(self, tmp_path, capsys):
        code, out_dir = run_cli(tmp_path, "solitary", dict(SOLITARY_CFG, seed_amplitude=1e-200))
        assert code == 2
        assert read_manifest(out_dir)["exit_status"] == 2
        assert "norm underflows to 0: seed_amplitude is too small" in capsys.readouterr().err

    def test_collapsed_denominator_exits_four_with_its_trace(self, tmp_path, capsys):
        # <F(Z), Z> ~ 1e-450 underflows to 0, while the residual ~ 1e-150 is
        # below tol: the collapse must end the solve before it counts as converged
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(dict(SOLITARY_CFG, seed_amplitude=1e-150)))
        out_dir = tmp_path / "out"
        code = main(["solitary", "--config", str(cfg_path), "--out", str(out_dir)])
        assert code == 4
        assert "solitary: denominator-collapse after 0 iterations" in capsys.readouterr().err
        manifest = read_manifest(out_dir)
        assert manifest["exit_status"] == 4
        assert manifest["termination"] == "denominator-collapse"
        assert manifest["iterations"] == 0
        assert manifest["outputs"] == ["trace.csv"]
        [row] = trace_rows(out_dir)
        assert math.isnan(float(row["m_factor"]))
        assert float(row["residual"]) == manifest["last_residual"] < SOLITARY_CFG["tol"]

    def test_collapsed_denominator_is_a_row_of_the_accel_table(self, tmp_path):
        cfg = {"experiments": [dict(ACCEL_BLOCK, seed_amplitude=1e-150)]}
        code, out_dir = run_cli(tmp_path, "verify", cfg)
        assert code == 6
        assert read_manifest(out_dir)["outputs"] == [
            "acceleration_table.csv", "trace_mw1.csv", "trace_mw2.csv", "summary.json"]
        [result] = json.loads((out_dir / "summary.json").read_text())["experiments"]
        assert result["detail"]["status"] == {"1": "denominator-collapse",
                                              "2": "denominator-collapse"}
        with open(out_dir / "acceleration_table.csv") as handle:
            assert [row["status"] for row in csv.DictReader(handle)] == \
                ["denominator-collapse"] * 2

    def test_bad_decay_model_rejected_before_any_solve(self, tmp_path, monkeypatch, capsys):
        solves = []
        monkeypatch.setattr(cli, "cycled_solve", lambda *args, **kwargs: solves.append(args))
        block = {"kind": "decay", "regime": "ilw", "gamma": 0.8, "alpha": 1.2,
                 "c": 0.40, "l": 32.0, "N": 512, "model": "weird"}
        code, _ = run_cli(tmp_path, "verify", {"experiments": [dict(block, model="compare"), block]})
        assert code == 2
        assert "experiments[1].model" in capsys.readouterr().err
        assert solves == []

    def test_verify_manifest_reproduces_summary(self, tmp_path):
        accel = {"kind": "accel", "regime": "bo", "gamma": 0.8, "alpha": 1.2,
                 "c": 0.57, "l": 16.0, "N": 64, "max_iter": 20}
        convergence = {k: v for k, v in CONVERGENCE_BLOCK.items() if k not in ("l", "dt")}
        code, out_a = run_cli(tmp_path, "verify", {"experiments": [convergence, accel]}, out="a")
        config = read_manifest(out_a)["config"]
        # the manifest records the defaults the run applied
        assert config["experiments"][0]["dt"] == 0.002
        assert config["experiments"][1]["mw_list"] == [1, 2, 3, 4]
        assert config["experiments"][1]["seed_width"] == 0.5
        code_b, out_b = run_cli(tmp_path, "verify", config, out="b")
        assert code == code_b
        assert (out_a / "summary.json").read_bytes() == (out_b / "summary.json").read_bytes()
        assert read_manifest(out_b)["config"] == config

    def test_convergence_block_defaults(self, tmp_path):
        # the resolved block in the manifest: each key left out takes its
        # documented default
        block = {k: CONVERGENCE_BLOCK[k] for k in ("kind", "regime", "gamma", "alpha")}
        block |= {"resolutions": [16, 32, 64], "dt": 0.01}
        code, out_dir = run_cli(tmp_path, "verify", {"experiments": [block]})
        resolved = read_manifest(out_dir)["config"]["experiments"][0]
        assert code in (cli.EXIT_OK, cli.EXIT_VERIFY_FAILED)  # ran; its verdict is not the point
        assert {k: resolved[k] for k in ("l", "t_end", "amplitude", "width", "min_ratio")} == {
            "l": 16.0, "t_end": 1.0, "amplitude": 0.1, "width": 1.2, "min_ratio": 16.0}

    def test_convergence_block_default_resolutions(self, tmp_path):
        block = {k: CONVERGENCE_BLOCK[k] for k in ("kind", "regime", "gamma", "alpha")}
        code, out_dir = run_cli(tmp_path, "verify", {"experiments": [block | {"dt": 0.01}]})
        assert code in (cli.EXIT_OK, cli.EXIT_VERIFY_FAILED)  # ran; its verdict is not the point
        assert read_manifest(out_dir)["config"]["experiments"][0]["resolutions"] == [32, 64, 128]

    @pytest.mark.parametrize("block, key, bound", [
        pytest.param(DECAY_BO, "rate", {"rate_tol": 0.0}, id="rate_tol"),
        pytest.param(DECAY_ILW, "quality", {}, id="min_quality"),
    ])
    def test_decay_fit_passes_at_exactly_its_bound(self, tmp_path, block, key, bound):
        # a rate within rate_tol of rate_target, or a quality of at least
        # min_quality, passes with the bound included
        _, out_dir = run_cli(tmp_path, "verify", {"experiments": [block]}, out="fit")
        value = json.loads((out_dir / "decay_fit.json").read_text())[key]
        exact = dict(block, **bound, **{"rate_target" if key == "rate" else "min_quality": value})
        code, out_dir = run_cli(tmp_path, "verify", {"experiments": [exact]}, out="exact")
        assert code == cli.EXIT_OK
        assert json.loads((out_dir / "decay_fit.json").read_text())["pass"] is True

    @pytest.mark.parametrize("command, text", [
        pytest.param("evolve", "{not json", id="invalid-json"),
        pytest.param("evolve", "[1, 2]", id="not-an-object"),
        pytest.param("evolve", json.dumps({k: v for k, v in EVOLVE_CFG.items() if k != "dt"}),
                     id="missing-key"),
        pytest.param("evolve", json.dumps(dict(EVOLVE_CFG, N=64.0)), id="float-for-int"),
        pytest.param("evolve", json.dumps(dict(EVOLVE_CFG, dt=5.0)), id="step-guard"),
        pytest.param("evolve", json.dumps(dict(EVOLVE_CFG, initial={
            "kind": "gaussian", "amplitude": "big", "width": 1.0})), id="nested-type"),
        pytest.param("solitary", json.dumps(dict(SOLITARY_CFG, regime="deep")), id="regime"),
        pytest.param("solitary", json.dumps(dict(SOLITARY_CFG, mw=0)), id="library-range"),
        pytest.param("verify", json.dumps({"experiments": []}), id="no-experiments"),
        pytest.param("verify", json.dumps({"experiments": [{"kind": "bisection"}]}),
                     id="experiment-kind"),
        pytest.param("verify", json.dumps({"experiments": [
            dict(CONVERGENCE_BLOCK, resolutions=[16, "32"])]}), id="list-entry-type"),
    ])
    def test_every_config_error_leaves_a_manifest(self, tmp_path, command, text):
        path = tmp_path / "config.json"
        path.write_text(text)
        code = main([command, "--config", str(path), "--out", str(tmp_path / "out"), "--quiet"])
        assert code == 2
        manifest = read_manifest(tmp_path / "out")
        assert manifest["exit_status"] == 2
        assert manifest["error"].startswith("config error:")

    def test_missing_config_file_leaves_a_manifest(self, tmp_path):
        code = main(["evolve", "--config", str(tmp_path / "missing.json"),
                     "--out", str(tmp_path / "out"), "--quiet"])
        assert code == 2
        assert read_manifest(tmp_path / "out")["config"] is None

    def test_main_leaves_the_fft_worker_count_as_it_found_it(self, tmp_path, capsys):
        # no --threads flag: a run writes no process-global state
        before = spectral._fft_workers
        code, _ = run_cli(tmp_path, "solitary", SOLITARY_CFG)
        assert code == 0 and spectral._fft_workers == before
        with pytest.raises(SystemExit):
            main(["solitary", "--help"])
        assert "--threads" not in capsys.readouterr().out


@pytest.mark.parametrize("argv", [["--help"], ["evolve", "--help"]])
def test_help_ends_with_the_exit_codes(argv, capsys):
    with pytest.raises(SystemExit):
        main(argv)
    codes = cli.__doc__.partition("Exit codes:")[2].strip()
    assert codes.startswith("0  success") and "\n  6  verify:" in codes
    assert capsys.readouterr().out.rstrip().endswith("exit codes:\n  " + codes)


@pytest.mark.parametrize("counts, ok", [
    ({1: 10, 2: 7, 3: 4}, True),  # a later drop as large as the first
    ({1: 10, 2: 7, 3: 3}, False),  # a later drop larger than the first
    ({1: 10, 2: 7, 3: 7}, True),  # a tie among mw >= 2
    ({1: 10, 2: 10, 3: 9}, False),  # no drop at 1 -> 2
    ({1: 10, 2: 7, 3: 8}, False),  # a count that rises
])
def test_accel_ordering_rule(counts, ok):
    assert cli._accel_ordering_ok(counts) is ok


def test_cli_solver_defaults_are_the_library_defaults():
    """A minimal solitary and evolve config resolve each solver key the CLI
    shares with a library dataclass to that dataclass's default."""
    library = {f.name: f.default for config_class in (SolitaryConfig, EvolutionConfig)
               for f in dataclasses.fields(config_class)}
    assert library["seed_width"] == 0.5
    minimal = {
        "solitary": {k: SOLITARY_CFG[k] for k in ("regime", "gamma", "alpha", "c", "l", "N")},
        "evolve": {k: v for k, v in EVOLVE_CFG.items() if k != "record_every"},
    }
    resolved = {}
    for command, cfg in minimal.items():
        resolved |= cli._resolve(cli._COMMANDS[command][1], cfg)
    for key in ("tol", "max_iter", "mw", "seed_amplitude", "seed_width", "cfl_guard"):
        assert resolved[key] == library[key] and type(resolved[key]) is type(library[key]), key


# Shipped configs shrunk to N <= 64, at most 200 steps and max_iter <= 20, so
# that each perturbed run stays cheap even when a key falls back to its default.
SHRINK = {
    "evolve": {"N": 32, "t_end": 0.2, "dt": 0.05, "record_every": 2},
    "solitary": {"l": 16.0, "N": 64, "max_iter": 20},
    "convergence": {"resolutions": [8, 16, 32], "t_end": 0.1, "dt": 0.05},
    "roundtrip": {"l": 16.0, "N": 64, "max_iter": 20, "t_end": 0.1, "dt": 0.05},
    "decay": {"l": 16.0, "N": 64, "max_iter": 20},
    "accel": {"l": 16.0, "N": 64, "max_iter": 20, "mw_list": [1, 2]},
}

SHIPPED = {
    "evolve_gaussian.json": "evolve",
    "solitary_bo.json": "solitary",
    "solitary_ilw.json": "solitary",
    "verify_desk.json": "verify",
}


def _shrunk(name):
    cfg = json.loads((CONFIGS / name).read_text())
    if SHIPPED[name] == "verify":
        return {"experiments": [dict(b, **SHRINK[b["kind"]]) for b in cfg["experiments"]]}
    return dict(cfg, **SHRINK[SHIPPED[name]])


def _key_paths(cfg, prefix=()):
    """Every key path of a config: top-level keys and the keys of nested objects."""
    for key, value in cfg.items():
        yield prefix + (key,)
        if isinstance(value, dict):
            yield from _key_paths(value, prefix + (key,))
        elif isinstance(value, list) and value and isinstance(value[0], dict):
            for i, item in enumerate(value):
                yield from _key_paths(item, prefix + (key, i))


CASES = [(name, path) for name in SHIPPED for path in _key_paths(_shrunk(name))]
DROP = object()
PERTURBATIONS = [DROP, True, [1], {"a": 1}, math.nan, math.inf, -math.inf, 0, "negative", "x",
                 1e300, -1e300, 1e-300, -1e-300, 1e-150, 5e-324, 2**59,
                 sys.float_info.max, -sys.float_info.max]

# Every shrunk run takes well under a second; a run past this limit is a hang.
CASE_SECONDS = 20


class CaseTimeLimit(Exception):
    """Raised by the alarm; `main` maps no such exception to an exit code."""


def _time_limit(signum, frame):
    raise CaseTimeLimit(f"a perturbed run took longer than {CASE_SECONDS} s")


def _perturbed(name, path, change):
    cfg = _shrunk(name)
    parent = cfg
    for step in path[:-1]:
        parent = parent[step]
    key = path[-1]
    if change is DROP:
        del parent[key]
    elif change == "negative":
        value = parent[key]
        numeric = isinstance(value, (int, float)) and not isinstance(value, bool)
        parent[key] = -abs(value) if numeric and value else -1
    else:
        parent[key] = change
    return cfg


def _run_case(case, change, out_is_file):
    """Run one perturbed config under the CASE_SECONDS alarm and check that
    the CLI warns of nothing and exits with a documented code, leaving a
    manifest that lists only files on disk, or, when `--out` is a file, that
    it says so in one line with a non-zero code and leaves the file alone."""
    name, path = case
    with tempfile.TemporaryDirectory() as tmp:
        cfg_path = os.path.join(tmp, "config.json")
        with open(cfg_path, "w") as handle:
            json.dump(_perturbed(name, path, change), handle)
        out = os.path.join(tmp, "out")
        if out_is_file:
            with open(out, "w") as handle:
                handle.write("keep")
        stderr = io.StringIO()
        previous = signal.signal(signal.SIGALRM, _time_limit)
        signal.setitimer(signal.ITIMER_REAL, CASE_SECONDS)
        try:
            with warnings.catch_warnings(record=True) as caught, \
                    contextlib.redirect_stderr(stderr):
                warnings.simplefilter("always")
                code = main([SHIPPED[name], "--config", cfg_path, "--out", out, "--quiet"])
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        assert [str(w.message) for w in caught] == []
        assert code in (0, 2, 3, 4, 5, 6)
        if out_is_file:
            assert code != 0
            assert stderr.getvalue().count("cannot write the manifest") == 1
            with open(out) as handle:
                assert handle.read() == "keep"
        else:
            out_dir = pathlib.Path(out)
            assert read_manifest(out_dir)["exit_status"] == code
            assert listed_outputs_are_on_disk(out_dir)


@settings(max_examples=240)
@given(case=st.sampled_from(CASES), change=st.sampled_from(PERTURBATIONS),
       out_is_file=st.booleans())
def test_perturbed_configs_exit_with_a_documented_code(case, change, out_is_file):
    """One key dropped or replaced by a wrong type, NaN, +-inf, 0, a negative
    value, a string, a magnitude of 1e+-300 or 1e-150 (where a seed's
    stabilizing-factor denominator underflows), the least subnormal 5e-324
    (whose reciprocal overflows) or the int 2**59 (as `N`, a
    grid too large to allocate), run with `--out` a fresh directory or a
    file: the CLI never raises, exits 1, warns or hangs, and leaves a
    manifest unless `--out` is a file, which it then says in one line, with
    a non-zero code."""
    _run_case(case, change, out_is_file)


@pytest.mark.parametrize("change", [sys.float_info.max, -sys.float_info.max],
                         ids=["max", "-max"])
@pytest.mark.parametrize("case", CASES, ids=["/".join(map(str, (name,) + path))
                                             for name, path in CASES])
def test_largest_double_in_each_key_exits_with_a_documented_code(case, change):
    """Each key of each shipped config set to +-sys.float_info.max, which the
    hypothesis sweep above samples only in part."""
    _run_case(case, change, out_is_file=False)
