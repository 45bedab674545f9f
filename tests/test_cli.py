"""CLI contract: exit codes, output files, determinism."""

import json
import re
from pathlib import Path

import numpy as np
import pytest

from coopfuse.cli import EXIT_CONFIG, EXIT_OK, build_parser, main
from coopfuse.evaluation import DEFAULT_LATENCY_SWEEP_MS, DEFAULT_RANGE_SWEEP

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
QUICKSTART = str(CONFIG_DIR / "quickstart.yaml")

TINY = """
scenario:
  duration_s: 2.0
  tick_s: 0.5
  seed: 0
  object_count: 4
  spawn_x: [-10, 10]
  spawn_y: [-10, 10]
  speed_range: [0.5, 1.0]
  min_clearance: 3.0
agents:
  - {agent_id: 0, ego: true, sensor: {feature_dim: 8, max_range: 100, pos_noise_sigma: 0.2, confidence_near: 0.9, confidence_far: 0.9}}
  - {agent_id: 1, x: 15.0, y: 15.0, sensor: {feature_dim: 8, max_range: 100, pos_noise_sigma: 0.2, confidence_near: 0.9, confidence_far: 0.9}}
"""


@pytest.fixture
def tiny_config(tmp_path):
    path = tmp_path / "tiny.yaml"
    path.write_text(TINY)
    return str(path)


class TestValidateConfig:
    def test_ok(self, capsys):
        assert main(["validate-config", "--config", QUICKSTART]) == EXIT_OK
        assert "config ok" in capsys.readouterr().out

    def test_missing_file(self, capsys):
        assert main(["validate-config", "--config", "/no/such/file.yaml"]) == EXIT_CONFIG
        assert "config error" in capsys.readouterr().err

    def test_bad_key(self, tmp_path, capsys):
        path = tmp_path / "bad.yaml"
        path.write_text("scenario: {tick_speed: 1}\n")
        assert main(["validate-config", "--config", str(path)]) == EXIT_CONFIG
        assert "tick_speed" in capsys.readouterr().err


    def test_negative_noise_is_a_config_error(self, tmp_path, capsys):
        path = tmp_path / "bad.yaml"
        path.write_text(TINY.replace("pos_noise_sigma: 0.2,", "pos_noise_sigma: 0.2, pos_noise_far_factor: -2.0,", 1))
        assert main(["validate-config", "--config", str(path)]) == EXIT_CONFIG
        assert "config error: agents[0].sensor: pos_noise_far_factor must be non-negative" in capsys.readouterr().err

    def test_agent_error_names_the_agents_section(self, tmp_path, capsys):
        path = tmp_path / "bad.yaml"
        path.write_text(TINY.replace("x: 15.0,", "x: 1.7e+308, vx: 1.0e+308,"))
        assert main(["validate-config", "--config", str(path)]) == EXIT_CONFIG
        assert "config error: agents[1]: position at duration_s is not finite" in capsys.readouterr().err


class TestRun:
    def test_writes_outputs(self, tiny_config, tmp_path):
        out = tmp_path / "out"
        assert main(["run", "--config", tiny_config, "--out", str(out)]) == EXIT_OK
        assert (out / "metrics.csv").exists()
        assert (out / "events.csv").exists()
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["seed"] == 0
        assert manifest["command"] == "run"
        assert len(manifest["config_sha256"]) == 64

    def test_deterministic_metrics(self, tiny_config, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        main(["run", "--config", tiny_config, "--out", str(out1)])
        main(["run", "--config", tiny_config, "--out", str(out2)])
        assert (out1 / "metrics.csv").read_bytes() == (out2 / "metrics.csv").read_bytes()
        assert (out1 / "events.csv").read_bytes() == (out2 / "events.csv").read_bytes()

    def test_seed_override_changes_output(self, tiny_config, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        main(["run", "--config", tiny_config, "--out", str(out1)])
        main(["run", "--config", tiny_config, "--seed", "9", "--out", str(out2)])
        manifest = json.loads((out2 / "manifest.json").read_text())
        assert manifest["seed"] == 9
        assert (out1 / "metrics.csv").read_bytes() != (out2 / "metrics.csv").read_bytes()

    def test_nan_config_value_is_a_config_error(self, tmp_path, capsys):
        path = tmp_path / "nan.yaml"
        path.write_text(TINY + "pipeline: {r_int: .nan}\n")
        out = tmp_path / "out"
        assert main(["run", "--config", str(path), "--out", str(out)]) == EXIT_CONFIG
        assert "pipeline: r_int must be finite" in capsys.readouterr().err
        assert not (out / "metrics.csv").exists()


class TestSweeps:
    def test_rint_single_value(self, tiny_config, tmp_path):
        out = tmp_path / "out"
        code = main(["sweep-rint", "--config", tiny_config, "--out", str(out),
                     "--r-int", "30"])
        assert code == EXIT_OK
        lines = (out / "rint_sweep.csv").read_text().splitlines()
        assert lines[0] == "r_int,ap,amota_like,duplicate_rate"
        assert len(lines) == 2

    def test_parallel_jobs_match_serial(self, tiny_config, tmp_path):
        serial, parallel = tmp_path / "s", tmp_path / "p"
        main(["sweep-rint", "--config", tiny_config, "--out", str(serial),
              "--r-int", "10,30"])
        main(["sweep-rint", "--config", tiny_config, "--out", str(parallel),
              "--r-int", "10,30", "--jobs", "2"])
        assert (serial / "rint_sweep.csv").read_bytes() == (parallel / "rint_sweep.csv").read_bytes()

    def test_parallel_latency_jobs_match_serial(self, tiny_config, tmp_path):
        serial, parallel = tmp_path / "s", tmp_path / "p"
        main(["sweep-latency", "--config", tiny_config, "--out", str(serial), "--latency-ms", "0,100,200"])
        main(["sweep-latency", "--config", tiny_config, "--out", str(parallel), "--latency-ms", "0,100,200",
              "--jobs", "2"])
        assert (serial / "latency_sweep.csv").read_bytes() == (parallel / "latency_sweep.csv").read_bytes()

    def test_latency_rows_both_settings(self, tiny_config, tmp_path):
        out = tmp_path / "out"
        code = main(["sweep-latency", "--config", tiny_config, "--out", str(out),
                     "--latency-ms", "0,100"])
        assert code == EXIT_OK
        lines = (out / "latency_sweep.csv").read_text().splitlines()
        assert lines[0] == "latency_ms,compensated,ap,rmse,coop_prefusion_err"
        assert len(lines) == 5  # two latencies x two compensation settings

    def test_no_compensation_flag(self, tiny_config, tmp_path):
        out = tmp_path / "out"
        main(["sweep-latency", "--config", tiny_config, "--out", str(out),
              "--latency-ms", "0", "--no-compensation"])
        rows = (out / "latency_sweep.csv").read_text().splitlines()[1:]
        assert len(rows) == 1
        assert rows[0].split(",")[1] == "0"


class TestRobustnessAndBandwidth:
    def test_robustness_csv(self, tiny_config, tmp_path):
        out = tmp_path / "out"
        code = main(["robustness", "--config", tiny_config, "--out", str(out),
                     "--alpha", "0,1", "--scenes", "10"])
        assert code == EXIT_OK
        lines = (out / "robustness.csv").read_text().splitlines()
        assert lines[0] == "alpha,mean_accuracy,mean_precision,mean_recall"
        assert len(lines) == 3

    @pytest.mark.parametrize("scenes", ["0", "-3", "two"])
    def test_robustness_rejects_bad_scene_count(self, tiny_config, tmp_path, scenes):
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            main(["robustness", "--config", tiny_config, "--out", str(out),
                  "--scenes", scenes])
        assert exc.value.code == EXIT_CONFIG  # argparse's usage error
        assert not (out / "robustness.csv").exists()

    @pytest.mark.parametrize(
        "args",
        [["robustness", "--alpha", "nan"], ["sweep-rint", "--r-int", "10,nan"],
         ["sweep-latency", "--latency-ms", "NaN"]],
        ids=["robustness", "sweep-rint", "sweep-latency"],
    )
    def test_number_lists_reject_nan(self, tiny_config, tmp_path, args):
        with pytest.raises(SystemExit) as exc:
            main(args + ["--config", tiny_config, "--out", str(tmp_path)])
        assert exc.value.code == EXIT_CONFIG

    @pytest.mark.parametrize("command", ["run", "robustness", "bench-bandwidth"])
    def test_jobs_belongs_to_the_sweeps_only(self, tiny_config, tmp_path, command):
        with pytest.raises(SystemExit) as exc:
            main([command, "--config", tiny_config, "--out", str(tmp_path), "--jobs", "2"])
        assert exc.value.code == EXIT_CONFIG

    def test_bandwidth_outputs(self, tiny_config, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["bench-bandwidth", "--config", tiny_config, "--out", str(out)]) == EXIT_OK
        band = (out / "bandwidth.csv").read_text().splitlines()
        assert band[0] == "k,bytes_per_packet,bps_sparse"
        assert len(band) == 51
        bev = (out / "bev_comparison.csv").read_text().splitlines()
        assert len(bev) == 3
        assert "B/s" in capsys.readouterr().out

    def test_bandwidth_affine_in_k(self, tiny_config, tmp_path):
        out = tmp_path / "out"
        main(["bench-bandwidth", "--config", tiny_config, "--out", str(out)])
        rows = [line.split(",") for line in (out / "bandwidth.csv").read_text().splitlines()[1:]]
        k = np.array([float(r[0]) for r in rows])
        bps = np.array([float(r[2]) for r in rows])
        slope, intercept = np.polyfit(k, bps, 1)
        residuals = bps - (slope * k + intercept)
        assert np.max(np.abs(residuals)) < 1e-6


class TestInputBoundary:
    @pytest.mark.parametrize(
        "args",
        [["robustness", "--alpha", "inf"], ["sweep-rint", "--r-int", "10,inf"],
         ["sweep-latency", "--latency-ms", "0,inf"]],
        ids=["robustness", "sweep-rint", "sweep-latency"],
    )
    def test_number_lists_reject_infinity(self, tiny_config, tmp_path, args):
        with pytest.raises(SystemExit) as exc:
            main(args + ["--config", tiny_config, "--out", str(tmp_path)])
        assert exc.value.code == EXIT_CONFIG
        assert not list(tmp_path.glob("*.csv"))

    @pytest.mark.parametrize(
        "args",
        [["sweep-rint", "--r-int", "0"], ["sweep-rint", "--r-int=10,-3"],
         ["sweep-latency", "--latency-ms=-5"], ["robustness", "--alpha=-1"],
         ["robustness", "--alpha=0,-0.5"], ["sweep-rint", "--jobs", "0"],
         ["sweep-latency", "--jobs=-2"], ["sweep-rint", "--r-int", ","], ["robustness", "--alpha", ""],
         ["sweep-latency", "--latency-ms", " , "]],
        ids=["r-int-zero", "r-int-negative", "latency-negative", "alpha-negative",
             "alpha-list-negative", "jobs-zero", "jobs-negative", "r-int-empty", "alpha-empty",
             "latency-empty"],
    )
    def test_out_of_range_flags_are_usage_errors(self, tiny_config, tmp_path, args):
        with pytest.raises(SystemExit) as exc:
            main(args + ["--config", tiny_config, "--out", str(tmp_path)])
        assert exc.value.code == EXIT_CONFIG
        assert not list(tmp_path.glob("*.csv"))

    @pytest.mark.parametrize(
        "command,dest,default",
        [("sweep-rint", "r_int", list(DEFAULT_RANGE_SWEEP)),
         ("sweep-latency", "latency_ms", list(DEFAULT_LATENCY_SWEEP_MS)),
         ("robustness", "alpha", [0.0, 0.5, 1.0, 2.0])],
        ids=["sweep-rint", "sweep-latency", "robustness"],
    )
    def test_bare_sweeps_parse_to_the_default_lists(self, command, dest, default):
        args = build_parser().parse_args([command, "--config", "any.yaml"])
        assert getattr(args, dest) == default

    @pytest.mark.parametrize(
        "args,csv",
        [(["sweep-latency", "--latency-ms", "0", "--no-compensation", "--jobs", "1"], "latency_sweep.csv"),
         (["robustness", "--alpha", "0", "--scenes", "2"], "robustness.csv")],
        ids=["latency-zero", "alpha-zero"],
    )
    def test_range_bounds_themselves_are_accepted(self, tiny_config, tmp_path, args, csv):
        assert main(args + ["--config", tiny_config, "--out", str(tmp_path)]) == EXIT_OK
        assert (tmp_path / csv).exists()

    def test_seed_flag_rejects_negative(self, tiny_config, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["run", "--config", tiny_config, "--out", str(tmp_path), "--seed", "-1"])
        assert exc.value.code == EXIT_CONFIG
        assert not (tmp_path / "metrics.csv").exists()

    @pytest.mark.parametrize(
        "key,value,message",
        [("seed", "-3", "scenario: seed must be non-negative"),
         ("object_count", "2.5", "scenario.object_count: expected int, got 2.5"),
         ("tick_s", "4.0e-07", "scenario: tick_s must be at least one microsecond, got 4e-07"),
         ("duration_s", "1.0e+300", "scenario: duration_s must lie in [tick_s, 9223372036855], got 1e+300")],
    )
    def test_validate_config_rejects_bad_scenario_value(self, tmp_path, capsys, key, value, message):
        path = tmp_path / "bad.yaml"
        path.write_text(re.sub(rf"^  {key}: .*$", f"  {key}: {value}", TINY, count=1, flags=re.M))
        assert main(["validate-config", "--config", str(path)]) == EXIT_CONFIG
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize(
        "config,digest",
        [
            ("configs/quickstart.yaml",
             "bf7e539c4240d6c24b39818a1c8dda6c69fab8eaa5d84cd4898a5c1b00f0813a"),
            ("configs/latency_study.yaml",
             "5abedc9fc74e9b6a648d1e92734c81edf94d8a4ccb2f46f545a66f2451c3112e"),
            ("configs/range_study.yaml",
             "c4e5fad2c6c6b7e08acd1e5f5687a90227632ae21656bad9b046bb894574b73a"),
            ("perfbench/configs/crowd.yaml",
             "0eb1851542a3fa67d6a3ebc4b68e3343a0a9ce34b3c3b6c88c13aea70c4b6a56"),
        ],
    )
    def test_manifest_config_hash_is_stable(self, tmp_path, config, digest):
        path = CONFIG_DIR.parent / config
        assert main(["bench-bandwidth", "--config", str(path), "--out", str(tmp_path)]) == EXIT_OK
        assert json.loads((tmp_path / "manifest.json").read_text())["config_sha256"] == digest


COMMAND_FLAGS = {
    "run": [],
    "sweep-rint": ["--r-int", "30"],
    "sweep-latency": ["--latency-ms", "0", "--no-compensation"],
    "robustness": ["--alpha", "0", "--scenes", "2"],
    "bench-bandwidth": [],
}


class TestRunner:
    @pytest.mark.parametrize("command", list(COMMAND_FLAGS))
    def test_manifest_names_every_file_written(self, tiny_config, tmp_path, capsys, command):
        out = tmp_path / "out"
        assert main([command, "--config", tiny_config, "--out", str(out), *COMMAND_FLAGS[command]]) == EXIT_OK
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == command
        assert sorted(manifest["outputs"]) == sorted(p.name for p in out.glob("*.csv"))
        assert sorted(p.name for p in out.iterdir()) == sorted([*manifest["outputs"], "manifest.json"])
        assert manifest["runtime_s"] > 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith(f"{command} complete in ")

    def test_validate_config_writes_nothing(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert main(["validate-config", "--config", QUICKSTART]) == EXIT_OK
        assert not list(tmp_path.iterdir())
        assert capsys.readouterr().out == f"config ok: {QUICKSTART}\n"

    @pytest.mark.parametrize("command", ["validate-config", "run"])
    @pytest.mark.parametrize("line,message", [
        ("  spawn_x: [15.0, -15.0]", "scenario: spawn_x must be ordered [low, high], got (15.0, -15.0)"),
        ("  min_clearance: -6.0", "scenario: min_clearance must be non-negative, got -6.0"),
    ])
    def test_reversed_range_or_negative_clearance_is_a_config_error(self, tmp_path, capsys, command, line, message):
        path = tmp_path / "bad.yaml"
        key = line.split(":")[0]
        path.write_text("\n".join(line if row.startswith(f"{key}:") else row for row in TINY.splitlines()))
        out = tmp_path / "out"
        extra = ["--out", str(out)] if command == "run" else []
        assert main([command, "--config", str(path), *extra]) == EXIT_CONFIG
        assert f"config error: {message}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["validate-config", "run"])
    def test_feature_dim_beyond_u16_is_a_config_error(self, tmp_path, capsys, command):
        path = tmp_path / "wide.yaml"
        path.write_text(TINY.replace("feature_dim: 8", "feature_dim: 70000"))
        out = tmp_path / "out"
        extra = ["--out", str(out)] if command == "run" else []
        assert main([command, "--config", str(path), *extra]) == EXIT_CONFIG
        message = "config error: agents[0].sensor: feature_dim 70000 outside [1, 65535] (u16 on the wire)"
        assert message in capsys.readouterr().err
        assert not out.exists()
