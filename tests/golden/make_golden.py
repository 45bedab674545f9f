"""Golden snapshot of the CLI's deterministic outputs.

``write_golden`` drives ``coopfuse.cli.main`` over a fixed set of cases at
seed 0 and keeps only the deterministic CSVs (the manifest carries wall
time, so it is left out). ``tests/test_golden.py`` calls the same function
and compares every file byte for byte with the copy committed next to this
script. Regenerate the snapshot only for an intended output change:

    PYTHONPATH=src python tests/golden/make_golden.py
"""

from __future__ import annotations

import tempfile
from dataclasses import replace
from pathlib import Path

from coopfuse.cli import EXIT_OK, main
from coopfuse.configio import dump_scenario, load_scenario
from coopfuse.robustness import TransformNoiseParams
from coopfuse.simulator import AgentSpec, ChannelModel, ScenarioConfig

GOLDEN_DIR = Path(__file__).resolve().parent
CONFIG_DIR = GOLDEN_DIR.parent.parent / "configs"
LOSSY = "lossy_multi_sender"
TRUNCATED = "quickstart_top3"
TURNING = "range_study_turning"

# (case directory, CLI command, config, files the command writes)
CASES = (
    ("quickstart", "run", "quickstart.yaml", ("metrics.csv", "events.csv")),
    ("range_study", "run", "range_study.yaml", ("metrics.csv", "events.csv")),
    ("latency_study", "run", "latency_study.yaml", ("metrics.csv", "events.csv")),
    ("range_study_sweep", "sweep-rint", "range_study.yaml", ("rint_sweep.csv",)),
    ("latency_study_sweep", "sweep-latency", "latency_study.yaml", ("latency_sweep.csv",)),
    (LOSSY, "run", None, ("metrics.csv", "events.csv")),
    (TRUNCATED, "run", None, ("metrics.csv", "events.csv")),
    (TURNING, "run", None, ("metrics.csv", "events.csv")),
    ("quickstart_robustness", "robustness", "quickstart.yaml", ("robustness.csv",)),
)


def lossy_multi_sender_config() -> ScenarioConfig:
    """Quickstart with three noisy D=256 cooperators over a lossy, jittery
    channel with sender pose noise: drops, reordering and newest-packet
    selection across several senders all occur within 4 s."""
    base = load_scenario(CONFIG_DIR / "quickstart.yaml")
    sensor = replace(
        base.agents[1].sensor,
        feature_dim=256,
        detect_prob_far=0.85,
        pos_noise_sigma=0.2,
        vel_noise_sigma=0.1,
        dim_noise_sigma=0.05,
        feature_noise_sigma=0.2,
        confidence_far=0.5,
    )
    agents = (
        replace(base.agents[0], sensor=replace(sensor, max_range=25.0)),
        replace(base.agents[1], sensor=sensor),
        AgentSpec(agent_id=2, x=-20.0, y=15.0, yaw_deg=-30.0, vx=1.0,
                  sensor=replace(sensor, fov_deg=270.0)),
        AgentSpec(agent_id=3, x=5.0, y=-25.0, yaw_deg=90.0, sensor=sensor),
    )
    return replace(
        base,
        duration_s=4.0,
        tick_s=0.1,
        agents=agents,
        channel=ChannelModel(latency_ms=100.0, jitter_ms=50.0, drop_prob=0.2),
        pose_noise=TransformNoiseParams(trans_sigma=1.0, rot_sigma_deg=0.5),
    )


def quickstart_top3_config() -> ScenarioConfig:
    """Quickstart with every cooperator packet cut to 3 of its 10 detections,
    all at the same confidence, and an ego that sees only 10 m: which tied
    detections are sent decides which objects the ego outputs."""
    base = load_scenario(CONFIG_DIR / "quickstart.yaml")
    ego, coop = base.agents
    assert coop.sensor.confidence_near == coop.sensor.confidence_far
    return replace(
        base,
        agents=(replace(ego, sensor=replace(ego.sensor, max_range=10.0)), coop),
        pipeline=replace(base.pipeline, transmit_top_k=3),
    )


def range_study_turning_config() -> ScenarioConfig:
    """range_study with every object turning at up to 0.4 rad/s, so the
    world step follows circular arcs instead of straight lines."""
    base = load_scenario(CONFIG_DIR / "range_study.yaml")
    return replace(base, yaw_rate_range=(-0.4, 0.4))


BUILT_CONFIGS = {
    LOSSY: lossy_multi_sender_config,
    TRUNCATED: quickstart_top3_config,
    TURNING: range_study_turning_config,
}


def write_golden(out_dir) -> list[Path]:
    """Write every case under ``out_dir``; return the files, relative to it."""
    out_dir = Path(out_dir)
    written = []
    with tempfile.TemporaryDirectory() as scratch:
        for case, command, config, files in CASES:
            if config is None:
                config_path = Path(scratch) / f"{case}.yaml"
                dump_scenario(BUILT_CONFIGS[case](), config_path)
            else:
                config_path = CONFIG_DIR / config
            case_dir = out_dir / case
            argv = [command, "--config", str(config_path), "--seed", "0", "--out", str(case_dir)]
            if main(argv) != EXIT_OK:
                raise RuntimeError(f"coopfuse {' '.join(argv)} failed")
            (case_dir / "manifest.json").unlink()
            written.extend(Path(case) / name for name in files)
    return written


if __name__ == "__main__":
    for path in write_golden(GOLDEN_DIR):
        print(path)
