"""Golden snapshot of the CLI's deterministic outputs.

``write_golden`` drives ``coopfuse.cli.main`` over a fixed set of cases at
seed 0 and keeps only the deterministic CSVs (the manifest carries wall
time, so it is left out). Each ``run`` case also gets ``tracks.csv``, every
output track of every frame to the last bit (see ``write_tracks``), so a
change that moves one track's state fails the test and names the frame.
``tests/test_golden.py`` calls the same function and compares every file
byte for byte with the copy committed next to this script. The bits depend
on numpy and libm; ``NUMPY_VERSION`` names the numpy that made the snapshot,
and CI installs that version. Regenerate the snapshot only for an intended
output change, and update ``NUMPY_VERSION`` with it:

    PYTHONPATH=src python tests/golden/make_golden.py
"""

from __future__ import annotations

import hashlib
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np

from coopfuse.cli import EXIT_OK, main
from coopfuse.configio import dump_scenario, load_scenario
from coopfuse.core import StateVector
from coopfuse.evaluation import write_csv
from coopfuse.robustness import TransformNoiseParams
from coopfuse.simulator import AgentSpec, ChannelModel, RunResult, ScenarioConfig, run_scenario

GOLDEN_DIR = Path(__file__).resolve().parent
NUMPY_VERSION = GOLDEN_DIR / "NUMPY_VERSION"
CONFIG_DIR = GOLDEN_DIR.parent.parent / "configs"
LOSSY = "lossy_multi_sender"
REORDERED = "lossy_reordered"
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
    (REORDERED, "run", None, ("metrics.csv", "events.csv")),
    (TRUNCATED, "run", None, ("metrics.csv", "events.csv")),
    (TURNING, "run", None, ("metrics.csv", "events.csv")),
    ("quickstart_robustness", "robustness", "quickstart.yaml", ("robustness.csv",)),
)


def lossy_multi_sender_config() -> ScenarioConfig:
    """Quickstart with three noisy D=256 cooperators over a lossy, jittery
    channel with sender pose noise: drops across several senders occur
    within 4 s. The 50 ms jitter is less than the 100 ms tick, so no sender's
    packets arrive out of order or two to a frame (see lossy_reordered)."""
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


def lossy_reordered_config() -> ScenarioConfig:
    """lossy_multi_sender with 250 ms of jitter at its 0.1 s tick: a sender's
    packets overtake each other, so the ego consumes some two to a frame (and
    keeps the newest) and some after a newer one from the same sender."""
    base = lossy_multi_sender_config()
    return replace(base, channel=replace(base.channel, jitter_ms=250.0))


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


FRAME_COLUMNS = ("t_us", "coop_consumed", "stale_dropped", "coop_prefusion_err")
TRACK_COLUMNS = ("track_id", "class_id", "source_agent", "observed_at", "confidence",
                 *StateVector._fields, "feature_sha256")


def write_tracks(run: RunResult, path: Path) -> None:
    """One row per frame with its counters, then one row per output track: identity,
    ``observed_at``, the ``repr`` of the confidence and of each state float, and a
    SHA-256 of the feature's float64 bytes."""
    rows = []
    for frame in run.frames:
        rows.append({"t_us": frame.t_us, "coop_consumed": frame.coop_consumed,
                     "stale_dropped": frame.stale_dropped, "coop_prefusion_err": repr(frame.coop_prefusion_err)})
        for inst in frame.tracks.instances:
            state = {name: repr(getattr(inst.state, name)) for name in StateVector._fields}
            feature = np.ascontiguousarray(inst.feature, dtype=np.float64).tobytes()
            rows.append({"t_us": frame.t_us, "track_id": inst.track_id, "class_id": inst.class_id,
                         "source_agent": inst.source_agent, "observed_at": inst.observed_at,
                         "confidence": repr(inst.confidence), **state,
                         "feature_sha256": hashlib.sha256(feature).hexdigest()})
    columns = FRAME_COLUMNS + TRACK_COLUMNS
    write_csv(path, columns, [{c: row.get(c, "") for c in columns} for row in rows])


BUILT_CONFIGS = {
    LOSSY: lossy_multi_sender_config,
    REORDERED: lossy_reordered_config,
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
            if command == "run":
                write_tracks(run_scenario(replace(load_scenario(config_path), seed=0)), case_dir / "tracks.csv")
                written.append(Path(case) / "tracks.csv")
    return written


if __name__ == "__main__":
    for path in write_golden(GOLDEN_DIR):
        print(path)
    NUMPY_VERSION.write_text(np.__version__ + "\n")
