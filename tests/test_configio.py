"""Config loading: schema, key-path errors, round trips of the shipped configs."""

import math
import re

import pytest

from coopfuse.configio import (
    ConfigError,
    dump_scenario,
    load_scenario,
    scenario_from_dict,
    scenario_to_dict,
)
from conftest import shipped

MINIMAL = """
scenario:
  duration_s: 2.0
  tick_s: 0.5
  seed: 7
  object_count: 3
agents:
  - {agent_id: 0, ego: true, sensor: {feature_dim: 8}}
"""


class TestLoadScenario:
    def test_minimal(self, tmp_path):
        path = tmp_path / "cfg.yaml"
        path.write_text(MINIMAL)
        cfg = load_scenario(path)
        assert cfg.seed == 7
        assert cfg.object_count == 3
        assert cfg.agents[0].ego

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            load_scenario(tmp_path / "nope.yaml")

    def test_invalid_yaml(self, tmp_path):
        path = tmp_path / "bad.yaml"
        path.write_text("scenario: [unclosed")
        with pytest.raises(ConfigError):
            load_scenario(path)

    def test_unknown_key_named(self):
        with pytest.raises(ConfigError, match="scenario.spped"):
            scenario_from_dict({"scenario": {"spped": 1}})

    def test_nested_unknown_key_named(self):
        with pytest.raises(ConfigError, match=r"agents\[0\].sensor.rage"):
            scenario_from_dict(
                {"scenario": {}, "agents": [{"agent_id": 0, "ego": True, "sensor": {"rage": 1}}]}
            )

    def test_bad_value_reports_section(self):
        with pytest.raises(ConfigError, match="channel"):
            scenario_from_dict({"channel": {"drop_prob": 1.5}})

    def test_bad_pair_shape(self):
        with pytest.raises(ConfigError, match="scenario.speed_range"):
            scenario_from_dict({"scenario": {"speed_range": [1, 2, 3]}})

    def test_unknown_aligner(self):
        with pytest.raises(ConfigError, match="feature_aligner"):
            scenario_from_dict(
                {"scenario": {}, "pipeline": {"alignment": {"feature_aligner": "magic"}}}
            )


def _two_agents(ego_id=0, coop_id=1, class_count=2):
    return {
        "scenario": {"class_count": class_count},
        "agents": [
            {"agent_id": ego_id, "ego": True, "sensor": {"feature_dim": 8}},
            {"agent_id": coop_id, "sensor": {"feature_dim": 8}},
        ],
    }


class TestWireBoundFields:
    """Fields that land in u16/u8 wire slots are checked when loaded."""

    def test_duplicate_agent_ids_rejected(self):
        with pytest.raises(ConfigError, match=r"scenario: agents\[0\] and agents\[1\] share agent_id 3"):
            scenario_from_dict(_two_agents(ego_id=3, coop_id=3))

    @pytest.mark.parametrize("agent_id", [-1, 65536, 70000])
    def test_agent_id_outside_u16_rejected(self, agent_id):
        with pytest.raises(ConfigError, match=rf"agents\[1\]: agent_id {agent_id} outside \[0, 65535\]"):
            scenario_from_dict(_two_agents(coop_id=agent_id))

    @pytest.mark.parametrize("class_count", [0, 257, 300])
    def test_class_count_outside_u8_rejected(self, class_count):
        with pytest.raises(ConfigError, match=rf"scenario: class_count {class_count} outside \[1, 256\]"):
            scenario_from_dict(_two_agents(class_count=class_count))

    def test_wire_limits_accepted(self):
        cfg = scenario_from_dict(_two_agents(coop_id=65535, class_count=256))
        assert cfg.agents[1].agent_id == 65535
        assert cfg.class_count == 256


NAN = math.nan
NAN_FIELDS = [
    ("scenario", "tick_s", NAN),
    ("scenario", "duration_s", NAN),
    ("scenario", "speed_range", [NAN, 8.0]),
    ("scenario", "speed_range", [3.0, NAN]),
    ("agents[0].sensor", "max_range", NAN),
    ("agents[0].sensor", "pos_noise_range_power", NAN),
    ("channel", "latency_ms", NAN),
    ("channel", "jitter_ms", NAN),
    ("channel", "accounting_window_s", NAN),
    ("pipeline", "r_int", NAN),
    ("pipeline.roi", "x_half", NAN),
    ("pipeline.roi", "y_half", NAN),
    ("pipeline.roi", "z_min", NAN),
    ("pipeline.roi", "z_max", NAN),
    ("pipeline.weights", "w_pos", NAN),
    ("pipeline.weights", "w_dim", NAN),
    ("pipeline.weights", "w_heading", NAN),
    ("pipeline.weights", "w_vel", NAN),
    ("pipeline.weights", "alpha", NAN),
    ("pipeline.weights", "cost_threshold", NAN),
    ("pipeline.fusion", "dedup_radius", NAN),
    ("pipeline.alignment", "max_compensation_horizon", NAN),
    ("pose_noise", "trans_sigma", NAN),
    ("pose_noise", "rot_sigma_deg", NAN),
]


class TestNanRejected:
    """A NaN fails every range check, so it is reported at its section."""

    @pytest.mark.parametrize(
        "section,key,value", NAN_FIELDS, ids=[f"{s}.{k}" for s, k, _ in NAN_FIELDS]
    )
    def test_nan_field_rejected(self, section, key, value):
        raw = scenario_to_dict(shipped("range_study"))
        node = raw
        for part in section.replace("[0]", ".0").split("."):
            node = node[int(part)] if part.isdigit() else node[part]
        node[key] = value
        with pytest.raises(ConfigError, match=rf"^{re.escape(section)}: "):
            scenario_from_dict(raw)


class TestRoundTrip:
    def test_dump_then_load_identity(self, tmp_path):
        for name in ("quickstart", "latency_study", "range_study"):
            cfg = shipped(name, seed=13)
            path = tmp_path / "cfg.yaml"
            dump_scenario(cfg, path)
            assert load_scenario(path) == cfg
