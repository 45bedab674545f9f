"""Config loading: schema, key-path errors, round trips of the shipped configs."""

import math
import re
import tempfile
import typing
from dataclasses import MISSING, fields, is_dataclass, replace
from pathlib import Path

import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from coopfuse.configio import (
    _RETIRED,
    ConfigError,
    dump_scenario,
    load_scenario,
    scenario_from_dict,
    scenario_to_dict,
)
from coopfuse.alignment import AlignmentConfig
from coopfuse.association import MatchWeights, RoiSpec
from coopfuse.fusion import FusionConfig
from coopfuse.robustness import ObservationNoiseParams, TransformNoiseParams
from coopfuse.simulator import (
    AgentSpec,
    ChannelModel,
    PipelineConfig,
    ScenarioConfig,
    SensorModel,
)
from conftest import CONFIG_DIR, shipped

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

    def test_retired_aligner_at_another_value(self):
        with pytest.raises(ConfigError, match=r"^pipeline\.alignment\.feature_aligner: retired, loads only as 'identity'"):
            scenario_from_dict(
                {"scenario": {}, "pipeline": {"alignment": {"feature_aligner": "yaw_conditioned"}}}
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
        with pytest.raises(ConfigError, match=r"^agents\[0\] and agents\[1\] share agent_id 3"):
            scenario_from_dict(_two_agents(ego_id=3, coop_id=3))

    def test_agent_position_error_names_the_agents_section(self):
        raw = _two_agents()
        raw["agents"][1].update(x=1.7e308, vx=1.0e308)
        with pytest.raises(ConfigError, match=r"^agents\[1\]: position at duration_s is not finite"):
            scenario_from_dict(raw)

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

    @pytest.mark.parametrize("count", [65536, 2**63])
    def test_object_count_beyond_the_u16_record_count_rejected(self, count):
        raw = _two_agents()
        raw["scenario"]["object_count"] = count
        with pytest.raises(ConfigError, match=rf"^scenario: object_count {count} outside \[1, 65535\] \(u16 record"):
            scenario_from_dict(raw)

    def test_cooperator_beyond_f32_rejected_ego_accepted(self):
        raw = _two_agents()
        raw["agents"][1]["x"] = 4e38
        with pytest.raises(ConfigError, match=r"^agents\[1\]: a cooperator's position must stay within f32's range"):
            scenario_from_dict(raw)
        raw = _two_agents()
        raw["agents"][0]["x"] = 4e38
        assert scenario_from_dict(raw).agents[0].x == 4e38


NAN = math.nan
NAN_FIELDS = [
    ("scenario", "tick_s", NAN),
    ("scenario", "duration_s", NAN),
    ("scenario", "speed_range", [NAN, 8.0]),
    ("scenario", "speed_range", [3.0, NAN]),
    ("agents[0].sensor", "max_range", NAN),
    ("agents[0].sensor", "fov_deg", NAN),
    ("agents[0].sensor", "pos_noise_range_power", NAN),
    ("channel", "latency_ms", NAN),
    ("channel", "jitter_ms", NAN),
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


NOISE_KNOBS = ["pos_noise_sigma", "pos_noise_far_factor", "vel_noise_sigma", "dim_noise_sigma",
               "feature_noise_sigma", "track_gate"]


@pytest.mark.parametrize("key", NOISE_KNOBS)
def test_negative_sensor_noise_rejected(key):
    raw = scenario_to_dict(shipped("range_study"))
    raw["agents"][0]["sensor"][key] = -2.0
    with pytest.raises(ConfigError, match=rf"^agents\[0\]\.sensor: {key} must be non-negative"):
        scenario_from_dict(raw)


class TestOrderedRanges:
    """A reversed [low, high] pair is a config error, not a numpy traceback from build_world."""

    @pytest.mark.parametrize("key,pair", [("spawn_x", [15.0, -15.0]), ("spawn_y", [3.0, 2.0]),
                                          ("spawn_z", [1.0, 0.0]), ("yaw_rate_range", [0.5, -0.5])])
    def test_reversed_pair_rejected(self, key, pair):
        raw = scenario_to_dict(shipped("quickstart"))
        raw["scenario"][key] = pair
        message = f"scenario: {key} must be ordered [low, high], got ({pair[0]}, {pair[1]})"
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            scenario_from_dict(raw)

    def test_negative_min_clearance_rejected(self):
        raw = scenario_to_dict(shipped("quickstart"))
        raw["scenario"]["min_clearance"] = -6.0
        with pytest.raises(ConfigError, match=r"^scenario: min_clearance must be non-negative, got -6\.0$"):
            scenario_from_dict(raw)


class TestRoundTrip:
    def test_dump_then_load_identity(self, tmp_path):
        for name in ("quickstart", "latency_study", "range_study"):
            cfg = shipped(name, seed=13)
            path = tmp_path / "cfg.yaml"
            dump_scenario(cfg, path)
            assert load_scenario(path) == cfg


CROWD = CONFIG_DIR.parent / "perfbench" / "configs" / "crowd.yaml"
RETIRED_LINES = ("  accounting_window_s: 0.0\n", "    feature_aligner: identity\n", "    confidence_fusion: max\n",
                 "  three_axis: false\n")


def _section(raw: dict, section: str) -> dict:
    """The mapping at the dotted ``section`` of ``raw``, made empty where it is missing."""
    node = raw
    for part in section.split("."):
        node = node.setdefault(part, {})
    return node


class TestRetiredKeys:
    """A retired field's key loads only at the one value the program now always uses, and is dropped."""

    def test_a_file_that_sets_them_loads_as_one_without_them(self, tmp_path):
        text = CROWD.read_text()
        assert [text.count(line) for line in RETIRED_LINES] == [1, 1, 1, 1]
        for line in RETIRED_LINES:
            text = text.replace(line, "")
        path = tmp_path / "crowd.yaml"
        path.write_text(text)
        cfg = load_scenario(CROWD)
        assert cfg == load_scenario(path)
        dumped = scenario_to_dict(cfg)
        assert "accounting_window_s" not in dumped["channel"]
        assert "feature_aligner" not in dumped["pipeline"]["alignment"]
        assert "confidence_fusion" not in dumped["pipeline"]["fusion"]
        assert "three_axis" not in dumped["pose_noise"]

    @pytest.mark.parametrize("zero", [0, 0.0, -0.0])
    def test_the_window_loads_at_any_zero(self, zero):
        assert scenario_from_dict({"channel": {"accounting_window_s": zero}}) == scenario_from_dict({})

    @pytest.mark.parametrize(
        "section,key,value",
        [("pipeline.alignment", "feature_aligner", "identity"), ("pipeline.fusion", "confidence_fusion", "max"),
         ("pose_noise", "three_axis", False)],
    )
    def test_a_named_key_loads_at_its_one_value(self, section, key, value):
        raw = {}
        _section(raw, section)
        without = scenario_from_dict(raw)
        _section(raw, section)[key] = value
        assert scenario_from_dict(raw) == without

    def test_a_file_of_every_field_with_them_loads_as_before(self, tmp_path):
        # A file written from the old full example: every field set, every retired key at its one value.
        raw = scenario_to_dict(EVERY_FIELD_SET)
        raw["channel"]["accounting_window_s"] = 0.0
        raw["pipeline"]["alignment"]["feature_aligner"] = "identity"
        raw["pipeline"]["fusion"]["confidence_fusion"] = "max"
        raw["pose_noise"]["three_axis"] = False
        path = tmp_path / "every.yaml"
        path.write_text(yaml.safe_dump(raw, sort_keys=False))
        assert load_scenario(path) == EVERY_FIELD_SET

    @pytest.mark.parametrize(
        "section,key,value",
        [("channel", "accounting_window_s", False), ("channel", "accounting_window_s", 1.0),
         ("channel", "accounting_window_s", NAN), ("channel", "accounting_window_s", math.inf),
         ("channel", "accounting_window_s", -math.inf), ("channel", "accounting_window_s", None),
         ("pipeline.alignment", "feature_aligner", "magic"),
         ("pipeline.alignment", "feature_aligner", "yaw_conditioned"),
         ("pipeline.alignment", "feature_aligner", None),
         ("pipeline.fusion", "confidence_fusion", "noisy_or"), ("pipeline.fusion", "confidence_fusion", 1),
         ("pipeline.fusion", "confidence_fusion", None), ("pose_noise", "three_axis", True),
         ("pose_noise", "three_axis", 1), ("pose_noise", "three_axis", 0), ("pose_noise", "three_axis", None)],
    )
    def test_any_other_value_is_refused_with_its_key_path(self, section, key, value):
        raw = scenario_to_dict(shipped("range_study"))
        _section(raw, section)[key] = value
        with pytest.raises(ConfigError, match=rf"^{re.escape(section)}\.{key}: "):
            scenario_from_dict(raw)

    @pytest.mark.parametrize(
        "section,key,value",
        [("pipeline.alignment", "accounting_window_s", 0.0), ("channel", "feature_aligner", "identity"),
         ("pipeline.alignment", "confidence_fusion", "max"), ("channel", "three_axis", False)],
    )
    def test_outside_its_own_section_a_retired_key_is_unknown(self, section, key, value):
        raw = scenario_to_dict(shipped("range_study"))
        _section(raw, section)[key] = value
        with pytest.raises(ConfigError, match=rf"^{re.escape(section)}\.{key}: unknown key$"):
            scenario_from_dict(raw)

    @pytest.mark.parametrize("path", sorted(CONFIG_DIR.glob("*.yaml")), ids=lambda path: path.name)
    def test_no_shipped_config_sets_one(self, path):
        # The worked examples stay migrated; only perfbench's crowd.yaml and users' files lean on the table.
        raw = yaml.safe_load(path.read_text())
        for key_path in _RETIRED:
            section, key = key_path.rsplit(".", 1)
            assert key not in _section(raw, section), key_path


NON_FINITE_FIELDS = [
    (section, key, bad(value))
    for section, key, bad in [
        ("agents[0].sensor", "track_gate", lambda v: v),
        ("scenario", "min_clearance", lambda v: v),
        ("agents[0].sensor", "pos_noise_sigma", lambda v: v),
        ("scenario", "spawn_x", lambda v: [-42.0, v]),
        ("agents[0]", "x", lambda v: v),
    ]
    for value in (math.nan, math.inf, -math.inf)
]


class TestNonFiniteRejected:
    """Every number must be finite, range-checked or not."""

    @pytest.mark.parametrize(
        "section,key,value", NON_FINITE_FIELDS,
        ids=[f"{s}.{k}={v}" for s, k, v in NON_FINITE_FIELDS],
    )
    def test_non_finite_field_rejected(self, section, key, value):
        raw = scenario_to_dict(shipped("range_study"))
        node = raw
        for part in section.replace("[0]", ".0").split("."):
            node = node[int(part)] if part.isdigit() else node[part]
        node[key] = value
        with pytest.raises(ConfigError, match=rf"^{re.escape(section)}: {key} must be finite"):
            scenario_from_dict(raw)

    def test_infinite_r_int_rejected(self):
        with pytest.raises(ConfigError, match=r"^pipeline: r_int must be finite"):
            scenario_from_dict({"pipeline": {"r_int": math.inf}})


class TestFieldTypes:
    """Each value is read through the type of the field it fills."""

    @pytest.mark.parametrize(
        "raw,message",
        [
            ({"scenario": {"object_count": 2.5}}, "scenario.object_count: expected int, got 2.5"),
            ({"scenario": {"seed": 1.5}}, "scenario.seed: expected int, got 1.5"),
            ({"scenario": {"class_count": 2.0}}, "scenario.class_count: expected int, got 2.0"),
            ({"agents": [{"agent_id": 0, "ego": "no"}]}, "agents[0].ego: expected bool, got 'no'"),
            ({"agents": [{"agent_id": True, "ego": True}]}, "agents[0].agent_id: expected int"),
            ({"scenario": {"spawn_x": ["a", 1.0]}}, "scenario.spawn_x[0]: expected float, got 'a'"),
        ],
    )
    def test_ill_typed_value_rejected(self, raw, message):
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}"):
            scenario_from_dict(raw)

    def test_negative_seed_rejected(self):
        with pytest.raises(ConfigError, match="^scenario: seed must be non-negative"):
            scenario_from_dict({"scenario": {"seed": -3}})

    def test_int_accepted_for_float(self):
        cfg = scenario_from_dict({"scenario": {"duration_s": 12, "spawn_x": [-10, 10]}})
        assert cfg.duration_s == 12.0 and type(cfg.duration_s) is float
        assert cfg.spawn_x == (-10.0, 10.0) and type(cfg.spawn_x[0]) is float


def _sensor(k: int) -> SensorModel:
    return SensorModel(
        max_range=60.0 + k, fov_deg=180.0 + k, detect_prob_near=0.9 - k / 100,
        detect_prob_far=0.7 - k / 100, pos_noise_sigma=0.3 + k, pos_noise_far_factor=3.0 + k,
        pos_noise_range_power=2.0 + k, vel_noise_sigma=0.2 + k, dim_noise_sigma=0.1 + k,
        feature_noise_sigma=0.4 + k, confidence_near=0.8 - k / 100, confidence_far=0.4 - k / 100,
        feature_dim=32, track_gate=5.0 + k,
    )


EVERY_FIELD_SET = ScenarioConfig(
    duration_s=7.5, tick_s=0.25, seed=11, object_count=9,
    spawn_x=(-30.0, 31.0), spawn_y=(-32.0, 33.0), spawn_z=(0.5, 1.5),
    speed_range=(1.0, 4.0), yaw_rate_range=(-0.1, 0.2), class_count=3, min_clearance=2.5,
    agents=tuple(
        AgentSpec(agent_id=7 + k, x=1.5 + k, y=-2.5 + k, z=0.25 + k, yaw_deg=30.0 + k,
                  vx=0.5 + k, vy=-0.5 + k, ego=k == 1, sensor=_sensor(k))
        for k in range(3)
    ),
    channel=ChannelModel(latency_ms=80.0, jitter_ms=20.0, drop_prob=0.05),
    pipeline=PipelineConfig(
        roi=RoiSpec(x_half=40.0, y_half=30.0, z_min=-2.0, z_max=4.0),
        r_int=25.0,
        weights=MatchWeights(w_pos=2.0, w_dim=0.25, w_heading=0.75, w_vel=0.125,
                             alpha=1.5, cost_threshold=7.0),
        fusion=FusionConfig(dedup_radius=1.5, smoothing_gain_pos=0.5, smoothing_gain_vel=0.3,
                            output_confidence_threshold=0.4),
        alignment=AlignmentConfig(max_compensation_horizon=1.5),
        compensate_latency=False, transmit_top_k=20, transmit_confidence_min=0.2,
    ),
    pose_noise=TransformNoiseParams(trans_sigma=0.5, rot_sigma_deg=1.0),
)


def _field_coverage(obj, seen: set, changed: set) -> None:
    """Collect ``Class.field`` for every field of a config dataclass tree,
    and separately those holding a non-default value somewhere in it."""
    for f in fields(obj):
        value = getattr(obj, f.name)
        children = value if isinstance(value, tuple) else (value,)
        if children and all(is_dataclass(c) for c in children):
            for child in children:
                _field_coverage(child, seen, changed)
            continue
        name = f"{type(obj).__name__}.{f.name}"
        seen.add(name)
        if f.default_factory is not MISSING:
            default = f.default_factory()
        else:
            default = f.default
        if value != default:
            changed.add(name)


class TestSchemaCoverage:
    def test_every_field_round_trips(self, tmp_path):
        seen, changed = set(), set()
        _field_coverage(EVERY_FIELD_SET, seen, changed)
        assert seen - changed == set(), "give every config field a non-default value"
        assert {"TransformNoiseParams.rot_sigma_deg", "AgentSpec.ego", "SensorModel.track_gate"} <= seen
        path = tmp_path / "cfg.yaml"
        dump_scenario(EVERY_FIELD_SET, path)
        assert load_scenario(path) == EVERY_FIELD_SET


def _held_classes(cls) -> list[type]:
    """``cls`` and every config dataclass its fields hold, found through their types."""
    found = [cls]
    for tp in typing.get_type_hints(cls).values():
        for held in (tp, *typing.get_args(tp)):
            if is_dataclass(held) and held not in found:
                found += [c for c in _held_classes(held) if c not in found]
    return found


# The scenario's classes and the perturbation harness's own noise config.
CONFIG_CLASSES = [*_held_classes(ScenarioConfig), ObservationNoiseParams]
NON_FINITE = (math.nan, math.inf, -math.inf)


def _float_slots(cls) -> list[tuple[str, int | None]]:
    """``(field, None)`` for each float field of ``cls`` and ``(field, i)`` for each side of a float pair."""
    hints = typing.get_type_hints(cls)
    slots = []
    for f in fields(cls):
        if hints[f.name] is float:
            slots.append((f.name, None))
        elif hints[f.name] == tuple[float, float]:
            slots += [(f.name, 0), (f.name, 1)]
    return slots


FLOAT_SLOTS = [
    (cls, name, side, bad) for cls in CONFIG_CLASSES for name, side in _float_slots(cls) for bad in NON_FINITE
]


def test_the_generated_cases_cover_every_config_class():
    assert len(CONFIG_CLASSES) == 11
    assert {cls for cls, *_ in FLOAT_SLOTS} == set(CONFIG_CLASSES)


@pytest.mark.parametrize(
    "cls,name,side,bad", FLOAT_SLOTS,
    ids=[f"{c.__name__}.{n}{'' if i is None else f'[{i}]'}={b}" for c, n, i, b in FLOAT_SLOTS],
)
def test_every_float_field_rejects_non_finite_values(cls, name, side, bad):
    """The constructors are the one rule: no float field of any config class holds NaN or an infinity."""
    with pytest.raises(ValueError) as caught:
        _in_slot(cls, name, side, bad)
    assert name in str(caught.value)


def _in_slot(cls, name, side, value):
    """``cls`` built with ``value`` in one float slot, every other field at its default (a required one 0)."""
    required = {f.name: 0 for f in fields(cls) if f.default is MISSING and f.default_factory is MISSING}
    if side is not None:
        pair = list(getattr(cls(**required), name))
        pair[side] = value
        value = tuple(pair)
    return cls(**required, **{name: value})


ZERO_SLOTS = sorted({(cls, name, side) for cls, name, side, _ in FLOAT_SLOTS}, key=repr)


@pytest.mark.parametrize(
    "cls,name,side", ZERO_SLOTS, ids=[f"{c.__name__}.{n}{'' if i is None else f'[{i}]'}" for c, n, i in ZERO_SLOTS],
)
def test_every_float_field_stores_a_negative_zero_as_zero(cls, name, side):
    """-0.0 passes every range rule that 0.0 passes, so a config holds either as 0.0: one output, one hash."""
    try:
        cfg = _in_slot(cls, name, side, -0.0)
    except ValueError:
        with pytest.raises(ValueError):
            _in_slot(cls, name, side, 0.0)
        return
    stored = getattr(cfg, name) if side is None else getattr(cfg, name)[side]
    assert (stored, math.copysign(1.0, stored)) == (0.0, 1.0)


def _float_paths(obj, prefix=()) -> list[tuple]:
    """The path of every float in a config tree: field names, and indices into tuples."""
    paths = []
    for name, side in _float_slots(type(obj)):
        paths.append((*prefix, name) if side is None else (*prefix, name, side))
    for f in fields(obj):
        value = getattr(obj, f.name)
        if is_dataclass(value):
            paths += _float_paths(value, (*prefix, f.name))
        elif isinstance(value, tuple) and value and is_dataclass(value[0]):
            for i, item in enumerate(value):
                paths += _float_paths(item, (*prefix, f.name, i))
    return paths


def _with(obj, path: tuple, value):
    """``obj`` rebuilt through its constructors with ``value`` at ``path``."""
    head, *rest = path
    inner = _with(obj[head] if isinstance(head, int) else getattr(obj, head), rest, value) if rest else value
    if isinstance(head, int):
        return (*obj[:head], inner, *obj[head + 1:])
    return replace(obj, **{head: inner})


def _set_in_yaml(raw: dict, path: tuple, value) -> None:
    """Put ``value`` at ``path`` in a parsed config file, whose plain fields sit under ``scenario:``."""
    node = raw if path[0] in raw else raw["scenario"]
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value


FLOAT_PATHS = _float_paths(EVERY_FIELD_SET)


class TestOneRule:
    """A value is valid in Python exactly when it is valid in a config file."""

    @settings(max_examples=300, deadline=None)
    @given(
        path=st.sampled_from(FLOAT_PATHS),
        value=st.one_of(st.sampled_from(NON_FINITE), st.floats(), st.floats(-100.0, 100.0)),
    )
    def test_python_and_yaml_accept_the_same_values(self, path, value):
        try:
            cfg = _with(EVERY_FIELD_SET, path, value)
        except ValueError as refused:
            raw = scenario_to_dict(EVERY_FIELD_SET)
            _set_in_yaml(raw, path, value)
            with pytest.raises(ConfigError) as caught:
                scenario_from_dict(raw)
            assert str(caught.value).endswith(str(refused))
            return
        with tempfile.TemporaryDirectory() as tmp:
            dump_scenario(cfg, Path(tmp) / "cfg.yaml")
            assert load_scenario(Path(tmp) / "cfg.yaml") == cfg
