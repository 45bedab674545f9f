"""World stepping, sensing, channel behavior, and whole-run properties."""

import logging
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coopfuse import receiver, simulator
from coopfuse.configio import load_scenario
from coopfuse.core import GroundTruthObject, Instance, InstanceBatch, RigidTransform, StateVector, state_rows
from coopfuse.association import RoiSpec
from coopfuse.evaluation import compute_metrics, metrics_row, sweep_interaction_range
from coopfuse.receiver import PipelineConfig
from coopfuse.robustness import TransformNoiseParams, perturb_transform
from coopfuse.wire import MAX_F32, MAX_RECORD_COUNT, MAX_TIMESTAMP, InstancePacket, decode_packet, encode_packet
from coopfuse.simulator import (
    Agent,
    AgentSpec,
    ChannelModel,
    ScenarioConfig,
    SensorModel,
    World,
    bev_baseline_cost,
    build_world,
    record_scene,
    run_scenario,
    sense,
    step_world,
    transmit,
)
from conftest import make_instance, make_state, shipped
from golden.make_golden import lossy_multi_sender_config
from oracles import (
    reference_detections,
    reference_min_separation,
    reference_prefusion_error,
    reference_step,
    reference_track_ids,
)

# Half-metre positions and velocities with 0.5 s ticks keep every predicted
# position and distance exact, so equal distances and distances exactly at
# the gate (e.g. 1.5-2-2.5) really occur.
_HALF = st.integers(-8, 8).map(lambda v: v / 2)
_OBJECTS = st.lists(
    st.tuples(st.integers(0, 1), _HALF, _HALF, st.integers(-3, 3).map(lambda v: v / 2),
              st.integers(-3, 3).map(lambda v: v / 2)),
    max_size=7,
)


def _world(*objects, time_us=0):
    """A world of ``(object_id, class_id, state[, yaw_rate])`` objects."""
    objects = [(*o, 0.0)[:4] for o in objects]
    return World(
        time_us,
        state_rows(o[2] for o in objects),
        np.array([o[0] for o in objects], dtype=np.int64),
        np.array([o[1] for o in objects], dtype=np.int64),
        np.array([o[3] for o in objects], dtype=np.float64),
    )


def _state(world, i=0):
    """Object ``i`` of ``world`` as a checked StateVector."""
    return StateVector(*world.rows[i].tolist())


_STEP_OBJECTS = st.lists(
    st.tuples(
        st.floats(-60, 60), st.floats(-60, 60), st.floats(-2, 2),  # position
        st.floats(-math.pi, math.pi),  # heading
        st.floats(-10, 10), st.floats(-10, 10), st.floats(-1, 1),  # velocity
        # Yaw rate: straight, non-zero but below the arc cut-off, at the cut-off, or turning.
        st.sampled_from([0.0, -0.0, 5e-13, -5e-13, 1e-12, -1e-12]) | st.floats(-0.8, 0.8),
    ),
    max_size=8,
)


class TestStepWorld:
    def test_zero_velocity_unchanged(self):
        world = _world((0, 0, make_state(x=3.0)))
        out = step_world(world, 0.5)
        assert _state(out) == _state(world)

    def test_hand_kinematics(self):
        world = _world((0, 0, make_state(x=0.0, vx=10.0)))
        out = step_world(world, 0.5)
        assert _state(out).x == pytest.approx(5.0)
        assert out.time_us == 500_000

    def test_half_turn_arc(self):
        # yaw rate pi rad/s for 1 s flips the heading; the arc displacement
        # follows the closed form x += r sin(th1), y -= r (cos(th1) - 1).
        speed = 4.0
        world = _world((0, 0, make_state(vx=speed), math.pi))
        out = step_world(world, 1.0)
        state = _state(out)
        radius = speed / math.pi
        assert state.cos_yaw == pytest.approx(-1.0)
        assert state.x == pytest.approx(0.0, abs=1e-12)
        assert state.y == pytest.approx(2 * radius)
        assert state.vx == pytest.approx(-speed)

    def test_arc_preserves_speed(self):
        world = _world((0, 0, make_state(vx=3.0, vy=4.0), 0.7))
        out = step_world(world, 0.8)
        assert _state(out).speed == pytest.approx(5.0)

    def test_nan_dt_raises(self):
        with pytest.raises(ValueError, match="dt must be positive"):
            step_world(_world((0, 0, make_state(vx=1.0))), math.nan)

    @given(objects=_STEP_OBJECTS, dt=st.sampled_from([0.1, 0.5, 1.3]), steps=st.integers(1, 3))
    @settings(max_examples=200, deadline=None)
    def test_rows_equal_reference_and_step_alone(self, objects, dt, steps):
        world = _world(*(
            (i, 0, make_state(x=x, y=y, z=z, yaw=yaw, vx=vx, vy=vy, vz=vz), rate)
            for i, (x, y, z, yaw, vx, vy, vz, rate) in enumerate(objects)
        ))
        rates = world.yaw_rates.tolist()
        want = world.rows.tolist()
        for _ in range(steps):
            alone = [step_world(_world((i, 0, _state(world, i), rate)), dt) for i, rate in enumerate(rates)]
            world = step_world(world, dt)
            want = [reference_step(row, rate, dt) for row, rate in zip(want, rates)]
            for i, row in enumerate(world.rows.tolist()):
                assert [v.hex() for v in row] == [v.hex() for v in want[i]]
                assert alone[i].rows.tobytes() == world.rows[i].tobytes()


class TestSense:
    def _agent(self, sensor, seed=0, **spec_kw):
        spec = AgentSpec(agent_id=0, ego=True, sensor=sensor, **spec_kw)
        return Agent(spec, np.random.default_rng(seed))

    def test_object_behind_forward_fov_never_detected(self):
        sensor = SensorModel(max_range=100.0, fov_deg=120.0, feature_dim=8)
        agent = self._agent(sensor)
        world = _world((0, 0, make_state(x=-10.0)))
        for _ in range(50):
            assert sense(agent, world).instances() == []

    def test_out_of_range_never_detected(self):
        sensor = SensorModel(max_range=20.0, feature_dim=8)
        agent = self._agent(sensor)
        world = _world((0, 0, make_state(x=30.0)))
        assert sense(agent, world).instances() == []

    def test_noise_free_detections_equal_truth_in_agent_frame(self):
        sensor = SensorModel(max_range=100.0, feature_dim=8)
        agent = self._agent(sensor, x=5.0, y=-2.0, yaw_deg=90.0)
        obj = (3, 1, make_state(x=5.0, y=8.0, vx=2.0))
        detections = sense(agent, _world(obj)).instances()
        assert len(detections) == 1
        det = detections[0]
        # Agent at (5, -2) facing +y: the object 10 m ahead appears at x=+10.
        assert det.state.x == pytest.approx(10.0, abs=1e-9)
        assert det.state.y == pytest.approx(0.0, abs=1e-9)
        assert det.class_id == 1
        assert det.track_id is not None

    def test_detection_rate_matches_probability(self):
        sensor = SensorModel(max_range=100.0, detect_prob_near=0.9,
                             detect_prob_far=0.9, feature_dim=4)
        agent = self._agent(sensor, seed=5)
        world = _world((0, 0, make_state(x=10.0)))
        hits = sum(bool(sense(agent, world)) for _ in range(10_000))
        assert hits / 10_000 == pytest.approx(0.9, abs=0.01)

    def test_track_ids_stable_without_noise(self):
        sensor = SensorModel(max_range=100.0, feature_dim=8)
        agent = self._agent(sensor)
        world = _world(
            (0, 0, make_state(x=10.0, vx=2.0)),
            (1, 0, make_state(x=-10.0, vx=-1.0)),
        )
        first = sense(agent, world).instances()
        ids_first = [d.track_id for d in first]
        for _ in range(5):
            world = step_world(world, 0.5)
            ids = [d.track_id for d in sense(agent, world).instances()]
            assert ids == ids_first

    def test_confidence_decreases_with_range(self):
        sensor = SensorModel(max_range=100.0, confidence_near=0.95,
                             confidence_far=0.5, feature_dim=4)
        agent = self._agent(sensor)
        world = _world(
            (0, 0, make_state(x=5.0)),
            (1, 0, make_state(x=90.0)),
        )
        detections = sense(agent, world).instances()
        near = next(d for d in detections if d.state.x < 50)
        far = next(d for d in detections if d.state.x > 50)
        assert near.confidence > far.confidence


class TestSensorModelValidation:
    NOISE_KNOBS = ["pos_noise_sigma", "pos_noise_far_factor", "vel_noise_sigma", "dim_noise_sigma",
                   "feature_noise_sigma", "track_gate"]

    @pytest.mark.parametrize("name", NOISE_KNOBS)
    @pytest.mark.parametrize("value", [-2.0, -1e-9])
    def test_rejects_negative(self, name, value):
        with pytest.raises(ValueError, match=f"^{name} must be non-negative"):
            SensorModel(**{name: value})

    @pytest.mark.parametrize("name", NOISE_KNOBS)
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite(self, name, value):
        with pytest.raises(ValueError, match=f"^{name} must be finite"):
            SensorModel(**{name: value})

    @pytest.mark.parametrize("value", [math.nan, 0.0, -90.0, 360.5, 720.0, math.inf])
    def test_fov_outside_0_to_360_rejected(self, value):
        with pytest.raises(ValueError, match=r"^fov_deg must lie in \(0, 360\]"):
            SensorModel(fov_deg=value)

    def test_feature_dim_must_fit_its_u16_wire_field(self):
        assert SensorModel(feature_dim=0xFFFF).feature_dim == 0xFFFF
        for value in (0, 0x10000, 70000):
            with pytest.raises(ValueError, match=rf"^feature_dim {value} outside \[1, 65535\] \(u16 on the wire\)"):
                SensorModel(feature_dim=value)


_KNOB = st.sampled_from([0.0, 0.4])
_SENSORS = st.builds(
    SensorModel,
    max_range=st.sampled_from([8.0, 20.0, 60.0]),
    fov_deg=st.sampled_from([90.0, 200.0, 360.0]),
    detect_prob_near=st.sampled_from([0.4, 1.0]),
    detect_prob_far=st.sampled_from([0.2, 1.0]),
    pos_noise_sigma=_KNOB,
    pos_noise_far_factor=st.sampled_from([0.0, 1.0, 3.0]),
    pos_noise_range_power=st.sampled_from([0.5, 1.0, 2.0]),
    vel_noise_sigma=_KNOB,
    dim_noise_sigma=st.sampled_from([0.0, 2.0]),  # large enough to reach the 0.01 clamp
    feature_noise_sigma=_KNOB,
    confidence_near=st.sampled_from([0.95, 0.6]),
    confidence_far=st.sampled_from([0.5, 0.1]),
    feature_dim=st.integers(1, 12),
)
_SCENE = st.lists(
    st.tuples(st.integers(0, 2), _HALF.map(lambda v: 5 * v), _HALF.map(lambda v: 5 * v),
              st.integers(-10, 10).map(lambda v: 0.3 * v), _HALF, _HALF),
    max_size=12,
)


class TestSenseDraws:
    """``sense`` draws the same stream as one call per noise block, merged into one call per detection."""

    @given(sensor=_SENSORS, scene=_SCENE, agent_xy=st.tuples(_HALF, _HALF), seed=st.integers(0, 2**16))
    @settings(max_examples=200, deadline=None)
    def test_detections_equal_reference(self, sensor, scene, agent_xy, seed):
        world = _world(*(
            (i, c, make_state(x=x, y=y, yaw=yaw, vx=vx, vy=vy))
            for i, (c, x, y, yaw, vx, vy) in enumerate(scene)
        ))
        agent = Agent(AgentSpec(agent_id=2, x=agent_xy[0], y=agent_xy[1], sensor=sensor), np.random.default_rng(seed))
        reference_rng = np.random.default_rng(seed)
        for _ in range(2):
            columns = (world.object_ids.tolist(), world.class_ids.tolist(), world.rows.tolist())
            objects = [(i, c, *row) for i, c, row in zip(*columns)]
            want = reference_detections(objects, agent_xy, sensor, reference_rng)
            got = sense(agent, world).instances()
            assert len(got) == len(want)
            for inst, (class_id, state, confidence, feature) in zip(got, want):
                assert inst.class_id == class_id and inst.confidence == confidence
                assert [getattr(inst.state, n).hex() for n in StateVector._fields] == [v.hex() for v in state]
                assert inst.feature.tobytes() == feature.tobytes()
                assert not inst.feature.flags.writeable
            assert agent.rng.bit_generator.state == reference_rng.bit_generator.state
            world = step_world(world, 0.5)

    def _crowd(self, sensor):
        objects = ((i, 0, make_state(x=2.0 * i - 20.0, y=3.0)) for i in range(20))
        return Agent(AgentSpec(agent_id=0, ego=True, sensor=sensor), np.random.default_rng(0)), _world(*objects)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_position_noise_raises(self):
        agent, world = self._crowd(SensorModel(pos_noise_sigma=1e308, feature_dim=4))
        with pytest.raises(ValueError):
            sense(agent, world)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_feature_norm_raises(self):
        # Each feature value is finite, but their sum of squares is not.
        agent, world = self._crowd(SensorModel(feature_noise_sigma=1e300, feature_dim=4))
        with pytest.raises(ValueError, match="cannot normalize a feature of norm"):
            sense(agent, world)

    def test_checks_each_pass_once_as_a_batch(self, monkeypatch):
        agent, world = self._crowd(SensorModel(pos_noise_sigma=0.3, dim_noise_sigma=0.1, feature_dim=8))
        empty = _world()
        counts = {"batch": 0, "state": 0, "instance": 0}
        real_check = simulator._check_records

        def check_records(*args):
            counts["batch"] += 1
            return real_check(*args)

        def state_new(cls, *args, _real=StateVector.__new__, **kwargs):
            counts["state"] += 1
            return _real(cls, *args, **kwargs)

        def instance_post_init(self):
            counts["instance"] += 1

        monkeypatch.setattr(simulator, "_check_records", check_records)
        monkeypatch.setattr(StateVector, "__new__", state_new)
        monkeypatch.setattr(Instance, "__post_init__", instance_post_init)
        sizes = [len(sense(agent, w)) for w in (world, empty, world)]
        assert sizes == [20, 0, 20]
        assert counts == {"batch": 3, "state": 0, "instance": 0}

    def test_builds_no_instance_or_state(self, monkeypatch):
        # A pass stays one batch of rows: only InstanceBatch.instances() makes values of it.
        agent, world = self._crowd(SensorModel(pos_noise_sigma=0.3, dim_noise_sigma=0.1, feature_dim=8))
        built = {Instance: 0, StateVector: 0}
        for cls in built:
            def counting(owner, *args, _real=cls._trusted, **kwargs):
                built[owner] += 1
                return _real(*args, **kwargs)

            monkeypatch.setattr(cls, "_trusted", classmethod(counting))
        batches = [sense(agent, world) for _ in range(3)]
        assert [len(b) for b in batches] == [20, 20, 20]
        assert built == {Instance: 0, StateVector: 0}
        instances = batches[-1].instances()
        assert built == {Instance: 20, StateVector: 20}
        assert [i.track_id for i in instances] == batches[-1].track_ids.tolist()


class TestTrackContinuation:
    @given(
        passes=st.lists(_OBJECTS, min_size=1, max_size=4),
        gate=st.sampled_from([0.5, 1.0, 2.0, 2.5]),
        origin=st.tuples(st.integers(-3, 3), st.integers(-3, 3)),
    )
    @settings(max_examples=300, deadline=None)
    def test_track_ids_equal_reference(self, passes, gate, origin):
        sensor = SensorModel(max_range=1000.0, feature_dim=2, track_gate=gate)
        spec = AgentSpec(agent_id=1, x=float(origin[0]), y=float(origin[1]), sensor=sensor)
        agent = Agent(spec, np.random.default_rng(0))
        previous, next_id = [], 1
        for k, objects in enumerate(passes):
            world = _world(
                *((i, c, make_state(x=x, y=y, vx=vx, vy=vy)) for i, (c, x, y, vx, vy) in enumerate(objects)),
                time_us=k * 500_000,
            )
            got = [inst.track_id for inst in sense(agent, world).instances()]
            want, next_id = reference_track_ids(
                previous, [(c, x, y) for c, x, y, _vx, _vy in objects], 0.5 if k else 0.0, gate, next_id
            )
            assert got == want
            previous = [(tid, *obj) for tid, obj in zip(want, objects)]


    @pytest.mark.parametrize("seed", range(6))
    def test_track_ids_equal_reference_at_crowd_scale(self, seed):
        # About 100 off-grid detections per pass in a 20 m square, two classes and a 3 m gate:
        # most detections have several candidates, so the greedy order decides many picks.
        rng, gate, dt = np.random.default_rng(seed), 3.0, 0.5
        agent = Agent(AgentSpec(agent_id=1, sensor=SensorModel(max_range=1000.0, feature_dim=2, track_gate=gate)),
                      np.random.default_rng(0))

        def fresh(n):
            return list(zip(rng.integers(0, 2, n).tolist(), *rng.uniform(-10, 10, (2, n)).tolist(),
                            *rng.uniform(-2, 2, (2, n)).tolist()))

        objects, previous, next_id, contested = fresh(100), [], 1, 0
        for k in range(4):
            world = _world(*((i, c, make_state(x=x, y=y, vx=vx, vy=vy)) for i, (c, x, y, vx, vy) in enumerate(objects)),
                           time_us=k * 500_000)
            got = sense(agent, world).track_ids.tolist()
            want, next_id = reference_track_ids(previous, [(c, x, y) for c, x, y, _, _ in objects], dt if k else 0.0,
                                                gate, next_id)
            assert got == want
            contested += sum(
                sum(pc == c and math.hypot(x - px - pvx * dt, y - py - pvy * dt) <= gate
                    for _, pc, px, py, pvx, pvy in previous) >= 3
                for c, x, y, _, _ in objects
            )
            previous = [(tid, *obj) for tid, obj in zip(want, objects)]
            # Move on with a jitter of up to a gate, shuffle, and swap 10 objects for new ones.
            jitter = rng.uniform(-gate, gate, (len(objects), 2)).tolist()
            moved = [(c, x + vx * dt + jx, y + vy * dt + jy, vx, vy)
                     for (c, x, y, vx, vy), (jx, jy) in zip(objects, jitter)]
            objects = [moved[i] for i in rng.permutation(len(moved))[:90].tolist()] + fresh(10)
        assert contested >= 150  # of the 300 continued detections


class TestValidateOnce:
    def test_run_validates_only_sensed_and_decoded_states(self, monkeypatch):
        counts = {"validated": 0, "sensed": 0, "decoded": 0}
        real_new, real_sense = StateVector.__new__, simulator.sense
        real_build, real_to_instances = simulator.build_world, InstancePacket.to_instances

        def counting_new(cls, *args, **kwargs):
            counts["validated"] += 1
            return real_new(cls, *args, **kwargs)

        def build_world(*args):
            # The world is the scene's input: only what sensing and decode make is counted.
            world = real_build(*args)
            counts["validated"] = 0
            return world

        def counting_sense(*args):
            out = real_sense(*args)
            counts["sensed"] += len(out)
            return out

        def counting_to_instances(packet):
            out = real_to_instances(packet)
            counts["decoded"] += len(out)
            return out

        monkeypatch.setattr(StateVector, "__new__", counting_new)
        monkeypatch.setattr(simulator, "build_world", build_world)
        monkeypatch.setattr(simulator, "sense", counting_sense)
        monkeypatch.setattr(InstancePacket, "to_instances", counting_to_instances)
        cfg = shipped("quickstart")
        one_frame = simulator.run_scenario(replace(cfg, duration_s=cfg.tick_s))
        assert len(one_frame.frames) == 1 and counts["decoded"] > 0
        assert counts["validated"] <= counts["sensed"] + counts["decoded"]
        counts.update(validated=0, sensed=0, decoded=0)
        simulator.run_scenario(shipped("latency_study"))
        assert counts["decoded"] > 0
        assert counts["validated"] <= counts["sensed"] + counts["decoded"]

    def test_every_state_component_is_a_plain_float(self):
        cfg = shipped("latency_study")
        run = run_scenario(replace(cfg, duration_s=10 * cfg.tick_s))
        states = [
            s
            for frame in run.frames
            for s in [i.state for i in frame.tracks.instances] + [g.state for g in frame.ground_truth]
        ]
        assert states
        for state in states:
            assert all(type(getattr(state, name)) is float for name in StateVector._fields), state


class TestTransmit:
    def test_fixed_latency_exact_arrival(self, rng):
        channel = ChannelModel(latency_ms=200.0)
        assert transmit(channel, rng, t_send=1_000_000) == 1_200_000

    def test_full_loss_never_delivers(self, rng):
        channel = ChannelModel(drop_prob=1.0)
        for _ in range(100):
            assert transmit(channel, rng, 0) is None

    def test_delivery_rate(self):
        channel = ChannelModel(drop_prob=0.3)
        rng = np.random.default_rng(0)
        delivered = sum(
            transmit(channel, rng, 0) is not None for _ in range(10_000)
        )
        assert delivered / 10_000 == pytest.approx(0.7, abs=0.01)

    def test_jitter_bounds(self, rng):
        channel = ChannelModel(latency_ms=100.0, jitter_ms=50.0)
        for _ in range(500):
            t_arrive = transmit(channel, rng, 0)
            assert 100_000 <= t_arrive <= 150_000

    @pytest.mark.parametrize("name", ["latency_ms", "jitter_ms"])
    @pytest.mark.parametrize("value", [math.inf, math.nan, -1.0])
    def test_channel_rejects_non_finite_or_negative_times(self, name, value):
        problem = "non-negative" if value == -1.0 else "finite"
        with pytest.raises(ValueError, match=f"^{name} must be {problem}"):
            ChannelModel(**{name: value})

    @pytest.mark.parametrize("name", ["latency_ms", "jitter_ms"])
    @pytest.mark.parametrize("value", [1e300, 1.7e308])
    def test_channel_rejects_times_beyond_an_i64_count_of_microseconds(self, name, value):
        # 1.7e308 is finite, but its microseconds overflow to inf: the arrival time cannot be an integer.
        with pytest.raises(ValueError, match=f"^{name} must fit an i64 count of microseconds"):
            ChannelModel(**{name: value})
        widest = MAX_TIMESTAMP / 1e3
        assert getattr(ChannelModel(**{name: widest}), name) == widest


class TestBevBaselineCost:
    def test_plug_in(self):
        assert bev_baseline_cost(51.2, 0.4, 64, 4, 2.0) == pytest.approx(3.355e7, rel=1e-3)

    def test_quadratic_in_range(self):
        assert bev_baseline_cost(100, 0.4, 64, 4, 2) == 4 * bev_baseline_cost(50, 0.4, 64, 4, 2)

    def test_zero_channels(self):
        assert bev_baseline_cost(50, 0.4, 0, 4, 2) == 0.0

    @pytest.mark.parametrize("args", [(1e200, 0.4, 64, 4, 2.0), (1e308, 1e-308, 0, 4, 2.0)], ids=["inf", "nan"])
    def test_rejects_a_cost_that_overflows(self, args):
        # Finite arguments whose grid overflows: its side squared is inf, or inf times 0 channels is NaN.
        with pytest.raises(ValueError, match="^the cost of a grid of side .* cells overflows$"):
            bev_baseline_cost(*args)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    @pytest.mark.parametrize("position", range(5))
    def test_rejects_nan_and_inf(self, position, value):
        # One NaN or inf argument at a time: range_m, cell_m, channels, bytes_per_elem or rate_hz.
        args = [51.2, 0.4, 64, 4, 2.0]
        args[position] = value
        with pytest.raises(ValueError, match=r"^grid parameters must be positive \(counts non-negative\)$"):
            bev_baseline_cost(*args)


class TestBuildWorld:
    def test_counts_and_speed_range(self, rng):
        cfg = shipped("quickstart")
        world = build_world(cfg, rng)
        assert len(world.rows) == cfg.object_count
        for i in range(len(world.rows)):
            assert cfg.speed_range[0] <= _state(world, i).speed <= cfg.speed_range[1]

    def test_clearance_held_over_run(self, rng):
        cfg = shipped("latency_study")
        world = build_world(cfg, rng)
        steps = int(cfg.duration_s / cfg.tick_s)
        min_dist = math.inf
        for _ in range(steps):
            for i, a in enumerate(world.rows):
                for b in world.rows[i + 1:]:
                    d = math.hypot(a[0] - b[0], a[1] - b[1])
                    min_dist = min(min_dist, d)
            world = step_world(world, cfg.tick_s)
        assert min_dist >= cfg.min_clearance - 1e-6

    @given(
        placed=st.lists(st.tuples(_HALF, _HALF, _HALF, _HALF), max_size=6),
        mover=st.tuples(_HALF, _HALF, _HALF, _HALF),
        duration=st.sampled_from([0.5, 1.0, 3.0]),
    )
    @settings(max_examples=300, deadline=None)
    def test_min_separation_equals_reference(self, placed, mover, duration):
        # Half-metre grids give equal velocities (no relative motion) and
        # approach times clamped at both ends of the run.
        pos, vel = np.array([*mover[:2], 0.0]), np.array([*mover[2:], 0.0])
        rows = np.array([((x, y, 0.0), (vx, vy, 0.0)) for x, y, vx, vy in placed]).reshape(-1, 2, 3)
        got = simulator._min_separation_over_run(np.stack((pos, vel)), rows, duration)
        want = [reference_min_separation(pos, vel, p, v, duration) for p, v in rows]
        assert got.tolist() == want

    def test_min_separation_is_exact_off_the_grid(self, rng):
        pos, vel = rng.uniform(-50, 50, 3), rng.uniform(-8, 8, 3)
        rows = np.stack([rng.uniform(-50, 50, (500, 3)), rng.uniform(-8, 8, (500, 3))], axis=1)
        got = simulator._min_separation_over_run(np.stack((pos, vel)), rows, 12.0)
        want = [reference_min_separation(pos, vel, p, v, 12.0) for p, v in rows]
        assert got.tolist() == want


class TestPrefusionError:
    @given(
        aligned=st.lists(st.tuples(_HALF, _HALF, st.integers(0, 2)), max_size=8),
        gt=st.lists(st.tuples(_HALF, _HALF, st.integers(0, 1)), max_size=8),
    )
    @settings(max_examples=300, deadline=None)
    def test_equals_reference(self, aligned, gt):
        # Class 2 has no reference object, so some instances are skipped.
        instances = [make_instance(x=x, y=y, class_id=c, feature_seed=i) for i, (x, y, c) in enumerate(aligned)]
        objects = [GroundTruthObject(i, c, make_state(x=x, y=y)) for i, (x, y, c) in enumerate(gt)]
        got = simulator._prefusion_error(instances, simulator._class_columns(objects))
        want = reference_prefusion_error(aligned, gt)
        assert got == want or (math.isnan(got) and math.isnan(want))

    @given(errors=st.integers(1, 200).flatmap(lambda n: st.lists(st.floats(0.0, 1e6), min_size=n, max_size=n)))
    @settings(max_examples=200, deadline=None)
    def test_equals_numpy_mean_bit_for_bit(self, errors):
        # One reference object at the origin: an instance at (e, 0) is e away. Up to 200 errors cross numpy's
        # 8-wide unrolled pairwise blocks, so a sum in any other order shows.
        instances = [make_instance(x=e, dim=2) for e in errors]
        columns = simulator._class_columns([GroundTruthObject(0, 0, make_state())])
        assert simulator._prefusion_error(instances, columns).hex() == float(np.mean(errors)).hex()


# Ties, values exactly at a threshold and both zeros, in columns of up to 40 rows: an unstable sort shows.
_CONFIDENCES = st.integers(0, 40).flatmap(
    lambda n: st.lists(st.sampled_from([0.0, -0.0, 0.25, 0.3, 0.5, 0.9, 1.0]), min_size=n, max_size=n)
)


class TestSend:
    @given(
        confidences=_CONFIDENCES,
        threshold=st.sampled_from([0.0, 0.25, 0.3, 0.5, 1.0]),
        top_k=st.integers(1, 45),
    )
    @settings(max_examples=300, deadline=None)
    def test_packet_equals_the_threshold_then_stable_rank_rule(self, confidences, threshold, top_k):
        spec = AgentSpec(agent_id=4, x=3.0, yaw_deg=30.0, vx=1.0)
        cfg = ScenarioConfig(
            agents=(AgentSpec(agent_id=0, ego=True), spec),
            pipeline=PipelineConfig(transmit_top_k=top_k, transmit_confidence_min=threshold),
        )
        n, t = len(confidences), 500_000
        detections = InstanceBatch(
            state_rows(make_state(x=float(i)) for i in range(n)), np.tile(np.eye(1, 4), (n, 1)),
            np.array(confidences), np.arange(n) % 3, np.array([i + 1 for i in range(n)], dtype=object), 4, t,
        )
        ((agent_id, packet, _),) = simulator._send(cfg, [spec], [detections], t, np.random.default_rng(0))
        eligible = np.flatnonzero(detections.confidences >= threshold)
        ranked = eligible[np.argsort(-detections.confidences[eligible], kind="stable")]
        assert (agent_id, packet) == (4, encode_packet(detections[ranked[:top_k]], spec.pose_at(t)))


class TestPoseOwnership:
    def test_poses_share_one_read_only_rotation(self):
        spec = AgentSpec(agent_id=1, x=2.0, yaw_deg=35.0, vx=1.5)
        first, second = spec.pose_at(0), spec.pose_at(1_000_000)
        assert first.rotation is second.rotation
        assert second.translation.tolist() == [3.5, 0.0, 0.0] and first.translation.tolist() == [2.0, 0.0, 0.0]
        noised = perturb_transform(first, np.random.default_rng(0), TransformNoiseParams(0.5, 2.0))
        for t in (first, second, noised):
            for array in (t.rotation, t.translation):
                assert not array.flags.writeable
                with pytest.raises(ValueError, match="read-only"):
                    array[0] = 7.0
        assert spec.pose_at(0).rotation.tolist() == RigidTransform.from_yaw(math.radians(35.0)).rotation.tolist()


class TestRunScenario:
    def test_deterministic_events_and_frames(self):
        cfg = shipped("quickstart", seed=3)
        a = run_scenario(cfg)
        b = run_scenario(cfg)
        assert a.events == b.events
        assert a.bytes_sent == b.bytes_sent
        assert len(a.frames) == len(b.frames)
        for fa, fb in zip(a.frames, b.frames):
            assert fa.ground_truth == fb.ground_truth
            assert len(fa.tracks.instances) == len(fb.tracks.instances)
            for ia, ib in zip(fa.tracks.instances, fb.tracks.instances):
                assert ia.track_id == ib.track_id
                np.testing.assert_array_equal(np.array(ia.state), np.array(ib.state))

    def test_causality_under_latency(self):
        cfg = shipped("latency_study", seed=1)
        from dataclasses import replace
        cfg = replace(cfg, channel=ChannelModel(latency_ms=200.0))
        result = run_scenario(cfg)
        latency_us = 200_000
        sends = {}
        for e in result.events:
            if e.kind == "send":
                sends[(e.agent_id, e.detail_us)] = e.t_us
        consumed = [e for e in result.events if e.kind == "consume"]
        assert consumed
        for e in consumed:
            assert e.t_us >= e.detail_us  # never before arrival
            t_send = sends[(e.agent_id, e.detail_us)]
            assert e.detail_us - t_send == latency_us

    def test_bytes_accounted_even_when_dropped(self):
        cfg = shipped("quickstart")
        lossless = run_scenario(cfg)
        lossy = run_scenario(replace(cfg, channel=ChannelModel(drop_prob=1.0)))
        assert lossy.bytes_sent == lossless.bytes_sent
        assert lossy.bytes_received == 0
        assert not [e for e in lossy.events if e.kind == "consume"]
        for point in ("drop_jitter", "pose_noise"):
            run = run_scenario(POINTS[point](cfg))
            size = {kind: sum(e.size_bytes for e in run.events if e.kind == kind) for kind in ("send", "drop", "consume")}
            assert size["consume"] > 0, point
            assert run.bytes_sent == size["send"] + size["drop"], point
            assert run.bytes_received == size["consume"], point

    @pytest.mark.parametrize("durations", [(1.0, 1.25), (1.5, 1.3)], ids=["2-frames", "3-frames"])
    def test_bandwidth_is_over_the_frames_the_run_simulated(self, durations):
        # Each pair rounds to the same whole ticks, so both runs send the same bytes in the same frames.
        a, b = (run_scenario(replace(shipped("quickstart"), duration_s=d)) for d in durations)
        assert (len(a.frames), a.bytes_sent, a.bytes_received) == (len(b.frames), b.bytes_sent, b.bytes_received)
        assert (a.bps_sent, a.bps_received) == (b.bps_sent, b.bps_received)
        assert a.bps_sent == a.bytes_sent / (len(a.frames) * 0.5)

    def test_a_tick_of_no_whole_microseconds_keeps_one_clock(self):
        # 1/30 s is 33,333.3 us; the world steps 33,333 us a frame, and so do the frames, sends and detections.
        cfg = replace(shipped("latency_study"), tick_s=1 / 30, duration_s=1.0)
        ticks = [33_333 * k for k in range(30)]
        sensed = list(simulator.sense_frames(cfg))
        assert [t for t, *_ in sensed] == ticks
        for t, coop_dets, ego_all, *_ in sensed:
            assert {batch.observed_at for batch in coop_dets} | {inst.observed_at for inst in ego_all} == {t}
        run = run_scenario(cfg)
        assert [frame.t_us for frame in run.frames] == ticks
        assert sorted({e.t_us for e in run.events if e.kind in ("send", "drop")}) == ticks
        replay = run_scenario(cfg, record_scene(cfg))
        assert replay.events == run.events and _frame_bytes(replay) == _frame_bytes(run)

    def test_frame_ground_truth_inside_roi(self):
        cfg = shipped("range_study")
        result = run_scenario(cfg)
        roi = cfg.pipeline.roi
        for frame in result.frames:
            for gt in frame.ground_truth:
                assert abs(gt.state.x) <= roi.x_half
                assert abs(gt.state.y) <= roi.y_half


class TestFuse:
    def test_cuts_each_group_to_the_roi_once(self, monkeypatch):
        # One contains call per ego detection, aligned cooperator instance and ground-truth object.
        cfg = shipped("quickstart")
        cfg = replace(cfg, duration_s=cfg.tick_s, channel=ChannelModel(),  # one frame, every packet delivered at once
                      pipeline=replace(cfg.pipeline, roi=RoiSpec(x_half=8.0, y_half=8.0)))
        ego_spec, *coop_specs = cfg.agents
        t, coop_dets, ego_all, gt_all, _ = next(simulator.sense_frames(cfg))
        assert t == 0
        sent = simulator._send(cfg, coop_specs, coop_dets, 0, np.random.default_rng(0))
        packets = [packet for _, packet, _ in sent]
        aligned = sum(decode_packet(packet).count for packet in packets)
        calls, real = [], RoiSpec.contains
        monkeypatch.setattr(RoiSpec, "contains", lambda roi, state: calls.append(state) or real(roi, state))
        receiver = simulator.Receiver(cfg.pipeline)
        _, coop_in_roi, stale = receiver.step(packets, ego_all, ego_spec.pose_at(0), 0)
        assert stale == 0 and len(calls) == len(ego_all) + aligned  # the step cuts its two groups
        calls.clear()
        (frame,) = run_scenario(cfg).frames  # and the run the ground truth
        assert len(calls) == len(ego_all) + aligned + len(gt_all)
        assert frame.coop_consumed == len(coop_in_roi)
        assert 0 < frame.coop_consumed < aligned and 0 < len(frame.ground_truth) < len(gt_all)  # the cut drops some


def _frame_bytes(run):
    """Each frame's tracks as (track ID, state bytes, feature bytes)."""
    return [
        [(i.track_id, np.array(i.state).tobytes(), i.feature.tobytes()) for i in frame.tracks.instances]
        for frame in run.frames
    ]


SHIPPED = ["quickstart", "range_study", "latency_study"]


class TestReceivePathInvariants:
    """Settings that must leave the ego's output exactly as it is."""

    @pytest.mark.parametrize("name", SHIPPED)
    def test_silent_cooperators_change_nothing(self, name):
        cfg = shipped(name)
        alone = _frame_bytes(run_scenario(replace(cfg, agents=tuple(a for a in cfg.agents if a.ego))))
        assert _frame_bytes(run_scenario(replace(cfg, channel=replace(cfg.channel, drop_prob=1.0)))) == alone
        blind = tuple(
            a if a.ego else replace(a, sensor=replace(a.sensor, detect_prob_near=0.0, detect_prob_far=0.0))
            for a in cfg.agents
        )
        assert _frame_bytes(run_scenario(replace(cfg, agents=blind))) == alone

    @pytest.mark.parametrize("name", SHIPPED)
    def test_compensation_is_a_no_op_without_latency(self, name):
        cfg = shipped(name)
        cfg = replace(cfg, channel=replace(cfg.channel, latency_ms=0.0, jitter_ms=0.0))
        runs = [
            run_scenario(replace(cfg, pipeline=replace(cfg.pipeline, compensate_latency=on))) for on in (True, False)
        ]
        assert _frame_bytes(runs[0]) == _frame_bytes(runs[1])
        assert runs[0].events == runs[1].events


def _outputs(run):
    """Everything a run outputs, exactly: byte counts, events, and per frame its counters,
    every track (identity, confidence, state and feature bytes) and every ground-truth object."""
    frames = [
        (f.t_us, f.coop_consumed, repr(f.coop_prefusion_err), f.stale_dropped,
         [(g.object_id, g.class_id, np.array(g.state).tobytes()) for g in f.ground_truth],
         [(i.track_id, i.class_id, i.source_agent, i.observed_at, repr(i.confidence)) for i in f.tracks.instances])
        for f in run.frames
    ]
    return run.bytes_sent, run.bytes_received, run.events, frames, _frame_bytes(run)


# Sweep points: each changes only what the replay owns (pipeline, channel, pose noise).
POINTS = {
    "as_shipped": lambda c: c,
    "r_int": lambda c: replace(c, pipeline=replace(c.pipeline, r_int=5.0)),
    "latency_uncompensated": lambda c: replace(
        c, channel=replace(c.channel, latency_ms=300.0), pipeline=replace(c.pipeline, compensate_latency=False)
    ),
    "drop_jitter": lambda c: replace(c, channel=ChannelModel(latency_ms=100.0, jitter_ms=80.0, drop_prob=0.3)),
    "pose_noise": lambda c: replace(c, pose_noise=TransformNoiseParams(0.8, 3.0)),
    "transmit_cut": lambda c: replace(c, pipeline=replace(c.pipeline, transmit_top_k=3, transmit_confidence_min=0.6)),
}


def _zero_width_records(packet: InstancePacket) -> bytes:
    records = packet.records.copy()
    records["state"][:, 4] = 0.0
    return packet.header.tobytes() + records.tobytes()


def _nan_translation(packet: InstancePacket) -> bytes:
    header = packet.header.copy()
    header["translation"][0] = np.nan
    return header.tobytes() + packet.records.tobytes()


class TestRecordReplay:
    """A sweep senses its scene once (record_scene) and replays it at every point."""

    @pytest.mark.parametrize("name", SHIPPED)
    def test_replay_equals_a_fresh_run(self, name):
        cfg = shipped(name, seed=3)
        record = record_scene(cfg)
        for point, vary in POINTS.items():  # one record serves every point, in turn
            point_cfg = vary(cfg)
            assert _outputs(run_scenario(point_cfg, record)) == _outputs(run_scenario(point_cfg)), point
        assert record.decoded  # the later points replayed packets the earlier ones decoded

    def test_a_sweep_builds_the_class_columns_once_per_sensed_frame(self, monkeypatch):
        # The prefusion error searches each frame's per-class ground-truth columns; the record keeps
        # them, so the seven points of an r_int sweep share one build per frame.
        cfg = shipped("range_study")
        cfg = replace(cfg, duration_s=5 * cfg.tick_s)
        builds, real = [], simulator._class_columns
        monkeypatch.setattr(simulator, "_class_columns", lambda gt: builds.append(gt) or real(gt))
        rows = sweep_interaction_range(cfg, [10, 20, 30, 40, 50, 60, 70], jobs=1)
        assert len(rows) == 7 and len(builds) == cfg.frame_count == 5

    def test_a_sweep_decodes_each_distinct_packet_once(self, monkeypatch):
        # Every point receives the same packets (r_int changes nothing the cooperator sends), and
        # the points share the record's decode of each.
        cfg = shipped("range_study")
        cfg = replace(cfg, duration_s=5 * cfg.tick_s)
        received = sum(e.kind == "consume" for e in run_scenario(cfg).events)
        decoded, real = [], simulator.decode_packet
        monkeypatch.setattr(simulator, "decode_packet", lambda data: decoded.append(data) or real(data))
        rows = sweep_interaction_range(cfg, [10, 20, 30, 40, 50, 60, 70], jobs=1)
        assert len(rows) == 7 and 0 < len(decoded) == len(set(decoded)) == received

    def test_the_map_keeps_only_the_latest_replays_packets(self):
        # Pose noise changes the bytes of every packet, so no replay below receives another's packets:
        # the map holds the latest replay's 47, not every replay's.
        cfg = shipped("range_study")
        record = record_scene(cfg)
        for sigma in (0.0, 0.2, 0.4, 0.8):
            run = run_scenario(replace(cfg, pose_noise=replace(cfg.pose_noise, trans_sigma=sigma)), record)
            assert len(record.decoded) == sum(e.kind == "consume" for e in run.events) == 47, sigma

    def test_streamed_runs_share_no_decode(self, monkeypatch):
        cfg = replace(shipped("quickstart"), duration_s=1.0)
        decoded, real = [], receiver.decode_packet
        monkeypatch.setattr(receiver, "decode_packet", lambda data: decoded.append(data) or real(data))
        received = sum(e.kind == "consume" for e in run_scenario(cfg).events)
        run_scenario(cfg)
        assert 0 < received and len(decoded) == 2 * received

    @pytest.mark.parametrize(
        "tamper, error",
        [(_zero_width_records, "box dimension"), (_nan_translation, "translation is not finite")],
        ids=["to_instances", "sender_pose"],
    )
    def test_a_packet_that_fails_fails_again_at_every_replay(self, monkeypatch, tamper, error):
        real = simulator.encode_packet
        monkeypatch.setattr(simulator, "encode_packet", lambda *args: tamper(decode_packet(real(*args))))
        cfg = replace(shipped("quickstart"), duration_s=1.0)
        record = record_scene(cfg)
        for _ in range(2):
            with pytest.raises(ValueError, match=error):
                run_scenario(cfg, record)

    @pytest.mark.parametrize(
        "other",
        [
            lambda c: replace(c, seed=c.seed + 1),
            lambda c: replace(c, object_count=c.object_count + 1),
            lambda c: replace(c, duration_s=c.duration_s + c.tick_s),
            lambda c: replace(c, agents=tuple(
                a if a.ego else replace(a, sensor=replace(a.sensor, pos_noise_sigma=a.sensor.pos_noise_sigma + 0.1))
                for a in c.agents
            )),
        ],
        ids=["seed", "object_count", "duration", "sensor"],
    )
    def test_record_of_another_scene_is_rejected(self, other):
        cfg = shipped("quickstart")
        record = record_scene(replace(cfg, duration_s=4 * cfg.tick_s))
        with pytest.raises(ValueError, match="another scene"):
            run_scenario(other(replace(cfg, duration_s=4 * cfg.tick_s)), record)

    @pytest.mark.parametrize("make", [record_scene, run_scenario])
    def test_a_scene_without_agents_is_refused_before_sensing(self, monkeypatch, make):
        monkeypatch.setattr(simulator, "build_world", lambda *args: pytest.fail("sensed a scene without agents"))
        with pytest.raises(ValueError, match=r"^scenario needs at least one \(ego\) agent$"):
            make(ScenarioConfig())


def _listed(name: str) -> ScenarioConfig:
    """A shipped config, ``lossy_multi_sender`` (golden) or perfbench's crowd scene, at seed 3."""
    if name == "lossy_multi_sender":
        return replace(lossy_multi_sender_config(), seed=3)
    if name == "crowd":
        return replace(load_scenario(Path(__file__).parent.parent / "perfbench" / "configs" / "crowd.yaml"), seed=3)
    return shipped(name, seed=3)


class TestAgentsAreASet:
    """Listing a scene's agents in another order changes no output: each agent's stream is keyed
    by its agent_id, cooperators transmit in agent_id order and a record keys its scene by id."""

    @pytest.mark.parametrize("name", [*SHIPPED, "lossy_multi_sender", "crowd"])
    def test_reversed_listing_changes_nothing(self, name):
        cfg = _listed(name)
        assert _outputs(run_scenario(replace(cfg, agents=cfg.agents[::-1]))) == _outputs(run_scenario(cfg))

    def test_a_record_replays_under_any_listing(self):
        cfg = replace(lossy_multi_sender_config(), duration_s=1.0)
        record = record_scene(replace(cfg, agents=cfg.agents[::-1]))
        assert _outputs(run_scenario(cfg, record)) == _outputs(run_scenario(cfg))

    @settings(max_examples=10, deadline=None)
    @given(ids=st.permutations(range(4, 10)).map(lambda ids: ids[:4]), order=st.permutations(range(4)))
    def test_any_permutation_of_any_ids_changes_nothing(self, ids, order):
        base = replace(lossy_multi_sender_config(), duration_s=1.0)
        agents = tuple(replace(a, agent_id=i) for a, i in zip(base.agents, ids))
        listed = replace(base, agents=tuple(agents[k] for k in order))
        assert _outputs(run_scenario(listed)) == _outputs(run_scenario(replace(base, agents=agents)))

    def test_an_agent_id_above_32767_scores_as_a_small_one(self):
        # The ego sees almost nothing, so both cooperators' remote-only tracks reach the output
        # with registry IDs, which must differ for agents 1 and 32769 (equal IDs in one frame raise).
        cfg = shipped("quickstart")
        ego, coop = cfg.agents
        ego = replace(ego, sensor=replace(ego.sensor, max_range=3.0))
        coop = replace(coop, sensor=replace(coop.sensor, max_range=20.0))
        rows = [
            metrics_row(compute_metrics(run_scenario(replace(cfg, agents=(
                ego, coop, replace(coop, agent_id=agent_id, x=-20.0, y=-20.0, yaw_deg=45.0),
            )))))
            for agent_id in (32769, 2)
        ]
        assert rows[0] == rows[1]


class TestScenarioConfigValidation:
    def test_requires_single_ego(self):
        sensor = SensorModel(feature_dim=8)
        with pytest.raises(ValueError):
            ScenarioConfig(agents=(AgentSpec(agent_id=0, sensor=sensor),))

    def test_rejects_mixed_feature_dims(self):
        with pytest.raises(ValueError):
            ScenarioConfig(
                agents=(
                    AgentSpec(agent_id=0, ego=True, sensor=SensorModel(feature_dim=8)),
                    AgentSpec(agent_id=1, sensor=SensorModel(feature_dim=16)),
                )
            )

    @pytest.mark.parametrize("name", ["duration_s", "tick_s"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_rejects_non_finite_duration_and_tick(self, name, value):
        # An agent at rest would be blamed for 0 * inf = nan if the duration were not checked first.
        with pytest.raises(ValueError, match=f"^{name} must be finite"):
            ScenarioConfig(**{name: value}, agents=(AgentSpec(agent_id=0, ego=True),))

    @pytest.mark.parametrize("value", [1e300, 1.7e308])
    def test_rejects_a_duration_beyond_the_wires_i64_microseconds(self, value):
        # At 1e300 s the frame count is above 1e299, so the run would never end.
        with pytest.raises(ValueError, match=r"^duration_s must lie in \[tick_s, 9223372036855\]"):
            ScenarioConfig(duration_s=value)
        assert ScenarioConfig(duration_s=MAX_TIMESTAMP / 1e6).duration_s == MAX_TIMESTAMP / 1e6

    def test_rejects_bad_tick(self):
        with pytest.raises(ValueError):
            ScenarioConfig(tick_s=0.0)
        # The frame clock counts whole microseconds: 4e-7 s would round to a step of 0.
        for tick in (4.0e-7, 9.99e-7):
            with pytest.raises(ValueError, match="^tick_s must be at least one microsecond"):
                ScenarioConfig(tick_s=tick)
        assert ScenarioConfig(tick_s=1e-6).tick_s == 1e-6

    @pytest.mark.parametrize("name", ["x", "y", "z", "yaw_deg", "vx", "vy"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_agent_rejects_non_finite_pose(self, name, value):
        with pytest.raises(ValueError, match=f"^{name} must be finite"):
            AgentSpec(agent_id=0, **{name: value})

    @pytest.mark.parametrize("axis", ["x", "y"])
    def test_rejects_position_that_overflows_by_duration(self, axis):
        # Finite at t = 0, but 1.7e308 + 10 s * 1e308 m/s is not.
        runaway = AgentSpec(agent_id=1, **{axis: 1.7e308, f"v{axis}": 1e308})
        with pytest.raises(ValueError, match=r"^agents\[1\]: position at duration_s is not finite"):
            ScenarioConfig(duration_s=10.0, agents=(AgentSpec(agent_id=0, ego=True), runaway))
        # The ego's pose never goes on the wire, so finite at both ends is all it needs.
        returning = AgentSpec(agent_id=0, ego=True, **{axis: 1.7e308, f"v{axis}": -1e307})
        ScenarioConfig(duration_s=10.0, agents=(returning, AgentSpec(agent_id=1)))

    @pytest.mark.parametrize("pose", [{"x": 4e38}, {"y": -4e38}, {"z": 4e38}, {"x": 3e38, "vx": 1e37}])
    def test_rejects_a_cooperator_beyond_f32_at_either_end(self, pose):
        # encode_packet would refuse its translation in the first frame that reached it.
        coop = AgentSpec(agent_id=1, **pose)
        message = r"^agents\[1\]: a cooperator's position must stay within f32's range, got 4e\+38$"
        with pytest.raises(ValueError, match=message):
            ScenarioConfig(duration_s=10.0, agents=(AgentSpec(agent_id=0, ego=True), coop))
        ScenarioConfig(duration_s=10.0, agents=(replace(coop, agent_id=0, ego=True), AgentSpec(agent_id=1)))

    def test_a_cooperator_within_f32_runs(self):
        cfg = shipped("quickstart")
        far = replace(cfg.agents[1], x=MAX_F32 * 0.9, vx=0.0, vy=0.0)
        cfg = replace(cfg, duration_s=2 * cfg.tick_s, agents=(cfg.agents[0], far, *cfg.agents[2:]))
        assert sum(e.kind == "send" for e in run_scenario(cfg).events) > 0

    @pytest.mark.parametrize("count", [0, MAX_RECORD_COUNT + 1, 2**63])
    def test_object_count_is_bounded_by_the_u16_record_count(self, count):
        # 2**63 used to fail in numpy and 2**31 to run out of memory; 65,536 was still running after 10 s.
        with pytest.raises(ValueError, match=rf"^object_count {count} outside \[1, 65535\] \(u16 record count"):
            ScenarioConfig(object_count=count)
        assert ScenarioConfig(object_count=MAX_RECORD_COUNT).object_count == MAX_RECORD_COUNT

    def test_rejects_negative_seed(self):
        with pytest.raises(ValueError, match="seed must be non-negative"):
            ScenarioConfig(seed=-3)

    @pytest.mark.parametrize("name", ["spawn_x", "spawn_y", "spawn_z", "yaw_rate_range"])
    def test_rejects_reversed_range(self, name):
        # numpy's uniform would fail on it only once build_world ran.
        with pytest.raises(ValueError, match=rf"^{name} must be ordered \[low, high\], got \(0.5, -0.5\)"):
            ScenarioConfig(**{name: (0.5, -0.5)})
        assert getattr(ScenarioConfig(**{name: (-0.5, -0.5)}), name) == (-0.5, -0.5)

    @pytest.mark.parametrize("name", ["spawn_x", "spawn_y", "spawn_z", "yaw_rate_range"])
    @pytest.mark.parametrize(
        "pair", [(math.nan, 1.0), (0.0, math.nan), (0.0, math.inf), (-math.inf, 0.0), (1.0, -math.inf)]
    )
    def test_rejects_non_finite_range(self, name, pair):
        with pytest.raises(ValueError, match=f"^{name} must be finite"):
            ScenarioConfig(**{name: pair})

    @pytest.mark.parametrize("value,problem", [(-6.0, "non-negative"), (math.nan, "finite"), (math.inf, "finite")])
    def test_rejects_negative_or_non_finite_min_clearance(self, value, problem):
        # -6 used to disable the check silently, and NaN to fail every one of 200 attempts per object.
        with pytest.raises(ValueError, match=f"^min_clearance must be {problem}"):
            ScenarioConfig(min_clearance=value)

    def test_zero_min_clearance_disables_the_check(self, caplog):
        cfg = replace(shipped("quickstart"), min_clearance=0.0, object_count=30, spawn_x=(0.0, 0.5), spawn_y=(0.0, 0.5))
        with caplog.at_level(logging.WARNING, logger="coopfuse.simulator"):
            world = build_world(cfg, np.random.default_rng(5))
        assert len(world.rows) == 30 and not caplog.records
