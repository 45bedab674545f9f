"""Synthetic multi-agent scenarios over a lossy, latent channel: the harness around the ego.

A world of constant-velocity (optionally constant-yaw-rate) objects is
observed by agents with parametric sensors (``sense_frames``). In each frame
of ``run_scenario``, ``_send`` serializes each remote agent's top detections,
with sender pose noise, into a packet that crosses a channel with latency,
jitter and loss, and the ego's ``receiver.Receiver`` takes what has arrived.
The event loop is single-threaded and fully determined by the scenario seed.
"""

from __future__ import annotations

import heapq
import itertools
import logging
import math
from dataclasses import dataclass, field, replace
from typing import Callable, Iterator, NamedTuple, Optional, Sequence

import numpy as np

from .alignment import transform_states
from .association import filter_roi
from .core import (
    ClassColumns,
    GroundTruthObject,
    Instance,
    InstanceBatch,
    RigidTransform,
    StateVector,
    Timestamp,
    _check_finite_sign,
    _check_records,
    _unsigned_zeros,
    greedy_nearest,
    invert,
    micros_to_seconds,
    nearest,
    normalize_feature,
    pairs_within,
    seconds_to_micros,
    yaw_rotation,
)
from .fusion import TrackSet
from .receiver import PipelineConfig, Receiver
from .robustness import TransformNoiseParams, embedding_table, perturb_transform
from .wire import (MAX_CLASS_ID, MAX_F32, MAX_FEATURE_DIM, MAX_RECORD_COUNT, MAX_SENDER_ID, MAX_TIMESTAMP,
                   InstancePacket, decode_packet, encode_packet)

log = logging.getLogger(__name__)


# ---------------------------------------------------------------------------
# World


@dataclass(frozen=True, eq=False)
class World:
    """The scene at ``time_us``: one row per object, and the only copy of it.

    ``rows`` holds the objects' global (N, 11) states in ``StateVector``
    order; ``object_ids``, ``class_ids`` and ``yaw_rates`` (rad/s) are the
    matching per-object columns. Sensing and ground truth read these arrays
    directly.
    """

    time_us: Timestamp
    rows: np.ndarray
    object_ids: np.ndarray
    class_ids: np.ndarray
    yaw_rates: np.ndarray


def step_world(world: World, dt: float) -> World:
    """Advance every object by ``dt`` seconds.

    Zero yaw rate means straight constant-velocity motion. A non-zero yaw
    rate turns the heading at that rate and keeps the speed along the
    heading, tracing the exact circular arc.
    """
    if not dt > 0:  # NaN fails it too
        raise ValueError("dt must be positive")
    rows = world.rows.copy()
    rows[:, :3] += rows[:, 8:11] * dt
    # Arcs stay per row in Python's math: numpy's sin, cos and atan2 may differ in the last bit.
    turning = np.flatnonzero(np.abs(world.yaw_rates) >= 1e-12)
    for i, yaw_rate, (x, y, *_, sin0, cos0, vx, vy, _vz) in zip(
        turning.tolist(), world.yaw_rates[turning].tolist(), world.rows[turning].tolist()
    ):
        speed = math.hypot(vx, vy)
        theta0 = math.atan2(sin0, cos0)
        theta1 = theta0 + yaw_rate * dt
        radius = speed / yaw_rate
        sin1, cos1 = math.sin(theta1), math.cos(theta1)
        rows[i, [0, 1, 6, 7, 8, 9]] = (
            x + radius * (sin1 - math.sin(theta0)), y - radius * (cos1 - math.cos(theta0)),
            sin1, cos1, speed * cos1, speed * sin1,
        )
    return World(world.time_us + seconds_to_micros(dt), rows, world.object_ids, world.class_ids, world.yaw_rates)


# ---------------------------------------------------------------------------
# Sensing


@dataclass(frozen=True)
class SensorModel:
    """Parametric detector: range/FoV gate, range-dependent quality.

    Planar position noise grows from ``pos_noise_sigma`` at zero range to
    ``pos_noise_far_factor`` times that at ``max_range``, following
    ``(r / max_range) ** pos_noise_range_power`` (power > 1 models
    camera-like depth degradation). Height stays at the near sigma: ground
    objects get their z from the ground plane, not from range.
    """

    max_range: float = 80.0
    fov_deg: float = 360.0
    detect_prob_near: float = 1.0
    detect_prob_far: float = 1.0
    pos_noise_sigma: float = 0.0
    pos_noise_far_factor: float = 1.0  # sigma multiplier reached at max_range
    pos_noise_range_power: float = 1.0
    vel_noise_sigma: float = 0.0
    dim_noise_sigma: float = 0.0
    feature_noise_sigma: float = 0.0
    confidence_near: float = 0.95
    confidence_far: float = 0.5
    feature_dim: int = 256
    track_gate: float = 4.0  # NN continuation radius, meters

    def __post_init__(self) -> None:
        _unsigned_zeros(self)
        _check_finite_sign(self, ("max_range", "pos_noise_range_power"), positive=True)
        if not 0 < self.fov_deg <= 360:  # NaN fails it too
            raise ValueError(f"fov_deg must lie in (0, 360], got {self.fov_deg!r}")
        for name in ("detect_prob_near", "detect_prob_far", "confidence_near", "confidence_far"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1]")
        if not 1 <= self.feature_dim <= MAX_FEATURE_DIM:
            raise ValueError(f"feature_dim {self.feature_dim} outside [1, {MAX_FEATURE_DIM}] (u16 on the wire)")
        _check_finite_sign(self, ("pos_noise_sigma", "pos_noise_far_factor", "vel_noise_sigma", "dim_noise_sigma",
                                  "feature_noise_sigma", "track_gate"))


@dataclass(frozen=True)
class AgentSpec:
    """An agent's identity, linear pose trajectory, and sensor."""

    agent_id: int
    x: float = 0.0
    y: float = 0.0
    z: float = 0.0
    yaw_deg: float = 0.0
    vx: float = 0.0
    vy: float = 0.0
    ego: bool = False
    sensor: SensorModel = field(default_factory=SensorModel)

    def __post_init__(self) -> None:
        _unsigned_zeros(self)
        if not 0 <= self.agent_id <= MAX_SENDER_ID:
            raise ValueError(f"agent_id {self.agent_id} outside [0, {MAX_SENDER_ID}] (u16 on the wire)")
        for name in ("x", "y", "z", "yaw_deg", "vx", "vy"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)!r}")
        rotation = yaw_rotation(math.radians(self.yaw_deg))
        rotation.setflags(write=False)
        object.__setattr__(self, "_rotation", rotation)  # read-only, shared by every pose

    def pose_at(self, t: Timestamp) -> RigidTransform:
        """The agent's pose (agent frame -> global frame) at time ``t``."""
        t_s = t / 1e6
        position = np.array((self.x + self.vx * t_s, self.y + self.vy * t_s, self.z))
        return RigidTransform._trusted(self._rotation, position)


class _Tracks(NamedTuple):
    """An agent's detections of its last pass, kept for track continuation."""

    track_ids: list[int]
    class_ids: np.ndarray
    states: np.ndarray  # (n, 11) rows, global frame
    t: Optional[Timestamp]


class Agent:
    """Runtime sensing state: spec plus the persistent track continuation."""

    def __init__(self, spec: AgentSpec, rng: np.random.Generator) -> None:
        self.spec = spec
        self.rng = rng
        self._prev = _Tracks([], np.empty(0, dtype=np.int64), np.empty((0, 11)), None)
        self._next_track_id = 1


def sense(agent: Agent, world: World) -> InstanceBatch:
    """One sensing pass: detect, noise, and continue track identities.

    The pass is one batch of rows in the agent frame, with one uniform detect
    draw per object in range and field of view and one Gaussian draw per
    detection, both from ``agent.rng``, checked as one batch; no per-detection
    value is built. Each quality mixes its near and far values by
    ``min(r / max_range, 1)``. Persistent per-agent track IDs come from
    nearest-neighbor continuation against the previous pass, predicted
    forward by the stored velocity.
    """
    spec = agent.spec
    sensor = spec.sensor
    t = world.time_us
    pose = spec.pose_at(t)
    half_fov = math.radians(sensor.fov_deg) / 2.0
    noised = [s > 0 for s in (sensor.pos_noise_sigma, sensor.dim_noise_sigma, sensor.vel_noise_sigma)]
    k = 3 * sum(noised)

    # Every object in the agent frame, in one batch. The draws stay per object, in order:
    # one standard_normal call per detection yields what separate Generator.normal(0, s)
    # = 0.0 + s * z calls drew (the 0.0 + is kept below, so zeros keep their sign) for
    # position (2 + 1), dimensions and velocity (3 each, when on), then the feature.
    # Gate and qualities in numpy; math.hypot, math.atan2 and Python ** per object (numpy's may differ).
    local = transform_states(world.rows, invert(pose))
    xs, ys = local[:, 0].tolist(), local[:, 1].tolist()
    r = np.array(list(map(math.hypot, xs, ys)))
    frac = np.minimum(r / sensor.max_range, 1.0)
    seen = [i for i in np.flatnonzero(r <= sensor.max_range).tolist()
            if sensor.fov_deg == 360.0 or abs(math.atan2(ys[i], xs[i])) <= half_fov]
    detect_prob = sensor.detect_prob_near + (sensor.detect_prob_far - sensor.detect_prob_near) * frac[seen]
    noise = np.empty((len(seen), k + sensor.feature_dim))
    random, standard_normal = agent.rng.random, agent.rng.standard_normal
    hits = []
    for i, p in zip(seen, detect_prob.tolist()):
        if random() < p:
            standard_normal(out=noise[len(hits)])
            hits.append(i)

    z, states, frac = noise[: len(hits)], local[hits], frac[hits]
    confidences = sensor.confidence_near + (sensor.confidence_far - sensor.confidence_near) * frac
    confidences = np.minimum(np.where(confidences < 0.0, 0.0, confidences), 1.0)  # as min(max(c, 0.0), 1.0)
    # A huge finite sigma overflows to inf here; the batch check below rejects it.
    with np.errstate(over="ignore"):
        c = 0
        if noised[0]:
            powered = np.array([f**sensor.pos_noise_range_power for f in frac.tolist()])
            spreads = 1.0 + (sensor.pos_noise_far_factor - 1.0) * powered
            states[:, :2] += 0.0 + (sensor.pos_noise_sigma * spreads)[:, None] * z[:, :2]
            states[:, 2] += 0.0 + sensor.pos_noise_sigma * z[:, 2]
            c = 3
        if noised[1]:
            states[:, 3:6] = np.maximum(states[:, 3:6] + (0.0 + sensor.dim_noise_sigma * z[:, c : c + 3]), 0.01)
            c += 3
        if noised[2]:
            states[:, 8:11] += 0.0 + sensor.vel_noise_sigma * z[:, c : c + 3]
        features = embedding_table(tuple(world.object_ids.tolist()), sensor.feature_dim)[hits]
        features += sensor.feature_noise_sigma * z[:, k:]
    _check_records(states, features, confidences, t)
    features = normalize_feature(features)

    # Each detection in the global frame, kept for the next pass.
    moved = transform_states(states, pose)
    class_ids = world.class_ids[hits]
    track_ids = _continue_tracks(agent, t, class_ids, moved)
    agent._prev = _Tracks(track_ids, class_ids, moved, t)
    return InstanceBatch(states, features, confidences, class_ids, np.array(track_ids, dtype=object), spec.agent_id, t)


def _continue_tracks(agent: Agent, t: Timestamp, class_ids: np.ndarray, rows: np.ndarray) -> list[int]:
    """Track IDs for this pass's detections (global (n, 11) rows), in detection order.

    Each detection in turn takes the nearest untaken previous detection of
    its class, predicted to ``t``, within ``track_gate`` (of equally near
    ones, the later); failing that, a new ID.
    """
    prev, gate = agent._prev, agent.spec.sensor.track_gate
    dt = 0.0 if prev.t is None else (t - prev.t) / 1e6
    predicted = prev.states[:, :2] + prev.states[:, 8:10] * dt
    picks = greedy_nearest(pairs_within(rows[:, :2], class_ids, predicted, prev.class_ids, gate), len(rows), gate)
    fresh = itertools.count(agent._next_track_id)
    track_ids = [next(fresh) if pick is None else prev.track_ids[pick[0]] for pick in picks]
    agent._next_track_id = next(fresh)
    return track_ids


# ---------------------------------------------------------------------------
# Channel


@dataclass(frozen=True)
class ChannelModel:
    """One-way channel: fixed latency plus uniform jitter, Bernoulli loss."""

    latency_ms: float = 0.0
    jitter_ms: float = 0.0
    drop_prob: float = 0.0

    def __post_init__(self) -> None:
        _unsigned_zeros(self)
        _check_finite_sign(self, ("latency_ms", "jitter_ms"))
        for name in ("latency_ms", "jitter_ms"):
            if getattr(self, name) > MAX_TIMESTAMP / 1e3:
                raise ValueError(f"{name} must fit an i64 count of microseconds, got {getattr(self, name)!r}")
        if not 0.0 <= self.drop_prob <= 1.0:
            raise ValueError("drop_prob must lie in [0, 1]")


def transmit(channel: ChannelModel, rng: np.random.Generator, t_send: Timestamp) -> Optional[Timestamp]:
    """The arrival time of a packet sent at ``t_send``; None means the packet was lost.

    Senders account for the bytes regardless of loss: the cost is incurred
    at transmission, not delivery.
    """
    if rng.random() < channel.drop_prob:
        return None
    latency_s = channel.latency_ms / 1e3
    if channel.jitter_ms > 0:
        latency_s += rng.uniform(0.0, channel.jitter_ms) / 1e3
    return t_send + seconds_to_micros(latency_s)


def bev_baseline_cost(
    range_m: float, cell_m: float, channels: int, bytes_per_elem: int, rate_hz: float
) -> float:
    """Bytes/second for shipping a dense top-down grid of the same coverage.

    A square grid of side 2 * range / cell holds the scene; the cost is
    quadratic in range, which is the scaling the sparse format avoids.
    """
    if not (0 < range_m < math.inf and 0 < cell_m < math.inf and 0 <= bytes_per_elem < math.inf
            and 0 <= rate_hz < math.inf and 0 <= channels < math.inf):
        raise ValueError("grid parameters must be positive (counts non-negative)")
    side = 2.0 * range_m / cell_m
    cost = side * side * channels * bytes_per_elem * rate_hz
    if not math.isfinite(cost):  # an overflow, or an infinite side times 0 channels
        raise ValueError(f"the cost of a grid of side {side!r} cells overflows")
    return cost


# ---------------------------------------------------------------------------
# Scenario configuration


@dataclass(frozen=True)
class ScenarioConfig:
    """A complete, seeded scenario: world, agents (a set, kept in agent_id order), channel, pipeline."""

    duration_s: float = 10.0
    tick_s: float = 0.5
    seed: int = 0
    object_count: int = 12
    spawn_x: tuple[float, float] = (-40.0, 40.0)
    spawn_y: tuple[float, float] = (-40.0, 40.0)
    spawn_z: tuple[float, float] = (0.0, 0.0)
    speed_range: tuple[float, float] = (5.0, 10.0)
    yaw_rate_range: tuple[float, float] = (0.0, 0.0)
    class_count: int = 2
    min_clearance: float = 4.0  # kept over the whole run; 0 disables
    agents: tuple[AgentSpec, ...] = ()
    channel: ChannelModel = field(default_factory=ChannelModel)
    pipeline: PipelineConfig = field(default_factory=PipelineConfig)
    pose_noise: Optional[TransformNoiseParams] = None  # sender localization error

    def __post_init__(self) -> None:
        _unsigned_zeros(self)
        for name in ("duration_s", "tick_s"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if not self.tick_s >= 1e-6:  # the frame clock counts whole microseconds
            raise ValueError(f"tick_s must be at least one microsecond, got {self.tick_s!r}")
        if not self.tick_s <= self.duration_s <= MAX_TIMESTAMP / 1e6:  # the wire's i64 microsecond send_timestamp
            raise ValueError(f"duration_s must lie in [tick_s, {MAX_TIMESTAMP / 1e6:.0f}], got {self.duration_s!r}")
        for name in ("spawn_x", "spawn_y", "spawn_z", "speed_range", "yaw_rate_range"):
            low, high = getattr(self, name)
            if not -math.inf < low <= high < math.inf:
                problem = "ordered [low, high]" if math.isfinite(low) and math.isfinite(high) else "finite"
                raise ValueError(f"{name} must be {problem}, got {(low, high)!r}")
        if not self.speed_range[0] >= 0:
            raise ValueError(f"speed_range must be non-negative, got {self.speed_range!r}")
        _check_finite_sign(self, ("min_clearance",))
        if not 1 <= self.object_count <= MAX_RECORD_COUNT:  # one sensing pass fits one packet
            raise ValueError(
                f"object_count {self.object_count} outside [1, {MAX_RECORD_COUNT}] (u16 record count on the wire)"
            )
        if self.seed < 0:
            raise ValueError("seed must be non-negative")
        if not 1 <= self.class_count <= MAX_CLASS_ID + 1:
            raise ValueError(
                f"class_count {self.class_count} outside [1, {MAX_CLASS_ID + 1}] (u8 on the wire)"
            )
        first_index: dict[int, int] = {}
        for i, a in enumerate(self.agents):
            if a.agent_id in first_index:
                raise ValueError(f"agents[{first_index[a.agent_id]}] and agents[{i}] share agent_id {a.agent_id}")
            first_index[a.agent_id] = i
            # Motion is linear, so a position finite (a cooperator's within f32, its type on the wire) at both ends
            # is so throughout. The ego's pose never goes on the wire.
            end_x, end_y = a.x + a.vx * self.duration_s, a.y + a.vy * self.duration_s
            if not math.isfinite(end_x) or not math.isfinite(end_y):
                raise ValueError(f"agents[{i}]: position at duration_s is not finite")
            if not a.ego and (reach := max(map(abs, (a.x, a.y, a.z, end_x, end_y)))) > MAX_F32:
                raise ValueError(f"agents[{i}]: a cooperator's position must stay within f32's range, got {reach!r}")
        egos = [a for a in self.agents if a.ego]
        if self.agents and len(egos) != 1:
            raise ValueError("exactly one agent must be marked ego")
        dims = {a.sensor.feature_dim for a in self.agents}
        if len(dims) > 1:
            raise ValueError("all agents must share one feature_dim")
        object.__setattr__(self, "agents", tuple(sorted(self.agents, key=lambda a: a.agent_id)))

    @property
    def frame_count(self) -> int:
        return max(1, round(self.duration_s / self.tick_s))


def _min_separation_over_run(trajectory: np.ndarray, placed: np.ndarray, duration: float) -> np.ndarray:
    """Closest planar approach on [0, duration] of one (position, velocity) pair to each placed one."""
    offsets = trajectory - placed
    dp, dv = offsets[:, 0, :2], offsets[:, 1, :2]
    # vecdot matches the 2-element ``dp @ dv`` bit for bit; (dp * dv).sum(1)
    # and einsum do not.
    speed2 = np.vecdot(dv, dv)
    t_star = np.divide(-np.vecdot(dp, dv), speed2, out=np.zeros(len(dp)), where=speed2 >= 1e-12)
    closest = dp + dv * t_star.clip(0.0, duration)[:, None]
    return np.hypot(closest[:, 0], closest[:, 1])


def build_world(cfg: ScenarioConfig, rng: np.random.Generator) -> World:
    """Spawn objects, rejecting placements that would violate clearance."""
    rows, class_ids, yaw_rates = [], [], []
    placed = np.zeros((cfg.object_count, 2, 3))
    uniform = rng.uniform
    for object_id in range(cfg.object_count):
        for _ in range(200):
            pos = uniform(*cfg.spawn_x), uniform(*cfg.spawn_y), uniform(*cfg.spawn_z)
            speed, theta = uniform(*cfg.speed_range), uniform(-math.pi, math.pi)
            vel = speed * math.cos(theta), speed * math.sin(theta), 0.0
            placed[object_id] = pos, vel
            separations = _min_separation_over_run(placed[object_id], placed[:object_id], cfg.duration_s)
            if cfg.min_clearance == 0 or separations.min(initial=math.inf) >= cfg.min_clearance:
                break
        else:
            log.warning("object %d placed without clearance after 200 attempts", object_id)
        yaw_rates.append(uniform(*cfg.yaw_rate_range))
        dims = uniform(3.8, 5.0), uniform(1.7, 2.1), uniform(1.4, 1.8)
        rows.append((*pos, *dims, math.sin(theta), math.cos(theta), *vel))
        class_ids.append(rng.integers(cfg.class_count))
    return World(
        0, np.array(rows), np.arange(cfg.object_count), np.array(class_ids, dtype=np.int64), np.array(yaw_rates)
    )


# ---------------------------------------------------------------------------
# Event loop


class SimEvent(NamedTuple):
    """One log line: sends (with arrival time or -1 when lost) and consumes."""

    t_us: Timestamp
    kind: str  # "send" | "drop" | "consume"
    agent_id: int
    size_bytes: int
    detail_us: int


@dataclass(frozen=True)
class FrameRecord:
    """Everything the evaluation needs from one ego frame."""

    t_us: Timestamp
    tracks: TrackSet
    ground_truth: tuple[GroundTruthObject, ...]
    coop_consumed: int = 0
    coop_prefusion_err: float = math.nan
    stale_dropped: int = 0


@dataclass
class RunResult:
    config: ScenarioConfig
    frames: list[FrameRecord]
    events: list[SimEvent]
    bytes_sent: int
    bytes_received: int

    @property
    def bps_sent(self) -> float:
        return self.bytes_sent / self._span_s

    @property
    def bps_received(self) -> float:
        return self.bytes_received / self._span_s

    @property
    def _span_s(self) -> float:  # the simulated frames' span on the run's microsecond clock: frame_count ticks
        return micros_to_seconds(self.config.frame_count * seconds_to_micros(self.config.tick_s))


def _frame_ground_truth(world: World, ego_pose: RigidTransform) -> tuple[tuple[GroundTruthObject, ...], ClassColumns]:
    local = transform_states(world.rows, invert(ego_pose)).tolist()
    ids, class_ids = world.object_ids.tolist(), world.class_ids.tolist()
    gt = tuple(GroundTruthObject(i, c, StateVector._trusted(s)) for i, c, s in zip(ids, class_ids, local))
    return gt, _class_columns(gt)


def _class_columns(gt: Sequence[GroundTruthObject]) -> ClassColumns:
    columns: ClassColumns = {}
    for g in sorted(gt, key=lambda g: (g.state.x, g.state.y)):
        columns.setdefault(g.class_id, []).append((g.state.x, g.state.y))
    return columns


def _prefusion_error(aligned: Sequence[Instance], columns: ClassColumns) -> float:
    # The mean nearest same-class reference distance in aligned order (np.mean's sum depends on it): a proxy for
    # true position error that needs no oracle in the honest pipeline, valid while clearance exceeds alignment error.
    errors = [nearest(columns[i.class_id], i.state.x, i.state.y) for i in aligned if columns.get(i.class_id)]
    # np.mean's own formula (its pairwise sum, then one division), without its Python wrapper.
    return float(np.add.reduce(np.array(errors))) / len(errors) if errors else math.nan


# One frame as sensed, which no pipeline, channel or pose noise changes: its time, each cooperator's pass (agent_id
# order), the ego's detections (before the ROI), the whole world in the ego frame and each class's sorted (x, y).
SensedFrame = tuple[Timestamp, tuple[InstanceBatch, ...], tuple[Instance, ...], tuple[GroundTruthObject, ...],
                    ClassColumns]


class SceneRecord(NamedTuple):
    """A scene sensed once, so that every point of a sweep can replay it."""

    scene: ScenarioConfig  # the config with its pipeline, channel and pose noise at the defaults
    frames: tuple[SensedFrame, ...]
    decoded: dict[bytes, InstancePacket]  # the packets its latest replay received, each decoded once

    def replay_decoder(self) -> Callable[[bytes], InstancePacket]:
        """A decode for one replay: each packet from the map, from the map as earlier replays left it, or from
        ``decode_packet``. The map keeps only what it hands out, so replays at many sweep points do not grow it."""
        decoded, earlier = self.decoded, dict(self.decoded)
        decoded.clear()

        def decode(data: bytes) -> InstancePacket:
            packet = decoded[data] = decoded.get(data) or earlier.get(data) or decode_packet(data)
            return packet

        return decode


def _scene(cfg: ScenarioConfig) -> ScenarioConfig:
    return replace(cfg, pipeline=PipelineConfig(), channel=ChannelModel(), pose_noise=None)


def sense_frames(cfg: ScenarioConfig) -> Iterator[SensedFrame]:
    """Build the world and sense it frame by frame, drawing only from the world and agent streams."""
    world = build_world(cfg, np.random.default_rng(np.random.SeedSequence(cfg.seed).spawn(1)[0]))
    # An agent's stream is the seed's child 2 + agent_id (spawn(n)[2 + agent_id] for any n), however listed.
    agents = [Agent(a, np.random.default_rng(np.random.SeedSequence(cfg.seed, spawn_key=(2 + a.agent_id,))))
              for a in cfg.agents]
    ego = next(a for a in agents if a.spec.ego)
    coop_agents = [a for a in agents if not a.spec.ego]
    for k in range(cfg.frame_count):
        if k > 0:
            world = step_world(world, cfg.tick_s)
        yield (  # bound to no local, so a suspended generator keeps no frame alive
            world.time_us,
            tuple(sense(agent, world) for agent in coop_agents),
            tuple(sense(ego, world).instances()),
            *_frame_ground_truth(world, ego.spec.pose_at(world.time_us)),
        )


def _require_agents(cfg: ScenarioConfig) -> None:
    if not cfg.agents:
        raise ValueError("scenario needs at least one (ego) agent")


def record_scene(cfg: ScenarioConfig) -> SceneRecord:
    """Sense ``cfg``'s scene once, for ``run_scenario`` to replay under any pipeline, channel or pose noise."""
    _require_agents(cfg)
    return SceneRecord(_scene(cfg), tuple(sense_frames(cfg)), {})


def _send(
    cfg: ScenarioConfig, coop_specs: Sequence[AgentSpec], coop_dets: Sequence[InstanceBatch], t: Timestamp,
    channel_rng: np.random.Generator,
) -> list[tuple[int, bytes, Optional[Timestamp]]]:
    """Each cooperator's ``(agent_id, packet, delivery)`` at ``t``, in agent_id order; the delivery is
    the arrival time (None when lost). Per sender, pose noise then the channel draw from ``channel_rng``."""
    pipe = cfg.pipeline
    sent = []
    for spec, detections in zip(coop_specs, coop_dets):
        # Most confident first; a stable sort keeps equally confident ones in sensing order. The ranking leads
        # with the detections at or above the threshold, so the packet takes its first min(eligible, top_k).
        ranked = np.argsort(-detections.confidences, kind="stable")
        eligible = np.count_nonzero(detections.confidences >= pipe.transmit_confidence_min)
        sent_pose = spec.pose_at(t)
        if cfg.pose_noise is not None:
            sent_pose = perturb_transform(sent_pose, channel_rng, cfg.pose_noise)
        packet = encode_packet(detections[ranked[: min(eligible, pipe.transmit_top_k)]], sent_pose)
        sent.append((spec.agent_id, packet, transmit(cfg.channel, channel_rng, t)))
    return sent


def run_scenario(cfg: ScenarioConfig, sensed: Optional[SceneRecord] = None) -> RunResult:
    """One run, fully determined by the seed: each frame sensed (or replayed from ``sensed``) and staged."""
    _require_agents(cfg)
    if sensed is not None and sensed.scene != _scene(cfg):
        raise ValueError("the record is of another scene than the config's")
    channel_rng = np.random.default_rng(np.random.SeedSequence(cfg.seed, spawn_key=(1,)))  # world 0, agent 2 + id
    ego_spec, *coop_specs = sorted(cfg.agents, key=lambda a: not a.ego)  # the ego, then the others in id order
    receiver = Receiver(cfg.pipeline, decode=None if sensed is None else sensed.replay_decoder())
    inbox: list[tuple[Timestamp, int, bytes]] = []  # a heap of (arrival, index of the send event, packet)
    events: list[SimEvent] = []
    frames: list[FrameRecord] = []
    for t, coop_dets, ego_all, gt, columns in sense_frames(cfg) if sensed is None else sensed.frames:
        for agent_id, packet, delivery in _send(cfg, coop_specs, coop_dets, t, channel_rng):
            if delivery is None:
                events.append(SimEvent(t, "drop", agent_id, len(packet), -1))
            else:
                heapq.heappush(inbox, (delivery, len(events), packet))
                events.append(SimEvent(t, "send", agent_id, len(packet), delivery))
        del coop_dets  # a streamed frame's batches go before the next frame is sensed
        due = []
        while inbox and inbox[0][0] <= t:
            due.append(heapq.heappop(inbox))
        events += [events[i]._replace(t_us=t, kind="consume") for _, i, _ in due]  # the send's size and arrival
        tracks, coop_in_roi, stale = receiver.step([packet for *_, packet in due], ego_all, ego_spec.pose_at(t), t)
        # The error searches the whole world's columns, so an object astride the ROI edge meets no distant stranger.
        gt = tuple(filter_roi(gt, cfg.pipeline.roi))
        frames.append(FrameRecord(t, tracks, gt, len(coop_in_roi), _prefusion_error(coop_in_roi, columns), stale))
    sent = sum(e.size_bytes for e in events if e.kind in ("send", "drop"))
    return RunResult(cfg, frames, events, sent, sum(e.size_bytes for e in events if e.kind == "consume"))
