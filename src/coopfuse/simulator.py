"""Synthetic multi-agent scenarios over a lossy, latent channel.

A world of constant-velocity (optionally constant-yaw-rate) objects is
observed by agents with parametric sensors. Remote agents serialize their
top detections into packets that cross a channel with latency, jitter, and
loss; the ego agent aligns, associates, fuses, and tracks. The event loop
is single-threaded and fully determined by the scenario seed.
"""

from __future__ import annotations

import bisect
import heapq
import logging
import math
from dataclasses import dataclass, field
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .alignment import AlignmentConfig, HorizonExceeded, align_instance, transform_states
from .association import MatchWeights, RoiSpec, associate, filter_roi
from .core import (
    GroundTruthObject,
    Instance,
    InstanceBatch,
    RigidTransform,
    StateVector,
    Timestamp,
    _check_non_negative,
    _check_records,
    greedy_nearest,
    invert,
    relative_transform,
    seconds_to_micros,
)
from .fusion import FusionConfig, TrackIdRegistry, TrackSet, assemble_output, coarse_fuse, refine_tracks
from .robustness import TransformNoiseParams, identity_embedding, perturb_transform
from .wire import MAX_CLASS_ID, MAX_SENDER_ID, InstancePacket, decode_packet, encode_packet

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
    if dt <= 0:
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
        if not self.max_range > 0:
            raise ValueError("max_range must be positive")
        for name in ("detect_prob_near", "detect_prob_far", "confidence_near", "confidence_far"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1]")
        if self.feature_dim < 1:
            raise ValueError("feature_dim must be at least 1")
        if not self.pos_noise_range_power > 0:
            raise ValueError("pos_noise_range_power must be positive")
        _check_non_negative(self, ("pos_noise_sigma", "pos_noise_far_factor", "vel_noise_sigma", "dim_noise_sigma",
                                   "feature_noise_sigma", "track_gate"))

    def _mix(self, near: float, far: float, r: float, power: float = 1.0) -> float:
        frac = min(r / self.max_range, 1.0) ** power
        return near + (far - near) * frac


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
        if not 0 <= self.agent_id <= MAX_SENDER_ID:
            raise ValueError(f"agent_id {self.agent_id} outside [0, {MAX_SENDER_ID}] (u16 on the wire)")
        for name in ("x", "y", "z", "yaw_deg", "vx", "vy"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)!r}")

    def pose_at(self, t: Timestamp) -> RigidTransform:
        """The agent's pose (agent frame -> global frame) at time ``t``."""
        t_s = t / 1e6
        yaw = math.radians(self.yaw_deg)
        c, s = math.cos(yaw), math.sin(yaw)
        return RigidTransform._trusted(
            ((c, -s, 0.0), (s, c, 0.0), (0.0, 0.0, 1.0)),
            (self.x + self.vx * t_s, self.y + self.vy * t_s, self.z),
        )


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


def sense(agent: Agent, world: World, rng: np.random.Generator) -> InstanceBatch:
    """One sensing pass: detect, noise, and continue track identities.

    The pass is one batch of rows in the agent frame, with one uniform detect
    draw per object in range and field of view and one Gaussian draw per
    detection, checked as one batch; no per-detection value is built.
    Persistent per-agent track IDs come from nearest-neighbor continuation
    against the previous pass, predicted forward by the stored velocity.
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
    local = transform_states(world.rows, invert(pose))
    noise = np.empty((len(local), k + sensor.feature_dim))
    hits, spreads, confidences = [], [], []
    for i, row in enumerate(local):
        r = math.hypot(row[0], row[1])
        if r > sensor.max_range:
            continue
        if sensor.fov_deg < 360.0 and abs(math.atan2(row[1], row[0])) > half_fov:
            continue
        if rng.random() >= sensor._mix(sensor.detect_prob_near, sensor.detect_prob_far, r):
            continue
        rng.standard_normal(out=noise[len(hits)])
        hits.append(i)
        spreads.append(sensor._mix(1.0, sensor.pos_noise_far_factor, r, sensor.pos_noise_range_power))
        confidences.append(min(max(sensor._mix(sensor.confidence_near, sensor.confidence_far, r), 0.0), 1.0))

    z = noise[: len(hits)]
    states = np.array([local[i] for i in hits]).reshape(-1, 11)
    # A huge finite sigma overflows to inf here; the batch check below rejects it.
    with np.errstate(over="ignore"):
        c = 0
        if noised[0]:
            states[:, :2] += 0.0 + (sensor.pos_noise_sigma * np.array(spreads))[:, None] * z[:, :2]
            states[:, 2] += 0.0 + sensor.pos_noise_sigma * z[:, 2]
            c = 3
        if noised[1]:
            states[:, 3:6] = np.maximum(states[:, 3:6] + (0.0 + sensor.dim_noise_sigma * z[:, c : c + 3]), 0.01)
            c += 3
        if noised[2]:
            states[:, 8:11] += 0.0 + sensor.vel_noise_sigma * z[:, c : c + 3]
        features = np.array([identity_embedding(i, sensor.feature_dim) for i in world.object_ids[hits].tolist()])
        features = features.reshape(len(hits), sensor.feature_dim) + sensor.feature_noise_sigma * z[:, k:]
        confidences = np.array(confidences)
        if not np.isfinite(norms := _check_records(states, features, confidences, t)).all():
            raise ValueError("a feature's norm is not finite")
    features /= norms[:, None]

    # Each detection in the global frame, kept for the next pass.
    moved = np.array(transform_states(states, pose)).reshape(-1, 11)
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
    dx = rows[:, 0, None] - (prev.states[:, 0] + prev.states[:, 8] * dt)
    dy = rows[:, 1, None] - (prev.states[:, 1] + prev.states[:, 9] * dt)
    # hypot(dx, dy) >= |dx|, |dy|: the box holds every candidate, and the slack covers rounding.
    reach = gate * (1.0 + 2.0**-40)
    box = (np.abs(dx) <= reach) & (np.abs(dy) <= reach) & (class_ids[:, None] == prev.class_ids)
    candidates: list[list[tuple[int, float]]] = [[] for _ in range(len(rows))]
    for i, j, ddx, ddy in zip(*(a.tolist() for a in np.nonzero(box)), dx[box].tolist(), dy[box].tolist()):
        if (d := math.hypot(ddx, ddy)) <= gate:
            candidates[i].append((j, d))
    track_ids = []
    for pick in greedy_nearest(candidates, gate):
        if pick is None:
            track_ids.append(agent._next_track_id)
            agent._next_track_id += 1
        else:
            track_ids.append(prev.track_ids[pick[0]])
    return track_ids


# ---------------------------------------------------------------------------
# Channel


@dataclass(frozen=True)
class ChannelModel:
    """One-way channel: fixed latency plus uniform jitter, Bernoulli loss.

    ``accounting_window_s`` sets the tumbling-window length for burst-rate
    byte accounting (see RunResult.peak_bps_sent); 0 means whole-run
    averages only.
    """

    latency_ms: float = 0.0
    jitter_ms: float = 0.0
    drop_prob: float = 0.0
    accounting_window_s: float = 0.0

    def __post_init__(self) -> None:
        if not (self.latency_ms >= 0 and self.jitter_ms >= 0):
            raise ValueError("latency and jitter must be non-negative")
        if not 0.0 <= self.drop_prob <= 1.0:
            raise ValueError("drop_prob must lie in [0, 1]")
        if not self.accounting_window_s >= 0:
            raise ValueError("accounting_window_s must be non-negative")


def transmit(
    packet_bytes: bytes,
    channel: ChannelModel,
    rng: np.random.Generator,
    t_send: Timestamp,
) -> Optional[tuple[Timestamp, bytes]]:
    """Send bytes through the channel; None means the packet was lost.

    Senders account for the bytes regardless of loss: the cost is incurred
    at transmission, not delivery.
    """
    if rng.random() < channel.drop_prob:
        return None
    latency_s = channel.latency_ms / 1e3
    if channel.jitter_ms > 0:
        latency_s += rng.uniform(0.0, channel.jitter_ms) / 1e3
    return t_send + seconds_to_micros(latency_s), packet_bytes


def bev_baseline_cost(
    range_m: float, cell_m: float, channels: int, bytes_per_elem: int, rate_hz: float
) -> float:
    """Bytes/second for shipping a dense top-down grid of the same coverage.

    A square grid of side 2 * range / cell holds the scene; the cost is
    quadratic in range, which is the scaling the sparse format avoids.
    """
    if range_m <= 0 or cell_m <= 0 or bytes_per_elem < 0 or rate_hz < 0 or channels < 0:
        raise ValueError("grid parameters must be positive (counts non-negative)")
    side = 2.0 * range_m / cell_m
    return side * side * channels * bytes_per_elem * rate_hz


# ---------------------------------------------------------------------------
# Scenario configuration


@dataclass(frozen=True)
class PipelineConfig:
    """Everything the ego does with instances once they exist."""

    roi: RoiSpec = field(default_factory=RoiSpec)
    r_int: float = 30.0
    weights: MatchWeights = field(default_factory=MatchWeights)
    fusion: FusionConfig = field(default_factory=FusionConfig)
    alignment: AlignmentConfig = field(default_factory=AlignmentConfig)
    compensate_latency: bool = True
    transmit_top_k: int = 15
    transmit_confidence_min: float = 0.3

    def __post_init__(self) -> None:
        if not self.r_int > 0:
            raise ValueError("r_int must be positive")
        if self.transmit_top_k < 1:
            raise ValueError("transmit_top_k must be at least 1")
        if not 0.0 <= self.transmit_confidence_min <= 1.0:
            raise ValueError("transmit_confidence_min must lie in [0, 1]")


@dataclass(frozen=True)
class ScenarioConfig:
    """A complete, seeded scenario: world, agents, channel, pipeline."""

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
        for name in ("duration_s", "tick_s"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if not self.tick_s > 0:
            raise ValueError("tick_s must be positive")
        if not self.duration_s >= self.tick_s:
            raise ValueError("duration_s must be at least one tick")
        if not 0 <= self.speed_range[0] <= self.speed_range[1]:
            raise ValueError("speed_range must be non-negative and ordered")
        if self.object_count < 1:
            raise ValueError("object_count must be at least 1")
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
            # Motion is linear, so a position finite at both ends is finite throughout.
            if not math.isfinite(a.x + a.vx * self.duration_s) or not math.isfinite(a.y + a.vy * self.duration_s):
                raise ValueError(f"agents[{i}]: position at duration_s is not finite")
        egos = [a for a in self.agents if a.ego]
        if self.agents and len(egos) != 1:
            raise ValueError("exactly one agent must be marked ego")
        dims = {a.sensor.feature_dim for a in self.agents}
        if len(dims) > 1:
            raise ValueError("all agents must share one feature_dim")

    @property
    def frame_count(self) -> int:
        return max(1, round(self.duration_s / self.tick_s))


def _min_separation_over_run(pos: np.ndarray, vel: np.ndarray, placed: np.ndarray, duration: float) -> np.ndarray:
    """Closest planar approach on [0, duration] of one trajectory to each placed (position, velocity)."""
    dp = (pos - placed[:, 0])[:, :2]
    dv = (vel - placed[:, 1])[:, :2]
    # vecdot matches the 2-element ``dp @ dv`` bit for bit; (dp * dv).sum(1)
    # and einsum do not.
    speed2 = np.vecdot(dv, dv)
    moving = speed2 >= 1e-12
    t_star = np.zeros(len(dp))
    t_star[moving] = np.clip(-np.vecdot(dp[moving], dv[moving]) / speed2[moving], 0.0, duration)
    closest = dp + dv * t_star[:, None]
    return np.hypot(closest[:, 0], closest[:, 1])


def build_world(cfg: ScenarioConfig, rng: np.random.Generator) -> World:
    """Spawn objects, rejecting placements that would violate clearance."""
    rows, class_ids, yaw_rates = [], [], []
    placed = np.zeros((cfg.object_count, 2, 3))
    for object_id in range(cfg.object_count):
        for _ in range(200):
            pos = np.array(
                [
                    rng.uniform(*cfg.spawn_x),
                    rng.uniform(*cfg.spawn_y),
                    rng.uniform(*cfg.spawn_z),
                ]
            )
            speed = rng.uniform(*cfg.speed_range)
            theta = rng.uniform(-math.pi, math.pi)
            vel = np.array([speed * math.cos(theta), speed * math.sin(theta), 0.0])
            separations = _min_separation_over_run(pos, vel, placed[:object_id], cfg.duration_s)
            if (separations >= cfg.min_clearance).all() or cfg.min_clearance <= 0:
                break
        else:
            log.warning("object %d placed without clearance after 200 attempts", object_id)
        placed[object_id] = pos, vel
        yaw_rates.append(rng.uniform(*cfg.yaw_rate_range))
        dims = rng.uniform(3.8, 5.0), rng.uniform(1.7, 2.1), rng.uniform(1.4, 1.8)
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


@dataclass
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
        return self.bytes_sent / self.config.duration_s

    @property
    def bps_received(self) -> float:
        return self.bytes_received / self.config.duration_s

    def peak_bps_sent(self, window_s: Optional[float] = None) -> float:
        """Highest tumbling-window send rate; the burstiness complement to
        the whole-run average. Window defaults to the channel's accounting
        window, falling back to the full duration."""
        window = window_s if window_s is not None else self.config.channel.accounting_window_s
        if window <= 0:
            return self.bps_sent
        window_us = seconds_to_micros(window)
        totals: dict[int, int] = {}
        for e in self.events:
            if e.kind in ("send", "drop"):
                totals[e.t_us // window_us] = totals.get(e.t_us // window_us, 0) + e.size_bytes
        return max(totals.values()) / window if totals else 0.0


def _frame_ground_truth(world: World, ego_pose: RigidTransform) -> tuple[GroundTruthObject, ...]:
    local = transform_states(world.rows, invert(ego_pose))
    ids, class_ids = world.object_ids.tolist(), world.class_ids.tolist()
    return tuple(GroundTruthObject(i, c, StateVector._trusted(s)) for i, c, s in zip(ids, class_ids, local))


def _prefusion_error(
    aligned: Sequence[Instance], gt: Sequence[GroundTruthObject]
) -> float:
    # Nearest same-class reference distance; a proxy for true position error
    # that needs no oracle plumbed through the honest pipeline. Valid while
    # object clearance exceeds the alignment error.
    columns: dict[int, list[tuple[float, float]]] = {}
    for g in sorted(gt, key=lambda g: (g.state.x, g.state.y)):
        columns.setdefault(g.class_id, []).append((g.state.x, g.state.y))
    errors = []  # in aligned order: np.mean's sum depends on the order
    for inst in aligned:
        column = columns.get(inst.class_id)
        if not column:
            continue
        x, y = inst.state.x, inst.state.y
        split = bisect.bisect_left(column, (x,))
        best = math.inf
        # Search outward from x; hypot(dx, dy) >= |dx|, so each direction
        # stops at the first reference whose |dx| alone exceeds the best.
        for side in (column[split:], reversed(column[:split])):
            for gx, gy in side:
                if abs(x - gx) > best:
                    break
                best = min(best, math.hypot(x - gx, y - gy))
        errors.append(best)
    return float(np.mean(errors)) if errors else math.nan


def run_scenario(cfg: ScenarioConfig, seed: Optional[int] = None) -> RunResult:
    """Execute one scenario end to end, fully determined by the seed."""
    if not cfg.agents:
        raise ValueError("scenario needs at least one (ego) agent")
    run_seed = cfg.seed if seed is None else seed
    root = np.random.SeedSequence(run_seed)
    world_seq, channel_seq, *agent_seqs = root.spawn(2 + len(cfg.agents))
    channel_rng = np.random.default_rng(channel_seq)

    world = build_world(cfg, np.random.default_rng(world_seq))
    agents = [
        Agent(spec, np.random.default_rng(seq))
        for spec, seq in zip(cfg.agents, agent_seqs)
    ]
    ego = next(a for a in agents if a.spec.ego)
    coop_agents = [a for a in agents if not a.spec.ego]

    pipe = cfg.pipeline
    registry = TrackIdRegistry()
    prev_tracks = TrackSet(timestamp=0, instances=())
    inbox: list[tuple[Timestamp, int, int, bytes]] = []
    seq_counter = 0
    events: list[SimEvent] = []
    frames: list[FrameRecord] = []
    bytes_sent = 0
    bytes_received = 0
    tick_us = seconds_to_micros(cfg.tick_s)

    for k in range(cfg.frame_count):
        t = k * tick_us
        if k > 0:
            world = step_world(world, cfg.tick_s)

        # Remote agents sense and transmit.
        for agent in coop_agents:
            detections = sense(agent, world, agent.rng)
            eligible = np.flatnonzero(detections.confidences >= pipe.transmit_confidence_min)
            # Most confident first; a stable sort keeps equally confident ones in sensing order.
            ranked = eligible[np.argsort(-detections.confidences[eligible], kind="stable")]
            payload = detections[ranked[: pipe.transmit_top_k]]
            sent_pose = agent.spec.pose_at(t)
            if cfg.pose_noise is not None:
                sent_pose = perturb_transform(sent_pose, channel_rng, cfg.pose_noise)
            packet = encode_packet(payload, sent_pose, t, agent.spec.agent_id)
            bytes_sent += len(packet)
            delivery = transmit(packet, cfg.channel, channel_rng, t)
            if delivery is None:
                events.append(SimEvent(t, "drop", agent.spec.agent_id, len(packet), -1))
                continue
            t_arrive, data = delivery
            seq_counter += 1
            heapq.heappush(inbox, (t_arrive, seq_counter, agent.spec.agent_id, data))
            events.append(SimEvent(t, "send", agent.spec.agent_id, len(packet), t_arrive))

        # Ego consumes whatever has arrived, newest packet per sender.
        ego_pose = ego.spec.pose_at(t)
        newest: dict[int, InstancePacket] = {}
        while inbox and inbox[0][0] <= t:
            t_arrive, seq, sender, data = heapq.heappop(inbox)
            bytes_received += len(data)
            events.append(SimEvent(t, "consume", sender, len(data), t_arrive))
            packet = decode_packet(data)
            prior = newest.get(sender)
            if prior is None or packet.send_timestamp >= prior.send_timestamp:
                newest[sender] = packet

        coop_aligned: list[Instance] = []
        stale = 0
        for sender in sorted(newest):
            packet = newest[sender]
            rel = relative_transform(ego_pose, packet.sender_pose())
            for inst in packet.to_instances():
                if not pipe.compensate_latency:
                    inst = inst._trusted_replace(observed_at=t)
                try:
                    coop_aligned.append(align_instance(inst, rel, t, pipe.alignment))
                except HorizonExceeded:
                    stale += 1

        # Ego senses and fuses.
        ego_dets = filter_roi(sense(ego, world, ego.rng).instances(), pipe.roi)
        # The error diagnostic compares against the whole world so that
        # objects straddling the ROI edge don't get scored against a
        # distant stranger.
        gt_all = _frame_ground_truth(world, ego_pose)
        gt = tuple(g for g in gt_all if pipe.roi.contains(g.state))
        coop_in_roi = filter_roi(coop_aligned, pipe.roi)
        result = associate(ego_dets, coop_aligned, pipe.roi, pipe.r_int, pipe.weights)
        fused = []
        for ego_inst, coop_inst, _cost in result.matched:
            registry.record_match(coop_inst.source_agent, coop_inst.track_id, ego_inst.track_id)
            fused.append(coarse_fuse(ego_inst, coop_inst, pipe.fusion.confidence_fusion))
        assembled = assemble_output(
            fused,
            result.unmatched_ego,
            result.unmatched_coop_near,
            result.coop_far,
            pipe.fusion,
            registry,
            t,
        )
        tracks = refine_tracks(assembled, prev_tracks, cfg.tick_s, pipe.fusion)
        prev_tracks = tracks
        frames.append(
            FrameRecord(
                t_us=t,
                tracks=tracks,
                ground_truth=gt,
                coop_consumed=len(coop_in_roi),
                coop_prefusion_err=_prefusion_error(coop_in_roi, gt_all),
                stale_dropped=stale,
            )
        )

    return RunResult(
        config=cfg,
        frames=frames,
        events=events,
        bytes_sent=bytes_sent,
        bytes_received=bytes_received,
    )
