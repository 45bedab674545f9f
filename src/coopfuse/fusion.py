"""Fusing matched pairs and assembling the per-frame track set.

Matched pairs are blended by a confidence-weighted average (the ego track
identity survives), persisting tracks are smoothed by an alpha-beta
recursion against the previous frame, duplicates are suppressed greedily
by confidence, and remote-only tracks get stable namespaced identifiers.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from typing import Optional, Sequence

from .core import (ClassColumns, DegenerateHeading, Instance, StateVector, Timestamp, _check_finite_sign,
                   _unsigned_zeros, nearest, normalize_feature)

COOP_TRACK_FLAG = 1 << 63
_AGENT_SHIFT = 48


@dataclass(frozen=True)
class FusionConfig:
    dedup_radius: float = 1.0
    smoothing_gain_pos: float = 0.6
    smoothing_gain_vel: float = 0.4
    output_confidence_threshold: float = 0.3
    confidence_fusion: str = "max"  # or "noisy_or"

    def __post_init__(self) -> None:
        _unsigned_zeros(self)
        _check_finite_sign(self, ("dedup_radius",), positive=True)
        for name in ("smoothing_gain_pos", "smoothing_gain_vel"):
            if not 0.0 < getattr(self, name) <= 1.0:
                raise ValueError(f"{name} must lie in (0, 1]")
        if not 0.0 <= self.output_confidence_threshold <= 1.0:
            raise ValueError("output_confidence_threshold must lie in [0, 1]")
        if self.confidence_fusion not in ("max", "noisy_or"):
            raise ValueError("confidence_fusion must be 'max' or 'noisy_or'")


@dataclass(frozen=True)
class TrackSet:
    """The fused ego-frame output of one frame; every instance has an ID."""

    timestamp: Timestamp
    instances: tuple[Instance, ...]

    def __post_init__(self) -> None:
        ids = [inst.track_id for inst in self.instances]
        if any(tid is None for tid in ids):
            raise ValueError("every track-set instance needs a track_id")
        if len(set(ids)) != len(ids):
            raise ValueError("track_ids must be unique within a frame")

    @classmethod
    def _trusted(cls, timestamp: Timestamp, instances: tuple[Instance, ...]) -> TrackSet:
        """The track set of instances whose IDs are set and unique, unchecked."""
        self = object.__new__(cls)
        self.__dict__.update(timestamp=timestamp, instances=instances)
        return self


class TrackIdRegistry:
    """Stable output identifiers across frames.

    Ego-originated instances keep their own tracker IDs. Remote-only
    instances get a fresh ID, ``COOP_TRACK_FLAG + (agent << 48) + count``,
    the first time a given (agent, remote track) is seen, and keep it on
    every later frame. A sum, not a bitwise or, keeps agents ``a`` and
    ``a + 32768`` apart; from agent 32768 up an ID passes 64 bits, which is
    fine, as output IDs never go on the wire. When a remote track has
    previously been fused with an ego track, its ego ID is reused for
    continuity unless that ID is already present in the current frame.
    """

    def __init__(self) -> None:
        self._fresh: dict[tuple[int, int], int] = {}
        self._ego_alias: dict[tuple[int, int], int] = {}
        self._counters: dict[int, int] = {}

    def record_match(self, source_agent: int, coop_track_id: Optional[int], ego_track_id: int) -> None:
        if coop_track_id is not None:
            self._ego_alias[(source_agent, coop_track_id)] = ego_track_id

    def _allocate(self, source_agent: int) -> int:
        count = self._counters.get(source_agent, 0)
        self._counters[source_agent] = count + 1
        return COOP_TRACK_FLAG + (source_agent << _AGENT_SHIFT) + count

    def resolve(self, source_agent: int, coop_track_id: Optional[int], taken: set[int]) -> int:
        if coop_track_id is None:
            return self._allocate(source_agent)
        key = (source_agent, coop_track_id)
        alias = self._ego_alias.get(key)
        if alias is not None and alias not in taken:
            return alias
        if key not in self._fresh:
            self._fresh[key] = self._allocate(source_agent)
        return self._fresh[key]


def _fuse_confidence(c_ego: float, c_coop: float, mode: str) -> float:
    if mode == "noisy_or":
        return 1.0 - (1.0 - c_ego) * (1.0 - c_coop)
    return max(c_ego, c_coop)


def coarse_fuse(ego: Instance, coop: Instance, confidence_fusion: str = "max") -> Instance:
    """Blend a matched pair into one instance, keeping the ego identity.

    All state components are confidence-weighted averages, except the
    heading, which is fused as a weighted vector sum of (cos, sin) and
    renormalized. The feature is the renormalized weighted average.

    Raises:
        DegenerateHeading: when opposing headings with equal weight cancel.
    """
    total = ego.confidence + coop.confidence
    w_ego = ego.confidence / total if total > 0 else 0.5
    w_coop = 1.0 - w_ego
    a, b = ego.state, coop.state
    hx = w_ego * a.cos_yaw + w_coop * b.cos_yaw
    hy = w_ego * a.sin_yaw + w_coop * b.sin_yaw
    norm = math.hypot(hx, hy)
    if norm < 1e-9:
        raise DegenerateHeading("matched headings cancel exactly")
    state = StateVector._trusted(
        (
            w_ego * a.x + w_coop * b.x,
            w_ego * a.y + w_coop * b.y,
            w_ego * a.z + w_coop * b.z,
            w_ego * a.l + w_coop * b.l,
            w_ego * a.w + w_coop * b.w,
            w_ego * a.h + w_coop * b.h,
            hy / norm,
            hx / norm,
            w_ego * a.vx + w_coop * b.vx,
            w_ego * a.vy + w_coop * b.vy,
            w_ego * a.vz + w_coop * b.vz,
        )
    )
    try:
        feature = normalize_feature(w_ego * ego.feature + w_coop * coop.feature)
    except ValueError:
        feature = ego.feature  # antipodal features cancel; keep the survivor's
    return Instance._trusted(
        state=state,
        feature=feature,
        confidence=_fuse_confidence(ego.confidence, coop.confidence, confidence_fusion),
        class_id=ego.class_id,
        track_id=ego.track_id,
        source_agent=ego.source_agent,
        observed_at=ego.observed_at,
    )


def refine_tracks(
    current: TrackSet, previous: TrackSet, dt: float, cfg: FusionConfig
) -> TrackSet:
    """Alpha-beta smoothing of persisting tracks against the previous frame.

    Each current instance whose ID existed previously is corrected toward
    its constant-velocity prediction: position moves by gain_pos times the
    innovation, velocity by gain_vel times innovation / dt. New tracks pass
    through unchanged. Every ID is kept, so the result is built unchecked.
    """
    if not dt > 0:  # NaN fails it too
        raise ValueError("dt must be positive")
    prev_by_id = {inst.track_id: inst for inst in previous.instances}
    gain_pos, gain_vel = cfg.smoothing_gain_pos, cfg.smoothing_gain_vel
    refined = []
    for inst in current.instances:
        prev = prev_by_id.get(inst.track_id)
        if prev is None:
            refined.append(inst)
            continue
        s, v = inst.state, prev.state
        px, py, pz = v.x + v.vx * dt, v.y + v.vy * dt, v.z + v.vz * dt  # as ``compensate_latency`` predicts
        ix, iy, iz = s.x - px, s.y - py, s.z - pz
        state = StateVector._trusted(
            (
                px + gain_pos * ix, py + gain_pos * iy, pz + gain_pos * iz,
                s.l, s.w, s.h, s.sin_yaw, s.cos_yaw,
                v.vx + gain_vel * ix / dt, v.vy + gain_vel * iy / dt, v.vz + gain_vel * iz / dt,
            )
        )
        refined.append(Instance._trusted(state, inst.feature, inst.confidence, inst.class_id, inst.track_id,
                                         inst.source_agent, inst.observed_at))
    return TrackSet._trusted(current.timestamp, tuple(refined))


def deduplicate(instances: Sequence[Instance], radius: float) -> list[Instance]:
    """Suppress same-class instances within ``radius`` of a stronger one.

    Instances are visited in descending confidence (stable under ties); an
    instance is dropped when ``nearest`` finds one kept before it in its class's
    sorted column within the planar radius. Output is in visiting order.
    """
    if not radius > 0:  # NaN fails it too
        raise ValueError("radius must be positive")
    kept: list[Instance] = []
    columns: ClassColumns = {}  # the sorted (x, y) of the kept instances, per class
    for inst in sorted(instances, key=lambda i: -i.confidence):
        x, y, column = inst.state.x, inst.state.y, columns.setdefault(inst.class_id, [])
        if nearest(column, x, y, radius) > radius:
            kept.append(inst)
            bisect.insort(column, (x, y))
    return kept


def _relabelled(inst: Instance, track_id: int) -> Instance:
    return Instance._trusted(inst.state, inst.feature, inst.confidence, inst.class_id, track_id, inst.source_agent,
                             inst.observed_at)


def assemble_output(
    fused: Sequence[Instance],
    unmatched_ego: Sequence[Instance],
    unmatched_coop_near: Sequence[Instance],
    coop_far: Sequence[Instance],
    cfg: FusionConfig,
    ids: TrackIdRegistry,
    timestamp: Timestamp,
) -> TrackSet:
    """Concatenate the four association groups into a deduplicated TrackSet.

    Remote-only instances get stable IDs from the registry, duplicates are
    suppressed, and low-confidence outputs are cut.
    """
    taken: set[int] = set()
    combined: list[Instance] = []
    for inst in list(fused) + list(unmatched_ego):
        if inst.track_id is None:
            inst = _relabelled(inst, ids.resolve(inst.source_agent, None, taken))
        combined.append(inst)
        taken.add(inst.track_id)
    for inst in list(unmatched_coop_near) + list(coop_far):
        combined.append(_relabelled(inst, ids.resolve(inst.source_agent, inst.track_id, taken)))
        taken.add(combined[-1].track_id)
    survivors = [
        inst
        for inst in deduplicate(combined, cfg.dedup_radius)
        if inst.confidence >= cfg.output_confidence_threshold
    ]
    return TrackSet(timestamp=timestamp, instances=tuple(survivors))
