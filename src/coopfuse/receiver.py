"""The ego's side of the loop: align, associate across agents, then fuse.

``Receiver.step`` takes one frame's packets and the ego's detections to the
frame's track set under a ``PipelineConfig``. The module knows nothing of
how the packets were made: worlds, sensors, the channel and scene replays
live in ``simulator``, which drives one ``Receiver`` per run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

from .alignment import AlignmentConfig, HorizonExceeded, align_instance
from .association import MatchWeights, RoiSpec, associate, filter_roi
from .core import (Instance, RigidTransform, Timestamp, _check_finite_sign, _unsigned_zeros, micros_to_seconds,
                   relative_transform)
from .fusion import FusionConfig, TrackIdRegistry, TrackSet, assemble_output, coarse_fuse, refine_tracks
from .wire import InstancePacket, decode_packet


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
        _unsigned_zeros(self)
        _check_finite_sign(self, ("r_int",), positive=True)
        if self.transmit_top_k < 1:
            raise ValueError("transmit_top_k must be at least 1")
        if not 0.0 <= self.transmit_confidence_min <= 1.0:
            raise ValueError("transmit_confidence_min must lie in [0, 1]")


class Receiver:
    """The ego's side of every frame: align, associate across agents and fuse. It keeps what one frame hands
    the next: the track-id ``registry``, each sender's last fused send time (``fused_at``) and the ``tracks``.
    It turns each packet's bytes into an ``InstancePacket`` with ``decode`` if given, else ``decode_packet``."""

    def __init__(self, pipeline: PipelineConfig, *, decode: Optional[Callable[[bytes], InstancePacket]] = None) -> None:
        self.pipeline = pipeline
        self.decode = decode
        self.registry = TrackIdRegistry()
        self.fused_at: dict[int, Timestamp] = {}
        self.tracks = TrackSet(timestamp=0, instances=())

    def step(
        self, packets: Sequence[bytes], ego_detections: Sequence[Instance], ego_pose: RigidTransform, t: Timestamp
    ) -> tuple[TrackSet, list[Instance], int]:
        """The ego's frame at ``t`` from its detections and the packets consumed at ``t``, in arrival order. Each
        sender's newest packet by send time (of equal ones, the later arrival) is aligned, senders in id order; one
        sent at or before its sender's last fused one is skipped before any record is built. The detections and the
        aligned instances are cut to the ROI once each, associated, fused and refined against the previous step's
        tracks over the time since (none if it left none; ValueError if ``t`` is not later). Returns the tracks, the
        aligned cooperator instances in the ROI and the count of records past the horizon."""
        pipe = self.pipeline
        aligned, stale = self._align(packets, ego_pose, t)
        coop_in_roi = filter_roi(aligned, pipe.roi)
        result = associate(filter_roi(ego_detections, pipe.roi), coop_in_roi, pipe.r_int, pipe.weights)
        fused = []
        for ego_inst, coop_inst, _cost in result.matched:
            self.registry.record_match(coop_inst.source_agent, coop_inst.track_id, ego_inst.track_id)
            fused.append(coarse_fuse(ego_inst, coop_inst, pipe.fusion.confidence_fusion))
        tracks = assemble_output(
            fused, result.unmatched_ego, result.unmatched_coop_near, result.coop_far, pipe.fusion, self.registry, t
        )
        if self.tracks.instances:
            tracks = refine_tracks(tracks, self.tracks, micros_to_seconds(t - self.tracks.timestamp), pipe.fusion)
        self.tracks = tracks
        return tracks, coop_in_roi, stale

    def _align(self, packets: Sequence[bytes], ego_pose: RigidTransform, t: Timestamp) -> tuple[list[Instance], int]:
        # Each sender's packet and the instances it keeps go once its records are aligned, unless ``decode`` keeps
        # them (hence the pop and a method apart from step): kept through association, they would survive into older
        # GC generations and slow every collection (by about 3% of a crowd run). ``decode_packet`` is looked up at
        # each call, so a wrapper put in this module's namespace sees every decode.
        pipe = self.pipeline
        newest: dict[int, InstancePacket] = {}
        for data in packets:
            packet = decode_packet(data) if self.decode is None else self.decode(data)
            if packet.send_timestamp <= self.fused_at.get(packet.sender_id, -1):
                continue
            prior = newest.get(packet.sender_id)
            if prior is None or packet.send_timestamp >= prior.send_timestamp:
                newest[packet.sender_id] = packet
        aligned: list[Instance] = []
        stale = 0
        for sender in sorted(newest):
            packet = newest.pop(sender)
            self.fused_at[sender] = packet.send_timestamp
            rel = relative_transform(ego_pose, packet.sender_pose())
            for inst in packet.to_instances():
                try:
                    aligned.append(align_instance(inst, rel, t, pipe.alignment, pipe.compensate_latency))
                except HorizonExceeded:
                    stale += 1
        return aligned, stale
