"""Binary packet format for instance exchange.

Layout (all little-endian, no padding), as packed numpy structured dtypes:

    HEADER_DTYPE:     magic u32 = 0x4B475121, version u16, sender_id u16,
                      send_timestamp i64 (microseconds), sender pose as
                      9 x f32 rotation (row-major) + 3 x f32 translation,
                      count u16, feature_dim u16              -> 68 bytes
    record_dtype(D):  track_id u64 (0xFFFF...FF means untracked), class u8,
                      confidence f32, state 11 x f32, feature D x f32
                                                              -> 57 + 4D bytes

A packet is a header plus a record array over exactly the f32 values that
live on the wire, so encode/decode round-trips are bit-exact. Conversion
to and from ``Instance`` (which is float64 and validated) happens at the
edges: values round to f32 on the way out, and headings and features are
renormalized on the way in.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .core import (
    Instance,
    InstanceBatch,
    RigidTransform,
    Timestamp,
    _check_records,
    _orthonormalized,
    normalize_feature,
    normalize_heading,
)

MAGIC = 0x4B475121
VERSION = 1
NO_TRACK_ID = 0xFFFF_FFFF_FFFF_FFFF
MAX_SENDER_ID = 0xFFFF
MAX_TIMESTAMP = 2**63 - 1
MAX_RECORD_COUNT = MAX_FEATURE_DIM = 0xFFFF
MAX_CLASS_ID = 0xFF
MAX_F32 = float(np.finfo(np.float32).max)

HEADER_DTYPE = np.dtype(
    [
        ("magic", "<u4"),
        ("version", "<u2"),
        ("sender_id", "<u2"),
        ("send_timestamp", "<i8"),
        ("rotation", "<f4", (9,)),
        ("translation", "<f4", (3,)),
        ("count", "<u2"),
        ("feature_dim", "<u2"),
    ]
)
HEADER_SIZE = HEADER_DTYPE.itemsize  # 68


class MalformedPacket(ValueError):
    """The byte stream is not a well-formed instance packet."""


@functools.lru_cache(maxsize=64)  # bounded: decode reads D from headers it has not yet checked
def record_dtype(feature_dim: int) -> np.dtype:
    """The packed record layout for a given feature dimension."""
    return np.dtype(
        [
            ("track_id", "<u8"),
            ("class_id", "u1"),
            ("confidence", "<f4"),
            ("state", "<f4", (11,)),
            ("feature", "<f4", (feature_dim,)),
        ]
    )


def record_size(feature_dim: int) -> int:
    """Bytes per instance record for a given feature dimension."""
    return record_dtype(feature_dim).itemsize


def packet_size(count: int, feature_dim: int) -> int:
    return HEADER_SIZE + count * record_size(feature_dim)


@dataclass(frozen=True, eq=False)
class InstancePacket:
    """A packet as wire values: one ``HEADER_DTYPE`` header and the records.

    The packet keeps its sender pose and its validated instances from the first call that builds them, so every
    holder of the packet shares one build. A call that raises keeps nothing, and raises again at the next call."""

    header: np.void
    records: np.ndarray  # record_dtype(feature_dim), one entry per instance

    @property
    def sender_id(self) -> int:
        return int(self.header["sender_id"])

    @property
    def send_timestamp(self) -> Timestamp:
        return int(self.header["send_timestamp"])

    @property
    def feature_dim(self) -> int:
        return int(self.header["feature_dim"])

    @property
    def count(self) -> int:
        return len(self.records)

    def sender_pose(self) -> RigidTransform:
        """The sender pose, re-orthonormalized after f32 quantization and checked by ``RigidTransform``. ValueError
        if rotation column 0 or 1 is zero or non-finite, the two are (nearly) parallel, column 2 is off their cross
        product by more than 1e-6 (f32 leaves under 1e-7; a reflection or NaN is off) or translation is not finite."""
        return self._pose

    @functools.cached_property
    def _pose(self) -> RigidTransform:
        sent = self.header["rotation"].astype(np.float64).reshape(3, 3)
        pose = RigidTransform(_orthonormalized(sent), self.header["translation"].astype(np.float64))
        if not all(abs(d) <= 1e-6 for d in (sent[:, 2] - pose.rotation[:, 2]).tolist()):
            raise ValueError(f"rotation column 2 {sent[:, 2].tolist()} is not the cross product of columns 0 and 1")
        return pose

    def to_instances(self) -> list[Instance]:
        """Validated Instances, heading and feature renormalized after f32, as a new list at every call. Raises
        ValueError on records ``core._check_records`` rejects (one batch check) or a feature ``normalize_feature``
        cannot normalize, DegenerateHeading on a zero heading."""
        return list(self._instances)

    @functools.cached_property
    def _instances(self) -> tuple[Instance, ...]:
        recs = self.records
        states, features = recs["state"].astype(np.float64), recs["feature"].astype(np.float64)
        _check_records(states, features, recs["confidence"], self.send_timestamp)
        features = normalize_feature(features)
        if len(states):
            states[:, 6:8] = [normalize_heading(sin, cos) for sin, cos in states[:, 6:8].tolist()]
        track_ids = recs["track_id"].astype(object)
        track_ids[recs["track_id"] == NO_TRACK_ID] = None
        confidences = np.where(recs["confidence"] < 0.0, 0.0, np.minimum(recs["confidence"], 1.0))
        batch = InstanceBatch(states, features, confidences, recs["class_id"], track_ids,
                              self.sender_id, self.send_timestamp)
        return tuple(batch.instances())


def serialize_packet(packet: InstancePacket) -> bytes:
    return packet.header.tobytes() + packet.records.tobytes()


def encode_packet(
    instances: InstanceBatch,
    pose: RigidTransform,
    t: Timestamp,
    sender_id: int = 0,
) -> bytes:
    """Serialize a batch of instances plus the sender pose and timestamp (an
    empty batch declares D = 0); raises ValueError on an ID, count or D its field cannot hold, or a
    finite translation or state value beyond f32's range (checked before any cast, once per column)."""
    if not 0 <= sender_id <= MAX_SENDER_ID:
        raise ValueError(f"sender_id {sender_id} does not fit the wire format")
    # The ids checked as Python values: object-dtype ufuncs cost microseconds a call for a packet's few ids.
    track_ids = instances.track_ids.tolist()
    for i in track_ids:
        if i is not None and (i < 0 or i >= NO_TRACK_ID):
            raise ValueError(f"track_id {i} does not fit the wire format")
    for i in instances.class_ids.tolist():
        if i < 0 or i > MAX_CLASS_ID:
            raise ValueError(f"class_id {i} does not fit the wire format")
    feature_dim = instances.features.shape[1] if len(instances) else 0
    if len(instances) > MAX_RECORD_COUNT or feature_dim > MAX_FEATURE_DIM:
        raise ValueError(f"{len(instances)} records of D = {feature_dim} do not fit the wire format")
    # No other column can overflow: rotation entries, a valid batch's confidences and its unit features lie in [-1, 1].
    for name, column in (("translation", pose.translation), ("state", instances.states)):
        if not np.abs(column).max(initial=0.0) <= MAX_F32:  # NaN and inf land here too, and go out as they are
            big = column[np.abs(column) > MAX_F32]
            if np.isfinite(big).any():
                raise ValueError(f"{name} value {big[np.isfinite(big)][0]} does not fit the wire format")
    header = np.array(
        (MAGIC, VERSION, sender_id, t, pose.rotation.reshape(-1), pose.translation,
         len(instances), feature_dim),
        dtype=HEADER_DTYPE,
    )
    records = np.empty(len(instances), dtype=record_dtype(feature_dim))
    records["track_id"] = [NO_TRACK_ID if i is None else i for i in track_ids]
    records["class_id"] = instances.class_ids
    records["confidence"] = instances.confidences
    records["state"] = instances.states
    records["feature"] = instances.features.reshape(len(instances), feature_dim)
    return header.tobytes() + records.tobytes()


def decode_packet(buf: bytes) -> InstancePacket:
    """Parse bytes into an InstancePacket.

    Raises:
        MalformedPacket: on bad magic, unsupported version, or any length
            disagreement between the header and the byte count.
    """
    if len(buf) < HEADER_SIZE:
        raise MalformedPacket(f"truncated header: {len(buf)} bytes")
    header = np.frombuffer(buf, HEADER_DTYPE, count=1)[0]
    if header["magic"] != MAGIC:
        raise MalformedPacket(f"bad magic 0x{int(header['magic']):08X}")
    if header["version"] != VERSION:
        raise MalformedPacket(f"unsupported version {header['version']}")
    count, feature_dim = int(header["count"]), int(header["feature_dim"])
    expected = packet_size(count, feature_dim)
    if len(buf) != expected:
        raise MalformedPacket(f"length {len(buf)} != declared {expected}")
    records = np.frombuffer(buf, record_dtype(feature_dim), count=count, offset=HEADER_SIZE)
    return InstancePacket(header=header, records=records)
