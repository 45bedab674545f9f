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

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import (
    Instance,
    RigidTransform,
    StateVector,
    Timestamp,
    _check_records,
    _orthonormalized,
    normalize_heading,
)

MAGIC = 0x4B475121
VERSION = 1
NO_TRACK_ID = 0xFFFF_FFFF_FFFF_FFFF
MAX_SENDER_ID = 0xFFFF
MAX_CLASS_ID = 0xFF

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
    """A packet as wire values: one ``HEADER_DTYPE`` header and the records."""

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
        """The sender pose, re-orthonormalized after f32 quantization."""
        rot = self.header["rotation"].astype(np.float64).reshape(3, 3)
        return RigidTransform(_orthonormalized(rot), self.header["translation"].astype(np.float64))

    def to_instances(self) -> list[Instance]:
        """Validated Instances; renormalizes heading and feature after f32.

        Raises:
            ValueError: on records ``core._check_records`` rejects, checked
                as one batch first; DegenerateHeading on a zero heading.
        """
        recs = self.records
        sender_id, send_timestamp = self.sender_id, self.send_timestamp
        states, features = recs["state"], recs["feature"].astype(np.float64)
        norms = _check_records(states, features, recs["confidence"], send_timestamp)
        out = []
        for tid, class_id, confidence, values, feature, norm in zip(
            recs["track_id"].tolist(),
            recs["class_id"].tolist(),
            recs["confidence"].tolist(),
            states.tolist(),
            features,
            norms.tolist(),
        ):
            values[6], values[7] = normalize_heading(values[6], values[7])
            # Each row gets its own array: a view would keep the whole
            # packet alive for as long as any one of its instances lives.
            feature = feature / norm
            feature.setflags(write=False)
            out.append(
                Instance._trusted(
                    state=StateVector._trusted(values),
                    feature=feature,
                    confidence=min(max(confidence, 0.0), 1.0),
                    class_id=class_id,
                    track_id=None if tid == NO_TRACK_ID else tid,
                    source_agent=sender_id,
                    observed_at=send_timestamp,
                )
            )
        return out


def _record(inst: Instance) -> tuple:
    tid = inst.track_id
    if tid is not None and not 0 <= tid < NO_TRACK_ID:
        raise ValueError(f"track_id {tid} does not fit the wire format")
    if not 0 <= inst.class_id <= MAX_CLASS_ID:
        raise ValueError(f"class_id {inst.class_id} does not fit the wire format")
    return (
        NO_TRACK_ID if tid is None else tid,
        inst.class_id, inst.confidence, inst.state.as_array(), inst.feature,
    )


def serialize_packet(packet: InstancePacket) -> bytes:
    return packet.header.tobytes() + packet.records.tobytes()


def encode_packet(
    instances: Sequence[Instance],
    pose: RigidTransform,
    t: Timestamp,
    sender_id: int = 0,
) -> bytes:
    """Serialize a batch of instances plus the sender pose and timestamp."""
    dims = {len(inst.feature) for inst in instances}
    if len(dims) > 1:
        raise ValueError(f"instances carry mixed feature dimensions: {sorted(dims)}")
    feature_dim = dims.pop() if dims else 0
    if not 0 <= sender_id <= MAX_SENDER_ID:
        raise ValueError(f"sender_id {sender_id} does not fit the wire format")
    header = np.array(
        (MAGIC, VERSION, sender_id, t, pose.rotation.reshape(-1), pose.translation,
         len(instances), feature_dim),
        dtype=HEADER_DTYPE,
    )
    records = np.array([_record(inst) for inst in instances], dtype=record_dtype(feature_dim))
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
