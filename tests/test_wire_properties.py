"""Property tests for the wire codec: f32-exact round trips and safe decoding."""

import math
import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from coopfuse.core import Instance, RigidTransform, StateVector
from coopfuse.wire import (
    HEADER_SIZE,
    MAGIC,
    NO_TRACK_ID,
    VERSION,
    InstancePacket,
    MalformedPacket,
    decode_packet,
    encode_packet,
    record_size,
    serialize_packet,
)

PROPERTY_SETTINGS = settings(
    max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)

track_ids = st.none() | st.integers(0, NO_TRACK_ID - 1) | st.just(NO_TRACK_ID - 1)
class_ids = st.integers(0, 255)
finite = st.floats(-1e6, 1e6, allow_nan=False)


@st.composite
def packets(draw, max_count=60):
    """(instances, pose, t, sender_id) with every field drawn at random."""
    count = draw(st.integers(0, max_count))
    dim = draw(st.integers(1, 300))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    instances = []
    for _ in range(count):
        yaw = draw(st.floats(-math.pi, math.pi))
        x, y, z, vx, vy, vz = (draw(finite) for _ in range(6))
        dims = rng.uniform(0.1, 20.0, 3)
        feature = rng.standard_normal(dim)
        instances.append(
            Instance(
                state=StateVector(
                    x=x, y=y, z=z, l=dims[0], w=dims[1], h=dims[2],
                    sin_yaw=math.sin(yaw), cos_yaw=math.cos(yaw), vx=vx, vy=vy, vz=vz,
                ),
                feature=feature / np.linalg.norm(feature),
                confidence=draw(st.floats(0.0, 1.0)),
                class_id=draw(class_ids),
                track_id=draw(track_ids),
                source_agent=0,
                observed_at=0,
            )
        )
    pose = RigidTransform.from_yaw(draw(st.floats(-math.pi, math.pi)), rng.uniform(-1e3, 1e3, 3))
    t = draw(st.integers(0, 2**63 - 1))
    sender_id = draw(st.integers(0, 0xFFFF))
    return instances, pose, t, sender_id


def f32(values) -> np.ndarray:
    return np.asarray(values, dtype=np.float64).astype(np.float32)


@PROPERTY_SETTINGS
@given(packets())
def test_encode_decode_is_f32_exact(case):
    instances, pose, t, sender_id = case
    data = encode_packet(instances, pose, t, sender_id)
    packet = decode_packet(data)
    assert serialize_packet(packet) == data
    assert (packet.sender_id, packet.send_timestamp, packet.count) == (sender_id, t, len(instances))
    np.testing.assert_array_equal(packet.header["rotation"], f32(pose.rotation.reshape(-1)))
    np.testing.assert_array_equal(packet.header["translation"], f32(pose.translation))
    recs = packet.records
    for k, inst in enumerate(instances):
        expected_tid = NO_TRACK_ID if inst.track_id is None else inst.track_id
        assert int(recs["track_id"][k]) == expected_tid
        assert int(recs["class_id"][k]) == inst.class_id
        assert recs["confidence"][k] == np.float32(inst.confidence)
        np.testing.assert_array_equal(recs["state"][k], f32(inst.state.as_array()))
        np.testing.assert_array_equal(recs["feature"][k], f32(inst.feature))
    decoded = packet.to_instances()
    assert [d.track_id for d in decoded] == [i.track_id for i in instances]
    assert [d.class_id for d in decoded] == [i.class_id for i in instances]


def _check_decode(data: bytes) -> None:
    try:
        packet = decode_packet(data)
    except MalformedPacket:
        return
    assert isinstance(packet, InstancePacket)
    assert serialize_packet(packet) == data


@PROPERTY_SETTINGS
@given(st.binary(max_size=4096))
def test_arbitrary_bytes_decode_or_raise_malformed(data):
    _check_decode(data)


@PROPERTY_SETTINGS
@given(
    count=st.integers(0, 0xFFFF),
    dim=st.integers(0, 0xFFFF),
    body=st.binary(max_size=2048),
)
def test_arbitrary_bodies_behind_a_valid_prefix(count, dim, body):
    header = struct.pack("<IHH", MAGIC, VERSION, 0) + bytes(HEADER_SIZE - 12) + struct.pack("<HH", count, dim)
    _check_decode(header + body)
    # Any body of exactly the declared length decodes.
    size = count * record_size(dim)
    if size <= 4096:
        assert decode_packet(header + (body + bytes(size))[:size]).count == count


@PROPERTY_SETTINGS
@given(packets(max_count=4), st.data())
def test_truncated_or_extended_packets_raise_malformed(case, data):
    payload = encode_packet(*case)
    cut = data.draw(st.integers(0, len(payload) - 1))
    with pytest.raises(MalformedPacket):
        decode_packet(payload[:cut])
    tail = data.draw(st.binary(min_size=1, max_size=64))
    with pytest.raises(MalformedPacket):
        decode_packet(payload + tail)


@PROPERTY_SETTINGS
@given(st.integers(max_value=-1) | st.integers(min_value=NO_TRACK_ID))
def test_out_of_range_track_id_rejected_at_encode(track_id):
    inst = Instance(
        state=StateVector(0.0, 0.0, 0.0, 4.5, 1.9, 1.6, 0.0, 1.0, 0.0, 0.0, 0.0),
        feature=np.array([1.0]),
        confidence=0.5,
        class_id=0,
        track_id=track_id,
        source_agent=0,
        observed_at=0,
    )
    with pytest.raises(ValueError, match="track_id"):
        encode_packet([inst], RigidTransform.identity(), 0)
