"""Property tests for the wire codec: f32-exact round trips and safe decoding."""

import math
import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from coopfuse.core import Instance, InstanceBatch, RigidTransform, StateVector
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
from oracles import reference_packet

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
    data = encode_packet(InstanceBatch.of(instances), pose, t, sender_id)
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
    instances, *header = case
    payload = encode_packet(InstanceBatch.of(instances), *header)
    cut = data.draw(st.integers(0, len(payload) - 1))
    with pytest.raises(MalformedPacket):
        decode_packet(payload[:cut])
    tail = data.draw(st.binary(min_size=1, max_size=64))
    with pytest.raises(MalformedPacket):
        decode_packet(payload + tail)


unit = st.floats(-1.0, 1.0)


@PROPERTY_SETTINGS
@given(st.tuples(unit, unit, unit, unit).filter(lambda q: sum(v * v for v in q) > 1e-3), st.tuples(finite, finite, finite))
def test_every_pose_encode_accepts_decodes(quaternion, translation):
    # Any rotation, as a unit quaternion: its header's third column is the cross product of the first two within f32.
    w, x, y, z = np.array(quaternion) / math.sqrt(sum(v * v for v in quaternion))
    rotation = [
        [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
        [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
        [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
    ]
    pose = RigidTransform(rotation, translation)
    got = decode_packet(encode_packet(InstanceBatch.of([]), pose, 0)).sender_pose()
    np.testing.assert_allclose(got.rotation, pose.rotation, rtol=0, atol=1e-6)
    np.testing.assert_array_equal(got.translation, f32(pose.translation))


def _one(track_id=1, class_id=0):
    return Instance(
        state=StateVector(0.0, 0.0, 0.0, 4.5, 1.9, 1.6, 0.0, 1.0, 0.0, 0.0, 0.0),
        feature=np.array([1.0]),
        confidence=0.5,
        class_id=class_id,
        track_id=track_id,
        source_agent=0,
        observed_at=0,
    )


@PROPERTY_SETTINGS
@given(st.integers(max_value=-1) | st.integers(min_value=NO_TRACK_ID))
def test_out_of_range_track_id_rejected_at_encode(track_id):
    batch = InstanceBatch.of([_one(), _one(track_id=track_id)])
    with pytest.raises(ValueError, match=rf"^track_id {track_id} does not fit the wire format$"):
        encode_packet(batch, RigidTransform.identity(), 0)


@PROPERTY_SETTINGS
@given(st.integers(max_value=-1) | st.integers(min_value=256))
def test_out_of_range_class_id_rejected_at_encode(class_id):
    batch = InstanceBatch.of([_one(), _one(class_id=class_id)])
    with pytest.raises(ValueError, match=rf"^class_id {class_id} does not fit the wire format$"):
        encode_packet(batch, RigidTransform.identity(), 0)


@PROPERTY_SETTINGS
@given(packets())
def test_encode_equals_reference_packing(case):
    instances, pose, t, sender_id = case
    want = reference_packet(instances, pose.rotation.tolist(), pose.translation.tolist(), t, sender_id)
    assert encode_packet(InstanceBatch.of(instances), pose, t, sender_id) == want


@pytest.mark.parametrize(
    "instances",
    [[], [_one(track_id=None, class_id=255)], [_one(track_id=NO_TRACK_ID - 1), _one(track_id=None), _one(track_id=0)]],
    ids=["empty", "untracked-class-255", "tracked-and-untracked"],
)
def test_encode_edge_rows_equal_reference_packing(instances):
    pose = RigidTransform.from_yaw(0.3, (1.0, -2.0, 0.5))
    data = encode_packet(InstanceBatch.of(instances), pose, 42, 7)
    assert data == reference_packet(instances, pose.rotation.tolist(), pose.translation.tolist(), 42, 7)
    header = decode_packet(data).header
    assert (int(header["count"]), int(header["feature_dim"])) == (len(instances), 1 if instances else 0)
