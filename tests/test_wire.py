"""Wire format: sizes, round trips, malformed input, boundary conversion."""

import math
import struct

import numpy as np
import pytest

from coopfuse.core import DegenerateHeading, InstanceBatch, RigidTransform
from coopfuse.wire import (
    HEADER_DTYPE,
    HEADER_SIZE,
    MAGIC,
    MAX_FEATURE_DIM,
    MAX_RECORD_COUNT,
    NO_TRACK_ID,
    MalformedPacket,
    decode_packet,
    encode_packet,
    packet_size,
    record_size,
    serialize_packet,
)
from conftest import make_instance
from oracles import random_rotation, reference_orthonormalized


def random_packet_bytes(rng, count=None, dim=None):
    dim = int(rng.integers(1, 40)) if dim is None else dim
    count = int(rng.integers(0, 6)) if count is None else count
    instances = []
    for k in range(count):
        feature = rng.standard_normal(dim)
        feature /= np.linalg.norm(feature)
        instances.append(
            make_instance(
                x=float(rng.uniform(-60, 60)), y=float(rng.uniform(-60, 60)),
                yaw=float(rng.uniform(-math.pi, math.pi)),
                vx=float(rng.uniform(-20, 20)),
                confidence=float(rng.uniform(0, 1)),
                class_id=int(rng.integers(0, 200)),
                track_id=None if rng.random() < 0.1 else int(rng.integers(0, 2**63)),
                feature=feature,
            )
        )
    pose = RigidTransform.from_yaw(float(rng.uniform(-math.pi, math.pi)),
                                   rng.uniform(-50, 50, 3))
    t = int(rng.integers(0, 10**9))
    return encode_packet(InstanceBatch.of(instances), pose, t, sender_id=int(rng.integers(0, 100)))


class TestSizes:
    def test_header_size(self):
        assert HEADER_SIZE == 68

    def test_record_size_at_256(self):
        assert record_size(256) == 1081

    def test_record_size_formula(self):
        for dim in (1, 16, 64, 256):
            assert record_size(dim) == 8 + 1 + 4 + 44 + 4 * dim

    def test_packet_size_matches_bytes(self, rng):
        for _ in range(20):
            data = random_packet_bytes(rng)
            packet = decode_packet(data)
            assert len(data) == packet_size(packet.count, packet.feature_dim)


class TestRoundTrip:
    def test_empty_packet(self):
        pose = RigidTransform.from_yaw(0.3, (1.0, 2.0, 0.0))
        data = encode_packet(InstanceBatch.of([]), pose, 12345, sender_id=7)
        assert len(data) == HEADER_SIZE
        packet = decode_packet(data)
        assert packet.count == 0
        assert packet.sender_id == 7
        assert packet.send_timestamp == 12345
        assert packet.to_instances() == []

    def test_bytes_round_trip_bit_exact(self, rng):
        for _ in range(300):
            data = random_packet_bytes(rng)
            assert serialize_packet(decode_packet(data)) == data

    def test_packet_value_round_trip(self, rng):
        for _ in range(100):
            data = random_packet_bytes(rng)
            packet = decode_packet(data)
            again = decode_packet(serialize_packet(packet))
            assert again.header == packet.header
            np.testing.assert_array_equal(again.records, packet.records)

    def test_instances_survive_with_f32_precision(self):
        inst = make_instance(x=10.123456, y=-3.25, yaw=0.7, vx=12.5,
                             confidence=0.625, track_id=99, dim=16)
        pose = RigidTransform.from_yaw(1.0, (30.0, -20.0, 0.0))
        packet = decode_packet(encode_packet(InstanceBatch.of([inst]), pose, 777, sender_id=3))
        out = packet.to_instances()[0]
        assert out.track_id == 99
        assert out.source_agent == 3
        assert out.observed_at == 777
        assert out.confidence == pytest.approx(0.625)  # exactly representable
        np.testing.assert_allclose(out.state.as_array(), inst.state.as_array(),
                                   rtol=1e-6, atol=1e-4)
        assert abs(np.linalg.norm(out.feature) - 1.0) < 1e-9

    def test_untracked_sentinel(self):
        inst = make_instance(track_id=None, dim=4)
        packet = decode_packet(encode_packet(InstanceBatch.of([inst]), RigidTransform.identity(), 0))
        assert packet.records["track_id"][0] == NO_TRACK_ID
        assert packet.to_instances()[0].track_id is None

    def test_sender_pose_is_valid_after_quantization(self, rng):
        for _ in range(50):
            pose = RigidTransform.from_yaw(float(rng.uniform(-math.pi, math.pi)),
                                           rng.uniform(-100, 100, 3))
            packet = decode_packet(encode_packet(InstanceBatch.of([]), pose, 0))
            recovered = packet.sender_pose()  # validates orthonormality internally
            np.testing.assert_allclose(recovered.rotation, pose.rotation, atol=1e-6)

    def test_sender_pose_rejects_nan_translation(self):
        data = bytearray(encode_packet(InstanceBatch.of([]), RigidTransform.identity(), 0))
        offset = HEADER_DTYPE.fields["translation"][1]
        data[offset:offset + 4] = np.float32(np.nan).tobytes()
        with pytest.raises(ValueError):
            decode_packet(bytes(data)).sender_pose()


class TestSenderPose:
    @staticmethod
    def _with_rotation(rotation) -> bytes:
        data = bytearray(encode_packet(InstanceBatch.of([]), RigidTransform.identity(), 0))
        offset = HEADER_DTYPE.fields["rotation"][1]
        data[offset:offset + 36] = np.asarray(rotation, dtype=np.float32).tobytes()
        return bytes(data)

    def test_nearly_parallel_columns_are_rejected(self):
        # Gram-Schmidt leaves these f32 columns finite but off orthonormal by about 3e-9.
        rotation = [
            [-0.8784069418907166, -0.8784070014953613, -2.3004298910223042e-08],
            [-0.08266045898199081, -0.08266051113605499, 6.684581332905282e-09],
            [-0.4707106649875641, -0.4707106947898865, 4.175512913207058e-08],
        ]
        with pytest.raises(ValueError, match="not orthonormal"):
            decode_packet(self._with_rotation(rotation)).sender_pose()

    @pytest.mark.parametrize(
        "rotation",
        [
            np.zeros((3, 3)),
            [[1.0, np.inf, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]],  # its projection on the first column warns
            [[1.0, 0.0, 0.0], [0.0, np.nan, 0.0], [0.0, 0.0, 1.0]],
            [[0.6, 0.6, 0.0], [0.8, 0.8, 0.0], [0.0, 0.0, 1.0]],
        ],
        ids=["zeros", "inf", "nan", "parallel"],
    )
    def test_a_column_without_direction_raises_value_error(self, rotation):
        # The suite turns RuntimeWarning into an error, so a division or projection that warns fails here.
        with pytest.raises(ValueError, match="has no direction"):
            decode_packet(self._with_rotation(rotation)).sender_pose()

    @pytest.mark.parametrize("column", [[np.nan, 0.0, 1.0], [0.0, 0.0, -1.0]], ids=["nan", "reflection"])
    def test_a_third_column_off_the_cross_product_raises_value_error(self, column):
        # Columns 0 and 1 are valid, so only column 2 is wrong: a NaN, or the identity mirrored through z = 0.
        rotation = np.eye(3)
        rotation[:, 2] = column
        with pytest.raises(ValueError, match=r"^rotation column 2 .* is not the cross product of columns 0 and 1$"):
            decode_packet(self._with_rotation(rotation)).sender_pose()

    def test_nan_rotation_is_rejected(self):
        rotation = np.eye(3)
        rotation[1, 0] = np.nan
        with pytest.raises(ValueError):
            decode_packet(self._with_rotation(rotation)).sender_pose()

    def test_equals_the_validated_build_bit_for_bit(self, rng):
        for _ in range(300):
            pose = RigidTransform(random_rotation(rng), rng.uniform(-100, 100, 3))
            header = decode_packet(encode_packet(InstanceBatch.of([]), pose, 0)).header
            rotation = reference_orthonormalized(header["rotation"].astype(np.float64).reshape(3, 3))
            want = RigidTransform(rotation, header["translation"].astype(np.float64))
            got = decode_packet(encode_packet(InstanceBatch.of([]), pose, 0)).sender_pose()
            assert got.rotation.tobytes() == want.rotation.tobytes()
            assert got.translation.tobytes() == want.translation.tobytes()


class TestMalformed:
    def test_bad_magic(self, rng):
        data = bytearray(random_packet_bytes(rng))
        data[0] ^= 0xFF
        with pytest.raises(MalformedPacket):
            decode_packet(bytes(data))

    def test_bad_version(self, rng):
        data = bytearray(random_packet_bytes(rng))
        struct.pack_into("<H", data, 4, 999)
        with pytest.raises(MalformedPacket):
            decode_packet(bytes(data))

    def test_truncated(self, rng):
        data = random_packet_bytes(rng, count=2, dim=8)
        with pytest.raises(MalformedPacket):
            decode_packet(data[:-1])

    def test_trailing_garbage(self, rng):
        data = random_packet_bytes(rng, count=1, dim=8)
        with pytest.raises(MalformedPacket):
            decode_packet(data + b"\x00")

    def test_short_header(self):
        with pytest.raises(MalformedPacket):
            decode_packet(b"\x21\x51\x47\x4b")

    def test_magic_value(self):
        assert MAGIC == 0x4B475121


def _tampered(mutate) -> bytes:
    """Two valid records, encoded, with ``mutate`` applied to the record array."""
    instances = [make_instance(x=3.0, yaw=0.4, dim=8), make_instance(y=-2.0, track_id=2, dim=8)]
    packet = decode_packet(encode_packet(InstanceBatch.of(instances), RigidTransform.identity(), 5, 1))
    records = packet.records.copy()
    mutate(records)
    return packet.header.tobytes() + records.tobytes()


class TestDecodeBoundary:
    """Decode is where wire values become trusted; bad records stop here."""

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("field,column", [("state", 0), ("state", 7), ("state", 9), ("feature", 0), ("feature", 5)])
    def test_non_finite_record_value_rejected(self, field, column, value):
        def mutate(records):
            records[field][1, column] = value

        with pytest.raises(ValueError):
            decode_packet(_tampered(mutate)).to_instances()

    def test_zero_heading_rejected(self):
        def mutate(records):
            records["state"][0, 6:8] = 0.0

        with pytest.raises(DegenerateHeading):
            decode_packet(_tampered(mutate)).to_instances()

    @pytest.mark.parametrize(
        "mutate",
        [lambda r: r["state"].__setitem__((1, 4), 0.0), lambda r: r["feature"].__setitem__(0, 0.0),
         lambda r: r["confidence"].__setitem__(1, np.nan)],
        ids=["zero-width", "zero-feature", "nan-confidence"],
    )
    def test_degenerate_record_rejected(self, mutate):
        with pytest.raises(ValueError):
            decode_packet(_tampered(mutate)).to_instances()

    def test_zero_feature_raises_the_normalization_error(self):
        def mutate(records):
            records["feature"][1] = 0.0

        with pytest.raises(ValueError, match="cannot normalize a feature of norm 0.0"):
            decode_packet(_tampered(mutate)).to_instances()

    def test_untampered_records_decode(self):
        assert len(decode_packet(_tampered(lambda records: None)).to_instances()) == 2

    def test_decoded_features_own_their_memory(self):
        # A view into the packet's array would keep every record's feature
        # alive for as long as any one decoded instance is kept.
        for inst in decode_packet(_tampered(lambda records: None)).to_instances():
            assert inst.feature.base is None and not inst.feature.flags.writeable


class TestEncodePacket:
    def test_rejects_mixed_feature_dims(self):
        a = make_instance(dim=8, feature_seed=1)
        b = make_instance(dim=16, feature_seed=2)
        with pytest.raises(ValueError):
            encode_packet(InstanceBatch.of([a, b]), RigidTransform.identity(), 0, 0)

    def test_rejects_a_count_or_dim_its_u16_fields_cannot_hold(self):
        one = InstanceBatch.of([make_instance(dim=1)])
        too_many = one[np.zeros(MAX_RECORD_COUNT + 1, dtype=int)]
        too_wide = InstanceBatch.of([make_instance(dim=MAX_FEATURE_DIM + 1)])
        for batch in (too_many, too_wide):
            with pytest.raises(ValueError, match="do not fit the wire format"):
                encode_packet(batch, RigidTransform.identity(), 0, 0)
        widest = decode_packet(encode_packet(InstanceBatch.of([make_instance(dim=MAX_FEATURE_DIM)]),
                                             RigidTransform.identity(), 0, 0))
        assert widest.feature_dim == MAX_FEATURE_DIM

    def test_quantizes_to_f32_exact_values(self):
        inst = make_instance(x=1.0 / 3.0, dim=4)
        packet = decode_packet(encode_packet(InstanceBatch.of([inst]), RigidTransform.identity(), 0, 0))
        stored = float(packet.records["state"][0, 0])
        assert stored == float(np.float32(1.0 / 3.0))
