"""``Receiver``: the ego's frame step, its state across frames and what the module may depend on."""

import ast
import gc
import weakref
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coopfuse import receiver
from coopfuse.alignment import transform_state
from coopfuse.core import InstanceBatch, RigidTransform, invert, seconds_to_micros
from coopfuse.fusion import COOP_TRACK_FLAG
from coopfuse.receiver import PipelineConfig, Receiver
from coopfuse.wire import InstancePacket, encode_packet
from conftest import make_instance


def _packet(sender, t_send, *xs):
    """An encoded packet from ``sender`` sent at ``t_send`` (us) from the origin: one record at rest at each x."""
    instances = [make_instance(x=x, track_id=k + 1, source_agent=sender, observed_at=t_send) for k, x in enumerate(xs)]
    return encode_packet(InstanceBatch.of(instances), RigidTransform.identity())


def _record_decoded(monkeypatch):
    """The sender of every packet whose records are built from now on, in order."""
    decoded, real = [], InstancePacket.to_instances

    def recording(packet):
        decoded.append(packet.sender_id)
        return real(packet)

    monkeypatch.setattr(InstancePacket, "to_instances", recording)
    return decoded


class TestReceive:
    """``Receiver.step``: the newest packet per sender, senders in id order, records past the horizon counted."""

    PIPELINE = PipelineConfig()

    def _receiver(self):
        return Receiver(self.PIPELINE)

    def _xs(self, packets, t=300_000):
        _, aligned, stale = self._receiver().step(packets, [], RigidTransform.identity(), t)
        assert stale == 0
        return [(inst.source_agent, inst.state.x) for inst in aligned]

    def test_newer_send_time_wins_whichever_arrives_first(self):
        old, new = _packet(1, 100_000, 1.0), _packet(1, 200_000, 2.0)
        assert self._xs([old, new]) == self._xs([new, old]) == [(1, 2.0)]

    def test_equal_send_times_the_later_arrival_wins(self):
        first, second = _packet(1, 100_000, 1.0), _packet(1, 100_000, 2.0)
        assert self._xs([first, second]) == [(1, 2.0)]
        assert self._xs([second, first]) == [(1, 1.0)]

    def test_output_is_grouped_by_ascending_sender(self):
        packets = [_packet(3, 100_000, 3.0, 3.5), _packet(1, 200_000, 1.0, 1.5), _packet(2, 0, 2.0, 2.5)]
        assert self._xs(packets) == [(1, 1.0), (1, 1.5), (2, 2.0), (2, 2.5), (3, 3.0), (3, 3.5)]

    def test_packet_past_the_horizon_is_all_stale(self):
        horizon_us = seconds_to_micros(self.PIPELINE.alignment.max_compensation_horizon)
        _, aligned, stale = self._receiver().step(
            [_packet(1, 0, 1.0, 2.0, 3.0)], [], RigidTransform.identity(), horizon_us + 1
        )
        assert (aligned, stale) == ([], 3)

    @pytest.mark.parametrize("compensate", [True, False])
    def test_a_packet_sent_after_the_frame_raises(self, compensate):
        # The channel never delivers such a packet; hostile bytes can, and compensation off does not hide it.
        receiver = Receiver(PipelineConfig(compensate_latency=compensate))
        with pytest.raises(ValueError, match="^observed_at 300001 is after t_ego 300000$"):
            receiver.step([_packet(1, 300_001, 1.0)], [], RigidTransform.identity(), 300_000)

    def test_packet_no_newer_than_one_fused_before_is_skipped(self, monkeypatch):
        receiver = self._receiver()
        receiver.step([_packet(1, 200_000, 2.0)], [], RigidTransform.identity(), 300_000)
        assert receiver.fused_at == {1: 200_000}
        decoded = _record_decoded(monkeypatch)
        late = [_packet(1, 100_000, 1.0), _packet(1, 200_000, 3.0), _packet(2, 100_000, 4.0)]
        _, aligned, stale = receiver.step(late, [], RigidTransform.identity(), 400_000)
        assert ([(inst.source_agent, inst.state.x) for inst in aligned], stale) == ([(2, 4.0)], 0)
        assert decoded == [2]  # a skipped packet yields no records
        assert receiver.fused_at == {1: 200_000, 2: 100_000}


class TestReceiverAcrossSteps:
    """One ``Receiver`` over several frames, as ``run_scenario`` drives it."""

    def test_a_remote_only_track_keeps_its_output_id(self):
        receiver = Receiver(PipelineConfig())
        first, _, _ = receiver.step([_packet(3, 0, 10.0, 20.0)], [], RigidTransform.identity(), 0)
        remote = {inst.state.x: inst.track_id for inst in first.instances}
        assert remote == {10.0: COOP_TRACK_FLAG + (3 << 48), 20.0: COOP_TRACK_FLAG + (3 << 48) + 1}
        # Only the sender's track 2 (at x = 20) comes again; a fresh registry would give it the first ID.
        again = make_instance(x=20.0, track_id=2, source_agent=3, observed_at=500_000)
        packet = encode_packet(InstanceBatch.of([again]), RigidTransform.identity())
        second, _, _ = receiver.step([packet], [], RigidTransform.identity(), 500_000)
        assert [inst.track_id for inst in second.instances] == [remote[20.0]]

    def test_a_packet_no_newer_than_one_fused_in_an_earlier_step_builds_no_record(self, monkeypatch):
        receiver = Receiver(PipelineConfig())
        first, _, _ = receiver.step([_packet(1, 500_000, 2.0)], [], RigidTransform.identity(), 500_000)
        assert len(first.instances) == 1
        decoded = _record_decoded(monkeypatch)
        # An older packet and a copy of the fused one arrive a frame later, as jitter above the tick allows.
        late = [_packet(1, 0, 1.0), _packet(1, 500_000, 3.0)]
        second, aligned, stale = receiver.step(late, [], RigidTransform.identity(), 1_000_000)
        assert (decoded, aligned, stale, second.instances) == ([], [], 0, ())
        assert receiver.fused_at == {1: 500_000}

    def test_smooths_over_the_time_since_the_previous_step(self):
        # As TestRefineTracks::test_hand_alpha_beta_update, over 0.3 s: the track at x = 0 moving at 10 m/s is
        # predicted to 3.0 and seen at 4.0, so x = 3.0 + 0.6 * 1.0 and vx = 10 + 0.4 * 1.0 / 0.3.
        receiver = Receiver(PipelineConfig())
        first, _, _ = receiver.step([], [make_instance(x=0.0, vx=10.0)], RigidTransform.identity(), 0)
        assert [(inst.state.x, inst.state.vx) for inst in first.instances] == [(0.0, 10.0)]
        seen = make_instance(x=4.0, vx=10.0, observed_at=300_000)
        second, _, _ = receiver.step([], [seen], RigidTransform.identity(), 300_000)
        (track,) = second.instances
        assert track.state.x == pytest.approx(3.6)
        assert track.state.vx == pytest.approx(10.0 + 0.4 / 0.3)

    @pytest.mark.parametrize("t", [500_000, 499_999, 0])
    def test_a_step_not_after_the_tracked_time_raises(self, t):
        receiver = Receiver(PipelineConfig())
        receiver.step([], [make_instance()], RigidTransform.identity(), 500_000)
        with pytest.raises(ValueError, match="^dt must be positive$"):
            receiver.step([], [make_instance()], RigidTransform.identity(), t)

    def test_a_step_after_a_trackless_one_refines_nothing(self):
        # No tracks to smooth against, so no time since them: the step's output is its assembled tracks.
        receiver = Receiver(PipelineConfig())
        receiver.step([], [], RigidTransform.identity(), 500_000)
        tracks, _, _ = receiver.step([], [make_instance(x=2.0, vx=10.0)], RigidTransform.identity(), 0)
        assert [(inst.state.x, inst.state.vx) for inst in tracks.instances] == [(2.0, 10.0)]

    def test_a_tick_is_no_longer_a_parameter(self):
        with pytest.raises(TypeError):
            Receiver(PipelineConfig(), 0.5)


@st.composite
def _replays(draw, distinct_send_times=False):
    """1–4 steps of one ``Receiver``, each (t, ego detections, ego pose, packets in arrival order), a packet being
    (sender, send time, sender pose, records). Agents see 0–6 of 1–8 objects (an object's feature is its identity),
    each from its own pose and a little off, so cooperators' records match the ego's and each other's. Steps are
    1 us to 0.6 s apart; senders 1–4 send 0–3 packets a step, in any order and 0–2.5 s old in steps of 0.1 s: past
    the compensation horizon, or at or before one fused a step earlier."""
    objects = draw(st.lists(st.tuples(st.floats(-30, 30), st.floats(-30, 30), st.floats(-3.14, 3.14),
                                      st.floats(-15, 15)), min_size=1, max_size=8))

    def view(sender, observed_at):
        pose = RigidTransform.from_yaw(draw(st.floats(-3.14, 3.14)), (draw(st.floats(-10, 10)),
                                                                      draw(st.floats(-10, 10)), 0.0))
        seen = draw(st.lists(st.integers(0, len(objects) - 1), max_size=6, unique=True))
        instances = []
        for k, oid in enumerate(seen):
            x, y, yaw, vx = objects[oid]
            inst = make_instance(x=x + draw(st.floats(-1, 1)), y=y, yaw=yaw, vx=vx, confidence=draw(st.floats(0.05, 1)),
                                 track_id=k + 1, source_agent=sender, observed_at=observed_at, feature_seed=oid)
            instances.append(replace(inst, state=transform_state(inst.state, invert(pose))))
        return pose, instances

    steps, t = [], draw(st.integers(2_500_000, 5_000_000))
    for _ in range(draw(st.integers(1, 4))):
        t += draw(st.integers(1, 600_000))
        packets = []
        for sender in draw(st.lists(st.integers(1, 4), max_size=4, unique=True)):
            for age in draw(st.lists(st.integers(0, 25), max_size=3, unique=distinct_send_times)):
                packets.append((sender, t - age * 100_000, *view(sender, t - age * 100_000)))
        ego_pose, ego = view(0, t)
        steps.append((t, ego, ego_pose, draw(st.permutations(packets))))
    return steps


def _replay(steps, shift=0, arrivals=list):
    """Each step's output on one ``Receiver``, every stamp moved by ``shift`` us and the output's moved back, with
    ``arrivals`` applied to each step's encoded packets."""

    def plain(instances):
        return [(i.track_id, i.class_id, i.source_agent, i.observed_at - shift, i.confidence, tuple(i.state),
                 i.feature.tobytes()) for i in instances]

    receive = Receiver(PipelineConfig())
    out = []
    for t, ego, ego_pose, packets in steps:
        encoded = [encode_packet(replace(InstanceBatch.of(records), source_agent=sender, observed_at=sent + shift),
                                 pose) for sender, sent, pose, records in packets]
        ego = [replace(inst, observed_at=inst.observed_at + shift) for inst in ego]
        tracks, aligned, stale = receive.step(arrivals(encoded), ego, ego_pose, t + shift)
        out.append((tracks.timestamp - shift, plain(tracks.instances), plain(aligned), stale))
    return out


class TestReplayInvariance:
    """Changes to a replay that the output must not see, over generated multi-sender steps."""

    @settings(max_examples=40, deadline=None)
    @given(_replays())
    def test_shifting_every_stamp_shifts_the_output_alike(self, steps):
        # Latency and smoothing read differences of stamps, so a far later clock changes no state.
        assert _replay(steps, shift=10**12 + 7) == _replay(steps)

    @settings(max_examples=40, deadline=None)
    @given(_replays())
    def test_each_packet_delivered_twice_changes_nothing(self, steps):
        assert _replay(steps, arrivals=lambda packets: packets + packets) == _replay(steps)

    @settings(max_examples=40, deadline=None)
    @given(_replays(distinct_send_times=True))
    def test_reversed_arrival_order_changes_nothing(self, steps):
        # Of one sender's packets sent at the same time the later arrival wins by design, so no step has two.
        assert _replay(steps, arrivals=lambda packets: packets[::-1]) == _replay(steps)


class TestStreamedPackets:
    def test_no_packet_is_alive_when_association_starts(self, monkeypatch):
        # A streamed frame's packets must die once aligned: kept through association, they would survive into older
        # GC generations and slow every collection. With gc off, only a reference the step still holds keeps one.
        packets, alive = [], []
        real_decode, real_associate = receiver.decode_packet, receiver.associate

        def decode(data):
            packet = real_decode(data)
            packets.append(weakref.ref(packet))
            return packet

        def associate(*args):
            alive.append(sum(ref() is not None for ref in packets))
            return real_associate(*args)

        monkeypatch.setattr(receiver, "decode_packet", decode)
        monkeypatch.setattr(receiver, "associate", associate)
        step = Receiver(PipelineConfig()).step
        gc.disable()
        try:
            _, aligned, _ = step([_packet(1, 100_000, 1.0, 2.0), _packet(2, 100_000, 3.0)], [],
                                 RigidTransform.identity(), 200_000)
        finally:
            gc.enable()
        assert (len(packets), len(aligned), alive) == (2, 3, [0])


def test_imports_only_the_methods_modules():
    # coopfuse/__init__ imports every module, so only the source shows what this module itself imports.
    tree = ast.parse(Path(receiver.__file__).read_text())
    relative = {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) and node.level}
    absolute = {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import) for alias in node.names}
    absolute |= {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) and not node.level}
    assert relative <= {"alignment", "association", "core", "fusion", "wire"}
    assert not any(name.split(".")[0] == "coopfuse" for name in absolute)
