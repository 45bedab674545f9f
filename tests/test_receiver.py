"""``Receiver``: the ego's frame step, its state across frames and what the module may depend on."""

import ast
import gc
import math
import weakref
from pathlib import Path

import pytest

from coopfuse import receiver
from coopfuse.core import InstanceBatch, RigidTransform, seconds_to_micros
from coopfuse.fusion import COOP_TRACK_FLAG
from coopfuse.receiver import PipelineConfig, Receiver
from coopfuse.wire import InstancePacket, encode_packet
from conftest import make_instance


def _packet(sender, t_send, *xs):
    """An encoded packet from ``sender`` sent at ``t_send`` (us) from the origin: one record at rest at each x."""
    instances = [make_instance(x=x, track_id=k + 1, source_agent=sender, observed_at=t_send) for k, x in enumerate(xs)]
    return encode_packet(InstanceBatch.of(instances), RigidTransform.identity(), t_send, sender)


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
        return Receiver(self.PIPELINE, tick_s=0.5)

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
        receiver = Receiver(PipelineConfig(compensate_latency=compensate), tick_s=0.5)
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
        receiver = Receiver(PipelineConfig(), tick_s=0.5)
        first, _, _ = receiver.step([_packet(3, 0, 10.0, 20.0)], [], RigidTransform.identity(), 0)
        remote = {inst.state.x: inst.track_id for inst in first.instances}
        assert remote == {10.0: COOP_TRACK_FLAG + (3 << 48), 20.0: COOP_TRACK_FLAG + (3 << 48) + 1}
        # Only the sender's track 2 (at x = 20) comes again; a fresh registry would give it the first ID.
        again = make_instance(x=20.0, track_id=2, source_agent=3, observed_at=500_000)
        packet = encode_packet(InstanceBatch.of([again]), RigidTransform.identity(), 500_000, 3)
        second, _, _ = receiver.step([packet], [], RigidTransform.identity(), 500_000)
        assert [inst.track_id for inst in second.instances] == [remote[20.0]]

    def test_a_packet_no_newer_than_one_fused_in_an_earlier_step_builds_no_record(self, monkeypatch):
        receiver = Receiver(PipelineConfig(), tick_s=0.5)
        first, _, _ = receiver.step([_packet(1, 500_000, 2.0)], [], RigidTransform.identity(), 500_000)
        assert len(first.instances) == 1
        decoded = _record_decoded(monkeypatch)
        # An older packet and a copy of the fused one arrive a frame later, as jitter above the tick allows.
        late = [_packet(1, 0, 1.0), _packet(1, 500_000, 3.0)]
        second, aligned, stale = receiver.step(late, [], RigidTransform.identity(), 1_000_000)
        assert (decoded, aligned, stale, second.instances) == ([], [], 0, ())
        assert receiver.fused_at == {1: 500_000}

    @pytest.mark.parametrize("tick_s", [math.inf, math.nan, 0.0, -1.0])
    def test_rejects_a_non_finite_or_non_positive_tick_at_construction(self, tick_s):
        # Checked once, here: an inf tick makes NaN tracks by the third step, and -1 fails only inside refine_tracks.
        with pytest.raises(ValueError, match="^tick_s must be positive and finite"):
            Receiver(PipelineConfig(), tick_s=tick_s)


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
        step = Receiver(PipelineConfig(), tick_s=0.5).step
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
