"""Pair fusion, track smoothing, duplicate suppression, output assembly."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coopfuse.core import DegenerateHeading
from coopfuse.fusion import (
    COOP_TRACK_FLAG,
    FusionConfig,
    TrackIdRegistry,
    TrackSet,
    assemble_output,
    coarse_fuse,
    deduplicate,
    refine_tracks,
)
from conftest import make_instance
from oracles import reference_deduplicate

_HALF = st.integers(-6, 6).map(lambda v: v / 2)


class TestCoarseFuse:
    def test_idempotent_on_identical_inputs(self):
        a = make_instance(x=3.0, confidence=0.8, feature_seed=4)
        b = make_instance(x=3.0, confidence=0.8, feature_seed=4)
        out = coarse_fuse(a, b)
        np.testing.assert_allclose(out.state.as_array(), a.state.as_array(), atol=1e-12)
        np.testing.assert_allclose(out.feature, a.feature, atol=1e-12)

    def test_equal_confidence_averages(self):
        a = make_instance(x=10.0, confidence=0.7, feature_seed=4)
        b = make_instance(x=12.0, confidence=0.7, feature_seed=4)
        assert coarse_fuse(a, b).state.x == pytest.approx(11.0)

    def test_confidence_weighted_average(self):
        a = make_instance(x=10.0, confidence=0.9, feature_seed=4)
        b = make_instance(x=20.0, confidence=0.1, feature_seed=4)
        assert coarse_fuse(a, b).state.x == pytest.approx(11.0)

    def test_output_position_is_convex_combination(self, rng):
        for _ in range(50):
            a = make_instance(x=rng.uniform(-5, 5), y=rng.uniform(-5, 5),
                              confidence=rng.uniform(0.1, 1.0), feature_seed=1)
            b = make_instance(x=rng.uniform(-5, 5), y=rng.uniform(-5, 5),
                              confidence=rng.uniform(0.1, 1.0), feature_seed=2)
            out = coarse_fuse(a, b)
            for axis in ("x", "y", "z", "l", "w", "h"):
                lo = min(getattr(a.state, axis), getattr(b.state, axis))
                hi = max(getattr(a.state, axis), getattr(b.state, axis))
                assert lo - 1e-12 <= getattr(out.state, axis) <= hi + 1e-12

    def test_symmetric_except_bookkeeping(self):
        a = make_instance(x=1.0, confidence=0.6, track_id=1, feature_seed=1)
        b = make_instance(x=4.0, confidence=0.8, track_id=9, source_agent=2, feature_seed=2)
        ab, ba = coarse_fuse(a, b), coarse_fuse(b, a)
        np.testing.assert_allclose(ab.state.as_array(), ba.state.as_array(), atol=1e-12)
        np.testing.assert_allclose(ab.feature, ba.feature, atol=1e-12)
        assert ab.confidence == ba.confidence
        assert ab.track_id == 1 and ba.track_id == 9
        assert ab.source_agent == 0 and ba.source_agent == 2

    def test_keeps_ego_identity_fields(self):
        a = make_instance(track_id=7, class_id=1, confidence=0.5, feature_seed=1)
        b = make_instance(track_id=3, class_id=1, confidence=0.9, source_agent=4, feature_seed=2)
        out = coarse_fuse(a, b)
        assert out.track_id == 7
        assert out.source_agent == 0
        assert out.confidence == pytest.approx(0.9)  # max rule

    def test_noisy_or_confidence(self):
        a = make_instance(confidence=0.5, feature_seed=1)
        b = make_instance(confidence=0.5, feature_seed=1)
        assert coarse_fuse(a, b, "noisy_or").confidence == pytest.approx(0.75)

    def test_heading_fuses_as_vectors(self):
        a = make_instance(yaw=0.0, confidence=0.5, feature_seed=1)
        b = make_instance(yaw=math.pi / 2, confidence=0.5, feature_seed=1)
        out = coarse_fuse(a, b)
        assert out.state.yaw == pytest.approx(math.pi / 4)

    def test_blended_feature_is_the_normalized_weighted_average(self):
        a = make_instance(confidence=0.9, feature_seed=1)
        b = make_instance(confidence=0.3, feature_seed=2)
        w_ego = 0.9 / (0.9 + 0.3)
        blended = w_ego * a.feature + (1.0 - w_ego) * b.feature
        out = coarse_fuse(a, b)
        assert out.feature.tobytes() == (blended / np.linalg.norm(blended)).tobytes()
        assert not out.feature.flags.writeable

    def test_cancelling_features_keep_the_ego_feature(self):
        a = make_instance(confidence=0.5, dim=4, feature=np.array([1.0, 0.0, 0.0, 0.0]))
        b = make_instance(confidence=0.5, dim=4, feature=np.array([-1.0, 0.0, 0.0, 0.0]))
        assert coarse_fuse(a, b).feature is a.feature

    def test_opposed_headings_degenerate(self):
        a = make_instance(yaw=0.0, confidence=0.5, feature_seed=1)
        b = make_instance(yaw=math.pi, confidence=0.5, feature_seed=1)
        with pytest.raises(DegenerateHeading):
            coarse_fuse(a, b)


def _track_set(instances, t=0):
    return TrackSet(timestamp=t, instances=tuple(instances))


class TestRefineTracks:
    cfg = FusionConfig(smoothing_gain_pos=0.6, smoothing_gain_vel=0.4)

    def test_hand_alpha_beta_update(self):
        previous = _track_set([make_instance(x=0.0, vx=10.0, track_id=1, feature_seed=1)])
        current = _track_set([make_instance(x=6.0, vx=10.0, track_id=1, feature_seed=1)], t=500_000)
        out = refine_tracks(current, previous, 0.5, self.cfg)
        assert out.instances[0].state.x == pytest.approx(5.6)
        assert out.instances[0].state.vx == pytest.approx(10.8)

    def test_unit_position_gain_keeps_observed_position(self):
        cfg = FusionConfig(smoothing_gain_pos=1.0, smoothing_gain_vel=1.0)
        previous = _track_set([make_instance(x=0.0, vx=4.0, track_id=1, feature_seed=1)])
        current = _track_set([make_instance(x=3.0, vx=4.0, track_id=1, feature_seed=1)], t=500_000)
        out = refine_tracks(current, previous, 0.5, cfg)
        assert out.instances[0].state.x == pytest.approx(3.0)

    def test_zero_innovation_is_identity(self):
        # Exact constant-velocity observations are a fixed point for any gains.
        previous = _track_set([make_instance(x=1.0, vx=8.0, track_id=1, feature_seed=1)])
        current = _track_set([make_instance(x=5.0, vx=8.0, track_id=1, feature_seed=1)], t=500_000)
        out = refine_tracks(current, previous, 0.5, self.cfg)
        assert out.instances[0].state.x == pytest.approx(5.0, abs=1e-12)
        assert out.instances[0].state.vx == pytest.approx(8.0, abs=1e-12)

    def test_new_tracks_pass_through(self):
        previous = _track_set([])
        current = _track_set([make_instance(x=2.0, track_id=5, feature_seed=1)])
        out = refine_tracks(current, previous, 0.5, self.cfg)
        assert out.instances == current.instances


class TestDeduplicate:
    def test_well_separated_unchanged_as_set(self):
        instances = [make_instance(x=0.0, track_id=1, feature_seed=1),
                     make_instance(x=5.0, track_id=2, feature_seed=2)]
        assert set(map(id, deduplicate(instances, 1.0))) == set(map(id, instances))

    def test_weak_duplicate_suppressed(self):
        strong = make_instance(x=0.0, confidence=0.9, track_id=1, feature_seed=1)
        weak = make_instance(x=0.5, confidence=0.4, track_id=2, feature_seed=2)
        assert deduplicate([weak, strong], 1.0) == [strong]

    def test_duplicate_at_the_radius_past_a_rounded_window_edge(self):
        # -3.7 + 2.0 rounds below -1.7, yet the two lie exactly 2.0 apart.
        strong = make_instance(x=-1.7, confidence=0.9, track_id=1, feature_seed=1)
        weak = make_instance(x=-3.7, confidence=0.4, track_id=2, feature_seed=2)
        assert deduplicate([weak, strong], 2.0) == [strong]

    def test_class_scoped(self):
        a = make_instance(x=0.0, class_id=0, track_id=1, feature_seed=1)
        b = make_instance(x=0.5, class_id=1, track_id=2, feature_seed=2)
        assert len(deduplicate([a, b], 1.0)) == 2

    def test_idempotent_and_never_grows(self, rng):
        for _ in range(30):
            instances = [
                make_instance(x=rng.uniform(-3, 3), y=rng.uniform(-3, 3),
                              confidence=rng.uniform(0.1, 1.0), track_id=i, feature_seed=i)
                for i in range(8)
            ]
            once = deduplicate(instances, 1.0)
            assert len(once) <= len(instances)
            assert deduplicate(once, 1.0) == once

    def test_survivors_pairwise_separated(self, rng):
        instances = [
            make_instance(x=rng.uniform(-2, 2), y=rng.uniform(-2, 2),
                          confidence=rng.uniform(0.1, 1.0), track_id=i, feature_seed=i)
            for i in range(10)
        ]
        kept = deduplicate(instances, 1.0)
        for i, a in enumerate(kept):
            for b in kept[i + 1:]:
                if a.class_id == b.class_id:
                    assert math.hypot(a.state.x - b.state.x, a.state.y - b.state.y) > 1.0

    @given(
        items=st.lists(
            st.tuples(_HALF, _HALF, st.sampled_from([0.3, 0.6, 0.9]), st.integers(0, 1)), max_size=12
        ),
        radius=st.sampled_from([0.5, 1.0, 2.5]),
    )
    @settings(max_examples=300, deadline=None)
    def test_equals_reference(self, items, radius):
        # Half-metre positions and three confidence levels give equal
        # confidences, exact ties and distances equal to the radius.
        instances = [
            make_instance(x=x, y=y, confidence=conf, class_id=cls, track_id=i, feature_seed=i)
            for i, (x, y, conf, cls) in enumerate(items)
        ]
        kept = deduplicate(instances, radius)
        assert [inst.track_id for inst in kept] == reference_deduplicate(items, radius)


class TestTrackIdRegistry:
    def test_fresh_ids_are_distinct_for_every_u16_agent(self):
        # Agents a and a + 32768 differ only in the bit an or would share with COOP_TRACK_FLAG.
        registry = TrackIdRegistry()
        agents = [0, 1, 2, 32767, 32768, 32769, 32770, 65535]
        ids = [registry.resolve(agent, track, set()) for agent in agents for track in range(3)]
        assert len(set(ids)) == len(ids)
        assert min(ids) >= COOP_TRACK_FLAG  # above every ego tracker ID
        # Below agent 32768 the sum is the bitwise or, so those IDs did not change.
        assert ids[3 * agents.index(32767) + 2] == COOP_TRACK_FLAG | (32767 << 48) | 2


class TestAssembleOutput:
    cfg = FusionConfig(dedup_radius=1.0, output_confidence_threshold=0.3)

    def test_all_empty(self):
        out = assemble_output([], [], [], [], self.cfg, TrackIdRegistry(), 0)
        assert out.instances == ()

    def test_fused_plus_far_coop(self):
        fused = make_instance(x=0.0, track_id=3, feature_seed=1)
        far = make_instance(x=40.0, track_id=9, source_agent=2, feature_seed=2)
        out = assemble_output([fused], [], [], [far], self.cfg, TrackIdRegistry(), 0)
        assert len(out.instances) == 2
        ids = {inst.track_id for inst in out.instances}
        assert 3 in ids
        coop_id = next(iter(ids - {3}))
        assert coop_id & COOP_TRACK_FLAG
        assert (coop_id >> 48) & 0x7FFF == 2

    def test_cross_group_dedup(self):
        ego_only = make_instance(x=0.0, confidence=0.9, track_id=1, feature_seed=1)
        coop_far = make_instance(x=0.4, confidence=0.8, track_id=7, source_agent=1, feature_seed=2)
        out = assemble_output([], [ego_only], [], [coop_far], self.cfg, TrackIdRegistry(), 0)
        assert len(out.instances) == 1
        assert out.instances[0].track_id == 1

    def test_confidence_threshold_applied_after_dedup(self):
        weak = make_instance(confidence=0.2, track_id=1, feature_seed=1)
        out = assemble_output([], [weak], [], [], self.cfg, TrackIdRegistry(), 0)
        assert out.instances == ()

    def test_coop_ids_stable_across_frames(self):
        registry = TrackIdRegistry()
        coop = make_instance(x=40.0, track_id=9, source_agent=1, feature_seed=1)
        first = assemble_output([], [], [], [coop], self.cfg, registry, 0)
        second = assemble_output([], [], [], [coop], self.cfg, registry, 500_000)
        assert first.instances[0].track_id == second.instances[0].track_id

    def test_matched_history_reuses_ego_id(self):
        registry = TrackIdRegistry()
        registry.record_match(source_agent=1, coop_track_id=9, ego_track_id=42)
        coop = make_instance(x=10.0, track_id=9, source_agent=1, feature_seed=1)
        out = assemble_output([], [], [coop], [], self.cfg, registry, 0)
        assert out.instances[0].track_id == 42

    def test_alias_collision_falls_back_to_namespaced_id(self):
        registry = TrackIdRegistry()
        registry.record_match(source_agent=1, coop_track_id=9, ego_track_id=42)
        ego = make_instance(x=0.0, track_id=42, feature_seed=1)
        coop = make_instance(x=10.0, track_id=9, source_agent=1, feature_seed=2)
        out = assemble_output([], [ego], [coop], [], self.cfg, registry, 0)
        ids = [inst.track_id for inst in out.instances]
        assert len(ids) == len(set(ids)) == 2
        assert 42 in ids


class TestTrackSet:
    def test_requires_ids(self):
        with pytest.raises(ValueError):
            TrackSet(0, (make_instance(track_id=None, feature_seed=1),))

    def test_rejects_duplicate_ids(self):
        with pytest.raises(ValueError):
            TrackSet(
                0,
                (make_instance(track_id=1, feature_seed=1),
                 make_instance(x=5.0, track_id=1, feature_seed=2)),
            )
