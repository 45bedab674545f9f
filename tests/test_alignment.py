"""Latency compensation, frame projection, and whole-instance alignment."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from coopfuse.alignment import (
    AlignmentConfig,
    FeatureAligner,
    HorizonExceeded,
    align_instance,
    compensate_latency,
    rotate_feature_pairs,
    transform_state,
    transform_states,
)
from coopfuse.association import MatchWeights, RoiSpec, associate, filter_roi
from coopfuse.core import (
    DegenerateHeading,
    Instance,
    RigidTransform,
    StateVector,
    compose,
    invert,
    micros_to_seconds,
    relative_transform,
    seconds_to_micros,
    state_rows,
)
from coopfuse.robustness import identity_embedding
from conftest import make_instance, make_state
from oracles import random_rotation, reference_pair_cost


class TestCompensateLatency:
    def test_zero_dt_is_identity(self):
        state = make_state(x=3.0, vx=7.0)
        assert compensate_latency(state, 0.0) == state

    def test_zero_velocity_is_identity(self):
        state = make_state(x=3.0)
        assert compensate_latency(state, 1.5) == state

    def test_hand_propagation(self):
        state = make_state(x=10.0, vx=2.0)
        out = compensate_latency(state, 0.5)
        assert out.x == pytest.approx(11.0, abs=1e-15)
        assert out.vx == state.vx
        assert (out.l, out.w, out.h) == (state.l, state.w, state.h)

    def test_rejects_negative_dt(self):
        with pytest.raises(ValueError):
            compensate_latency(make_state(), -0.1)

    def test_rejects_nan_dt(self):
        with pytest.raises(ValueError, match="dt must be non-negative, got nan"):
            compensate_latency(make_state(vx=1.0), math.nan)

    def test_horizon(self):
        with pytest.raises(HorizonExceeded):
            compensate_latency(make_state(), 2.5)
        compensate_latency(make_state(), 2.5, max_horizon=3.0)

    def test_composition_exact_on_dyadic_steps(self):
        # dt values with exact binary representations make the linearity exact.
        state = make_state(x=1.0, y=-2.0, vx=3.0, vy=0.5, vz=0.25)
        two_steps = compensate_latency(compensate_latency(state, 0.25), 0.5)
        one_step = compensate_latency(state, 0.75)
        assert two_steps == one_step

    def test_composition_close_on_random_steps(self, rng):
        state = make_state(x=1.0, vx=3.7, vy=-1.2)
        for _ in range(100):
            a, b = rng.uniform(0, 0.9, 2)
            lhs = compensate_latency(compensate_latency(state, a), b)
            rhs = compensate_latency(state, a + b)
            np.testing.assert_allclose(np.array(lhs), np.array(rhs), atol=1e-9)


class TestTransformState:
    def test_batch_rows_equal_per_vector_products_exactly(self, rng):
        # Each row must not depend on the rows batched with it: sensing and
        # ground truth transform whole worlds, alignment one state at a time.
        states = [
            make_state(x=x, y=y, z=z, yaw=yaw, vx=vx, vy=vy)
            for x, y, z, yaw, vx, vy in rng.uniform(-50, 50, (40, 6))
        ]
        for rotation in (RigidTransform.from_yaw(rng.uniform(-3, 3)).rotation, random_rotation(rng)):
            t = RigidTransform(rotation, rng.uniform(-100, 100, 3))
            want = []
            for s in states:
                position = (rotation @ np.array([s.x, s.y, s.z]) + t.translation).tolist()
                velocity = (rotation @ np.array([s.vx, s.vy, s.vz])).tolist()
                hx, hy, _ = (rotation @ np.array([s.cos_yaw, s.sin_yaw, 0.0])).tolist()
                norm = math.hypot(hx, hy)
                want.append([*position, s.l, s.w, s.h, hy / norm, hx / norm, *velocity])
            assert transform_states(state_rows(states), t).tolist() == want
            assert [transform_state(s, t) for s in states] == [StateVector._trusted(row) for row in want]

    def test_identity(self):
        state = make_state(x=1, y=2, z=0.5, yaw=0.3, vx=4)
        out = transform_state(state, RigidTransform.identity())
        np.testing.assert_allclose(np.array(out), np.array(state), atol=1e-15)

    def test_translation_moves_position_only(self):
        state = make_state(x=1.0, yaw=0.3, vx=4.0, vy=-1.0)
        out = transform_state(state, RigidTransform(np.eye(3), np.array([5.0, 0.0, 0.0])))
        assert out.x == pytest.approx(6.0)
        assert (out.vx, out.vy) == (state.vx, state.vy)
        assert (out.sin_yaw, out.cos_yaw) == (state.sin_yaw, state.cos_yaw)

    def test_quarter_turn(self):
        state = make_state(yaw=0.0, vx=1.0)  # heading +x, moving +x
        out = transform_state(state, RigidTransform.from_yaw(math.pi / 2))
        assert out.sin_yaw == pytest.approx(1.0)
        assert out.cos_yaw == pytest.approx(0.0, abs=1e-12)
        np.testing.assert_allclose([out.vx, out.vy, out.vz], [0.0, 1.0, 0.0], atol=1e-12)

    def test_dimensions_never_change(self, rng):
        for _ in range(50):
            state = make_state(x=2.0, yaw=0.7, vx=3.0)
            t = RigidTransform(random_rotation(rng), rng.uniform(-5, 5, 3))
            try:
                out = transform_state(state, t)
            except DegenerateHeading:
                continue
            assert (out.l, out.w, out.h) == (state.l, state.w, state.h)

    def test_forward_inverse_recovers(self, rng):
        for _ in range(200):
            state = make_state(
                x=rng.uniform(-40, 40), y=rng.uniform(-40, 40), z=rng.uniform(-2, 2),
                yaw=rng.uniform(-math.pi, math.pi),
                vx=rng.uniform(-15, 15), vy=rng.uniform(-15, 15),
            )
            t = RigidTransform.from_yaw(rng.uniform(-math.pi, math.pi), rng.uniform(-30, 30, 3))
            back = transform_state(transform_state(state, t), invert(t))
            np.testing.assert_allclose(np.array(back), np.array(state), atol=1e-9)

    def test_degenerate_heading_for_tipping_rotation(self):
        # Rotate the plane onto its side: the heading loses its xy component.
        tip = RigidTransform(
            np.array([[0.0, 0.0, 1.0], [0.0, 1.0, 0.0], [-1.0, 0.0, 0.0]]).T,
            np.zeros(3),
        )
        with pytest.raises(DegenerateHeading):
            transform_state(make_state(yaw=0.0), tip)


_ANGLE = st.floats(-math.pi, math.pi)
_STATES = st.lists(
    st.tuples(*[st.floats(-100, 100)] * 3, _ANGLE, *[st.floats(-20, 20)] * 3).map(
        lambda v: make_state(x=v[0], y=v[1], z=v[2], yaw=v[3], vx=v[4], vy=v[5], vz=v[6])
    ),
    max_size=12,
)


def _three_axis(yaw: float, pitch: float, roll: float) -> np.ndarray:
    """Rz(yaw) @ Ry(pitch) @ Rx(roll), each written out."""
    cz, sz, cy, sy, cx, sx = (f(a) for a in (yaw, pitch, roll) for f in (math.cos, math.sin))
    rz = np.array([[cz, -sz, 0.0], [sz, cz, 0.0], [0.0, 0.0, 1.0]])
    ry = np.array([[cy, 0.0, sy], [0.0, 1.0, 0.0], [-sy, 0.0, cy]])
    rx = np.array([[1.0, 0.0, 0.0], [0.0, cx, -sx], [0.0, sx, cx]])
    return rz @ ry @ rx


def _hex_rows(rows) -> list[list[str]]:
    return [[float(v).hex() for v in row] for row in rows]


class TestTransformStatesRows:
    @given(states=_STATES, angles=st.tuples(_ANGLE, _ANGLE, _ANGLE), three_axis=st.booleans(),
           translation=st.tuples(*[st.floats(-1e3, 1e3)] * 3))
    @settings(max_examples=300, deadline=None)
    def test_rows_equal_the_one_row_transform_bit_for_bit(self, states, angles, three_axis, translation):
        rotation = _three_axis(*angles) if three_axis else RigidTransform.from_yaw(angles[0]).rotation
        t = RigidTransform(rotation, np.array(translation))
        try:
            want = _hex_rows(transform_state(s, t) for s in states)
        except DegenerateHeading:
            with pytest.raises(DegenerateHeading):
                transform_states(state_rows(states), t)
            return
        rows = transform_states(state_rows(states), t)
        assert rows.shape == (len(states), 11) and rows.dtype == np.float64
        assert _hex_rows(rows.tolist()) == want

    @given(others=_STATES, yaw=_ANGLE, turn=_ANGLE, side=st.sampled_from([-1.0, 1.0]))
    @settings(max_examples=200, deadline=None)
    def test_both_raise_on_a_rotation_that_tips_the_heading_out_of_the_plane(self, others, yaw, turn, side):
        # A quarter turn about the level axis across the heading stands the heading upright
        # (Rodrigues' formula); a yaw after it keeps it upright.
        tipped = make_state(x=3.0, yaw=yaw, vx=2.0)
        k = np.array([-tipped.sin_yaw, tipped.cos_yaw, 0.0])
        cross = np.array([[0.0, -k[2], k[1]], [k[2], 0.0, -k[0]], [-k[1], k[0], 0.0]])
        c, s = math.cos(side * math.pi / 2), math.sin(side * math.pi / 2)
        tip = c * np.eye(3) + s * cross + (1.0 - c) * np.outer(k, k)
        t = RigidTransform(RigidTransform.from_yaw(turn).rotation @ tip, np.array([1.0, -2.0, 0.5]))
        with pytest.raises(DegenerateHeading):
            transform_state(tipped, t)
        with pytest.raises(DegenerateHeading):
            transform_states(state_rows([*others, tipped]), t)


class TestFeaturePairRotation:
    def test_zero_yaw_is_identity(self, rng):
        feature = rng.standard_normal(16)
        feature /= np.linalg.norm(feature)
        out = rotate_feature_pairs(feature, 0.0)
        np.testing.assert_array_equal(out, feature)
        assert out is not feature and not out.flags.writeable

    def test_preserves_unit_norm(self, rng):
        for _ in range(50):
            feature = rng.standard_normal(33)  # odd length: last coordinate rides along
            feature /= np.linalg.norm(feature)
            out = rotate_feature_pairs(feature, rng.uniform(-math.pi, math.pi))
            assert abs(np.linalg.norm(out) - 1.0) < 1e-6

    def test_full_turn_recovers(self, rng):
        feature = rng.standard_normal(8)
        feature /= np.linalg.norm(feature)
        out = rotate_feature_pairs(feature, 2 * math.pi)
        np.testing.assert_allclose(out, feature, atol=1e-12)


class TestAlignInstance:
    def _rel(self, ego_yaw=0.0, coop_xy=(0.0, 0.0), t=0):
        ego = RigidTransform.from_yaw(ego_yaw)
        coop = RigidTransform(np.eye(3), np.array([*coop_xy, 0.0]))
        return relative_transform(ego, coop)

    def test_colocated_zero_latency_is_identity(self):
        rel = self._rel()
        inst = make_instance(x=5.0, vx=10.0)
        out = align_instance(inst, rel, 0, AlignmentConfig())
        np.testing.assert_allclose(np.array(out.state), np.array(inst.state), atol=1e-12)
        np.testing.assert_array_equal(out.feature, inst.feature)
        assert out.track_id == inst.track_id
        assert out.source_agent == inst.source_agent

    def test_headline_latency_case(self):
        # 300 ms at 10 m/s advances the shared instance by exactly 3 m.
        rel = self._rel()
        inst = make_instance(x=5.0, vx=10.0, observed_at=0)
        out = align_instance(inst, rel, seconds_to_micros(0.3), AlignmentConfig())
        assert out.state.x == pytest.approx(8.0, abs=1e-12)
        assert out.observed_at == seconds_to_micros(0.3)

    def test_pure_rotation_matches_transform_state(self):
        rel = self._rel(ego_yaw=-math.pi / 2)
        inst = make_instance(yaw=0.0, vx=1.0)
        out = align_instance(inst, rel, 0, AlignmentConfig())
        assert out.state.sin_yaw == pytest.approx(1.0)
        np.testing.assert_allclose(
            [out.state.vx, out.state.vy], [0.0, 1.0], atol=1e-12
        )

    @pytest.mark.parametrize("compensate", [True, False])
    def test_state_equals_compensation_then_the_batch_transform_exactly(self, rng, compensate):
        # align_instance moves each record through a one-row body; its bits must be those of
        # the constant-velocity step (none with compensation off) followed by the batch transform.
        for k in range(200):
            rotation = random_rotation(rng) if k % 2 else RigidTransform.from_yaw(rng.uniform(-3, 3)).rotation
            rel = RigidTransform(rotation, rng.uniform(-100, 100, 3))
            x, y, yaw, vx, vy = rng.uniform(-50, 50, 5)
            inst = make_instance(x=x, y=y, z=0.7, yaw=yaw, vx=vx, vy=vy, observed_at=10_000)
            t_ego = inst.observed_at + (int(rng.integers(1, 2_000_000)) if k % 4 else 0)
            s, dt = inst.state, micros_to_seconds(t_ego - inst.observed_at) if compensate else 0.0
            moved = [s.x + s.vx * dt, s.y + s.vy * dt, s.z + s.vz * dt] if dt else [s.x, s.y, s.z]
            row = np.array([*moved, s.l, s.w, s.h, s.sin_yaw, s.cos_yaw, s.vx, s.vy, s.vz])
            want = transform_states(row[None], rel)[0]
            got = align_instance(inst, rel, t_ego, AlignmentConfig(), compensate)
            assert [getattr(got.state, n).hex() for n in StateVector._fields] == [v.hex() for v in want]
            assert got.observed_at == t_ego

    def test_rejects_future_instances(self):
        # A record stamped after t_ego is out of time order, with compensation on or off.
        rel = self._rel()
        inst = make_instance(observed_at=100)
        for compensate in (True, False):
            with pytest.raises(ValueError, match="^observed_at 100 is after t_ego 99$"):
                align_instance(inst, rel, 99, AlignmentConfig(), compensate)
            assert align_instance(inst, rel, 100, AlignmentConfig(), compensate).observed_at == 100

    def test_stale_instances_raise_horizon(self):
        rel = self._rel()
        inst = make_instance(observed_at=0)
        with pytest.raises(HorizonExceeded):
            align_instance(inst, rel, seconds_to_micros(3.0), AlignmentConfig())
        # Without compensation a record has no age to exceed the horizon: it is aligned as it was sensed.
        assert align_instance(inst, rel, seconds_to_micros(3.0), AlignmentConfig(), compensate=False).state == inst.state

    def test_identity_aligner_keeps_cosine_similarity(self, rng):
        rel = self._rel(ego_yaw=0.8, coop_xy=(12.0, -7.0))
        a = make_instance(feature_seed=1, dim=16)
        b = make_instance(feature_seed=2, dim=16)
        before = float(np.dot(a.feature, b.feature))
        cfg = AlignmentConfig(feature_aligner=FeatureAligner.IDENTITY)
        a2 = align_instance(a, rel, 0, cfg)
        b2 = align_instance(b, rel, 0, cfg)
        assert float(np.dot(a2.feature, b2.feature)) == pytest.approx(before, abs=1e-12)

    def test_yaw_conditioned_aligner_unit_norm_and_zero_yaw_identity(self):
        cfg = AlignmentConfig(feature_aligner=FeatureAligner.YAW_CONDITIONED)
        rel = self._rel(ego_yaw=0.0, coop_xy=(3.0, 4.0))  # zero relative yaw
        inst = make_instance(feature_seed=3, dim=16)
        out = align_instance(inst, rel, 0, cfg)
        np.testing.assert_allclose(out.feature, inst.feature, atol=1e-12)
        rotated = align_instance(inst, self._rel(ego_yaw=1.0, coop_xy=(3.0, 4.0)), 0, cfg)
        assert abs(np.linalg.norm(rotated.feature) - 1.0) < 1e-6
        assert not np.allclose(rotated.feature, inst.feature)
        assert not out.feature.flags.writeable and not rotated.feature.flags.writeable

    def test_never_alters_dimensions(self, rng):
        cfg = AlignmentConfig()
        for _ in range(50):
            ego = RigidTransform.from_yaw(rng.uniform(-3, 3), rng.uniform(-20, 20, 3))
            coop = RigidTransform.from_yaw(rng.uniform(-3, 3), rng.uniform(-20, 20, 3))
            inst = make_instance(x=rng.uniform(-10, 10), vx=rng.uniform(-10, 10))
            rel = relative_transform(ego, coop)
            out = align_instance(inst, rel, seconds_to_micros(rng.uniform(0, 1)), cfg)
            state = out.state
            assert (state.l, state.w, state.h) == (inst.state.l, inst.state.w, inst.state.h)


_ANGLE = st.floats(-math.pi, math.pi)
_POSE = st.tuples(_ANGLE, st.floats(-60, 60), st.floats(-60, 60))
_OBJECT = st.tuples(st.floats(-40, 40), st.floats(-40, 40), _ANGLE, st.floats(-10, 10), st.floats(-10, 10))
_OFFSET = st.none() | st.tuples(st.floats(-3, 3), st.floats(-3, 3))  # None: the sender misses it


def _seen_by(state, pose, object_id, source_agent, observed_at):
    return Instance(
        state=transform_state(state, invert(pose)),
        feature=identity_embedding(object_id, 8),
        confidence=0.9,
        class_id=0,
        track_id=object_id,
        source_agent=source_agent,
        observed_at=observed_at,
    )


class TestRigidMotionInvariance:
    """Moving the ego, the sender and every object by one rigid motion moves
    nothing the ego computes in its own frame."""

    ROI = RoiSpec()
    R_INT = 30.0
    WEIGHTS = MatchWeights()

    def _receive(self, objects, ego_pose, coop_pose, offsets, t_ego):
        ego = [_seen_by(s, ego_pose, k, 0, t_ego) for k, s in enumerate(objects)]
        coop = []
        for k, (s, offset) in enumerate(zip(objects, offsets)):
            if offset is not None:
                inst = _seen_by(s, coop_pose, k, 1, 0)
                coop.append(replace(inst, state=inst.state._replace(x=inst.state.x + offset[0],
                                                                y=inst.state.y + offset[1])))
        rel = relative_transform(ego_pose, coop_pose)
        aligned = [align_instance(inst, rel, t_ego, AlignmentConfig()) for inst in coop]
        return ego, aligned, associate(ego, filter_roi(aligned, self.ROI), self.R_INT, self.WEIGHTS)

    def _clear_of_boundaries(self, ego, aligned):
        # Rounding moves values by ~1e-13; keep every decision far from a tie.
        for inst in ego + aligned:
            assume(abs(math.hypot(inst.state.x, inst.state.y) - self.R_INT) > 1e-6)
        for inst in aligned:
            assume(abs(abs(inst.state.x) - self.ROI.x_half) > 1e-6)
            assume(abs(abs(inst.state.y) - self.ROI.y_half) > 1e-6)
        for e in ego:
            for c in aligned:
                assume(abs(reference_pair_cost(e, c, self.WEIGHTS) - self.WEIGHTS.cost_threshold) > 1e-6)

    @settings(max_examples=200, deadline=None)
    @given(
        objects=st.lists(_OBJECT, min_size=1, max_size=6),
        offsets=st.lists(_OFFSET, min_size=6, max_size=6),
        ego=_POSE,
        coop=_POSE,
        motion=_POSE,
        t_ego=st.integers(0, 1_000_000),
    )
    def test_matches_and_ego_frame_states_are_unchanged(self, objects, offsets, ego, coop, motion, t_ego):
        def pose(yaw, x, y):
            return RigidTransform.from_yaw(yaw, (x, y, 0.0))

        states = [make_state(x=x, y=y, yaw=yaw, vx=vx, vy=vy) for x, y, yaw, vx, vy in objects]
        g = pose(*motion)
        base = self._receive(states, pose(*ego), pose(*coop), offsets, t_ego)
        self._clear_of_boundaries(*base[:2])
        moved = self._receive(
            [transform_state(s, g) for s in states], compose(g, pose(*ego)), compose(g, pose(*coop)), offsets, t_ego
        )

        def groups(result):
            return (
                [(e.track_id, c.track_id) for e, c, _ in result.matched],
                [[i.track_id for i in group] for group in (result.unmatched_ego, result.unmatched_coop_near,
                                                           result.coop_far)],
            )

        assert groups(moved[2]) == groups(base[2])
        for a, b in zip(base[0] + base[1], moved[0] + moved[1]):
            np.testing.assert_allclose(np.array(b.state), np.array(a.state), rtol=0, atol=1e-9)
