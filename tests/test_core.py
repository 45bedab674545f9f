"""Core algebra: headings, state vectors, rigid transforms, relative poses."""

import math
import pickle

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from coopfuse.core import (
    ROTATION_TOL,
    DegenerateHeading,
    Instance,
    RigidTransform,
    StateVector,
    _orthonormalized,
    compose,
    greedy_nearest,
    invert,
    nearest,
    normalize_feature,
    normalize_heading,
    pairs_within,
    relative_transform,
    state_rows,
)
from conftest import make_state
from oracles import (
    brute_force_greedy_match, random_rotation, reference_nearest, reference_orthonormalized, reference_pairs,
)


class TestNormalizeHeading:
    def test_pure_rescale(self):
        assert normalize_heading(0.0, 2.0) == (0.0, 1.0)

    def test_three_four_five(self):
        s, c = normalize_heading(3.0, 4.0)
        assert s == pytest.approx(0.6, abs=1e-15)
        assert c == pytest.approx(0.8, abs=1e-15)

    def test_degenerate(self):
        with pytest.raises(DegenerateHeading):
            normalize_heading(0.0, 0.0)

    def test_idempotent_exactly(self, rng):
        for _ in range(200):
            s, c = normalize_heading(rng.uniform(-5, 5), rng.uniform(-5, 5))
            assert normalize_heading(s, c) == (s, c)

    def test_direction_preserved(self):
        s, c = normalize_heading(-3.0, -4.0)
        assert s < 0 and c < 0


class TestStateVector:
    def test_rejects_nonpositive_dimensions(self):
        with pytest.raises(ValueError):
            make_state(l=0.0)

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            make_state(x=math.nan)

    def test_rejects_non_unit_heading(self):
        with pytest.raises(ValueError):
            StateVector(0, 0, 0, 4, 2, 1.5, 0.5, 0.5, 0, 0, 0)

    def test_yaw_accessor(self):
        assert make_state(yaw=0.7).yaw == pytest.approx(0.7)

    def test_numpy_scalars_become_plain_floats(self):
        values = [np.float64(1.5), np.float32(2.0), 0, 4, 2, 1.5, 0.0, np.float64(1.0), 3, 0.5, 0.0]
        state = StateVector(*values)
        assert [type(getattr(state, name)) for name in StateVector._fields] == [float] * 11
        assert state.as_array().tolist() == [float(v) for v in values]

    def test_repr_keeps_the_field_by_field_format(self):
        # The benchmark's crowd digest hashes this repr.
        state = StateVector(1.5, -2, -0.0, 4, 2, 1.5, 0.6, 0.8, 3, 0.25, 0)
        assert repr(state) == (
            "StateVector(x=1.5, y=-2.0, z=-0.0, l=4.0, w=2.0, h=1.5, "
            "sin_yaw=0.6, cos_yaw=0.8, vx=3.0, vy=0.25, vz=0.0)"
        )

    def test_equality_and_hash_are_by_value(self):
        values = (1.5, -2.0, 0.0, 4.0, 2.0, 1.5, 0.6, 0.8, 3.0, 0.25, 0.0)
        a, b = StateVector(*values), StateVector(*values)
        assert a is not b and a == b and hash(a) == hash(b)
        assert a == values and len({a, b}) == 1
        assert a != make_state(x=1.0)

    def test_pickle_round_trip_is_bit_exact(self):
        state = make_state(x=0.1, y=-0.0, yaw=0.3, vx=1e-300)
        back = pickle.loads(pickle.dumps(state))
        assert type(back) is StateVector
        assert [v.hex() for v in back] == [v.hex() for v in state]

    def test_trusted_builds_without_checks(self):
        values = [math.nan, 0.0, 0.0, -1.0, 2.0, 1.5, 0.5, 0.5, 0.0, 0.0, 0.0]
        state = StateVector._trusted(values)
        assert type(state) is StateVector
        assert state.l == -1.0 and math.isnan(state.x)


class TestInstance:
    def test_rejects_non_unit_feature(self):
        with pytest.raises(ValueError):
            Instance(make_state(), np.ones(4), 0.5, 0, None, 0, 0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf], ids=["nan", "inf"])
    def test_rejects_non_finite_feature(self, bad):
        with pytest.raises(ValueError):
            Instance(make_state(), np.array([bad, 0.0, 0.0, 0.0]), 0.5, 0, None, 0, 0)

    def test_rejects_bad_confidence(self):
        feature = np.zeros(4)
        feature[0] = 1.0
        with pytest.raises(ValueError):
            Instance(make_state(), feature, 1.5, 0, None, 0, 0)

    def test_feature_is_read_only(self):
        feature = np.zeros(4)
        feature[0] = 1.0
        inst = Instance(make_state(), feature, 0.5, 0, None, 0, 0)
        with pytest.raises(ValueError):
            inst.feature[0] = 0.0


class TestRigidTransform:
    def test_rejects_non_orthonormal(self):
        with pytest.raises(ValueError):
            RigidTransform(np.eye(3) * 2.0, np.zeros(3))

    def test_rejects_reflection(self):
        mirror = np.diag([1.0, 1.0, -1.0])
        with pytest.raises(ValueError):
            RigidTransform(mirror, np.zeros(3))

    def test_rejects_nan_rotation(self):
        with pytest.raises(ValueError):
            RigidTransform(np.full((3, 3), np.nan), np.zeros(3))

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_rejects_a_non_finite_rotation_entry(self, bad):
        # inf times the zeros beside it would make R R^T warn, which the suite raises.
        rotation = np.eye(3)
        rotation[0, 0] = bad
        with pytest.raises(ValueError, match="not orthonormal"):
            RigidTransform(rotation, np.zeros(3))

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_rejects_non_finite_translation(self, bad):
        with pytest.raises(ValueError):
            RigidTransform(np.eye(3), np.array([0.0, bad, 0.0]))

    def test_rejects_nan_yaw(self):
        with pytest.raises(ValueError):
            RigidTransform.from_yaw(float("nan"))


    @given(
        seed=st.integers(0, 2**32 - 1),
        kind=st.sampled_from(["rotation", "reflection", 1e-6, 1e-8, 1e-11, "nan", "inf"]),
    )
    @settings(max_examples=300, deadline=None)
    def test_accepts_exactly_what_the_numpy_checks_accept(self, seed, kind):
        # A float kind scales a rotation to that drift; NaN and inf go in one random entry.
        rng = np.random.default_rng(seed)
        rotation = random_rotation(rng)
        if kind == "reflection":
            rotation[:, rng.integers(3)] *= -1.0
        elif kind in ("nan", "inf"):
            rotation[tuple(rng.integers(3, size=2))] = np.nan if kind == "nan" else rng.choice([np.inf, -np.inf])
        elif kind != "rotation":
            rotation *= math.sqrt(1.0 + kind)
        with np.errstate(invalid="ignore"):
            drift = np.abs(rotation @ rotation.T - np.eye(3)).max()
            det_err = abs(np.linalg.det(rotation) - 1.0)
        assume(not abs(drift - ROTATION_TOL) <= 1e-12 and not abs(det_err - ROTATION_TOL) <= 1e-12)
        accepted = drift <= ROTATION_TOL and det_err <= ROTATION_TOL
        try:
            RigidTransform(rotation, np.zeros(3))
        except ValueError:
            assert not accepted
        else:
            assert accepted


class TestOrthonormalized:
    @given(seed=st.integers(0, 2**32 - 1), wobble=st.sampled_from([0.0, 1e-6, 1e-3]))
    @settings(max_examples=500, deadline=None)
    def test_equals_the_reference_bit_for_bit_after_f32(self, seed, wobble):
        # A header rotation as decode sees it: a near-rotation quantized to f32, then widened.
        rng = np.random.default_rng(seed)
        matrix = (random_rotation(rng) + wobble * rng.standard_normal((3, 3))).astype(np.float32).astype(np.float64)
        assert _orthonormalized(matrix).tobytes() == reference_orthonormalized(matrix).tobytes()


class TestComposeInvert:
    def test_identity_law(self):
        t = RigidTransform.from_yaw(0.4, (1.0, 2.0, 3.0))
        out = compose(RigidTransform.identity(), t)
        np.testing.assert_allclose(out.rotation, t.rotation, atol=1e-15)
        np.testing.assert_allclose(out.translation, t.translation, atol=1e-15)

    def test_inverse_law(self):
        t = RigidTransform.from_yaw(1.1, (4.0, -2.0, 0.5))
        out = compose(t, invert(t))
        np.testing.assert_allclose(out.rotation, np.eye(3), atol=1e-9)
        np.testing.assert_allclose(out.translation, np.zeros(3), atol=1e-9)

    def test_two_half_turns_make_a_quarter(self):
        eighth = RigidTransform.from_yaw(math.pi / 4)
        quarter = compose(eighth, eighth)
        np.testing.assert_allclose(
            quarter.rotation, RigidTransform.from_yaw(math.pi / 2).rotation, atol=1e-12
        )

    def test_invert_identity(self):
        out = invert(RigidTransform.identity())
        np.testing.assert_allclose(out.rotation, np.eye(3), atol=1e-15)
        np.testing.assert_allclose(out.translation, np.zeros(3), atol=1e-15)

    def test_invert_translation_only(self):
        out = invert(RigidTransform(np.eye(3), np.array([1.0, 2.0, 3.0])))
        np.testing.assert_allclose(out.translation, [-1.0, -2.0, -3.0], atol=1e-15)

    def test_invert_yaw_with_translation(self):
        # +90 yaw and +x offset inverts to -90 yaw and +y offset.
        t = RigidTransform.from_yaw(math.pi / 2, (1.0, 0.0, 0.0))
        out = invert(t)
        np.testing.assert_allclose(
            out.rotation, RigidTransform.from_yaw(-math.pi / 2).rotation, atol=1e-12
        )
        np.testing.assert_allclose(out.translation, [0.0, 1.0, 0.0], atol=1e-12)

    def test_associative_and_involutive_on_random_transforms(self, rng):
        for _ in range(200):
            a, b, c = (
                RigidTransform(random_rotation(rng), rng.uniform(-20, 20, 3))
                for _ in range(3)
            )
            left = compose(compose(a, b), c)
            right = compose(a, compose(b, c))
            np.testing.assert_allclose(left.rotation, right.rotation, atol=1e-9)
            np.testing.assert_allclose(left.translation, right.translation, atol=1e-9)
            twice = invert(invert(a))
            np.testing.assert_allclose(twice.rotation, a.rotation, atol=1e-9)
            np.testing.assert_allclose(twice.translation, a.translation, atol=1e-9)


class TestOwnership:
    """A derived transform keeps the arrays it is built from, read-only; the public constructor copies."""

    def test_derived_transforms_hold_read_only_arrays(self):
        a, b = RigidTransform.from_yaw(0.4, (1.0, 2.0, 3.0)), RigidTransform.from_yaw(-1.2, (0.5, 0.0, -4.0))
        for t in (compose(a, b), invert(a), RigidTransform.identity()):
            for array in (t.rotation, t.translation):
                assert not array.flags.writeable
                with pytest.raises(ValueError, match="read-only"):
                    array[0] = 7.0

    def test_invert_keeps_the_transposed_rotation_without_a_copy(self):
        t = RigidTransform.from_yaw(0.4, (1.0, 2.0, 3.0))
        assert invert(t).rotation.base is t.rotation

    def test_the_public_constructor_copies(self):
        rotation, translation = np.eye(3), np.array([1.0, 2.0, 3.0])
        t = RigidTransform(rotation, translation)
        assert rotation.flags.writeable and translation.flags.writeable
        assert not np.shares_memory(t.rotation, rotation) and not np.shares_memory(t.translation, translation)
        rotation[0, 0], translation[0] = 5.0, 9.0
        assert t.rotation[0, 0] == 1.0 and t.translation[0] == 1.0


class TestRelativeTransform:
    def test_same_pose_gives_identity(self):
        pose = RigidTransform.from_yaw(0.3, (5.0, 6.0, 0.0))
        rel = relative_transform(pose, pose)
        np.testing.assert_allclose(rel.rotation, np.eye(3), atol=1e-12)
        np.testing.assert_allclose(rel.translation, np.zeros(3), atol=1e-12)

    def test_pure_offset(self):
        ego = RigidTransform.identity()
        coop = RigidTransform(np.eye(3), np.array([10.0, 0.0, 0.0]))
        rel = relative_transform(ego, coop)
        np.testing.assert_allclose(rel.translation, [10.0, 0.0, 0.0], atol=1e-15)

    def test_rotated_ego(self):
        # Ego faces +y (world); a remote agent 10 m east sits to the ego's right.
        ego = RigidTransform.from_yaw(math.pi / 2)
        coop = RigidTransform(np.eye(3), np.array([10.0, 0.0, 0.0]))
        rel = relative_transform(ego, coop)
        np.testing.assert_allclose(
            rel.rotation, RigidTransform.from_yaw(-math.pi / 2).rotation, atol=1e-12
        )
        np.testing.assert_allclose(rel.translation, [0.0, -10.0, 0.0], atol=1e-12)

    def test_swap_composes_to_identity(self, rng):
        for _ in range(100):
            ego = RigidTransform(random_rotation(rng), rng.uniform(-30, 30, 3))
            coop = RigidTransform(random_rotation(rng), rng.uniform(-30, 30, 3))
            round_trip = compose(relative_transform(ego, coop), relative_transform(coop, ego))
            np.testing.assert_allclose(round_trip.rotation, np.eye(3), atol=1e-9)
            np.testing.assert_allclose(round_trip.translation, np.zeros(3), atol=1e-9)


def _sides(queries, refs):
    """``pairs_within``'s positions and classes of each side's ``(x, y, class_id)`` points."""
    return [arg for side in (queries, refs)
            for arg in (np.array([p[:2] for p in side], dtype=float).reshape(-1, 2), np.array([p[2] for p in side]))]


# Points on a half-metre grid, of two classes: exact distance ties and pairs exactly at a radius abound.
GRID_POINTS = st.lists(st.tuples(*[st.integers(-6, 6).map(lambda v: v / 2)] * 2, st.integers(0, 1)), max_size=8)
GRID_RADII = st.integers(0, 8).map(lambda v: v / 2)


class TestNeighbours:
    def test_pair_at_the_radius_past_a_rounded_window_edge(self):
        # -3.7 + 2.0 rounds to -1.7000000000000002, below the query at -1.7,
        # yet -1.7 - -3.7 is exactly 2.0: a window of x + radius misses it.
        assert pairs_within(*_sides([(-1.7, 0.0, 0)], [(-3.7, 0.0, 0)]), 2.0) == [(0, 0, 2.0)]

    def test_rows_by_ref_index_and_class(self):
        refs = [(3.0, 0.0, 0), (0.0, 1.0, 0), (0.0, 0.0, 1), (-1.0, 0.0, 0)]
        pairs = pairs_within(*_sides([(0.0, 0.0, 0), (9.0, 9.0, 0)], refs), 3.0)
        assert pairs == [(0, 0, 3.0), (0, 1, 1.0), (0, 3, 1.0)]

    def test_greedy_takes_the_later_of_tied_candidates(self):
        pairs = [(0, 0, 1.0), (0, 1, 1.0), (0, 2, 0.5), (1, 0, 1.0), (1, 1, 1.0), (2, 1, 0.2), (3, 0, 2.0)]
        assert greedy_nearest(pairs, 5, 1.5) == [(2, 0.5), (1, 1.0), None, None, None]

    @settings(max_examples=300, deadline=None)
    @given(GRID_POINTS, GRID_POINTS, GRID_RADII, GRID_RADII)
    def test_pairs_and_picks_equal_brute_force(self, queries, refs, radius, limit):
        limit, radius = sorted((radius, limit))
        pairs = pairs_within(*_sides(queries, refs), radius)
        assert pairs == reference_pairs(queries, refs, radius)
        # Equal confidences: the brute-force matcher visits the queries in order.
        matched, _, _ = brute_force_greedy_match(
            [(x, y, 1.0, c, None) for x, y, c in queries], [(k, x, y, c) for k, (x, y, c) in enumerate(refs)], limit
        )
        expected = [None] * len(queries)
        for i, k, d in matched:
            expected[i] = (k, d)
        assert greedy_nearest(pairs, len(queries), limit) == expected


# Half-metre coordinates (x ties, duplicate points and 3-4-5 distances abound) or arbitrary ones, whose differences round.
COORDS = st.one_of(st.integers(-6, 6).map(lambda v: v / 2), st.floats(-100, 100))


class TestNearest:
    def test_a_point_past_a_rounded_window_edge(self):
        # -1.7 - -3.7 is exactly 2.0 though -3.7 + 2.0 rounds below -1.7: the search compares the rounded difference.
        assert nearest([(-3.7, 0.0)], -1.7, 0.0, 2.0) == 2.0

    @settings(max_examples=500, deadline=None)
    @given(st.lists(st.tuples(COORDS, COORDS), max_size=10), COORDS, COORDS,
           st.one_of(GRID_RADII, st.just(math.inf)), st.booleans())
    @example([], 0.0, 0.0, math.inf, False)  # an empty column
    @example([], 0.0, 0.0, 1.0, False)
    @example([(3.0, 4.0), (3.0, 4.0), (3.0, -4.0), (-3.0, 4.0)], 0.0, 0.0, 5.0, False)  # x ties, duplicates, at limit
    @example([(0.5, 9.0), (0.5, 0.0), (0.5, 1.0)], 0.0, 0.0, math.inf, False)  # the nearest behind a tie in x
    def test_equals_brute_force_up_to_the_limit(self, points, x, y, limit, limit_at_a_point):
        if limit_at_a_point and points:  # a point exactly at the limit
            limit = math.hypot(x - points[0][0], y - points[0][1])
        got, want = nearest(sorted(points), x, y, limit), reference_nearest(points, x, y)
        assert got == want if want <= limit else got > limit

    @settings(max_examples=500, deadline=None)
    @given(st.floats(allow_nan=False), st.floats(allow_nan=False))
    @example(1e308, 1e308)
    @example(5e-324, 5e-324)
    def test_hypot_is_at_least_either_leg(self, dx, dy):
        # What nearest, dedup and the prefusion error rest on: a point's |dx| bounds its distance from below.
        assert math.hypot(dx, dy) >= max(abs(dx), abs(dy))


class TestNormalizeFeature:
    def test_equals_division_by_numpy_norm_and_is_read_only(self, rng):
        for values in (rng.standard_normal(33), rng.standard_normal(8) * 1e150, [3.0, 4.0]):
            out = normalize_feature(values)
            assert out.tobytes() == (np.asarray(values) / np.linalg.norm(values)).tobytes()
            assert not out.flags.writeable

    def test_each_row_of_a_matrix_equals_its_vector(self, rng):
        for dim in (1, 7, 64, 257):
            rows = rng.standard_normal((9, dim)) * rng.choice([1e-6, 1.0, 1e150], size=(9, 1))
            out = normalize_feature(rows)
            assert not out.flags.writeable
            assert [row.tobytes() for row in out] == [(row / np.linalg.norm(row)).tobytes() for row in rows]
        assert normalize_feature(np.empty((0, 3))).shape == (0, 3)

    def test_rejects_a_matrix_with_one_degenerate_row(self):
        with pytest.raises(ValueError, match="cannot normalize a feature of norm 0.0"):
            normalize_feature(np.array([[3.0, 4.0], [0.0, 0.0], [1.0, 0.0]]))

    @pytest.mark.parametrize(
        "values", [[0.0, 0.0], [1e-13, 0.0], [math.nan, 1.0], [math.inf, 1.0], [1e200, 1e200], []],
        ids=["zero", "below-tol", "nan", "inf", "overflow", "empty"],
    )
    def test_rejects_a_degenerate_or_non_finite_norm(self, values):
        with pytest.raises(ValueError, match="cannot normalize a feature of norm"):
            normalize_feature(np.array(values))


# Any finite float, with both zeros and the extremes drawn often.
_COMPONENT = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308, -1.7976931348623157e308]
)


class TestStateRows:
    @given(states=st.lists(st.tuples(*[_COMPONENT] * 11).map(StateVector._trusted), max_size=40))
    @settings(max_examples=100, deadline=None)
    def test_equals_the_array_of_the_states_bit_for_bit(self, states):
        want = np.array(list(states), dtype=np.float64).reshape(-1, 11)
        for given_as in (states, iter(states)):
            got = state_rows(given_as)
            assert (got.dtype, got.shape) == (want.dtype, want.shape)
            assert got.tobytes() == want.tobytes()
