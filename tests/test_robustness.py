"""Noise models, known-correspondence scenes, and association scoring."""

import math
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coopfuse import association, robustness
from coopfuse.alignment import transform_state, transform_states
from coopfuse.association import MatchWeights
from coopfuse.core import (
    GroundTruthObject, Instance, InstanceBatch, RigidTransform, StateVector, compose, invert, state_rows,
)
from coopfuse.robustness import (
    EmptyOracle,
    ObservationNoiseParams,
    TransformNoiseParams,
    alpha_sweep_rows,
    generate_denoising_scene,
    identity_embedding,
    make_cluttered_objects,
    match_accuracy,
    perturb_transform,
    run_denoising_trial,
)
from conftest import make_instance, make_state
from oracles import reference_cluttered_rows, reference_denoising_views


def _components(state):
    return tuple(getattr(state, name) for name in StateVector._fields)


def _perturbed(state, rng, params, n=1):
    """``n`` draws of ``state`` under ``params`` as ``(n, 11)`` rows, one ``rng.random(11)`` row each, as the
    harness draws a scene's states."""
    return robustness._perturbed_states(np.repeat(np.array([state]), n, axis=0), rng.random((n, 11)), params)


class TestPerturbObservation:
    @pytest.mark.parametrize("field", ["pos_range", "other_range"])
    def test_rejects_nan_range(self, field):
        with pytest.raises(ValueError):
            ObservationNoiseParams(**{field: float("nan")})

    @pytest.mark.parametrize("field", ["pos_range", "other_range"])
    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_rejects_non_finite_range(self, field, value):
        # An infinite range used to pass here and overflow later in numpy's uniform draw.
        with pytest.raises(ValueError, match=f"^{field} must be finite"):
            ObservationNoiseParams(**{field: value})

    @pytest.mark.parametrize("field", ["pos_range", "other_range"])
    def test_rejects_negative_range(self, field):
        with pytest.raises(ValueError, match=f"^{field} must be non-negative"):
            ObservationNoiseParams(**{field: -0.1})

    @pytest.mark.parametrize("field", ["pos_range", "other_range"])
    def test_rejects_a_range_whose_draw_span_overflows(self, field):
        # The span r - -r of 1e308 is inf: numpy's uniform raised OverflowError on every draw.
        with pytest.raises(ValueError, match=f"^{field} must span a finite draw, got 1e\\+308"):
            ObservationNoiseParams(**{field: 1e308})
        with pytest.raises(ValueError, match=f"^{field} must span a finite draw"):
            ObservationNoiseParams(**{field: np.nextafter(np.finfo(float).max / 2, math.inf)})

    def test_widest_accepted_range_draws_bounded_steps(self):
        widest = np.finfo(float).max / 2  # its span is the largest finite float
        params = ObservationNoiseParams(pos_range=widest, other_range=widest)
        for seed in range(20):
            out = _perturbed(make_state(), np.random.default_rng(seed), params)
            assert np.isfinite(out).all()
            assert np.abs(out[:, [0, 1, 2, 8, 9, 10]]).max() <= widest

    def test_zero_noise_is_identity(self, rng):
        state = make_state(x=3.0, yaw=0.4, vx=2.0)
        out = _perturbed(state, rng, ObservationNoiseParams(0.0, 0.0))
        assert out.tolist() == [list(state)]

    def test_hard_position_bound(self, rng):
        params = ObservationNoiseParams(pos_range=2.0, other_range=0.5)
        state = make_state(x=5.0, y=-3.0, z=0.5)
        out = _perturbed(state, rng, params, 2000)
        assert np.all(np.abs(out[:, :3] - state[:3]) <= 2.0)

    def test_result_always_valid(self, rng):
        params = ObservationNoiseParams(pos_range=2.0, other_range=0.5)
        tiny = make_state(l=0.3, w=0.3, h=0.3)
        out = _perturbed(tiny, rng, params, 500)
        assert np.all(out[:, 3:6] > 0)
        assert np.all(np.abs(out[:, 6] ** 2 + out[:, 7] ** 2 - 1.0) < 1e-9)

    def test_overflowing_sum_is_rejected(self):
        # A finite range and a finite state whose sum overflows to inf on this seed's first draw.
        state = make_state(x=1.7e308)
        with pytest.raises(ValueError, match="^perturbed state is not finite$"):
            _perturbed(state, np.random.default_rng(0), ObservationNoiseParams(pos_range=8e307))

    def test_every_row_revalidates_as_a_state(self, rng):
        params = ObservationNoiseParams(pos_range=2.0, other_range=0.9)
        for row in _perturbed(make_state(x=4.0, yaw=1.1, vx=3.0, l=0.3), rng, params, 200).tolist():
            assert list(StateVector(*row)) == row

    def test_mean_displacement_near_zero(self):
        rng = np.random.default_rng(3)
        state = make_state()
        params = ObservationNoiseParams()
        n = 20_000
        dx = _perturbed(state, rng, params, n)[:, 0] - state.x
        # 3 standard errors for a uniform(-2, 2) sample mean.
        assert abs(dx.mean()) < 3 * (2 / math.sqrt(3)) / math.sqrt(n)

    def test_deterministic_given_seed(self):
        state = make_state(x=1.0)
        params = ObservationNoiseParams()
        a = _perturbed(state, np.random.default_rng(99), params)
        b = _perturbed(state, np.random.default_rng(99), params)
        assert a.tobytes() == b.tobytes()


class TestPerturbTransform:
    @pytest.mark.parametrize("field", ["trans_sigma", "rot_sigma_deg"])
    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_rejects_non_finite_sigma(self, field, value):
        # An infinite sigma used to pass here and fail later, inside perturb_transform.
        with pytest.raises(ValueError, match=f"^{field} must be finite"):
            TransformNoiseParams(**{field: value})

    @pytest.mark.parametrize("field", ["trans_sigma", "rot_sigma_deg"])
    def test_rejects_negative_sigma(self, field):
        with pytest.raises(ValueError, match=f"^{field} must be non-negative"):
            TransformNoiseParams(**{field: -0.1})

    def test_zero_noise_is_identity(self, rng):
        t = RigidTransform.from_yaw(0.7, (3.0, 1.0, 0.0))
        out = perturb_transform(t, rng, TransformNoiseParams(0.0, 0.0))
        np.testing.assert_array_equal(out.rotation, t.rotation)
        np.testing.assert_array_equal(out.translation, t.translation)

    def test_output_is_valid_rigid_transform(self, rng):
        t = RigidTransform.from_yaw(0.5, (1.0, 2.0, 0.0))
        params = TransformNoiseParams(1.0, 2.0)
        for _ in range(200):
            out = perturb_transform(t, rng, params)
            np.testing.assert_allclose(out.rotation @ out.rotation.T, np.eye(3), atol=1e-9)

    def test_yaw_only_keeps_z_axis(self, rng):
        t = RigidTransform.identity()
        out = perturb_transform(t, rng, TransformNoiseParams(0.0, 5.0))
        np.testing.assert_allclose(out.rotation[:, 2], [0.0, 0.0, 1.0], atol=1e-12)

    def test_translation_spread(self):
        rng = np.random.default_rng(11)
        params = TransformNoiseParams(trans_sigma=1.0, rot_sigma_deg=0.0)
        n = 20_000
        xs = np.array([
            perturb_transform(RigidTransform.identity(), rng, params).translation[0]
            for _ in range(n)
        ])
        assert xs.std() == pytest.approx(1.0, rel=0.05)

    def test_overflowing_translation_is_rejected(self):
        # A huge finite sigma passes TransformNoiseParams, but most draws overflow to inf.
        rng = np.random.default_rng(5)
        with pytest.raises(ValueError, match="translation is not finite"):
            for _ in range(50):
                perturb_transform(RigidTransform.identity(), rng, TransformNoiseParams(trans_sigma=1e308))

    def test_bits_match_the_validated_build(self):
        # The same draws through the validated constructors give the same bits.
        def validated(t, rng, p):
            translation = rng.normal(0.0, p.trans_sigma, 3)
            sigma = math.radians(p.rot_sigma_deg)
            return compose(RigidTransform(RigidTransform.from_yaw(float(rng.normal(0.0, sigma))).rotation,
                                          translation), t)

        params = TransformNoiseParams(0.7, 25.0)
        ours, theirs, poses = np.random.default_rng(8), np.random.default_rng(8), np.random.default_rng(9)
        for _ in range(300):
            t = RigidTransform.from_yaw(float(poses.uniform(-4.0, 4.0)), poses.normal(0.0, 50.0, 3))
            got, want = perturb_transform(t, ours, params), validated(t, theirs, params)
            assert got.rotation.tobytes() == want.rotation.tobytes()
            assert got.translation.tobytes() == want.translation.tobytes()


class TestSceneGeneration:
    def test_zero_noise_views_align_exactly(self, rng):
        objects = [
            GroundTruthObject(i, 0, make_state(x=8.0 * i, y=2.0 * i, yaw=0.3 * i, vx=3.0))
            for i in range(5)
        ]
        true_t = RigidTransform.from_yaw(0.6, (12.0, -4.0, 0.0))
        ego_view, coop_view, corrupted = generate_denoising_scene(
            objects, rng,
            ObservationNoiseParams(0.0, 0.0), TransformNoiseParams(0.0, 0.0),
            true_transform=true_t, feature_noise_sigma=0.0,
        )
        np.testing.assert_allclose(corrupted.rotation, true_t.rotation, atol=1e-12)
        for e, c in zip(ego_view.instances(), coop_view.instances()):
            aligned = transform_state(c.state, corrupted)
            np.testing.assert_allclose(np.array(aligned), np.array(e.state), atol=1e-9)
            np.testing.assert_allclose(e.feature, c.feature, atol=1e-12)

    def test_oracle_cardinality(self, rng):
        objects = make_cluttered_objects(10, 6.0, rng)
        ego_view, coop_view, _ = generate_denoising_scene(
            objects, rng, ObservationNoiseParams(), TransformNoiseParams()
        )
        # The pairing: both views carry each object's ID as the track ID.
        ids = [obj.object_id for obj in objects]
        assert [e.track_id for e in ego_view.instances()] == [c.track_id for c in coop_view.instances()] == ids
        for agent, view in enumerate((ego_view, coop_view)):
            assert (view.source_agent, view.observed_at) == (agent, 0)
            assert view.confidences.tolist() == [1.0] * len(ids)
            assert view.class_ids.tolist() == [obj.class_id for obj in objects]

    def test_views_hold_values_the_public_constructors_accept(self, rng):
        objects = make_cluttered_objects(12, 3.0, rng)
        ego_view, coop_view, _ = generate_denoising_scene(
            objects, rng, ObservationNoiseParams(), TransformNoiseParams(),
            true_transform=RigidTransform.from_yaw(0.7, (9.0, -2.0, 0.0)), feature_dim=16,
        )
        for inst in ego_view.instances() + coop_view.instances():
            assert all(type(v) is float for v in _components(inst.state))
            assert not inst.feature.flags.writeable
            values = {f.name: getattr(inst, f.name) for f in fields(Instance)}
            rebuilt = Instance(**{**values, "state": StateVector(*_components(inst.state))})
            assert rebuilt.state == inst.state
            assert rebuilt.feature.tobytes() == inst.feature.tobytes()

    def test_overflowing_feature_noise_is_rejected(self, rng):
        # The blurred feature's norm overflows to inf, so it has no unit direction.
        objects = make_cluttered_objects(3, 6.0, rng)
        with pytest.raises(ValueError):
            generate_denoising_scene(
                objects, rng, ObservationNoiseParams(), TransformNoiseParams(), feature_noise_sigma=1e200
            )

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        count=st.integers(0, 16),
        dim=st.sampled_from([1, 8, 64]),
        pos_range=st.one_of(st.just(0.0), st.floats(1e-3, 10.0)),
        other_range=st.one_of(st.just(0.0), st.floats(1e-3, 2.0)),
        sigma=st.one_of(st.just(0.0), st.floats(1e-3, 2.0)),
        yaw=st.floats(-math.pi, math.pi),
        cancel=st.booleans(),
    )
    def test_views_equal_the_per_object_reference(
        self, seed, count, dim, pos_range, other_range, sigma, yaw, cancel
    ):
        objects = make_cluttered_objects(count, 3.0, np.random.default_rng(seed))
        obs_p = ObservationNoiseParams(pos_range, other_range)
        if cancel and count and other_range:
            # Give the last ego object the heading its own draw cancels exactly.
            ahead = np.random.default_rng(seed)
            for _ in range(count - 1):
                ahead.random(11), ahead.standard_normal(dim)
            steps = ahead.uniform(-other_range, other_range, 11)
            last = objects[-1]
            objects[-1] = last._replace(state=last.state._replace(sin_yaw=-float(steps[6]), cos_yaw=-float(steps[7])))
        true_t = RigidTransform.from_yaw(yaw, (12.0, -4.0, 0.0))
        coop_states = transform_states(state_rows(obj.state for obj in objects), invert(true_t)).tolist()
        reference_rng = np.random.default_rng(seed)
        expected = reference_denoising_views(
            [[(obj.object_id, obj.state) for obj in objects],
             [(obj.object_id, row) for obj, row in zip(objects, coop_states)]],
            reference_rng, pos_range, other_range, dim, sigma,
        )
        rng = np.random.default_rng(seed)
        ego_view, coop_view, _ = generate_denoising_scene(
            objects, rng, obs_p, TransformNoiseParams(0.0, 0.0), true_transform=true_t,
            feature_dim=dim, feature_noise_sigma=sigma,
        )
        for view, reference in zip((ego_view.instances(), coop_view.instances()), expected):
            assert [np.array(inst.state).tobytes() for inst in view] == [np.array(s).tobytes() for s, _ in reference]
            assert [inst.feature.tobytes() for inst in view] == [f.tobytes() for _, f in reference]
        # A zero transform noise draws nothing, so the scene used exactly the reference's draws.
        assert rng.bit_generator.state == reference_rng.bit_generator.state

    def test_uniform_is_the_affine_map_of_random(self):
        # _perturbed_states draws rng.random(11) in place of the two uniform calls; a numpy
        # that breaks this identity changes every harness scene.
        for seed in range(20):
            a, b = np.random.default_rng(seed), np.random.default_rng(seed)
            for low, high, k in ((-2.0, 2.0, 3), (-0.5, 0.5, 8), (-0.0, 0.0, 3), (-8e307, 8e307, 5), (1.5, 7.25, 1000)):
                drawn, mapped = a.uniform(low, high, k), low + (high - low) * b.random(k)
                assert drawn.tobytes() == mapped.tobytes(), (
                    f"numpy {np.__version__}: Generator.uniform({low}, {high}, {k}) is no longer "
                    f"low + (high - low) * Generator.random({k}) bit for bit, so the harness scenes change"
                )
            assert a.bit_generator.state == b.bit_generator.state, "uniform and random consume different streams"

    def test_duplicate_ids_rejected(self, rng):
        objects = [GroundTruthObject(1, 0, make_state()), GroundTruthObject(1, 0, make_state(x=5))]
        with pytest.raises(ValueError):
            generate_denoising_scene(objects, rng, ObservationNoiseParams(), TransformNoiseParams())

    def test_identical_seeds_identical_scenes(self):
        objects = make_cluttered_objects(6, 8.0, np.random.default_rng(0))
        views = []
        for _ in range(2):
            rng = np.random.default_rng(42)
            ego, coop, corrupted = generate_denoising_scene(
                objects, rng, ObservationNoiseParams(), TransformNoiseParams()
            )
            views.append((ego.instances() + coop.instances(), corrupted))
        for a, b in zip(views[0][0], views[1][0]):
            np.testing.assert_array_equal(np.array(a.state), np.array(b.state))
            np.testing.assert_array_equal(a.feature, b.feature)
        np.testing.assert_array_equal(views[0][1].rotation, views[1][1].rotation)

    def test_spaced_objects_recovered_perfectly(self):
        # Well-separated objects under full default noise: association must
        # recover the oracle pairing on every one of 100 seeded scenes.
        weights = MatchWeights(cost_threshold=25.0)
        for seed in range(100):
            objects = make_cluttered_objects(
                10, 20.0, np.random.default_rng(seed ^ 0xABCD)
            )
            [(accuracy, _, _)] = run_denoising_trial(
                objects, seed, ObservationNoiseParams(), TransformNoiseParams(), [weights]
            )
            assert accuracy == 1.0, f"seed {seed}"

    def test_zero_noise_wide_separation_recovery(self):
        # Separations beyond 2 * threshold / total position weight make the
        # noise-free problem unambiguous by construction.
        weights = MatchWeights()  # threshold 5, w_pos 1 per axis
        for seed in range(30):
            objects = make_cluttered_objects(8, 9.0, np.random.default_rng(seed))
            scores = run_denoising_trial(
                objects, seed,
                ObservationNoiseParams(0.0, 0.0), TransformNoiseParams(0.0, 0.0),
                [weights],
            )
            assert scores == [(1.0, 1.0, 1.0)]


class TestDenoisingTrial:
    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        count=st.integers(1, 12),
        weights=st.lists(
            st.tuples(
                *[st.one_of(st.just(0.0), st.floats(1e-3, 3.0))] * 5, st.floats(0.1, 30.0)
            ).filter(lambda values: any(values[:5])).map(lambda values: MatchWeights(*values)),
            min_size=1, max_size=4,
        ),
    )
    def test_scoring_every_weight_equals_one_trial_per_weight(self, seed, count, weights):
        # The cost parts are shared by weights that differ in every field, not only in alpha.
        objects = make_cluttered_objects(count, 3.0, np.random.default_rng(seed))
        scene = (objects, seed, ObservationNoiseParams(), TransformNoiseParams())
        alone = [run_denoising_trial(*scene, [w], feature_dim=8)[0] for w in weights]
        assert run_denoising_trial(*scene, weights, feature_dim=8) == alone

    def test_a_scene_without_objects_raises_empty_oracle(self):
        # RuntimeWarnings are errors in this suite, so a numpy warning on the empty cost would fail first.
        with pytest.raises(EmptyOracle):
            run_denoising_trial([], 0, ObservationNoiseParams(), TransformNoiseParams(), [MatchWeights()])


class TestMatchAccuracy:
    @staticmethod
    def _score(pairs, object_count):
        # Row k of both views is object k; a pair (e, c) matches ego row e to coop row c.
        track_ids = np.array(range(object_count), dtype=object)
        return match_accuracy([(e, c, 0.0) for e, c in pairs], track_ids, track_ids)

    def test_all_correct(self):
        assert self._score([(i, i) for i in range(4)], 4) == (1.0, 1.0, 1.0)

    def test_no_pairs(self):
        assert self._score([], 4) == (0.0, 0.0, 0.0)

    def test_partial_with_one_wrong(self):
        pairs = [(i, i) for i in range(8)] + [(8, 9)]
        accuracy, precision, recall = self._score(pairs, 10)
        assert accuracy == pytest.approx(0.8)
        assert precision == pytest.approx(8 / 9)
        assert recall == pytest.approx(0.8)

    def test_empty_oracle_raises(self):
        with pytest.raises(EmptyOracle):
            self._score([], 0)


class TestIdentityEmbedding:
    def test_deterministic_and_unit(self):
        a = identity_embedding(7, 32)
        b = identity_embedding(7, 32)
        np.testing.assert_array_equal(a, b)
        assert np.linalg.norm(a) == pytest.approx(1.0)

    def test_distinct_ids_roughly_orthogonal(self):
        a = identity_embedding(1, 64)
        b = identity_embedding(2, 64)
        assert abs(float(np.dot(a, b))) < 0.5


class TestAppearanceHelpsInClutter:
    def test_alpha_one_beats_alpha_zero_on_mean(self):
        # The appearance effect is a few tenths of a percent per scene, so
        # the paired comparison needs a real ensemble to stand out.
        params = ObservationNoiseParams()
        tf = TransformNoiseParams()
        scores = {0.0: [], 1.0: []}
        for seed in range(150):
            objects = make_cluttered_objects(12, 3.0, np.random.default_rng(seed ^ 0xC1_0770))
            for alpha in scores:
                weights = MatchWeights(alpha=alpha, cost_threshold=15.0)
                [(accuracy, _, _)] = run_denoising_trial(objects, seed, params, tf, [weights])
                scores[alpha].append(accuracy)
        assert np.mean(scores[1.0]) > np.mean(scores[0.0])


class TestClutteredObjects:
    @pytest.mark.parametrize("count", [0, 1, 7, 12, 30])
    @pytest.mark.parametrize("speed_range", [(2.0, 10.0), (0.0, 0.5)])
    def test_states_equal_the_scalar_draws(self, count, speed_range):
        ours, theirs = np.random.default_rng(count + 11), np.random.default_rng(count + 11)
        objects = make_cluttered_objects(count, 3.0, ours, speed_range=speed_range)
        rows = reference_cluttered_rows(count, 3.0, theirs, speed_range=speed_range)
        assert [_components(obj.state) for obj in objects] == rows
        assert all(type(v) is float for obj in objects for v in _components(obj.state))
        assert np.array([_components(obj.state) for obj in objects]).tobytes() == np.array(rows).tobytes()
        assert [(obj.object_id, obj.class_id) for obj in objects] == [(i, 0) for i in range(count)]
        assert ours.random() == theirs.random()  # both streams stopped at the same place

    def test_overflowing_grid_is_rejected(self, rng):
        # The third column sits at 2 * 1e308, past the largest float.
        with pytest.raises(ValueError):
            make_cluttered_objects(9, 1e308, rng)


class TestAlphaSweep:
    def test_rows_equal_per_alpha_trial_means(self):
        # Reference: every alpha re-runs every scene through the public
        # one-scene function, on the sweep's own scene seeds.
        alphas, scenes, seed, spacing, dim = [2.0, 0.0, 0.5, 0.0], 20, 7, 4.0, 16
        rows = alpha_sweep_rows(alphas, scenes=scenes, seed=seed, spacing=spacing,
                                feature_dim=dim)
        expected = []
        for alpha in alphas:
            weights = MatchWeights(alpha=alpha, cost_threshold=15.0)
            scores = [
                run_denoising_trial(
                    make_cluttered_objects(12, spacing, np.random.default_rng(s ^ 0xC1_0770)),
                    s, ObservationNoiseParams(), TransformNoiseParams(), [weights],
                    feature_dim=dim,
                )[0]
                for s in range(seed, seed + scenes)
            ]
            expected.append({
                "alpha": alpha,
                "mean_accuracy": float(np.mean([a for a, _, _ in scores])),
                "mean_precision": float(np.mean([p for _, p, _ in scores])),
                "mean_recall": float(np.mean([r for _, _, r in scores])),
            })
        assert rows == expected

    @pytest.mark.parametrize("scenes", [0, -1])
    def test_rejects_fewer_than_one_scene(self, scenes):
        with pytest.raises(ValueError):
            alpha_sweep_rows([0.0, 1.0], scenes=scenes)

    def test_rejects_empty_alphas(self):
        with pytest.raises(ValueError):
            alpha_sweep_rows([], scenes=5)

    def test_builds_the_cost_parts_once_per_scene(self, monkeypatch):
        parts, solves = [], []
        real_parts, real_solve = robustness._cost_parts, association.solve_assignment

        def counting_parts(*args):
            parts.append(args)
            return real_parts(*args)

        def counting_solve(cost):
            solves.append(cost)
            return real_solve(cost)

        monkeypatch.setattr(robustness, "_cost_parts", counting_parts)
        monkeypatch.setattr(association, "solve_assignment", counting_solve)
        alpha_sweep_rows([0.0, 0.5, 1.0], scenes=6, seed=3, feature_dim=16)
        assert len(parts) == 6
        assert len(solves) == 6 * 3

    def test_builds_no_instance(self, monkeypatch):
        # The scenes stay columns from the draw to the score.
        def forbidden(*args, **kwargs):
            raise AssertionError("the harness built an Instance")

        monkeypatch.setattr(InstanceBatch, "instances", forbidden)
        monkeypatch.setattr(Instance, "_trusted", forbidden)
        monkeypatch.setattr(Instance, "__init__", forbidden)
        rows = alpha_sweep_rows([0.0, 1.0], scenes=3, feature_dim=8)
        assert [row["alpha"] for row in rows] == [0.0, 1.0]

    def test_rejects_a_scene_without_objects(self):
        with pytest.raises(EmptyOracle):
            alpha_sweep_rows([0.0, 1.0], scenes=2, object_count=0)

    def test_rejects_infinite_alpha(self):
        with pytest.raises(ValueError, match="finite"):
            alpha_sweep_rows([math.inf], scenes=1)
