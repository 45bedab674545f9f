"""Noise models, known-correspondence scenes, and association scoring."""

import math

import numpy as np
import pytest

from coopfuse.alignment import transform_state
from coopfuse.association import AssociationResult, MatchWeights
from coopfuse.core import GroundTruthObject, RigidTransform
from coopfuse.robustness import (
    EmptyOracle,
    ObservationNoiseParams,
    TransformNoiseParams,
    alpha_sweep_rows,
    generate_denoising_scene,
    identity_embedding,
    make_cluttered_objects,
    match_accuracy,
    perturb_observation,
    perturb_transform,
    run_denoising_trial,
)
from conftest import make_instance, make_state


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

    def test_zero_noise_is_identity(self, rng):
        state = make_state(x=3.0, yaw=0.4, vx=2.0)
        out = perturb_observation(state, rng, ObservationNoiseParams(0.0, 0.0))
        assert out == state

    def test_hard_position_bound(self, rng):
        params = ObservationNoiseParams(pos_range=2.0, other_range=0.5)
        state = make_state(x=5.0, y=-3.0, z=0.5)
        for _ in range(2000):
            out = perturb_observation(state, rng, params)
            assert abs(out.x - state.x) <= 2.0
            assert abs(out.y - state.y) <= 2.0
            assert abs(out.z - state.z) <= 2.0

    def test_result_always_valid(self, rng):
        params = ObservationNoiseParams(pos_range=2.0, other_range=0.5)
        tiny = make_state(l=0.3, w=0.3, h=0.3)
        for _ in range(500):
            out = perturb_observation(tiny, rng, params)
            assert out.l > 0 and out.w > 0 and out.h > 0
            assert abs(out.sin_yaw**2 + out.cos_yaw**2 - 1.0) < 1e-9

    def test_mean_displacement_near_zero(self):
        rng = np.random.default_rng(3)
        state = make_state()
        params = ObservationNoiseParams()
        n = 20_000
        dx = np.array([perturb_observation(state, rng, params).x for _ in range(n)])
        # 3 standard errors for a uniform(-2, 2) sample mean.
        assert abs(dx.mean()) < 3 * (2 / math.sqrt(3)) / math.sqrt(n)

    def test_deterministic_given_seed(self):
        state = make_state(x=1.0)
        params = ObservationNoiseParams()
        a = perturb_observation(state, np.random.default_rng(99), params)
        b = perturb_observation(state, np.random.default_rng(99), params)
        assert a == b


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
        for three_axis in (False, True):
            params = TransformNoiseParams(1.0, 2.0, three_axis=three_axis)
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
        for e, c in zip(ego_view, coop_view):
            aligned = transform_state(c.state, corrupted)
            np.testing.assert_allclose(aligned.as_array(), e.state.as_array(), atol=1e-9)
            np.testing.assert_allclose(e.feature, c.feature, atol=1e-12)

    def test_oracle_cardinality(self, rng):
        objects = make_cluttered_objects(10, 6.0, rng)
        ego_view, coop_view, _ = generate_denoising_scene(
            objects, rng, ObservationNoiseParams(), TransformNoiseParams()
        )
        # The pairing: both views carry each object's ID as the track ID.
        ids = [obj.object_id for obj in objects]
        assert [e.track_id for e in ego_view] == [c.track_id for c in coop_view] == ids

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
            views.append((ego, coop, corrupted))
        for a, b in zip(views[0][0] + views[0][1], views[1][0] + views[1][1]):
            np.testing.assert_array_equal(a.state.as_array(), b.state.as_array())
            np.testing.assert_array_equal(a.feature, b.feature)
        np.testing.assert_array_equal(views[0][2].rotation, views[1][2].rotation)

    def test_spaced_objects_recovered_perfectly(self):
        # Well-separated objects under full default noise: association must
        # recover the oracle pairing on every one of 100 seeded scenes.
        weights = MatchWeights(cost_threshold=25.0)
        for seed in range(100):
            objects = make_cluttered_objects(
                10, 20.0, np.random.default_rng(seed ^ 0xABCD)
            )
            accuracy, _, _ = run_denoising_trial(
                objects, seed, ObservationNoiseParams(), TransformNoiseParams(), weights
            )
            assert accuracy == 1.0, f"seed {seed}"

    def test_zero_noise_wide_separation_recovery(self):
        # Separations beyond 2 * threshold / total position weight make the
        # noise-free problem unambiguous by construction.
        weights = MatchWeights()  # threshold 5, w_pos 1 per axis
        for seed in range(30):
            objects = make_cluttered_objects(8, 9.0, np.random.default_rng(seed))
            accuracy, precision, recall = run_denoising_trial(
                objects, seed,
                ObservationNoiseParams(0.0, 0.0), TransformNoiseParams(0.0, 0.0),
                weights,
            )
            assert (accuracy, precision, recall) == (1.0, 1.0, 1.0)


class TestMatchAccuracy:
    def _result(self, pairs):
        matched = [
            (make_instance(track_id=e, feature_seed=1),
             make_instance(track_id=c, source_agent=1, feature_seed=2),
             0.0)
            for e, c in pairs
        ]
        return AssociationResult(matched=matched)

    def test_all_correct(self):
        result = self._result([(i, i) for i in range(4)])
        assert match_accuracy(result, 4) == (1.0, 1.0, 1.0)

    def test_no_pairs(self):
        assert match_accuracy(self._result([]), 4) == (0.0, 0.0, 0.0)

    def test_partial_with_one_wrong(self):
        pairs = [(i, i) for i in range(8)] + [(8, 9)]
        accuracy, precision, recall = match_accuracy(self._result(pairs), 10)
        assert accuracy == pytest.approx(0.8)
        assert precision == pytest.approx(8 / 9)
        assert recall == pytest.approx(0.8)

    def test_empty_oracle_raises(self):
        with pytest.raises(EmptyOracle):
            match_accuracy(self._result([]), 0)


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
                accuracy, _, _ = run_denoising_trial(objects, seed, params, tf, weights)
                scores[alpha].append(accuracy)
        assert np.mean(scores[1.0]) > np.mean(scores[0.0])


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
                    s, ObservationNoiseParams(), TransformNoiseParams(), weights,
                    feature_dim=dim,
                )
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

    def test_rejects_infinite_alpha(self):
        with pytest.raises(ValueError, match="finite"):
            alpha_sweep_rows([math.inf], scenes=1)
