"""Perturbation harness: known-correspondence scenes for association stress.

Two noise models mirror the dominant real-world error sources. Observation
noise perturbs each view's states independently in its local frame
(uniform, hard-bounded). Transformation noise corrupts the relative
transform itself (Gaussian translation and yaw). Scenes built from shared
reference objects keep their ground-truth pairing, so association quality
is measurable exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Sequence

import numpy as np

from .association import MatchWeights, _cost_parts, _kept_pairs
from .core import (
    DEGENERATE_TOL,
    GroundTruthObject,
    InstanceBatch,
    RigidTransform,
    StateVector,
    _check_finite_sign,
    _unsigned_zeros,
    compose,
    invert,
    normalize_feature,
    state_rows,
    yaw_rotation,
)
from .alignment import transform_states

_MIN_DIMENSION = 0.01
_EMBEDDING_SEED_OFFSET = 0x5EED


class EmptyOracle(ValueError):
    """Accuracy over a scene with no objects is undefined."""


@dataclass(frozen=True)
class ObservationNoiseParams:
    """Uniform in-frame perturbation: ±pos_range on x/y/z, ±other_range on the rest."""

    pos_range: float = 2.0
    other_range: float = 0.5

    def __post_init__(self) -> None:
        _unsigned_zeros(self)
        _check_finite_sign(self, ("pos_range", "other_range"))
        for name in ("pos_range", "other_range"):
            value = float(getattr(self, name))
            if not math.isfinite(value - -value):  # the span of the uniform draw
                raise ValueError(f"{name} must span a finite draw, got {value!r}")


@dataclass(frozen=True)
class TransformNoiseParams:
    """Gaussian corruption of a relative transform: ``trans_sigma`` per translation axis, ``rot_sigma_deg`` of yaw."""

    trans_sigma: float = 1.0
    rot_sigma_deg: float = 2.0

    def __post_init__(self) -> None:
        _unsigned_zeros(self)
        _check_finite_sign(self, ("trans_sigma", "rot_sigma_deg"))


@lru_cache(maxsize=4096)
def identity_embedding(object_id: int, dim: int) -> np.ndarray:
    """Deterministic unit feature for an object identity.

    The same (id, dim) always yields the same vector, so different agents
    observing the same object produce correlated appearance features.
    """
    rng = np.random.default_rng(object_id + _EMBEDDING_SEED_OFFSET)
    return normalize_feature(rng.standard_normal(dim))


@lru_cache(maxsize=4)  # a scene's agents, or a harness scene's two views, share one table
def embedding_table(object_ids: tuple[int, ...], dim: int) -> np.ndarray:
    """The objects' identity embeddings as one read-only (objects, dim) table."""
    table = np.array([identity_embedding(i, dim) for i in object_ids]).reshape(len(object_ids), dim)
    table.setflags(write=False)
    return table


def _blurred_features(object_ids: Sequence[int], dim: int, sigma: float, noise: np.ndarray) -> np.ndarray:
    """Each object's identity embedding plus ``sigma`` times its row of ``noise``, as a read-only
    ``(n, dim)`` matrix of unit rows."""
    return normalize_feature(embedding_table(tuple(object_ids), dim) + sigma * noise)


def _perturbed_states(rows: np.ndarray, unit: np.ndarray, p: ObservationNoiseParams) -> np.ndarray:
    """The ``(n, 11)`` state rows under ``p``'s noise, from one ``rng.random(11)`` row of ``unit`` each:
    ``rng.uniform(-r, r, k)`` is ``-r + (r - -r) * rng.random(k)``, bit for bit and on the same stream.
    Positions move by at most ±pos_range, the rest by at most ±other_range; the heading is renormalized and
    the dimensions clamped away from zero, so each row is a valid state unless a sum overflows (ValueError)."""
    half = np.repeat((p.pos_range, p.other_range), (3, 8))
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite result is rejected below
        moved = rows + (-half + (half + half) * unit)
        moved[:, 3:6] = np.maximum(moved[:, 3:6], _MIN_DIMENSION)
        # math.hypot per row: numpy's hypot differs in the last bit on some pairs.
        norm = np.array(list(map(math.hypot, moved[:, 6].tolist(), moved[:, 7].tolist()))).reshape(-1, 1)
        cancelled = norm < DEGENERATE_TOL  # the draw cancelled the heading exactly: keep the state's
        moved[:, 6:8] = np.where(cancelled, rows[:, 6:8], moved[:, 6:8] / np.where(cancelled, 1.0, norm))
    if not np.isfinite(moved).all():
        raise ValueError("perturbed state is not finite")
    return moved


def perturb_transform(
    t: RigidTransform, rng: np.random.Generator, p: TransformNoiseParams
) -> RigidTransform:
    """Left-compose a small random rigid motion onto a transform. Its rotation, a yaw, is orthonormal
    by construction; only the translation is checked (a huge finite sigma overflows to inf)."""
    translation = rng.normal(0.0, p.trans_sigma, 3) if p.trans_sigma > 0 else np.zeros(3)
    if not np.isfinite(translation).all():
        raise ValueError("translation is not finite")
    sigma_rad = math.radians(p.rot_sigma_deg)
    yaw = float(rng.normal(0.0, sigma_rad)) if sigma_rad > 0 else 0.0
    rotation = yaw_rotation(yaw)
    return compose(RigidTransform._trusted(rotation, translation), t)


def generate_denoising_scene(
    gt_objects: Sequence[GroundTruthObject],
    rng: np.random.Generator,
    obs_p: ObservationNoiseParams,
    tf_p: TransformNoiseParams,
    true_transform: Optional[RigidTransform] = None,
    feature_dim: int = 64,
    feature_noise_sigma: float = 0.3,
) -> tuple[InstanceBatch, InstanceBatch, RigidTransform]:
    """Build two perturbed views of the same objects with a known pairing.

    Both views carry each object's (unique) ID as the track ID, so a match
    is correct exactly when the two track IDs are equal. The ego view
    (agent 0) is observation-perturbed in the ego frame. The coop view
    (agent 1) is observation-perturbed in the coop frame (reached through
    ``true_transform``), and the returned transform back into the ego frame
    is itself corrupted by the transformation noise, so aligning the coop
    view exercises exactly the error the pipeline must survive.
    """
    ids = [obj.object_id for obj in gt_objects]
    if len(set(ids)) != len(ids):
        raise ValueError("reference objects must carry unique IDs")
    if true_transform is None:
        true_transform = RigidTransform.identity()
    # The transform draws nothing, so transforming every object up front keeps the draw order.
    rows = state_rows(obj.state for obj in gt_objects)
    rows = np.concatenate((rows, transform_states(rows, invert(true_transform))))
    # Per object, ego view first: the state's 11 uniform draws, then the feature's normals.
    unit, noise = np.empty((len(rows), 11)), np.empty((len(rows), feature_dim))
    random, standard_normal = rng.random, rng.standard_normal
    for unit_row, noise_row in zip(unit, noise):
        random(out=unit_row)
        standard_normal(out=noise_row)
    states = _perturbed_states(rows, unit, obs_p)
    features = _blurred_features(ids + ids, feature_dim, feature_noise_sigma, noise)
    class_ids, track_ids = np.array([obj.class_id for obj in gt_objects], dtype=object), np.array(ids, dtype=object)
    ego_view, coop_view = (
        InstanceBatch(states[view], features[view], np.ones(len(ids)), class_ids, track_ids, source_agent=agent)
        for agent, view in enumerate((slice(len(ids)), slice(len(ids), None)))
    )
    return ego_view, coop_view, perturb_transform(true_transform, rng, tf_p)


def match_accuracy(
    pairs: Sequence[tuple[int, int, float]], ego_track_ids: Sequence, coop_track_ids: Sequence
) -> tuple[float, float, float]:
    """(accuracy, precision, recall) of the matched ``(row, col, cost)`` pairs in a denoising scene,
    one object per ego row: a match is correct when its rows' track IDs agree. Accuracy is
    recall, as every object is in both views; precision over an empty match set is defined as 0.

    Raises:
        EmptyOracle: when the scene holds no ego rows.
    """
    if len(ego_track_ids) == 0:
        raise EmptyOracle("no ground-truth correspondences to score against")
    correct = sum(1 for i, j, _ in pairs if ego_track_ids[i] == coop_track_ids[j])
    recall = correct / len(ego_track_ids)
    return recall, (correct / len(pairs) if pairs else 0.0), recall


def run_denoising_trial(
    gt_objects: Sequence[GroundTruthObject],
    seed: int,
    obs_p: ObservationNoiseParams,
    tf_p: TransformNoiseParams,
    weights: Sequence[MatchWeights],
    feature_dim: int = 64,
) -> list[tuple[float, float, float]]:
    """One seeded scene, its coop view aligned through the corrupted transform, matched and
    scored at each of ``weights``: one (accuracy, precision, recall) per weight. The views
    stay columns: the same cost parts and solve-then-demote pick as ``association.match``."""
    ego, coop, corrupted = generate_denoising_scene(
        gt_objects, np.random.default_rng(seed), obs_p, tf_p, feature_dim=feature_dim
    )
    diff, dist = _cost_parts(ego.states, ego.features, transform_states(coop.states, corrupted), coop.features)
    return [
        match_accuracy(_kept_pairs(diff @ w.state_weights() + w.alpha * dist, w.cost_threshold),
                       ego.track_ids, coop.track_ids)
        for w in weights
    ]


# ---------------------------------------------------------------------------
# Clutter scenes and the appearance-weight sweep


def make_cluttered_objects(
    count: int,
    spacing: float,
    rng: np.random.Generator,
    speed_range: tuple[float, float] = (2.0, 10.0),
) -> list[GroundTruthObject]:
    """Objects on a jittered grid with pitch ``spacing``.

    Neighbor distances land around the pitch (give or take half of it), so
    a 3 m pitch produces scenes where geometry alone is genuinely
    ambiguous under meter-scale noise.
    """
    side = math.ceil(math.sqrt(count))
    # One draw per object and column, in the order of one scalar call each:
    # jitter x, jitter y, speed, heading, l, w, h.
    quarter = spacing / 4
    draws = rng.uniform(
        (-quarter, -quarter, speed_range[0], -math.pi, 3.8, 1.7, 1.4),
        (quarter, quarter, speed_range[1], math.pi, 5.0, 2.1, 1.8),
        size=(count, 7),
    )
    row, col = np.divmod(np.arange(count), side)
    with np.errstate(over="ignore"):  # an overflowing grid is inf, which the check below rejects
        xy = np.stack([col * spacing, row * spacing], axis=1) + draws[:, :2]
    if not np.isfinite(xy).all():
        raise ValueError(f"a grid of {count} objects at pitch {spacing!r} overflows")
    objects = []
    for i, ((x, y), (_, _, speed, theta, l, w, h)) in enumerate(zip(xy.tolist(), draws.tolist())):
        sin_t, cos_t = math.sin(theta), math.cos(theta)
        state = StateVector._trusted((x, y, 0.0, l, w, h, sin_t, cos_t, speed * cos_t, speed * sin_t, 0.0))
        objects.append(GroundTruthObject(object_id=i, class_id=0, state=state))
    return objects


HARNESS_COST_THRESHOLD = 15.0  # demotion must stay rare at full two-view noise
ALPHA_SWEEP_COLUMNS = ("alpha", "mean_accuracy", "mean_precision", "mean_recall")


def alpha_sweep_rows(
    alphas: Sequence[float],
    scenes: int = 200,
    seed: int = 0,
    object_count: int = 12,
    spacing: float = 3.0,
    feature_dim: int = 64,
) -> list[dict]:
    """Mean association quality per appearance weight over seeded scenes.

    Each scene is one :func:`run_denoising_trial` at every alpha, so rows
    are directly comparable. Noise is the harness defaults.

    Raises:
        ValueError: for an empty ``alphas`` or fewer than one scene.
        EmptyOracle: for scenes of no objects.
    """
    if len(alphas) == 0 or scenes < 1:
        raise ValueError(f"need an alpha and a scene, got {len(alphas)} alphas, {scenes} scenes")
    weights = [MatchWeights(alpha=a, cost_threshold=HARNESS_COST_THRESHOLD) for a in alphas]
    noise = ObservationNoiseParams(), TransformNoiseParams()  # built once: every scene draws with the defaults
    scores = np.array([  # (scene, alpha, (accuracy, precision, recall))
        run_denoising_trial(
            make_cluttered_objects(object_count, spacing, np.random.default_rng(scene_seed ^ 0xC1_0770)),
            scene_seed, *noise, weights, feature_dim=feature_dim,
        )
        for scene_seed in range(seed, seed + scenes)
    ])
    rows = []
    for w, per_alpha in zip(weights, scores.transpose(1, 2, 0).copy()):  # each mean over a contiguous row
        means = (float(np.mean(column)) for column in per_alpha)
        rows.append(dict(zip(ALPHA_SWEEP_COLUMNS, (float(w.alpha), *means))))
    return rows
