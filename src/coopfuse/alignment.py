"""Spatio-temporal alignment of remote instances into the ego frame.

Alignment is two steps, in a fixed order: (a) latency compensation with a
constant-velocity motion model, performed in the sender's frame, then
(b) projection through the relative rigid transform. The two steps only
commute for pure translations, so the order matters.

``transform_states`` moves (N, 11) state rows between frames for sensing and
ground truth; alignment moves each record through its one-row case, ``transform_state``.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .core import (
    DegenerateHeading,
    Instance,
    RigidTransform,
    StateVector,
    Timestamp,
    _check_finite_sign,
    micros_to_seconds,
    normalize_feature,
)

DEFAULT_COMPENSATION_HORIZON = 2.0


class HorizonExceeded(ValueError):
    """Data is older than the trusted extrapolation horizon; drop, don't guess."""


class FeatureAligner(enum.Enum):
    """How appearance features respond to a change of viewpoint.

    IDENTITY passes features through untouched (they are treated as
    viewpoint-invariant). YAW_CONDITIONED rotates consecutive coordinate
    pairs of the feature by the relative yaw, a parameter-free stand-in
    for a learned rotation-conditioned encoder with the same interface.
    """

    IDENTITY = "identity"
    YAW_CONDITIONED = "yaw_conditioned"

    @classmethod
    def _missing_(cls, value):
        raise ValueError(f"unknown aligner {value!r}")


@dataclass(frozen=True)
class AlignmentConfig:
    feature_aligner: FeatureAligner = FeatureAligner.IDENTITY
    max_compensation_horizon: float = DEFAULT_COMPENSATION_HORIZON

    def __post_init__(self) -> None:
        _check_finite_sign(self, ("max_compensation_horizon",), positive=True)


def compensate_latency(
    state: StateVector,
    dt: float,
    max_horizon: float = DEFAULT_COMPENSATION_HORIZON,
) -> StateVector:
    """Predict the state ``dt`` seconds ahead under constant velocity.

    Position advances by velocity * dt; dimensions, heading, and velocity
    are unchanged. At dt = 0 the state itself is returned, so a zero keeps
    its sign.

    Raises:
        HorizonExceeded: if dt exceeds ``max_horizon``.
        ValueError: if dt is negative or NaN.
    """
    if not dt >= 0:  # NaN fails it too
        raise ValueError(f"dt must be non-negative, got {dt}")
    if dt > max_horizon:
        raise HorizonExceeded(f"dt {dt:.3f}s exceeds horizon {max_horizon:.3f}s")
    if dt == 0.0:
        return state
    x, y, z, l, w, h, sin_yaw, cos_yaw, vx, vy, vz = state
    return StateVector._trusted((x + vx * dt, y + vy * dt, z + vz * dt, l, w, h, sin_yaw, cos_yaw, vx, vy, vz))


# A row's position, velocity and planar heading (cos, sin, then zeroed) as three 3-vectors.
_VECTOR_COLUMNS = np.array([0, 1, 2, 8, 9, 10, 7, 6, 6])


def transform_states(rows: np.ndarray, t: RigidTransform) -> np.ndarray:
    """The (N, 11) state rows (``StateVector`` order) in the frame the transform maps into, as a new array.

    Position is rotated and translated; velocity is rotated only (it is a
    frame-local direction, not a point); the heading is carried by rotating
    the planar direction vector (cos, sin, 0) and renormalizing its xy
    projection. Dimensions are frame-independent. A row's bits do not
    depend on the other rows, and equal ``transform_state``'s for that state.

    Raises:
        DegenerateHeading: if a rotated heading has no xy projection left
            (only possible for rotations that tip the plane on its side).
    """
    vectors = rows.take(_VECTOR_COLUMNS, axis=1)
    vectors[:, 8] = 0.0
    # One mat-vec per 3-vector keeps each one's bits equal to ``rot @ v``;
    # ``vectors @ rot.T`` differs in the last bit on most rows.
    moved = (t.rotation @ vectors.reshape(-1, 3, 1)).reshape(-1, 9)
    moved[:, :3] += t.translation
    # math.hypot per row: numpy's hypot differs in the last bit on some pairs. The division rounds alike.
    norm = np.array(list(map(math.hypot, moved[:, 6].tolist(), moved[:, 7].tolist())))
    if (norm < 1e-9).any():
        raise DegenerateHeading("rotation leaves no planar heading component")
    moved[:, 6:8] /= norm[:, None]
    return np.concatenate((moved[:, :3], rows[:, 3:6], moved[:, 7:5:-1], moved[:, 3:6]), axis=1)


def transform_state(state: StateVector, t: RigidTransform) -> StateVector:
    """One state through ``transform_states``' formula and stacked mat-vec, bit for bit; the rest in Python."""
    x, y, z, l, w, h, sin_yaw, cos_yaw, vx, vy, vz = state
    vectors = np.array((x, y, z, vx, vy, vz, cos_yaw, sin_yaw, 0.0)).reshape(3, 3, 1)
    (px, py, pz, *velocity, hx, hy, _), (tx, ty, tz) = (t.rotation @ vectors).ravel().tolist(), t.translation.tolist()
    norm = math.hypot(hx, hy)
    if norm < 1e-9:
        raise DegenerateHeading("rotation leaves no planar heading component")
    return StateVector._trusted((px + tx, py + ty, pz + tz, l, w, h, hy / norm, hx / norm, *velocity))


def rotate_feature_pairs(feature: np.ndarray, yaw: float) -> np.ndarray:
    """Rotate consecutive feature coordinate pairs by ``yaw``, renormalized, into a new read-only array.

    Odd trailing coordinate (if any) is left untouched. At yaw = 0 this is
    the identity.
    """
    out = np.array(feature, dtype=np.float64)
    if yaw == 0.0:
        out.setflags(write=False)
        return out
    pair_count = out.shape[0] // 2
    if pair_count:
        c, s = math.cos(yaw), math.sin(yaw)
        pairs = out[: 2 * pair_count].reshape(pair_count, 2)
        rotated = pairs @ np.array([[c, s], [-s, c]])
        out[: 2 * pair_count] = rotated.reshape(-1)
    return normalize_feature(out)


def align_instance(
    inst: Instance,
    rel: RigidTransform,
    t_ego: Timestamp,
    cfg: AlignmentConfig,
    compensate: bool = True,
) -> Instance:
    """Bring a remote instance into the ego frame at the ego timestamp.

    Latency compensation runs first in the sender's frame (with
    ``compensate`` off, over dt = 0, which leaves the state as it is), then
    the state is projected through ``rel``, the sender-to-ego transform (see
    ``relative_transform``; build it once per packet). The feature passes
    through the configured aligner. The result is stamped ``t_ego`` either
    way; identity fields are kept.

    Raises:
        HorizonExceeded, DegenerateHeading: propagated from the two steps.
        ValueError: if the instance is from the future (observed_at > t_ego),
            whether ``compensate`` is on or off.
    """
    if inst.observed_at > t_ego:
        raise ValueError(f"observed_at {inst.observed_at} is after t_ego {t_ego}")
    dt = micros_to_seconds(t_ego - inst.observed_at) if compensate else 0.0
    state = transform_state(compensate_latency(inst.state, dt, cfg.max_compensation_horizon), rel)
    if cfg.feature_aligner is FeatureAligner.YAW_CONDITIONED:
        feature = rotate_feature_pairs(inst.feature, rel.yaw)
    else:
        feature = inst.feature
    return Instance._trusted(
        state=state,
        feature=feature,
        confidence=inst.confidence,
        class_id=inst.class_id,
        track_id=inst.track_id,
        source_agent=inst.source_agent,
        observed_at=t_ego,
    )
