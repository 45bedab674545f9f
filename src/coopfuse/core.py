"""Core value types: kinematic state vectors, instances, rigid transforms.

Everything here is an immutable value; functions return new objects. Angles
are carried redundantly as (sin, cos) pairs so that the in-memory layout,
the wire layout, and the arithmetic all use the same encoding. Timestamps
are integer microseconds since the scenario epoch so latency arithmetic is
exact; conversion to float seconds happens only at the kinematics boundary.

Values are validated once, where they enter: the public constructors,
sensing, wire decode and config loading. A value derived from valid ones (a
transformed, compensated, fused or smoothed state, a composed or inverted
transform, a relabelled or smoothed instance, a refined track set) is built
unchecked, in one call, by the type's private ``_trusted``, which only
package code calls. ``RigidTransform._trusted`` takes ownership of the
fresh or read-only arrays it is given, with no copy. A ``StateVector`` is
a named tuple of its 11 floats, equal to the plain tuple of its
components; its ``_trusted`` and the named tuple's ``_make`` and
``_replace`` skip the checks. ``Instance`` stays a
slotted dataclass with identity equality, whose ``_trusted`` sets the slots
through their descriptors: a per-record value is one small object with no
dict. The
rules for a valid value live here alone: sensing and wire decode check their
records as one batch with ``_check_records``, then normalize the features
with ``normalize_feature``.

Shared operations live here once: ``normalize_feature``, the only feature
normalization; ``pairs_within`` then ``greedy_nearest``, which continue
sensing tracks and score a run; and ``nearest`` over a sorted class column,
which suppresses fusion duplicates and gives the prefusion error.
"""

from __future__ import annotations

import bisect
import itertools
import math
from collections import namedtuple
from dataclasses import dataclass, fields
from typing import Iterable, NamedTuple, Optional, Sequence

import numpy as np

MICROS_PER_SECOND = 1_000_000

# Microseconds since the scenario epoch (signed 64-bit on the wire).
Timestamp = int

HEADING_UNIT_TOL = 1e-6
FEATURE_UNIT_TOL = 1e-6
ROTATION_TOL = 1e-9
DEGENERATE_TOL = 1e-12
_IDENTITY = np.eye(3)


class DegenerateHeading(ValueError):
    """A heading vector collapsed below the resolvable tolerance."""


def seconds_to_micros(seconds: float) -> Timestamp:
    return round(seconds * MICROS_PER_SECOND)


def micros_to_seconds(micros: Timestamp) -> float:
    return micros / MICROS_PER_SECOND


def normalize_heading(sin_raw: float, cos_raw: float) -> tuple[float, float]:
    """Rescale a raw (sin, cos) pair to unit norm, preserving direction.

    Pairs already within 1e-12 of unit norm pass through untouched, which
    makes repeated normalization an exact no-op.

    Raises:
        DegenerateHeading: if both components are below 1e-12.
    """
    norm = math.hypot(sin_raw, cos_raw)
    if norm < DEGENERATE_TOL:
        raise DegenerateHeading(
            f"heading ({sin_raw!r}, {cos_raw!r}) has no resolvable direction"
        )
    if abs(norm - 1.0) <= DEGENERATE_TOL:
        return float(sin_raw), float(cos_raw)
    return sin_raw / norm, cos_raw / norm


def _finite(name: str, value: float) -> float:
    value = float(value)  # numpy scalars become plain floats too
    if not math.isfinite(value):
        raise ValueError(f"state component {name} is not finite")
    return value


class StateVector(namedtuple("StateVector", "x y z l w h sin_yaw cos_yaw vx vy vz")):
    """Explicit 11-component kinematic state of one object.

    Components: center position (x, y, z) in meters, box dimensions
    (l, w, h) in meters, heading encoded as (sin_yaw, cos_yaw), and
    velocity (vx, vy, vz) in meters/second expressed in the same frame
    as the position. A state is the tuple of its 11 floats.
    """

    __slots__ = ()

    def __new__(cls, x, y, z, l, w, h, sin_yaw, cos_yaw, vx, vy, vz) -> StateVector:
        self = tuple.__new__(cls, map(_finite, cls._fields, (x, y, z, l, w, h, sin_yaw, cos_yaw, vx, vy, vz)))
        if self.l <= 0 or self.w <= 0 or self.h <= 0:
            raise ValueError(
                f"dimensions must be positive, got ({self.l}, {self.w}, {self.h})"
            )
        unit_err = abs(self.sin_yaw**2 + self.cos_yaw**2 - 1.0)
        if unit_err > HEADING_UNIT_TOL:
            raise ValueError(
                f"heading (sin, cos) must be unit norm, off by {unit_err:.3e}"
            )
        return self

    # The state of 11 plain floats derived from valid states, unchecked.
    _trusted = classmethod(tuple.__new__)

    @property
    def yaw(self) -> float:
        return math.atan2(self.sin_yaw, self.cos_yaw)

    @property
    def speed(self) -> float:
        return math.hypot(self.vx, self.vy)


def state_rows(states: Iterable[StateVector]) -> np.ndarray:
    """The states as an (N, 11) float64 array, components in declaration order."""
    return np.fromiter(itertools.chain.from_iterable(states), np.float64).reshape(-1, 11)


def normalize_feature(values: np.ndarray) -> np.ndarray:
    """The vector, or each row of a matrix, scaled to unit Euclidean norm, read-only; ValueError on a
    zero, NaN or overflowing norm."""
    arr = np.ascontiguousarray(values, dtype=np.float64)
    # np.linalg.norm's own formula for a real vector, sqrt(dot), without its per-call checks. vecdot
    # gives each contiguous row of a matrix the same bits; a lone vector keeps the cheaper float path.
    with np.errstate(over="ignore"):
        norms = np.sqrt(np.vecdot(arr, arr))[:, None] if arr.ndim == 2 else math.sqrt(arr.dot(arr))
    for norm in norms.ravel().tolist() if arr.ndim == 2 else (norms,):
        if not DEGENERATE_TOL <= norm < math.inf:
            raise ValueError(f"cannot normalize a feature of norm {norm!r}")
    feature = arr / norms
    feature.setflags(write=False)
    return feature


@dataclass(frozen=True, slots=True, eq=False)
class Instance:
    """One perceived object: kinematic state plus appearance feature.

    The feature is a unit-norm vector of configurable dimension; confidence
    lives in [0, 1]. ``track_id`` is the producing agent's persistent
    identifier (None when the producer does not track), ``source_agent``
    identifies the producer, and ``observed_at`` is the sensing timestamp.
    """

    state: StateVector
    feature: np.ndarray
    confidence: float
    class_id: int
    track_id: Optional[int]
    source_agent: int
    observed_at: Timestamp

    def __post_init__(self) -> None:
        feature = np.array(self.feature, dtype=np.float64)
        feature.setflags(write=False)
        object.__setattr__(self, "feature", feature)
        norm_err = abs(float(np.linalg.norm(feature)) - 1.0)
        if not norm_err <= FEATURE_UNIT_TOL:  # NaN fails it too
            raise ValueError(f"feature must be unit norm, off by {norm_err:.3e}")
        if not 0.0 <= self.confidence <= 1.0:
            raise ValueError(f"confidence {self.confidence} outside [0, 1]")
        if self.observed_at < 0:
            raise ValueError("observed_at must be non-negative")

    @classmethod
    def _trusted(cls, state, feature, confidence, class_id, track_id, source_agent, observed_at) -> Instance:
        """Every field, derived from valid values; unchecked (``feature`` a read-only unit-norm float64 array)."""
        self = object.__new__(cls)
        _SET_STATE(self, state), _SET_FEATURE(self, feature), _SET_CONFIDENCE(self, confidence)
        _SET_CLASS_ID(self, class_id), _SET_TRACK_ID(self, track_id)
        _SET_SOURCE_AGENT(self, source_agent), _SET_OBSERVED_AT(self, observed_at)
        return self


_SET_STATE, _SET_FEATURE, _SET_CONFIDENCE, _SET_CLASS_ID, _SET_TRACK_ID, _SET_SOURCE_AGENT, _SET_OBSERVED_AT = (
    Instance.__dict__[name].__set__ for name in Instance.__slots__)


@dataclass(frozen=True, slots=True, eq=False)
class InstanceBatch:
    """One agent's instances at one time as columns, a row per instance: (N, 11) ``states``
    (``StateVector`` order), (N, D) unit ``features``, ``confidences``, ``class_ids`` and
    ``track_ids`` (int or None). ``sense`` and ``of`` build valid batches; their rows stay valid."""

    states: np.ndarray
    features: np.ndarray
    confidences: np.ndarray
    class_ids: np.ndarray
    track_ids: np.ndarray
    source_agent: int = 0
    observed_at: Timestamp = 0
    __iter__ = None  # rows become values only through instances()

    @classmethod
    def of(cls, instances: Sequence[Instance]) -> InstanceBatch:
        """The instances, in order, as one batch (with none, D = 0)."""
        dims = {len(inst.feature) for inst in instances}
        if len(dims) > 1:
            raise ValueError(f"instances carry mixed feature dimensions: {sorted(dims)}")
        if len(origins := {(inst.source_agent, inst.observed_at) for inst in instances}) > 1:
            raise ValueError("instances come from more than one agent or time")
        return cls(
            state_rows(inst.state for inst in instances),
            np.array([inst.feature for inst in instances]).reshape(len(instances), dims.pop() if dims else 0),
            np.array([inst.confidence for inst in instances], dtype=np.float64),
            *(np.array([getattr(i, name) for i in instances], dtype=object) for name in ("class_id", "track_id")),
            *(origins.pop() if origins else ()),
        )

    def __len__(self) -> int:
        return len(self.states)

    def __getitem__(self, rows: np.ndarray) -> InstanceBatch:
        """The rows an index array (or mask) selects, in its order."""
        return InstanceBatch(self.states[rows], self.features[rows], self.confidences[rows],
                             self.class_ids[rows], self.track_ids[rows], self.source_agent, self.observed_at)

    def instances(self) -> list[Instance]:
        """Each row as an ``Instance`` whose feature is a read-only array of its own
        (a view would keep the whole batch alive as long as the instance)."""
        features = [row.copy() for row in self.features]
        for feature in features:
            feature.setflags(write=False)
        origin = self.source_agent, self.observed_at
        columns = (self.states.tolist(), features, self.confidences.tolist(),
                   self.class_ids.tolist(), self.track_ids.tolist())
        return [Instance._trusted(StateVector._trusted(s), f, c, k, i, *origin) for s, f, c, k, i in zip(*columns)]


def _check_records(states: np.ndarray, features: np.ndarray, confidence: np.ndarray, observed_at: Timestamp) -> None:
    """Check N sensed or decoded records as one batch.

    Features are not yet unit norm (``normalize_feature`` normalizes them and
    rejects a zero norm) nor confidences clipped to [0, 1];
    ``normalize_heading`` checks each heading as decode normalizes it.

    Raises:
        ValueError: on a non-finite state or feature value, a box dimension
            <= 0, a NaN confidence or (with records) a negative timestamp.
    """
    if len(states) and observed_at < 0:
        raise ValueError("observed_at must be non-negative")
    if not (
        np.isfinite(states).all() and np.isfinite(features).all()
        and (states[:, 3:6] > 0).all() and not np.isnan(confidence).any()
    ):
        raise ValueError("a record has a non-finite value, a box dimension <= 0 or a NaN confidence")


def _check_finite_sign(params: object, names: Sequence[str], positive: bool = False) -> None:
    """Raise ValueError unless each named field of ``params`` is finite and >= 0 (> 0 if ``positive``)."""
    for name in names:
        value = getattr(params, name)
        if not (0 < value < math.inf if positive else 0 <= value < math.inf):
            problem = ("positive" if positive else "non-negative") if math.isfinite(value) else "finite"
            raise ValueError(f"{name} must be {problem}, got {value!r}")


def _unsigned_zeros(config: object) -> None:
    """Store each float field of the frozen dataclass ``config`` (or float in a tuple of floats) that equals
    zero as 0.0: -0.0 passes every range rule, and would reach the output and the config hash as zero's second
    spelling."""
    for f in fields(config):
        value = getattr(config, f.name)
        if isinstance(value, float) and value == 0.0:
            object.__setattr__(config, f.name, 0.0)
        elif isinstance(value, tuple) and value and all(isinstance(v, float) for v in value):
            object.__setattr__(config, f.name, tuple(0.0 if v == 0.0 else v for v in value))


def _unit(column: np.ndarray) -> np.ndarray:
    norm = math.sqrt(column.dot(column))  # np.linalg.norm's own formula, without its per-call checks
    if not DEGENERATE_TOL <= norm < math.inf:  # NaN fails it too
        raise ValueError(f"a rotation column of norm {norm!r} has no direction")
    return column / norm


def _orthonormalized(matrix: np.ndarray) -> np.ndarray:
    # Gram-Schmidt on the first two columns, each checked before its projection (where inf warns); the
    # third comes from the cross product, which also pins the determinant to +1.
    c0, m1 = _unit(matrix[:, 0]), matrix[:, 1]
    _unit(m1)
    c1 = _unit(m1 - m1.dot(c0) * c0)
    (x0, y0, z0), (x1, y1, z1) = c0.tolist(), c1.tolist()
    # np.cross's products and differences, in its order, without its per-call cost.
    return np.array([(x0, x1, y0 * z1 - z0 * y1), (y0, y1, z0 * x1 - x0 * z1), (z0, z1, x0 * y1 - y0 * x1)])


def _drift(rotation: np.ndarray) -> float:
    return np.abs(rotation @ rotation.T - _IDENTITY).max()  # array methods skip np.max's dispatch cost


def yaw_rotation(yaw: float) -> np.ndarray:
    """The rotation about +z by ``yaw`` radians."""
    c, s = math.cos(yaw), math.sin(yaw)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


@dataclass(frozen=True, eq=False)
class RigidTransform:
    """A proper rigid motion: orthonormal 3x3 rotation plus translation."""

    rotation: np.ndarray
    translation: np.ndarray

    def __post_init__(self) -> None:
        rotation = np.array(self.rotation, dtype=np.float64)
        translation = np.array(self.translation, dtype=np.float64)
        if rotation.shape != (3, 3):
            raise ValueError(f"rotation must be 3x3, got {rotation.shape}")
        if translation.shape != (3,):
            raise ValueError(f"translation must be a 3-vector, got {translation.shape}")
        # NaN fails each check (it compares false to everything); a non-finite entry skips the product (inf warns).
        (a, b, c), (d, e, f), (g, h, i) = rotation.tolist()
        drift = _drift(rotation) if math.isfinite(a + b + c + d + e + f + g + h + i) else math.nan
        if not drift <= ROTATION_TOL:
            raise ValueError(f"rotation is not orthonormal, drift {drift:.3e}")
        if not abs(a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g) - 1.0) <= ROTATION_TOL:
            raise ValueError("rotation must have determinant +1")
        if not np.isfinite(translation).all():
            raise ValueError("translation is not finite")
        rotation.setflags(write=False)
        translation.setflags(write=False)
        object.__setattr__(self, "rotation", rotation)
        object.__setattr__(self, "translation", translation)

    @classmethod
    def _trusted(cls, rotation: np.ndarray, translation: np.ndarray) -> RigidTransform:
        """The transform of a float64 rotation and translation derived from valid ones, unchecked. It keeps the two
        arrays as they are, made read-only, so each must be fresh or already read-only."""
        self = object.__new__(cls)
        rotation.setflags(write=False)
        translation.setflags(write=False)
        self.__dict__.update(rotation=rotation, translation=translation)
        return self

    @classmethod
    def identity(cls) -> "RigidTransform":
        return cls._trusted(np.eye(3), np.zeros(3))

    @classmethod
    def from_yaw(cls, yaw: float, translation=(0.0, 0.0, 0.0)) -> "RigidTransform":
        """Rotation about +z by ``yaw`` radians, then translate."""
        return cls(yaw_rotation(yaw), np.asarray(translation, dtype=np.float64))

    @property
    def yaw(self) -> float:
        """Rotation angle about +z implied by the first column."""
        return math.atan2(self.rotation[1, 0], self.rotation[0, 0])


def compose(a: RigidTransform, b: RigidTransform) -> RigidTransform:
    """The transform applying ``b`` first, then ``a``."""
    rotation = a.rotation @ b.rotation
    translation = a.rotation @ b.translation + a.translation
    if _drift(rotation) > ROTATION_TOL:
        rotation = _orthonormalized(rotation)
    return RigidTransform._trusted(rotation, translation)


def invert(t: RigidTransform) -> RigidTransform:
    """The inverse motion: R^T, -R^T t."""
    rt = t.rotation.T
    return RigidTransform._trusted(rt, -(rt @ t.translation))


def relative_transform(ego: RigidTransform, coop: RigidTransform) -> RigidTransform:
    """Transform mapping coop-frame coordinates into the ego frame.

    Both arguments are agent poses (agent frame -> global frame). They may
    be taken at different times; each agent's pose at its own time is
    exactly what a latency-compensated pipeline needs.
    """
    return compose(invert(ego), coop)


class GroundTruthObject(NamedTuple):
    """A reference object used by scene generation and evaluation."""

    object_id: int
    class_id: int
    state: StateVector


ClassColumns = dict[int, list[tuple[float, float]]]  # each class's (x, y) points, sorted, as ``nearest`` reads them


def nearest(column: Sequence[tuple[float, float]], x: float, y: float, limit: float = math.inf) -> float:
    """The least ``math.hypot(x - gx, y - gy)`` over an x-sorted column of ``(gx, gy)`` (inf if empty) when it is at
    most ``limit``, else some distance above ``limit``. Each direction outward from x stops at the first ``|x - gx|``
    above a reach, ``limit`` shrunk to the best found: ``hypot(dx, dy) >= |dx|`` for the same rounded ``x - gx``."""
    split, best, reach = bisect.bisect_left(column, (x,)), math.inf, limit
    for side in (column[split:], reversed(column[:split])):
        for gx, gy in side:
            dx = x - gx
            if abs(dx) > reach:
                break
            d = math.hypot(dx, y - gy)
            if d < best:
                best, reach = d, min(d, reach)
    return best


def pairs_within(
    queries: np.ndarray, query_classes: np.ndarray, refs: np.ndarray, ref_classes: np.ndarray, radius: float
) -> list[tuple[int, int, float]]:
    """Every same-class ``(query, ref, distance)`` pair within ``radius``, row-major (by query,
    then by ref). Positions are (n, 2) planar x, y; the distance is ``math.hypot(qx - x, qy - y)``."""
    dx = queries[:, 0, None] - refs[:, 0]
    dy = queries[:, 1, None] - refs[:, 1]
    # hypot(dx, dy) >= |dx|, |dy|: the box holds every pair within the radius; slack for a last-bit hypot error.
    reach = radius * (1.0 + 2.0**-40)
    box = (np.abs(dx) <= reach) & (np.abs(dy) <= reach) & (query_classes[:, None] == ref_classes)
    distances = map(math.hypot, dx[box].tolist(), dy[box].tolist())
    return [(i, j, d) for i, j, d in zip(*(a.tolist() for a in np.nonzero(box)), distances) if d <= radius]


def greedy_nearest(pairs: Iterable[tuple[int, int, float]], count: int, limit: float) -> list[Optional[tuple]]:
    """Each of ``count`` queries in turn takes its nearest ref within ``limit`` that no earlier
    query took, the later of equally near ones: ``(ref, distance)`` or None. ``pairs`` are
    row-major ``(query, ref, distance)``, as ``pairs_within`` gives them, so a query's pick
    is final when the next query's pairs start."""
    picks: list[Optional[tuple[int, float]]] = [None] * count
    taken, row, best, best_d = set(), -1, None, limit
    for i, j, d in pairs:
        if i != row:
            taken.add(best)  # None never matches an index
            row, best, best_d = i, None, limit
        if d <= best_d and j not in taken:
            best, best_d = j, d
            picks[i] = (j, d)
    return picks
