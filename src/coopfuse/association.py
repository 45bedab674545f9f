"""Cross-agent matching: ROI filtering, interaction gating, cost, assignment.

The caller cuts each side to the ego ROI once (``filter_roi``). The chain
then splits both sides at the interaction range (only the trusted near
field is fused; the far field passes through untouched), builds a
geometry-plus-appearance cost matrix, and solves a one-to-one minimum-cost
assignment. The rule is solve, then demote: the assignment is solved over
the whole matrix, and an assigned pair costing more than the threshold is
then demoted to unmatched. A pair the solve did not choose is not restored,
so a gated-out pair can still cost a cheaper one its match (ROADMAP item 12).
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np
from scipy.optimize import linear_sum_assignment

from .core import Instance, _check_finite_sign, _unsigned_zeros, state_rows

_TIE_REL_TOL = 1e-9


@dataclass(frozen=True)
class RoiSpec:
    """Axis-aligned region of interest in the ego frame (closed boundaries)."""

    x_half: float = 51.2
    y_half: float = 51.2
    z_min: float = -3.0
    z_max: float = 3.0

    def __post_init__(self) -> None:
        _unsigned_zeros(self)
        _check_finite_sign(self, ("x_half", "y_half"), positive=True)
        if not -math.inf < self.z_min < self.z_max < math.inf:
            raise ValueError(f"ROI requires finite z_min < z_max, got ({self.z_min!r}, {self.z_max!r})")

    def contains(self, state) -> bool:
        return (
            abs(state.x) <= self.x_half
            and abs(state.y) <= self.y_half
            and self.z_min <= state.z <= self.z_max
        )


@dataclass(frozen=True)
class MatchWeights:
    """Weights of the matching cost.

    The geometric part is a weighted L1 distance over the 11 state
    components (per-group weights for position, dimensions, heading,
    velocity); the appearance part is ``alpha`` times the cosine distance
    between unit features. Assigned pairs costing more than
    ``cost_threshold`` are demoted to unmatched.
    """

    w_pos: float = 1.0
    w_dim: float = 0.5
    w_heading: float = 1.0
    w_vel: float = 0.5
    alpha: float = 1.0
    cost_threshold: float = 5.0

    def __post_init__(self) -> None:
        _unsigned_zeros(self)
        weights = {name: getattr(self, name) for name in ("w_pos", "w_dim", "w_heading", "w_vel", "alpha")}
        for name, w in weights.items():
            if not 0 <= w < math.inf:
                problem = "finite" if w == math.inf else "non-negative"
                raise ValueError(f"weights must be {problem}, got {name}={w!r}")
        if not any(w > 0 for w in weights.values()):
            raise ValueError("at least one weight must be positive")
        _check_finite_sign(self, ("cost_threshold",), positive=True)

    def state_weights(self) -> np.ndarray:
        """Per-component weights in state-vector order."""
        return np.array(
            [self.w_pos] * 3 + [self.w_dim] * 3 + [self.w_heading] * 2 + [self.w_vel] * 3
        )


@dataclass
class AssociationResult:
    """Partition of the association inputs into the four output groups."""

    matched: list[tuple[Instance, Instance, float]] = field(default_factory=list)
    unmatched_ego: list[Instance] = field(default_factory=list)
    unmatched_coop_near: list[Instance] = field(default_factory=list)
    coop_far: list[Instance] = field(default_factory=list)


def filter_roi(instances: Sequence[Instance], roi: RoiSpec) -> list[Instance]:
    """Keep instances (or anything with a ``state``) inside the ROI (closed boundaries), preserving order."""
    return [inst for inst in instances if roi.contains(inst.state)]


def gate_interaction(
    instances: Sequence[Instance], r_int: float
) -> tuple[list[Instance], list[Instance]]:
    """Split instances at planar distance ``r_int`` from the ego origin.

    Returns (near, far); the boundary itself counts as near. Order is
    preserved within both lists.
    """
    if not r_int > 0:  # NaN fails it too
        raise ValueError("interaction range must be positive")
    near, far = [], []
    for inst in instances:
        if math.hypot(inst.state.x, inst.state.y) <= r_int:
            near.append(inst)
        else:
            far.append(inst)
    return near, far


def _cost_parts(ego_states, ego_features, coop_states, coop_features) -> tuple[np.ndarray, np.ndarray]:
    """The cost matrix's weight-free parts over (n, 11)/(n, D) ego and (m, 11)/(m, D) remote columns:
    the (n, m, 11) absolute state differences and the (n, m) cosine distance."""
    return np.abs(ego_states[:, None, :] - coop_states), 1.0 - ego_features @ coop_features.T


def _cost_matrix(egos: Sequence[Instance], coops: Sequence[Instance], w: MatchWeights) -> np.ndarray:
    diff, dist = _cost_parts(state_rows(inst.state for inst in egos), np.array([inst.feature for inst in egos]),
                             state_rows(inst.state for inst in coops), np.array([inst.feature for inst in coops]))
    return diff @ w.state_weights() + w.alpha * dist


def solve_assignment(cost: np.ndarray) -> list[tuple[int, int]]:
    """Minimum-total-cost one-to-one assignment over a cost matrix.

    Returns min(n, m) (row, col) pairs sorted by row. inf cells are
    forbidden: when no min(n, m) pairs with distinct rows and columns
    avoid them, scipy's ``ValueError: cost matrix is infeasible``
    propagates. When several assignments tie on total cost, the
    lexicographically smallest pair list wins, so the output is a stable
    contract under ties.
    """
    cost = np.asarray(cost, dtype=np.float64)
    if cost.size == 0:
        return []
    n, m = cost.shape
    if n > m:
        # Zero-cost dummy columns leave rows out; a dummy sorts after every real column.
        cost = np.hstack([cost, np.zeros((n, n - m))])
    rows, witness = linear_sum_assignment(cost)
    best = float(cost[rows, witness].sum())
    tol = _TIE_REL_TOL * max(1.0, abs(best))
    witness, free, fixed, penalty = witness.tolist(), list(range(cost.shape[1])), 0.0, None
    for i in range(n):
        # While a free real column lies left of row i's witness, re-solve rows i.. with row i
        # barred from the witness and the columns right of it; an optimal completion moves the witness.
        while free[0] < min(witness[i], m):
            if penalty is None:  # Any total through a penalised cell exceeds best + tol; inf cells stay forbidden.
                penalty = (float(np.abs(cost[np.isfinite(cost)]).max()) + 1.0) * (n + 1)
            sub = cost[i:, free]
            sub[0, bisect_left(free, min(witness[i], m)):] += penalty
            sub_rows, sub_cols = linear_sum_assignment(sub)
            if fixed + float(sub[sub_rows, sub_cols].sum()) > best + tol:
                break
            witness[i:] = [free[j] for j in sub_cols.tolist()]
        free.remove(witness[i])
        fixed += float(cost[i, witness[i]])
    return [(i, j) for i, j in enumerate(witness) if j < m]


def _kept_pairs(cost: np.ndarray, threshold: float) -> list[tuple[int, int, float]]:
    """The (row, col, cost) pairs of the assignment over ``cost`` that cost at most ``threshold``."""
    pairs = [(i, j, float(cost[i, j])) for i, j in solve_assignment(cost)]
    return [(i, j, pair_cost) for i, j, pair_cost in pairs if pair_cost <= threshold]


def match(ego_set: Sequence[Instance], coop_near: Sequence[Instance], w: MatchWeights) -> AssociationResult:
    """Optimally pair near-field ego and remote instances.

    Solves the global minimum-cost assignment over the full cost matrix,
    then demotes any assigned pair costing more than ``w.cost_threshold``.
    The returned result has an empty ``coop_far`` group; callers that gate
    by interaction range fill it in (see :func:`associate`).
    """
    if not ego_set or not coop_near:
        return AssociationResult(unmatched_ego=list(ego_set), unmatched_coop_near=list(coop_near))
    kept = _kept_pairs(_cost_matrix(ego_set, coop_near, w), w.cost_threshold)
    matched_ego, matched_coop = {i for i, _, _ in kept}, {j for _, j, _ in kept}
    return AssociationResult(
        matched=[(ego_set[i], coop_near[j], pair_cost) for i, j, pair_cost in kept],
        unmatched_ego=[inst for k, inst in enumerate(ego_set) if k not in matched_ego],
        unmatched_coop_near=[inst for k, inst in enumerate(coop_near) if k not in matched_coop],
    )


def associate(
    ego_instances: Sequence[Instance], coop_instances: Sequence[Instance], r_int: float, w: MatchWeights
) -> AssociationResult:
    """Run the association chain on aligned inputs that the caller has cut to the ROI.

    Both sides are split at the interaction range; matching runs between
    near-field instances from both sides. Far-field ego instances are
    carried as unmatched, far-field remote instances pass through as
    ``coop_far``.
    """
    coop_near, coop_far = gate_interaction(coop_instances, r_int)
    ego_near, ego_far = gate_interaction(ego_instances, r_int)
    result = match(ego_near, coop_near, w)
    result.unmatched_ego.extend(ego_far)
    result.coop_far = coop_far
    return result
