"""Cross-agent matching: ROI filtering, interaction gating, cost, assignment.

The chain is: drop remote instances outside the ego ROI, split the rest at
the interaction range (only the trusted near field is fused; the far field
passes through untouched), build a geometry-plus-appearance cost matrix,
and solve a one-to-one minimum-cost assignment. Pairs whose cost exceeds
the threshold are demoted to unmatched after the global solve, so a bad
pair never forces a worse global assignment.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np
from scipy.optimize import linear_sum_assignment

from .core import Instance, state_rows

_TIE_REL_TOL = 1e-9


@dataclass(frozen=True)
class RoiSpec:
    """Axis-aligned region of interest in the ego frame (closed boundaries)."""

    x_half: float = 51.2
    y_half: float = 51.2
    z_min: float = -3.0
    z_max: float = 3.0

    def __post_init__(self) -> None:
        if not (self.x_half > 0 and self.y_half > 0):
            raise ValueError("ROI half-extents must be positive")
        if not self.z_min < self.z_max:
            raise ValueError("ROI requires z_min < z_max")

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
        weights = (self.w_pos, self.w_dim, self.w_heading, self.w_vel, self.alpha)
        if not all(w >= 0 for w in weights):
            raise ValueError("weights must be non-negative")
        if not all(math.isfinite(w) for w in weights):
            raise ValueError("weights must be finite")
        if not any(w > 0 for w in weights):
            raise ValueError("at least one weight must be positive")
        if not self.cost_threshold > 0:
            raise ValueError("cost_threshold must be positive")

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
    """Keep instances inside the ROI (closed boundaries), preserving order."""
    return [inst for inst in instances if roi.contains(inst.state)]


def gate_interaction(
    instances: Sequence[Instance], r_int: float
) -> tuple[list[Instance], list[Instance]]:
    """Split instances at planar distance ``r_int`` from the ego origin.

    Returns (near, far); the boundary itself counts as near. Order is
    preserved within both lists.
    """
    if r_int <= 0:
        raise ValueError("interaction range must be positive")
    near, far = [], []
    for inst in instances:
        if math.hypot(inst.state.x, inst.state.y) <= r_int:
            near.append(inst)
        else:
            far.append(inst)
    return near, far


def _cost_parts(egos: Sequence[Instance], coops: Sequence[Instance]) -> tuple[np.ndarray, np.ndarray]:
    """The cost matrix's weight-free parts: the (n, m, 11) absolute state differences, the cosine distance."""
    diff = state_rows(inst.state for inst in egos)[:, None, :] - state_rows(inst.state for inst in coops)
    ego_feats = np.array([inst.feature for inst in egos])
    coop_feats = np.array([inst.feature for inst in coops])
    return np.abs(diff), 1.0 - ego_feats @ coop_feats.T


def _cost_matrix(egos: Sequence[Instance], coops: Sequence[Instance], w: MatchWeights) -> np.ndarray:
    diff, dist = _cost_parts(egos, coops)
    return diff @ w.state_weights() + w.alpha * dist


def _tie_tol(best: float) -> float:
    return _TIE_REL_TOL * max(1.0, abs(best))


def _optimum_is_unique(cost: np.ndarray, rows, cols, best: float) -> bool:
    # Forbidding any chosen pair must strictly worsen the total; a large
    # finite penalty keeps degenerate shapes feasible.
    penalty = (float(np.abs(cost).max()) + 1.0) * (len(rows) + 1)
    tol = _tie_tol(best)
    probe = cost.copy()
    for r, c in zip(rows, cols):
        probe[r, c] += penalty
        pr, pc = linear_sum_assignment(probe)
        if float(probe[pr, pc].sum()) <= best + tol:
            return False
        probe[r, c] = cost[r, c]
    return True


def _lex_smallest_assignment(cost: np.ndarray, best: float) -> list[tuple[int, int]]:
    # Fix pairs greedily in (row, col) order, keeping only choices that an
    # exact re-solve certifies as still optimal. Rows are only left out when
    # no column preserves the optimum (possible only for n > m).
    n, m = cost.shape
    size = min(n, m)
    tol = _tie_tol(best)
    pairs: list[tuple[int, int]] = []
    free_cols = list(range(m))
    fixed_cost = 0.0
    for i in range(n):
        if len(pairs) == size:
            break
        remaining_rows = [r for r in range(i + 1, n)]
        chosen = None
        for j in free_cols:
            need = size - len(pairs) - 1
            rest_cols = [c for c in free_cols if c != j]
            if need > 0:
                sub = cost[np.ix_(remaining_rows, rest_cols)]
                sr, sc = linear_sum_assignment(sub)
                completion = float(sub[sr, sc].sum())
            else:
                completion = 0.0
            if fixed_cost + cost[i, j] + completion <= best + tol:
                chosen = j
                break
        if chosen is not None:
            pairs.append((i, chosen))
            free_cols.remove(chosen)
            fixed_cost += float(cost[i, chosen])
    return pairs


def solve_assignment(cost: np.ndarray) -> list[tuple[int, int]]:
    """Minimum-total-cost one-to-one assignment over a cost matrix.

    Returns min(n, m) (row, col) pairs sorted by row. When several
    assignments tie on total cost, the lexicographically smallest pair
    list wins, so the output is a stable contract under ties.
    """
    cost = np.asarray(cost, dtype=np.float64)
    if cost.size == 0:
        return []
    rows, cols = linear_sum_assignment(cost)
    best = float(cost[rows, cols].sum())
    if _optimum_is_unique(cost, rows, cols, best):
        return sorted(zip(rows.tolist(), cols.tolist()))
    return _lex_smallest_assignment(cost, best)


def _match_on_cost(
    ego_set: Sequence[Instance], coop_near: Sequence[Instance], cost: np.ndarray, threshold: float
) -> AssociationResult:
    """Solve the assignment over ``cost`` (ego rows, remote columns), demote the pairs
    costing more than ``threshold`` and partition the inputs."""
    pairs = [(i, j, float(cost[i, j])) for i, j in solve_assignment(cost)]
    kept = [(i, j, pair_cost) for i, j, pair_cost in pairs if pair_cost <= threshold]
    matched_ego, matched_coop = {i for i, _, _ in kept}, {j for _, j, _ in kept}
    return AssociationResult(
        matched=[(ego_set[i], coop_near[j], pair_cost) for i, j, pair_cost in kept],
        unmatched_ego=[inst for k, inst in enumerate(ego_set) if k not in matched_ego],
        unmatched_coop_near=[inst for k, inst in enumerate(coop_near) if k not in matched_coop],
    )


def match(ego_set: Sequence[Instance], coop_near: Sequence[Instance], w: MatchWeights) -> AssociationResult:
    """Optimally pair near-field ego and remote instances.

    Solves the global minimum-cost assignment over the full cost matrix,
    then demotes any assigned pair costing more than ``w.cost_threshold``.
    The returned result has an empty ``coop_far`` group; callers that gate
    by interaction range fill it in (see :func:`associate`).
    """
    if not ego_set or not coop_near:
        return AssociationResult(unmatched_ego=list(ego_set), unmatched_coop_near=list(coop_near))
    return _match_on_cost(ego_set, coop_near, _cost_matrix(ego_set, coop_near, w), w.cost_threshold)


def associate(
    ego_instances: Sequence[Instance],
    coop_instances: Sequence[Instance],
    roi: RoiSpec,
    r_int: float,
    w: MatchWeights,
) -> AssociationResult:
    """Run the full association chain on already-aligned inputs.

    Remote instances are ROI-filtered and split at the interaction range;
    matching runs between near-field instances from both sides. Far-field
    ego instances are carried as unmatched, far-field remote instances
    pass through as ``coop_far``.
    """
    coop_in_roi = filter_roi(coop_instances, roi)
    coop_near, coop_far = gate_interaction(coop_in_roi, r_int)
    ego_near, ego_far = gate_interaction(ego_instances, r_int)
    result = match(ego_near, coop_near, w)
    result.unmatched_ego.extend(ego_far)
    result.coop_far = coop_far
    return result
