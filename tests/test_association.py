"""ROI filtering, interaction gating, the matching cost, and assignment."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays
from scipy.optimize import linear_sum_assignment

from coopfuse import association
from coopfuse.association import (
    MatchWeights,
    RoiSpec,
    _cost_matrix,
    _cost_parts,
    _kept_pairs,
    associate,
    filter_roi,
    gate_interaction,
    match,
    solve_assignment,
)
from conftest import make_instance
from oracles import (
    brute_force_lex_assignment,
    brute_force_matched_total,
    brute_force_min_total,
    reference_pair_cost,
)


def pair_cost(ego, coop, w):
    return float(_cost_matrix([ego], [coop], w)[0, 0])


class TestFilterRoi:
    roi = RoiSpec(x_half=51.2, y_half=51.2, z_min=-3.0, z_max=3.0)

    def test_empty(self):
        assert filter_roi([], self.roi) == []

    def test_closed_boundary(self):
        inst = make_instance(x=51.2)
        assert filter_roi([inst], self.roi) == [inst]

    def test_hand_case(self):
        instances = [make_instance(x=x) for x in (10.0, 60.0, -70.0)]
        kept = filter_roi(instances, self.roi)
        assert kept == [instances[0]]

    def test_z_band(self):
        assert filter_roi([make_instance(z=5.0)], self.roi) == []

    def test_order_preserved(self):
        instances = [make_instance(x=x) for x in (3.0, -2.0, 1.0)]
        assert filter_roi(instances, self.roi) == instances


class TestGateInteraction:
    def test_huge_range_takes_all(self):
        instances = [make_instance(x=x) for x in (1.0, 40.0)]
        near, far = gate_interaction(instances, 1e9)
        assert near == instances and far == []

    def test_three_four_five_boundary_is_near(self):
        inst = make_instance(x=30.0, y=40.0)
        near, far = gate_interaction([inst], 50.0)
        assert near == [inst] and far == []

    def test_split(self):
        instances = [make_instance(x=d) for d in (10.0, 29.0, 31.0)]
        near, far = gate_interaction(instances, 30.0)
        assert near == instances[:2]
        assert far == instances[2:]

    def test_nan_range_raises(self):
        with pytest.raises(ValueError, match="interaction range must be positive"):
            gate_interaction([make_instance()], math.nan)


class TestGeoAppearanceCost:
    def test_identical_is_zero(self):
        a = make_instance(feature_seed=5)
        b = make_instance(feature_seed=5)
        assert pair_cost(a, b, MatchWeights()) == pytest.approx(0.0, abs=1e-12)

    def test_orthogonal_features(self):
        f1 = np.zeros(4); f1[0] = 1.0
        f2 = np.zeros(4); f2[1] = 1.0
        a = make_instance(feature=f1)
        b = make_instance(feature=f2)
        assert pair_cost(a, b, MatchWeights(alpha=1.0)) == pytest.approx(1.0)

    def test_single_axis_offset(self):
        a = make_instance(x=0.0, feature_seed=5)
        b = make_instance(x=2.0, feature_seed=5)
        cost = pair_cost(a, b, MatchWeights(w_pos=1.0))
        assert cost == pytest.approx(2.0, abs=1e-12)

    def test_symmetry_exact(self, rng):
        for _ in range(50):
            a = make_instance(x=rng.uniform(-5, 5), yaw=rng.uniform(-3, 3), feature_seed=1)
            b = make_instance(x=rng.uniform(-5, 5), yaw=rng.uniform(-3, 3), feature_seed=2)
            w = MatchWeights()
            assert pair_cost(a, b, w) == pair_cost(b, a, w)

    def test_matrix_equals_reference(self, rng):
        for _ in range(20):
            w = MatchWeights(*rng.uniform(0.1, 2.0, 5))
            ego = [make_instance(x=rng.uniform(-5, 5), yaw=rng.uniform(-3, 3), vx=rng.uniform(-5, 5),
                                 feature_seed=i) for i in range(3)]
            coop = [make_instance(y=rng.uniform(-5, 5), yaw=rng.uniform(-3, 3), feature_seed=i + 10)
                    for i in range(4)]
            want = [[reference_pair_cost(e, c, w) for c in coop] for e in ego]
            np.testing.assert_allclose(_cost_matrix(ego, coop, w), want, rtol=0, atol=1e-12)

    def test_an_empty_side_gives_empty_parts(self, rng):
        # Columns of a 0-row and a 3-row view keep their (n, m) shapes, in either order.
        empty = np.zeros((0, 11)), np.zeros((0, 8))
        full = rng.normal(size=(3, 11)), rng.normal(size=(3, 8))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for ego, coop, shape in ((empty, full, (0, 3)), (full, empty, (3, 0)), (empty, empty, (0, 0))):
                diff, dist = _cost_parts(*ego, *coop)
                assert (diff.shape, dist.shape) == ((*shape, 11), shape)


class TestSolveAssignment:
    def test_hand_diagonal(self):
        pairs = solve_assignment(np.array([[1.0, 10.0], [10.0, 1.0]]))
        assert pairs == [(0, 0), (1, 1)]

    def test_optimal_beats_greedy(self):
        # Greedy would take (0,0)+(1,1) for 101; the optimum is 4.
        cost = np.array([[1.0, 2.0], [2.0, 100.0]])
        pairs = solve_assignment(cost)
        assert pairs == [(0, 1), (1, 0)]
        assert sum(cost[i, j] for i, j in pairs) == pytest.approx(4.0)

    def test_lexicographic_ties(self):
        assert solve_assignment(np.ones((2, 2))) == [(0, 0), (1, 1)]
        assert solve_assignment(np.zeros((1, 3))) == [(0, 0)]
        assert solve_assignment(np.zeros((3, 2))) == [(0, 0), (1, 1)]
        # Equal totals (2+4 = 3+3): the lexicographically smaller pairing wins.
        assert solve_assignment(np.array([[2.0, 3.0], [3.0, 4.0]])) == [(0, 0), (1, 1)]

    @pytest.mark.parametrize(
        "cost",
        [np.ones((3, 3)), np.array([[2.0, 2.0, 5.0], [2.0, 2.0, 5.0]]), np.array([[1.0, 1.0], [1.0, 1.0], [0.0, 3.0]])],
    )
    def test_leaves_its_input_unchanged(self, cost):
        # Every case ties, so the descent re-solves penalised copies of the same matrix.
        before = cost.copy()
        pairs = solve_assignment(cost)
        assert cost.tobytes() == before.tobytes()
        assert pairs == brute_force_lex_assignment(cost)

    @settings(max_examples=300, deadline=None)
    @given(cost=arrays(np.float64, array_shapes(min_dims=2, max_dims=2, max_side=5),
                       elements=st.sampled_from([-1.0, 0.0, 1.0, 2.0, math.inf])))
    def test_equals_the_lexicographic_oracle(self, cost):
        # Small integer costs tie often, both shapes leave rows or columns out, and inf cells are forbidden.
        try:
            want = brute_force_lex_assignment(cost)
        except ValueError:
            with pytest.raises(ValueError):
                solve_assignment(cost)
        else:
            assert solve_assignment(cost) == want

    def test_inf_cells_are_forbidden(self):
        assert solve_assignment(np.array([[1.0, math.inf], [math.inf, 2.0]])) == [(0, 0), (1, 1)]
        assert solve_assignment(np.array([[math.inf, 1.0, 1.0]])) == [(0, 1)]
        assert solve_assignment(np.array([[math.inf], [1.0], [1.0]])) == [(1, 0)]
        # Rows left out take no column, so only one row needs a finite cell.
        assert solve_assignment(np.array([[math.inf], [math.inf], [1.0]])) == [(2, 0)]

    @pytest.mark.parametrize("cost", [
        [[1.0, math.inf], [math.inf, math.inf]],
        [[math.inf, math.inf]],
        [[1.0, math.inf], [1.0, math.inf]],
        [[math.inf, math.inf], [math.inf, math.inf], [1.0, 2.0]],
    ])
    def test_no_min_n_m_pairs_off_the_inf_cells_raises(self, cost):
        # Demoting a row of forbidden cells is the caller's job; scipy's error propagates.
        with pytest.raises(ValueError, match="^cost matrix is infeasible$"):
            solve_assignment(np.array(cost))

    def test_a_nan_cell_raises(self):
        with pytest.raises(ValueError):
            solve_assignment(np.array([[1.0, math.nan], [2.0, 3.0]]))

    def test_a_unique_optimum_takes_one_solve(self, rng, monkeypatch):
        # The harness shape: a 12 x 12 matrix whose only optimum is the diagonal.
        calls = []

        def counting(cost):
            calls.append(cost.shape)
            return linear_sum_assignment(cost)

        monkeypatch.setattr(association, "linear_sum_assignment", counting)
        cost = rng.uniform(5.0, 10.0, (12, 12))
        np.fill_diagonal(cost, 1.0)
        assert solve_assignment(cost) == [(i, i) for i in range(12)]
        assert calls == [(12, 12)]

    def test_matches_brute_force(self, rng):
        for _ in range(150):
            n, m = rng.integers(1, 8, 2)
            cost = rng.uniform(0, 10, (int(n), int(m)))
            pairs = solve_assignment(cost)
            total = sum(cost[i, j] for i, j in pairs)
            assert total == pytest.approx(brute_force_min_total(cost), abs=1e-9)


class TestMatch:
    w = MatchWeights(w_pos=1.0, w_dim=0.5, w_heading=1.0, w_vel=0.5, alpha=0.0,
                     cost_threshold=5.0)

    def test_empty_ego(self):
        coop = [make_instance(x=1.0)]
        result = match([], coop, self.w)
        assert result.matched == []
        assert result.unmatched_coop_near == coop

    def test_one_to_one(self):
        ego = [make_instance(x=0.0, feature_seed=1)]
        coop = [make_instance(x=1.0, feature_seed=1)]
        result = match(ego, coop, self.w)
        assert len(result.matched) == 1
        e, c, cost = result.matched[0]
        assert cost == pytest.approx(1.0, abs=1e-12)
        assert result.unmatched_ego == [] and result.unmatched_coop_near == []

    def test_threshold_demotion_is_strict(self):
        ego = [make_instance(x=0.0, feature_seed=1)]
        at_threshold = [make_instance(x=5.0, feature_seed=1)]
        result = match(ego, at_threshold, self.w)
        assert len(result.matched) == 1  # cost == threshold stays matched
        beyond = [make_instance(x=5.000001, feature_seed=1)]
        result = match(ego, beyond, self.w)
        assert result.matched == []
        assert result.unmatched_ego == ego
        assert result.unmatched_coop_near == beyond

    def test_demotion_follows_the_solve(self):
        # The module docstring's case: the solve picks 7 and 900, so at 6.5 the cost-1 pair is lost too.
        cost = np.array([[1.0, 7.0], [900.0, 1000.0]])
        assert solve_assignment(cost) == [(0, 1), (1, 0)]
        assert _kept_pairs(cost, 6.5) == []
        assert _kept_pairs(cost, 900.0) == [(0, 1, 7.0), (1, 0, 900.0)]

    def test_partition_property(self, rng):
        for _ in range(30):
            ego = [
                make_instance(x=rng.uniform(-20, 20), y=rng.uniform(-20, 20),
                              feature_seed=int(i), track_id=i)
                for i in range(rng.integers(0, 6))
            ]
            coop = [
                make_instance(x=rng.uniform(-20, 20), y=rng.uniform(-20, 20),
                              feature_seed=int(100 + i), track_id=100 + i, source_agent=1)
                for i in range(rng.integers(0, 6))
            ]
            result = match(ego, coop, self.w)
            matched_ego = [e for e, _, _ in result.matched]
            matched_coop = [c for _, c, _ in result.matched]
            assert sorted(
                id(x) for x in matched_ego + result.unmatched_ego
            ) == sorted(id(x) for x in ego)
            assert sorted(
                id(x) for x in matched_coop + result.unmatched_coop_near
            ) == sorted(id(x) for x in coop)

    def test_threshold_monotonicity(self, rng):
        for _ in range(20):
            ego = [make_instance(x=rng.uniform(-10, 10), feature_seed=i) for i in range(4)]
            coop = [make_instance(x=rng.uniform(-10, 10), feature_seed=i + 50) for i in range(5)]
            counts = []
            for threshold in (0.5, 1.0, 2.0, 5.0, 20.0):
                w = MatchWeights(alpha=0.0, cost_threshold=threshold)
                counts.append(len(match(ego, coop, w).matched))
            assert counts == sorted(counts)

    def test_matched_total_matches_demotion_oracle(self, rng):
        # The demote-after-solve contract, checked against pure enumeration.
        for _ in range(60):
            n, m = rng.integers(1, 6, 2)
            ego = [make_instance(x=float(10 * i), feature_seed=i, track_id=i)
                   for i in range(int(n))]
            coop = [make_instance(x=float(rng.uniform(-5, 5 + 10 * int(n))),
                                  feature_seed=int(200 + j), track_id=200 + j)
                    for j in range(int(m))]
            w = MatchWeights(alpha=0.0, cost_threshold=float(rng.uniform(2, 15)))
            cost = np.array(
                [[reference_pair_cost(e, c, w) for c in coop] for e in ego]
            )
            got = sum(c for _, _, c in match(ego, coop, w).matched)
            want = brute_force_matched_total(cost, w.cost_threshold)
            assert got == pytest.approx(want, abs=1e-9)


class TestAssociate:
    def test_full_chain_partition(self):
        roi = RoiSpec(x_half=50.0, y_half=50.0, z_min=-3, z_max=3)
        w = MatchWeights(alpha=0.0, cost_threshold=5.0)
        ego = [make_instance(x=1.0, feature_seed=1, track_id=1),
               make_instance(x=40.0, feature_seed=2, track_id=2)]
        coop = [
            make_instance(x=1.5, feature_seed=1, track_id=11, source_agent=1),   # matches ego[0]
            make_instance(x=45.0, feature_seed=3, track_id=12, source_agent=1),  # far: beyond r_int
            make_instance(x=80.0, feature_seed=4, track_id=13, source_agent=1),  # outside ROI
        ]
        result = associate(ego, filter_roi(coop, roi), r_int=30.0, w=w)
        assert len(result.matched) == 1
        assert result.matched[0][0] is ego[0]
        assert result.unmatched_ego == [ego[1]]  # beyond r_int, kept as ego-only
        assert result.unmatched_coop_near == []
        assert result.coop_far == [coop[1]]

    def test_makes_no_roi_cut(self):
        # The caller cuts the ROI; associate gates and matches what it is given, as match does.
        w = MatchWeights(alpha=0.0, cost_threshold=5.0)
        ego = [make_instance(x=0.5, z=10.0, feature_seed=1, track_id=1)]
        high = make_instance(z=10.0, feature_seed=1, track_id=11, source_agent=1)  # above any default z_max
        result = associate(ego, [high], r_int=30.0, w=w)
        assert [(e, c) for e, c, _ in result.matched] == [(ego[0], high)]
        assert result.matched[0][2] == pytest.approx(0.5)
        assert (result.unmatched_ego, result.unmatched_coop_near, result.coop_far) == ([], [], [])


class TestMatchWeightsValidation:
    @pytest.mark.parametrize("name", ["w_pos", "w_dim", "w_heading", "w_vel", "alpha"])
    def test_rejects_infinite_weight(self, name):
        with pytest.raises(ValueError, match="weights must be finite"):
            MatchWeights(**{name: float("inf")})
