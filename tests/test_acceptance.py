"""End-to-end acceptance: every release-gating property at its tolerance.

Each test prints one PASS/FAIL line so a plain `pytest -s tests/test_acceptance.py`
reads as a checklist. All tolerances are fixed here, not configurable.
"""

import math
from contextlib import contextmanager
from dataclasses import replace

import numpy as np
import pytest

from coopfuse.alignment import transform_state
from coopfuse.association import solve_assignment
from coopfuse.core import RigidTransform, StateVector, compose, invert
from coopfuse.evaluation import (
    DEFAULT_LATENCY_SWEEP_MS,
    DEFAULT_RANGE_SWEEP,
    METRICS_COLUMNS,
    compute_metrics,
    metrics_row,
    sweep_interaction_range,
    sweep_latency,
    write_csv,
)
from coopfuse.robustness import (
    ObservationNoiseParams,
    TransformNoiseParams,
    alpha_sweep_rows,
    perturb_observation,
    perturb_transform,
)
from coopfuse.simulator import bev_baseline_cost, run_scenario
from coopfuse.wire import decode_packet, packet_size, record_size, serialize_packet
from conftest import make_state, shipped
from oracles import brute_force_min_total
from test_wire import random_packet_bytes


@contextmanager
def criterion(number, name):
    try:
        yield
    except Exception:
        print(f"ACCEPTANCE {number} {name}: FAIL")
        raise
    print(f"ACCEPTANCE {number} {name}: PASS")


def _random_rotations(n, rng):
    q, r = np.linalg.qr(rng.standard_normal((n, 3, 3)))
    signs = np.sign(np.einsum("nii->ni", r))
    signs[signs == 0] = 1.0
    q = q * signs[:, None, :]
    flip = np.linalg.det(q) < 0
    q[flip, :, 2] *= -1.0
    return q


def test_01_assignment_oracle():
    """Optimal assignment equals exhaustive enumeration on 500 matrices."""
    with criterion(1, "assignment oracle"):
        rng = np.random.default_rng(1001)
        for _ in range(500):
            n, m = rng.integers(1, 8, 2)
            cost = rng.uniform(0.0, 10.0, (int(n), int(m)))
            pairs = solve_assignment(cost)
            total = float(sum(cost[i, j] for i, j in pairs))
            expected = brute_force_min_total(cost)
            assert abs(total - expected) <= 1e-9, (cost, total, expected)


def test_02_transform_algebra():
    """1e5 randomized round trips recover inputs within 1e-9 per component."""
    with criterion(2, "transform algebra"):
        rng = np.random.default_rng(2002)
        half = 50_000
        rotations = _random_rotations(2 * half, rng)
        translations = rng.uniform(-50.0, 50.0, (2 * half, 3))

        worst = 0.0
        for k in range(half):
            t = RigidTransform(rotations[k], translations[k])
            back = invert(invert(t))
            worst = max(
                worst,
                float(np.max(np.abs(back.rotation - t.rotation))),
                float(np.max(np.abs(back.translation - t.translation))),
            )
            round_trip = compose(t, invert(t))
            worst = max(
                worst,
                float(np.max(np.abs(round_trip.rotation - np.eye(3)))),
                float(np.max(np.abs(round_trip.translation))),
            )
        assert worst <= 1e-9, worst

        # State round trips use plane-preserving transforms: the heading
        # encodes yaw only, so tilting the plane is deliberately lossy.
        yaw = rng.uniform(-math.pi, math.pi, (half, 2))
        states = rng.uniform(-40.0, 40.0, (half, 6))
        worst = 0.0
        for k in range(half):
            state = StateVector(
                x=states[k, 0], y=states[k, 1], z=states[k, 2] / 10.0,
                l=4.5, w=1.9, h=1.6,
                sin_yaw=math.sin(yaw[k, 0]), cos_yaw=math.cos(yaw[k, 0]),
                vx=states[k, 3] / 3.0, vy=states[k, 4] / 3.0, vz=states[k, 5] / 20.0,
            )
            t = RigidTransform.from_yaw(yaw[k, 1], translations[half + k])
            back = transform_state(transform_state(state, t), invert(t))
            worst = max(worst, float(np.max(np.abs(back.as_array() - state.as_array()))))
        assert worst <= 1e-9, worst


def test_03_codec():
    """1e4 fuzzed packets round-trip bit-exactly; D=256 record is 1081 bytes."""
    with criterion(3, "wire codec"):
        assert record_size(256) == 1081
        assert packet_size(15, 256) == 68 + 15 * 1081
        rng = np.random.default_rng(3003)
        for _ in range(10_000):
            data = random_packet_bytes(rng)
            packet = decode_packet(data)
            assert serialize_packet(packet) == data


def test_04_latency_robustness():
    """Compensation keeps shared instances accurate as the channel lags."""
    with criterion(4, "latency robustness"):
        cfg = shipped("latency_study")
        rows = sweep_latency(cfg, DEFAULT_LATENCY_SWEEP_MS, compensation="both")
        by_key = {(r["latency_ms"], r["compensated"]): r for r in rows}

        uncomp_300 = by_key[(300.0, 0)]["coop_prefusion_err"]
        comp_300 = by_key[(300.0, 1)]["coop_prefusion_err"]
        assert uncomp_300 >= 3.0, uncomp_300
        assert comp_300 <= 0.5, comp_300

        for latency in DEFAULT_LATENCY_SWEEP_MS:
            if latency < 100.0:
                continue
            ap_on = by_key[(latency, 1)]["ap"]
            ap_off = by_key[(latency, 0)]["ap"]
            assert ap_on > ap_off, (latency, ap_on, ap_off)

        ap_0 = by_key[(0.0, 1)]["ap"]
        ap_500 = by_key[(500.0, 1)]["ap"]
        assert abs(ap_500 - ap_0) <= 0.10 * ap_0, (ap_0, ap_500)


def test_05_interaction_range_tradeoff():
    """Duplicates fall as the fusion radius grows; quality peaks inside it."""
    with criterion(5, "interaction-range trade-off"):
        reference = sweep_interaction_range(
            shipped("range_study"), DEFAULT_RANGE_SWEEP
        )
        dups = [row["duplicate_rate"] for row in reference]
        for earlier, later in zip(dups, dups[1:]):
            assert later <= earlier + 1e-12, dups

        interior = 0
        for seed in range(10):
            rows = sweep_interaction_range(
                shipped("range_study", seed=seed), DEFAULT_RANGE_SWEEP
            )
            amota = [row["amota_like"] for row in rows]
            best = amota.index(max(amota))
            interior += 0 < best < len(amota) - 1
        assert interior >= 8, f"interior maximum on {interior}/10 seeds"


def test_06_noise_model_fidelity():
    """Observation noise is hard-bounded; transform noise hits its sigmas."""
    with criterion(6, "noise-model fidelity"):
        n = 100_000
        rng = np.random.default_rng(6006)
        state = make_state(x=1.0, y=-2.0, z=0.3, vx=4.0)
        obs = ObservationNoiseParams()  # (-2 m, 2 m) positions, (-0.5, 0.5) rest
        deltas = np.empty((n, 3))
        for k in range(n):
            out = perturb_observation(state, rng, obs)
            deltas[k] = (out.x - state.x, out.y - state.y, out.z - state.z)
        assert np.all(np.abs(deltas) <= 2.0), np.abs(deltas).max()

        tf = TransformNoiseParams()  # sigma 1.0 m, 2.0 deg
        base = RigidTransform.identity()
        tx = np.empty(n)
        yaw = np.empty(n)
        for k in range(n):
            out = perturb_transform(base, rng, tf)
            tx[k] = out.translation[0]
            yaw[k] = math.degrees(math.atan2(out.rotation[1, 0], out.rotation[0, 0]))
        assert abs(tx.std() - 1.0) <= 0.02, tx.std()
        assert abs(yaw.std() - 2.0) <= 0.04, yaw.std()


def test_07_appearance_discriminativeness():
    """Appearance weighting must help, not hurt, association in clutter."""
    with criterion(7, "appearance term in clutter"):
        rows = alpha_sweep_rows([0.0, 1.0], scenes=200, seed=0, spacing=3.0)
        without, with_appearance = rows[0], rows[1]
        assert with_appearance["mean_accuracy"] >= without["mean_accuracy"]
        assert with_appearance["mean_accuracy"] > without["mean_accuracy"], rows


def test_08_bandwidth_scaling():
    """Sparse cost is affine in payload size and flat in scene extent."""
    with criterion(8, "bandwidth scaling"):
        rate_hz = 2.0
        ks = np.arange(1, 51)
        bps = np.array([packet_size(int(k), 256) * rate_hz for k in ks])
        slope, intercept = np.polyfit(ks, bps, 1)
        predicted = slope * ks + intercept
        ss_res = float(np.sum((bps - predicted) ** 2))
        ss_tot = float(np.sum((bps - bps.mean()) ** 2))
        assert 1.0 - ss_res / ss_tot > 0.999

        cfg = shipped("quickstart")
        small = run_scenario(cfg)
        wide = run_scenario(
            replace(cfg, spawn_x=(-25.0, 25.0), spawn_y=(-25.0, 25.0))
        )
        assert small.bps_sent == wide.bps_sent, (small.bps_sent, wide.bps_sent)

        assert bev_baseline_cost(102.4, 0.4, 64, 4, 2.0) == pytest.approx(
            4.0 * bev_baseline_cost(51.2, 0.4, 64, 4, 2.0)
        )

        sparse = packet_size(15, 256) * rate_hz
        reference_cost = 3.17e4
        ratio = sparse / reference_cost
        assert 1 / 1.2 <= ratio <= 1.2, sparse


def test_09_tracking_sanity_and_determinism(tmp_path):
    """A noise-free world tracks perfectly, and outputs are byte-stable."""
    with criterion(9, "tracking sanity and determinism"):
        cfg = shipped("quickstart")
        metrics = compute_metrics(run_scenario(cfg))
        assert metrics.id_switches == 0, metrics.id_switches
        assert metrics.mota_like == 1.0, metrics.mota_like

        paths = []
        for tag in ("a", "b"):
            out = tmp_path / tag
            metrics = compute_metrics(run_scenario(cfg))
            write_csv(out / "metrics.csv", METRICS_COLUMNS, [metrics_row(metrics)])
            rows = sweep_latency(cfg, [0.0, 100.0], compensation="both")
            write_csv(
                out / "latency.csv",
                ("latency_ms", "compensated", "ap", "rmse", "coop_prefusion_err"),
                rows,
            )
            paths.append(out)
        for name in ("metrics.csv", "latency.csv"):
            assert (paths[0] / name).read_bytes() == (paths[1] / name).read_bytes()
