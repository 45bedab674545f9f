"""The benchmark's workloads: inputs from a seed, one op, output checks.

Every workload is a closed loop with one caller: the next op starts only
after the previous one returned, and sweeps run with ``jobs=1``. Inputs are
scenario configs and seeds drawn from the benchmark seed; the library sees
nothing else. Library functions are looked up on the ``coopfuse`` modules at
call time, so the tracer's rebinding (when installed) is what gets called.

Every op gets a fresh input, so no op can reuse an earlier op's result.
Quality metrics are means over the first ``quality_ops`` ops, so they do not
depend on how many ops fit in a run. The warm-up op runs a shortened input
through the same public calls.
"""

from __future__ import annotations

import hashlib
import math
import random
import statistics
import struct
from dataclasses import replace
from pathlib import Path

import numpy as np

import coopfuse
import coopfuse.evaluation
import coopfuse.robustness

ALPHAS = (0.0, 0.5, 1.0, 2.0)
HARNESS_SCENES = 200
RANGE_POINTS = coopfuse.evaluation.DEFAULT_RANGE_SWEEP
LATENCY_POINTS = coopfuse.evaluation.DEFAULT_LATENCY_SWEEP_MS

# Wire layout from the documented format, independent of coopfuse.wire:
# header = magic, version, sender, timestamp, 9+3 pose floats, count, dim;
# record = track id, class, confidence, 11 state floats, then D floats.
HEADER_BYTES = struct.calcsize("<IHHq12fHH")
RECORD_FIXED_BYTES = struct.calcsize("<QBf11f")


def packet_sizes(top_k: int, feature_dim: int) -> set[int]:
    """Every legal packet size for at most ``top_k`` records of dimension D."""
    record = RECORD_FIXED_BYTES + 4 * feature_dim
    return {HEADER_BYTES + k * record for k in range(top_k + 1)}


def _seed(workload: str, seed: int, index: int) -> int:
    """The scenario seed of the ``index``-th op (-1 is the warm-up op)."""
    return random.Random(f"{workload}:{seed}:{index}").randrange(2**31)


def _in_unit(value) -> bool:
    return math.isfinite(value) and 0.0 <= value <= 1.0


def _non_negative(value) -> bool:
    return math.isfinite(value) and value >= 0.0


def _digest_rows(rows) -> str:
    return hashlib.sha256(repr(rows).encode()).hexdigest()


class Studies:
    """The r_int sweep and the latency sweep on the shipped study configs."""

    name = "studies"
    item = "frames"
    quality_key = "ap"
    quality_ops = 2

    def load(self, root: Path) -> None:
        self.range_cfg = coopfuse.configio.load_scenario(root / "configs" / "range_study.yaml")
        self.latency_cfg = coopfuse.configio.load_scenario(root / "configs" / "latency_study.yaml")

    def input(self, seed: int, index: int):
        s = _seed(self.name, seed, index)
        return (
            replace(self.range_cfg, seed=s),
            replace(self.latency_cfg, seed=s),
            RANGE_POINTS,
            LATENCY_POINTS,
        )

    def warmup_input(self, seed: int):
        s = _seed(self.name, seed, -1)
        short = [replace(cfg, seed=s, duration_s=4 * cfg.tick_s) for cfg in (self.range_cfg, self.latency_cfg)]
        return (*short, RANGE_POINTS[:1], LATENCY_POINTS[:1])

    def run(self, inp):
        range_cfg, latency_cfg, r_points, latency_points = inp
        rint = coopfuse.evaluation.sweep_interaction_range(range_cfg, r_points, jobs=1)
        latency = coopfuse.evaluation.sweep_latency(latency_cfg, latency_points, "both", jobs=1)
        return rint, latency

    def items(self, inp) -> int:
        range_cfg, latency_cfg, r_points, latency_points = inp
        return (
            len(r_points) * range_cfg.frame_count
            + 2 * len(latency_points) * latency_cfg.frame_count
        )

    def check(self, inp, out) -> list[str]:
        _, _, r_points, latency_points = inp
        rint, latency = out
        problems = []
        if [row["r_int"] for row in rint] != sorted(r_points):
            problems.append("r_int rows do not match the swept points")
        expected = [(lat, c) for lat in sorted(latency_points) for c in (1, 0)]
        if [(row["latency_ms"], row["compensated"]) for row in latency] != expected:
            problems.append("latency rows do not match the swept points")
        for row in rint:
            if not (_in_unit(row["ap"]) and _in_unit(row["amota_like"]) and _non_negative(row["duplicate_rate"])):
                problems.append(f"r_int row out of range: {row}")
        for row in latency:
            if not (_in_unit(row["ap"]) and _non_negative(row["rmse"]) and _non_negative(row["coop_prefusion_err"])):
                problems.append(f"latency row out of range: {row}")
        return problems

    def digest(self, out) -> str:
        return _digest_rows(out)

    def quality(self, out) -> dict:
        rint, latency = out
        return {
            "ap": statistics.fmean(row["ap"] for row in rint + latency),
            "duplicate_rate": statistics.fmean(row["duplicate_rate"] for row in rint),
        }


class Crowd:
    """run_scenario plus compute_metrics on one dense four-cooperator scene."""

    name = "crowd"
    item = "frames"
    quality_key = "ap"
    quality_ops = 4

    def load(self, root: Path) -> None:
        self.cfg = coopfuse.configio.load_scenario(root / "perfbench" / "configs" / "crowd.yaml")
        dims = {agent.sensor.feature_dim for agent in self.cfg.agents}
        self.sizes = packet_sizes(self.cfg.pipeline.transmit_top_k, dims.pop())

    def input(self, seed: int, index: int):
        return replace(self.cfg, seed=_seed(self.name, seed, index))

    def warmup_input(self, seed: int):
        return replace(self.cfg, seed=_seed(self.name, seed, -1), duration_s=2 * self.cfg.tick_s)

    def run(self, cfg):
        run = coopfuse.simulator.run_scenario(cfg)
        return run, coopfuse.evaluation.compute_metrics(run)

    def items(self, cfg) -> int:
        return cfg.frame_count

    def check(self, cfg, out) -> list[str]:
        run, metrics = out
        problems = []
        if len(run.frames) != cfg.frame_count:
            problems.append(f"{len(run.frames)} frames, expected {cfg.frame_count}")
        sent = [e for e in run.events if e.kind in ("send", "drop")]
        if sum(e.size_bytes for e in sent) != run.bytes_sent:
            problems.append("send and drop sizes do not sum to bytes_sent")
        bad = sorted({e.size_bytes for e in sent} - self.sizes)
        if bad:
            problems.append(f"packet sizes off the wire layout: {bad[:3]}")
        row = coopfuse.evaluation.metrics_row(metrics)
        for key in ("ap", "mota_like", "amota_like"):
            if not _in_unit(row[key]):
                problems.append(f"{key}={row[key]} outside [0, 1]")
        for key in ("duplicate_rate", "rmse_pos", "bps_sent", "bps_received", "id_switches"):
            if not _non_negative(row[key]):
                problems.append(f"{key}={row[key]} not finite and non-negative")
        return problems

    def digest(self, out) -> str:
        run, metrics = out
        h = hashlib.sha256()
        h.update(repr(coopfuse.evaluation.metrics_row(metrics)).encode())
        h.update(repr((run.bytes_sent, run.bytes_received, run.events)).encode())
        for rec in run.frames:
            h.update(repr((rec.t_us, rec.coop_consumed, rec.coop_prefusion_err, rec.stale_dropped)).encode())
            h.update(repr([(g.object_id, g.state) for g in rec.ground_truth]).encode())
            for inst in rec.tracks.instances:
                h.update(repr((inst.track_id, inst.class_id, inst.confidence, inst.state)).encode())
                h.update(np.ascontiguousarray(inst.feature, dtype=np.float64).tobytes())
        return h.hexdigest()

    def quality(self, out) -> dict:
        run, metrics = out
        return {
            "ap": metrics.ap,
            "duplicate_rate": metrics.duplicate_rate,
            "wire_bytes_per_frame": run.bytes_sent / len(run.frames),
        }


class Harness:
    """The appearance-weight sweep of the perturbation harness (CLI defaults)."""

    name = "harness"
    item = "scenes"
    quality_key = "match_accuracy"
    quality_ops = 4

    def load(self, root: Path) -> None:
        cfg = coopfuse.configio.load_scenario(root / "configs" / "quickstart.yaml")
        self.feature_dim = cfg.agents[0].sensor.feature_dim

    def input(self, seed: int, index: int):
        return _seed(self.name, seed, index), HARNESS_SCENES

    def warmup_input(self, seed: int):
        return _seed(self.name, seed, -1), HARNESS_SCENES // 10

    def run(self, inp):
        scene_seed, scenes = inp
        return coopfuse.robustness.alpha_sweep_rows(
            ALPHAS, scenes=scenes, seed=scene_seed, feature_dim=self.feature_dim
        )

    def items(self, inp) -> int:
        return inp[1] * len(ALPHAS)

    def check(self, inp, rows) -> list[str]:
        problems = []
        if [row["alpha"] for row in rows] != list(ALPHAS):
            problems.append("rows do not match the swept alphas")
        for row in rows:
            if not all(_in_unit(row[k]) for k in ("mean_accuracy", "mean_precision", "mean_recall")):
                problems.append(f"row out of range: {row}")
        return problems

    def digest(self, rows) -> str:
        return _digest_rows(rows)

    def quality(self, rows) -> dict:
        return {"match_accuracy": statistics.fmean(row["mean_accuracy"] for row in rows)}


WORKLOADS = {w.name: w for w in (Studies, Crowd, Harness)}
