"""Detection/tracking/bandwidth metrics and the two sweep studies.

Metrics are deliberately simplified relative to full benchmark suites:
center-distance greedy matching, 11-point interpolated average precision
over a set of distance thresholds, and a tracking accuracy score swept
over an 11-point recall grid. Every metric derives from one greedy match
per distinct distance threshold over one neighbour scan per frame. The
claims these support are trends and properties, not leaderboard numbers,
and every output is deterministic given the scenario seed.
"""

from __future__ import annotations

import csv
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Sequence

import numpy as np

from .core import GroundTruthObject, Instance, greedy_nearest, neighbours
from .simulator import FrameRecord, RunResult, ScenarioConfig, SceneRecord, record_scene, run_scenario

DETECTION_THRESHOLDS = (0.5, 1.0, 2.0, 4.0)
TRACKING_THRESHOLD = 2.0
RECALL_GRID = tuple(np.linspace(0.0, 1.0, 11))

DEFAULT_RANGE_SWEEP = (5.0, 10.0, 15.0, 20.0, 30.0, 40.0, 50.0)
DEFAULT_LATENCY_SWEEP_MS = (0.0, 100.0, 200.0, 300.0, 400.0, 500.0)

RANGE_SWEEP_COLUMNS = ("r_int", "ap", "amota_like", "duplicate_rate")
LATENCY_SWEEP_COLUMNS = ("latency_ms", "compensated", "ap", "rmse", "coop_prefusion_err")
METRICS_COLUMNS = (
    "ap", "mota_like", "amota_like", "id_switches", "duplicate_rate",
    "rmse_pos", "bps_sent", "bps_received",
)


@dataclass
class MetricsReport:
    ap: float
    ap_per_threshold: dict[float, float]
    pr_curves: dict[float, tuple[tuple[float, ...], tuple[float, ...]]]
    mota_like: float
    amota_like: float
    id_switches: int
    duplicate_rate: float
    rmse_pos: float
    bps_sent: float
    bps_received: float
    coop_prefusion_err: float = math.nan


Match = tuple[list[tuple[Instance, GroundTruthObject, float]], list[Instance], list[GroundTruthObject]]
Scan = tuple[list[Instance], tuple[GroundTruthObject, ...], list[list[tuple[int, float]]]]
Ranked = tuple[list[float], list[float], list[float]]


def _scan(frame: FrameRecord, radius: float) -> Scan:
    """The frame's predictions in matching order (descending confidence,
    stable), its objects, and each prediction's same-class objects within
    ``radius``."""
    order = sorted(frame.tracks.instances, key=lambda p: -p.confidence)
    points = [[(o.state.x, o.state.y, o.class_id) for o in group] for group in (order, frame.ground_truth)]
    return order, frame.ground_truth, neighbours(*points, radius)


def _greedy_match(
    order: list[Instance], gt_objects: Sequence[GroundTruthObject], candidates: list, dist_threshold: float
) -> Match:
    """Greedy confidence-ordered one-to-one matching by planar distance."""
    tp, fp, claimed = [], [], set()
    for pred, pick in zip(order, greedy_nearest(candidates, dist_threshold)):
        if pick is None:
            fp.append(pred)
        else:
            claimed.add(pick[0])
            tp.append((pred, gt_objects[pick[0]], pick[1]))
    fn = [g for k, g in enumerate(gt_objects) if k not in claimed]
    return tp, fp, fn


def _total_gt(matches: Sequence[Match]) -> int:
    return sum(len(tp) + len(fn) for tp, _, fn in matches)


def _ranked(matches: Sequence[Match]) -> Ranked:
    """Confidence, recall and precision at each rank of the pooled predictions."""
    scored: list[tuple[float, bool]] = []
    for tp, fp, _ in matches:
        scored.extend((pred.confidence, True) for pred, _, _ in tp)
        scored.extend((pred.confidence, False) for pred in fp)
    scored.sort(key=lambda item: -item[0])
    total_gt = _total_gt(matches)
    confidences, recalls, precisions = [], [], []
    tp_cum = 0
    for rank, (conf, is_tp) in enumerate(scored, start=1):
        tp_cum += is_tp
        confidences.append(conf)
        precisions.append(tp_cum / rank)
        recalls.append(tp_cum / total_gt if total_gt else 0.0)
    return confidences, recalls, precisions


def _interpolated_ap(recalls: Sequence[float], precisions: Sequence[float]) -> float:
    if not recalls:
        return 0.0
    recalls = np.asarray(recalls)
    precisions = np.asarray(precisions)
    total = 0.0
    for r in RECALL_GRID:
        mask = recalls >= r - 1e-12
        total += float(precisions[mask].max()) if mask.any() else 0.0
    return total / len(RECALL_GRID)


def _mota_at(matches: Sequence[Match], total_gt: int, conf_min: float) -> tuple[float, int]:
    """(mota_like, id_switches) of the predictions with confidence >= conf_min.

    The greedy matcher visits predictions in stable descending-confidence
    order, so a cut keeps a prefix of that order and its matches are
    exactly the full matches restricted to the kept predictions.
    """
    errors = switches = 0
    last_track: dict[int, int] = {}
    for tp, fp, fn in matches:
        kept = [(pred, g) for pred, g, _ in tp if pred.confidence >= conf_min]
        errors += len(fn) + len(tp) - len(kept)
        errors += sum(pred.confidence >= conf_min for pred in fp)
        for pred, g in kept:
            prev = last_track.get(g.object_id)
            if prev is not None and prev != pred.track_id:
                switches += 1
            last_track[g.object_id] = pred.track_id
    if total_gt == 0:
        return 0.0, switches
    return max(0.0, 1.0 - (errors + switches) / total_gt), switches


def _tracking(matches: Sequence[Match], ranked: Ranked) -> tuple[float, float, int]:
    """(mota_like, amota_like, id_switches) of ``matches``; ``ranked`` is ``_ranked(matches)``.

    ``mota_like`` is 1 - (FP + FN + IDSW) / GT on the full output, floored
    at zero. ``amota_like`` repeats that over an 11-point recall grid: for
    each target recall the smallest high-confidence prediction subset that
    reaches it is evaluated (target 0 uses everything); unreachable targets
    score 0.
    """
    total_gt = _total_gt(matches)
    mota, idsw = _mota_at(matches, total_gt, 0.0)
    confidences, recalls, _ = ranked
    motas = [mota]
    for target in RECALL_GRID[1:]:
        rank = next((i for i, r in enumerate(recalls) if r >= target - 1e-12), None)
        motas.append(0.0 if rank is None else _mota_at(matches, total_gt, confidences[rank])[0])
    return mota, float(np.mean(motas)), idsw


def _duplicate_rate(scans: Sequence[Scan], matches: Sequence[Match], dist_threshold: float) -> float:
    """Fraction of GT picked up more than once: extra same-class predictions
    within the threshold of an already-matched object, over total GT."""
    duplicates = 0
    for (order, gt_objects, candidates), (tp, fp, _) in zip(scans, matches):
        unmatched = set(fp)
        claimed = {g.object_id for _, g, _ in tp}
        duplicates += sum(
            pred in unmatched
            and any(d <= dist_threshold and gt_objects[k].object_id in claimed for k, d in row)
            for pred, row in zip(order, candidates)
        )
    total_gt = _total_gt(matches)
    return duplicates / total_gt if total_gt else 0.0


def compute_metrics(
    run: RunResult, thresholds: Sequence[float] = DETECTION_THRESHOLDS
) -> MetricsReport:
    """Full metric report for one scenario run."""
    radii = {*thresholds, TRACKING_THRESHOLD}
    scans = [_scan(frame, max(radii)) for frame in run.frames]
    matches = {thr: [_greedy_match(*scan, thr) for scan in scans] for thr in radii}
    ranked = {thr: _ranked(matches[thr]) for thr in radii}
    curves = {thr: (tuple(ranked[thr][1]), tuple(ranked[thr][2])) for thr in thresholds}
    ap_per = {thr: _interpolated_ap(*curve) for thr, curve in curves.items()}
    tracked = matches[TRACKING_THRESHOLD]
    mota, amota, idsw = _tracking(tracked, ranked[TRACKING_THRESHOLD])
    tp_dists = [d for tp, _, _ in tracked for _, _, d in tp]
    rmse = float(np.sqrt(np.mean(np.square(tp_dists)))) if tp_dists else math.nan
    prefusion = [rec.coop_prefusion_err for rec in run.frames if not math.isnan(rec.coop_prefusion_err)]
    return MetricsReport(
        ap=float(np.mean(list(ap_per.values()))),
        ap_per_threshold=ap_per,
        pr_curves=curves,
        mota_like=mota,
        amota_like=amota,
        id_switches=idsw,
        duplicate_rate=_duplicate_rate(scans, tracked, TRACKING_THRESHOLD),
        rmse_pos=rmse,
        bps_sent=run.bps_sent,
        bps_received=run.bps_received,
        coop_prefusion_err=float(np.mean(prefusion)) if prefusion else math.nan,
    )


# ---------------------------------------------------------------------------
# Sweeps


def _point_metrics(point: tuple[ScenarioConfig, SceneRecord]) -> MetricsReport:
    return compute_metrics(run_scenario(*point))


def _map_points(points: list[tuple[ScenarioConfig, SceneRecord]], jobs: int) -> list[MetricsReport]:
    if jobs <= 1 or len(points) <= 1:
        return [_point_metrics(p) for p in points]
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(_point_metrics, points))


def sweep_interaction_range(
    base_cfg: ScenarioConfig,
    r_values: Sequence[float] = DEFAULT_RANGE_SWEEP,
    jobs: int = 1,
) -> list[dict]:
    """One row per interaction range, ascending; every run replays one sensing of the scene."""
    if not r_values:
        raise ValueError("r_values must not be empty")
    radii = [float(r) for r in sorted(r_values)]
    sensed = record_scene(base_cfg)
    points = [(replace(base_cfg, pipeline=replace(base_cfg.pipeline, r_int=r)), sensed) for r in radii]
    return [
        {"r_int": r, "ap": m.ap, "amota_like": m.amota_like, "duplicate_rate": m.duplicate_rate}
        for r, m in zip(radii, _map_points(points, jobs))
    ]


def sweep_latency(
    base_cfg: ScenarioConfig,
    latencies_ms: Sequence[float] = DEFAULT_LATENCY_SWEEP_MS,
    compensation: str = "both",
    jobs: int = 1,
) -> list[dict]:
    """Rows per latency (ascending), compensated first when both; every run replays one sensing."""
    if not latencies_ms:
        raise ValueError("latencies_ms must not be empty")
    if compensation not in ("both", "on", "off"):
        raise ValueError("compensation must be 'both', 'on', or 'off'")
    modes = {"both": (True, False), "on": (True,), "off": (False,)}[compensation]
    keys = [(float(latency), mode) for latency in sorted(latencies_ms) for mode in modes]
    sensed = record_scene(base_cfg)
    points = [
        (replace(base_cfg, channel=replace(base_cfg.channel, latency_ms=latency),
                 pipeline=replace(base_cfg.pipeline, compensate_latency=mode)), sensed)
        for latency, mode in keys
    ]
    return [
        {"latency_ms": latency, "compensated": int(mode), "ap": m.ap, "rmse": m.rmse_pos,
         "coop_prefusion_err": m.coop_prefusion_err}
        for (latency, mode), m in zip(keys, _map_points(points, jobs))
    ]


def write_csv(path, columns: Sequence[str], rows: Sequence[dict]) -> None:
    """Deterministic CSV: fixed column order, repr-faithful floats."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow([row[c] for c in columns])


def metrics_row(metrics: MetricsReport) -> dict:
    return {column: getattr(metrics, column) for column in METRICS_COLUMNS}
