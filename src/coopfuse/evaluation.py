"""Detection/tracking/bandwidth metrics and the two sweep studies.

Metrics are deliberately simplified relative to full benchmark suites:
center-distance greedy matching, 11-point interpolated average precision
over a set of distance thresholds, and a tracking accuracy score swept
over an 11-point recall grid. Every metric derives from one table of
greedy matches per distinct distance threshold, picked by ``greedy_nearest``
from one ``pairs_within`` scan per frame (the rule that continues sensing
tracks). The claims these support are trends and properties, not
leaderboard numbers, and every output is deterministic given the scenario
seed.
"""

from __future__ import annotations

import csv
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Sequence

import numpy as np

from .core import GroundTruthObject, Instance, greedy_nearest, pairs_within
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


Scan = tuple[list[Instance], tuple[GroundTruthObject, ...], list[tuple[int, int, float]]]


@dataclass(frozen=True)
class Hits:
    """One distance threshold's greedy matches over a run, one row per prediction.

    Rows pool the frames in order, and within a frame the matched predictions
    before the unmatched, each in visiting order. ``object_id`` is -1 where
    unmatched; ``track_id`` is an object column, since output track ids reach
    ``fusion.COOP_TRACK_FLAG``. ``distances`` are the matched rows', in row
    order. A duplicate is an unmatched prediction with a same-class object
    within the threshold: greedy matching left it none free, so it is matched.
    """

    confidence: np.ndarray
    matched: np.ndarray
    object_id: np.ndarray
    track_id: np.ndarray
    distances: list[float]
    duplicates: int
    total_gt: int


def _scan(frame: FrameRecord, radius: float) -> Scan:
    """The frame's predictions in matching order (descending confidence,
    stable), its objects and their same-class ``(prediction, object,
    distance)`` pairs within ``radius``."""
    order = sorted(frame.tracks.instances, key=lambda p: -p.confidence)
    sides = [(np.array([o.state[:2] for o in group]).reshape(-1, 2), np.array([o.class_id for o in group]))
             for group in (order, frame.ground_truth)]
    return order, frame.ground_truth, pairs_within(*sides[0], *sides[1], radius)


def _hits(scans: Sequence[Scan], threshold: float) -> Hits:
    """Greedy confidence-ordered one-to-one matching by planar distance, frame by frame."""
    confidence, matched, object_id, track_id, distances, duplicates = [], [], [], [], [], 0
    for order, gt_objects, pairs in scans:
        picks = greedy_nearest(pairs, len(order), threshold)
        rows = sorted(range(len(picks)), key=lambda i: picks[i] is None)  # matched first, stable
        confidence += [order[i].confidence for i in rows]
        matched += [picks[i] is not None for i in rows]
        object_id += [-1 if picks[i] is None else gt_objects[picks[i][0]].object_id for i in rows]
        track_id += [order[i].track_id for i in rows]
        distances += [pick[1] for pick in picks if pick is not None]
        duplicates += len({i for i, _, d in pairs if d <= threshold and picks[i] is None})
    return Hits(np.array(confidence, float), np.array(matched, bool), np.array(object_id, np.int64),
                np.array(track_id, object), distances, duplicates, sum(len(scan[1]) for scan in scans))


def _ranks(hits: Hits) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Confidence, recall and precision at each rank of the rows, by descending confidence (stable)."""
    order = np.argsort(-hits.confidence, kind="stable")
    tp_cum = np.cumsum(hits.matched[order])
    recalls = tp_cum / hits.total_gt if hits.total_gt else np.zeros(len(order))
    return hits.confidence[order], recalls, tp_cum / np.arange(1, len(order) + 1)


def _first_ranks(recalls: np.ndarray) -> np.ndarray:
    """The first rank whose recall reaches each point of ``RECALL_GRID``; ``len(recalls)`` if none does."""
    return np.searchsorted(recalls, np.asarray(RECALL_GRID) - 1e-12)


def _interpolated_ap(recalls: np.ndarray, precisions: np.ndarray) -> float:
    """11-point interpolated AP: the best precision at or after each grid point's first rank."""
    best = np.maximum.accumulate(precisions[::-1])[::-1]
    return sum(float(best[i]) if i < len(best) else 0.0 for i in _first_ranks(recalls)) / len(RECALL_GRID)


def _mota_at(hits: Hits, conf_min: float) -> tuple[float, int]:
    """(mota_like, id_switches) of the predictions with confidence >= conf_min.

    The greedy matcher visits predictions in stable descending-confidence
    order, so a cut keeps a prefix of that order and its matches are
    exactly the full matches restricted to the kept predictions. An ID
    switch is a kept match whose object's previous kept match, in row
    order, went to another track.
    """
    kept = hits.confidence >= conf_min
    tp = hits.matched & kept
    objects, tracks = hits.object_id[tp], hits.track_id[tp]
    by_object = np.argsort(objects, kind="stable")  # each object's matches stay in row order
    objects, tracks = objects[by_object], tracks[by_object]
    switches = int(np.count_nonzero((objects[1:] == objects[:-1]) & (tracks[1:] != tracks[:-1])))
    errors = hits.total_gt - int(np.count_nonzero(tp)) + int(np.count_nonzero(kept & ~hits.matched))  # FN + FP
    mota = max(0.0, 1.0 - (errors + switches) / hits.total_gt) if hits.total_gt else 0.0
    return mota, switches


def _tracking(hits: Hits, confidences: np.ndarray, recalls: np.ndarray) -> tuple[float, float, int]:
    """(mota_like, amota_like, id_switches); ``confidences`` and ``recalls`` are ``_ranks(hits)``'.

    ``mota_like`` is 1 - (FP + FN + IDSW) / GT on the full output, floored
    at zero. ``amota_like`` repeats that over an 11-point recall grid, as
    AMOTA does (Weng et al., AB3DMOT, IROS 2020): for each target recall
    the smallest high-confidence prediction subset that reaches it is
    evaluated (target 0 uses everything); unreachable targets score 0.
    """
    mota, idsw = _mota_at(hits, 0.0)
    motas = [mota] + [
        _mota_at(hits, confidences[rank])[0] if rank < len(confidences) else 0.0
        for rank in _first_ranks(recalls)[1:]
    ]
    return mota, float(np.mean(motas)), idsw


def compute_metrics(
    run: RunResult, thresholds: Sequence[float] = DETECTION_THRESHOLDS
) -> MetricsReport:
    """Full metric report for one scenario run."""
    radii = {*thresholds, TRACKING_THRESHOLD}
    scans = [_scan(frame, max(radii)) for frame in run.frames]
    hits = {thr: _hits(scans, thr) for thr in radii}
    ranks = {thr: _ranks(hits[thr]) for thr in radii}
    ap_per = {thr: _interpolated_ap(*ranks[thr][1:]) for thr in thresholds}
    tracked = hits[TRACKING_THRESHOLD]
    mota, amota, idsw = _tracking(tracked, *ranks[TRACKING_THRESHOLD][:2])
    rmse = float(np.sqrt(np.mean(np.square(tracked.distances)))) if tracked.distances else math.nan
    prefusion = [rec.coop_prefusion_err for rec in run.frames if not math.isnan(rec.coop_prefusion_err)]
    return MetricsReport(
        ap=float(np.mean(list(ap_per.values()))),
        ap_per_threshold=ap_per,
        pr_curves={thr: (tuple(ranks[thr][1].tolist()), tuple(ranks[thr][2].tolist())) for thr in ap_per},
        mota_like=mota,
        amota_like=amota,
        id_switches=idsw,
        duplicate_rate=tracked.duplicates / tracked.total_gt if tracked.total_gt else 0.0,
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
    # One chunk per worker: pickle then ships the shared scene record once per chunk.
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(_point_metrics, points, chunksize=-(-len(points) // jobs)))


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
    if compensation not in ("both", "off"):
        raise ValueError("compensation must be 'both' or 'off'")
    modes = (True, False) if compensation == "both" else (False,)
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
