"""Detection/tracking/bandwidth metrics and the two sweep studies.

Metrics are deliberately simplified relative to full benchmark suites:
center-distance greedy matching, 11-point interpolated average precision
over fixed distance thresholds, and a tracking accuracy score swept
over an 11-point recall grid. Every metric derives from one table of
greedy matches per distinct distance threshold, picked by one
``greedy_nearest`` over the whole run from one ``pairs_within`` scan per
frame, the pairs numbered across the run (the rule that continues sensing
tracks). The claims these support are trends and properties, not
leaderboard numbers, and every output is deterministic given the scenario
seed.
"""

from __future__ import annotations

import csv
import itertools
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Collection, Sequence

import numpy as np

from .core import greedy_nearest, pairs_within
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
    mota_like: float
    amota_like: float
    id_switches: int
    duplicate_rate: float
    rmse_pos: float
    bps_sent: float
    bps_received: float
    coop_prefusion_err: float = math.nan


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


def _columns(group: Sequence) -> tuple[np.ndarray, np.ndarray]:
    """The (n, 2) planar positions and the class ids of predictions or objects, as ``pairs_within`` takes them."""
    xy = np.fromiter(itertools.chain.from_iterable([o.state[:2] for o in group]), np.float64, 2 * len(group))
    return xy.reshape(-1, 2), np.fromiter([o.class_id for o in group], np.int64, len(group))


def _hits(frames: Sequence[FrameRecord], radii: Collection[float]) -> dict[float, Hits]:
    """Greedy confidence-ordered one-to-one matching by planar distance, one ``Hits`` per radius.

    Each frame's predictions are visited by descending confidence (stable)
    and paired with its objects once, within the largest radius. The pairs
    are indexed run-wide, predictions and objects each numbered across the
    frames, so one ``greedy_nearest`` per radius matches every frame: no two
    frames share a prediction or an object index.
    """
    order, objects, pairs = [], [], []  # the run's predictions in visiting order, its objects, their pairs
    for frame in frames:
        visits = sorted(frame.tracks.instances, key=lambda p: -p.confidence)
        first, first_object = len(order), len(objects)
        found = pairs_within(*_columns(visits), *_columns(frame.ground_truth), max(radii))
        pairs += [(i + first, j + first_object, d) for i, j, d in found]
        order += visits
        objects += frame.ground_truth
    frame_of = np.repeat(np.arange(len(frames)), [len(frame.tracks.instances) for frame in frames])
    confidence = np.array([p.confidence for p in order], float)
    track_id = np.array([p.track_id for p in order], object)
    object_ids = np.array([o.object_id for o in objects], np.int64)
    pair_rows = np.array(pairs, float).reshape(-1, 3)
    pair_query, pair_distance = pair_rows[:, 0].astype(np.intp), pair_rows[:, 2]
    hits = {}
    for radius in radii:
        picks = greedy_nearest(pairs, len(order), radius)
        found = [(i, *pick) for i, pick in enumerate(picks) if pick is not None]
        rows, refs, distances = (list(column) for column in zip(*found)) if found else ([], [], [])
        matched = np.zeros(len(order), bool)
        matched[rows] = True
        object_id = np.full(len(order), -1, np.int64)
        object_id[rows] = object_ids[refs]
        near = np.zeros(len(order), bool)
        near[pair_query[pair_distance <= radius]] = True
        rank = np.lexsort((~matched, frame_of))  # stable: each frame's matched rows first, in visiting order
        # Matched rows in row order are in visiting order across the run, as ``distances`` is.
        hits[radius] = Hits(confidence[rank], matched[rank], object_id[rank], track_id[rank], distances,
                            int(np.count_nonzero(near & ~matched)), len(objects))
    return hits


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


def compute_metrics(run: RunResult) -> MetricsReport:
    """Full metric report for one scenario run: AP averaged over ``DETECTION_THRESHOLDS``, tracking scored at
    ``TRACKING_THRESHOLD``."""
    radii = {*DETECTION_THRESHOLDS, TRACKING_THRESHOLD}
    hits = _hits(run.frames, radii)
    ranks = {thr: _ranks(hits[thr]) for thr in radii}
    tracked = hits[TRACKING_THRESHOLD]
    mota, amota, idsw = _tracking(tracked, *ranks[TRACKING_THRESHOLD][:2])
    rmse = float(np.sqrt(np.mean(np.square(tracked.distances)))) if tracked.distances else math.nan
    prefusion = [rec.coop_prefusion_err for rec in run.frames if not math.isnan(rec.coop_prefusion_err)]
    return MetricsReport(
        ap=float(np.mean([_interpolated_ap(*ranks[thr][1:]) for thr in DETECTION_THRESHOLDS])),
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
    sensed = record_scene(base_cfg)
    points = [
        (replace(base_cfg, channel=replace(base_cfg.channel, latency_ms=float(latency)),
                 pipeline=replace(base_cfg.pipeline, compensate_latency=mode)), sensed)
        for latency in sorted(latencies_ms) for mode in modes
    ]
    return [  # each point's values as its config holds them
        {"latency_ms": cfg.channel.latency_ms, "compensated": int(cfg.pipeline.compensate_latency), "ap": m.ap,
         "rmse": m.rmse_pos, "coop_prefusion_err": m.coop_prefusion_err}
        for (cfg, _), m in zip(points, _map_points(points, jobs))
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
