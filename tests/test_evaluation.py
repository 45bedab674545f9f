"""Detection/tracking metrics and sweep plumbing."""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from coopfuse import evaluation
from coopfuse.core import GroundTruthObject
from coopfuse.evaluation import (
    DETECTION_THRESHOLDS,
    TRACKING_THRESHOLD,
    FrameGroundTruth,
    compute_ap,
    compute_metrics,
    compute_tracking,
    duplicate_rate,
    match_to_gt,
    sweep_latency,
    write_csv,
)
from coopfuse.fusion import TrackSet
from coopfuse.simulator import FrameRecord, RunResult, run_scenario
from conftest import make_instance, make_state, shipped
from oracles import brute_force_greedy_match, brute_force_scores


def _gt(objects, t=0):
    return FrameGroundTruth(t, tuple(objects))


def _tracks(instances, t=0):
    return TrackSet(t, tuple(instances))


def _gt_obj(object_id, x=0.0, y=0.0, class_id=0):
    return GroundTruthObject(object_id, class_id, make_state(x=x, y=y))


class TestMatchToGt:
    def test_perfect(self):
        gt = _gt([_gt_obj(0, x=0.0), _gt_obj(1, x=10.0)])
        tracks = _tracks([
            make_instance(x=0.0, track_id=1, feature_seed=1),
            make_instance(x=10.0, track_id=2, feature_seed=2),
        ])
        tp, fp, fn = match_to_gt(tracks, gt, 0.5)
        assert len(tp) == 2 and not fp and not fn

    def test_threshold_semantics(self):
        gt = _gt([_gt_obj(0, x=0.0)])
        tracks = _tracks([make_instance(x=0.6, track_id=1, feature_seed=1)])
        tp, fp, fn = match_to_gt(tracks, gt, 0.5)
        assert not tp and len(fp) == 1 and len(fn) == 1

    def test_one_to_one(self):
        gt = _gt([_gt_obj(0, x=0.0)])
        tracks = _tracks([
            make_instance(x=0.1, confidence=0.9, track_id=1, feature_seed=1),
            make_instance(x=0.2, confidence=0.5, track_id=2, feature_seed=2),
        ])
        tp, fp, fn = match_to_gt(tracks, gt, 2.0)
        assert len(tp) == 1 and len(fp) == 1 and not fn
        assert tp[0][0].track_id == 1  # the confident one claims the object

    def test_class_scoped(self):
        gt = _gt([_gt_obj(0, class_id=1)])
        tracks = _tracks([make_instance(x=0.0, class_id=0, track_id=1, feature_seed=1)])
        tp, fp, fn = match_to_gt(tracks, gt, 2.0)
        assert not tp and len(fp) == 1 and len(fn) == 1

    def test_frame_mismatch_rejected(self):
        with pytest.raises(ValueError):
            match_to_gt(_tracks([], t=1), _gt([], t=2), 2.0)


def _perfect_frames(n_frames=5, n_objects=4):
    frames = []
    for k in range(n_frames):
        t = k * 500_000
        gt_objects = [_gt_obj(i, x=5.0 * i, y=1.0 * k) for i in range(n_objects)]
        instances = [
            make_instance(x=5.0 * i, y=1.0 * k, confidence=0.9,
                          track_id=100 + i, feature_seed=i)
            for i in range(n_objects)
        ]
        frames.append((_tracks(instances, t), _gt(gt_objects, t)))
    return frames


class TestComputeAp:
    def test_perfect_detector(self):
        assert compute_ap(_perfect_frames()) == pytest.approx(1.0)

    def test_zero_detections(self):
        frames = [(_tracks([], t=0), _gt([_gt_obj(0)], t=0))]
        assert compute_ap(frames) == 0.0

    def test_half_recall_eleven_point_grid(self):
        # Half of the objects found at confidence 1, no false positives:
        # the 11-point grid holds 6 points at precision 1 and 5 at 0.
        gt_objects = [_gt_obj(i, x=10.0 * i) for i in range(10)]
        instances = [
            make_instance(x=10.0 * i, confidence=1.0, track_id=i, feature_seed=i)
            for i in range(5)
        ]
        frames = [(_tracks(instances), _gt(gt_objects))]
        assert compute_ap(frames) == pytest.approx(6 / 11)

    def test_permutation_invariant(self, rng):
        frames = _perfect_frames()
        shuffled = []
        for tracks, gt in frames:
            order = rng.permutation(len(tracks.instances))
            shuffled.append(
                (_tracks([tracks.instances[i] for i in order], tracks.timestamp), gt)
            )
        assert compute_ap(shuffled) == compute_ap(frames)

    def test_extra_duplicate_never_raises_ap(self):
        frames = _perfect_frames()
        tracks, gt = frames[0]
        dup = make_instance(x=0.3, confidence=0.95, track_id=999, feature_seed=50)
        frames_dup = [(_tracks(list(tracks.instances) + [dup], tracks.timestamp), gt)] + frames[1:]
        assert compute_ap(frames_dup) <= compute_ap(frames) + 1e-12


class TestComputeTracking:
    def test_perfect(self):
        mota, amota, idsw = compute_tracking(_perfect_frames())
        assert (mota, amota, idsw) == (1.0, 1.0, 0)

    def test_single_id_swap(self):
        # 10 frames x 10 objects, one object flips its track id mid-sequence.
        frames = []
        for k in range(10):
            t = k * 500_000
            gt_objects = [_gt_obj(i, x=8.0 * i) for i in range(10)]
            instances = []
            for i in range(10):
                tid = 100 + i
                if i == 0 and k >= 5:
                    tid = 555
                instances.append(
                    make_instance(x=8.0 * i, confidence=0.9, track_id=tid, feature_seed=i)
                )
            frames.append((_tracks(instances, t), _gt(gt_objects, t)))
        mota, _, idsw = compute_tracking(frames)
        assert idsw == 1
        assert mota == pytest.approx(1.0 - 1 / 100)

    def test_empty_output(self):
        frames = [(_tracks([], t=0), _gt([_gt_obj(0)], t=0))]
        assert compute_tracking(frames) == (0.0, 0.0, 0)

    def test_permutation_invariant(self, rng):
        frames = _perfect_frames()
        shuffled = [
            (_tracks(list(rng.permutation(tracks.instances)), tracks.timestamp), gt)
            for tracks, gt in frames
        ]
        assert compute_tracking(shuffled) == compute_tracking(frames)


class TestDuplicateRate:
    def test_no_duplicates(self):
        assert duplicate_rate(_perfect_frames()) == 0.0

    def test_counts_extra_hits_on_matched_objects(self):
        gt_objects = [_gt_obj(0)]
        instances = [
            make_instance(x=0.0, confidence=0.9, track_id=1, feature_seed=1),
            make_instance(x=0.5, confidence=0.8, track_id=2, feature_seed=2),
        ]
        frames = [(_tracks(instances), _gt(gt_objects))]
        assert duplicate_rate(frames) == pytest.approx(1.0)


GRID = st.integers(0, 6).map(lambda k: 0.5 * k)
CLASSES = st.integers(0, 1)


@st.composite
def plain_frames(draw):
    """Frames as ``(preds, gts)`` tuples in the oracle's layout.

    Half-metre grid positions give distance ties and distances exactly on
    the thresholds, four confidence levels give confidence ties, and track
    ids reused across frames on other objects give ID switches.
    """
    frames = []
    for _ in range(draw(st.integers(1, 5))):
        object_ids = draw(st.lists(st.integers(0, 3), unique=True, max_size=4))
        gts = [(oid, draw(GRID), draw(GRID), draw(CLASSES)) for oid in object_ids]
        track_ids = draw(st.lists(st.integers(0, 4), unique=True, max_size=5))
        preds = [
            (draw(GRID), draw(GRID), draw(st.sampled_from([0.3, 0.6, 0.9, 1.0])), draw(CLASSES), tid)
            for tid in track_ids
        ]
        frames.append((preds, gts))
    return frames


def _library_frames(frames):
    out = []
    for k, (preds, gts) in enumerate(frames):
        t = k * 500_000
        instances = [
            make_instance(x=x, y=y, confidence=conf, class_id=cls, track_id=tid, feature_seed=tid)
            for x, y, conf, cls, tid in preds
        ]
        objects = [_gt_obj(oid, x=x, y=y, class_id=cls) for oid, x, y, cls in gts]
        out.append((_tracks(instances, t), _gt(objects, t)))
    return out


class TestScoringOracle:
    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(plain_frames())
    def test_scores_equal_brute_force(self, frames):
        lib_frames = _library_frames(frames)
        for (tracks, gt), (preds, gts) in zip(lib_frames, frames):
            for thr in DETECTION_THRESHOLDS:
                tp, fp, fn = match_to_gt(tracks, gt, thr)
                pairs, unmatched, free = brute_force_greedy_match(preds, gts, thr)
                assert [(p.track_id, g.object_id) for p, g, _ in tp] == [
                    (preds[i][4], gts[k][0]) for i, k, _ in pairs
                ]
                assert [p.track_id for p in fp] == [preds[i][4] for i in unmatched]
                assert len(fn) == len(free)

        expected = brute_force_scores(frames, DETECTION_THRESHOLDS, TRACKING_THRESHOLD)
        mota, amota, idsw = compute_tracking(lib_frames)
        assert idsw == expected["id_switches"]
        assert mota == pytest.approx(expected["mota"], abs=1e-12)
        assert amota == pytest.approx(expected["amota"], abs=1e-12)
        assert compute_ap(lib_frames) == pytest.approx(expected["ap"], abs=1e-12)
        assert duplicate_rate(lib_frames) == pytest.approx(expected["duplicate_rate"], abs=1e-12)

        run = RunResult(
            config=shipped("quickstart"),
            frames=[FrameRecord(tracks.timestamp, tracks, gt.objects) for tracks, gt in lib_frames],
            events=[],
            bytes_sent=0,
            bytes_received=0,
        )
        report = compute_metrics(run)
        assert report.id_switches == expected["id_switches"]
        assert (report.mota_like, report.amota_like, report.ap, report.duplicate_rate) == pytest.approx(
            (expected["mota"], expected["amota"], expected["ap"], expected["duplicate_rate"]), abs=1e-12
        )
        assert report.rmse_pos == pytest.approx(expected["rmse"], abs=1e-12, nan_ok=True)

    def test_compute_metrics_matches_each_frame_once_per_threshold(self, monkeypatch):
        calls = []
        real = evaluation._greedy_match

        def counting(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(evaluation, "_greedy_match", counting)
        run = run_scenario(shipped("quickstart"))
        compute_metrics(run)
        assert len(calls) == len(run.frames) * len({0.5, 1.0, 2.0, 4.0})

    def test_compute_metrics_scans_each_frame_once(self, monkeypatch):
        scans = []
        real = evaluation._scan

        def counting(*args):
            scans.append(args)
            return real(*args)

        monkeypatch.setattr(evaluation, "_scan", counting)
        run = run_scenario(shipped("quickstart"))
        compute_metrics(run)
        assert len(scans) == len(run.frames)

    def test_compute_metrics_ranks_each_radius_once(self, monkeypatch):
        ranked = []
        real = evaluation._ranked

        def counting(matches):
            ranked.append(matches)
            return real(matches)

        monkeypatch.setattr(evaluation, "_ranked", counting)
        compute_metrics(run_scenario(shipped("quickstart")))
        assert len(ranked) == len({0.5, 1.0, 2.0, 4.0})


class TestCsvAndSweeps:
    def test_write_csv_deterministic(self, tmp_path):
        rows = [{"a": 1.0 / 3.0, "b": 2}, {"a": 0.5, "b": -1}]
        p1, p2 = tmp_path / "one.csv", tmp_path / "two.csv"
        write_csv(p1, ("a", "b"), rows)
        write_csv(p2, ("a", "b"), rows)
        assert p1.read_bytes() == p2.read_bytes()
        assert p1.read_text().splitlines()[0] == "a,b"

    def test_latency_sweep_zero_latency_rows_identical(self):
        cfg = shipped("quickstart", seed=2)
        rows = sweep_latency(cfg, [0.0], compensation="both")
        assert len(rows) == 2
        on, off = rows
        assert on["compensated"] == 1 and off["compensated"] == 0
        assert on["ap"] == off["ap"]
        assert on["rmse"] == off["rmse"]

    def test_compute_metrics_report_fields(self):
        result = run_scenario(shipped("quickstart", seed=1))
        metrics = compute_metrics(result)
        assert 0.0 <= metrics.ap <= 1.0
        assert 0.0 <= metrics.mota_like <= 1.0
        assert 0.0 <= metrics.amota_like <= 1.0
        assert metrics.duplicate_rate >= 0.0
        assert metrics.bps_sent > 0
        assert set(metrics.pr_curves) == {0.5, 1.0, 2.0, 4.0}
