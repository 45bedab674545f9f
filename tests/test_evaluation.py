"""Detection/tracking metrics and sweep plumbing."""

import itertools
import math
from dataclasses import replace

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from coopfuse import evaluation
from coopfuse.core import GroundTruthObject
from coopfuse.evaluation import (
    DETECTION_THRESHOLDS,
    TRACKING_THRESHOLD,
    compute_metrics,
    sweep_interaction_range,
    sweep_latency,
    write_csv,
)
from coopfuse.fusion import COOP_TRACK_FLAG, TrackSet
from coopfuse.simulator import FrameRecord, RunResult, ScenarioConfig, SceneRecord, run_scenario
from conftest import make_instance, make_state, shipped
from oracles import _ranked_hits, brute_force_greedy_match, brute_force_scores


def _frame(instances, objects, t=0):
    return FrameRecord(t, TrackSet(t, tuple(instances)), tuple(objects))


def _run(frames):
    """A hand-built run of ``frames``, for ``compute_metrics`` to score."""
    return RunResult(config=ScenarioConfig(), frames=list(frames), events=[], bytes_sent=0, bytes_received=0)


def _curve(frame, thr):
    """The (recalls, precisions) that ``compute_metrics`` ranks at ``thr`` for one
    frame: one entry per prediction, most confident first. A prediction matched
    raises the recall, an unmatched one lowers the precision, and a final recall
    below 1 means some object was missed."""
    _, recalls, precisions = evaluation._ranks(evaluation._hits([frame], (thr,))[thr])
    return tuple(recalls.tolist()), tuple(precisions.tolist())


def _gt_obj(object_id, x=0.0, y=0.0, class_id=0):
    return GroundTruthObject(object_id, class_id, make_state(x=x, y=y))


def _shuffled(frame, rng):
    order = rng.permutation(len(frame.tracks.instances))
    return _frame([frame.tracks.instances[i] for i in order], frame.ground_truth, frame.t_us)


class TestMatchToGt:
    """Greedy confidence-ordered one-to-one matching, as ``compute_metrics`` scores it."""

    def test_perfect(self):
        frame = _frame(
            [make_instance(x=0.0, track_id=1, feature_seed=1), make_instance(x=10.0, track_id=2, feature_seed=2)],
            [_gt_obj(0, x=0.0), _gt_obj(1, x=10.0)],
        )
        # Two matches, no false positive, no missed object.
        assert _curve(frame, 0.5) == ((0.5, 1.0), (1.0, 1.0))

    def test_threshold_semantics(self):
        frame = _frame([make_instance(x=0.6, track_id=1, feature_seed=1)], [_gt_obj(0, x=0.0)])
        # 0.6 m off: a false positive and a missed object at 0.5 m, a match at 1 m.
        assert _curve(frame, 0.5) == ((0.0,), (0.0,))
        assert _curve(frame, 1.0) == ((1.0,), (1.0,))

    def test_one_to_one(self):
        frame = _frame(
            [
                make_instance(x=0.1, confidence=0.9, track_id=1, feature_seed=1),
                make_instance(x=0.2, confidence=0.5, track_id=2, feature_seed=2),
            ],
            [_gt_obj(0, x=0.0)],
        )
        # The confident one claims the object; the other is a false positive.
        assert _curve(frame, 2.0) == ((1.0, 1.0), (1.0, 0.5))

    def test_class_scoped(self):
        frame = _frame([make_instance(x=0.0, class_id=0, track_id=1, feature_seed=1)], [_gt_obj(0, class_id=1)])
        assert _curve(frame, 2.0) == ((0.0,), (0.0,))


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
        frames.append(_frame(instances, gt_objects, t))
    return frames


class TestComputeAp:
    def test_perfect_detector(self):
        assert compute_metrics(_run(_perfect_frames())).ap == pytest.approx(1.0)

    def test_zero_detections(self):
        assert compute_metrics(_run([_frame([], [_gt_obj(0)])])).ap == 0.0

    def test_half_recall_eleven_point_grid(self):
        # Half of the objects found at confidence 1, no false positives:
        # the 11-point grid holds 6 points at precision 1 and 5 at 0.
        gt_objects = [_gt_obj(i, x=10.0 * i) for i in range(10)]
        instances = [
            make_instance(x=10.0 * i, confidence=1.0, track_id=i, feature_seed=i)
            for i in range(5)
        ]
        assert compute_metrics(_run([_frame(instances, gt_objects)])).ap == pytest.approx(6 / 11)

    def test_permutation_invariant(self, rng):
        frames = _perfect_frames()
        shuffled = [_shuffled(frame, rng) for frame in frames]
        assert compute_metrics(_run(shuffled)).ap == compute_metrics(_run(frames)).ap

    def test_extra_duplicate_never_raises_ap(self):
        frames = _perfect_frames()
        first = frames[0]
        dup = make_instance(x=0.3, confidence=0.95, track_id=999, feature_seed=50)
        frames_dup = [_frame([*first.tracks.instances, dup], first.ground_truth, first.t_us)] + frames[1:]
        assert compute_metrics(_run(frames_dup)).ap <= compute_metrics(_run(frames)).ap + 1e-12


def _tracking(frames):
    report = compute_metrics(_run(frames))
    return report.mota_like, report.amota_like, report.id_switches


class TestComputeTracking:
    def test_perfect(self):
        mota, amota, idsw = _tracking(_perfect_frames())
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
            frames.append(_frame(instances, gt_objects, t))
        mota, _, idsw = _tracking(frames)
        assert idsw == 1
        assert mota == pytest.approx(1.0 - 1 / 100)

    def test_empty_output(self):
        assert _tracking([_frame([], [_gt_obj(0)])]) == (0.0, 0.0, 0)

    def test_permutation_invariant(self, rng):
        frames = _perfect_frames()
        shuffled = [_shuffled(frame, rng) for frame in frames]
        assert _tracking(shuffled) == _tracking(frames)


class TestDuplicateRate:
    def test_no_duplicates(self):
        assert compute_metrics(_run(_perfect_frames())).duplicate_rate == 0.0

    def test_counts_extra_hits_on_matched_objects(self):
        gt_objects = [_gt_obj(0)]
        instances = [
            make_instance(x=0.0, confidence=0.9, track_id=1, feature_seed=1),
            make_instance(x=0.5, confidence=0.8, track_id=2, feature_seed=2),
        ]
        assert compute_metrics(_run([_frame(instances, gt_objects)])).duplicate_rate == pytest.approx(1.0)

    # The tracking threshold is 2 m: an extra hit exactly on it counts, one beyond it does not.
    @pytest.mark.parametrize(("x", "rate"), [(2.0, 1.0), (2.5, 0.0)])
    def test_extra_hit_at_the_tracking_threshold(self, x, rate):
        instances = [
            make_instance(x=0.0, confidence=0.9, track_id=1, feature_seed=1),
            make_instance(x=x, confidence=0.8, track_id=2, feature_seed=2),
        ]
        assert compute_metrics(_run([_frame(instances, [_gt_obj(0)])])).duplicate_rate == rate


GRID = st.integers(0, 6).map(lambda k: 0.5 * k)
CLASSES = st.integers(0, 1)
# Ego track ids and flagged cooperator ids, which overflow int64.
TRACK_IDS = st.integers(0, 4) | st.integers(0, 4).map(lambda k: COOP_TRACK_FLAG | k)


@st.composite
def plain_frames(draw):
    """Frames as ``(preds, gts)`` tuples in the oracle's layout.

    Half-metre grid positions give distance ties and distances exactly on
    the thresholds, four confidence levels give confidence ties, and track
    ids reused across frames on other objects give ID switches. Some track
    ids carry ``COOP_TRACK_FLAG``, as fused cooperator tracks do.
    """
    frames = []
    for _ in range(draw(st.integers(1, 5))):
        object_ids = draw(st.lists(st.integers(0, 3), unique=True, max_size=4))
        gts = [(oid, draw(GRID), draw(GRID), draw(CLASSES)) for oid in object_ids]
        track_ids = draw(st.lists(TRACK_IDS, unique=True, max_size=5))
        preds = [
            (draw(GRID), draw(GRID), draw(st.sampled_from([0.3, 0.6, 0.9, 1.0])), draw(CLASSES), tid)
            for tid in track_ids
        ]
        frames.append((preds, gts))
    return frames


def _library_frames(frames):
    out = []
    for k, (preds, gts) in enumerate(frames):
        instances = [
            make_instance(x=x, y=y, confidence=conf, class_id=cls, track_id=tid, feature_seed=tid)
            for x, y, conf, cls, tid in preds
        ]
        objects = [_gt_obj(oid, x=x, y=y, class_id=cls) for oid, x, y, cls in gts]
        out.append(_frame(instances, objects, k * 500_000))
    return out


class TestScoringOracle:
    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(plain_frames())
    def test_scores_equal_brute_force(self, frames):
        lib_frames = _library_frames(frames)
        for frame, (preds, gts) in zip(lib_frames, frames):
            for thr, hits in evaluation._hits([frame], DETECTION_THRESHOLDS).items():
                pairs, unmatched, free = brute_force_greedy_match(preds, gts, thr)
                # Matched rows first, then unmatched, each in visiting order.
                assert hits.matched.tolist() == [True] * len(pairs) + [False] * len(unmatched)
                assert hits.track_id.tolist() == [preds[i][4] for i, _, _ in pairs] + [preds[i][4] for i in unmatched]
                assert hits.object_id[hits.matched].tolist() == [gts[k][0] for _, k, _ in pairs]
                assert hits.distances == [d for _, _, d in pairs]
                assert hits.total_gt - len(pairs) == len(free)

        expected = brute_force_scores(frames, DETECTION_THRESHOLDS, TRACKING_THRESHOLD)
        report = compute_metrics(_run(lib_frames))
        total_gt = sum(len(gts) for _, gts in frames)
        for thr, hits in evaluation._hits(lib_frames, DETECTION_THRESHOLDS).items():
            tp_cum = list(itertools.accumulate(is_tp for _, is_tp in _ranked_hits(frames, thr)))
            recalls = [t / total_gt if total_gt else 0.0 for t in tp_cum]
            precisions = [t / rank for rank, t in enumerate(tp_cum, start=1)]
            assert [column.tolist() for column in evaluation._ranks(hits)[1:]] == [recalls, precisions]
        assert report.id_switches == expected["id_switches"]
        assert (report.mota_like, report.amota_like, report.ap, report.duplicate_rate) == pytest.approx(
            (expected["mota"], expected["amota"], expected["ap"], expected["duplicate_rate"]), abs=1e-12
        )
        assert report.rmse_pos == pytest.approx(expected["rmse"], abs=1e-12, nan_ok=True)

    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(plain_frames(), st.integers(0, 5))
    def test_a_run_matches_as_its_frames_in_turn(self, frames, empty_at):
        # Frames reuse object ids 0-3 and track ids, and one has no prediction and no object.
        frames = frames[:empty_at] + [([], [])] + frames[empty_at:]
        hits = evaluation._hits(_library_frames(frames), DETECTION_THRESHOLDS)
        for thr in DETECTION_THRESHOLDS:
            expected = {"matched": [], "confidence": [], "track_id": [], "object_id": [], "distances": [],
                        "duplicates": 0}
            for preds, gts in frames:
                pairs, unmatched, _ = brute_force_greedy_match(preds, gts, thr)
                rows = [i for i, _, _ in pairs] + unmatched  # matched first, each in visiting order
                expected["matched"] += [True] * len(pairs) + [False] * len(unmatched)
                expected["confidence"] += [preds[i][2] for i in rows]
                expected["track_id"] += [preds[i][4] for i in rows]
                expected["object_id"] += [gts[k][0] for _, k, _ in pairs] + [-1] * len(unmatched)
                expected["distances"] += [d for _, _, d in pairs]
                expected["duplicates"] += sum(
                    any(cls == preds[i][3] and math.hypot(preds[i][0] - x, preds[i][1] - y) <= thr
                        for _, x, y, cls in gts)
                    for i in unmatched
                )
            got = hits[thr]
            columns = {name: getattr(got, name).tolist() for name in ("matched", "confidence", "track_id", "object_id")}
            assert {**columns, "distances": got.distances, "duplicates": got.duplicates} == expected
            assert got.total_gt == sum(len(gts) for _, gts in frames)

    def test_compute_metrics_matches_the_run_once_per_threshold(self, monkeypatch):
        calls = []
        real = evaluation.greedy_nearest

        def counting(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(evaluation, "greedy_nearest", counting)
        run = run_scenario(shipped("quickstart"))
        compute_metrics(run)
        assert len(calls) == len({0.5, 1.0, 2.0, 4.0})
        assert all(count == sum(len(frame.tracks.instances) for frame in run.frames) for _, count, _ in calls)

    def test_compute_metrics_pairs_each_frame_once(self, monkeypatch):
        scans = []
        real = evaluation.pairs_within

        def counting(*args):
            scans.append(args)
            return real(*args)

        monkeypatch.setattr(evaluation, "pairs_within", counting)
        run = run_scenario(shipped("quickstart"))
        compute_metrics(run)
        assert len(scans) == len(run.frames)
        assert [len(queries) for queries, *_ in scans] == [len(frame.tracks.instances) for frame in run.frames]

    def test_compute_metrics_ranks_each_radius_once(self, monkeypatch):
        ranked = []
        real = evaluation._ranks

        def counting(hits):
            ranked.append(hits)
            return real(hits)

        monkeypatch.setattr(evaluation, "_ranks", counting)
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

    @pytest.mark.parametrize("compensation", ["on", "none"])
    def test_latency_sweep_rejects_other_compensation_modes(self, compensation):
        with pytest.raises(ValueError, match="compensation"):
            sweep_latency(shipped("quickstart"), [0.0], compensation=compensation)

    @pytest.mark.parametrize("sweep", [sweep_interaction_range, sweep_latency])
    def test_a_scene_without_agents_is_refused(self, sweep):
        with pytest.raises(ValueError, match=r"^scenario needs at least one \(ego\) agent$"):
            sweep(ScenarioConfig())

    def test_parallel_sweep_pickles_the_scene_once_per_worker(self, monkeypatch):
        # Tasks are pickled in this process; pickle memoises the record within one chunk.
        pickled = []

        def counting(record, protocol):
            pickled.append(protocol)
            return object.__reduce_ex__(record, protocol)

        monkeypatch.setattr(SceneRecord, "__reduce_ex__", counting)
        cfg = replace(shipped("quickstart"), duration_s=1.0)
        rows = sweep_latency(cfg, [0.0, 100.0, 200.0], jobs=2)
        assert len(rows) == 6
        assert 1 <= len(pickled) <= 2

    @pytest.mark.parametrize(
        "sweep, name, points",
        [(sweep_interaction_range, "range_study", [5.0, 30.0]), (sweep_latency, "latency_study", [0.0, 300.0])],
        ids=["rint", "latency"],
    )
    def test_parallel_sweep_equals_serial(self, sweep, name, points):
        # The workers unpickle the scene record (slotted instances included) and must score every point alike.
        cfg = replace(shipped(name, seed=1), duration_s=3.0)
        assert repr(sweep(cfg, points, jobs=2)) == repr(sweep(cfg, points, jobs=1))

    def test_compute_metrics_report_fields(self):
        result = run_scenario(shipped("quickstart", seed=1))
        metrics = compute_metrics(result)
        assert 0.0 <= metrics.ap <= 1.0
        assert 0.0 <= metrics.mota_like <= 1.0
        assert 0.0 <= metrics.amota_like <= 1.0
        assert metrics.duplicate_rate >= 0.0
        assert metrics.bps_sent > 0
