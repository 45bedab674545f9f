"""The paired benchmark summary of ``tools/bench_pairs.py``, on synthetic runs."""

import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "bench_pairs", Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

END_TO_END = [
    {"name": "throughput", "better": "higher", "bound": 0.2},
    {"name": "op_s_p50", "better": "lower", "bound": 0.2},
]


def _result(metrics, attempted=3, failed=0):
    return json.dumps({"attempted": attempted, "failed": failed, "metrics": metrics})


def _runs(parent, change):
    """Synthetic runs of group ``crowd``: pair k holds the k-th value of every metric on each side."""
    runs = []
    for k in range(len(parent["throughput"])):
        for side, values in (("parent", parent), ("change", change)):
            metrics = {name: {"value": v[k]} for name, v in values.items()}
            runs.append({"group": "crowd", "pair": k + 1, "side": side, "result": _result(metrics)})
    return runs


@pytest.mark.parametrize(
    ("throughput", "op_s", "expected"),
    [
        ((81.0, 80.0, 82.0), (1.19, 1.2, 1.18), (True, True)),  # 19% worse, medians inside both bounds
        ((79.0, 78.0, 80.0), (1.21, 1.22, 1.2), (False, False)),  # 21% worse, medians outside
        ((130.0, 120.0, 125.0), (0.5, 0.6, 0.7), (True, True)),  # better in both directions
    ],
)
def test_within_bound_follows_the_better_direction(throughput, op_s, expected):
    parent = {"throughput": (100.0, 99.0, 101.0), "op_s_p50": (1.0, 1.01, 0.99)}
    change = {"throughput": throughput, "op_s_p50": op_s}
    summary = bench_pairs.summarize(_runs(parent, change), END_TO_END)["crowd"]
    assert (summary["throughput"]["within_bound"], summary["op_s_p50"]["within_bound"]) == expected
    assert summary["throughput"]["pairs"] == 3
    assert summary["throughput"]["parent_q1_median_q3"][1] == 100.0


@pytest.mark.parametrize(("throughput", "expected"), [((101.0, 60.0, 101.0), True), ((60.0, 101.0, 70.0), False)])
def test_the_medians_decide_not_single_pairs(throughput, expected):
    parent = {"throughput": (100.0, 100.0, 100.0), "op_s_p50": (1.0, 1.0, 1.0)}
    change = {"throughput": throughput, "op_s_p50": (1.0, 1.0, 1.0)}
    summary = bench_pairs.summarize(_runs(parent, change), END_TO_END)["crowd"]
    assert summary["throughput"]["within_bound"] is expected
    assert summary["op_s_p50"]["within_bound"] is True


def test_ops_sum_attempted_and_failed_per_side():
    metrics = {"throughput": {"value": 1.0}, "op_s_p50": {"value": 1.0}}
    runs = [
        {"group": "crowd", "pair": 1, "side": "parent", "result": _result(metrics, 5, 0)},
        {"group": "crowd", "pair": 1, "side": "change", "result": _result(metrics, 4, 1)},
        {"group": "crowd", "pair": 2, "side": "change", "result": _result(metrics, 6, 2)},
        {"group": "crowd", "pair": 2, "side": "parent", "result": _result(metrics, 7, 0)},
        {"group": "crowd", "pair": 3, "side": "parent", "result": _result(metrics, 2, 1)},  # its pair never finished
        {"group": "harness", "pair": 1, "side": "parent", "result": _result(metrics, 100, 9)},
        {"group": "harness", "pair": 1, "side": "change", "result": _result(metrics, 100, 0)},
    ]
    summary = bench_pairs.summarize(runs, END_TO_END)
    assert summary["crowd"]["ops"] == {"parent": {"attempted": 14, "failed": 1},
                                       "change": {"attempted": 10, "failed": 3}}
    assert summary["crowd"]["throughput"]["pairs"] == 2
    assert summary["harness"]["ops"]["parent"] == {"attempted": 100, "failed": 9}


def test_the_file_keeps_every_pair_before_a_failing_run(tmp_path, monkeypatch):
    checkouts = {side: tmp_path / side for side in ("parent", "change")}
    for path in checkouts.values():
        path.mkdir()
    (checkouts["change"] / "BENCHMARK.json").write_text(json.dumps({"end_to_end": END_TO_END}))
    calls = []

    def run_once(checkout, workload, seed):
        calls.append((checkout.name, seed))
        if seed == 3 and checkout.name == "change":
            raise subprocess.CalledProcessError(1, ["perfbench/run.py"])
        metrics = {"throughput": {"value": float(seed)}, "op_s_p50": {"value": 1.0}}
        return {"env": "env {}", "result": _result(metrics)}

    monkeypatch.setattr(bench_pairs, "git_sha", lambda checkout: f"sha-{checkout.name}")
    monkeypatch.setattr(bench_pairs, "run_once", run_once)
    out = tmp_path / "bench.json"
    argv = ["--parent", str(checkouts["parent"]), "--change", str(checkouts["change"]),
            "--workload", "crowd", "--seeds", "1-4", "--out", str(out)]
    with pytest.raises(subprocess.CalledProcessError):
        bench_pairs.main(argv)
    record = json.loads(out.read_text())
    assert [(r["pair"], r["seed"], r["side"]) for r in record["runs"]] == [
        (1, 1, "parent"), (1, 1, "change"), (2, 2, "change"), (2, 2, "parent")
    ]
    assert record["summary"]["crowd"]["throughput"]["pairs"] == 2
    assert record["summary"]["crowd"]["ops"]["change"] == {"attempted": 6, "failed": 0}
    assert (record["parent_sha"], record["change_sha"]) == ("sha-parent", "sha-change")
    # The failing pair was the third: its parent side ran first, then the change side raised.
    assert calls[-2:] == [("parent", 3), ("change", 3)]
