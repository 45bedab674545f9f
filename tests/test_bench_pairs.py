"""The paired benchmark summary of ``tools/bench_pairs.py``, on synthetic runs."""

import importlib.util
import json
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


def _runs(parent, change):
    """Synthetic runs of group ``crowd``: pair k holds the k-th value of every metric on each side."""
    runs = []
    for k in range(len(parent["throughput"])):
        for side, values in (("parent", parent), ("change", change)):
            metrics = {name: {"value": v[k]} for name, v in values.items()}
            runs.append({"group": "crowd", "pair": k + 1, "side": side, "result": json.dumps({"metrics": metrics})})
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
