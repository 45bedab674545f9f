"""Tests of the benchmark itself: tracing, counter identities, checks, CLI.

Run with ``python3 -m pytest -q perfbench`` from the repository root.
"""

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import coopfuse  # noqa: E402
import workloads  # noqa: E402
from tracer import HOOKS, LAYER_METRICS, Hook, Tracer  # noqa: E402


def small_crowd(**channel):
    """Four cooperators, drops, jitter and a horizon short enough to go stale."""
    cfg = coopfuse.configio.load_scenario(ROOT / "perfbench" / "configs" / "crowd.yaml")
    agents = tuple(replace(a, sensor=replace(a.sensor, feature_dim=8)) for a in cfg.agents)
    pipeline = replace(
        cfg.pipeline,
        alignment=replace(cfg.pipeline.alignment, max_compensation_horizon=0.6),
    )
    return replace(
        cfg,
        seed=7,
        object_count=30,
        duration_s=5.0,
        agents=agents,
        pipeline=pipeline,
        channel=replace(cfg.channel, **{"latency_ms": 300.0, "jitter_ms": 400.0, "drop_prob": 0.2, **channel}),
    )


def crowd_workload(cfg):
    wl = workloads.Crowd()
    wl.cfg = cfg
    wl.sizes = workloads.packet_sizes(cfg.pipeline.transmit_top_k, cfg.agents[0].sensor.feature_dim)
    return wl


def traced_run(wl, inp, hooks=HOOKS):
    tracer = Tracer(hooks)
    tracer.install()
    try:
        with tracer.op(0, "op.test"):
            out = wl.run(inp)
    finally:
        tracer.uninstall()
    return tracer, out


def test_identities_hold_and_tracing_changes_no_output():
    cfg = small_crowd()
    wl = crowd_workload(cfg)
    plain = wl.run(cfg)
    tracer, out = traced_run(wl, cfg)
    assert wl.check(cfg, out) == []
    assert wl.digest(out) == wl.digest(plain)
    run = out[0]
    assert sum(f.stale_dropped for f in run.frames) > 0, "scene must exercise the stale path"
    assert any(e.kind == "drop" for e in run.events), "scene must exercise drops"
    for label, lhs, rhs, holds in tracer.check_identities():
        assert holds is True, (label, lhs, rhs)
    assert tracer.counts["wire.encode.bytes"] == run.bytes_sent
    assert not tracer.absent


def test_studies_identities_hold():
    wl = workloads.Studies()
    wl.load(ROOT)
    inp = wl.warmup_input(3)
    tracer, out = traced_run(wl, inp)
    assert wl.check(inp, out) == []
    assert all(holds for *_, holds in tracer.check_identities())
    assert tracer.counts["evaluation.sweep.calls"] == 2


def test_layer_metrics_cover_the_declared_list():
    cfg = small_crowd()
    tracer, _ = traced_run(crowd_workload(cfg), cfg)
    values = tracer.layer_metrics(ops=1, overhead=0.0)
    assert set(values) == set(LAYER_METRICS)
    assert values["simulator.sense.calls"] == cfg.frame_count * len(cfg.agents)
    assert 0.0 < values["trace.coverage"] <= 1.0
    assert 0.0 < values["alignment.yield"] < 1.0


def test_missing_hook_is_reported_absent_and_skips_its_identity():
    renamed = tuple(
        Hook(h.name, h.module, "encode_batch", h.counter) if h.name == "wire.encode" else h
        for h in HOOKS
    ) + (Hook("gone.module", "coopfuse.no_such_module", "f"),)
    cfg = small_crowd()
    wl = crowd_workload(cfg)
    tracer, out = traced_run(wl, cfg, renamed)
    assert wl.digest(out) == wl.digest(wl.run(cfg))
    assert set(tracer.absent) == {"wire.encode", "gone.module"}
    results = {label: holds for label, _, _, holds in tracer.check_identities()}
    assert results["encode bytes == bytes_sent"] is None
    assert results["associate matched == coarse_fuse calls"] is True
    assert tracer.layer_metrics(ops=1, overhead=0.0)["wire.encode.ms"] == 0.0


def test_uninstall_restores_every_alias():
    original = coopfuse.wire.encode_packet
    method = coopfuse.wire.InstancePacket.to_instances
    tracer = Tracer()
    tracer.install()
    assert coopfuse.simulator.encode_packet is not original
    assert coopfuse.encode_packet is coopfuse.simulator.encode_packet
    tracer.uninstall()
    assert coopfuse.simulator.encode_packet is original
    assert coopfuse.encode_packet is original
    assert coopfuse.wire.InstancePacket.to_instances is method


def test_packet_sizes_follow_the_documented_layout():
    assert workloads.HEADER_BYTES == 68
    assert workloads.RECORD_FIXED_BYTES + 4 * 256 == 1081
    assert workloads.packet_sizes(50, 256) == {coopfuse.wire.packet_size(k, 256) for k in range(51)}


def test_crowd_check_flags_inconsistent_accounting():
    cfg = small_crowd(drop_prob=0.0)
    wl = crowd_workload(cfg)
    run, metrics = wl.run(cfg)
    run.bytes_sent += 1
    assert any("bytes_sent" in p for p in wl.check(cfg, (run, metrics)))
    run.bytes_sent -= 1
    event = run.events[0]
    run.events[0] = event._replace(size_bytes=event.size_bytes + 4)
    run.bytes_sent += 4
    assert any("wire layout" in p for p in wl.check(cfg, (run, metrics)))
    run.frames.pop()
    assert any("frames" in p for p in wl.check(cfg, (run, metrics)))


def test_benchmark_json_matches_the_runner():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == LAYER_METRICS
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    readme = (ROOT / "perfbench" / "README.md").read_text()
    for metric in spec["end_to_end"]:
        assert f"`{metric['name']}`" in readme


def run_cli(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", ["0", "1"])
def test_cli_prints_every_metric(trace):
    proc = run_cli("--workload", "harness", "--seed", "5", "--seconds", "0", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for m in spec["end_to_end" if trace == "0" else "per_layer"]]
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] and result["failed"] == 0
    assert sorted(result["metrics"]) == sorted(names)
    assert "git_sha" in proc.stdout and "numpy" in proc.stdout


def test_cli_fails_without_sources(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = run_cli("--workload", "crowd", "--seed", "0", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_refclock_samples_inside_intervals_and_excludes_probe_time():
    import time

    from refclock import RefClock

    clock = RefClock()
    outer = clock.start()
    inner = clock.start()
    time.sleep(0.3)
    inner_raw, inner_scaled = clock.stop(inner)
    outer_raw, _ = clock.stop(outer)
    assert len(clock._samples) >= 6  # two edge probes each, plus timer probes
    assert 0.28 <= inner_raw < 0.35  # sleep resumes to its deadline; probe time is excluded
    assert inner_raw <= outer_raw < inner_raw + 0.05
    assert inner_scaled > 0
