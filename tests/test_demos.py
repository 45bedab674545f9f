"""The package as users and the benchmark reach it: every demo script runs
to completion from a fresh interpreter, the README's library tour imports,
and every function the benchmark traces exists."""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs(demo, tmp_path):
    # Numeric warnings are errors, as pyproject makes them for these tests and CI for the console scripts.
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONWARNINGS="error::RuntimeWarning")
    done = subprocess.run(
        [sys.executable, str(demo)], cwd=tmp_path, env=env,
        capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr


def test_readme_library_tour_imports():
    readme = (ROOT / "README.md").read_text()
    tour = readme.split("## Library tour", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    assert "from coopfuse import" in tour
    exec(compile(tour, "README.md", "exec"), {})


def _benchmark_tracer(monkeypatch):
    """perfbench's tracer, loaded read-only from its file, its hooks installed."""
    import coopfuse  # noqa: F401  (the tracer resolves hooks on imported modules only)

    spec = importlib.util.spec_from_file_location("perfbench_tracer", ROOT / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracer)  # its dataclasses look their module up here
    spec.loader.exec_module(tracer)
    hooks = tracer.Tracer()
    hooks.install()
    return hooks


def test_every_benchmark_hook_resolves(monkeypatch):
    # The benchmark wraps coopfuse functions by name; a renamed or deleted one would leave its layer untimed.
    hooks = _benchmark_tracer(monkeypatch)
    try:
        assert hooks.absent == {}
    finally:
        hooks.uninstall()


@pytest.mark.parametrize("compensate", [True, False])
def test_a_traced_lossy_run_breaks_no_counter_or_identity(monkeypatch, compensate):
    # The benchmark's counters read the hooked calls' arguments and results (transmit's arrival time,
    # associate's matches, ...); a signature change must leave every counter and identity working.
    from dataclasses import replace

    from coopfuse import load_scenario, simulator

    cfg = load_scenario(ROOT / "configs" / "quickstart.yaml")
    alignment = replace(cfg.pipeline.alignment, max_compensation_horizon=0.6)
    pipeline = replace(cfg.pipeline, alignment=alignment, compensate_latency=compensate)
    cfg = replace(cfg, duration_s=6.0, pipeline=pipeline,
                  channel=replace(cfg.channel, latency_ms=150.0, jitter_ms=600.0, drop_prob=0.2))
    hooks = _benchmark_tracer(monkeypatch)
    try:
        with hooks.op(0, "op.test"):
            run = simulator.run_scenario(cfg)  # the module attribute, which the tracer has wrapped
    finally:
        hooks.uninstall()
    assert any(e.kind == "drop" for e in run.events)
    if compensate:
        assert sum(f.stale_dropped for f in run.frames) > 0
    else:  # uncompensated records are aligned over dt = 0, so none is stale
        assert hooks.counts["alignment.align.aligned"] == hooks.counts["wire.to_instances.records"] > 0
    assert hooks.counts["simulator.transmit.packets"] > 0 and hooks.counts["association.associate.matched"] > 0
    assert hooks.broken_counters == set()
    identities = hooks.check_identities()
    assert len(identities) == 4
    for label, lhs, rhs, holds in identities:
        assert holds is True, (label, lhs, rhs)


def test_a_traced_sweep_decodes_each_distinct_packet_once(monkeypatch):
    # The sweep's points share the scene record's decoded packets; every hooked call the identities
    # count still runs once per point, so the decode count falls while all four identities hold.
    from dataclasses import replace

    from coopfuse import evaluation, load_scenario, simulator

    cfg = load_scenario(ROOT / "configs" / "range_study.yaml")
    cfg = replace(cfg, duration_s=5 * cfg.tick_s)
    # r_int changes nothing a cooperator sends, so each of the 7 points receives these packets.
    per_point = sum(e.kind == "consume" for e in simulator.run_scenario(cfg).events)
    hooks = _benchmark_tracer(monkeypatch)
    try:
        with hooks.op(0, "op.test"):
            evaluation.sweep_interaction_range(cfg, [10, 20, 30, 40, 50, 60, 70], jobs=1)
    finally:
        hooks.uninstall()
    assert hooks.counts["simulator.run_scenario.frames"] == 7 * 5
    assert 0 < hooks.counts["wire.decode.packets"] == per_point  # of 7 * per_point received
    assert hooks.counts["wire.to_instances.records"] > 0 and hooks.broken_counters == set()
    identities = hooks.check_identities()
    assert len(identities) == 4
    for label, lhs, rhs, holds in identities:
        assert holds is True, (label, lhs, rhs)


def test_the_harness_sweep_scores_inside_traced_trials(monkeypatch):
    # The benchmark's harness coverage is the share of a sweep spent in hooked calls: each scene must be
    # one traced trial that builds its scene and solves every alpha's assignment inside it.
    from coopfuse.robustness import alpha_sweep_rows

    alphas = (0.0, 0.5, 1.0, 2.0)
    hooks = _benchmark_tracer(monkeypatch)
    try:
        alpha_sweep_rows(alphas, scenes=3, feature_dim=16)
    finally:
        hooks.uninstall()
    names = {span_id: name for span_id, name, *_ in hooks.spans}
    parents = {}
    for _, name, _, _, parent, _ in hooks.spans:
        parents.setdefault(name, []).append(names.get(parent))
    assert parents["robustness.run_denoising_trial"] == [None] * 3
    assert parents["robustness.generate_denoising_scene"] == ["robustness.run_denoising_trial"] * 3
    assert parents["association.solve_assignment"] == ["robustness.run_denoising_trial"] * (3 * len(alphas))
