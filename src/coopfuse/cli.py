"""Command-line front end: validate configs, run scenarios, execute sweeps.

Exit codes are a stable contract: 0 success, 1 runtime failure, 2 config
problem (the message names the offending key). Stdout carries progress
only; data always goes to files under ``--out``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import logging
import math
import os
import platform
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy
import scipy
import yaml

from . import __version__
from .configio import ConfigError, load_scenario, scenario_to_dict
from .evaluation import (
    DEFAULT_LATENCY_SWEEP_MS,
    DEFAULT_RANGE_SWEEP,
    LATENCY_SWEEP_COLUMNS,
    METRICS_COLUMNS,
    RANGE_SWEEP_COLUMNS,
    compute_metrics,
    metrics_row,
    sweep_interaction_range,
    sweep_latency,
    write_csv,
)
from .robustness import ALPHA_SWEEP_COLUMNS, alpha_sweep_rows
from .simulator import SimEvent, bev_baseline_cost, run_scenario
from .wire import packet_size

log = logging.getLogger("coopfuse")

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_CONFIG = 2

BEV_COLUMNS = ("range_m", "cell_m", "channels", "bytes_per_elem", "rate_hz", "bps")
BANDWIDTH_COLUMNS = ("k", "bytes_per_packet", "bps_sparse")
EVENT_COLUMNS = SimEvent._fields


def _configure_logging() -> None:
    level = os.environ.get("COOPFUSE_LOG", "WARNING").upper()
    logging.basicConfig(
        level=getattr(logging, level, logging.WARNING),
        stream=sys.stderr,
        format="%(levelname)s %(name)s: %(message)s",
    )


def _float_list(low: float, strict: bool = False):
    """A parser of comma-separated finite numbers, each >= ``low`` (> if ``strict``)."""

    def parse(text: str) -> list[float]:
        try:
            values = [float(part) for part in text.split(",") if part.strip() != ""]
        except ValueError as exc:
            raise argparse.ArgumentTypeError(f"expected comma-separated numbers: {text!r}") from exc
        if not all(math.isfinite(v) for v in values):
            raise argparse.ArgumentTypeError(f"numbers must be finite: {text!r}")
        if not all(v > low if strict else v >= low for v in values):
            bound = f"{'>' if strict else '>='} {low:g}"
            raise argparse.ArgumentTypeError(f"numbers must be {bound}: {text!r}")
        return values

    return parse


def _int_at_least(low: int):
    def parse(text: str) -> int:
        if int(text) < low:  # argparse reports int()'s ValueError as a usage error too
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {text!r}")
        return int(text)

    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="coopfuse",
        description="Cooperative instance-fusion simulator and evaluation harness",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", required=True, help="scenario YAML path")
        p.add_argument("--seed", type=_int_at_least(0), default=None, help="override the config seed")
        p.add_argument("--out", default="out", help="output directory (default: out)")

    common(sub.add_parser("run", help="run one scenario and write metrics"))

    p = sub.add_parser("sweep-rint", help="sweep the interaction range")
    common(p)
    p.add_argument("--jobs", type=_int_at_least(1), default=1, help="parallel sweep points (default 1)")
    p.add_argument(
        "--r-int", type=_float_list(0.0, strict=True), default=None, help="comma-separated ranges in meters"
    )

    p = sub.add_parser("sweep-latency", help="sweep the channel latency")
    common(p)
    p.add_argument("--jobs", type=_int_at_least(1), default=1, help="parallel sweep points (default 1)")
    p.add_argument("--latency-ms", type=_float_list(0.0), default=None, help="comma-separated latencies")
    p.add_argument(
        "--no-compensation",
        action="store_true",
        help="run only with latency compensation disabled (default: both settings)",
    )

    p = sub.add_parser("robustness", help="perturbation-harness association sweep")
    common(p)
    p.add_argument("--alpha", type=_float_list(0.0), default=None, help="appearance weights to sweep")
    p.add_argument("--scenes", type=_int_at_least(1), default=200, help="seeded scenes (default 200)")

    p = sub.add_parser("bench-bandwidth", help="transmission-cost accounting")
    common(p)

    p = sub.add_parser("validate-config", help="check a config file and exit")
    p.add_argument("--config", required=True, help="scenario YAML path")
    return parser


def _write_manifest(out_dir: Path, cfg, seed: int, command: str, runtime_s: float, files: list[str]) -> None:
    canonical = yaml.safe_dump(scenario_to_dict(cfg), sort_keys=True)
    manifest = {
        "command": command,
        "seed": seed,
        "config_sha256": hashlib.sha256(canonical.encode()).hexdigest(),
        "runtime_s": runtime_s,
        "versions": {
            "coopfuse": __version__,
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "python": platform.python_version(),
        },
        "outputs": files,
    }
    (out_dir / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n")


def _load(args) -> tuple:
    cfg = load_scenario(args.config)
    if args.seed is not None:
        cfg = replace(cfg, seed=args.seed)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    return cfg, out_dir


def _cmd_run(args) -> int:
    cfg, out_dir = _load(args)
    started = time.perf_counter()
    result = run_scenario(cfg)
    metrics = compute_metrics(result)
    write_csv(out_dir / "metrics.csv", METRICS_COLUMNS, [metrics_row(metrics)])
    write_csv(out_dir / "events.csv", EVENT_COLUMNS, [e._asdict() for e in result.events])
    runtime = time.perf_counter() - started
    _write_manifest(out_dir, cfg, cfg.seed, "run", runtime, ["metrics.csv", "events.csv"])
    print(f"run complete in {runtime:.2f}s: ap={metrics.ap:.3f} amota={metrics.amota_like:.3f}")
    return EXIT_OK


def _cmd_sweep_rint(args) -> int:
    cfg, out_dir = _load(args)
    values = args.r_int if args.r_int else list(DEFAULT_RANGE_SWEEP)
    started = time.perf_counter()
    rows = sweep_interaction_range(cfg, values, jobs=args.jobs)
    write_csv(out_dir / "rint_sweep.csv", RANGE_SWEEP_COLUMNS, rows)
    runtime = time.perf_counter() - started
    _write_manifest(out_dir, cfg, cfg.seed, "sweep-rint", runtime, ["rint_sweep.csv"])
    print(f"swept {len(rows)} interaction ranges in {runtime:.2f}s")
    return EXIT_OK


def _cmd_sweep_latency(args) -> int:
    cfg, out_dir = _load(args)
    values = args.latency_ms if args.latency_ms else list(DEFAULT_LATENCY_SWEEP_MS)
    mode = "off" if args.no_compensation else "both"
    started = time.perf_counter()
    rows = sweep_latency(cfg, values, compensation=mode, jobs=args.jobs)
    write_csv(out_dir / "latency_sweep.csv", LATENCY_SWEEP_COLUMNS, rows)
    runtime = time.perf_counter() - started
    _write_manifest(out_dir, cfg, cfg.seed, "sweep-latency", runtime, ["latency_sweep.csv"])
    print(f"swept {len(rows)} latency points in {runtime:.2f}s")
    return EXIT_OK


def _cmd_robustness(args) -> int:
    cfg, out_dir = _load(args)
    alphas = args.alpha if args.alpha else [0.0, 0.5, 1.0, 2.0]
    feature_dim = cfg.agents[0].sensor.feature_dim if cfg.agents else 64
    started = time.perf_counter()
    rows = alpha_sweep_rows(
        alphas, scenes=args.scenes, seed=cfg.seed, feature_dim=feature_dim
    )
    write_csv(out_dir / "robustness.csv", ALPHA_SWEEP_COLUMNS, rows)
    runtime = time.perf_counter() - started
    _write_manifest(out_dir, cfg, cfg.seed, "robustness", runtime, ["robustness.csv"])
    print(f"ran {args.scenes} scenes x {len(alphas)} alphas in {runtime:.2f}s")
    return EXIT_OK


def _cmd_bench_bandwidth(args) -> int:
    cfg, out_dir = _load(args)
    feature_dim = cfg.agents[0].sensor.feature_dim if cfg.agents else 256
    rate_hz = 1.0 / cfg.tick_s
    rows = [
        {
            "k": k,
            "bytes_per_packet": packet_size(k, feature_dim),
            "bps_sparse": packet_size(k, feature_dim) * rate_hz,
        }
        for k in range(1, 51)
    ]
    write_csv(out_dir / "bandwidth.csv", BANDWIDTH_COLUMNS, rows)
    roi_range = cfg.pipeline.roi.x_half
    bev_rows = [
        {
            "range_m": r, "cell_m": 0.4, "channels": 64, "bytes_per_elem": 4,
            "rate_hz": rate_hz, "bps": bev_baseline_cost(r, 0.4, 64, 4, rate_hz),
        }
        for r in (roi_range, 2 * roi_range)
    ]
    write_csv(out_dir / "bev_comparison.csv", BEV_COLUMNS, bev_rows)
    _write_manifest(out_dir, cfg, cfg.seed, "bench-bandwidth", 0.0,
                    ["bandwidth.csv", "bev_comparison.csv"])
    k = cfg.pipeline.transmit_top_k
    sparse = packet_size(k, feature_dim) * rate_hz
    dense = bev_baseline_cost(roi_range, 0.4, 64, 4, rate_hz)
    print(
        f"sparse (D={feature_dim}, K={k}, {rate_hz:g} Hz): {sparse:.3e} B/s; "
        f"dense grid at {roi_range:g} m: {dense:.3e} B/s"
    )
    return EXIT_OK


def _cmd_validate(args) -> int:
    load_scenario(args.config)
    print(f"config ok: {args.config}")
    return EXIT_OK


_COMMANDS = {
    "run": _cmd_run,
    "sweep-rint": _cmd_sweep_rint,
    "sweep-latency": _cmd_sweep_latency,
    "robustness": _cmd_robustness,
    "bench-bandwidth": _cmd_bench_bandwidth,
    "validate-config": _cmd_validate,
}


def main(argv=None) -> int:
    _configure_logging()
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except Exception:  # noqa: BLE001 - the contract is an exit code, not a trace
        log.exception("command failed")
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
