"""Command-line front end: validate configs, run scenarios, execute sweeps.

Exit codes are a stable contract: 0 success, 1 runtime failure, 2 config
problem (the message names the offending key). Stdout carries progress
only; data always goes to files under ``--out``. Each command but
``validate-config`` returns its tables; one runner writes them, the
manifest naming them and one progress line.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import logging
import os
import platform
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy
import scipy
import yaml

from . import MatchWeights, PipelineConfig, __version__
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
from .robustness import ALPHA_SWEEP_COLUMNS, HARNESS_COST_THRESHOLD, alpha_sweep_rows
from .simulator import ChannelModel, ScenarioConfig, SimEvent, bev_baseline_cost, run_scenario
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


def _held_by(config, parse=float, listed=False):
    """A parser of one value by ``parse`` (of one or more comma-separated ones if ``listed``), each judged by
    ``config(value)``, which builds the config type that holds it. A ValueError of ``parse`` or of that type is
    argparse's usage error, with its own message."""

    def check(text: str):
        try:
            values = [parse(part) for part in text.split(",") if part.strip() != ""] if listed else [parse(text)]
            for value in values:
                config(value)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from exc
        if not values:  # an empty list would fall back to the command's default sweep
            raise argparse.ArgumentTypeError(f"expected at least one number: {text!r}")
        return values if listed else values[0]

    return check


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
        p.add_argument("--seed", type=_held_by(lambda v: ScenarioConfig(seed=v), int), help="override the config seed")
        p.add_argument("--out", default="out", help="output directory (default: out)")

    common(sub.add_parser("run", help="run one scenario and write metrics"))

    p = sub.add_parser("sweep-rint", help="sweep the interaction range")
    common(p)
    p.add_argument("--jobs", type=_int_at_least(1), default=1, help="parallel sweep points (default 1)")
    p.add_argument("--r-int", type=_held_by(lambda v: PipelineConfig(r_int=v), listed=True),
                   default=list(DEFAULT_RANGE_SWEEP), help="comma-separated ranges in meters")

    p = sub.add_parser("sweep-latency", help="sweep the channel latency")
    common(p)
    p.add_argument("--jobs", type=_int_at_least(1), default=1, help="parallel sweep points (default 1)")
    p.add_argument("--latency-ms", type=_held_by(lambda v: ChannelModel(latency_ms=v), listed=True),
                   default=list(DEFAULT_LATENCY_SWEEP_MS), help="comma-separated latencies")
    p.add_argument(
        "--no-compensation",
        action="store_true",
        help="run only with latency compensation disabled (default: both settings)",
    )

    p = sub.add_parser("robustness", help="perturbation-harness association sweep")
    common(p)
    p.add_argument(
        "--alpha", type=_held_by(lambda v: MatchWeights(alpha=v, cost_threshold=HARNESS_COST_THRESHOLD), listed=True),
        default=[0.0, 0.5, 1.0, 2.0], help="appearance weights to sweep",
    )
    p.add_argument("--scenes", type=_int_at_least(1), default=200, help="seeded scenes (default 200)")

    p = sub.add_parser("bench-bandwidth", help="transmission-cost accounting")
    common(p)

    p = sub.add_parser("validate-config", help="check a config file and exit")
    p.add_argument("--config", required=True, help="scenario YAML path")
    return parser


def _cmd_run(args, cfg) -> tuple[dict, str]:
    result = run_scenario(cfg)
    metrics = compute_metrics(result)
    tables = {
        "metrics.csv": (METRICS_COLUMNS, [metrics_row(metrics)]),
        "events.csv": (EVENT_COLUMNS, [e._asdict() for e in result.events]),
    }
    return tables, f"ap={metrics.ap:.3f} amota={metrics.amota_like:.3f}"


def _cmd_sweep_rint(args, cfg) -> tuple[dict, str]:
    rows = sweep_interaction_range(cfg, args.r_int, jobs=args.jobs)
    return {"rint_sweep.csv": (RANGE_SWEEP_COLUMNS, rows)}, f"{len(rows)} interaction ranges"


def _cmd_sweep_latency(args, cfg) -> tuple[dict, str]:
    mode = "off" if args.no_compensation else "both"
    rows = sweep_latency(cfg, args.latency_ms, compensation=mode, jobs=args.jobs)
    return {"latency_sweep.csv": (LATENCY_SWEEP_COLUMNS, rows)}, f"{len(rows)} latency points"


def _cmd_robustness(args, cfg) -> tuple[dict, str]:
    feature_dim = cfg.agents[0].sensor.feature_dim if cfg.agents else 64  # the harness default
    rows = alpha_sweep_rows(args.alpha, scenes=args.scenes, seed=cfg.seed, feature_dim=feature_dim)
    return {"robustness.csv": (ALPHA_SWEEP_COLUMNS, rows)}, f"{args.scenes} scenes x {len(args.alpha)} alphas"


def _cmd_bench_bandwidth(args, cfg) -> tuple[dict, str]:
    feature_dim = cfg.agents[0].sensor.feature_dim if cfg.agents else 256  # the sensor default
    rate_hz = 1.0 / cfg.tick_s
    sparse_rows = [
        {"k": k, "bytes_per_packet": packet_size(k, feature_dim), "bps_sparse": packet_size(k, feature_dim) * rate_hz}
        for k in range(1, 51)
    ]
    roi_range = cfg.pipeline.roi.x_half
    bev_rows = [
        {
            "range_m": r, "cell_m": 0.4, "channels": 64, "bytes_per_elem": 4,
            "rate_hz": rate_hz, "bps": bev_baseline_cost(r, 0.4, 64, 4, rate_hz),
        }
        for r in (roi_range, 2 * roi_range)
    ]
    k = cfg.pipeline.transmit_top_k
    summary = (
        f"sparse (D={feature_dim}, K={k}, {rate_hz:g} Hz): {packet_size(k, feature_dim) * rate_hz:.3e} B/s; "
        f"dense grid at {roi_range:g} m: {bev_rows[0]['bps']:.3e} B/s"
    )
    return {"bandwidth.csv": (BANDWIDTH_COLUMNS, sparse_rows), "bev_comparison.csv": (BEV_COLUMNS, bev_rows)}, summary


_COMMANDS = {
    "run": _cmd_run,
    "sweep-rint": _cmd_sweep_rint,
    "sweep-latency": _cmd_sweep_latency,
    "robustness": _cmd_robustness,
    "bench-bandwidth": _cmd_bench_bandwidth,
}


def _run_command(args) -> None:
    """Load the config, run the command, write its tables and a manifest naming them, print one line."""
    cfg = load_scenario(args.config)
    if args.seed is not None:
        cfg = replace(cfg, seed=args.seed)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    started = time.perf_counter()
    tables, summary = _COMMANDS[args.command](args, cfg)
    for name, (columns, rows) in tables.items():
        write_csv(out_dir / name, columns, rows)
    runtime = time.perf_counter() - started
    manifest = {
        "command": args.command,
        "seed": cfg.seed,
        "config_sha256": hashlib.sha256(yaml.safe_dump(scenario_to_dict(cfg), sort_keys=True).encode()).hexdigest(),
        "runtime_s": runtime,
        "versions": {
            "coopfuse": __version__,
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "python": platform.python_version(),
        },
        "outputs": list(tables),
    }
    (out_dir / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n")
    print(f"{args.command} complete in {runtime:.2f}s: {summary}")


def main(argv=None) -> int:
    _configure_logging()
    args = build_parser().parse_args(argv)
    try:
        if args.command == "validate-config":
            load_scenario(args.config)
            print(f"config ok: {args.config}")
        else:
            _run_command(args)
        return EXIT_OK
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except Exception:  # noqa: BLE001 - the contract is an exit code, not a trace
        log.exception("command failed")
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
