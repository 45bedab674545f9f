"""Benchmark two checkouts in interleaved pairs and record the runs as JSON.

Usage (from the repository root):

    python3 tools/bench_pairs.py --parent ../parent --change . \
        --workload crowd --seeds 1-10 --out BENCH.json

Each pair runs ``perfbench/run.py --workload W --seed S --seconds 20
--trace 0`` once in each checkout, one process at a time, and alternates
which side goes first. For every run the file keeps the ``env`` line and
the last line (the result JSON) of perfbench's stdout exactly as printed.
``summary`` gives, per workload and seed set, each end-to-end metric's
median and quartiles on both sides, the pairs the change won, in the
better direction ``BENCHMARK.json`` names, and ``within_bound``: whether
the change's median is worse than the parent's by no more than the
metric's relative ``bound``. Two verdicts follow:
``gain_holds``, when the change wins at least 9 of every 10 pairs and its
median beats the parent's by more than the parent's interquartile range,
and ``unresolved``, when that range is wider than the bound (relative to
the parent's median) and not every change run beats every parent run, so
``within_bound`` cannot tell a regression from noise. ``ops`` gives each
side's ``attempted`` and
``failed`` op counts summed over the group's runs. The file is written
after every pair, so a run that fails or is interrupted keeps the pairs
before it. Running again with the same ``--out`` appends runs, so several
workloads and held-out seeds share a file; each checkout must be a git
clone, so that its SHA is recorded.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

# Every run lasts the same, on both sides and in every file.
SECONDS = 20


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds.extend(range(int(low), int(high or low) + 1))
    return seeds


def git_sha(checkout: Path) -> str:
    return subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=checkout, capture_output=True, text=True, check=True
    ).stdout.strip()


def run_once(checkout: Path, workload: str, seed: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(SECONDS), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, check=True)
    lines = proc.stdout.splitlines()
    env = next(line for line in lines if line.startswith("env "))
    return {"env": env, "result": lines[-1]}


def quartiles(values: list[float]) -> list[float]:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return [q1, median, q3]


def summarize(runs: list[dict], end_to_end: list[dict]) -> dict:
    """Per group and metric of ``end_to_end`` (``BENCHMARK.json``'s entries), the paired comparison."""
    groups: dict[str, list[dict]] = {}
    for run in runs:
        groups.setdefault(run["group"], []).append(run)
    summary = {}
    for group, members in groups.items():
        pairs: dict[int, dict[str, dict]] = {}
        for run in members:
            pairs.setdefault(run["pair"], {})[run["side"]] = json.loads(run["result"])["metrics"]
        complete = [p for p in pairs.values() if len(p) == 2]
        rows = {}
        for metric in end_to_end:
            name = metric["name"]
            parent = [p["parent"][name]["value"] for p in complete]
            change = [p["change"][name]["value"] for p in complete]
            sign = 1 if metric["better"] == "higher" else -1
            parent_q = quartiles(parent) if len(parent) > 1 else parent
            parent_median, parent_iqr = statistics.median(parent), parent_q[-1] - parent_q[0]
            gain = sign * (statistics.median(change) - parent_median)
            wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
            rows[name] = {
                "parent_q1_median_q3": parent_q,
                "change_q1_median_q3": quartiles(change) if len(change) > 1 else change,
                "change_wins": wins,
                "pairs": len(complete),
                "within_bound": gain >= -metric["bound"] * abs(parent_median),
                "gain_holds": 10 * wins >= 9 * len(complete) and gain > parent_iqr,
                "unresolved": parent_iqr > metric["bound"] * abs(parent_median)
                and not min(sign * c for c in change) > max(sign * p for p in parent),
            }
        rows["ops"] = {side: {key: sum(json.loads(run["result"])[key] for run in members if run["side"] == side)
                              for key in ("attempted", "failed")} for side in ("parent", "change")}
        summary[group] = rows
    return summary


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--parent", type=Path, required=True, help="checkout of the parent commit")
    p.add_argument("--change", type=Path, required=True, help="checkout of the change")
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", type=parse_seeds, required=True, help="e.g. 1-10 or 4242")
    p.add_argument("--label", default="", help="suffix of the summary group, e.g. held-out")
    p.add_argument("--out", type=Path, required=True)
    args = p.parse_args(argv)

    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    shas = {side: git_sha(path) for side, path in checkouts.items()}
    record = json.loads(args.out.read_text()) if args.out.exists() else {"runs": []}
    if record.get("parent_sha", shas["parent"]) != shas["parent"] or \
            record.get("change_sha", shas["change"]) != shas["change"]:
        raise SystemExit(f"{args.out} records other commits")
    record.update(parent_sha=shas["parent"], change_sha=shas["change"])
    end_to_end = json.loads((checkouts["change"] / "BENCHMARK.json").read_text())["end_to_end"]
    group = args.workload + (f"@{args.label}" if args.label else "")
    first_pair = 1 + max((r["pair"] for r in record["runs"] if r["group"] == group), default=0)
    for i, seed in enumerate(args.seeds):
        order = ("parent", "change") if (first_pair + i) % 2 else ("change", "parent")
        for side in order:
            run = run_once(checkouts[side], args.workload, seed)
            record["runs"].append({"group": group, "pair": first_pair + i, "seed": seed, "side": side,
                                   "command_args": f"--workload {args.workload} --seed {seed} "
                                                   f"--seconds {SECONDS} --trace 0", **run})
            value = json.loads(run["result"])["metrics"]["throughput"]["value"]
            print(f"{group} pair {first_pair + i} seed {seed} {side}: throughput {value:.4g}", flush=True)
        record["summary"] = summarize(record["runs"], end_to_end)
        args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
