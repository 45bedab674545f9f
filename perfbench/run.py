"""coopfuse benchmark: one workload per process, end-to-end or traced.

Usage (from the repository root):

    python3 perfbench/run.py --workload studies --seed 0 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with no wrappers installed.
``--trace 1`` runs every input twice, untraced then traced, checks that the
two outputs are identical, and reports the per-layer metrics; the span log
goes to ``perfbench/out/``. The last line of stdout is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``. Lines before it give the
run environment and every metric by name and unit.
"""

import os

# Pin native thread pools before numpy is imported: one process, one thread.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

from refclock import RefClock  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 3


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=("studies", "crowd", "harness"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def import_workloads():
    """(Re-)import coopfuse from this checkout's src/ and the workload module.

    Dropping the cached modules first gives every set-up a fresh coopfuse,
    with empty module-level caches, as a new process would have.
    """
    if not (SRC / "coopfuse" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no coopfuse package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in list(sys.modules):
        if name in ("coopfuse", "workloads") or name.startswith("coopfuse."):
            del sys.modules[name]
    import workloads

    location = Path(workloads.coopfuse.__file__).resolve().parent
    if location != (SRC / "coopfuse").resolve():
        raise SystemExit(f"perfbench: imported coopfuse from {location}, not {SRC}")
    return workloads


def git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def environment() -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "jobs": 1,
    }


class Runner:
    """Executes ops of one workload and counts checked failures."""

    def __init__(self) -> None:
        self.wl = None
        self.clock = RefClock()
        self.attempted = 0
        self.failed = 0

    def op(self, inp):
        """Run one op; return (output, raw s, scaled s), output None on failure."""
        self.attempted += 1
        token = self.clock.start()
        try:
            out = self.wl.run(inp)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            self.fail("op raised")
            return (None, *self.clock.stop(token))
        raw, scaled = self.clock.stop(token)
        problems = self.wl.check(inp, out)
        if problems:
            self.fail("; ".join(problems))
            return None, raw, scaled
        return out, raw, scaled

    def fail(self, why: str) -> None:
        self.failed += 1
        print(f"perfbench: op {self.attempted} failed: {why}", file=sys.stderr)

    def same(self, a, b, what: str) -> None:
        if a is not None and b is not None and self.wl.digest(a) != self.wl.digest(b):
            self.fail(f"{what}: output digests differ")


def setup(runner: Runner, name: str, seed: int, repeats: int, after_import=None) -> tuple[float, float]:
    """Import, load configs and run one untimed warm-up op, ``repeats`` times.

    Returns the median raw and scaled set-up seconds. The warm-up outputs of
    all set-ups must be identical.
    """
    raw, scaled, warm = [], [], []
    for _ in range(repeats):
        token = runner.clock.start()
        module = import_workloads()
        if after_import is not None:
            after_import()
        runner.wl = module.WORKLOADS[name]()
        runner.wl.load(ROOT)
        out, _, _ = runner.op(runner.wl.warmup_input(seed))
        times = runner.clock.stop(token)
        raw.append(times[0])
        scaled.append(times[1])
        warm.append(out)
    for out in warm[1:]:
        runner.same(warm[0], out, "warm-up after a fresh import")
    return statistics.median(raw), statistics.median(scaled)


def measure(runner: Runner, seed: int, seconds: float) -> dict:
    """Closed loop, a fresh input per op, for ``seconds`` and ``quality_ops`` ops.

    The first op is repeated, untimed, at the end; its output must not change.
    """
    wl = runner.wl
    raw, scaled, items, quality = [], [], 0, []
    first = None
    start = time.perf_counter()
    i = 0
    while i < wl.quality_ops or time.perf_counter() - start < seconds:
        inp = wl.input(seed, i)
        out, raw_s, scaled_s = runner.op(inp)
        if out is not None:
            raw.append(raw_s)
            scaled.append(scaled_s)
            items += wl.items(inp)
            if i < wl.quality_ops:
                quality.append(wl.quality(out))
        if i == 0:
            first = out
        i += 1
    repeat, _, _ = runner.op(wl.input(seed, 0))
    runner.same(first, repeat, "first op repeated at the end")
    return {"raw": raw, "scaled": scaled, "items": items, "quality": quality}


def mean_of(rows: list[dict], key: str) -> float:
    values = [row[key] for row in rows if key in row]
    return statistics.fmean(values) if values else float("nan")


def rate_and_median(items: int, times: list[float]) -> tuple[float, float]:
    """(items per second over all ops, median seconds per op)."""
    if not times:
        return 0.0, math.nan
    return items / sum(times), statistics.median(times)


def end_to_end(args) -> tuple[Runner, dict]:
    runner = Runner()
    setup_raw, setup_s = setup(runner, args.workload, args.seed, SETUP_REPEATS)
    print_environment(args)
    m = measure(runner, args.seed, args.seconds)
    throughput, op_s = rate_and_median(m["items"], m["scaled"])
    throughput_raw, op_raw = rate_and_median(m["items"], m["raw"])
    metrics = {
        "setup_s": (setup_s, "s"),
        "throughput": (throughput, "items/s"),
        "op_s_p50": (op_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
        "quality": (mean_of(m["quality"], runner.wl.quality_key), "ratio"),
    }
    # The summary names each number as the workload knows it, gives raw wall
    # time beside the scaled time, and adds the reported-only metrics that
    # are not defined on every workload.
    item = runner.wl.item
    summary = [
        (f"{item}_per_s", throughput, f"{item}/s scaled; raw {throughput_raw:.6g}"),
        ("op_s_p50", op_s, f"s scaled (n={len(m['scaled'])}); raw {op_raw:.6g} s"),
        ("error_rate", runner.failed / runner.attempted, f"failed/attempted ({runner.failed}/{runner.attempted})"),
        ("setup_s", setup_s, f"s scaled (median of {SETUP_REPEATS}); raw {setup_raw:.6g} s"),
        ("peak_rss_mb", metrics["peak_rss_mb"][0], "MiB"),
    ]
    for key, unit in (("ap", "ratio"), ("duplicate_rate", "ratio"), ("match_accuracy", "ratio"), ("wire_bytes_per_frame", "B")):
        value = mean_of(m["quality"], key)
        if not math.isnan(value):
            summary.append((key, value, f"{unit} (mean over {len(m['quality'])} ops)"))
    for name, value, unit in summary:
        print(f"  {name:<24} {value:>14.6g} {unit}")
    return runner, metrics


def traced(args) -> tuple[Runner, dict]:
    from tracer import LAYER_METRICS, Tracer

    tracer = Tracer()
    runner = Runner()
    setup(runner, args.workload, args.seed, 1, after_import=tracer.install)
    print_environment(args)
    plain_s = traced_s = traced_raw = 0.0
    ops = 0
    start = time.perf_counter()
    while ops < 1 or time.perf_counter() - start < args.seconds:
        inp = runner.wl.input(args.seed, ops)
        tracer.uninstall()
        plain, _, scaled = runner.op(inp)
        plain_s += scaled
        tracer.install()
        with tracer.op(ops, f"op.{args.workload}"):
            out, raw, scaled = runner.op(inp)
        traced_s += scaled
        traced_raw += raw
        runner.same(plain, out, "traced vs untraced")
        ops += 1
    tracer.uninstall()
    values = tracer.layer_metrics(ops, traced_s / plain_s - 1.0, traced_s / traced_raw)
    for name, reason in sorted(tracer.absent.items()):
        print(f"  layer absent: {name} ({reason}); its metrics read 0")
    for name in sorted(tracer.broken_counters):
        print(f"  counters unavailable: {name}")
    for label, lhs, rhs, holds in tracer.check_identities():
        state = {True: "holds", False: "VIOLATED", None: "skipped (layer absent)"}[holds]
        print(f"  identity {label}: {lhs:.0f} vs {rhs:.0f} {state}")
        if holds is False:
            runner.fail(f"identity violated: {label}")
    print(f"  per-layer values are per traced op ({ops} ops)")
    for name, unit in LAYER_METRICS.items():
        print(f"  {name:<42} {values[name]:>14.6g} {unit}")
    out_dir = ROOT / "perfbench" / "out"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"trace-{args.workload}-seed{args.seed}.jsonl"
    header = {"workload": args.workload, "seed": args.seed, "ops": ops, "env": environment(),
              "absent": tracer.absent, "metrics": values}
    tracer.write(path, header)
    print(f"  {len(tracer.spans)} spans written to {path.relative_to(ROOT)}")
    return runner, {name: (values[name], unit) for name, unit in LAYER_METRICS.items()}


def print_environment(args) -> None:
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print("env " + json.dumps(environment(), sort_keys=True))


def main(argv=None) -> int:
    args = parse_args(argv)
    runner, metrics = (traced if args.trace else end_to_end)(args)
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        # A non-finite value only arises from failed ops, which "correct" reports.
        "metrics": {
            name: {"value": value if math.isfinite(value) else 0.0, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
