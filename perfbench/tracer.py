"""Tracing of coopfuse from outside the library, for the benchmark.

The tracer wraps public coopfuse functions at the points where modules call
each other. It never edits library source: installing a hook rebinds every
module attribute in the ``coopfuse`` package that refers to the wrapped
function (so ``coopfuse.simulator.encode_packet`` and ``coopfuse.wire.encode_packet``
are both covered), and uninstalling restores the originals.

Each call records a span ``(span_id, name, start, end, parent_id, op_id)`` in
memory. Counters (records encoded, stale instances, matched pairs, ...) are
taken from the call's arguments and result at the same boundary, and only
while an op is active. A hook whose target no longer exists is reported as
absent instead of failing the run.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Optional

Counter = Callable[[tuple, dict, object, Optional[BaseException]], dict]


def _count_sense(args, kwargs, result, exc):
    return {"detections": len(result)} if exc is None else {}


def _count_transmit(args, kwargs, result, exc):
    return {"packets": 1, "delivered": int(result is not None)} if exc is None else {}


def _count_encode(args, kwargs, result, exc):
    if exc is not None:
        return {}
    instances = args[0] if args else kwargs["instances"]
    return {"records": len(instances), "bytes": len(result)}


def _count_decode(args, kwargs, result, exc):
    return {"packets": 1} if exc is None else {}


def _count_to_instances(args, kwargs, result, exc):
    return {"records": len(result)} if exc is None else {}


def _count_align(args, kwargs, result, exc):
    if exc is None:
        return {"aligned": 1}
    return {"stale": int(type(exc).__name__ == "HorizonExceeded")}


def _count_associate(args, kwargs, result, exc):
    return {"matched": len(result.matched)} if exc is None else {}


def _count_solve(args, kwargs, result, exc):
    cost = args[0] if args else kwargs["cost"]
    return {"cells": int(getattr(cost, "size", 0))}


def _count_assemble(args, kwargs, result, exc):
    if exc is not None:
        return {}
    groups = args[:4] if len(args) >= 4 else [
        kwargs[k] for k in ("fused", "unmatched_ego", "unmatched_coop_near", "coop_far")
    ]
    return {"in": sum(len(g) for g in groups), "out": len(result.instances)}


def _count_run_scenario(args, kwargs, result, exc):
    if exc is not None:
        return {}
    return {
        "frames": len(result.frames),
        "bytes_sent": result.bytes_sent,
        "stale_dropped": sum(f.stale_dropped for f in result.frames),
    }


@dataclass(frozen=True)
class Hook:
    """One wrapped boundary: span ``name`` around ``module.attr``.

    ``attr`` may be dotted (``InstancePacket.to_instances``) to wrap a method
    on a class; module-level functions are rebound under every alias.
    """

    name: str
    module: str
    attr: str
    counter: Optional[Counter] = None

    @property
    def target(self) -> str:
        return f"{self.module}.{self.attr}"


HOOKS = (
    Hook("configio.load_scenario", "coopfuse.configio", "load_scenario"),
    Hook("evaluation.sweep", "coopfuse.evaluation", "sweep_interaction_range"),
    Hook("evaluation.sweep", "coopfuse.evaluation", "sweep_latency"),
    Hook("evaluation.compute_metrics", "coopfuse.evaluation", "compute_metrics"),
    Hook("simulator.run_scenario", "coopfuse.simulator", "run_scenario", _count_run_scenario),
    Hook("simulator.build_world", "coopfuse.simulator", "build_world"),
    Hook("simulator.step_world", "coopfuse.simulator", "step_world"),
    Hook("simulator.sense", "coopfuse.simulator", "sense", _count_sense),
    Hook("simulator.transmit", "coopfuse.simulator", "transmit", _count_transmit),
    Hook("wire.encode", "coopfuse.wire", "encode_packet", _count_encode),
    Hook("wire.decode", "coopfuse.wire", "decode_packet", _count_decode),
    Hook("wire.to_instances", "coopfuse.wire", "InstancePacket.to_instances", _count_to_instances),
    Hook("alignment.align", "coopfuse.alignment", "align_instance", _count_align),
    Hook("association.associate", "coopfuse.association", "associate", _count_associate),
    Hook("association.match", "coopfuse.association", "match"),
    Hook("association.solve_assignment", "coopfuse.association", "solve_assignment", _count_solve),
    Hook("fusion.coarse_fuse", "coopfuse.fusion", "coarse_fuse"),
    Hook("fusion.assemble_output", "coopfuse.fusion", "assemble_output", _count_assemble),
    Hook("fusion.refine_tracks", "coopfuse.fusion", "refine_tracks"),
    Hook("robustness.make_cluttered_objects", "coopfuse.robustness", "make_cluttered_objects"),
    Hook("robustness.run_denoising_trial", "coopfuse.robustness", "run_denoising_trial"),
    Hook("robustness.generate_denoising_scene", "coopfuse.robustness", "generate_denoising_scene"),
)

# Per-layer metrics and their units. Times and counts are per traced op,
# except configio.load_scenario.ms, which is per call during set-up; ratios
# are over the whole trace.
LAYER_METRICS = {
    "simulator.sense.ms": "ms",
    "simulator.sense.calls": "count",
    "simulator.sense.detections": "count",
    "simulator.step_world.ms": "ms",
    "simulator.build_world.ms": "ms",
    "simulator.transmit.ms": "ms",
    "simulator.transmit.packets": "count",
    "simulator.transmit.delivered_ratio": "ratio",
    "simulator.run_scenario.self_ms": "ms",
    "wire.encode.ms": "ms",
    "wire.encode.records": "count",
    "wire.encode.bytes": "B",
    "wire.decode.ms": "ms",
    "wire.decode.packets": "count",
    "wire.to_instances.ms": "ms",
    "wire.to_instances.records": "count",
    "wire.bytes_per_frame": "B",
    "alignment.align.ms": "ms",
    "alignment.align.calls": "count",
    "alignment.align.stale": "count",
    "alignment.yield": "ratio",
    "association.associate.ms": "ms",
    "association.associate.calls": "count",
    "association.associate.matched": "count",
    "association.match.ms": "ms",
    "association.solve_assignment.ms": "ms",
    "association.solve_assignment.cells": "count",
    "fusion.coarse_fuse.ms": "ms",
    "fusion.coarse_fuse.calls": "count",
    "fusion.assemble_output.ms": "ms",
    "fusion.assemble_output.in": "count",
    "fusion.assemble_output.out": "count",
    "fusion.yield": "ratio",
    "fusion.refine_tracks.ms": "ms",
    "evaluation.compute_metrics.ms": "ms",
    "evaluation.sweep.self_ms": "ms",
    "robustness.generate_denoising_scene.ms": "ms",
    "robustness.make_cluttered_objects.ms": "ms",
    "robustness.run_denoising_trial.self_ms": "ms",
    "configio.load_scenario.ms": "ms",
    "trace.coverage": "ratio",
    "trace.overhead": "ratio",
}

# Counter identities that hold for any run of the pipeline: (label, lhs, rhs).
# Each side is a sum of "layer.counter" keys.
IDENTITIES = (
    ("encode bytes == bytes_sent", ("wire.encode.bytes",), ("simulator.run_scenario.bytes_sent",)),
    (
        "to_instances records == aligned + stale",
        ("wire.to_instances.records",),
        ("alignment.align.aligned", "alignment.align.stale"),
    ),
    ("align stale == sum(stale_dropped)", ("alignment.align.stale",), ("simulator.run_scenario.stale_dropped",)),
    ("associate matched == coarse_fuse calls", ("association.associate.matched",), ("fusion.coarse_fuse.calls",)),
)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


class Tracer:
    """Installs hooks, records spans and counters, and aggregates them."""

    def __init__(self, hooks=HOOKS) -> None:
        self.hooks = tuple(hooks)
        self.spans: list[tuple] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.absent: dict[str, str] = {}
        self.broken_counters: set[str] = set()
        self.op_id: Optional[int] = None
        self._stack: list[int] = []
        self._next_id = 0
        self._patched: list[tuple[object, str, object]] = []

    # -- hooking -------------------------------------------------------------

    def install(self) -> None:
        """Wrap every hook target that resolves; record the others as absent."""
        if self._patched:
            return
        wrapped: dict[int, object] = {}
        for hook in self.hooks:
            owner, leaf = self._resolve(hook)
            if owner is None:
                continue
            original = getattr(owner, leaf)
            wrapper = wrapped.get(id(original))
            if wrapper is None:
                wrapper = wrapped[id(original)] = self._wrap(hook, original)
            if isinstance(owner, type):
                self._patch(owner, leaf, original, wrapper)
                continue
            for mod_name, mod in list(sys.modules.items()):
                if mod is None or not (mod_name == "coopfuse" or mod_name.startswith("coopfuse.")):
                    continue
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, attr, original, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def _patch(self, owner, attr, original, wrapper) -> None:
        setattr(owner, attr, wrapper)
        self._patched.append((owner, attr, original))

    def _resolve(self, hook: Hook):
        owner = sys.modules.get(hook.module)
        if owner is None:
            self.absent[hook.name] = f"{hook.module} is not imported"
            return None, None
        *path, leaf = hook.attr.split(".")
        for part in path:
            owner = getattr(owner, part, None)
            if owner is None:
                break
        if owner is None or not callable(getattr(owner, leaf, None)):
            self.absent[hook.name] = f"{hook.target} not found"
            return None, None
        return owner, leaf

    def _wrap(self, hook: Hook, fn):
        tracer = self
        name, counter = hook.name, hook.counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = tracer._next_id
            tracer._next_id += 1
            parent = tracer._stack[-1] if tracer._stack else None
            tracer._stack.append(span_id)
            result, error = None, None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                error = exc
                raise
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
                tracer.spans.append((span_id, name, start, end, parent, tracer.op_id))
                if tracer.op_id is not None:
                    tracer.counts[f"{name}.calls"] += 1
                    if counter is not None:
                        tracer._count(name, counter, args, kwargs, result, error)

        return traced

    def _count(self, name, counter, args, kwargs, result, error) -> None:
        try:
            values = counter(args, kwargs, result, error)
        except Exception:  # an API change must not break the traced run
            self.broken_counters.add(name)
            return
        for key, value in values.items():
            self.counts[f"{name}.{key}"] += value

    # -- ops -----------------------------------------------------------------

    @contextmanager
    def op(self, op_id: int, name: str):
        """A root span around one benchmark op; counters accrue only inside."""
        span_id = self._next_id
        self._next_id += 1
        self.op_id = op_id
        self._stack.append(span_id)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans.append((span_id, name, start, end, None, op_id))
            self.op_id = None

    # -- aggregation ---------------------------------------------------------

    def _totals(self):
        """Inclusive and self seconds per span name, over spans inside ops."""
        child = defaultdict(float)
        for span_id, _name, start, end, parent, op_id in self.spans:
            if parent is not None and op_id is not None:
                child[parent] += end - start
        inclusive = defaultdict(float)
        self_time = defaultdict(float)
        op_wall = op_child = 0.0
        for span_id, name, start, end, parent, op_id in self.spans:
            if op_id is None:
                continue
            if parent is None:
                op_wall += end - start
                op_child += child[span_id]
                continue
            inclusive[name] += end - start
            self_time[name] += end - start - child[span_id]
        return inclusive, self_time, op_wall, op_child

    def load_ms(self) -> float:
        durations = [e - s for _, n, s, e, _, op in self.spans if n == "configio.load_scenario" and op is None]
        return 1e3 * sum(durations) / len(durations) if durations else 0.0

    def layer_metrics(self, ops: int, overhead: float, scale: float = 1.0) -> dict[str, float]:
        """Every metric of LAYER_METRICS; absent layers read 0.

        Span times are multiplied by ``scale`` (scaled / raw op seconds).
        """
        inclusive, self_time, op_wall, op_child = self._totals()
        c = self.counts
        per_op = 1.0 / ops if ops else 0.0

        def ms(name):
            return 1e3 * scale * inclusive[name] * per_op

        def self_ms(name):
            return 1e3 * scale * self_time[name] * per_op

        values = {
            "simulator.run_scenario.self_ms": self_ms("simulator.run_scenario"),
            "simulator.transmit.delivered_ratio": _ratio(c["simulator.transmit.delivered"], c["simulator.transmit.packets"]),
            "wire.bytes_per_frame": _ratio(c["wire.encode.bytes"], c["simulator.run_scenario.frames"]),
            "alignment.yield": _ratio(c["alignment.align.aligned"], c["alignment.align.calls"]),
            "fusion.yield": _ratio(c["fusion.assemble_output.out"], c["fusion.assemble_output.in"]),
            "evaluation.sweep.self_ms": self_ms("evaluation.sweep"),
            "robustness.run_denoising_trial.self_ms": self_ms("robustness.run_denoising_trial"),
            "configio.load_scenario.ms": scale * self.load_ms(),
            "trace.coverage": _ratio(op_child, op_wall),
            "trace.overhead": overhead,
        }
        for metric, unit in LAYER_METRICS.items():
            if metric in values:
                continue
            layer, _, what = metric.rpartition(".")
            values[metric] = ms(layer) if what == "ms" else c[metric] * per_op
        return values

    def check_identities(self) -> list[tuple[str, float, float, Optional[bool]]]:
        """(label, lhs, rhs, holds); holds is None when a layer is absent."""
        out = []
        for label, lhs_keys, rhs_keys in IDENTITIES:
            layers = {k.rpartition(".")[0] for k in lhs_keys + rhs_keys}
            lhs = sum(self.counts[k] for k in lhs_keys)
            rhs = sum(self.counts[k] for k in rhs_keys)
            missing = layers & (set(self.absent) | self.broken_counters)
            out.append((label, lhs, rhs, None if missing else lhs == rhs))
        return out

    def write(self, path, header: dict) -> None:
        """Write the header, then one JSON array per span."""
        with open(path, "w") as fh:
            fh.write(json.dumps(header) + "\n")
            fh.write(json.dumps(["span_id", "name", "start", "end", "parent_id", "op_id"]) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
