"""Per-layer tracing from outside the library.

A traced run replaces the public entry points of tqft2d with timing
wrappers, each bound where its caller looks the name up: `functor` imports
`check_relations`, `contract_between` and `contract_within` with
``from ... import``, so those are wrapped in `tqft2d.functor` (and `cli`'s
names in `tqft2d.cli`), while the benchmark itself calls the package-level
names.  Methods are wrapped on their classes.  Spans nest on a stack; each
kind accumulates self time (its duration minus the spans it encloses) and a
call count, and observers add work counters.  The wrappers' own bookkeeping
is charged to no layer and reported as instrumentation time.

A hook whose target no longer exists is skipped, and the metrics that need
it are left out of the result instead of failing the run.
"""

from __future__ import annotations

import copy
import importlib
import time
from collections import Counter, defaultdict

SMALL_GENUS, LARGE_GENUS = 16, 32


# -- observers: work counters, read from the arguments after the call ----------

def _count_inputs(tracer, *tensors):
    for tensor in tensors:
        entries = tensor.entries
        tracer.count["tensor.inputs"] += len(entries)
        tracer.count["tensor.nonzero"] += sum(1 for v in entries if v)


def _dim(*tensors) -> int:
    return next((t.dimension for t in tensors if t.dimension), 1)


def observe_between(tracer, args, result, self_time):
    left, right, pairs = args[:3]
    tracer.count["tensor.dense_mults"] += _dim(left, right) ** (
        left.rank + right.rank - len(pairs))
    _count_inputs(tracer, left, right)


def observe_within(tracer, args, result, self_time):
    tensor, pairs = args[:2]
    tracer.count["tensor.dense_mults"] += _dim(tensor) ** (tensor.rank - len(pairs))
    _count_inputs(tracer, tensor)


def observe_contract(tracer, args, result, self_time):
    tensor = args[0]
    tracer.count["tensor.dense_mults"] += _dim(tensor) ** (tensor.rank - 1)
    _count_inputs(tracer, tensor)


def observe_construct(tracer, args, result, self_time):
    tracer.count["tensor.entries_built"] += len(args[0].entries)


def observe_format_tensor(tracer, args, result, self_time):
    tracer.count["tensor.format_scanned"] += len(args[0].entries)
    tracer.count["tensor.format_lines"] += result.count("\n") + 1


def observe_format_scalar(tracer, args, result, self_time):
    tracer.count["tensor.format_scanned"] += 1
    tracer.count["tensor.format_lines"] += 1


def observe_plan(tracer, args, result, self_time):
    pants = len(args[1].pants)
    genus = args[1].genus
    tracer.count["functor.pants"] += pants
    bucket = "small" if genus <= SMALL_GENUS else "large" if genus >= LARGE_GENUS else None
    if bucket:
        tracer.count[f"plan_s.{bucket}"] += self_time
        tracer.count[f"plan_pants.{bucket}"] += pants


# (owner, attribute, span kind, observer); the owner is a module or a class.
# Kinds no metric reports (functor.invariant, .apply_gluing, .verify) still
# keep their own work out of their callers' self time.
HOOKS = [
    ("tqft2d.cli", "main", "cli", None),
    ("tqft2d", "parse_tqft", "tqft.parse", None),
    ("tqft2d.cli", "parse_tqft", "tqft.parse", None),
    ("tqft2d.tqft.TqftData", "__init__", "tqft.build", None),
    ("tqft2d.functor", "check_relations", "tqft.check", None),
    ("tqft2d.cli", "check_relations", "tqft.check", None),
    ("tqft2d", "parse_surface", "surface.parse", None),
    ("tqft2d.cli", "parse_surface", "surface.parse", None),
    ("tqft2d.surface.Surface", "glue", "surface.glue", None),
    ("tqft2d", "invariant", "functor.invariant", None),
    ("tqft2d", "closed_invariant", "functor.invariant", None),
    ("tqft2d.functor", "invariant", "functor.invariant", None),
    ("tqft2d.cli", "invariant", "functor.invariant", None),
    ("tqft2d.cli", "closed_invariant", "functor.invariant", None),
    ("tqft2d", "apply_gluing", "functor.apply_gluing", None),
    ("tqft2d.functor", "apply_gluing", "functor.apply_gluing", None),
    ("tqft2d.cli", "verify_decomposition_invariance", "functor.verify", None),
    ("tqft2d.cli", "verify_functoriality", "functor.verify", None),
    ("tqft2d.cli", "verify_monoidal", "functor.verify", None),
    ("tqft2d", "pants_decomposition", "functor.decompose", None),
    ("tqft2d.functor", "pants_decomposition", "functor.decompose", None),
    ("tqft2d.functor", "random_rewrite", "functor.rewrite", None),
    ("tqft2d", "invariant_of_decomposition", "functor.plan", observe_plan),
    ("tqft2d.functor", "invariant_of_decomposition", "functor.plan", observe_plan),
    ("tqft2d.functor", "contract_between", "tensor.contract", observe_between),
    ("tqft2d.functor", "contract_within", "tensor.contract", observe_within),
    ("tqft2d.tensor.LabeledTensor", "contract", "tensor.contract", observe_contract),
    ("tqft2d.tensor.LabeledTensor", "__init__", "tensor.construct", observe_construct),
    ("tqft2d.tensor.LabeledTensor", "tensor_product", "tensor.product", None),
    ("tqft2d.tensor.LabeledTensor", "__matmul__", "tensor.product", None),
    ("tqft2d.tensor.LabeledTensor", "permute_indices", "tensor.permute", None),
    ("tqft2d", "format_tensor", "tensor.format", observe_format_tensor),
    ("tqft2d.cli", "format_tensor", "tensor.format", observe_format_tensor),
    ("tqft2d", "format_scalar", "tensor.format", observe_format_scalar),
    ("tqft2d.cli", "format_scalar", "tensor.format", observe_format_scalar),
]


def _resolve(path: str):
    """The module or class named by a dotted path, or None."""
    parts = path.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            owner = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for name in parts[cut:]:
            owner = getattr(owner, name, None)
        return owner
    return None


class Tracer:
    def __init__(self):
        self.stack: list[list[float]] = []
        self.time: dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.count: Counter = Counter()
        self.instrument = 0.0
        self.installed: set[str] = set()
        self.missing: list[str] = []
        self.broken: set[str] = set()
        self._undo: list[tuple] = []

    def wrap(self, fn, kind, observe):
        tracer, stack, clock = self, self.stack, time.perf_counter

        def wrapper(*args, **kwargs):
            outer = clock()
            frame = [0.0]
            stack.append(frame)
            done = False
            start = clock()
            try:
                result = fn(*args, **kwargs)
                done = True
                return result
            finally:
                end = clock()
                stack.pop()
                self_time = end - start - frame[0]
                tracer.time[kind] += self_time
                tracer.calls[kind] += 1
                if done and observe is not None:
                    try:
                        observe(tracer, args, result, self_time)
                    except Exception:  # a changed signature must not end the run
                        tracer.broken.add(kind)
                finish = clock()
                if stack:
                    stack[-1][0] += finish - outer
                tracer.instrument += finish - outer - (end - start)

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        for path, attr, kind, observe in HOOKS:
            owner = _resolve(path)
            target = owner.__dict__.get(attr) if owner is not None else None
            if not callable(target):
                self.missing.append(f"{path}.{attr}")
                continue
            setattr(owner, attr, self.wrap(target, kind, observe))
            self._undo.append((owner, attr, target))
            self.installed.add(kind)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, target = self._undo.pop()
            setattr(owner, attr, target)

    def snapshot(self) -> dict:
        return {"time": dict(self.time), "calls": dict(self.calls),
                "count": dict(self.count), "instrument": self.instrument}


def _delta(end: dict, start: dict) -> dict:
    out = copy.deepcopy(end)
    for table in ("time", "calls", "count"):
        for key, value in start[table].items():
            out[table][key] = out[table].get(key, 0) - value
    out["instrument"] -= start["instrument"]
    return out


# name: (unit, span kinds it needs, the end-to-end metric and workload it
# should move; "steady" names a workload where it should not change).
LAYER_METRICS = {
    "functor.plan_s": ("s/op", ("functor.plan",),
                       "throughput_ops_s, latency_p90_ms on closed-genus; steady on wide-boundary"),
    "functor.plan_share": ("ratio", ("functor.plan",),
                           "throughput_ops_s, latency_p90_ms on closed-genus; steady on wide-boundary"),
    "functor.pants": ("1/op", ("functor.plan",), "work count on closed-genus"),
    "functor.plan_us_per_pants.small": ("us", ("functor.plan",),
                                        "planner cost per pants at genus <= 16, closed-genus"),
    "functor.plan_us_per_pants.large": ("us", ("functor.plan",),
                                        "planner cost per pants at genus >= 32, closed-genus"),
    "functor.decompose_s": ("s/op", ("functor.decompose",), "verify-suites, closed-genus"),
    "functor.rewrite_s": ("s/op", ("functor.rewrite",), "verify-suites"),
    "tensor.contract_s": ("s/op", ("tensor.contract",),
                          "throughput_ops_s on wide-boundary; steady on closed-genus"),
    "tensor.contract_calls": ("1/op", ("tensor.contract",), "wide-boundary"),
    "tensor.dense_mults": ("1/op", ("tensor.contract",),
                           "multiply-adds a dense kernel would do, from input shapes; wide-boundary"),
    "tensor.nonzero_share": ("ratio", ("tensor.contract",),
                             "nonzero share of contraction inputs; wide-boundary"),
    "tensor.construct_s": ("s/op", ("tensor.construct",),
                           "latency_p50_ms on verify-suites (per call) and wide-boundary (per entry)"),
    "tensor.construct_calls": ("1/op", ("tensor.construct",), "verify-suites"),
    "tensor.entries_built": ("1/op", ("tensor.construct",), "wide-boundary"),
    "tensor.product_s": ("s/op", ("tensor.product",),
                         "throughput_ops_s on verify-suites and wide-boundary"),
    "tensor.product_calls": ("1/op", ("tensor.product",), "verify-suites, wide-boundary"),
    "tensor.permute_s": ("s/op", ("tensor.permute",), "wide-boundary"),
    "tensor.format_s": ("s/op", ("tensor.format",), "latency_p50_ms on wide-boundary"),
    "tensor.format_scanned": ("1/op", ("tensor.format",), "wide-boundary"),
    "tensor.format_lines": ("1/op", ("tensor.format",), "wide-boundary"),
    "tensor.share": ("ratio", ("tensor.contract", "tensor.construct", "tensor.product",
                               "tensor.permute", "tensor.format"),
                     "share of op time in tensor spans; most of it on wide-boundary"),
    "tqft.check_s": ("s/op", ("tqft.check",),
                     "throughput_ops_s on query-stream; steady on closed-genus"),
    "tqft.check_calls": ("1/op", ("tqft.check",), "query-stream"),
    "tqft.check_share": ("ratio", ("tqft.check",),
                         "throughput_ops_s on query-stream; steady on closed-genus"),
    "tqft.parse_s": ("s/call", ("tqft.parse",),
                     "setup_s on query-stream; latency_p50_ms on verify-suites"),
    "tqft.build_s": ("s/call", ("tqft.build",),
                     "setup_s on query-stream; latency_p50_ms on verify-suites"),
    "surface.parse_s": ("s/call", ("surface.parse",), "query-stream"),
    "surface.glue_s": ("s/op", ("surface.glue",), "verify-suites"),
    "surface.glue_calls": ("1/op", ("surface.glue",), "verify-suites"),
    "cli.self_s": ("s/op", ("cli",), "verify-suites"),
    "trace.overhead": ("ratio", (), "traced wall / untraced wall - 1, every workload"),
}


def layer_metrics(tracer: Tracer, setup: dict, ops_end: dict, ops: int,
                  op_wall: float, scale: float = 1.0) -> dict:
    """Per-layer metrics of a traced run, except trace.overhead.

    `setup` and `ops_end` are snapshots taken after set-up and after the
    ops.  Times and counts are per op over the op phase; parse and build
    times are per call and include set-up.  A per-pants planner cost reads
    0 when no op planned a network in its genus bucket.  Times (units s/...
    and us) are multiplied by `scale`, the run's factor to the reference
    speed of speed.py.
    """
    d = _delta(ops_end, setup)
    t, n, c = d["time"], d["calls"], d["count"]
    op_time = max(op_wall - d["instrument"], 1e-12)
    per_op = max(ops, 1)

    def per_call(kind):
        calls = ops_end["calls"].get(kind, 0)
        return ops_end["time"].get(kind, 0.0) / calls if calls else 0.0

    def per_pants(bucket):
        pants = c.get(f"plan_pants.{bucket}", 0)
        return 1e6 * c.get(f"plan_s.{bucket}", 0.0) / pants if pants else 0.0

    inputs = c.get("tensor.inputs", 0)
    tensor_time = sum(v for k, v in t.items() if k.startswith("tensor."))
    values = {
        "functor.plan_s": t.get("functor.plan", 0.0) / per_op,
        "functor.plan_share": t.get("functor.plan", 0.0) / op_time,
        "functor.pants": c.get("functor.pants", 0) / per_op,
        "functor.plan_us_per_pants.small": per_pants("small"),
        "functor.plan_us_per_pants.large": per_pants("large"),
        "functor.decompose_s": t.get("functor.decompose", 0.0) / per_op,
        "functor.rewrite_s": t.get("functor.rewrite", 0.0) / per_op,
        "tensor.contract_s": t.get("tensor.contract", 0.0) / per_op,
        "tensor.contract_calls": n.get("tensor.contract", 0) / per_op,
        "tensor.dense_mults": c.get("tensor.dense_mults", 0) / per_op,
        "tensor.nonzero_share": c.get("tensor.nonzero", 0) / inputs if inputs else 0.0,
        "tensor.construct_s": t.get("tensor.construct", 0.0) / per_op,
        "tensor.construct_calls": n.get("tensor.construct", 0) / per_op,
        "tensor.entries_built": c.get("tensor.entries_built", 0) / per_op,
        "tensor.product_s": t.get("tensor.product", 0.0) / per_op,
        "tensor.product_calls": n.get("tensor.product", 0) / per_op,
        "tensor.permute_s": t.get("tensor.permute", 0.0) / per_op,
        "tensor.format_s": t.get("tensor.format", 0.0) / per_op,
        "tensor.format_scanned": c.get("tensor.format_scanned", 0) / per_op,
        "tensor.format_lines": c.get("tensor.format_lines", 0) / per_op,
        "tensor.share": tensor_time / op_time,
        "tqft.check_s": t.get("tqft.check", 0.0) / per_op,
        "tqft.check_calls": n.get("tqft.check", 0) / per_op,
        "tqft.check_share": t.get("tqft.check", 0.0) / op_time,
        "tqft.parse_s": per_call("tqft.parse"),
        "tqft.build_s": per_call("tqft.build"),
        "surface.parse_s": per_call("surface.parse"),
        "surface.glue_s": t.get("surface.glue", 0.0) / per_op,
        "surface.glue_calls": n.get("surface.glue", 0) / per_op,
        "cli.self_s": t.get("cli", 0.0) / per_op,
    }
    metrics = {}
    for name, value in values.items():
        unit, kinds, _ = LAYER_METRICS[name]
        if unit.startswith("s/") or unit == "us":
            value *= scale
        if all(k in tracer.installed and k not in tracer.broken for k in kinds):
            metrics[name] = {"value": value, "unit": unit}
    return metrics
