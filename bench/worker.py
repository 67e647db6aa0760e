"""One benchmark process: set up one workload, run its ops, print a JSON line.

Started by run.py, one fresh process per measurement, as one closed-loop
client: each op starts after the previous one finished.  Modes:

  setup     set up and report the set-up time only
  measure   ops for --seconds of op time (whole rounds, at least MIN_OPS ops
            and MIN_ROUNDS rounds)
  untraced  ops for half of --seconds (at least two rounds), for the trace overhead
  traced    exactly --ops ops with the tracing wrappers installed

Every op of the op set runs once per round.  Each op is reported with its
index in the op set, its time and the mean time of the reference loops of speed.py run right before
and right after it; the set-up time is reported with SETUP_REFS
reference loops run right after set-up.  run.py scales the times with them.
Every output is checked against the oracle outside the timed region.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time

START = time.perf_counter()  # set-up time counts from here, before importing tqft2d

from speed import REFERENCE_S, reference  # noqa: E402
from tracing import Tracer, layer_metrics  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# run.py merges three measuring processes: together they hold at least ten
# latencies above p90, and every op is timed in at least 3 * MIN_ROUNDS rounds.
MIN_OPS, MIN_ROUNDS = 34, 2
SETUP_REFS = 5  # reference loops run after set-up, for the set-up's speed
# Op time after which a process stops early, so that the three measuring
# processes of a run end within its time limit.
MAX_OP_SECONDS = 40.0


def import_library():
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    import tqft2d
    import tqft2d.cli  # noqa: F401  (the verify-suites ops call tqft2d.cli.main)
    if not os.path.abspath(tqft2d.__file__).startswith(src + os.sep):
        raise ImportError(f"tqft2d was imported from {tqft2d.__file__}, not from {src}")
    return tqft2d


def run_ops(workload, lib, seed, *, seconds=None, min_ops=1, min_rounds=1, count=None):
    """Run whole rounds until `seconds` of op time, `min_ops` ops and
    `min_rounds` rounds, or exactly `count` ops.  Returns (op-set index,
    time, mean time of the reference loops run right before and right after
    it) per op and the number of failed ops."""
    ops_run, failures = [], 0
    total = 0.0
    for rounds, ops in enumerate(workload.rounds(seed), start=1):
        for key, op in ops:
            if count is not None and len(ops_run) >= count:
                return ops_run, failures
            prepared = workload.prepare(lib, op)
            before = reference()
            start = time.perf_counter()
            try:
                output = workload.execute(lib, prepared)
                error = None
            except Exception as exc:  # an op that raises counts as failed
                error = exc
            elapsed = time.perf_counter() - start
            ops_run.append((key, elapsed, (before + reference()) / 2))
            total += elapsed
            if error is None:
                try:
                    ok = workload.check(op, output)
                except Exception as exc:
                    ok, error = False, exc
            if error is not None or not ok:
                failures += 1
                if failures <= 3:
                    print(f"{workload.name}: op {op!r} failed: {error or 'wrong output'}",
                          file=sys.stderr)
        if (count is None and total >= seconds and len(ops_run) >= min_ops
                and rounds >= min_rounds):
            break
        if total >= MAX_OP_SECONDS:
            break
    return ops_run, failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("setup", "measure", "untraced", "traced"),
                        required=True)
    parser.add_argument("--ops", type=int)
    args = parser.parse_args(argv)

    lib = import_library()
    tracer = None
    if args.mode == "traced":
        tracer = Tracer()
        tracer.install()
    workload = WORKLOADS[args.workload]()
    workload.setup(lib)
    result = {"setup_s": time.perf_counter() - START,
              "setup_refs": [reference() for _ in range(SETUP_REFS)]}
    if args.mode == "measure":
        ops, failed = run_ops(workload, lib, args.seed, seconds=args.seconds,
                              min_ops=MIN_OPS, min_rounds=MIN_ROUNDS)
        result.update(peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
    elif args.mode == "untraced":
        ops, failed = run_ops(workload, lib, args.seed, seconds=args.seconds / 2,
                              min_rounds=2)
    elif args.mode == "traced":
        before = tracer.snapshot()
        ops, failed = run_ops(workload, lib, args.seed, count=args.ops)
        after = tracer.snapshot()
        tracer.uninstall()
        scale = REFERENCE_S / statistics.median(ref for _, _, ref in ops)
        result.update(missing=tracer.missing,
                      metrics=layer_metrics(tracer, before, after, len(ops),
                                            sum(elapsed for _, elapsed, _ in ops), scale))
    if args.mode != "setup":
        result.update(keys=[key for key, _, _ in ops],
                      latencies=[elapsed for _, elapsed, _ in ops],
                      refs=[ref for _, _, ref in ops], failed=failed)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
