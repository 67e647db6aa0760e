"""Benchmark of tqft2d: four seeded closed-loop workloads, one client each.

Usage, from the root of a checkout:

  python3 bench/run.py --workload W --seed N --seconds S --trace 0|1 [--out FILE]
  python3 bench/run.py --workload all --seed N --seconds S [--trace 0|1] [--out FILE]

Workloads (BENCHMARK.json says why each was chosen, workloads.py builds
them): closed-genus, wide-boundary, query-stream, verify-suites.

Each run draws a fixed op set from the seed and executes it in rounds, in a
new seeded order each round, every op once per round.  With --trace 0 the
end-to-end metrics are measured with tracing off: three processes in turn
set up and run ops for S/3 seconds of op time each (whole rounds, at least
34 ops and 2 rounds each), with three fresh processes that only set up
before each of them and after the last.

Times are scaled to a fixed machine speed (see speed.py): each op's time
is multiplied by REFERENCE_S over the mean time of the reference loops run
right before and right after it, and each set-up time by REFERENCE_S over
the median of the reference loops run right after it.  Over all ops run in
the three processes, the first round included:

  throughput_ops_s  ops per second of scaled op time
  latency_p50/p90   percentiles over all ops run, each op's time being the
                    median scaled time of the same op over all its runs
                    (see `typical`)
  setup_s           the median of the fifteen scaled set-up times
  peak_rss_mb       the largest ru_maxrss of the measuring processes

An op set repeats every round, so a cache keyed by an op's inputs is hit
from the second round on, as in a long-running client that repeats its
queries.

With --trace 1 one process runs at least two rounds (S/2 seconds)
untraced, a second one runs the same ops with the tracing wrappers of
tracing.py, and the per-layer metrics come from the second, their times
scaled as above; `trace.overhead` compares the two processes' scaled op
times.

Every op's output is checked against an oracle that does not use the code
under test.  The last line of stdout is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`; with --workload all a table
is printed instead, including `error_rate` = failed / attempted.  --out
writes the results with the Python version, nproc, commit, seed and the
line count of src/.  The exit code is not 0 when the checkout has no
src/tqft2d or a process fails.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

from speed import REFERENCE_S

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("closed-genus", "wide-boundary", "query-stream", "verify-suites")
MEASURE_RUNS = 3  # measuring processes, each for a share of the run's seconds
SETUP_RUNS = 3  # set-up-only processes before each measuring process and after the last
TIME_LIMIT = 170.0  # seconds for one workload, all of its processes included


class BenchError(Exception):
    pass


def child(workload, seed, seconds, mode, deadline, ops=None) -> dict:
    argv = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--mode", mode]
    if ops is not None:
        argv += ["--ops", str(ops)]
    try:
        done = subprocess.run(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload} {mode}: time limit exceeded") from None
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise BenchError(f"{workload} {mode}: worker exited with {done.returncode}")
    return json.loads(lines[-1])


def end_to_end(workload, seed, seconds) -> dict:
    deadline = time.monotonic() + TIME_LIMIT
    # One set-up is short, so its scaled time is noisy: take the median of
    # many, spread over the run.
    setups, runs = [], []
    for k in range(MEASURE_RUNS + 1):
        setups += [child(workload, seed, seconds, "setup", deadline)
                   for _ in range(SETUP_RUNS)]
        if k < MEASURE_RUNS:
            runs.append(child(workload, seed, seconds / MEASURE_RUNS, "measure", deadline))
    return e2e_result(setups, runs)


def scaled_setup(run) -> float:
    """The set-up time scaled to the reference speed.

    Set-up slows less than the reference loop under load, so on a slowed
    machine its scaled time reads low, by up to a third; it is the least
    steady of the scaled times.
    """
    return run["setup_s"] * REFERENCE_S / statistics.median(run["setup_refs"])


def scaled_ops(run) -> list[float]:
    return [t * REFERENCE_S / ref for t, ref in zip(run["latencies"], run["refs"])]


def typical(keys, times) -> list[float]:
    """Every op's time replaced by the median time of the same op.

    The scaled time of one short run still varies by a tenth or more, as
    the machine's speed changes within milliseconds; where few ops lie
    near a percentile, such noise moves it from run to run.  Each op's
    median over its runs in all rounds of all processes is steady.
    """
    runs: dict[int, list[float]] = {}
    for key, t in zip(keys, times):
        runs.setdefault(key, []).append(t)
    median = {key: statistics.median(ts) for key, ts in runs.items()}
    return [median[key] for key in keys]


def e2e_result(setups, runs) -> dict:
    """End-to-end metrics from the set-up-only results and the measuring ones."""
    times = [t for run in runs for t in scaled_ops(run)]
    latencies = typical([key for run in runs for key in run["keys"]], times)
    failed = sum(run["failed"] for run in runs)
    metrics = {
        "throughput_ops_s": (len(times) / sum(times), "1/s"),
        "latency_p50_ms": (1e3 * statistics.median(latencies), "ms"),
        "latency_p90_ms": (1e3 * statistics.quantiles(latencies, n=10)[8], "ms"),
        "setup_s": (statistics.median(scaled_setup(run) for run in setups + runs), "s"),
        "peak_rss_mb": (max(run["peak_rss_mb"] for run in runs), "MB"),
    }
    return {"correct": failed == 0, "attempted": len(latencies), "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}


def per_layer(workload, seed, seconds) -> dict:
    deadline = time.monotonic() + TIME_LIMIT
    plain = child(workload, seed, seconds, "untraced", deadline)
    traced = child(workload, seed, seconds, "traced", deadline,
                   ops=len(plain["latencies"]))
    return layer_result(plain, traced)


def layer_result(plain, traced) -> dict:
    for name in traced["missing"]:
        print(f"trace hook not found: {name}", file=sys.stderr)
    metrics = dict(traced["metrics"])
    metrics["trace.overhead"] = {"value": sum(scaled_ops(traced)) / sum(scaled_ops(plain)) - 1,
                                 "unit": "ratio"}
    failed = plain["failed"] + traced["failed"]
    return {"correct": failed == 0,
            "attempted": len(plain["latencies"]) + len(traced["latencies"]),
            "failed": failed, "metrics": metrics}


def metadata(seed) -> dict:
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                                capture_output=True, timeout=10).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = ""
    src_lines = 0
    for folder, _, files in os.walk(os.path.join(ROOT, "src")):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(folder, name), encoding="utf-8") as handle:
                    src_lines += sum(1 for _ in handle)
    return {"python": platform.python_version(),
            "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count(),
            "commit": commit or "unknown", "seed": seed, "src_lines": src_lines}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="also write the results and metadata to this file")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "tqft2d", "__init__.py")):
        print(f"no src/tqft2d under {ROOT}: run from a checkout of the repository",
              file=sys.stderr)
        return 2
    measure = per_layer if args.trace else end_to_end
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        results = {name: measure(name, args.seed, args.seconds) for name in names}
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump({**metadata(args.seed), "seconds": args.seconds, "trace": args.trace,
                       "results": results}, handle, indent=1)
    if args.workload == "all":
        for name, result in results.items():
            rows = dict(result["metrics"])
            rows["error_rate"] = {"value": result["failed"] / result["attempted"],
                                  "unit": "ratio"}
            for metric, entry in rows.items():
                print(f"{name:14} {metric:34} {entry['value']:14.6g} {entry['unit']}")
        return 0 if all(r["correct"] for r in results.values()) else 1
    print(json.dumps(results[args.workload]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
