"""Scaling sweep: the CLI baselines of ROADMAP "Recent", split by layer.

  python3 bench/sweep.py [--out FILE]

Cases, each run in process through ``tqft2d.cli.main`` as the console
script would run it:

  closed --genus 10, 40, 100       diagonal dim-2 datum t = (1, 2)
  invariant, genus 1, n = 4, 6, 8  dims 2 and 4, diagonal and rotated data
  verify --suite all --trials 25   diagonal dim-3 datum

The data and surface files are the committed ones under bench/data.

For each case the table shows the fastest wall time of up to REPS
untraced runs (fewer once a case has taken BUDGET_S), then the self time of each
layer in one traced run, and the planner's time per pants, whose growth
with genus shows the planner's complexity.  Outputs are checked against the
oracles of workloads.py.  This sweep is not one of the gated workloads.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import sys
import time

from run import metadata
from tracing import Tracer
from worker import import_library
from workloads import DATA_DIR, DENSE4, DIAG2, DIAG3, DIAG4, ROT2, tensor_text

LAYERS = [("plan", "functor.plan"), ("contract", "tensor.contract"),
          ("construct", "tensor.construct"), ("product", "tensor.product"),
          ("permute", "tensor.permute"), ("format", "tensor.format"),
          ("check", "tqft.check"), ("parse", "tqft.parse"), ("cli", "cli")]
REPS, BUDGET_S = 3, 5.0


def surface_text(n: int) -> str:
    """The connected genus-1 surface with circles +b1 .. +bn (data/g1n<n>.srf)."""
    return ("component orient=+ genus=1 boundary=["
            + ",".join(f"+b{k + 1}" for k in range(n)) + "]\n")


def cases():
    files = {f.name: os.path.join(DATA_DIR, f"{f.name}.tqft")
             for f in (DIAG2, ROT2, DIAG3, DIAG4, DENSE4)}
    for genus in (10, 40, 100):
        yield (f"closed diag2 g={genus}", ["closed", files["diag2"], "--genus", str(genus)],
               f"{DIAG2.closed(genus)}\n")
    for family in (DIAG2, ROT2, DIAG4, DENSE4):
        for n in (4, 6, 8):
            circles = [(f"b{k + 1}", "+") for k in range(n)]
            surface = os.path.join(DATA_DIR, f"g1n{n}.srf")
            expected = tensor_text(family, circles, [(1, list(range(n)))]) + "\n"
            yield (f"invariant {family.name} g=1 n={n}",
                   ["invariant", files[family.name], surface], expected)
    yield ("verify diag3 all trials=25",
           ["verify", files["diag3"], "--suite", "all", "--trials", "25"], None)


def call(lib, argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        start = time.perf_counter()
        code = lib.cli.main(argv)
        elapsed = time.perf_counter() - start
    return code, out.getvalue(), elapsed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", help="also write the rows and metadata to this file")
    args = parser.parse_args(argv)
    lib = import_library()
    rows, ok = [], True
    header = f"{'case':30} {'wall_s':>9}" + "".join(f" {n:>9}" for n, _ in LAYERS)
    print(header + f" {'us/pants':>9}")
    for label, command, expected in cases():
        walls = []
        while len(walls) < REPS and sum(walls) < BUDGET_S:
            code, out, elapsed = call(lib, command)
            walls.append(elapsed)
            if code != 0 or (expected is not None and out != expected):
                ok = False
                print(f"{label}: exit {code} or wrong output", file=sys.stderr)
        tracer = Tracer()
        tracer.install()
        try:
            call(lib, command)
        finally:
            tracer.uninstall()
        pants = tracer.count.get("functor.pants", 0)
        row = {"case": label, "wall_s": min(walls), "reps": len(walls),
               **{name: tracer.time.get(kind, 0.0) for name, kind in LAYERS},
               "plan_us_per_pants": 1e6 * tracer.time.get("functor.plan", 0.0) / pants
               if pants else 0.0}
        rows.append(row)
        print(f"{label:30} {row['wall_s']:9.4f}"
              + "".join(f" {row[name]:9.4f}" for name, _ in LAYERS)
              + f" {row['plan_us_per_pants']:9.1f}", flush=True)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump({**metadata(None), "rows": rows}, handle, indent=1)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
