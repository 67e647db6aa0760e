"""Write tests/golden.json: the CLI's frozen output over a fixed corpus.

Each row is one in-process run of `tqft2d.cli.main`: its argv, exit code,
stdout byte count and the sha256 of stdout and of stderr.  Paths in argv are
relative to the repository root; `{inputs}` stands for a directory holding
the files under the JSON's "inputs" key (written-out data and seeded glue
surfaces), which tests/test_golden.py writes out before it reruns every row.

Rewriting golden.json is a stdout change: a change that alters any row lists
each such row and its reason in CHANGES.md.

Usage:  PYTHONPATH=src python tests/make_golden.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import sys
import tempfile
from pathlib import Path

from tqft2d.cli import main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden.json"
DATA = ("bad", "dense4", "diag2", "diag3", "diag4", "rot2")
SURFACES = ("g1n4", "g1n6", "g1n8")
SUITES = ("moves", "functor", "monoidal")
GLUE_SEED = 17
GLUE_CASES = 120

# A complex datum: a dim-2 diagonal solution with one p entry off its slot
# orbit by 1e-12, inside DEFAULT_TOLERANCE, so the loader accepts it and the
# relations pass.
COMPLEX = """tqft dim=2 backend=complex
d 1 = 1+1i
d 2 = 2-0.5i
p 1 1 1 = 0.5-0.5i
p 1 1 2 = 1e-12i
p 2 2 2 = 0.470588235294+0.117647058824i
"""

# Asymmetric: the first bad slot triple, (1,1,2), shows only when the last
# two slots swap; swapping the first two slots first shows (1,2,2).
ASYMMETRIC = """tqft dim=2 backend=rational
d 1 = 1
d 2 = 1
p 1 1 2 = 1
p 1 2 2 = 1
"""


def glue_surfaces(rng: random.Random, count: int) -> list[tuple[str, str]]:
    """`count` (surface text, pairs) cases: two to four components, each
    pair one + and one - circle, with one case in five given a bad pair."""
    cases = []
    for _ in range(count):
        lines, plus, minus, labels = [], [], [], []
        for _ in range(rng.randint(2, 4)):
            circles = []
            for _ in range(rng.randint(1, 3)):
                label = f"c{len(labels)}"
                sign = rng.choice("+-")
                (plus if sign == "+" else minus).append(label)
                labels.append(label)
                circles.append(sign + label)
            lines.append(f"component orient={rng.choice('+-')} "
                         f"genus={rng.randint(0, 2)} boundary=[{','.join(circles)}]")
        rng.shuffle(plus)
        rng.shuffle(minus)
        pairs = [(a, b) if rng.random() < 0.5 else (b, a)
                 for a, b in zip(plus, minus)][:rng.randint(1, 3)]
        spare_plus, spare_minus = plus[len(pairs):], minus[len(pairs):]
        if rng.random() < 0.2:
            bad = rng.choice(["same-sign", "unknown", "repeated", "syntax"])
            same = spare_plus if len(spare_plus) > 1 else spare_minus
            if bad == "same-sign" and len(same) > 1:
                pairs.append((same[0], same[1]))
            elif bad == "unknown":
                spare = spare_plus + spare_minus + ["zy"]
                pairs.insert(rng.randint(0, len(pairs)), (spare[0], "zz"))
            elif bad == "repeated" and pairs:
                pairs.append(pairs[0])
            else:
                pairs.append((labels[-1], ""))
        cases.append(("\n".join(lines) + "\n", ",".join(f"{a}:{b}" for a, b in pairs)))
    return cases


def corpus() -> tuple[dict[str, str], list[list[str]]]:
    """The input files written out here, and the argv of every row."""
    inputs = {"complex.tqft": COMPLEX, "asymmetric.tqft": ASYMMETRIC}
    data = [f"bench/data/{name}.tqft" for name in DATA] + ["{inputs}/complex.tqft"]
    rows = []
    for path in data:
        rows.append(["check", path])
        rows += [["closed", path, "--genus", str(g)] for g in range(7)]
        rows += [["invariant", path, f"bench/data/{srf}.srf"] for srf in SURFACES]
        rows += [["verify", path, "--suite", suite, "--trials", "2"] for suite in SUITES]
    asymmetric = "{inputs}/asymmetric.tqft"
    rows += [["check", asymmetric], ["closed", asymmetric, "--genus", "1"],
             ["invariant", asymmetric, "bench/data/g1n4.srf"]]
    rows += [["search", "--dim", "1", "--height", str(h)] for h in range(1, 7)]
    emit = ["bench/data/rot2.tqft", "bench/data/diag3.tqft", "{inputs}/complex.tqft"]
    rng = random.Random(GLUE_SEED)
    for k, (text, pairs) in enumerate(glue_surfaces(rng, GLUE_CASES)):
        name = f"glue{k:03d}.srf"
        inputs[name] = text
        rows.append(["glue", f"{{inputs}}/{name}", "--pairs", pairs])
        rows.append(["glue", f"{{inputs}}/{name}", "--pairs", pairs,
                     "--emit-tensor", emit[k % len(emit)]])
    return inputs, rows


def write_inputs(inputs: dict[str, str], directory: str) -> None:
    for name, text in inputs.items():
        Path(directory, name).write_text(text, encoding="utf-8")


def run(argv: list[str], directory: str) -> dict:
    """One row: run `argv` in-process from the repository root, with
    `{inputs}` replaced by `directory`."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([arg.replace("{inputs}", directory) for arg in argv])
    stdout = out.getvalue().encode("utf-8")
    stderr = err.getvalue().encode("utf-8")
    return {"argv": argv, "exit": code, "stdout_bytes": len(stdout),
            "stdout_sha256": hashlib.sha256(stdout).hexdigest(),
            "stderr_sha256": hashlib.sha256(stderr).hexdigest()}


def generate() -> dict:
    inputs, argvs = corpus()
    with tempfile.TemporaryDirectory() as directory:
        write_inputs(inputs, directory)
        rows = [run(argv, directory) for argv in argvs]
    return {"inputs": inputs, "rows": rows}


if __name__ == "__main__":
    os.chdir(ROOT)
    golden = generate()
    GOLDEN.write_text(json.dumps(golden, indent=1) + "\n", encoding="utf-8")
    codes = [row["exit"] for row in golden["rows"]]
    print(f"wrote {len(codes)} rows to {GOLDEN.relative_to(ROOT)}; exit codes "
          + ", ".join(f"{c}: {codes.count(c)}" for c in sorted(set(codes))), file=sys.stderr)
