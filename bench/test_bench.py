"""Tests of the benchmark itself: oracles, seeding and metric names.

Run with ``python3 -m pytest bench`` from the root of the repository.
"""

from __future__ import annotations

import gc
import itertools
import json
import os
import re
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import tqft2d  # noqa: E402
import tqft2d.cli  # noqa: E402,F401

import run  # noqa: E402
import speed  # noqa: E402
import sweep  # noqa: E402
import tracing  # noqa: E402
import workloads as w  # noqa: E402

NAME_RE = re.compile(r"[A-Za-z0-9_.-]+")

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
    SPEC = json.load(handle)


def data_of(family):
    return tqft2d.TqftData(family.d_entries(), family.p_entries())


@pytest.mark.parametrize("family", [w.DIAG2, w.ROT2, w.DIAG3, w.DENSE4])
def test_closed_oracle_matches_closed_invariant(family):
    data = data_of(family)
    for genus in range(5):
        assert tqft2d.closed_invariant(data, genus) == family.closed(genus)


@pytest.mark.parametrize("family", [w.DIAG2, w.ROT2, w.DIAG3, w.DENSE4])
@pytest.mark.parametrize("genus,signs", [
    (0, "+"), (0, "-+"), (0, "+-+"), (1, "+"), (1, "+-"), (2, "-"), (0, "+-+-")])
def test_tensor_oracle_matches_invariant(family, genus, signs):
    circles = [(f"c{k}", sign) for k, sign in enumerate(signs)]
    surface = tqft2d.Surface.connected(genus, ",".join(s + c for c, s in circles))
    expected = w.tensor_text(family, circles, [(genus, list(range(len(circles))))])
    assert tqft2d.format_tensor(tqft2d.invariant(data_of(family), surface)) == expected


@pytest.mark.parametrize("workload", sorted(w.WORKLOADS))
def test_ops_pass_their_oracles(workload):
    """The first ops of every workload (the wide-boundary ones restricted to
    at most six circles, to stay quick) pass their oracle on this code."""
    bench = w.WORKLOADS[workload]()
    bench.setup(tqft2d)
    ops = [op for _, op in next(bench.rounds(0))
           if workload != "wide-boundary" or len(op[2]) <= 6][:6]
    if workload == "closed-genus":
        ops = [op for op in ops if op[1] <= 24]
    for op in ops:
        assert bench.check(op, bench.execute(tqft2d, bench.prepare(tqft2d, op))), op


def test_known_bad_datum_keeps_failing():
    bench = w.VerifySuites()
    bench.setup(tqft2d)
    for op in [("check", "bad"), ("verify", "bad", "moves", 2, 0)]:
        assert bench.check(op, bench.execute(tqft2d, bench.prepare(tqft2d, op)))
    # A silent PASS would not satisfy the oracle.
    assert not bench.check(("check", "bad"), (0, "PASS PASS PASS PASS\n"))


def test_data_files_hold_the_generated_texts():
    expected = {f"{f.name}.tqft": f.text() for f in w.FAMILIES.values()}
    expected["bad.tqft"] = w.BAD_TEXT
    expected.update({f"g1n{n}.srf": sweep.surface_text(n) for n in (4, 6, 8)})
    names = sorted(os.listdir(w.DATA_DIR))
    assert names and set(names) <= set(expected)
    for name in names:
        with open(os.path.join(w.DATA_DIR, name), encoding="utf-8") as handle:
            assert handle.read() == expected[name], name


def test_glue_oracle_tracks_handles_and_merges():
    components = ((0, "+", (("a", "+"), ("b", "-"))), (1, "-", (("c", "+"), ("d", "-"))))
    circles, glued = w.glued_components(components, (("b", "c"), ("d", "a")))
    assert circles == [] and glued == [(2, [])]
    circles, glued = w.glued_components(components, (("a", "b"),))
    assert circles == [("c", "+"), ("d", "-")] and glued == [(1, []), (1, [0, 1])]


@pytest.mark.parametrize("workload", sorted(w.WORKLOADS))
def test_same_seed_same_inputs(workload):
    def first(seed):
        return list(itertools.islice(w.WORKLOADS[workload]().rounds(seed), 3))

    assert first(7) == first(7)
    assert first(7) != first(8)


def test_op_mix_does_not_depend_on_the_seed():
    def mix(workload, seed, key):
        return sorted(key(op) for _, op in next(w.WORKLOADS[workload]().rounds(seed)))

    for seed in (1, 2):
        assert mix("wide-boundary", seed, lambda op: (op[0], op[1], len(op[2]))) == \
            mix("wide-boundary", 0, lambda op: (op[0], op[1], len(op[2])))
        assert mix("verify-suites", seed, lambda op: op[:2] if op[1] == "bad" else op[:4]) \
            == mix("verify-suites", 0, lambda op: op[:2] if op[1] == "bad" else op[:4])
        for workload in ("closed-genus", "query-stream"):
            assert mix(workload, seed, repr) == mix(workload, 0, repr)


def test_benchmark_json_lists_every_layer_metric():
    per_layer = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert per_layer == {name: unit for name, (unit, _, _) in tracing.LAYER_METRICS.items()}
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME_RE.fullmatch(name) for name in names)
    assert [x["name"] for x in SPEC["workloads"]] == list(run.WORKLOADS)


def test_latency_is_the_median_run_of_each_op():
    assert run.typical([0, 1, 0, 1, 2, 0], [3, 5, 2, 7, 1, 9]) == [3, 6, 3, 6, 1, 3]


def test_end_to_end_metrics_are_scaled_to_the_reference_speed():
    ref = run.REFERENCE_S
    # Ops of 10..100 ms, the first half timed at the reference speed and the
    # second half at half of it, as the reference loops after them show.
    measured = {"keys": list(range(20)),
                "latencies": [0.01 * k for k in range(1, 11)] + [0.02 * k for k in range(1, 11)],
                "refs": [ref] * 10 + [2 * ref] * 10, "failed": 0, "peak_rss_mb": 20.0,
                "setup_s": 0.2, "setup_refs": [2 * ref] * 3}
    setups = [{"setup_s": s, "setup_refs": [ref, ref, 9 * ref]} for s in (0.1, 0.3)]
    result = run.e2e_result(setups, [measured, {**measured, "peak_rss_mb": 30.0}])
    declared = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    assert result["attempted"] == 40 and result["correct"]
    assert metrics["latency_p50_ms"] == pytest.approx(55)
    assert metrics["throughput_ops_s"] == pytest.approx(40 / (4 * 0.55))
    assert metrics["setup_s"] == pytest.approx(0.1)  # of 0.1, 0.1, 0.1 and 0.3
    assert metrics["peak_rss_mb"] == 30.0


def traced_ops(workload, count=2):
    """Run the first `count` ops of a workload traced, in this process."""
    tracer = tracing.Tracer()
    tracer.install()
    try:
        bench = w.WORKLOADS[workload]()
        bench.setup(tqft2d)
        before = tracer.snapshot()
        for _, op in next(bench.rounds(3))[:count]:
            bench.execute(tqft2d, bench.prepare(tqft2d, op))
        after = tracer.snapshot()
    finally:
        tracer.uninstall()
    return tracer, tracing.layer_metrics(tracer, before, after, count, 1.0)


@pytest.mark.parametrize("workload", ["closed-genus", "query-stream", "verify-suites"])
def test_emitted_layer_metrics_are_declared(workload):
    tracer, metrics = traced_ops(workload)
    assert not tracer.missing
    refs = [run.REFERENCE_S] * 2
    plain = {"latencies": [0.5, 0.5], "refs": refs, "failed": 0}
    traced = {"latencies": [0.5, 0.6], "refs": refs, "failed": 0,
              "missing": [], "metrics": metrics}
    result = run.layer_result(plain, traced)
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    assert all(NAME_RE.fullmatch(name) for name in result["metrics"])
    # The wrappers are gone again.
    assert not hasattr(tqft2d.invariant, "__wrapped__")


def test_missing_hook_drops_its_metrics(monkeypatch):
    hooks = [(path, "renamed_away" if kind == "tensor.contract" else attr, kind, observe)
             for path, attr, kind, observe in tracing.HOOKS]
    monkeypatch.setattr(tracing, "HOOKS", hooks)
    tracer, metrics = traced_ops("closed-genus", count=1)
    assert "tqft2d.functor.renamed_away" in tracer.missing
    assert "tensor.contract_s" not in metrics and "tensor.share" not in metrics
    assert metrics["functor.plan_s"]["value"] > 0


def test_per_pants_bucket_without_ops_reads_zero():
    tracer = tracing.Tracer()
    tracer.install()
    try:
        before = tracer.snapshot()
        tqft2d.closed_invariant(data_of(w.DIAG2), 3)
        after = tracer.snapshot()
    finally:
        tracer.uninstall()
    metrics = tracing.layer_metrics(tracer, before, after, 1, 1.0, scale=2.0)
    assert metrics["functor.plan_us_per_pants.small"]["value"] > 0
    assert metrics["functor.plan_us_per_pants.large"]["value"] == 0
    # Times are scaled, counts are not.
    assert metrics["functor.plan_s"]["value"] == pytest.approx(2 * tracer.time["functor.plan"])
    assert metrics["functor.pants"]["value"] == tracer.count["functor.pants"]


@pytest.mark.parametrize("enabled", [True, False])
def test_reference_loop_restores_the_collector(enabled):
    was = gc.isenabled()
    try:
        gc.enable() if enabled else gc.disable()
        assert speed.reference() > 0
        assert gc.isenabled() == enabled
    finally:
        gc.enable() if was else gc.disable()
