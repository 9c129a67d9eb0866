"""Tests of the benchmark itself: run with `python3 -m pytest perfbench -q`.

They run tiny versions of the workloads, so that the checks the benchmark
relies on (exact counters, tracing that leaves report bytes alone, wrappers
on every binding, visible gaps) hold without a full benchmark run.
"""

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracer as tr  # noqa: E402
from workloads import Op  # noqa: E402

from rispaces import experiments, orlicz, rademacher, spaces, stepfn, weights  # noqa: E402
from rispaces.spaces import space_G  # noqa: E402

_T1 = {"n_max": 6, "trials": 3, "random_n_max": 5}
_ENV = {"trials": 5, "indicator_trials": 3}
_SIGN = {"trials": 6, "n_max": 4}
_DER = {"trials": 4, "n_max": 4}


def tiny_ops():
    """One small call of every suite the workloads use."""
    return [
        Op("theorem1", {"space": "G", **_T1}, {"E": space_G(), **_T1}),
        Op("envelope", {"spaces": ["G", "G1", "L1", "MG"], **_ENV}, _ENV),
        Op("sign", _SIGN, _SIGN),
        Op("derandomize", _DER, _DER),
    ]


def traced_counts(runner):
    tracer = tr.Tracer()
    with tr.Instrumentation(tracer) as inst:
        runner.run_pass(tracer)
    return tracer, inst


def test_counters_repeat_exactly():
    runner = run.Runner(experiments, tiny_ops(), seed=7)
    runner.run_pass()  # as in a benchmark run: lazy caches fill before tracing
    first, inst = traced_counts(runner)
    second, _ = traced_counts(runner)
    assert runner.failures == []
    assert inst.missing == [] and inst.never_fired() == []
    counts = tr.layer_counts(first)
    assert counts == tr.layer_counts(second)
    assert all(counts[name] > 0 for name in (
        "rademacher.kernel.sums", "orlicz.modular_per_norm", "orlicz.luxemburg_norm_rows.rows",
        "weights.weight_calls_per_sup", "spaces.fundamental_function.elems",
        "spaces.ri_norm.marcinkiewicz.calls", "experiments.derandomized_signs.calls"))


def test_tracing_leaves_report_bytes_alone():
    runner = run.Runner(experiments, tiny_ops(), seed=3)
    runner.run_pass()
    traced_counts(runner)
    assert runner.attempted == 8
    assert runner.failures == []


def test_a_wrong_report_counts_as_failed():
    ops = [Op("sign", {**_SIGN, "trials": 7}, _SIGN)]
    runner = run.Runner(experiments, ops, seed=3)
    runner.run_pass()
    assert len(runner.failures) == 1 and "params differ in ['trials']" in runner.failures[0]


def test_every_binding_is_wrapped_and_restored():
    originals = {
        (spaces, "ri_norm"): spaces.ri_norm,
        (rademacher, "ri_norm"): rademacher.ri_norm,
        (experiments, "sum_rearrangement"): experiments.sum_rearrangement,
        (experiments, "fundamental_function"): experiments.fundamental_function,
        (weights, "rearrange"): weights.rearrange,
        (spaces, "rearrange"): spaces.rearrange,
        (experiments, "rearrange"): experiments.rearrange,
        (experiments, "common_breakpoints"): experiments.common_breakpoints,
        (orlicz.OrliczFunction, "__call__"): orlicz.OrliczFunction.__call__,
        (weights.ConcaveWeight, "__call__"): weights.ConcaveWeight.__call__,
    }
    with tr.Instrumentation(tr.Tracer()):
        for (owner, attr), original in originals.items():
            assert getattr(owner, attr) is not original, f"{owner.__name__}.{attr}"
    for (owner, attr), original in originals.items():
        assert getattr(owner, attr) is original
    assert stepfn.rearrange is originals[(weights, "rearrange")]


def test_missing_and_silent_targets_are_listed():
    targets = (
        tr.Target("stepfn.gone", "rispaces.stepfn", "no_such_function"),
        tr.Target("stepfn.call", "rispaces.stepfn", "StepFunction.__call__"),
        tr.Target("stepfn.no_call", "rispaces.stepfn", "StepFunction.__len__"),
        tr.Target("stepfn.rearrange", "rispaces.stepfn", "rearrange"),
    )
    with tr.Instrumentation(tr.Tracer(), targets) as inst:
        stepfn.constant(1.0)(0.5)
    assert inst.missing == ["stepfn.gone", "stepfn.no_call"]
    assert inst.never_fired() == ["stepfn.rearrange"]


def test_self_time_excludes_children():
    tracer = tr.Tracer()
    with tracer.span("outer"):
        with tracer.span("inner"):
            pass
    inner = next(s for s in tracer.spans if s[3] == "inner")
    outer = next(s for s in tracer.spans if s[3] == "outer")
    assert inner[1] == outer[0]
    assert tracer.self_s["outer"] == pytest.approx(
        (outer[5] - outer[4]) - (inner[5] - inner[4]), abs=1e-12)


def test_benchmark_json_lists_what_the_traced_run_emits():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    tracer = tr.Tracer()
    emitted = {*tr.layer_counts(tracer), *tr.layer_times(tracer),
               "cli.import_s", "trace.overhead_s"}
    assert {m["name"] for m in spec["per_layer"]} == emitted
    assert {m["name"] for m in spec["end_to_end"]} == {"setup_s", "suite_s", "peak_rss_mb"}


def test_a_raising_call_counts_as_failed():
    ops = [Op("sign", _SIGN, {**_SIGN, "n_max": 99})]
    runner = run.Runner(experiments, ops, seed=3)
    runner.run_pass()
    assert len(runner.failures) == 1 and "ExperimentError" in runner.failures[0]
