#!/usr/bin/env python3
"""Layered benchmark of the rispaces verify suites.

Usage (from the repository root):

    python3 perfbench/run.py --workload theorem1-wide --seed 42 --seconds 34 --trace 0
    python3 perfbench/run.py --workload all          # every workload in turn

Workloads are listed in BENCHMARK.json and defined in workloads.py; the
seed is passed to the suites as their seed (42 is the CLI default, any other
seed is a hold-out run). The package is imported from `src/` of the checkout
this file sits in, with RISPACES_WORKERS=1.

A run first starts PROBES fresh interpreters that import `rispaces.cli` and
finish the workload's lazy set-up (`setup_s`, `cli.import_s`). It then runs
passes of the workload's suite calls through `experiments.run_suite`, each
followed by `to_json`, until the next pass would end after `--seconds`.

- `--trace 0`: untraced passes give `suite_s` (median pass time) and
  `peak_rss_mb` (peak resident set of this process).
- `--trace 1`: untraced and traced passes alternate. Traced passes give the
  per-layer counters (from the first traced pass; they are deterministic)
  and self times (medians), and `trace.overhead_s` is the difference of the
  median traced and untraced pass times.

An operation is one suite call. It fails if it raises, if its report does
not pass, if the report's params or seed differ from what was asked, or if
its report bytes differ from those of the first pass, traced or not. The
last line of standard output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`; the lines before it give the
environment, a table of the metrics and any instrumentation gaps. Results
are also written under `.perfbench/` in the checkout, with the spans of the
latest traced run of each workload.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
PROBES = 9
PROBE_TIMEOUT_S = 120

sys.path.insert(0, str(HERE))
import tracer as _tracer  # noqa: E402
import workloads as _workloads  # noqa: E402


def _metric_units() -> tuple:
    """(end-to-end units, per-layer units) by metric name, from BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return (
        {m["name"]: m["unit"] for m in spec["end_to_end"]},
        {m["name"]: m["unit"] for m in spec["per_layer"]},
    )


# --- set-up probes ----------------------------------------------------------------


def probe(workload: str) -> dict:
    """Wall time of a fresh interpreter importing the CLI and setting up."""
    env = dict(os.environ, RISPACES_WORKERS="1")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(HERE / "probe.py"), workload],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S,
    )
    wall = time.perf_counter() - start
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
    inner = json.loads(proc.stdout.splitlines()[-1])
    return {"wall_s": wall, "import_s": inner["import_s"]}


# --- passes -----------------------------------------------------------------------


class Runner:
    """Runs passes of a workload's suite calls and checks every report."""

    def __init__(self, experiments, ops: list, seed: int):
        self.experiments = experiments
        self.ops = ops
        self.seed = seed
        self.reference = None  # report bytes of the first pass, per op
        self.attempted = 0
        self.failures: list = []

    def run_pass(self, tracer=None) -> float:
        """One pass; returns its wall time in seconds."""
        outcomes = []
        start = time.perf_counter()
        for op in self.ops:
            self.attempted += 1
            outcomes.append((self.attempted, *self._call(op, tracer)))
        elapsed = time.perf_counter() - start
        traced = tracer is not None
        texts = [self._check(i, op, *outcome, traced)
                 for i, (op, outcome) in enumerate(zip(self.ops, outcomes))]
        if self.reference is None:
            self.reference = texts
        return elapsed

    def _call(self, op, tracer):
        """(report text, None), or (None, traceback) if the call raised."""
        try:
            if tracer is None:
                report = self.experiments.run_suite(op.suite, seed=self.seed, **op.kwargs)
                return report.to_json(), None
            tracer.run_id = self.attempted
            with tracer.span("experiments.suite"):
                report = self.experiments.run_suite(op.suite, seed=self.seed, **op.kwargs)
            with tracer.span("experiments.serialize"):
                return report.to_json(), None
        except Exception:  # a failed operation, counted, never fatal
            return None, traceback.format_exc()

    def _check(self, index: int, op, attempt: int, out, raised, traced: bool):
        """The report text if the call succeeded, else None (failure recorded)."""
        where = f"{op.suite} (op {attempt}, {'traced' if traced else 'untraced'})"
        if raised is not None:
            self.failures.append(f"{where}: raised\n{raised}")
            return None
        data = json.loads(out)
        problems = []
        if data.get("summary", {}).get("pass") is not True:
            problems.append("report did not pass")
        if data.get("seed") != self.seed:
            problems.append(f"seed {data.get('seed')!r} != {self.seed}")
        params = data.get("params", {})
        wrong = sorted(k for k, v in op.params.items() if params.get(k) != v)
        if wrong:
            problems.append(f"params differ in {wrong}")
        if self.reference is not None:
            ref = self.reference[index]
            if ref is not None and out != ref:
                problems.append("report bytes differ from the first pass")
        if problems:
            self.failures.append(f"{where}: " + "; ".join(problems))
            return None
        return out


def untraced_run(runner: Runner, seconds: float, probes: list, units: dict):
    """Untraced passes: the end-to-end metrics and the pass times."""
    times = []
    start = time.perf_counter()
    while True:
        times.append(runner.run_pass())
        if time.perf_counter() - start + statistics.median(times) > seconds:
            break
    metrics = _metrics({
        "setup_s": statistics.median(p["wall_s"] for p in probes),
        "suite_s": statistics.median(times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }, units)
    return metrics, {"passes": {"untraced_s": times}}, []


def traced_run(runner: Runner, seconds: float, probes: list, units: dict):
    """Untraced and traced passes in turn: the per-layer metrics, the pass
    times with the instrumentation gaps, and the tracers."""
    untraced, traced, tracers = [], [], []
    start = time.perf_counter()
    while True:
        untraced.append(runner.run_pass())
        tracer = _tracer.Tracer()
        with _tracer.Instrumentation(tracer) as inst:
            traced.append(runner.run_pass(tracer))
        tracers.append(tracer)
        spent = time.perf_counter() - start
        if spent + statistics.median(untraced) + statistics.median(traced) > seconds:
            break
    counts = _tracer.layer_counts(tracers[0])
    values = dict(counts)
    for name in _tracer.layer_times(tracers[0]):
        values[name] = statistics.median(_tracer.layer_times(t)[name] for t in tracers)
    values["cli.import_s"] = statistics.median(p["import_s"] for p in probes)
    values["trace.overhead_s"] = statistics.median(traced) - statistics.median(untraced)
    gaps = {"missing": inst.missing, "never_fired": inst.never_fired()}
    unsteady = [i for i, t in enumerate(tracers) if _tracer.layer_counts(t) != counts]
    if unsteady:
        gaps["counts_differ_in_traced_passes"] = unsteady
    record = {"passes": {"untraced_s": untraced, "traced_s": traced},
              "gaps": gaps, "bindings": inst.bindings}
    return _metrics(values, units), record, tracers


# --- environment --------------------------------------------------------------


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _git(*args) -> str | None:
    if not (ROOT / ".git").exists():
        return None  # an exported checkout has no history
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout if proc.returncode == 0 else None


def _blas_name(numpy) -> str | None:
    try:
        return numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError, ValueError):
        return None


def environment(rademacher) -> dict:
    import numpy

    sha = _git("rev-parse", "HEAD")
    status = _git("status", "--porcelain", "--untracked-files=no")
    lines = sum(
        len(p.read_text(encoding="utf-8").splitlines())
        for p in sorted((SRC / "rispaces").rglob("*.py"))
    )
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "blas": _blas_name(numpy),
        "blas_threads": {
            k: os.environ.get(k)
            for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        },
        "git_sha": sha.strip() if sha else None,
        "git_dirty": None if status is None else bool(status.strip()),
        "using_extension": bool(rademacher.USING_EXTENSION),
        "rispaces_workers": os.environ.get("RISPACES_WORKERS"),
        "src_python_lines": lines,
    }


# --- one workload -------------------------------------------------------------


def _metrics(values: dict, units: dict) -> dict:
    if set(values) != set(units):
        raise RuntimeError(
            "computed metrics do not match BENCHMARK.json: "
            f"missing {sorted(set(units) - set(values))}, "
            f"unlisted {sorted(set(values) - set(units))}"
        )
    return {name: {"value": values[name], "unit": units[name]} for name in units}


def _write_spans(path: Path, tracers: list) -> None:
    """JSON lines: a header naming the fields, then one list per span."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(["pass", "id", "parent", "run", "name", "start", "end"]) + "\n")
        for number, tracer in enumerate(tracers, start=1):
            for span in tracer.spans:
                fh.write(json.dumps([number, *span]) + "\n")


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> int:
    if not (SRC / "rispaces" / "__init__.py").is_file():
        print(f"error: no package source at {SRC}", file=sys.stderr)
        return 2
    end_units, layer_units = _metric_units()
    os.environ["RISPACES_WORKERS"] = "1"
    sys.path.insert(0, str(SRC))

    probes = [probe(workload) for _ in range(PROBES)]
    from rispaces import experiments, rademacher

    if not Path(experiments.__file__).resolve().is_relative_to(SRC.resolve()):
        raise RuntimeError(f"imported rispaces from {experiments.__file__}, not {SRC}")
    _workloads.setup(workload)
    runner = Runner(experiments, _workloads.ops(workload), seed)
    env = environment(rademacher)
    print(json.dumps({"environment": env}, sort_keys=True))

    measure = traced_run if trace else untraced_run
    metrics, record, tracers = measure(runner, seconds, probes,
                                       layer_units if trace else end_units)

    failed = len(runner.failures)
    result = {
        "correct": failed == 0,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": metrics,
    }
    passes = record["passes"]
    print(f"workload {workload}, seed {seed}, trace {int(trace)}: "
          f"{len(passes['untraced_s'])} untraced passes"
          + (f", {len(passes['traced_s'])} traced" if trace else ""))
    for name, m in metrics.items():
        print(f"  {name:<40} {m['value']:>16.6f} {m['unit']}")
    print(f"  {'failed_ops':<40} {failed:>16d} count of {runner.attempted} total_ops")
    for failure in runner.failures:
        print(f"  FAILED {failure}")
    if trace:
        print("  instrumentation gaps: " + json.dumps(record["gaps"], sort_keys=True))

    OUT.mkdir(exist_ok=True)
    stem = f"{workload}-seed{seed}-trace{int(trace)}"
    record.update(environment=env, probes=probes, failures=runner.failures, result=result)
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    if tracers:  # one file per workload, so repeated runs do not fill the disk
        _write_spans(OUT / f"{workload}.spans.jsonl", tracers)
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, so peak RSS is per workload."""
    status = 0
    for workload in _workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT,
        )
        status = status or proc.returncode
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=(*_workloads.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=34.0,
                        help="measure for about this long, at least one pass")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("need --seed >= 0 and --seconds > 0")
    if args.workload == "all":
        return run_all(args)
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
