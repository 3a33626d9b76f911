"""Benchmark of the movingframes CLI and library.

    python3 benchmarks/run.py --workload minimal-n10 --seed 0 --seconds 60 --trace 0
    python3 benchmarks/run.py --smoke

Run from the root of a source checkout; the package is imported from
``src/``.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics of a separate in-process
traced run with ``--trace 1``.  The line before it records the environment,
the verdicts and the worst deviation.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

# One BLAS thread in this process and in every CLI child.  This process waits
# while a child runs, so no more threads run than nproc, and a child's time
# does not depend on whether a second CPU happens to be free.  Set before
# numpy is imported, because BLAS reads it once.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
os.environ.update(dict.fromkeys(BLAS_THREAD_VARS, "1"))

import numpy as np  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402
from tracing import STAGES  # noqa: E402
from workloads import CLI_WORKLOADS, SWEEP, Outcome  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"
# The order of calls in an untraced CLI run.  The shorter stages run more
# often than check-funtf, so that every stage is sampled all through the run.
ROUND = ("gen", "check_balance", "gen", "check_funtf", "gen", "check_balance")

END_TO_END = {
    "setup_s": "s", "gen_s": "s", "check_balance_s": "s", "check_funtf_s": "s",
    "pipeline_s": "s", "sets_per_s": "1/s", "decide_p50_ms": "ms", "decide_p99_ms": "ms",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "framecheck.verify_s": "s", "framecheck.points_checked": "count",
    "framecheck.index_arrays_share": "ratio", "framecheck.flops_computed": "flop",
    "framecheck.bytes_computed": "B", "framecheck.witness_s": "s",
    "balance.is_balanced_s": "s", "balance.is_balanced_calls": "count",
    "balance.slice_visits": "count", "balance.failures_reported": "count",
    "balance.build_minimal_balanced_s": "s", "operators.enumerate_full_s": "s",
    "operators.build_set_s": "s", "documents.read_s": "s", "documents.write_s": "s",
    "documents.bytes": "B", "documents.records": "count", "cli.self_s": "s",
    "cli.output_bytes": "B", "sphere.sample_sphere_s": "s",
    "trace.gen_covered": "ratio", "trace.check_balance_covered": "ratio",
    "trace.check_funtf_covered": "ratio", "trace.overhead_s": "s",
    "trace.overhead_share": "ratio",
}


def environment(seed: int) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)),
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    # A checkout without git history is still identified by its sources.
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": {k: os.environ.get(k) for k in BLAS_THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "git_commit": commit,
        "source_sha256": digest.hexdigest(),
        "seed": seed,
    }


def _p99(values: list[float]) -> float:
    """Nearest-rank 99th percentile."""
    ordered = sorted(values)
    return ordered[math.ceil(0.99 * len(ordered)) - 1]


def end_to_end(import_times, stage_times, decisions, peak_rss_kb,
               center=statistics.fmean) -> dict[str, float]:
    """``stage_times`` holds every sample of each stage; ``decisions`` the
    latencies of whole decisions.  ``center`` reduces a stage's samples to
    its metric: the mean of a few long CLI calls, the median of the sweep's
    thousands of short sets, whichever spreads less from run to run."""
    stages = {stage: center(stage_times[stage]) for stage in STAGES}
    return {
        "setup_s": statistics.median(import_times),
        "gen_s": stages["gen"],
        "check_balance_s": stages["check_balance"],
        "check_funtf_s": stages["check_funtf"],
        "pipeline_s": sum(stages.values()),
        "sets_per_s": 1 / sum(statistics.fmean(stage_times[stage]) for stage in STAGES),
        "decide_p50_ms": 1e3 * statistics.median(decisions),
        "decide_p99_ms": 1e3 * _p99(decisions),
        "peak_rss_mb": peak_rss_kb / 1024,
    }


def run_cli_workload(name, seed, seconds, trace, smoke, work, env, outcome, record):
    spec = CLI_WORKLOADS[name]
    ref = workloads.Reference(spec, spec["smoke_n" if smoke else "n"], seed)
    if not trace:
        imports = workloads.ImportTimer(ROOT, env, outcome)
        pipeline = workloads.CliPipeline(ref, work, workloads.SubprocessCli(ROOT, env),
                                         tracing.NullTracer(), outcome)
        times = {stage: [] for stage in STAGES}
        start = perf_counter()
        for step in itertools.count():
            stage = ROUND[step % len(ROUND)]
            if step >= len(ROUND):
                # After the first round, a call is made only if it would end
                # within the run at its stage's mean so far.  The run ends
                # when no stage fits.
                elapsed = perf_counter() - start
                fits = {other for other in STAGES
                        if elapsed + statistics.fmean(times[other]) <= seconds}
                if not fits or elapsed > workloads.RUN_LIMIT_S:
                    break
                if stage not in fits:
                    continue
            imports.sample()
            times[stage].append(getattr(pipeline, stage)())
        # The k-th calls of the three stages make the k-th decision.
        decisions = [sum(calls) for calls in zip(*times.values())]
        record.update(verdict=pipeline.verdict(), decisions=len(decisions),
                      samples={stage: len(times[stage]) for stage in STAGES},
                      worst_deviation=max(pipeline.deviations, default=None))
        peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        return end_to_end(imports.times, times, decisions, peak)

    # Warm up lazy set-up in this process on a tiny set, then time the same
    # pass untraced and traced.
    warm = workloads.Reference(spec, spec["smoke_n"], seed)
    workloads.cli_decision(warm, work, workloads.InProcessCli(tracing.NullTracer()),
                           tracing.NullTracer(), Outcome())
    plain = workloads.cli_decision(ref, work, workloads.InProcessCli(tracing.NullTracer()),
                                   tracing.NullTracer(), outcome)
    tracer = tracing.Tracer(name)
    with tracing.patched(tracer):
        traced = workloads.cli_decision(ref, work, workloads.InProcessCli(tracer), tracer, outcome)
    deviations = [p["deviation"] for p in (plain, traced) if p["deviation"] is not None]
    record.update(verdict=traced["verdict"], decisions=2,
                  worst_deviation=max(deviations, default=None))
    return _trace_metrics(tracer, plain["seconds"], traced["seconds"],
                          traced["document_bytes"], traced["output_bytes"], record, seed)


def run_sweep(seed, seconds, trace, smoke, env, outcome, record):
    min_sets = workloads.SMOKE_SETS if smoke else workloads.SWEEP_MIN_SETS
    if not trace:
        imports = workloads.ImportTimer(ROOT, env, outcome)
        imports.sample(3)
        result = workloads.sweep(seed, min_sets, seconds, tracing.NullTracer(), outcome,
                                 every_100=imports.sample)
        record.update(verdict=result["verdicts"], decisions=len(result["decisions"]),
                      worst_deviation=result["worst_deviation"])
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        times = {stage: [d[stage] for d in result["decisions"]] for stage in STAGES}
        return end_to_end(imports.times, times, [sum(d.values()) for d in result["decisions"]],
                          peak, center=statistics.median)

    workloads.sweep(seed + 1, min(20, min_sets), 0, tracing.NullTracer(), Outcome())
    plain = workloads.sweep(seed, min_sets, 0, tracing.NullTracer(), outcome)
    tracer = tracing.Tracer(SWEEP)
    with tracing.patched(tracer):
        traced = workloads.sweep(seed, min_sets, 0, tracer, outcome)
    record.update(verdict=traced["verdicts"], decisions=len(traced["decisions"]),
                  worst_deviation=traced["worst_deviation"])
    total = {stage: sum(d[stage] for d in traced["decisions"]) for stage in STAGES}
    plain_total = {stage: sum(d[stage] for d in plain["decisions"]) for stage in STAGES}
    return _trace_metrics(tracer, plain_total, total, 0, 0, record, seed)


def _trace_metrics(tracer, plain_seconds, traced_seconds, document_bytes, output_bytes,
                   record, seed) -> dict[str, float]:
    metrics = tracing.layer_metrics(tracer, traced_seconds, document_bytes, output_bytes)
    plain, traced = sum(plain_seconds.values()), sum(traced_seconds.values())
    metrics["trace.overhead_s"] = traced - plain
    metrics["trace.overhead_share"] = (traced - plain) / plain
    spans_path = OUT / f"trace-{tracer.workload}-seed{seed}.json"
    tracer.write(spans_path)
    record.update(spans=str(spans_path.relative_to(ROOT)), spans_recorded=len(tracer.spans),
                  untraced_stage_s=plain_seconds, traced_stage_s=traced_seconds)
    return metrics


def run(name: str, seed: int, seconds: float, trace: bool, smoke: bool = False):
    """One benchmark run; returns (result line, record)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    OUT.mkdir(exist_ok=True)
    work = OUT / f"work-{os.getpid()}"
    work.mkdir()
    outcome = Outcome()
    record = {"workload": name, "trace": int(trace), "environment": environment(seed)}
    try:
        if name in CLI_WORKLOADS:
            metrics = run_cli_workload(name, seed, seconds, trace, smoke, work, env, outcome, record)
        else:
            metrics = run_sweep(seed, seconds, trace, smoke, env, outcome, record)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    record["failure_rate"] = outcome.failed / outcome.attempted
    record["problems"] = outcome.problems[:20]
    units = PER_LAYER if trace else END_TO_END
    result = {
        "correct": outcome.failed == 0 and not outcome.problems,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {k: {"value": float(metrics[k]), "unit": u} for k, u in units.items()},
    }
    return result, {"record": record}


def smoke() -> int:
    """Every workload once at tiny sizes, untraced and traced; checks the
    metric names and units against BENCHMARK.json and that nothing failed.
    This includes full-minus-n5, which BENCHMARK.json does not list."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    bad = 0
    for workload in (*CLI_WORKLOADS, SWEEP):
        for trace, key in ((False, "end_to_end"), (True, "per_layer")):
            result, record = run(workload, seed=0, seconds=0, trace=trace, smoke=True)
            expected = {m["name"]: m["unit"] for m in spec[key]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            problems = list(record["record"]["problems"])
            if got != expected:
                problems.append(f"metrics {sorted(got.items())} != {sorted(expected.items())}")
            if record["record"]["failure_rate"] != 0 or not result["correct"]:
                problems.append(f"failure_rate {record['record']['failure_rate']}")
            print(f"smoke {workload} trace={int(trace)}: {'ok' if not problems else problems}")
            bad += bool(problems)
    return 1 if bad else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*CLI_WORKLOADS, SWEEP])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=60)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run every workload once at tiny sizes and check the output")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "movingframes" / "__init__.py").is_file():
        print(f"error: no package source at {ROOT / 'src' / 'movingframes'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if args.smoke:
        return smoke()
    if args.workload is None:
        parser.error("--workload is required")
    result, record = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(record))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
