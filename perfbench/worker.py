"""Run one workload in this process and print its metrics (started by run.py).

Untraced (``--trace 0``): five fresh child processes each time a cold set-up,
then one untimed warm-up pass, then passes back to back for ``--seconds``,
one caller in a closed loop. Each set-up, and each case of each pass, is
bracketed by the reference kernel and host-normalized (see reference.py); a
pass's time is the sum over its cases. Traced (``--trace 1``): a traced
set-up and warm-up pass, then untraced and traced passes alternating; the
per-layer figures come from the traced passes, and the untraced ones give the
tracing overhead.

The last stdout line is the result object; the line before it is the full
report, with every normalized time beside its raw seconds and reference times.
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
import tempfile
import time

import numpy as np

import reference
import tracing
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
WORK_ROOT = os.path.join(HERE, ".work")
SETUP_CHILDREN = 5
CHILD_TIMEOUT_S = 60

# per-layer figures taken from the traced set-up rather than from the passes
SETUP_LAYERS = ("quadrature.grid", "models.structure", "models.sample")
SPAN_LAYERS = (
    "jets.elementary", "geometry.metric", "geometry.metric_inv", "geometry.gamma",
    "geometry.riemann", "geometry.ricci", "geometry.scalar_curvature", "geometry.field_ops",
    "geometry.field_jet", "qem.values", "quadrature.node_pass", "quadrature.checks",
    "quadrature.stokes", "cli.verify", "cli.integrate",
)


class Timeline:
    """Timed intervals, each bracketed by a reference-kernel run before and after it."""

    def __init__(self, workload: str):
        self.r0 = reference.R0_S[workload]
        self.kernel = reference.ReferenceKernel(workload)
        self.kernel.run()  # the first run pays for page faults and lazy initialisation
        self.refs = [self.kernel.run()]

    def measure(self, fn):
        """Run fn once; returns (fn's result, raw seconds, R before, R after)."""
        start = time.perf_counter()
        out = fn()
        raw = time.perf_counter() - start
        self.refs.append(self.kernel.run())
        return out, raw, self.refs[-2], self.refs[-1]

    def record(self, raw: float, r_before: float, r_after: float) -> dict:
        """An interval's raw seconds beside its reference times and normalized seconds."""
        return {"raw_s": raw, "ref_before_s": r_before, "ref_after_s": r_after,
                "normalized_s": reference.normalize(raw, r_before, r_after, self.r0)}


def measure_setups(timeline: Timeline, workload: str, seed: int, workdir: str) -> list:
    cmd = [sys.executable, os.path.join(HERE, "setup_child.py"), "--workload", workload,
           "--seed", str(seed), "--workdir", workdir]

    def child() -> float:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
                              check=True)
        return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]

    out = []
    for _ in range(SETUP_CHILDREN):
        # the child's own clock, which leaves out interpreter start-up
        inside, _raw, r_before, r_after = timeline.measure(child)
        out.append(timeline.record(inside, r_before, r_after))
    return out


def timed_pass(timeline: Timeline, cases: list, scope=None):
    """One pass, each case bracketed by the reference kernel; returns (result, record)."""
    results, intervals = [], []
    for case in cases:
        res, *interval = timeline.measure(lambda: workloads.check_case(case, scope))
        results.append(res)
        intervals.append(timeline.record(*interval))
    result = workloads.combine(results)
    return result, {"raw_s": sum(i["raw_s"] for i in intervals),
                    "normalized_s": sum(i["normalized_s"] for i in intervals),
                    "evals": result.evals, "cases": intervals}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {workloads.WORKLOADS}")

    timeline = Timeline(args.workload)
    traced = bool(args.trace)
    report = {
        "workload": args.workload, "seed": args.seed, "trace": int(traced),
        "host": {"nproc": os.cpu_count(), "python": platform.python_version(),
                 "numpy": np.__version__,
                 "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
                 "R0_s": timeline.r0, "reference_parts": reference.PARTS[args.workload]},
    }

    os.makedirs(WORK_ROOT, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK_ROOT) as workdir:
        if traced:
            with tracing.install(tracing.Tracer()) as setup_trace, setup_trace.scope("setup"):
                cases = workloads.build(args.workload, args.seed, workdir)
            # the warm-up pass is traced too, so its counts join the repeat check
            with tracing.install(tracing.Tracer()) as tracer:
                warm = workloads.run_pass(cases, tracer.scope)
            traces = [tracer]
        else:
            report["setup"] = measure_setups(timeline, args.workload, args.seed, workdir)
            cases = workloads.build(args.workload, args.seed, workdir)
            warm = workloads.run_pass(cases)  # untimed: fills lazy caches
        results, passes = [warm], []
        start = time.perf_counter()
        while (time.perf_counter() - start < args.seconds or not passes
               or (traced and len(passes) < 2)):
            trace_this = traced and len(passes) % 2 == 1
            if trace_this:
                with tracing.install(tracing.Tracer()) as tracer:
                    res, record = timed_pass(timeline, cases, tracer.scope)
                traces.append(tracer)
            else:
                res, record = timed_pass(timeline, cases)
            results.append(res)
            passes.append({**record, "traced": trace_this})

    attempted = sum(r.attempted for r in results)
    failed = sum(r.wrong for r in results)
    untraced = [p for p in passes if not p["traced"]]
    pass_s = statistics.median(p["normalized_s"] for p in untraced)
    evals = statistics.median(p["evals"] for p in untraced)
    report.update({
        "passes": passes,
        "reference_runs_s": timeline.refs,
        "evals_per_pass": evals,
        "wrong_verdict_share": failed / attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    })
    correct = failed == 0

    if traced:
        scoped = [{scope: dict(c) for scope, c in t.counts.items()} for t in traces]
        repeat = all(s == scoped[0] for s in scoped)
        correct = correct and repeat
        report["counts_per_case"] = scoped[0]
        report["counts_identical_every_pass"] = repeat
        setup_self = tracing.self_times(setup_trace.spans, setup_trace.aggregates)
        metrics = layer_metrics(traces[1:], setup_self, results, passes, timeline.refs)
    else:
        metrics = {
            "pass_s": (pass_s, "s"),
            "evals_per_s": (evals / pass_s, "1/s"),
            "setup_s": (statistics.median(s["normalized_s"] for s in report["setup"]), "s"),
            "peak_rss_mb": (report["peak_rss_mb"], "MB"),
        }
    print(json.dumps(report))
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


def layer_metrics(traces, setup_self, results, passes, refs) -> dict:
    """Self time per traced pass, counts per pass, set-up layers from the traced set-up."""
    per_pass = [tracing.self_times(t.spans, t.aggregates) for t in traces]
    totals = traces[0].totals()

    def mean_self(name):
        return statistics.fmean(p.get(name, 0.0) for p in per_pass)

    products = totals.get(tracing.PRODUCTS, 0)
    out = {
        "jets.mul_s": (mean_self(tracing.MUL), "s"),
        "jets.mul_terms": (totals.get(tracing.TERMS, 0), "count"),
        "jets.mul_calls": (products, "count"),
        "jets.mul_zero_share": (totals.get(tracing.ZERO_PRODUCTS, 0) / max(products, 1),
                                "ratio"),
    }
    for key in (tracing.FRAMES, tracing.METRIC_BUILDS, tracing.HIDDEN_FRAMES):
        out[key] = (totals.get(key, 0), "count")
    for name in SPAN_LAYERS:
        out[name + "_s"] = (mean_self(name), "s")
    for ident in workloads.CATALOG_IDS:
        out[f"identities.{ident}_s"] = (mean_self(f"identities.{ident}"), "s")
    out["identities.worst_residual_ratio"] = (max(r.worst_ratio for r in results), "ratio")
    for name in SETUP_LAYERS:
        out[name + "_s"] = (setup_self.get(name, 0.0), "s")
    out["host.ref_s"] = (statistics.median(refs), "s")
    traced = statistics.median(p["normalized_s"] for p in passes if p["traced"])
    untraced = statistics.median(p["normalized_s"] for p in passes if not p["traced"])
    out["host.trace_overhead"] = (traced / untraced, "ratio")
    return out


if __name__ == "__main__":
    sys.exit(main())
