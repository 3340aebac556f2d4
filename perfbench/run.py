"""Benchmark of the solit Monte Carlo sweeps and tail-quantile checks.

Run from the root of a checkout:

    python3 perfbench/run.py --workload sweep9 --seed 42 --seconds 20 --trace 0

A run repeats whole passes of the workload: at least one, and another while
it is expected to end within ``--seconds``.  Every operation's output is
checked after it is timed.  With ``--trace 0`` the run reports the
end-to-end metrics, with the times scaled to a reference machine speed (see
``REFERENCE_IMPORT``).  With ``--trace 1`` it runs one untraced and one traced
pass and reports per-layer metrics from the trace.  Before the last line it
prints a report (machine, versions, sample counts, output errors, layer
self-times); the last line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  Reports and spans are also
written under ``perfbench/out/``.

Everything runs in this one process; only the set-up samples start
short-lived interpreters, one at a time, to time a fresh ``import solit`` and
the reference import.
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

import env

# Fresh-interpreter imports timed between the operations of the first pass,
# so that they span the run rather than one moment of a shared machine.
SETUP_SAMPLES = 7
SETUP_IMPORT = "import solit, solit.harness, solit.genchi2"

# The speed of a shared host changes by a third for minutes at a time, and it
# moves every timing of a run together: on a shared 2-vCPU virtual machine the
# median of ten runs of one workload rose 57% from one set of ten runs of the
# same code to the next, set-up time included.
# Each set-up sample is therefore paired with a fresh interpreter importing
# only solit's dependencies, which no change to solit can speed up or slow
# down, and the gated times are scaled to a machine on which that reference
# import takes REFERENCE_IMPORT_S.  The raw times are in the report.
REFERENCE_IMPORT = "import numpy, scipy.special"
REFERENCE_IMPORT_S = 0.3

# Gated in BENCHMARK.json; the times are at the reference speed.
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mib": "MiB",
}
# End-to-end metrics printed in the report only.  Each operation runs once per
# pass, and single sweeps of a few seconds vary by 20-30% from run to run on a
# shared machine, far more than the pass total.  The error figures are 0 when
# the outputs are right, and a gated metric must never be 0.
REPORTED = {
    "op_s_p50": "s",
    "op_s_p90": "s",
    "ops_failed_frac": "ratio",
    "mse_max_rel_err": "ratio",
    "quantile_max_rel_err": "ratio",
}

# name -> (unit, the traced name it is derived from; None for the layer sums)
PER_LAYER = {
    "testproblems.get_problem.calls": ("count", "testproblems.get_problem"),
    "testproblems.get_problem.s": ("s", "testproblems.get_problem"),
    "candidates.build_grid.calls": ("count", "candidates.build_grid"),
    "candidates.build_grid.s": ("s", "candidates.build_grid"),
    "candidates.variance_V.calls": ("count", "candidates.variance_V.calls"),
    "candidates.pairwise_variance_v.calls": ("count", "candidates.pairwise_variance_v"),
    "candidates.pairwise_variance_v.s": ("s", "candidates.pairwise_variance_v"),
    "filters.filter_weight.calls.candidates": ("count", "filters.filter_weight.calls.candidates"),
    "filters.filter_weight.calls.genchi2": ("count", "filters.filter_weight.calls.genchi2"),
    "filters.filter_weight.calls.harness": ("count", "filters.filter_weight.calls.harness"),
    "selectors.build_thresholds.s": ("s", "selectors.build_thresholds"),
    "selectors.threshold_pairs": ("count", "selectors.build_thresholds"),
    "genchi2.critical_value_z.calls": ("count", "genchi2.critical_value_z"),
    "genchi2.critical_value_z.s": ("s", "genchi2.critical_value_z"),
    "genchi2.ltz_tail_sf.calls": ("count", "genchi2.ltz_tail_sf.calls"),
    "genchi2.ltz_tail_sf.per_quantile": ("count", "genchi2.ltz_tail_quantile.calls"),
    "genchi2.noncentral_branch.calls": ("count", "genchi2.noncentral_branch.calls"),
    "genchi2.ltz_quantile_for_weights.s": ("s", "genchi2.ltz_quantile_for_weights"),
    "harness.pairwise_distance_table.calls": ("count", "harness.pairwise_distance_table"),
    "harness.pairwise_distance_table.s": ("s", "harness.pairwise_distance_table"),
    "harness.pairwise_distance_table.bytes": ("bytes", "harness.pairwise_distance_table"),
    "selectors.solit_select.s": ("s", "selectors.solit_select"),
    "selectors.lepskii_select.s": ("s", "selectors.lepskii_select"),
    "sequence_model.simulate_data.calls": ("count", "sequence_model.simulate_data"),
    "sequence_model.simulate_data.s": ("s", "sequence_model.simulate_data"),
    "harness.mc_loop.self_s": ("s", "harness.run_experiment"),
    "genchi2.mc_tail_quantiles.s": ("s", "genchi2.mc_tail_quantiles"),
    "genchi2.mc_normals": ("count", "genchi2.mc_tail_quantiles"),
    "genchi2.mc_normals_per_s": ("1/s", "genchi2.mc_tail_quantiles"),
    "harness.write_results.s": ("s", "harness.write_results"),
    "harness.read_results.s": ("s", "harness.read_results"),
    "harness.results_bytes": ("bytes", "harness.write_results"),
    "layer.testproblems.self_s": ("s", None),
    "layer.candidates.self_s": ("s", None),
    "layer.selectors.self_s": ("s", None),
    "layer.genchi2.self_s": ("s", None),
    "layer.sequence_model.self_s": ("s", None),
    "layer.harness.self_s": ("s", None),
    "layer.unattributed_s": ("s", None),
    "traced_wall_s": ("s", None),
    "trace_overhead_frac": ("ratio", None),
}

# Counts computed from argument shapes rather than measured.
COMPUTED = ("harness.pairwise_distance_table.bytes", "genchi2.mc_normals", "selectors.threshold_pairs")


def time_import(statement: str) -> float:
    """Wall seconds of a fresh interpreter running ``statement`` with solit's
    ``src/`` on its path.  solit has no lazy set-up beyond its imports.  This
    process has imported solit already, so the bytecode is compiled."""
    t0 = time.perf_counter()
    subprocess.run(
        [sys.executable, "-c", statement],
        env=dict(os.environ, PYTHONPATH=env.SRC),
        cwd=env.ROOT,
        check=True,
    )
    return time.perf_counter() - t0


def at_reference_speed(setup_pairs, wall: float) -> tuple[float, float]:
    """(set-up, wall) seconds scaled to the reference speed.  ``setup_pairs``
    holds (set-up, reference import) seconds timed one after the other; the
    set-up time is the median of their ratios.  The wall time is scaled by the
    mean reference import of the run, as the wall time too sums over the
    run's changes of speed."""
    setup = statistics.median(s / r for s, r in setup_pairs) * REFERENCE_IMPORT_S
    return setup, wall * REFERENCE_IMPORT_S / statistics.fmean(r for _, r in setup_pairs)


class Pass:
    def __init__(self):
        self.wall = 0.0
        self.latencies: dict[str, float] = {}
        self.attempted = 0
        self.failed = 0


def run_pass(ops, stats: dict, problems: list, after_op=None) -> Pass:
    """One pass over the operations.  ``wall`` sums the operations' own time;
    outputs are checked, and ``after_op(index)`` is called, outside it.
    Worst-case check statistics go to ``stats`` and failure messages to
    ``problems``."""
    p = Pass()
    for i, op in enumerate(ops):
        p.attempted += 1
        t0 = time.perf_counter()
        try:
            latency, output = op.run()
        except Exception:
            p.wall += time.perf_counter() - t0
            p.failed += 1
            problems.append(f"{op.key}: raised\n{traceback.format_exc()}")
        else:
            p.wall += time.perf_counter() - t0
            p.latencies[op.key] = latency
            found, op_stats = op.check(output)
            for name, value in op_stats.items():
                stats[name] = max(stats.get(name, 0.0), value)
            if found:
                p.failed += 1
                problems.extend(f"{op.key}: {msg}" for msg in found)
        if after_op is not None:
            after_op(i)
    return p


def op_latencies(passes, ops) -> dict[str, float]:
    """Per operation, the median latency over the passes that completed it, so
    the distribution does not depend on how many passes fit in the run."""
    out = {}
    for op in ops:
        got = [p.latencies[op.key] for p in passes if op.key in p.latencies]
        if got:
            out[op.key] = statistics.median(got)
    return out


def install_probes(tracer) -> None:
    """Wrap the names through which the harness and the selectors call into
    each layer."""
    import numpy as np

    from solit import candidates, genchi2, harness, selectors

    def threshold_pairs(tr, problem, spec, grid, *args, **kwargs):
        tr.add("selectors.threshold_pairs", grid.m_max * (grid.m_max + 1) // 2)

    def table_bytes(tr, rows):
        k, n = rows.shape
        tr.add("harness.pairwise_distance_table.bytes", k * k * n * 8)

    def normals(tr, w, ps, samples, seed):
        # draws times the weights the sampler keeps (those above 1e-9 of the largest)
        w = np.asarray(w, dtype=float)
        tr.add("genchi2.mc_normals", samples * int(np.count_nonzero(w > w.max() * 1e-9)))

    tracer.span(harness, "run_experiment", "harness.run_experiment")
    tracer.span(harness, "get_problem", "testproblems.get_problem")
    tracer.span(harness, "build_grid", "candidates.build_grid")
    tracer.span(harness, "build_thresholds", "selectors.build_thresholds", threshold_pairs)
    tracer.span(selectors, "critical_value_z", "genchi2.critical_value_z")
    tracer.span(selectors, "pairwise_variance_v", "candidates.pairwise_variance_v")
    tracer.span(harness, "_pairwise_distance_table", "harness.pairwise_distance_table", table_bytes)
    tracer.span(harness, "simulate_data", "sequence_model.simulate_data")
    tracer.span(harness, "solit_select", "selectors.solit_select")
    tracer.span(harness, "lepskii_select", "selectors.lepskii_select")
    tracer.span(harness, "write_results", "harness.write_results")
    tracer.span(harness, "read_results", "harness.read_results")
    tracer.span(genchi2, "mc_tail_quantiles", "genchi2.mc_tail_quantiles", normals)
    tracer.span(genchi2, "ltz_quantile_for_weights", "genchi2.ltz_quantile_for_weights")
    tracer.counter(genchi2, "ltz_tail_sf", "genchi2.ltz_tail_sf.calls")
    tracer.counter(genchi2, "ltz_tail_quantile", "genchi2.ltz_tail_quantile.calls")
    tracer.counter(genchi2, "noncentral_chi2_sf", "genchi2.noncentral_branch.calls", lambda l, delta, x: delta > 0)
    tracer.counter(candidates, "variance_V", "candidates.variance_V.calls")
    tracer.counter(candidates, "filter_weight", "filters.filter_weight.calls.candidates")
    tracer.counter(genchi2, "filter_weight", "filters.filter_weight.calls.genchi2")
    tracer.counter(harness, "filter_weight", "filters.filter_weight.calls.harness")


def layer_metrics(tracer, traced_wall: float, untraced_wall: float, results_bytes: int) -> dict:
    """Per-layer metrics of one traced pass, without those whose wrapped name
    is missing.  Counters are stored under their metric names; each span name
    gives ``<name>.calls`` and ``<name>.s``."""
    from tracing import layer_breakdown, totals

    values = dict.fromkeys(PER_LAYER, 0.0)
    values.update(tracer.counts)
    tot = totals(tracer.spans)
    for name, (calls, secs, _) in tot.items():
        values[f"{name}.calls"] = calls
        values[f"{name}.s"] = secs
    for layer, self_s in layer_breakdown(tracer.spans, traced_wall).items():
        values["layer.unattributed_s" if layer == "unattributed" else f"layer.{layer}.self_s"] = self_s
    quantiles = values.get("genchi2.ltz_tail_quantile.calls", 0)
    mc_s = values["genchi2.mc_tail_quantiles.s"]
    values.update(
        {
            "genchi2.ltz_tail_sf.per_quantile": values["genchi2.ltz_tail_sf.calls"] / quantiles if quantiles else 0.0,
            "harness.mc_loop.self_s": tot.get("harness.run_experiment", (0, 0.0, 0.0))[2],
            "genchi2.mc_normals_per_s": values["genchi2.mc_normals"] / mc_s if mc_s else 0.0,
            "harness.results_bytes": results_bytes,
            "traced_wall_s": traced_wall,
            "trace_overhead_frac": traced_wall / untraced_wall - 1.0,
        }
    )
    absent = set(tracer.absent)
    return {name: values[name] for name, (_, source) in PER_LAYER.items() if source not in absent}


def directory_bytes(path: str) -> int:
    return sum(os.path.getsize(os.path.join(d, f)) for d, _, files in os.walk(path) for f in files)


def run(args) -> int:
    try:
        solit = env.prepare()
    except (env.MissingSources, ImportError) as exc:
        print(f"perfbench: cannot import solit from the checkout: {exc}", file=sys.stderr)
        return 2

    import numpy as np
    import scipy

    import workloads
    from tracing import Tracer

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; expected one of {workloads.WORKLOADS}", file=sys.stderr)
        return 2
    os.makedirs(env.OUT, exist_ok=True)
    results_dir = os.path.join(env.OUT, f"results-{args.workload}")
    ops = workloads.build(args.workload, solit, args.seed, workloads.load_reference(), results_dir)

    setup_pairs: list[tuple[float, float]] = []

    def sample_setup(i: int) -> None:
        # after operation i of the first pass, catch up to its share of the samples
        while len(setup_pairs) < round(SETUP_SAMPLES * (i + 1) / len(ops)):
            setup_pairs.append((time_import(SETUP_IMPORT), time_import(REFERENCE_IMPORT)))

    stats: dict[str, float] = {}
    problems: list[str] = []
    passes: list[Pass] = []
    started = time.perf_counter()
    while True:
        after_op = sample_setup if not (args.trace or passes) else None
        passes.append(run_pass(ops, stats, problems, after_op))
        elapsed = time.perf_counter() - started
        if args.trace or elapsed + passes[-1].wall > args.seconds:
            break
    untraced_wall = statistics.median(p.wall for p in passes)
    latencies = op_latencies(passes, ops)
    if not latencies:
        print("perfbench: every operation failed:\n" + "\n".join(problems), file=sys.stderr)
        return 1

    if args.trace:
        with Tracer() as tracer:
            install_probes(tracer)
            traced = run_pass(ops, stats, problems)
        passes.append(traced)
        results_bytes = directory_bytes(results_dir) if os.path.isdir(results_dir) else 0
        metrics = layer_metrics(tracer, traced.wall, untraced_wall, results_bytes)
        tracer.write(os.path.join(env.OUT, f"spans-{args.workload}.csv.gz"))
        units = {name: unit for name, (unit, _) in PER_LAYER.items()}
    else:
        setup_s, wall_s = at_reference_speed(setup_pairs, untraced_wall)
        metrics = {
            "setup_s": setup_s,
            "wall_s": wall_s,
            "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = END_TO_END

    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "nproc": env.nproc(),
        "blas_threads": env.blas_threads(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "solit": solit.__version__,
        "commit": env.commit(),
        "passes": len(passes),
        "pass_wall_s": [p.wall for p in passes],
        "op_samples": len(latencies),
        "reported_metrics": {
            name: {"value": value, "unit": REPORTED[name]}
            for name, value in (
                ("op_s_p50", float(np.percentile(list(latencies.values()), 50))),
                ("op_s_p90", float(np.percentile(list(latencies.values()), 90))),
                ("ops_failed_frac", failed / attempted),
                # None where the workload or seed has nothing to compare
                ("mse_max_rel_err", stats.get("mse_rel_err")),
                ("quantile_max_rel_err", stats.get("quantile_rel_err")),
            )
        },
        "op_latency_s": latencies,
        "raw_setup_s": statistics.median(s for s, _ in setup_pairs) if setup_pairs else None,
        "raw_wall_s": untraced_wall,
        "setup_and_reference_import_s": setup_pairs,
        "computed_not_measured": [m for m in COMPUTED if args.trace and m in metrics],
        "absent_metrics": sorted(set(units) - set(metrics)),
        "dominant_layer": max(
            (name.split(".")[1] for name in metrics if name.startswith("layer.") and name.endswith(".self_s")),
            key=lambda layer: metrics[f"layer.{layer}.self_s"],
            default=None,
        ),
        "problems": problems,
    }
    for line in problems:
        print(f"perfbench: {line}", file=sys.stderr)
    print("report " + json.dumps(report))
    with open(os.path.join(env.OUT, f"report-{args.workload}-trace{args.trace}.json"), "w") as fh:
        json.dump({**report, "metrics": metrics}, fh, indent=1)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": float(metrics[name]), "unit": unit} for name, unit in units.items() if name in metrics},
    }
    print(json.dumps(result))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Benchmark of the solit sweeps and tail quantiles.")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return run(parser.parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
