"""The traced benchmark run (``perfbench/run.py --trace 1``) wraps module-level
names of the package.  A name that is gone, or a hook that cannot take the
arguments it gets, leaves per-layer metrics out of the benchmark's report."""

import math
import os

import numpy as np

from solit import ExperimentConfig, FilterSpec, get_problem
from solit import candidates, genchi2, harness, selectors

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")


def test_every_probe_finds_its_name_and_accepts_its_arguments(monkeypatch):
    monkeypatch.syspath_prepend(PERFBENCH)
    import run
    import tracing

    modules = (candidates, genchi2, harness, selectors)
    before = [dict(vars(m)) for m in modules]
    tracer = tracing.Tracer()
    try:
        run.install_probes(tracer)
        assert tracer.absent == []
        harness.run_experiment(
            ExperimentConfig(problem="heat", filter_kind="tikhonov", sigma_start=1e-2,
                             sigma_stop=1e-4, sigma_count=2, runs=3, problem_params={"n": 12})
        )
        problem = get_problem("heat", n=12)
        spec = FilterSpec("tikhonov")
        selectors.critical_value_z(problem, spec, 1e-1, 1e-2, 1.0)
        selectors.pairwise_variance_v(problem, spec, 1e-1, 1e-2, 1e-3)
        w = np.array([1.0, 0.5, 0.25])
        genchi2.mc_tail_quantiles(w, [math.exp(-1)], 1000, 7)
        genchi2.noncentral_chi2_sf(2.0, 1.0, 3.0)
    finally:
        tracer.restore()
    for module, saved in zip(modules, before):
        assert all(vars(module)[k] is v for k, v in saved.items())
    metrics = run.layer_metrics(tracer, traced_wall=1.0, untraced_wall=1.0, results_bytes=0)
    assert set(metrics) == set(run.PER_LAYER)
    assert metrics["selectors.threshold_pairs"] > 0
    assert metrics["genchi2.critical_value_z.calls"] == 1
    assert metrics["candidates.pairwise_variance_v.calls"] == 1
    assert metrics["genchi2.noncentral_branch.calls"] == 1
    assert metrics["genchi2.mc_normals"] == 3000
