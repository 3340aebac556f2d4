"""Tests of the benchmark's own code.  Run with ``python3 -m pytest perfbench``."""

import json
import os
import types

import numpy as np
import pytest

import env

solit = env.prepare()

import run  # noqa: E402
import workloads  # noqa: E402
from check import (  # noqa: E402
    invariant_problems,
    reference_problems,
    roundtrip_problems,
    sweep_reference,
)
from tracing import Tracer, layer_breakdown, self_times, totals  # noqa: E402


def test_self_times_subtract_direct_children_only():
    spans = [
        ["harness.run", 0.0, 10.0, -1],
        ["candidates.grid", 1.0, 4.0, 0],
        ["selectors.thresholds", 5.0, 9.0, 0],
        ["genchi2.z", 6.0, 7.0, 2],
        ["harness.write", 11.0, 11.5, -1],
    ]
    assert self_times(spans) == pytest.approx([3.0, 3.0, 3.0, 1.0, 0.5])
    layers = layer_breakdown(spans, wall=12.0)
    assert layers == pytest.approx(
        {"harness": 3.5, "candidates": 3.0, "selectors": 3.0, "genchi2": 1.0, "unattributed": 1.5}
    )
    assert sum(layers.values()) == pytest.approx(12.0)
    assert totals(spans)["harness.run"] == pytest.approx((1, 10.0, 3.0))


def test_times_are_scaled_to_the_reference_speed():
    ref = run.REFERENCE_IMPORT_S
    # a machine twice as slow as the reference: every time halves
    setup, wall = run.at_reference_speed([(1.2 * ref, 2 * ref), (1.0 * ref, 2 * ref), (0.8 * ref, 2 * ref)], 10.0)
    assert setup == pytest.approx(0.5 * ref)
    assert wall == pytest.approx(5.0)
    # set-up: median of the paired ratios; wall: mean of the reference imports
    setup, wall = run.at_reference_speed([(1.0 * ref, 1 * ref), (9.0 * ref, 3 * ref), (1.0 * ref, 2 * ref)], 10.0)
    assert setup == pytest.approx(1.0 * ref)
    assert wall == pytest.approx(5.0)


def test_tracer_records_nesting_and_counts():
    mod = types.SimpleNamespace()
    mod.inner = lambda x: x + 1
    mod.hot = lambda x: x * 2
    mod.outer = lambda x: mod.inner(mod.hot(x))
    with Tracer() as tracer:
        tracer.span(mod, "outer", "a.outer")
        tracer.span(mod, "inner", "b.inner", lambda tr, x: tr.add("b.seen", x))
        tracer.counter(mod, "hot", "a.hot", when=lambda x: x > 0)
        assert mod.outer(3) == 7
        assert mod.outer(-1) == -1
    assert [s[0] for s in tracer.spans] == ["a.outer", "b.inner", "a.outer", "b.inner"]
    assert [s[3] for s in tracer.spans] == [-1, 0, -1, 2]
    # inner sees hot(3) = 6 and hot(-1) = -2; hot is counted only for x > 0
    assert tracer.counts == {"a.hot": 1, "b.seen": 4}


def test_wrappers_are_restored_after_a_traced_pass():
    from solit import candidates, genchi2, harness, selectors

    modules = (candidates, genchi2, harness, selectors)
    before = [dict(vars(m)) for m in modules]
    with Tracer() as tracer:
        run.install_probes(tracer)
        assert harness.build_grid is not before[2]["build_grid"]
        harness.run_experiment(small_config())
    for module, saved in zip(modules, before):
        now = vars(module)
        assert now.keys() == saved.keys()
        assert all(now[k] is v for k, v in saved.items())
    assert tracer.absent == []
    assert tracer.counts["candidates.variance_V.calls"] > 0


def test_missing_name_is_absent_not_fatal():
    mod = types.SimpleNamespace(present=lambda: 1)
    with Tracer() as tracer:
        tracer.span(mod, "gone", "x.gone")
        tracer.counter(mod, "also_gone", "x.also_gone")
        tracer.span(mod, "present", "x.present")
    assert tracer.absent == ["x.gone", "x.also_gone"]
    assert not hasattr(mod, "gone")

    fake = types.SimpleNamespace(spans=[], counts={}, absent=["harness.pairwise_distance_table"])
    metrics = run.layer_metrics(fake, traced_wall=1.0, untraced_wall=1.0, results_bytes=0)
    assert "harness.pairwise_distance_table.s" not in metrics
    assert "harness.pairwise_distance_table.bytes" not in metrics
    assert metrics["layer.unattributed_s"] == 1.0


def small_config(seed=3):
    return solit.ExperimentConfig(
        problem="heat",
        filter_kind="tikhonov",
        sigma_start=1e-2,
        sigma_stop=1e-4,
        sigma_count=3,
        runs=6,
        seed=seed,
        problem_params={"n": 12},
    )


def test_output_check_flags_a_perturbed_histogram(tmp_path):
    result = solit.run_experiment(small_config())
    ref = sweep_reference(result)
    assert invariant_problems(result) == []
    assert reference_problems(result, ref) == ([], 0.0)
    solit.write_results(result, str(tmp_path))
    assert roundtrip_problems(result, solit.read_results(str(tmp_path))) == []

    hist = result.cells[1].selectors["solit"].histogram
    src = int(np.flatnonzero(hist)[0])
    hist[src] -= 1
    hist[(src + 1) % hist.size] += 1
    found, _ = reference_problems(result, ref)
    assert found == ["selected-index histograms differ from the reference"]
    assert invariant_problems(result) == []
    assert roundtrip_problems(result, solit.read_results(str(tmp_path)))

    hist[src] += 1
    assert any("histogram total" in p for p in invariant_problems(result))


def test_output_check_flags_mse_drift_and_an_optimal_violation():
    result = solit.run_experiment(small_config())
    ref = sweep_reference(result)
    cell = result.cells[0]
    cell.selectors["solit"].mse *= 1 + 1e-6
    found, worst = reference_problems(result, ref)
    assert worst == pytest.approx(1e-6, rel=1e-3) and len(found) == 1
    cell.selectors["optimal"].mse = cell.selectors["solit"].mse * 2
    assert any("MSE(optimal)" in p for p in invariant_problems(result))


def test_benchmark_json_matches_the_runner():
    with open(os.path.join(env.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        name: unit for name, (unit, _) in run.PER_LAYER.items()
    }
