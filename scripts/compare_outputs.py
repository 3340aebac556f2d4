"""Compare the Monte Carlo outputs of two solit source trees.

    python scripts/compare_outputs.py OLD_SRC NEW_SRC

OLD_SRC and NEW_SRC are directories holding the ``solit`` package (the
``src`` directory of a checkout).  Each tree runs the same fixed set of
sweeps through its own ``run_experiment``, in its own interpreter with one
BLAS thread.  For every sweep the script prints a digest of its
selected-index histograms under each tree, how many histograms differ and
the largest relative MSE difference; then the totals.  It also draws
``mc_sample_quadratic_form`` samples under each tree for the quantile-mc
pairs and compares them bit for bit, and runs ``solit reconstruct`` for a
fixed set of cases under each tree and prints each tree's chosen candidate
index.  NEW_SRC's sweeps run a second time in a child interpreter pinned to
one CPU of its affinity set, so that they score their noise levels on the
calling thread alone; their histograms and MSEs must equal those of the run
on every CPU exactly.  It exits with status 1 when a histogram differs, an
MSE moves by more than ``MSE_RTOL`` (1e-14 relative), a pair's draws differ,
a reconstruct pick differs, or the single-CPU sweeps differ from NEW_SRC's
sweeps on every CPU in any histogram or MSE.

The sweeps (theta=2, beta=gamma=1, 8 geometric noise levels, 200 runs):
  - the 3 problems x 4 filters, without heat/landweber, at the acceptance
    spans (antiderivative sigma in [1e-5, 3e-2], gradiometry and heat in
    [1e-8, 1e-2]), master seeds 1, 2 and 3;
  - tikhonov on the 3 problems at master seeds 2^32, 2^64+1 and 2^70+3;
  - antiderivative at n=8000, tikhonov, sigma in [1e-9, 1e-2], seed 42.

The draws: the pairs and draw count of the benchmark's quantile-mc workload
(``perfbench/workloads.py``: 200 000 draws for each of the 40 adjacent
tikhonov pairs on each problem's grid at the largest sigma of its span), at
master seeds 42 and 7; pair i of master s is drawn with seed
``SeedSequence((s, i)).generate_state(1, uint64)[0]``, as in that workload.
Each tree reports the SHA-256 of every pair's float64 draws, so equal
digests mean equal draws bit for bit.

The reconstruct cases: the 3 problems at their default sizes x {tikhonov,
showalter, cutoff} x sigma in {1e-2, 1e-4} x seeds 1 to 5, with the default
theta, beta and gamma.  The chosen index is the position of the printed
alpha in the grid ``build_grid`` gives for the case.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys

SPANS = {
    "antiderivative": (3e-2, 1e-5),
    "gradiometry": (1e-2, 1e-8),
    "heat": (1e-2, 1e-8),
}
FILTERS = ("tikhonov", "showalter", "cutoff", "landweber")
EXCLUDED = {("heat", "landweber")}  # raises ConfigurationError at the declared span
LARGE_MASTERS = (2**32, 2**64 + 1, 2**70 + 3)
RUNS = 200
MSE_RTOL = 1e-14
DRAW_MASTERS = (42, 7)
RECONSTRUCT_FILTERS = ("tikhonov", "showalter", "cutoff")
RECONSTRUCT_SIGMAS = ("1e-2", "1e-4")
RECONSTRUCT_SEEDS = (1, 2, 3, 4, 5)


def cells() -> list[dict]:
    """The sweeps, as keyword arguments of ``ExperimentConfig``."""
    out = []
    for seed in (1, 2, 3):
        for problem, (start, stop) in SPANS.items():
            for filt in FILTERS:
                if (problem, filt) not in EXCLUDED:
                    out.append(dict(problem=problem, filter_kind=filt, sigma_start=start,
                                    sigma_stop=stop, seed=seed))
    for seed in LARGE_MASTERS:
        for problem, (start, stop) in SPANS.items():
            out.append(dict(problem=problem, filter_kind="tikhonov", sigma_start=start,
                            sigma_stop=stop, seed=seed))
    out.append(dict(problem="antiderivative", filter_kind="tikhonov", sigma_start=1e-2,
                    sigma_stop=1e-9, seed=42, problem_params={"n": 8000}))
    return out


def reconstruct_cases() -> list[tuple[str, str, str, int]]:
    """The reconstruct cases as (problem, filter, sigma, seed)."""
    return [(problem, filt, sigma, seed) for problem in SPANS for filt in RECONSTRUCT_FILTERS
            for sigma in RECONSTRUCT_SIGMAS for seed in RECONSTRUCT_SEEDS]


def reconstruct_pick(solit, problem: str, filt: str, sigma: str, seed: int) -> int:
    """The candidate index ``solit reconstruct`` chooses for one case."""
    from solit.cli import main

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["reconstruct", "--problem", problem, "--filter", filt, "--sigma", sigma,
                     "--seed", str(seed), "--points", "1"])
    if code:
        raise RuntimeError(f"solit reconstruct failed on {problem}/{filt}/sigma={sigma}/seed={seed}")
    alpha = float(out.getvalue().splitlines()[0].removeprefix("# alpha="))
    prob = solit.get_problem(problem)
    grid = solit.build_grid(prob, solit.FilterSpec.for_spectrum(filt, prob.eigenvalues), float(sigma))
    return int(abs(grid.alphas / alpha - 1.0).argmin())


def label(cell: dict) -> str:
    n = cell.get("problem_params", {}).get("n")
    size = f"(n={n})" if n else ""
    return f"{cell['problem']}{size}/{cell['filter_kind']}/seed={cell['seed']}"


def dump(one_cpu: bool) -> None:
    """Run every sweep and draw every pair with the solit on the path; print
    the histograms and MSEs, one entry per sweep, the labelled draw digests
    and the reconstruct picks as one JSON object.  With ``one_cpu`` the
    process first pins itself to one CPU of its affinity set and runs the
    sweeps only."""
    if one_cpu:
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    import numpy as np

    import solit
    from solit import ExperimentConfig, run_experiment
    from solit.genchi2 import mc_sample_quadratic_form

    sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench"))
    from workloads import QUANTILE_DRAWS, quantile_pairs

    sweeps = []
    for cell in cells():
        cfg = ExperimentConfig(theta=2.0, beta=1.0, gamma=1.0, sigma_count=8, runs=RUNS, **cell)
        result = run_experiment(cfg)
        sweeps.append([
            {name: [s.histogram.tolist(), s.mse] for name, s in c.selectors.items()}
            for c in result.cells
        ])
    if one_cpu:
        json.dump({"sweeps": sweeps}, sys.stdout)
        return
    draws = []
    for master in DRAW_MASTERS:
        for index, (key, w) in enumerate(quantile_pairs(solit)):
            seed = int(np.random.SeedSequence((master, index)).generate_state(1, np.uint64)[0])
            z = mc_sample_quadratic_form(w, QUANTILE_DRAWS, seed)
            draws.append([f"{key}/seed={master}", hashlib.sha256(z.tobytes()).hexdigest()])
    picks = [reconstruct_pick(solit, *case) for case in reconstruct_cases()]
    json.dump({"sweeps": sweeps, "draws": draws, "picks": picks}, sys.stdout)


def start(src: str, one_cpu: bool = False) -> subprocess.Popen:
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src), PYTHONDONTWRITEBYTECODE="1")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env.setdefault(var, "1")
    # the known truncation warnings of the deep grids would bury the table
    argv = [sys.executable, "-W", "ignore::UserWarning", os.path.abspath(__file__), "--dump"]
    return subprocess.Popen(argv + ["--one-cpu"] * one_cpu, env=env, stdout=subprocess.PIPE, text=True)


def digest(sweep: list[dict]) -> str:
    h = hashlib.sha256()
    for cell in sweep:
        for name in sorted(cell):
            h.update(name.encode())
            h.update(json.dumps(cell[name][0]).encode())
    return h.hexdigest()[:12]


def rel_diff(a: float, b: float) -> float:
    scale = max(abs(a), abs(b))
    return abs(a - b) / scale if scale else 0.0


def sweep_differences(a: list, b: list) -> tuple[int, int, float]:
    """(histograms, differing, worst MSE relative difference) of one sweep
    run twice."""
    n_hist = n_diff = 0
    worst = 0.0
    for ca, cb in zip(a, b):
        for name in ca:
            n_hist += 1
            n_diff += ca[name][0] != cb[name][0]
            worst = max(worst, rel_diff(ca[name][1], cb[name][1]))
    return n_hist, n_diff, worst


def compare(old: list, new: list) -> tuple[int, int, float]:
    """Print one line per sweep; return (histograms, differing, worst MSE
    relative difference)."""
    total = differ = 0
    worst = 0.0
    width = max(len(label(cell)) for cell in cells())
    print(f"{'sweep':{width}} {'old':12} {'new':12} {'differ':>8} {'worst MSE rel':>14}")
    for cell, a, b in zip(cells(), old, new):
        n_hist, n_diff, sweep_worst = sweep_differences(a, b)
        print(f"{label(cell):{width}} {digest(a):12} {digest(b):12} {f'{n_diff}/{n_hist}':>8} {sweep_worst:14.2e}")
        total += n_hist
        differ += n_diff
        worst = max(worst, sweep_worst)
    return total, differ, worst


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old_src", nargs="?")
    parser.add_argument("new_src", nargs="?")
    parser.add_argument("--dump", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--one-cpu", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.dump:
        dump(args.one_cpu)
        return 0
    if args.old_src is None or args.new_src is None:
        parser.error("OLD_SRC and NEW_SRC are required")
    for src in (args.old_src, args.new_src):
        if not os.path.isdir(os.path.join(src, "solit")):
            parser.error(f"{src} holds no solit package")
    procs = [start(args.old_src), start(args.new_src), start(args.new_src, one_cpu=True)]
    outputs = [p.communicate()[0] for p in procs]
    if any(p.returncode for p in procs):
        print("compare_outputs: a sweep run failed", file=sys.stderr)
        return 2
    old, new, one_cpu = (json.loads(text) for text in outputs)
    total, differ, worst = compare(old["sweeps"], new["sweeps"])
    single = [sweep_differences(a, b) for a, b in zip(new["sweeps"], one_cpu["sweeps"])]
    single_differ = sum(n_diff for _, n_diff, _ in single)
    single_worst = max(sweep_worst for _, _, sweep_worst in single)
    draws_differ = [key for (key, a), (_, b) in zip(old["draws"], new["draws"]) if a != b]
    for key in draws_differ:
        print(f"draws differ: {key}")
    print(f"{'reconstruct case':36} {'old':>4} {'new':>4}")
    for case, a, b in zip(reconstruct_cases(), old["picks"], new["picks"]):
        name = "{}/{}/sigma={}/seed={}".format(*case)
        print(f"{name:36} {a:4d} {b:4d}{'  differs' if a != b else ''}")
    picks_differ = sum(a != b for a, b in zip(old["picks"], new["picks"]))
    print(f"histograms differing: {differ} of {total}")
    print(f"worst relative MSE difference: {worst:.2e}")
    print(f"draw sets differing: {len(draws_differ)} of {len(old['draws'])}")
    print(f"reconstruct picks differing: {picks_differ} of {len(old['picks'])}")
    print(f"single-CPU histograms differing: {single_differ} of {total}")
    print(f"single-CPU worst relative MSE difference: {single_worst:.2e}")
    single_moved = single_differ or single_worst > 0.0
    return 1 if differ or worst > MSE_RTOL or draws_differ or picks_differ or single_moved else 0


if __name__ == "__main__":
    sys.exit(main())
