"""Compare the Monte Carlo outputs of two solit source trees.

    python scripts/compare_outputs.py OLD_SRC NEW_SRC

OLD_SRC and NEW_SRC are directories holding the ``solit`` package (the
``src`` directory of a checkout).  Each tree runs the same fixed set of
sweeps through its own ``run_experiment``, in its own interpreter with one
BLAS thread.  For every sweep the script prints a digest of its
selected-index histograms under each tree, how many histograms differ, the
largest relative MSE difference, how many cell values differ and the largest
relative difference of a cell value, and how many grids differ; then the
totals.  A cell's values are its noise level's
m_star, R_mstar, C1, C2 and poa and each selector's stderr; its grid is the
candidate alphas and variances v.  It also draws
``mc_sample_quadratic_form`` samples under each tree for the quantile-mc
pairs and compares them bit for bit, and runs ``solit reconstruct`` for a
fixed set of cases under each tree and prints each tree's chosen candidate
index.  Each tree also writes every sweep with its own ``write_results``,
and the written files are compared byte for byte.  NEW_SRC's sweeps, draws
and reconstruct picks run a second time in a child interpreter pinned to one
CPU of its affinity set, which must run them serially on its calling thread:
the child counts the ``threading.Thread.start`` calls they make and prints
the count.  Their histograms, MSEs, cell values, grids, draws and picks must
equal those of the run on every CPU exactly.  It exits with status 1 when a
histogram differs, an MSE or a cell value moves by more than ``MSE_RTOL``
(1e-14 relative), a grid differs in any bit, a pair's draws differ, a
reconstruct pick differs, a written file differs, the single-CPU child
started a thread, or its outputs differ from NEW_SRC's on every CPU in
anything.  The single-CPU run writes no files: its meta.json records one cell
thread.

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
digests mean equal draws bit for bit.  Beside each pair's digests the script
prints both trees' e^-1, e^-2 and e^-4 quantiles of the draws and their gap
to LTZ, |LTZ - MC| / MC, then the worst gap of each tree, so that a sampler
change that keeps the law but moves the draws can be judged from one run.
The quantiles are a report only: the exit status does not read them.

The reconstruct cases: the 3 problems at their default sizes x {tikhonov,
showalter, cutoff} x sigma in {1e-2, 1e-4} x seeds 1 to 5, with the default
theta, beta and gamma; and each problem with tikhonov at sigma 1e-2 without
a --seed flag, so the default seed is compared too.  The chosen index is the position of the printed
alpha in the grid ``build_grid`` gives for the case.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile

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


def reconstruct_cases() -> list[tuple[str, str, str, int | None]]:
    """The reconstruct cases as (problem, filter, sigma, seed); a seed of None
    passes no --seed flag."""
    return [(problem, filt, sigma, seed) for problem in SPANS for filt in RECONSTRUCT_FILTERS
            for sigma in RECONSTRUCT_SIGMAS for seed in RECONSTRUCT_SEEDS] + [
        (problem, "tikhonov", RECONSTRUCT_SIGMAS[0], None) for problem in SPANS]


def reconstruct_pick(solit, problem: str, filt: str, sigma: str, seed: int | None) -> int:
    """The candidate index ``solit reconstruct`` chooses for one case."""
    from solit.cli import main

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["reconstruct", "--problem", problem, "--filter", filt, "--sigma", sigma, "--points", "1"]
                    + ["--seed", str(seed)] * (seed is not None))
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


def written_files(result, write_results) -> dict:
    """The SHA-256 of every file ``write_results`` writes for one sweep, by
    file name."""
    with tempfile.TemporaryDirectory() as out:
        write_results(result, out)
        digests = {}
        for name in sorted(os.listdir(out)):
            with open(os.path.join(out, name), "rb") as fh:
                digests[name] = hashlib.sha256(fh.read()).hexdigest()
        return digests


def dump(one_cpu: bool) -> None:
    """Run every sweep and draw every pair with the solit on the path; print
    the cells, one list per sweep, the digests of each sweep's written files,
    the labelled draw digests with their tail quantiles and LTZ gaps, and the
    reconstruct picks as one JSON object.
    A cell holds each selector's histogram, MSE and stderr, its other values
    and its grid.  With ``one_cpu`` the process first pins itself to one CPU
    of its affinity set, writes no files and prints, in place of their
    digests, how many threads the sweeps, draws and picks started."""
    if one_cpu:
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    import threading

    import numpy as np

    import solit
    from solit import ExperimentConfig, run_experiment, write_results
    from solit.genchi2 import ltz_quantile_for_weights, mc_sample_quadratic_form

    sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench"))
    from workloads import QUANTILE_DRAWS, QUANTILE_TAILS, quantile_pairs

    started = []
    start_thread = threading.Thread.start

    def counting_start(thread):
        started.append(thread.name)
        start_thread(thread)

    threading.Thread.start = counting_start
    sweeps, files = [], []
    for cell in cells():
        cfg = ExperimentConfig(theta=2.0, beta=1.0, gamma=1.0, sigma_count=8, runs=RUNS, **cell)
        result = run_experiment(cfg)
        sweeps.append([
            {"selectors": {name: [s.histogram.tolist(), s.mse, s.stderr] for name, s in c.selectors.items()},
             "values": [c.m_star, c.r_mstar, c.c1, c.c2, c.poa],
             "grid": [c.grid.alphas.tolist(), c.grid.v.tolist()]}
            for c in result.cells
        ])
        if not one_cpu:
            files.append(written_files(result, write_results))
    draws = []
    for master in DRAW_MASTERS:
        for index, (key, w) in enumerate(quantile_pairs(solit)):
            seed = int(np.random.SeedSequence((master, index)).generate_state(1, np.uint64)[0])
            z = mc_sample_quadratic_form(w, QUANTILE_DRAWS, seed)
            mc = np.quantile(z, 1.0 - np.asarray(QUANTILE_TAILS)).tolist()
            gaps = [abs(ltz_quantile_for_weights(w, p) - q) / q for p, q in zip(QUANTILE_TAILS, mc)]
            draws.append([f"{key}/seed={master}", hashlib.sha256(z.tobytes()).hexdigest(), mc, gaps])
    picks = [reconstruct_pick(solit, *case) for case in reconstruct_cases()]
    extra = {"threads started": len(started)} if one_cpu else {"files": files}
    json.dump({"sweeps": sweeps, "draws": draws, "picks": picks, **extra}, sys.stdout)


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
        for name in sorted(cell["selectors"]):
            h.update(name.encode())
            h.update(json.dumps(cell["selectors"][name][0]).encode())
    return h.hexdigest()[:12]


def rel_diff(a: float, b: float) -> float:
    scale = max(abs(a), abs(b))
    return abs(a - b) / scale if scale else 0.0


# the counts of sweep_differences; "worst MSE" and "worst value" are the
# largest relative differences of an MSE and of a cell value
COUNTS = ("histograms", "histograms differing", "worst MSE", "cell values", "cell values differing",
          "worst value", "grids", "grids differing")
WORST = ("worst MSE", "worst value")


def sweep_differences(a: list, b: list, rtol: float) -> dict:
    """The COUNTS of one sweep run twice.  A cell value differs when it
    moves by more than ``rtol`` relative, a grid when any bit moves."""
    out = dict.fromkeys(COUNTS, 0)
    for ca, cb in zip(a, b):
        names = sorted(ca["selectors"])
        values_a = ca["values"] + [ca["selectors"][name][2] for name in names]
        values_b = cb["values"] + [cb["selectors"][name][2] for name in names]
        out["cell values"] += len(values_a)
        out["cell values differing"] += sum(not math.isclose(x, y, rel_tol=rtol) for x, y in zip(values_a, values_b))
        out["worst value"] = max([out["worst value"], *map(rel_diff, values_a, values_b)])
        out["grids"] += 1
        out["grids differing"] += ca["grid"] != cb["grid"]
        for name in names:
            out["histograms"] += 1
            out["histograms differing"] += ca["selectors"][name][0] != cb["selectors"][name][0]
            out["worst MSE"] = max(out["worst MSE"], rel_diff(ca["selectors"][name][1], cb["selectors"][name][1]))
    return out


def totals(per_sweep: list[dict]) -> dict:
    return {key: (max if key in WORST else sum)(d[key] for d in per_sweep) for key in COUNTS}


def differs(counts: dict, mse_rtol: float) -> bool:
    return bool(counts["histograms differing"] or counts["worst MSE"] > mse_rtol
                or counts["cell values differing"] or counts["grids differing"])


def compare(old: list, new: list) -> dict:
    """Print one line per sweep; return the totals of its COUNTS."""
    per_sweep = []
    width = max(len(label(cell)) for cell in cells())
    print(f"{'sweep':{width}} {'old':12} {'new':12} {'differ':>8} {'worst MSE rel':>14} {'values':>8} "
          f"{'worst value rel':>16} {'grids':>6}")
    for cell, a, b in zip(cells(), old, new):
        d = sweep_differences(a, b, MSE_RTOL)
        hists = f"{d['histograms differing']}/{d['histograms']}"
        print(f"{label(cell):{width}} {digest(a):12} {digest(b):12} {hists:>8} {d['worst MSE']:14.2e} "
              f"{d['cell values differing']:>8} {d['worst value']:16.2e} {d['grids differing']:>6}")
        per_sweep.append(d)
    return totals(per_sweep)


def report_quantiles(old: list, new: list) -> None:
    """Print each pair's draw digest, tail quantiles and LTZ gaps under both
    trees, then each tree's worst gap."""
    width = max(len(d[0]) for d in old)
    tails = ("e^-1", "e^-2", "e^-4")
    print(f"{'pair':{width}} {'tree':4} {'digest':12} " + " ".join(f"{'q(' + t + ')':>10}" for t in tails)
          + " " + " ".join(f"{'gap(' + t + ')':>10}" for t in tails))
    for a, b in zip(old, new):
        for name, (key, sha, mc, gaps) in (("old", a), ("new", b)):
            print(f"{key if name == 'old' else '':{width}} {name:4} {sha[:12]} " + " ".join(f"{q:10.4e}" for q in mc)
                  + " " + " ".join(f"{g:10.4f}" for g in gaps))
    print("worst LTZ gap: " + ", ".join(f"{name} {max(max(d[3]) for d in draws):.4f}"
                                        for name, draws in (("old", old), ("new", new))))


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
    counts = compare(old["sweeps"], new["sweeps"])
    single = totals([sweep_differences(a, b, 0.0) for a, b in zip(new["sweeps"], one_cpu["sweeps"])])
    report_quantiles(old["draws"], new["draws"])
    draws_differ = [a[0] for a, b in zip(old["draws"], new["draws"]) if a[1] != b[1]]
    for key in draws_differ:
        print(f"draws differ: {key}")
    print(f"{'reconstruct case':44} {'old':>4} {'new':>4}")
    for case, a, b in zip(reconstruct_cases(), old["picks"], new["picks"]):
        name = "{}/{}/sigma={}/seed={}".format(*case)
        print(f"{name:44} {a:4d} {b:4d}{'  differs' if a != b else ''}")
    picks_differ = sum(a != b for a, b in zip(old["picks"], new["picks"]))
    file_pairs = [(f"{label(cell)}/{name}", a.get(name), b.get(name))
                  for cell, a, b in zip(cells(), old["files"], new["files"]) for name in sorted(a.keys() | b.keys())]
    files_differ = [key for key, a, b in file_pairs if a != b]
    for key in files_differ:
        print(f"result file differs: {key}")
    for prefix, c in (("", counts), ("single-CPU ", single)):
        print(f"{prefix}histograms differing: {c['histograms differing']} of {c['histograms']}")
        print(f"{prefix}worst relative MSE difference: {c['worst MSE']:.2e}")
        print(f"{prefix}cell values differing: {c['cell values differing']} of {c['cell values']}, "
              f"worst relative difference {c['worst value']:.2e}")
        print(f"{prefix}grids differing: {c['grids differing']} of {c['grids']}")
    print(f"draw sets differing: {len(draws_differ)} of {len(old['draws'])}")
    print(f"reconstruct picks differing: {picks_differ} of {len(old['picks'])}")
    print(f"result files differing: {len(files_differ)} of {len(file_pairs)}")
    single_moved = one_cpu["draws"] != new["draws"] or one_cpu["picks"] != new["picks"]
    print(f"single-CPU draws and reconstruct picks: {'differ' if single_moved else 'equal'}")
    print(f"single-CPU threads started: {one_cpu['threads started']}")
    moved = differs(counts, MSE_RTOL) or differs(single, 0.0) or single_moved or one_cpu["threads started"]
    return 1 if moved or draws_differ or picks_differ or files_differ else 0


if __name__ == "__main__":
    sys.exit(main())
