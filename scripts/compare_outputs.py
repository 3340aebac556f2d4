"""Compare the Monte Carlo outputs of two solit source trees.

    python scripts/compare_outputs.py OLD_SRC NEW_SRC

OLD_SRC and NEW_SRC are directories holding the ``solit`` package (the
``src`` directory of a checkout).  Each tree runs the same fixed set of
sweeps through its own ``run_experiment``, in its own interpreter with one
BLAS thread.  For every sweep the script prints a digest of its
selected-index histograms under each tree, how many histograms differ and
the largest relative MSE difference; then the totals.  It exits with status
1 when a histogram differs or an MSE moves by more than ``MSE_RTOL``
(1e-14 relative).

The sweeps (theta=2, beta=gamma=1, 8 geometric noise levels, 200 runs):
  - the 3 problems x 4 filters, without heat/landweber, at the acceptance
    spans (antiderivative sigma in [1e-5, 3e-2], gradiometry and heat in
    [1e-8, 1e-2]), master seeds 1, 2 and 3;
  - tikhonov on the 3 problems at master seeds 2^32, 2^64+1 and 2^70+3;
  - antiderivative at n=8000, tikhonov, sigma in [1e-9, 1e-2], seed 42.
"""

from __future__ import annotations

import argparse
import hashlib
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


def label(cell: dict) -> str:
    n = cell.get("problem_params", {}).get("n")
    size = f"(n={n})" if n else ""
    return f"{cell['problem']}{size}/{cell['filter_kind']}/seed={cell['seed']}"


def dump() -> None:
    """Run every sweep with the solit on the path; print the histograms and
    MSEs as one JSON list, one entry per sweep."""
    from solit import ExperimentConfig, run_experiment

    out = []
    for cell in cells():
        cfg = ExperimentConfig(theta=2.0, beta=1.0, gamma=1.0, sigma_count=8, runs=RUNS, **cell)
        result = run_experiment(cfg)
        out.append([
            {name: [s.histogram.tolist(), s.mse] for name, s in c.selectors.items()}
            for c in result.cells
        ])
    json.dump(out, sys.stdout)


def start(src: str) -> subprocess.Popen:
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src), PYTHONDONTWRITEBYTECODE="1")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env.setdefault(var, "1")
    # the known truncation warnings of the deep grids would bury the table
    argv = [sys.executable, "-W", "ignore::UserWarning", os.path.abspath(__file__), "--dump"]
    return subprocess.Popen(argv, env=env, stdout=subprocess.PIPE, text=True)


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


def compare(old: list, new: list) -> tuple[int, int, float]:
    """Print one line per sweep; return (histograms, differing, worst MSE
    relative difference)."""
    total = differ = 0
    worst = 0.0
    width = max(len(label(cell)) for cell in cells())
    print(f"{'sweep':{width}} {'old':12} {'new':12} {'differ':>8} {'worst MSE rel':>14}")
    for cell, a, b in zip(cells(), old, new):
        n_hist = n_diff = 0
        sweep_worst = 0.0
        for ca, cb in zip(a, b):
            for name in ca:
                n_hist += 1
                n_diff += ca[name][0] != cb[name][0]
                sweep_worst = max(sweep_worst, rel_diff(ca[name][1], cb[name][1]))
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
    args = parser.parse_args(argv)
    if args.dump:
        dump()
        return 0
    if args.old_src is None or args.new_src is None:
        parser.error("OLD_SRC and NEW_SRC are required")
    for src in (args.old_src, args.new_src):
        if not os.path.isdir(os.path.join(src, "solit")):
            parser.error(f"{src} holds no solit package")
    procs = [start(args.old_src), start(args.new_src)]
    outputs = [p.communicate()[0] for p in procs]
    if any(p.returncode for p in procs):
        print("compare_outputs: a sweep run failed", file=sys.stderr)
        return 2
    old, new = (json.loads(text) for text in outputs)
    total, differ, worst = compare(old, new)
    print(f"histograms differing: {differ} of {total}")
    print(f"worst relative MSE difference: {worst:.2e}")
    return 1 if differ or worst > MSE_RTOL else 0


if __name__ == "__main__":
    sys.exit(main())
