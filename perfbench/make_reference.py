"""Regenerate ``reference.json``: the MSE tables and histogram digests of
every sweep at the reference seed, and the LTZ quantiles of every
quantile-mc pair (those do not depend on the seed).

    python3 perfbench/make_reference.py

Run it only when a change to solit is meant to change these outputs.
"""

from __future__ import annotations

import json

import env


def main() -> None:
    solit = env.prepare()
    import workloads
    from check import sweep_reference

    sweeps = {}
    for name in ("sweep9", "realizations", "tables"):
        for op in workloads.build(name, solit, workloads.REFERENCE_SEED, {}, None):
            _, (result, _) = op.run()
            sweeps[op.key] = sweep_reference(result)
            print(op.key, flush=True)
    ltz = {
        key: [solit.ltz_quantile_for_weights(w, p) for p in workloads.QUANTILE_TAILS]
        for key, w in workloads.quantile_pairs(solit)
    }
    with open(workloads.REFERENCE_FILE, "w") as fh:
        json.dump({"seed": workloads.REFERENCE_SEED, "sweeps": sweeps, "ltz": ltz}, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
