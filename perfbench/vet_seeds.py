"""Regenerate data/mc_seeds.json, the Monte Carlo seeds the oracle-validate deck draws from.

    PYTHONPATH=src python3 perfbench/vet_seeds.py

`memphase validate` and the trajectory check accept a Monte Carlo estimate
within 4 standard errors, so on a correct program a small share of seeds
fails by chance (the batch-means error of mc_fidelity has 19 degrees of
freedom, which makes 4 SE a wider miss than for a normal variable).  A
benchmark operation must fail the same way on every seed, so the deck draws
only from seeds that pass here.  Seeds are tried from 1 up; each is kept or
rejected as a whole.  The Monte Carlo suites of `validate` read only the
seed and sample count, not the spectrum, so one configuration vets them.
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import decks  # noqa: E402
import workloads  # noqa: E402

CANDIDATES = range(1, 49)


def vet_validate(seed: int) -> str | None:
    op = {"kind": "validate", "config": dict(
        decks.SPECTRA["lorentzian-g1"], tau_p=1.0, tau=1.0, n_uses=3, seed=seed)}
    out = workloads.run(op, workloads.prepare(op))
    return workloads.check(op, None, out, {})


def vet_trajectory(seed: int) -> str | None:
    for name, params in decks.TRAJECTORY_CONFIGS.items():
        op = {
            "kind": "trajectory", "name": name, "spec": decks.TRAJECTORY_SPEC,
            "params": params, "seed": seed, "n": decks.TRAJECTORY_PATHS,
            "dt": decks.TRAJECTORY_DT, "labels": list(decks.TRAJECTORY_LABELS),
        }
        error = workloads.check(op, None, workloads.run(op, workloads.prepare(op)), {})
        if error is not None:
            return error
    return None


def main() -> int:
    pools = {"validate": [], "trajectory": []}
    rejected = {}
    for kind, vet in (("validate", vet_validate), ("trajectory", vet_trajectory)):
        for seed in CANDIDATES:
            error = vet(seed)
            if error is None:
                pools[kind].append(seed)
            else:
                rejected[f"{kind}:{seed}"] = error
                print(f"rejected {kind} seed {seed}: {error}", file=sys.stderr)
    pools["candidates"] = [CANDIDATES.start, CANDIDATES.stop - 1]
    pools["rejected"] = rejected
    with open(decks.MC_SEEDS_PATH, "w", encoding="utf-8") as fh:
        json.dump(pools, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
