"""Workload decks: the operations one pass of each workload runs, made from a seed.

A deck is a list of JSON-able operations.  The first entry is fixed per
workload (it is also the untimed warm-up call); the rest are shuffled by the
seed, except on register-channel, whose fixed order keeps the peak memory
independent of the seed.  Whatever a deck leaves to chance -- couplings, labels, states,
transmission orders, (g, mu1, mu2) points, epsilon ranges, Monte Carlo seeds
-- is drawn from ``numpy.random.default_rng(seed)``, so the same seed gives
the same deck.  Sizes, spectra and channel timings are fixed, which keeps the
work per pass, and the set of operations that hit a known fault, the same
for every seed.

Print a deck with:  python3 perfbench/decks.py <workload> <seed>
"""

from __future__ import annotations

import itertools
import json
import os
import sys

import numpy as np

WORKLOADS = ("decay-spectra", "oracle-validate", "register-channel", "code-sweeps")

HERE = os.path.dirname(os.path.abspath(__file__))
MC_SEEDS_PATH = os.path.join(HERE, "data", "mc_seeds.json")

SPECTRA = {
    "white": {"spectrum": "white", "level": 1.0},
    "lorentzian-g1": {"spectrum": "lorentzian", "sigma2": 1.0, "gamma": 1.0},
    "lorentzian-g5": {"spectrum": "lorentzian", "sigma2": 1.0, "gamma": 5.0},
    "one_over_f-narrow": {
        "spectrum": "one_over_f", "amplitude": 1.0, "omega_min": 0.1, "omega_max": 10.0,
    },
    "one_over_f-wide": {
        "spectrum": "one_over_f", "amplitude": 1.0, "omega_min": 0.01, "omega_max": 50.0,
    },
}

# The two configurations the known kernel-quadrature fault was first seen on.
NAMED_DECAY_FAULTS = (
    ("lorentzian-g1", 0.2, 1.0, 6),
    ("one_over_f-wide", 1.0, 1.0, 24),
)

# Trajectory-oracle configurations: Lorentzian(1, 1), three uses, dt = tau_p/200.
TRAJECTORY_CONFIGS = {
    "no-gap": {"coupling": 1.0, "tau_p": 1.0, "tau": 1.0, "n_uses": 3},
    "gap": {"coupling": 1.0, "tau_p": 1.0, "tau": 1.5, "n_uses": 3},
}
TRAJECTORY_SPEC = {"spectrum": "lorentzian", "sigma2": 1.0, "gamma": 1.0}
TRAJECTORY_PATHS = 20_000
TRAJECTORY_DT = 0.005
TRAJECTORY_LABELS = ("000:111", "001:100", "010:101", "011:110")


def load_mc_seeds() -> dict:
    with open(MC_SEEDS_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def _bits(rng, n: int) -> str:
    return "".join(str(int(b)) for b in rng.integers(0, 2, n))


def _shuffled(rng, first, rest):
    order = rng.permutation(len(rest))
    return [first] + [rest[i] for i in order]


DECAY_USES = (3, 8, 16, 32)


def decay_spectra(seed: int) -> list[dict]:
    """5 spectra x tau_p x tau, n_uses cycling through DECAY_USES, plus the two named faults.

    Every spectrum meets every n_uses.  A short deck gives many passes per
    run, and each entry's fastest call over many passes is what steadies the
    timings on a shared host.
    """
    rng = np.random.default_rng(seed)
    grid = [
        (name, tp, tau, DECAY_USES[(i + j + k) % len(DECAY_USES)])
        for (i, name), (j, tp), (k, tau) in itertools.product(
            enumerate(SPECTRA), enumerate((0.2, 0.5, 1.0)), enumerate((1.0, 1.5, 3.0))
        )
    ]
    grid += list(NAMED_DECAY_FAULTS)
    ops = []
    for name, tp, tau, n in grid:
        config = dict(SPECTRA[name], tau_p=tp, tau=tau, n_uses=n)
        config["coupling"] = float(rng.uniform(0.3, 1.0))
        # n_uses = 3 alternates between the default all-pairs list and an
        # explicit one; longer registers always get an explicit list
        if n > 3 or rng.random() < 0.5:
            labels = [f"{_bits(rng, n)}:{_bits(rng, n)}" for _ in range(6)]
            pop = _bits(rng, n)
            labels.insert(int(rng.integers(0, 7)), f"{pop}:{pop}")
            config["labels"] = ",".join(labels)
        ops.append({"kind": "decay", "spectrum_name": name, "config": config})
    first = next(
        i for i, op in enumerate(ops)
        if op["spectrum_name"] == "lorentzian-g1"
        and op["config"]["tau_p"] == 1.0 and op["config"]["tau"] == 1.0
    )
    return _shuffled(rng, ops[first], ops[:first] + ops[first + 1:])


def oracle_validate(seed: int) -> list[dict]:
    """Two validate commands (a Lorentzian and a 1/f config) and two trajectory checks."""
    rng = np.random.default_rng(seed)
    pools = load_mc_seeds()
    v_seeds = [int(s) for s in rng.choice(pools["validate"], size=2, replace=False)]
    t_seeds = [int(s) for s in rng.choice(pools["trajectory"], size=2, replace=False)]
    configs = [
        dict(SPECTRA["lorentzian-g5"], tau_p=0.5, tau=1.5, n_uses=3),
        dict(SPECTRA["one_over_f-narrow"], tau_p=1.0, tau=1.0, n_uses=3),
    ]
    # each pass repeats these with the same seeds: reports must repeat byte for byte
    rest = [
        {"kind": "validate", "config": dict(c, seed=s)}
        for c, s in zip(configs, v_seeds)
    ]
    trajectories = [
        {
            "kind": "trajectory", "name": name, "spec": TRAJECTORY_SPEC,
            "params": params, "seed": s, "n": TRAJECTORY_PATHS,
            "dt": TRAJECTORY_DT, "labels": list(TRAJECTORY_LABELS),
        }
        for (name, params), s in zip(TRAJECTORY_CONFIGS.items(), t_seeds)
    ]
    return _shuffled(rng, trajectories[0], rest + trajectories[1:])


def _correlation_sequence(rng, k: int) -> list[float]:
    """mu_m = sum_i w_i r_i^m: a mixture of AR(1) sequences, so toeplitz(mu) is PSD."""
    weights = rng.dirichlet(np.ones(3))
    rates = rng.uniform(0.0, 0.95, 3)
    return [float(np.sum(weights * rates**m)) for m in range(k)]


# (n_qubits, transmitted uses) of every apply_channel operation in a pass
APPLY_SHAPES = (
    [(8, 8)]
    + [(4, 4), (4, 3), (4, 2), (5, 5), (5, 4), (5, 2), (6, 6), (6, 4), (6, 3)]
    + [(7, 7)] * 8
    + [(8, 8), (8, 6), (8, 4), (9, 9), (10, 10)]
)
CIRCUIT_GRID = (6, 5, 3)  # g bins x mu1 bins x positions in the mu2 band


def register_channel(seed: int) -> list[dict]:
    """apply_channel on random dense states, plus fe_tqc_via_circuit on a (g, mu1, mu2) grid."""
    rng = np.random.default_rng(seed)
    applies = []
    for n, k in APPLY_SHAPES:
        applies.append({
            "kind": "apply", "n_qubits": n,
            "which": [int(p) for p in rng.permutation(n)[:k]],
            "g": float(rng.uniform(0.3, 0.99)),
            "mu": _correlation_sequence(rng, k),
            "state_seed": int(rng.integers(0, 2**31)),
        })
    n_g, n_mu1, n_mu2 = CIRCUIT_GRID
    circuits = []
    for i, j, frac in itertools.product(range(n_g), range(n_mu1), (0.0, 0.5, 1.0)):
        g = 0.2 + (i + rng.random()) * (0.999 - 0.2) / n_g
        mu1 = (j + rng.random()) / n_mu1
        lo, hi = max(0.0, 2.0 * mu1 * mu1 - 1.0), mu1
        circuits.append({
            "kind": "circuit", "g": float(g), "mu1": float(mu1),
            "mu2": float(lo + frac * (hi - lo)),
        })
    return applies + circuits


def code_sweeps(seed: int) -> list[dict]:
    """Default-resolution fig2/fig3 sweeps, two ~1e4-row sweeps, one fig2 step not dividing 1."""
    rng = np.random.default_rng(seed)

    def fig2(step):
        return {"kind": "fig2", "config": {
            "epsilon": float(10 ** rng.uniform(-4.0, -1.0)), "mu1_step": step,
        }}

    def fig3(points):
        return {"kind": "fig3", "config": {
            "eps_min": float(10 ** rng.uniform(-4.0, -3.0)),
            "eps_max": float(10 ** rng.uniform(-2.0, np.log10(0.2))),
            "eps_points": points,
        }}

    rest = [fig2(0.01) for _ in range(79)] + [fig3(61) for _ in range(40)]
    rest += [fig2(1e-4), fig3(10_000)]
    # mu1_step = 0.3 does not divide 1: the grid should still end at mu1 = 1
    rest.append({"kind": "fig2", "config": {"epsilon": 1e-3, "mu1_step": 0.3}})
    return _shuffled(rng, fig2(0.01), rest)


BUILDERS = {
    "decay-spectra": decay_spectra,
    "oracle-validate": oracle_validate,
    "register-channel": register_channel,
    "code-sweeps": code_sweeps,
}


def make_deck(workload: str, seed: int) -> list[dict]:
    return BUILDERS[workload](seed)


if __name__ == "__main__":
    if len(sys.argv) != 3 or sys.argv[1] not in BUILDERS:
        sys.exit(f"usage: decks.py {{{'|'.join(WORKLOADS)}}} SEED")
    json.dump(make_deck(sys.argv[1], int(sys.argv[2])), sys.stdout, indent=1)
    sys.stdout.write("\n")
