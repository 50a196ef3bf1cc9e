"""Self-test of the benchmark's reference formulas and output checks.

    PYTHONPATH=src python3 perfbench/selfcheck.py

1. The reference formulas agree with the program on configurations that
   pass today, and with high-precision evaluations (mpmath) of the same
   integrals and formulas.
2. Every output check accepts the program's output and rejects a copy with
   one value perturbed, so a wrong program cannot pass the benchmark.
Exits 1 if anything disagrees.
"""

from __future__ import annotations

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import mpmath  # noqa: E402
import numpy as np  # noqa: E402

import memphase  # noqa: E402
from memphase.codes import pe_tqc_memory, pe_two_qubit  # noqa: E402

import decks  # noqa: E402
import reference as ref  # noqa: E402
import workloads  # noqa: E402

FAILURES: list[str] = []


def report(ok: bool, what: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} {what}")
    if not ok:
        FAILURES.append(what)


def _spectrum(config: dict):
    return workloads.cli.RunConfig(**config).make_spectrum()


def kernels_match_program() -> None:
    worst, compared = 0.0, 0
    for config in decks.SPECTRA.values():
        spec = _spectrum(config)
        for tau_p in (0.5, 1.0):
            i0 = ref.kernel(config, tau_p, 0.0)
            for delta in (0.0, 0.25, 0.5, 1.0, 1.5, 2.0, 3.0):
                try:
                    value = memphase.kernel_integral(spec, tau_p, delta)
                except memphase.QuadratureNonConvergence:
                    continue
                worst = max(worst, abs(value - ref.kernel(config, tau_p, delta)) / i0)
                compared += 1
    report(worst <= 1e-10, f"reference kernels vs kernel_integral on {compared} points: "
           f"worst {worst:.1e} of I(0) (tol 1e-10)")


def kernels_match_mpmath() -> None:
    mpmath.mp.dps = 30
    worst = 0.0
    cases = [
        ("lorentzian", {"sigma2": 1.3, "gamma": 0.7}, 1.7),
        ("one_over_f", {"amplitude": 1.0, "omega_min": 0.01, "omega_max": 50.0}, 2.5),
        ("one_over_f", {"amplitude": 0.8, "omega_min": 0.1, "omega_max": 10.0}, 0.2),
    ]
    for kind, params, a in cases:
        if kind == "lorentzian":
            s2, g = params["sigma2"], params["gamma"]
            dens = lambda w: 2 * s2 * g / (g * g + w * w)  # noqa: E731
            lo, hi = 0, mpmath.inf
            mine = ref.lorentzian_piece(s2, g, a)
        else:
            amp = params["amplitude"]
            dens = lambda w: amp / w  # noqa: E731
            lo, hi = params["omega_min"], params["omega_max"]
            mine = ref.one_over_f_piece(amp, lo, hi, a)
        exact = mpmath.quad(lambda w: dens(w) * (1 - mpmath.cos(w * a)) / w**2,
                            mpmath.linspace(lo, hi if hi != mpmath.inf else 200, 60) + (
                                [mpmath.inf] if hi == mpmath.inf else []))
        exact = float(exact / (2 * mpmath.pi))
        worst = max(worst, abs(mine - exact) / abs(exact))
    report(worst <= 1e-9, f"closed-form J(a) vs mpmath quadrature: worst rel {worst:.1e} (tol 1e-9)")


def codes_match() -> None:
    mpmath.mp.dps = 40
    rng = np.random.default_rng(7)
    worst_prog, worst_mp = 0.0, 0.0
    for _ in range(400):
        eps = 10 ** rng.uniform(-5.0, -0.5)
        g = 1.0 - 2.0 * eps
        mu1 = rng.uniform(0.0, 1.0)
        lo, hi = ref.mu2_band(mu1)
        mu2 = rng.uniform(lo, hi)
        mine = float(ref.pe_tqc(g, mu1, mu2))
        worst_prog = max(worst_prog, abs(pe_tqc_memory(g, mu1, mu2) - mine) / (1e-12 * mine + 1e-15))
        worst_prog = max(worst_prog, abs(pe_two_qubit(g, mu1) - float(ref.pe_two_qubit(g, mu1)))
                         / (1e-12 * float(ref.pe_two_qubit(g, mu1)) + 1e-15))
        gm, m1, m2 = mpmath.mpf(g), mpmath.mpf(mu1), mpmath.mpf(mu2)
        exact = 1 - (mpmath.mpf(1) / 2 + 3 * gm / 4 - gm**3 / 16 * (
            2 * gm ** (-2 * m2) + gm ** (2 * m2 - 4 * m1) + gm ** (2 * m2 + 4 * m1)))
        worst_mp = max(worst_mp, abs(mine - float(exact)) / float(exact))
    report(worst_prog <= 1.0, "code error probabilities vs the program: within 1e-12 rel + 1e-15 "
           f"(worst {worst_prog:.2f} of the allowance)")
    report(worst_mp <= 1e-13, f"code error probabilities vs mpmath: worst rel {worst_mp:.1e} (tol 1e-13)")


def _bits(index: int, n: int) -> list[int]:
    return [(index >> (n - 1 - p)) & 1 for p in range(n)]


def decay_factors_match() -> None:
    rng = np.random.default_rng(3)
    worst = 0.0
    for n in (3, 5, 8):
        mu = decks._correlation_sequence(rng, n)
        g = float(rng.uniform(0.3, 0.99))
        cov = memphase.PhaseCovariance.from_damping(g, mu)
        for _ in range(20):
            j, l = (int(x) for x in rng.integers(0, 1 << n, 2))
            s = [b - a for a, b in zip(_bits(j, n), _bits(l, n))]
            mine = g ** ref.decay_exponent(mu, s)
            worst = max(worst, abs(memphase.decay_factor(memphase.CoherenceLabel(j, l, n), cov) - mine))
    report(worst <= 1e-13, f"decay factors g**(s^T T s) vs decay_factor: worst {worst:.1e} (tol 1e-13)")


def _perturbed(text: str, line_no: int, column: int) -> str:
    lines = text.split("\n")
    cells = lines[line_no].split(",")
    cells[column] = repr(float(cells[column]) * (1 + 1e-6) + 1e-9)
    lines[line_no] = ",".join(cells)
    return "\n".join(lines)


def checks_have_teeth() -> None:
    """Each workload's check passes the real output and fails a perturbed copy."""
    cases = []
    for workload in ("decay-spectra", "register-channel", "code-sweeps"):
        deck = decks.make_deck(workload, 1)
        for kind in ("decay", "apply", "circuit", "fig2", "fig3"):
            op = next((o for o in deck if o["kind"] == kind), None)
            if op is not None:
                cases.append(op)
    for op in cases:
        prepared = workloads.prepare(op)
        out = workloads.run(op, prepared)
        good = workloads.check(op, prepared, out, {})
        if op["kind"] in ("decay", "fig2", "fig3"):
            lines = out.split("\n")
            row = max(i for i, l in enumerate(lines) if l[:1].isdigit())
            column = 3 if op["kind"] == "decay" else 2
            bad = _perturbed(out, row, column)
        elif op["kind"] == "apply":
            m = out.matrix.copy()
            m[0, 1] *= 1 + 1e-9
            m[1, 0] = m[0, 1].conjugate()
            bad = memphase.DensityMatrix(m, validate=False)
        else:
            bad = out + 1e-11
        caught = workloads.check(op, prepared, bad, {})
        report(good is None and isinstance(caught, str),
               f"{op['kind']} check: accepts the program's output, rejects a perturbed copy ({caught})")


def main() -> int:
    kernels_match_program()
    kernels_match_mpmath()
    codes_match()
    decay_factors_match()
    checks_have_teeth()
    print("ALL PASS" if not FAILURES else f"{len(FAILURES)} FAILED")
    return 0 if not FAILURES else 1


if __name__ == "__main__":
    sys.exit(main())
