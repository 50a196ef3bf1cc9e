"""Experiment runner: damping/correlation reports, sweep CSVs, validation.

Subcommands:

* ``decay``    -- correlation coefficients and coherence decay factors of the
                  configured spectrum and channel timing.
* ``fig2``     -- code error probabilities vs mu1 at fixed epsilon.
* ``fig3``     -- code error probabilities vs epsilon (log-spaced).
* ``validate`` -- run the oracle cross-check suites and report pass/fail.

Configuration is a plain ``key = value`` text file ('#' starts a comment);
``--seed`` and ``--out`` override it.  Outputs are CSV with '#'-prefixed
metadata lines (version, config hash, seed) and are byte-identical for a
fixed config and seed.

The ``fig2`` / ``fig3`` columns are Python scalar arithmetic (``**`` and
``math``, which call the C library's libm), one row at a time, not numpy
ufuncs over the grid: numpy's SIMD ``power``, ``log`` and ``expm1`` differ
from libm in the last bit on some inputs, and an error probability 1 - F
printed to 13 digits shows a last-bit change in F.
"""

from __future__ import annotations

import argparse
import hashlib
import math
import sys
from dataclasses import dataclass, fields, replace

import numpy as np

from . import __version__
from .channel import CoherenceLabel, _decay_factor_and_exponent, decay_factor
from .codes import _fe_tqc, fe_tqc_memory, fe_tqc_via_circuit, pe_two_qubit
from .correlation import (
    ChannelParams,
    PhaseCovariance,
    check_mu_feasible,
    covariance_from_autocorrelation,
    covariance_from_spectrum,
    epsilon_from_g,
    g_from_epsilon,
)
from .errors import ConfigError, DomainError
from .montecarlo import mc_decay_factor, mc_tqc_fidelity, sample_phases_direct
from .spectrum import Lorentzian, OneOverF, PowerSpectrum, White

__all__ = ["RunConfig", "cmd_decay", "cmd_fig2", "cmd_fig3", "cmd_validate", "main"]


@dataclass(frozen=True)
class RunConfig:
    """Resolved run configuration (file values + flag overrides)."""

    spectrum: str = "lorentzian"
    level: float = 1.0
    sigma2: float = 1.0
    gamma: float = 1.0
    amplitude: float = 1.0
    omega_min: float = 0.1
    omega_max: float = 10.0
    coupling: float = 1.0
    tau_p: float = 1.0
    tau: float = 1.0
    n_uses: int = 3
    epsilon: float = 1e-3
    mu1_step: float = 0.01
    eps_min: float = 1e-4
    eps_max: float = 1e-1
    eps_points: int = 61
    seed: int = 12345
    mc_samples: int = 200_000
    labels: str | None = None
    out: str | None = None

    @classmethod
    def from_file(cls, path: str | None) -> "RunConfig":
        if path is None:
            return cls()
        # every field defaults to a value of its type, or to None for a string
        casters = {f.name: str if f.default is None else type(f.default) for f in fields(cls)}
        values = {}
        try:
            with open(path, encoding="utf-8") as fh:
                lines = fh.readlines()
        except OSError as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        for lineno, raw in enumerate(lines, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
            key, _, value = line.partition("=")
            key, value = key.strip(), value.strip()
            if key not in casters:
                raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
            try:
                values[key] = casters[key](value)
            except ValueError as exc:
                raise ConfigError(
                    f"{path}:{lineno}: field {key!r}: cannot parse {value!r} ({exc})"
                ) from exc
        return cls(**values)

    def make_spectrum(self) -> PowerSpectrum:
        kind = self.spectrum.lower()
        try:
            if kind == "white":
                return White(self.level)
            if kind == "lorentzian":
                return Lorentzian(self.sigma2, self.gamma)
            if kind in ("one_over_f", "1/f", "oneoverf"):
                return OneOverF(self.amplitude, self.omega_min, self.omega_max)
        except DomainError as exc:
            raise ConfigError(f"spectrum parameters: {exc}") from exc
        raise ConfigError(
            f"field 'spectrum': unknown kind {self.spectrum!r} "
            "(expected white | lorentzian | one_over_f)"
        )

    def make_channel_params(self) -> ChannelParams:
        try:
            return ChannelParams(self.coupling, self.tau_p, self.tau, self.n_uses)
        except DomainError as exc:
            raise ConfigError(f"channel parameters: {exc}") from exc

    def canonical_text(self) -> str:
        # 'out' is where results land, not part of the experiment identity
        parts = []
        for f in fields(self):
            if f.name != "out":
                parts.append(f"{f.name}={getattr(self, f.name)!r}")
        return "\n".join(parts)

    def config_hash(self) -> str:
        return hashlib.sha256(self.canonical_text().encode()).hexdigest()[:12]


def _metadata(config: RunConfig, command: str) -> list[str]:
    return [
        f"# memphase {command} v{__version__}",
        f"# config_hash={config.config_hash()}",
        f"# seed={config.seed}",
    ]


def _parse_labels(config: RunConfig) -> list[CoherenceLabel]:
    n = config.n_uses
    if config.labels:
        labels = []
        for item in config.labels.split(","):
            item = item.strip()
            if ":" not in item:
                raise ConfigError(
                    f"field 'labels': expected 'jbits:lbits', got {item!r}"
                )
            j, _, l = item.partition(":")
            if len(j) != n or len(l) != n:
                raise ConfigError(
                    f"field 'labels': {item!r} does not match n_uses={n}"
                )
            try:
                labels.append(CoherenceLabel.from_bitstrings(j.strip(), l.strip()))
            except ValueError as exc:
                raise ConfigError(f"field 'labels': {item!r}: {exc}") from exc
        return labels
    if n <= 3:
        dim = 1 << n
        return [
            CoherenceLabel(j, l, n) for j in range(dim) for l in range(dim) if j <= l
        ]
    return [CoherenceLabel(0, (1 << n) - 1, n)]


def cmd_decay(config: RunConfig) -> str:
    """Correlation coefficients, damping, and per-label decay factors."""
    spec = config.make_spectrum()
    params = config.make_channel_params()
    try:
        cov = covariance_from_spectrum(spec, params)
        eps = epsilon_from_g(cov.g)
    except DomainError as exc:
        raise ConfigError(f"phase covariance: {exc}") from exc
    lines = _metadata(config, "decay")
    lines.append(f"# eta_sq={cov.eta_sq:.12e} g={cov.g:.12e} epsilon={eps:.12e}")
    if cov.n_uses >= 3:
        verdict = check_mu_feasible(cov.mu[1], cov.mu[2])
        lines.append(f"# mu_feasible={'yes' if verdict.feasible else 'no'}")
    lines.append("m,mu_m")
    for m in range(cov.n_uses):
        lines.append(f"{m},{cov.mu[m]:.12e}")
    lines.append("")
    lines.append("j,l,exponent,decay")
    for label in _parse_labels(config):
        j_bits = format(label.j, f"0{config.n_uses}b")
        l_bits = format(label.l, f"0{config.n_uses}b")
        try:
            d, exponent = _decay_factor_and_exponent(label, cov)
        except ArithmeticError as exc:
            raise ConfigError(f"decay factor of {j_bits}:{l_bits}: {exc}") from exc
        lines.append(f"{j_bits},{l_bits},{exponent:.12e},{d:.12e}")
    return "\n".join(lines) + "\n"


def cmd_fig2(config: RunConfig) -> str:
    """Error probabilities vs mu1 at fixed epsilon, mu2 at both band edges."""
    eps = config.epsilon
    if not 0.0 < eps < 0.5:
        raise ConfigError(f"field 'epsilon': must be in (0, 0.5), got {eps}")
    if not 0.0 < config.mu1_step <= 1.0:
        raise ConfigError(
            f"field 'mu1_step': must be in (0, 1], got {config.mu1_step}"
        )
    g = g_from_epsilon(eps)
    # 0, step, 2 step, ... always ending at mu1 = 1
    steps = 1.0 / config.mu1_step
    whole = abs(steps - round(steps)) <= 1e-9 * steps
    n_points = (round(steps) if whole else math.floor(steps)) + 1
    mu1_grid = [i * config.mu1_step for i in range(n_points)]
    if not whole:
        # a last point that prints as 1.000000 would duplicate the mu1 = 1 row
        if 1.0 - mu1_grid[-1] < 5e-7:
            mu1_grid.pop()
        mu1_grid.append(1.0)
    # Pe_single and Pe_tqc_memoryless do not depend on mu1
    constant = f"{eps:.12e},{1.0 - _fe_tqc(g, 0.0, 0.0):.12e}"

    def row(mu1: float) -> str:
        mu1 = min(mu1, 1.0)
        at_upper = check_mu_feasible(mu1, mu1)
        mu2_lower = at_upper.mu2_lower
        pe_lower = 1.0 - _fe_tqc(g, mu1, mu2_lower)
        pe_upper = 1.0 - _fe_tqc(g, mu1, mu1)
        pe_2q = pe_two_qubit(g, mu1)
        feas_lo = check_mu_feasible(mu1, mu2_lower).feasible
        feas_hi = at_upper.feasible
        return (
            f"{mu1:.6f},{mu2_lower:.12e},{pe_lower:.12e},{pe_upper:.12e},"
            f"{pe_2q:.12e},{constant},{int(feas_lo)},{int(feas_hi)}"
        )

    lines = _metadata(config, "fig2")
    lines.append(f"# epsilon={eps:.6e} g={g:.12e}")
    lines.append(
        "mu1,mu2_lower,Pe_tqc_at_mu2_lower,Pe_tqc_at_mu2_eq_mu1,"
        "Pe_two_qubit,Pe_single,Pe_tqc_memoryless,feasible_lower,feasible_upper"
    )
    lines.extend(row(mu1) for mu1 in mu1_grid)
    return "\n".join(lines) + "\n"


def cmd_fig3(config: RunConfig) -> str:
    """Error probabilities vs epsilon: memoryless, worst-case, two-qubit code."""
    if not 0.0 < config.eps_min < config.eps_max < 0.5:
        raise ConfigError(
            f"fields 'eps_min'/'eps_max': need 0 < min < max < 0.5, "
            f"got [{config.eps_min}, {config.eps_max}]"
        )
    if config.eps_points < 2:
        raise ConfigError(f"field 'eps_points': need >= 2, got {config.eps_points}")
    grid = np.geomspace(config.eps_min, config.eps_max, config.eps_points)
    # the printed pairs (0, 0) and (1, 1) do not depend on epsilon
    feasible = (
        f"{int(check_mu_feasible(0.0, 0.0).feasible)},"
        f"{int(check_mu_feasible(1.0, 1.0).feasible)}"
    )

    def row(eps: float) -> str:
        g = g_from_epsilon(eps)
        # the eps_min/eps_max check puts every grid epsilon in (0, 0.5), so
        # g is in (0, 1) for the unchecked _fe_tqc calls
        pe_2q = pe_two_qubit(g, 0.99)
        pe_memoryless = 1.0 - _fe_tqc(g, 0.0, 0.0)
        pe_worst = 1.0 - _fe_tqc(g, 1.0, 1.0)
        return f"{eps:.12e},{pe_memoryless:.12e},{pe_worst:.12e},{pe_2q:.12e},{feasible}"

    lines = _metadata(config, "fig3")
    lines.append(
        "epsilon,Pe_tqc_memoryless,Pe_tqc_worst,Pe_two_qubit_mu099,"
        "feasible_memoryless,feasible_worst"
    )
    lines.extend(row(eps) for eps in grid.tolist())
    return "\n".join(lines) + "\n"


def _suite_route_equivalence(config: RunConfig) -> tuple[bool, str]:
    spec = config.make_spectrum()
    subject = ""
    if isinstance(spec, White):
        # white noise has no pointwise autocorrelation for the time-domain route
        spec = replace(config, spectrum="lorentzian").make_spectrum()
        subject = f" of {spec!r} in place of white"
    params = replace(config, n_uses=max(3, config.n_uses)).make_channel_params()
    try:
        c_spec = covariance_from_spectrum(spec, params)
        c_time = covariance_from_autocorrelation(spec, params)
    except DomainError as exc:
        raise ConfigError(f"phase covariance: {exc}") from exc
    dev_eta = abs(c_spec.eta_sq - c_time.eta_sq) / c_spec.eta_sq
    dev_mu = float(np.abs(c_spec.mu - c_time.mu).max())
    ok = dev_eta <= 1e-7 and dev_mu <= 1e-7
    return ok, (
        f"spectral vs time-domain covariance{subject}: eta_sq rel dev {dev_eta:.2e}, "
        f"max |mu| dev {dev_mu:.2e} (tol 1e-7)"
    )


def _suite_gaussian_identity(config: RunConfig) -> tuple[bool, str]:
    rng = np.random.default_rng(config.seed)
    worst = 0.0
    for case in range(6):
        mu1 = rng.uniform(0.0, 1.0)
        mu2 = rng.uniform(check_mu_feasible(mu1, mu1).mu2_lower, mu1)
        g = rng.uniform(0.3, 0.95)
        cov = PhaseCovariance.from_damping(g, [1.0, mu1, mu2])
        j, l = int(rng.integers(0, 8)), int(rng.integers(0, 8))
        if j == l:
            l = (l + 1) % 8
        label = CoherenceLabel(j, l, 3)
        phases = sample_phases_direct(cov, config.seed + case, config.mc_samples)
        est = mc_decay_factor(label, phases)
        exact = decay_factor(label, cov)
        dev = abs(est.value.real - exact) / max(est.standard_error, 1e-300)
        worst = max(worst, dev)
    ok = worst <= 4.0
    return ok, f"sampled vs exact decay factors: worst deviation {worst:.2f} SE (tol 4)"


def _suite_circuit_equivalence(config: RunConfig) -> tuple[bool, str]:
    rng = np.random.default_rng(config.seed + 1)
    worst = 0.0
    for _ in range(25):
        mu1 = rng.uniform(0.0, 1.0)
        mu2 = rng.uniform(check_mu_feasible(mu1, mu1).mu2_lower, mu1)
        g = rng.uniform(0.2, 0.999)
        cov = PhaseCovariance.from_damping(g, [1.0, mu1, mu2])
        worst = max(worst, abs(fe_tqc_via_circuit(cov) - fe_tqc_memory(g, mu1, mu2)))
    ok = worst <= 1e-12
    return ok, f"circuit pipeline vs closed form: worst |dF| {worst:.2e} (tol 1e-12)"


def _suite_mc_fidelity(config: RunConfig) -> tuple[bool, str]:
    g = g_from_epsilon(0.05)
    worst = 0.0
    for offset, (mu1, mu2) in enumerate([(0.0, 0.0), (1.0, 1.0), (0.5, 0.25)]):
        cov = PhaseCovariance.from_damping(g, [1.0, mu1, mu2])
        phases = sample_phases_direct(cov, config.seed + 100 + offset, config.mc_samples)
        est = mc_tqc_fidelity(phases)
        exact = fe_tqc_memory(g, mu1, mu2)
        worst = max(worst, abs(est.value - exact) / max(est.standard_error, 1e-300))
    ok = worst <= 4.0
    return ok, f"sampled vs closed-form code fidelity: worst deviation {worst:.2f} SE (tol 4)"


def cmd_validate(config: RunConfig) -> tuple[str, int]:
    """Run all oracle suites; returns (report, exit status)."""
    if config.seed < 0:
        raise ConfigError(f"field 'seed': need >= 0, got {config.seed}")
    # one sample has no standard error to measure a deviation in
    if config.mc_samples < 2:
        raise ConfigError(f"field 'mc_samples': need >= 2, got {config.mc_samples}")
    lines = _metadata(config, "validate")
    suites = [
        ("route_equivalence", _suite_route_equivalence),
        ("gaussian_identity", _suite_gaussian_identity),
        ("circuit_equivalence", _suite_circuit_equivalence),
        ("mc_fidelity", _suite_mc_fidelity),
    ]
    failures = 0
    for name, suite in suites:
        ok, detail = suite(config)
        failures += 0 if ok else 1
        lines.append(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    lines.append(f"{'ALL SUITES PASSED' if failures == 0 else f'{failures} SUITE(S) FAILED'}")
    return "\n".join(lines) + "\n", 0 if failures == 0 else 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="memphase",
        description="correlated dephasing channel: decay factors, code sweeps, validation",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in [
        ("decay", "correlation coefficients and coherence decay factors"),
        ("fig2", "error probability vs mu1 at fixed epsilon"),
        ("fig3", "error probability vs epsilon"),
        ("validate", "run oracle cross-check suites"),
    ]:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="key = value configuration file")
        p.add_argument("--seed", type=int, help="override the configured seed")
        p.add_argument("--out", help="write output to this path instead of stdout")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        config = RunConfig.from_file(args.config)
        if args.seed is not None:
            config = replace(config, seed=args.seed)
        if args.out is not None:
            config = replace(config, out=args.out)

        status = 0
        if args.command == "decay":
            text = cmd_decay(config)
        elif args.command == "fig2":
            text = cmd_fig2(config)
        elif args.command == "fig3":
            text = cmd_fig3(config)
        else:
            text, status = cmd_validate(config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    if config.out:
        with open(config.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return status


if __name__ == "__main__":
    sys.exit(main())
