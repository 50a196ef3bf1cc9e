"""How each deck operation is prepared, run and checked.

``prepare`` builds the untimed inputs, ``run`` is the timed call into
memphase, and ``check`` compares the output with ``reference`` (formulas
written apart from the program) or with properties the method must have.
``check`` returns None when the output is right, ``KnownFault`` for an
output that shows one of the program's known faults, and a message string
for any other mismatch.  The decks keep the known faults on purpose, on a
fixed set of entries:

* ``kernel-quadrature``: spectrum.kernel_integral raises
  QuadratureNonConvergence, because its error budget is relative to I(0)
  while the error of the long-lag pieces grows with the lag;
* ``fig2-endpoint``: cli.cmd_fig2 drops the mu1 = 1 row when mu1_step does
  not divide 1.
"""

from __future__ import annotations

import json
import math

import numpy as np

import memphase
from memphase import cli
from memphase.errors import QuadratureNonConvergence

import reference as ref

class KnownFault:
    def __init__(self, name: str):
        self.name = name


# relative tolerance of the spectral route, as in `memphase validate`
ROUTE_TOL = 1e-7
# the program forms error probabilities as 1 - F, so their absolute error is a
# few ulp of 1 (measured <= 2.4e-16); below ~1e-4 a purely relative 1e-12 test
# would demand more than double precision gives through that subtraction
CODE_RTOL = 1e-12
CODE_ATOL = 1e-15
CHANNEL_TOL = 1e-12
EIGENVALUE_FLOOR = -1e-10


def _close(a, b, rtol=CODE_RTOL, atol=CODE_ATOL) -> bool:
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return bool(np.all(np.abs(a - b) <= rtol * np.abs(b) + atol))


def _csv(text: str) -> tuple[list[str], list[str]]:
    """(metadata lines, non-comment lines) of a CSV report."""
    lines = text.splitlines()
    return [l for l in lines if l.startswith("#")], [l for l in lines if l and not l.startswith("#")]


# --- decay-spectra -------------------------------------------------------------

def _expected_labels(config: dict) -> list[tuple[str, str]]:
    n = config["n_uses"]
    if config.get("labels"):
        return [tuple(item.split(":")) for item in config["labels"].split(",")]
    if n <= 3:
        fmt = f"0{n}b"
        return [
            (format(j, fmt), format(l, fmt))
            for j in range(1 << n) for l in range(1 << n) if j <= l
        ]
    return [("0" * n, "1" * n)]


def check_decay(op, _prepared, text):
    config = op["config"]
    n = config["n_uses"]
    meta, body = _csv(text)
    header = next((m for m in meta if m.startswith("# eta_sq=")), None)
    if header is None:
        return "decay: no eta_sq line"
    fields = dict(item.split("=") for item in header[2:].split())
    eta_sq, g = float(fields["eta_sq"]), float(fields["g"])
    eta_ref, mu_ref = ref.covariance(
        config, config["coupling"], config["tau_p"], config["tau"], n
    )
    if abs(eta_sq - eta_ref) > ROUTE_TOL * eta_ref:
        return f"decay: eta_sq {eta_sq!r} vs reference {eta_ref!r}"
    if abs(g - math.exp(-2.0 * eta_ref)) > ROUTE_TOL:
        return f"decay: g {g!r} vs reference {math.exp(-2.0 * eta_ref)!r}"
    if body[0] != "m,mu_m" or "j,l,exponent,decay" not in body:
        return "decay: unexpected table headers"
    split = body.index("j,l,exponent,decay")
    mu_rows = [row.split(",") for row in body[1:split]]
    if [int(r[0]) for r in mu_rows] != list(range(n)):
        return f"decay: mu table has lags {[r[0] for r in mu_rows]}"
    mu = [float(r[1]) for r in mu_rows]
    worst = max(abs(a - b) for a, b in zip(mu, mu_ref))
    if worst > ROUTE_TOL:
        return f"decay: mu off the reference kernels by {worst:.3e}"
    labels = [row.split(",") for row in body[split + 1:]]
    expected = _expected_labels(config)
    if [(r[0], r[1]) for r in labels] != expected:
        return "decay: label rows differ from the requested labels"
    for j_bits, l_bits, exp_text, d_text in labels:
        s = [int(b) - int(a) for a, b in zip(j_bits, l_bits)]
        exponent = ref.decay_exponent(mu, s)
        if abs(float(exp_text) - exponent) > 1e-9 * n * n:
            return f"decay: exponent {exp_text} for {j_bits}:{l_bits}, reference {exponent!r}"
        want = g**exponent
        if abs(float(d_text) - want) > 1e-8 * want + 1e-300:
            return f"decay: factor {d_text} for {j_bits}:{l_bits}, reference {want!r}"
        if j_bits == l_bits and float(d_text) != 1.0:
            return f"decay: population {j_bits} has factor {d_text}"
    return None


# --- oracle-validate -------------------------------------------------------------

SUITES = ("route_equivalence", "gaussian_identity", "circuit_equivalence", "mc_fidelity")


def check_validate(op, _prepared, output, reports):
    text, status = output
    lines = text.splitlines()
    suite_lines = [l for l in lines if not l.startswith("#")]
    for name in SUITES:
        line = next((l for l in suite_lines if l.split(" ")[1:2] == [f"{name}:"]), None)
        if line is None or not line.startswith("PASS "):
            return f"validate seed {op['config']['seed']}: {line or name + ' missing'}"
    if status != 0 or suite_lines[-1] != "ALL SUITES PASSED":
        return f"validate: exit status {status}"
    key = json.dumps(op["config"], sort_keys=True)
    if key in reports and reports[key] != text:
        return "validate: same config and seed gave different report bytes"
    reports[key] = text
    return None


def prepare_trajectory(op):
    spec = memphase.Lorentzian(op["spec"]["sigma2"], op["spec"]["gamma"])
    params = memphase.ChannelParams(**op["params"])
    labels = [memphase.CoherenceLabel.from_bitstrings(*item.split(":")) for item in op["labels"]]
    return spec, params, labels


def run_trajectory(op, prepared):
    spec, params, labels = prepared
    phases = memphase.sample_phases_trajectory(spec, params, op["seed"], op["n"], op["dt"])
    return [memphase.mc_decay_factor(label, phases) for label in labels]


def check_trajectory(op, _prepared, estimates):
    p = op["params"]
    eta_sq, mu = ref.covariance(op["spec"], p["coupling"], p["tau_p"], p["tau"], p["n_uses"])
    g = math.exp(-2.0 * eta_sq)
    for item, est in zip(op["labels"], estimates):
        j_bits, l_bits = item.split(":")
        s = [int(b) - int(a) for a, b in zip(j_bits, l_bits)]
        want = g ** ref.decay_exponent(mu, s)
        z = abs(est.value.real - want) / est.standard_error
        if z > 4.0:
            return f"trajectory {op['name']} seed {op['seed']}: {item} off by {z:.2f} SE"
    return None


# --- register-channel --------------------------------------------------------------

def prepare_apply(op):
    rng = np.random.default_rng(op["state_seed"])
    dim = 1 << op["n_qubits"]
    a = rng.standard_normal((dim, 4)) + 1j * rng.standard_normal((dim, 4))
    m = a @ a.conj().T
    m /= np.trace(m).real
    return memphase.DensityMatrix(m, validate=False)


def run_apply(op, rho):
    cov = memphase.PhaseCovariance.from_damping(op["g"], op["mu"])
    return memphase.apply_channel(rho, cov, op["which"])


def check_apply(op, rho, out):
    m, m_in = out.matrix, rho.matrix
    if abs(np.trace(m) - 1.0) > CHANNEL_TOL:
        return f"apply: trace {np.trace(m)!r}"
    if np.abs(m - m.conj().T).max() > CHANNEL_TOL:
        return "apply: output is not Hermitian"
    pop_in, pop_out = np.diag(m_in), np.diag(m)
    if np.any(np.abs(pop_out - pop_in) > 1e-15 * np.abs(pop_in)):
        return "apply: populations changed"
    decay = ref.decay_matrix(op["g"], op["mu"], op["which"], op["n_qubits"])
    if np.any(np.abs(m - m_in * decay) > CHANNEL_TOL * np.abs(m_in)):
        return "apply: coherence ratios differ from g**E"
    # Cholesky of m + |floor| I succeeds iff every eigenvalue exceeds the floor
    try:
        np.linalg.cholesky(m - EIGENVALUE_FLOOR * np.eye(m.shape[0]))
    except np.linalg.LinAlgError:
        return f"apply: eigenvalue below {EIGENVALUE_FLOOR}"
    return None


def run_circuit(op, _prepared):
    cov = memphase.PhaseCovariance.from_damping(op["g"], [1.0, op["mu1"], op["mu2"]])
    return memphase.fe_tqc_via_circuit(cov)


def check_circuit(op, _prepared, fidelity):
    want = float(ref.fe_tqc(op["g"], op["mu1"], op["mu2"]))
    if abs(fidelity - want) > CHANNEL_TOL:
        return f"circuit: fidelity {fidelity!r} vs closed form {want!r}"
    return None


# --- code-sweeps ---------------------------------------------------------------------

FIG2_HEADER = (
    "mu1,mu2_lower,Pe_tqc_at_mu2_lower,Pe_tqc_at_mu2_eq_mu1,"
    "Pe_two_qubit,Pe_single,Pe_tqc_memoryless,feasible_lower,feasible_upper"
)
FIG3_HEADER = (
    "epsilon,Pe_tqc_memoryless,Pe_tqc_worst,Pe_two_qubit_mu099,"
    "feasible_memoryless,feasible_worst"
)


def _table(body: list[str]) -> np.ndarray:
    return np.array([[float(x) for x in row.split(",")] for row in body[1:]])


def fig2_grid(step: float) -> list[float]:
    """mu1 values of a sweep: 0, step, 2 step, ... and always ending at 1."""
    k_max = 1.0 / step
    if abs(k_max - round(k_max)) <= 1e-9 * k_max:
        k_max = round(k_max)
        return [k / k_max for k in range(k_max + 1)]
    grid = [k * step for k in range(math.floor(k_max) + 1)]
    return grid + [1.0]


def check_fig2(op, _prepared, text):
    eps, step = op["config"]["epsilon"], op["config"]["mu1_step"]
    _, body = _csv(text)
    if body[0] != FIG2_HEADER:
        return "fig2: unexpected header"
    t = _table(body)
    grid = fig2_grid(step)
    printed = list(t[:, 0])
    if len(printed) != len(grid) or not _close(printed, grid, 0.0, 5e-7):
        if len(printed) == len(grid) - 1 and _close(printed, grid[:-1], 0.0, 5e-7):
            return KnownFault("fig2-endpoint")
        return f"fig2: mu1 grid {printed[:3]}...{printed[-2:]} for step {step}"
    mu1 = np.array(grid)
    g = 1.0 - 2.0 * eps
    mu2_lower = np.maximum(0.0, 2.0 * mu1 * mu1 - 1.0)
    expected = {
        "mu2_lower": (t[:, 1], mu2_lower),
        "Pe at mu2 lower": (t[:, 2], ref.pe_tqc(g, mu1, mu2_lower)),
        "Pe at mu2 = mu1": (t[:, 3], ref.pe_tqc(g, mu1, mu1)),
        "two-qubit Pe": (t[:, 4], ref.pe_two_qubit(g, mu1)),
        "single-use Pe": (t[:, 5], np.full_like(mu1, eps)),
        "memoryless Pe": (t[:, 6], ref.pe_tqc(g, 0.0, 0.0) + 0.0 * mu1),
        "feasibility": (t[:, 7:], np.ones((len(mu1), 2))),
    }
    for name, (got, want) in expected.items():
        if not _close(got, want):
            return f"fig2 epsilon={eps!r}: column {name} differs from the reference"
    return None


def check_fig3(op, _prepared, text):
    c = op["config"]
    _, body = _csv(text)
    if body[0] != FIG3_HEADER:
        return "fig3: unexpected header"
    t = _table(body)
    n = c["eps_points"]
    if t.shape[0] != n:
        return f"fig3: {t.shape[0]} rows for {n} points"
    frac = np.arange(n) / (n - 1)
    eps = np.exp(math.log(c["eps_min"]) + frac * (math.log(c["eps_max"]) - math.log(c["eps_min"])))
    g = 1.0 - 2.0 * eps
    expected = {
        "epsilon": (t[:, 0], eps),
        "memoryless Pe": (t[:, 1], ref.pe_tqc(g, 0.0, 0.0)),
        "worst-case Pe": (t[:, 2], ref.pe_tqc(g, 1.0, 1.0)),
        "two-qubit Pe": (t[:, 3], ref.pe_two_qubit(g, 0.99)),
        "feasibility": (t[:, 4:], np.ones((n, 2))),
    }
    for name, (got, want) in expected.items():
        if not _close(got, want):
            return f"fig3 [{c['eps_min']!r}, {c['eps_max']!r}]: column {name} differs from the reference"
    # worst/memoryless = (9 - 42 eps)/(3 - 2 eps) + O(eps^2) -> 3 as eps -> 0
    ratio = t[0, 2] / t[0, 1]
    if abs(ratio - 3.0) > 15.0 * c["eps_min"] + 1e-6:
        return f"fig3: worst/memoryless ratio {ratio!r} at epsilon {c['eps_min']!r}"
    return None


# --- dispatch ------------------------------------------------------------------------

def _config_op(op):
    return cli.RunConfig(**op["config"])


KINDS = {
    # kind: (prepare, run, check)
    "decay": (_config_op, lambda op, c: cli.cmd_decay(c), check_decay),
    "validate": (_config_op, lambda op, c: cli.cmd_validate(c), check_validate),
    "trajectory": (prepare_trajectory, run_trajectory, check_trajectory),
    "apply": (prepare_apply, run_apply, check_apply),
    "circuit": (lambda op: None, run_circuit, check_circuit),
    "fig2": (_config_op, lambda op, c: cli.cmd_fig2(c), check_fig2),
    "fig3": (_config_op, lambda op, c: cli.cmd_fig3(c), check_fig3),
}


def prepare(op):
    return KINDS[op["kind"]][0](op)


def run(op, prepared):
    return KINDS[op["kind"]][1](op, prepared)


def check(op, prepared, output, reports: dict):
    """None if right, KnownFault, or a mismatch message."""
    if op["kind"] == "validate":
        return check_validate(op, prepared, output, reports)
    return KINDS[op["kind"]][2](op, prepared, output)


def classify_exception(op, exc: BaseException):
    """KnownFault for an exception one of the known faults raises, else a message."""
    if op["kind"] == "decay" and isinstance(exc, QuadratureNonConvergence):
        return KnownFault("kernel-quadrature")
    return f"{op['kind']}: {type(exc).__name__}: {exc}"
