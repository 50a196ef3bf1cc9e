"""Reference computations, written apart from memphase and never importing it.

The benchmark checks the program's outputs against these formulas:

* the windowed kernel I(d) in closed form for white, Lorentzian and banded
  1/f spectra;
* the phase covariance (eta^2, mu_m) built from those kernels;
* coherence decay factors g**(s^T T s) from bit weights, T = toeplitz(mu);
* the three-qubit-code and two-qubit-code error probabilities of the paper,
  evaluated in a cancellation-free form so that they stay accurate to a few
  ulp even where the error probability is ~1e-10.

Kernel convention (the program's): with J the single-frequency piece

    J(a) = (1/2pi) int_0^inf S(w) (1 - cos(w a)) / w^2 dw,

the kernel is I(d) = J(tp + d)/2 + J(|tp - d|)/2 - J(d), eta^2 = lambda^2 I(0)
and mu_m = I(m tau)/I(0).
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import sici


# --- windowed kernels --------------------------------------------------------

def white_kernel(level: float, tau_p: float, delta: float) -> float:
    """I(d) for a flat spectrum S0: (S0/8)(|tp + d| + |tp - d| - 2|d|)."""
    d = abs(delta)
    return level / 8.0 * (abs(tau_p + d) + abs(tau_p - d) - 2.0 * d)


def _expm1_plus_x(x: float) -> float:
    """exp(-x) - 1 + x for x >= 0, without cancellation at small x."""
    if x < 0.05:
        term, total = x * x / 2.0, 0.0
        for k in range(3, 30):
            total += term
            term *= -x / k
        return total
    return math.expm1(-x) + x


def lorentzian_piece(variance: float, rate: float, a: float) -> float:
    """J(a) = sigma^2/(2 gamma^2) (gamma a - 1 + exp(-gamma a))."""
    return variance / (2.0 * rate * rate) * _expm1_plus_x(rate * abs(a))


def lorentzian_kernel(variance: float, rate: float, tau_p: float, delta: float) -> float:
    d = abs(delta)
    if d >= tau_p:
        # J pieces combine to sigma^2/(2 gamma^2) e^{-gamma d} (cosh(gamma tp) - 1)
        s = math.sinh(0.5 * rate * tau_p)
        return variance / (2.0 * rate * rate) * math.exp(-rate * d) * 2.0 * s * s
    return (
        0.5 * lorentzian_piece(variance, rate, tau_p + d)
        + 0.5 * lorentzian_piece(variance, rate, tau_p - d)
        - lorentzian_piece(variance, rate, d)
    )


def _one_minus_cos_over_cube_antideriv(a: float, w: float) -> float:
    """F(w) with F' = (1 - cos(a w))/w^3:
    -(1 - cos aw)/(2 w^2) - a sin(aw)/(2 w) + (a^2/2) Ci(aw)."""
    x = a * w
    half = math.sin(0.5 * x)
    return (
        -2.0 * half * half / (2.0 * w * w)
        - a * math.sin(x) / (2.0 * w)
        + 0.5 * a * a * sici(x)[1]
    )


def one_over_f_piece(amplitude: float, w_lo: float, w_hi: float, a: float) -> float:
    """J(a) = (A/2pi) int_{w_lo}^{w_hi} (1 - cos(w a))/w^3 dw."""
    a = abs(a)
    if a == 0.0:
        return 0.0
    return amplitude / (2.0 * math.pi) * (
        _one_minus_cos_over_cube_antideriv(a, w_hi)
        - _one_minus_cos_over_cube_antideriv(a, w_lo)
    )


def one_over_f_kernel(amplitude, w_lo, w_hi, tau_p, delta) -> float:
    d = abs(delta)
    return (
        0.5 * one_over_f_piece(amplitude, w_lo, w_hi, tau_p + d)
        + 0.5 * one_over_f_piece(amplitude, w_lo, w_hi, tau_p - d)
        - one_over_f_piece(amplitude, w_lo, w_hi, d)
    )


def kernel(spec: dict, tau_p: float, delta: float) -> float:
    """I(delta) for a spectrum given as memphase config keys."""
    kind = spec["spectrum"]
    if kind == "white":
        return white_kernel(spec["level"], tau_p, delta)
    if kind == "lorentzian":
        return lorentzian_kernel(spec["sigma2"], spec["gamma"], tau_p, delta)
    if kind == "one_over_f":
        return one_over_f_kernel(
            spec["amplitude"], spec["omega_min"], spec["omega_max"], tau_p, delta
        )
    raise ValueError(f"unknown spectrum {kind!r}")


def covariance(spec: dict, coupling: float, tau_p: float, tau: float, n_uses: int):
    """(eta^2, mu) of n_uses transmissions: eta^2 = lambda^2 I(0), mu_m = I(m tau)/I(0)."""
    i0 = kernel(spec, tau_p, 0.0)
    mu = np.array([kernel(spec, tau_p, m * tau) / i0 for m in range(n_uses)])
    mu[0] = 1.0
    return coupling * coupling * i0, mu


# --- decay factors -------------------------------------------------------------

def decay_exponent(mu, s) -> float:
    """E = sum_k s_k^2 + 2 sum_{k>k'} s_k s_k' mu_{k-k'}."""
    s = [int(x) for x in s]
    total = 0.0
    for k in range(len(s)):
        if s[k] == 0:
            continue
        total += s[k] * s[k]
        for kp in range(k):
            if s[kp]:
                total += 2.0 * s[k] * s[kp] * mu[k - kp]
    return total


def decay_matrix(g: float, mu, which, n_qubits: int) -> np.ndarray:
    """g**E(j, l) for every basis pair of an n-qubit register.

    ``which`` lists register positions in transmission order (position 0 is
    the most significant bit).  Uses the quadratic form
    E = q_j + q_l - 2 (B T B^T)_{jl} with B the 0/1 bits of the transmitted
    qubits and q = diag(B T B^T).
    """
    idx = np.arange(1 << n_qubits)
    bits = np.stack([(idx >> (n_qubits - 1 - p)) & 1 for p in which], axis=1).astype(float)
    n = len(which)
    t = np.array([[mu[abs(a - b)] for b in range(n)] for a in range(n)])
    bt = bits @ t
    gram = bt @ bits.T
    q = np.einsum("ij,ij->i", bt, bits)
    exponent = q[:, None] + q[None, :] - 2.0 * gram
    return np.power(g, exponent)


# --- code error probabilities --------------------------------------------------

def _expm1_minus_x(x):
    """exp(x) - 1 - x, accurate for small |x| (numpy arrays)."""
    x = np.asarray(x, dtype=float)
    small = np.abs(x) < 0.1
    xs = np.where(small, x, 0.0)
    term = xs * xs / 2.0
    series = np.zeros_like(xs)
    for k in range(3, 24):
        series += term
        term = term * xs / k
    return np.where(small, series, np.expm1(x) - x)


def _log1p_minus_x(x):
    """log(1 + x) - x, accurate for small |x| (numpy arrays)."""
    x = np.asarray(x, dtype=float)
    small = np.abs(x) < 0.1
    xs = np.where(small, x, 0.0)
    series = np.zeros_like(xs)
    power = xs * xs
    for k in range(2, 40):
        series += (-1.0) ** (k + 1) * power / k
        power = power * xs
    return np.where(small, series, np.log1p(x) - x)


def pe_tqc(g, mu1, mu2):
    """Three-qubit-code error probability 1 - F under correlated dephasing,

    F = 1/2 + 3g/4 - (g^3/16) [2 g^(-2 mu2) + g^(2 mu2 - 4 mu1) + g^(2 mu2 + 4 mu1)].

    With u = 1 - g, L = ln g and exponents a = (3 - 2mu2, 3 + 2mu2 - 4mu1,
    3 + 2mu2 + 4mu1) weighted (2, 1, 1), the sum of weight*a is 12, so

    1 - F = (3/4)(log1p(-u) + u) + (1/16) sum_i c_i (exp(a_i L) - 1 - a_i L),

    a sum of O(u^2) terms with no cancellation of O(1) or O(u) parts.
    """
    g = np.asarray(g, dtype=float)
    mu1 = np.asarray(mu1, dtype=float)
    mu2 = np.asarray(mu2, dtype=float)
    u = 1.0 - g
    big_l = np.log1p(-u)
    bracket = (
        2.0 * _expm1_minus_x((3.0 - 2.0 * mu2) * big_l)
        + _expm1_minus_x((3.0 + 2.0 * mu2 - 4.0 * mu1) * big_l)
        + _expm1_minus_x((3.0 + 2.0 * mu2 + 4.0 * mu1) * big_l)
    )
    return 0.75 * _log1p_minus_x(-u) + bracket / 16.0


def fe_tqc(g, mu1, mu2):
    return 1.0 - pe_tqc(g, mu1, mu2)


def pe_two_qubit(g, mu1):
    """Two-qubit {|01>, |10>} code: (1 - g^(2 - 2 mu1))/2."""
    g = np.asarray(g, dtype=float)
    return -0.5 * np.expm1((2.0 - 2.0 * np.asarray(mu1, dtype=float)) * np.log(g))


def mu2_band(mu1: float) -> tuple[float, float]:
    """Feasible mu2 band [max(0, 2 mu1^2 - 1), mu1] for 0 <= mu1 <= 1."""
    return max(0.0, 2.0 * mu1 * mu1 - 1.0), mu1
