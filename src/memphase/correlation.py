"""Phase covariance of the transmitted qubits and use-correlation coefficients.

A qubit crossing the channel during window k accumulates a random phase
phi_k; for a stationary Gaussian drive the vector (phi_1 .. phi_N) is
zero-mean Gaussian with a Toeplitz covariance

    Sigma_{kk'} = eta^2 * mu_{|k-k'|},     eta^2 = Var(phi_k),  mu_0 = 1.

Two independent construction routes are provided: the spectral kernel
integral and a direct 2-D time-domain quadrature of the autocorrelation
over the transit windows.  They must agree; the second exists purely as a
cross-check of the first.

The scalar eta^2 fixes the single-use damping g = exp(-2*eta^2) and the
single-use error probability epsilon = (1 - g)/2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import quad
from scipy.linalg import toeplitz

from .errors import DomainError, NotPositiveSemidefinite, WhiteNoiseUndefined
from .spectrum import PowerSpectrum, White, autocorrelation, kernel_integral

__all__ = [
    "ChannelParams",
    "PhaseCovariance",
    "MuFeasibility",
    "covariance_from_spectrum",
    "covariance_from_autocorrelation",
    "epsilon_from_g",
    "g_from_epsilon",
    "check_mu_feasible",
]

# eigenvalues of Sigma may dip this far below zero (relative to eta^2)
# before the covariance is rejected as inconsistent
PSD_TOLERANCE = 1e-10


@dataclass(frozen=True)
class ChannelParams:
    """Timing and coupling of the transmission line.

    coupling : phase accumulated per unit drive per unit time (lambda), finite
    tau_p    : transit time of one carrier, > 0
    tau      : spacing between consecutive carriers, >= tau_p so windows
               never overlap
    n_uses   : number of carriers sent, >= 1
    """

    coupling: float
    tau_p: float
    tau: float
    n_uses: int

    def __post_init__(self):
        if not math.isfinite(self.coupling):
            raise DomainError(f"coupling must be finite, got {self.coupling}")
        if not self.tau_p > 0.0:
            raise DomainError(f"tau_p must be positive, got {self.tau_p}")
        if not self.tau >= self.tau_p:
            raise DomainError(
                f"use spacing tau={self.tau} must be >= transit time tau_p={self.tau_p}"
            )
        if self.n_uses < 1:
            raise DomainError(f"n_uses must be >= 1, got {self.n_uses}")


@dataclass(frozen=True)
class PhaseCovariance:
    """Gaussian phase statistics for N channel uses.

    Stores the variance eta^2, the correlation coefficients by lag
    (mu[0] = 1) and their Toeplitz matrix T_kk' = mu_|k-k'|, built once and
    read-only.
    """

    eta_sq: float
    mu: np.ndarray = field(repr=False)
    mu_matrix: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.eta_sq >= 0.0:
            raise DomainError(f"eta_sq must be >= 0, got {self.eta_sq}")
        mu = np.asarray(self.mu, dtype=float).copy()
        if mu.ndim != 1 or mu.size < 1:
            raise DomainError("mu must be a 1-D vector with at least one lag")
        if abs(mu[0] - 1.0) > 1e-12:
            raise DomainError(f"mu[0] must be 1, got {mu[0]}")
        mu[0] = 1.0
        if np.any(np.abs(mu) > 1.0 + 1e-12):
            raise DomainError(f"|mu_m| <= 1 violated: {mu}")
        mu = np.clip(mu, -1.0, 1.0)
        mu.flags.writeable = False
        t = toeplitz(mu)
        t.flags.writeable = False
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "mu_matrix", t)
        object.__setattr__(self, "eta_sq", float(self.eta_sq))
        self._check_psd()

    def _check_psd(self):
        w = np.linalg.eigvalsh(self.mu_matrix)
        if w[0] < -PSD_TOLERANCE:
            raise NotPositiveSemidefinite(
                f"phase covariance has negative eigenvalue {w[0] * self.eta_sq:.3e} "
                f"(mu = {np.array2string(self.mu, precision=6)})"
            )

    @classmethod
    def from_damping(cls, g: float, mu) -> "PhaseCovariance":
        """Build from the single-use damping g = exp(-2*eta^2) and mu by lag."""
        if not 0.0 < g <= 1.0:
            raise DomainError(f"damping g must be in (0, 1], got {g}")
        return cls(eta_sq=-0.5 * math.log(g), mu=np.asarray(mu, dtype=float))

    @property
    def n_uses(self) -> int:
        return self.mu.size

    @property
    def g(self) -> float:
        """Single-use damping, exactly exp(-2*eta^2)."""
        return math.exp(-2.0 * self.eta_sq)

    @property
    def sigma(self) -> np.ndarray:
        """Dense N x N covariance matrix <phi_k phi_k'>."""
        return self.eta_sq * self.mu_matrix


def covariance_from_spectrum(spec: PowerSpectrum, params: ChannelParams) -> PhaseCovariance:
    """Phase covariance by the spectral kernel route.

    eta^2 = lambda^2 * I(0) and mu_m = I(m*tau)/I(0) with I the windowed
    kernel integral of the drive spectrum.
    """
    i0 = kernel_integral(spec, params.tau_p, 0.0)
    mu = np.ones(params.n_uses)
    for m in range(1, params.n_uses):
        mu[m] = kernel_integral(spec, params.tau_p, m * params.tau) / i0
    return PhaseCovariance(eta_sq=params.coupling**2 * i0, mu=mu)


def _window_overlap_integral(
    spec: PowerSpectrum,
    t_lo: float,
    t_hi: float,
    s_lo: float,
    s_hi: float,
) -> float:
    """int_{s_lo}^{s_hi} dt2 int_{t_lo}^{t_hi} dt1 C(t1 - t2), kink-aware."""

    def inner(t2: float) -> float:
        pts = [t2] if t_lo < t2 < t_hi else None
        val, _ = quad(
            lambda t1: autocorrelation(spec, t1 - t2),
            t_lo,
            t_hi,
            points=pts,
            epsabs=1e-13,
            epsrel=1e-12,
            limit=200,
        )
        return val

    val, _ = quad(inner, s_lo, s_hi, epsabs=1e-13, epsrel=1e-12, limit=200)
    return val


def covariance_from_autocorrelation(
    spec: PowerSpectrum,
    params: ChannelParams,
    *,
    window_start: float = 0.0,
) -> PhaseCovariance:
    """Phase covariance by direct 2-D quadrature over the transit windows.

    <phi_k phi_k'> = (lambda^2/4) * double integral of C(t1 - t2) over
    [t_k, t_k + tau_p] x [t_k', t_k' + tau_p] with t_k = window_start + k*tau.
    Stationarity makes the result independent of ``window_start``; the knob
    exists so that invariance can be exercised numerically.

    Exists solely as an independent cross-check of the spectral route.
    """
    if isinstance(spec, White):
        raise WhiteNoiseUndefined(
            "time-domain covariance route needs a pointwise C(tau); "
            "white noise only supports the spectral route"
        )
    lam2_4 = params.coupling**2 / 4.0
    t0 = window_start
    entries = np.empty(params.n_uses)
    for m in range(params.n_uses):
        tm = window_start + m * params.tau
        entries[m] = lam2_4 * _window_overlap_integral(
            spec, t0, t0 + params.tau_p, tm, tm + params.tau_p
        )
    return PhaseCovariance(eta_sq=entries[0], mu=entries / entries[0])


def epsilon_from_g(g: float) -> float:
    """Single-use error probability epsilon = (1 - g)/2 for g in (0, 1]."""
    if not 0.0 < g <= 1.0:
        raise DomainError(f"damping g must be in (0, 1], got {g}")
    return 0.5 * (1.0 - g)


def g_from_epsilon(epsilon: float) -> float:
    """Inverse of ``epsilon_from_g``; epsilon must lie in [0, 1/2)."""
    if not 0.0 <= epsilon < 0.5:
        raise DomainError(f"epsilon must be in [0, 0.5), got {epsilon}")
    return 1.0 - 2.0 * epsilon


@dataclass(frozen=True)
class MuFeasibility:
    """Verdict of the (mu1, mu2) feasibility check.

    ``violation`` is None when feasible, else one of "mu1_range",
    "mu2_below_lower", "mu2_above_upper".
    """

    feasible: bool
    mu2_lower: float
    mu2_upper: float
    violation: str | None = None

    def __bool__(self) -> bool:
        return self.feasible


def check_mu_feasible(mu1: float, mu2: float) -> MuFeasibility:
    """Feasibility of nearest- and next-nearest-use correlations.

    Requires 0 <= mu1 <= 1 and max(0, 2*mu1^2 - 1) <= mu2 <= mu1: the lower
    bound is forced by positivity of the three-use covariance, the upper by
    correlations not growing with use distance, and anti-correlated
    (negative) values are outside the supported regime.
    """
    lower = max(0.0, 2.0 * mu1 * mu1 - 1.0)
    upper = mu1
    if not 0.0 <= mu1 <= 1.0:
        return MuFeasibility(False, lower, upper, "mu1_range")
    if mu2 < lower:
        return MuFeasibility(False, lower, upper, "mu2_below_lower")
    if mu2 > upper:
        return MuFeasibility(False, lower, upper, "mu2_above_upper")
    return MuFeasibility(True, lower, upper)
