"""Phase covariance of the transmitted qubits and use-correlation coefficients.

A qubit crossing the channel during window k accumulates a random phase
phi_k; for a stationary Gaussian drive the vector (phi_1 .. phi_N) is
zero-mean Gaussian with a Toeplitz covariance

    Sigma_{kk'} = eta^2 * mu_{|k-k'|},     eta^2 = Var(phi_k),  mu_0 = 1.

Two independent construction routes are provided: the spectral kernel
integral and a 1-D time-domain quadrature of the autocorrelation, weighted
by the overlap tau_p - |v| of two transit windows offset by v.  They must
agree; the second exists purely as a cross-check of the first, and loads
``scipy.integrate`` on its first call, so importing this module needs no
scipy beyond ``scipy.special``.

The scalar eta^2 fixes the single-use damping g = exp(-2*eta^2) and the
single-use error probability epsilon = (1 - g)/2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, NotPositiveSemidefinite
from .spectrum import PowerSpectrum, autocorrelation, kernel_integral

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


def _check_damping(g: float) -> None:
    if not 0.0 < g <= 1.0:
        raise DomainError(f"damping g must be in (0, 1], got {g}")


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
        if not (math.isfinite(self.eta_sq) and self.eta_sq >= 0.0):
            raise DomainError(f"eta_sq must be finite and >= 0, got {self.eta_sq}")
        mu = np.asarray(self.mu, dtype=float).copy()
        if mu.ndim != 1 or mu.size < 1:
            raise DomainError("mu must be a 1-D vector with at least one lag")
        if not np.all(np.isfinite(mu)):
            raise DomainError(f"mu must be finite, got {mu}")
        if abs(mu[0] - 1.0) > 1e-12:
            raise DomainError(f"mu[0] must be 1, got {mu[0]}")
        mu[0] = 1.0
        if np.any(np.abs(mu) > 1.0 + 1e-12):
            raise DomainError(f"|mu_m| <= 1 violated: {mu}")
        mu = np.clip(mu, -1.0, 1.0)
        mu.flags.writeable = False
        lags = np.arange(mu.size)
        t = mu[np.abs(lags[:, None] - lags[None, :])]
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
        _check_damping(g)
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
    kernel integral of the drive spectrum.  Raises ``DomainError`` when I(0)
    is not positive and finite (it underflows for a very short window) or
    eta^2 overflows.
    """
    i0 = kernel_integral(spec, params.tau_p, 0.0)
    # kernel_integral rejects a value that is not finite
    if not i0 > 0.0:
        raise DomainError(f"kernel integral I(0) = {i0!r} at tau_p = {params.tau_p} is not positive")
    mu = np.ones(params.n_uses)
    for m in range(1, params.n_uses):
        mu[m] = kernel_integral(spec, params.tau_p, m * params.tau) / i0
    # a product, not coupling**2, which raises OverflowError instead of giving inf
    return PhaseCovariance(eta_sq=params.coupling * params.coupling * i0, mu=mu)


def covariance_from_autocorrelation(
    spec: PowerSpectrum, params: ChannelParams
) -> PhaseCovariance:
    """Phase covariance by direct quadrature of the autocorrelation.

    <phi_0 phi_m> = (lambda^2/4) * int_0^tau_p dt1 int_0^tau_p dt2
    C(m*tau + t2 - t1).  Two windows of length tau_p overlap along a line of
    length tau_p - |v| at offset v = t2 - t1, so the double integral is the
    single triangle-weighted one

        (lambda^2/4) * int_{-tau_p}^{tau_p} (tau_p - |v|) * C(m*tau + v) dv,

    one quadrature per lag, taken in u = m*tau + v so that C is sampled at
    its own argument however long the lag.

    Exists solely as an independent cross-check of the spectral route.
    White noise has no pointwise C(tau), so it raises
    ``WhiteNoiseUndefined``.  Raises ``DomainError`` when the variance (the
    m = 0 entry) is not positive and finite, as for lambda = 0, since the
    correlations are then undefined.
    """
    # imported on first use: scipy.integrate also loads scipy.optimize and
    # scipy.sparse, and nothing but this cross-check route needs it
    from scipy.integrate import quad

    tau_p = params.tau_p
    lam2_4 = params.coupling * params.coupling / 4.0
    entries = np.empty(params.n_uses)
    for m in range(params.n_uses):
        lag = m * params.tau
        lo, hi = lag - tau_p, lag + tau_p
        # the weight min(u - lo, hi - u) is tau_p - |v|, exact near either
        # edge, and kinks at u = lag.  C peaks at u = 0, or at lo when the
        # windows are apart; a decade grid on either side of that peak
        # resolves any correlation time.
        peak = max(0.0, lo)
        graded = (peak + side * tau_p * 10.0**-k for k in range(13) for side in (-1.0, 1.0))
        points = sorted({lag, *(u for u in graded if lo < u < hi)})
        val, _ = quad(
            lambda u: min(u - lo, hi - u) * autocorrelation(spec, u),
            lo, hi, points=points, epsabs=1e-13, epsrel=1e-12, limit=1000,
        )
        entries[m] = lam2_4 * val
    variance = float(entries[0])
    if not (math.isfinite(variance) and variance > 0.0):
        raise DomainError(
            f"time-domain variance {variance!r} at coupling = {params.coupling} "
            "is not positive and finite"
        )
    return PhaseCovariance(eta_sq=variance, mu=entries / variance)


def epsilon_from_g(g: float) -> float:
    """Single-use error probability epsilon = (1 - g)/2 for g in (0, 1]."""
    _check_damping(g)
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
    "mu2_not_finite", "mu2_below_lower", "mu2_above_upper".
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
    # a NaN mu2 fails neither band comparison below
    if not math.isfinite(mu2):
        return MuFeasibility(False, lower, upper, "mu2_not_finite")
    if mu2 < lower:
        return MuFeasibility(False, lower, upper, "mu2_below_lower")
    if mu2 > upper:
        return MuFeasibility(False, lower, upper, "mu2_above_upper")
    return MuFeasibility(True, lower, upper)
