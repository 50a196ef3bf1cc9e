"""Phase covariance of the transmitted qubits and use-correlation coefficients.

A qubit crossing the channel during window k accumulates a random phase
phi_k; for a stationary Gaussian drive the vector (phi_1 .. phi_N) is
zero-mean Gaussian with a Toeplitz covariance

    Sigma_{kk'} = eta^2 * mu_{|k-k'|},     eta^2 = Var(phi_k),  mu_0 = 1.

Two independent construction routes are provided: the spectral kernel
integral and a 1-D time-domain quadrature of the autocorrelation, weighted
by the overlap tau_p - |v| of two transit windows offset by v.  They must
agree; the second exists purely as a cross-check of the first.  It is a
composite Gauss-Legendre rule in numpy alone: panels no wider than a
quarter window or the spectrum's oscillation scale, each summed with 40 and
60 nodes.  The gap between the two sums is its error estimate, bounded by
ORDER_GAP_BOUND relative to the variance, and the panel count of one
covariance is bounded by PANEL_BUDGET; past either bound it raises
``DomainError``.  Its nodes are computed on first use, so importing this
module loads no scipy and computes nothing.

The scalar eta^2 fixes the single-use damping g = exp(-2*eta^2) and the
single-use error probability epsilon = (1 - g)/2.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, NotPositiveSemidefinite
from .spectrum import PowerSpectrum, kernel_integrals

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


# the time-domain route: how far its 40- and 60-node sums may differ, relative
# to the variance integral; how many panels one covariance may take; how many
# panels it evaluates at once
ORDER_GAP_BOUND = 1e-10
PANEL_BUDGET = 1_000_000
_BATCH_PANELS = 1024

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
    (mu[0] = 1), their Toeplitz matrix T_kk' = mu_|k-k'| and the dense
    covariance matrix sigma = eta^2 T, both built once and read-only, and
    the smallest eigenvalue of T as ``eigvalsh`` computes it when the
    covariance is checked.
    """

    eta_sq: float
    mu: np.ndarray = field(repr=False)
    mu_matrix: np.ndarray = field(init=False, repr=False, compare=False)
    sigma: np.ndarray = field(init=False, repr=False, compare=False)
    min_eigenvalue: float = field(init=False, repr=False, compare=False)

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
        sigma = self.eta_sq * t
        sigma.flags.writeable = False
        object.__setattr__(self, "sigma", sigma)
        self._check_psd()

    def _check_psd(self):
        w = np.linalg.eigvalsh(self.mu_matrix)
        object.__setattr__(self, "min_eigenvalue", float(w[0]))
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


def covariance_from_spectrum(spec: PowerSpectrum, params: ChannelParams) -> PhaseCovariance:
    """Phase covariance by the spectral kernel route.

    eta^2 = lambda^2 * I(0) and mu_m = I(m*tau)/I(0) with I the windowed
    kernel integral of the drive spectrum.  Raises ``DomainError`` when I(0)
    is not positive and finite (it underflows for a very short window) or
    eta^2 overflows.
    """
    lags = (0.0, *(m * params.tau for m in range(1, params.n_uses)))
    kernels = kernel_integrals(spec, params.tau_p, lags)
    # kernel_integrals rejects a value that is not finite, lag by lag, so a
    # bad I(0) is reported before any later lag
    i0 = next(kernels)
    if not i0 > 0.0:
        raise DomainError(f"kernel integral I(0) = {i0!r} at tau_p = {params.tau_p} is not positive")
    mu = np.ones(params.n_uses)
    for m, value in enumerate(kernels, start=1):
        mu[m] = value / i0
    # a product, not coupling**2, which raises OverflowError instead of giving inf
    return PhaseCovariance(eta_sq=params.coupling * params.coupling * i0, mu=mu)


@functools.cache
def _gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the n-point Gauss-Legendre rule on [-1, 1].

    Golub-Welsch: the nodes are the eigenvalues of the Jacobi matrix of the
    Legendre polynomials, and each weight is twice the squared first
    component of its unit eigenvector.  Computed on first use.
    """
    k = np.arange(1.0, n)
    off = k / np.sqrt(4.0 * k * k - 1.0)
    nodes, vectors = np.linalg.eigh(np.diag(off, 1) + np.diag(off, -1))
    weights = 2.0 * vectors[0] ** 2
    nodes.flags.writeable = False
    weights.flags.writeable = False
    return nodes, weights


def _breakpoints(params: ChannelParams, m: int) -> np.ndarray:
    """Breakpoints of lag m's integral over u in [m*tau - tau_p, m*tau + tau_p].

    The weight min(u - lo, hi - u) is tau_p - |v|, exact near either edge,
    and kinks at u = m*tau.  C peaks at u = 0, or at lo when the windows are
    apart; a decade grid on either side of that peak resolves any
    correlation time.
    """
    lag = m * params.tau
    lo, hi = lag - params.tau_p, lag + params.tau_p
    peak = max(0.0, lo)
    graded = (peak + side * params.tau_p * 10.0**-k for k in range(13) for side in (-1.0, 1.0))
    return np.array(sorted({lo, lag, hi, *(u for u in graded if lo < u < hi)}))


def covariance_from_autocorrelation(
    spec: PowerSpectrum, params: ChannelParams
) -> PhaseCovariance:
    """Phase covariance by direct quadrature of the autocorrelation.

    <phi_0 phi_m> = (lambda^2/4) * int_0^tau_p dt1 int_0^tau_p dt2
    C(m*tau + t2 - t1).  Two windows of length tau_p overlap along a line of
    length tau_p - |v| at offset v = t2 - t1, so the double integral is the
    single triangle-weighted one

        (lambda^2/4) * int_{-tau_p}^{tau_p} (tau_p - |v|) * C(m*tau + v) dv,

    taken in u = m*tau + v so that C is sampled at its own argument however
    long the lag.

    The rule is composite Gauss-Legendre.  The breakpoints of each lag (the
    triangle's kink and a 13-decade grid about C's peak) cut its range into
    intervals, and each interval into equal panels no wider than
    min(tau_p/4, ``spec.oscillation_scale()``).  Every panel is summed with
    both 40 and 60 nodes, C evaluated on whole node arrays, _BATCH_PANELS
    panels at a time, so memory does not grow with the panel count.  The
    60-node sums are the result.  Their gap to the 40-node sums, in absolute
    value and added over a lag's panels, is its error estimate, which must
    not exceed ORDER_GAP_BOUND times the m = 0 integral; otherwise
    ``DomainError``.  A covariance needing more than PANEL_BUDGET panels
    raises ``DomainError`` before any is evaluated.

    Exists solely as an independent cross-check of the spectral route.
    White noise has no pointwise C(tau), so it raises
    ``WhiteNoiseUndefined``.  Raises ``DomainError`` when the variance (the
    m = 0 entry) is not positive and finite, as for lambda = 0, since the
    correlations are then undefined.
    """
    width = min(0.25 * params.tau_p, spec.oscillation_scale())
    n = params.n_uses
    breakpoints = [_breakpoints(params, m) for m in range(n)]
    lo = np.array([b[0] for b in breakpoints])
    hi = np.array([b[-1] for b in breakpoints])
    # the intervals between breakpoints, of every lag in turn
    left = np.concatenate([b[:-1] for b in breakpoints])
    lengths = np.concatenate([np.diff(b) for b in breakpoints])
    lag_of = np.repeat(np.arange(n), [b.size - 1 for b in breakpoints])
    counts = np.ceil(lengths / width)
    total = counts.sum()
    if not total <= PANEL_BUDGET:
        raise DomainError(
            f"time-domain quadrature of {spec!r} needs {total:.3g} panels of width "
            f"{width:.3g} over {n} lags, more than the budget of {PANEL_BUDGET}"
        )
    first_panel = np.cumsum(counts) - counts
    steps = lengths / counts

    (x40, w40), (x60, w60) = _gauss_legendre(40), _gauss_legendre(60)
    nodes = np.concatenate((x40, x60))
    sums = np.zeros(n)
    gaps = np.zeros(n)
    for start in range(0, int(total), _BATCH_PANELS):
        panel = np.arange(start, min(start + _BATCH_PANELS, total), dtype=float)
        k = np.searchsorted(first_panel, panel, side="right") - 1
        half = 0.5 * steps[k]
        mid = left[k] + (panel - first_panel[k] + 0.5) * steps[k]
        u = mid[:, None] + half[:, None] * nodes
        m = lag_of[k]
        f = np.minimum(u - lo[m, None], hi[m, None] - u) * spec.autocorrelations(u)
        s40 = half * (f[:, : x40.size] @ w40)
        s60 = half * (f[:, x40.size :] @ w60)
        sums += np.bincount(m, s60, minlength=n)
        gaps += np.bincount(m, np.abs(s60 - s40), minlength=n)
    worst = int(np.argmax(gaps))
    if gaps[worst] > ORDER_GAP_BOUND * abs(sums[0]):
        raise DomainError(
            f"time-domain quadrature of {spec!r} at lag {worst * params.tau}: the 40- and "
            f"60-node sums differ by {gaps[worst]:.3e}, more than {ORDER_GAP_BOUND} "
            f"of the variance integral {sums[0]:.3e}"
        )
    entries = params.coupling * params.coupling / 4.0 * sums
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
