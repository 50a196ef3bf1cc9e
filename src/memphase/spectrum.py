"""Stationary Gaussian drive models: spectral density, autocorrelation and
the windowed phase kernel, all in closed form.

Three one-sided spectra are supported:

* ``White``      -- flat density S(w) = S0; delta-correlated, memoryless limit.
* ``Lorentzian`` -- S(w) = 2*sigma2*gamma / (gamma^2 + w^2), the exponentially
  correlated (Ornstein-Uhlenbeck) drive with C(t) = sigma2 * exp(-gamma*|t|).
* ``OneOverF``   -- S(w) = A/w on a band [omega_min, omega_max], zero outside;
  the long-memory, low-frequency-noise regime.  Explicit cutoffs are required
  because the phase kernel diverges logarithmically as omega_min -> 0.

The central quantity is the windowed kernel integral

    I(d) = (1/2pi) * int_0^inf S(w) * (1 - cos(w*tau_p)) / w^2 * cos(w*d) dw,

which fixes the phase variance (d = 0) and the inter-use phase covariances
(d = m*tau).  Splitting the trigonometric product gives three
single-frequency pieces,

    I(d) = J(tau_p + d)/2 + J(|tau_p - d|)/2 - J(d),
    J(a) = (1/2pi) * int_0^inf S(w) * (1 - cos(w*a)) / w^2 dw
         = (1/4) * int_0^a int_0^a C(t1 - t2) dt1 dt2,

and every built-in spectrum has them in closed form:

* white:      J(a) = S0*a/4, so I(d) = (S0/4) * max(tau_p - d, 0), exactly
  zero beyond the window;
* Lorentzian: J(a) = sigma2/(2 gamma^2) * (gamma*a - 1 + exp(-gamma*a)), by
  series for small gamma*a; for d >= tau_p the pieces combine to
  sigma2/gamma^2 * exp(-gamma*d) * sinh^2(gamma*tau_p/2), used directly;
* 1/f:        J(a) = (A/2pi) * [F(w)] between the cutoffs, with
  F(w) = -(1 - cos aw)/(2w^2) - a*sin(aw)/(2w) + (a^2/2)*Ci(aw).

Each spectrum class carries its own formulas, including ``kernels``, which
gives I(d) for many lags d one lag at a time; the module-level functions
delegate to them, and ``kernel_integral`` is the one-lag case of
``kernel_integrals``.  For the time-domain cross-check each spectrum also
gives C on a whole array of arguments (``autocorrelations``) and the
length over which C completes a few oscillations (``oscillation_scale``),
which bounds the quadrature panels: 8*pi/omega_max for 1/f, unbounded for
the Lorentzian, whose C never oscillates.  Only the 1/f formulas need
scipy (the cosine integral Ci), which loads on their first use.  A 1/f covariance takes every
Ci(a*w) of all its lags from one array ``sici`` call, which gives the same
bits as one scalar call per value; the sines and the three-piece sum stay
scalar Python arithmetic, lag by lag.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Iterable, Iterator
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, WhiteNoiseUndefined

__all__ = [
    "White",
    "Lorentzian",
    "OneOverF",
    "PowerSpectrum",
    "spectral_density",
    "autocorrelation",
    "kernel_integral",
    "kernel_integrals",
]

_TWO_PI = 2.0 * math.pi


@functools.cache
def _sici():
    """scipy.special.sici, imported once on first use: importing
    scipy.special costs more than the rest of the package together."""
    from scipy.special import sici

    return sici


class _LagByLag:
    """Spectra whose scalar ``kernel(tau_p, d)`` is cheap enough to call per lag."""

    def kernels(self, tau_p: float, lags: Iterable[float]) -> Iterator[float]:
        """I(d) for each lag d >= 0, computed as it is asked for."""
        return (self.kernel(tau_p, d) for d in lags)


_NO_POINTWISE_C = (
    "pointwise C(tau) of white noise is a delta distribution with no "
    "finite variance; use kernel_integral"
)


@dataclass(frozen=True)
class White(_LagByLag):
    """Flat spectrum S(w) = level (units of signal^2 * time)."""

    level: float

    def __post_init__(self):
        if not self.level > 0.0:
            raise DomainError(f"white-noise level must be positive, got {self.level}")

    def density(self, omega: float) -> float:
        return self.level

    def autocorrelation(self, tau: float) -> float:
        raise WhiteNoiseUndefined(_NO_POINTWISE_C)

    def autocorrelations(self, taus: np.ndarray) -> np.ndarray:
        raise WhiteNoiseUndefined(_NO_POINTWISE_C)

    def oscillation_scale(self) -> float:
        raise WhiteNoiseUndefined(_NO_POINTWISE_C)

    def kernel(self, tau_p: float, d: float) -> float:
        # the pieces J(a) = level*a/4 combine to a triangle of half-width tau_p
        return 0.25 * self.level * max(tau_p - d, 0.0)


def _exp_remainder(x: float) -> float:
    """exp(-x) - 1 + x for x >= 0, without cancellation at small x."""
    if x > 0.1:
        return math.expm1(-x) + x
    return sum((-x) ** k / math.factorial(k) for k in range(2, 18))


@dataclass(frozen=True)
class Lorentzian(_LagByLag):
    """Exponentially correlated drive: S(w) = 2*variance*rate/(rate^2 + w^2)."""

    variance: float
    rate: float

    def __post_init__(self):
        if not self.variance > 0.0:
            raise DomainError(f"variance must be positive, got {self.variance}")
        if not self.rate > 0.0:
            raise DomainError(f"rate must be positive, got {self.rate}")

    def density(self, omega: float) -> float:
        return 2.0 * self.variance * self.rate / (self.rate**2 + omega**2)

    def autocorrelation(self, tau: float) -> float:
        return self.variance * math.exp(-self.rate * abs(tau))

    def autocorrelations(self, taus: np.ndarray) -> np.ndarray:
        """C(tau) at every tau of an array."""
        return self.variance * np.exp(-self.rate * np.abs(taus))

    def oscillation_scale(self) -> float:
        return math.inf

    def piece(self, a: float) -> float:
        return self.variance / (2.0 * self.rate**2) * _exp_remainder(self.rate * a)

    def kernel(self, tau_p: float, d: float) -> float:
        if d < tau_p:
            return 0.5 * self.piece(tau_p + d) + 0.5 * self.piece(tau_p - d) - self.piece(d)
        # exp(-g d) sinh^2(g tp/2) = exp(-g (d - tp)) expm1(-g tp)^2 / 4, which
        # neither cancels nor overflows
        g = self.rate
        edge = math.expm1(-g * tau_p)
        return self.variance / (4.0 * g * g) * math.exp(-g * (d - tau_p)) * edge * edge


def _one_over_f_antiderivative(a: float, w: float, ci: float) -> float:
    """F(w) of the 1/f piece J(a), given ci = Ci(a*w).

    F' = (1 - cos aw)/w^3, with 1 - cos x written as 2 sin^2(x/2).
    """
    x = a * w
    half = math.sin(0.5 * x)
    return -half * half / (w * w) - a * math.sin(x) / (2.0 * w) + 0.5 * a * a * ci


@dataclass(frozen=True)
class OneOverF:
    """Banded 1/f spectrum: S(w) = amplitude/w on [omega_min, omega_max]."""

    amplitude: float
    omega_min: float
    omega_max: float

    def __post_init__(self):
        if not self.amplitude > 0.0:
            raise DomainError(f"amplitude must be positive, got {self.amplitude}")
        if not 0.0 < self.omega_min < self.omega_max:
            raise DomainError(
                "cutoffs must satisfy 0 < omega_min < omega_max, got "
                f"[{self.omega_min}, {self.omega_max}]"
            )

    def density(self, omega: float) -> float:
        if self.omega_min <= omega <= self.omega_max:
            return self.amplitude / omega
        return 0.0

    def autocorrelation(self, tau: float) -> float:
        # int cos(w t)/w dw = Ci(w_max t) - Ci(w_min t)
        t = abs(tau)
        if t == 0.0:
            return self.amplitude / math.pi * math.log(self.omega_max / self.omega_min)
        sici = _sici()
        ci_hi = float(sici(self.omega_max * t)[1])
        ci_lo = float(sici(self.omega_min * t)[1])
        return self.amplitude / math.pi * (ci_hi - ci_lo)

    def autocorrelations(self, taus: np.ndarray) -> np.ndarray:
        """C(tau) at every tau of an array, with Ci at both cutoffs from one ``sici`` call."""
        t = np.abs(taus)
        ci = _sici()(np.stack((self.omega_max * t, self.omega_min * t)))[1]
        # Ci(0) = -inf at both cutoffs, whose difference tends to the log below
        with np.errstate(invalid="ignore"):
            c = ci[0] - ci[1]
        c[t == 0.0] = math.log(self.omega_max / self.omega_min)
        return self.amplitude / math.pi * c

    def oscillation_scale(self) -> float:
        # four periods of cos(omega_max * t), the fastest term of C
        return 8.0 * math.pi / self.omega_max

    def _piece(self, a: float, ci_hi: float, ci_lo: float) -> float:
        """J(a), given Ci(a*omega_max) and Ci(a*omega_min)."""
        if a == 0.0:
            return 0.0
        return self.amplitude / _TWO_PI * (
            _one_over_f_antiderivative(a, self.omega_max, ci_hi)
            - _one_over_f_antiderivative(a, self.omega_min, ci_lo)
        )

    def kernels(self, tau_p: float, lags: Iterable[float]) -> Iterator[float]:
        """I(d) for each lag d >= 0, computed as it is asked for.

        The pieces J(tau_p + d), J(|tau_p - d|) and J(d) of every lag take
        their Ci(a*w), at both cutoffs, from one ``sici`` call on the first
        request (Ci(0) = -inf is computed for a zero piece, and unused).
        """
        spans = [(tau_p + d, abs(tau_p - d), d) for d in lags]
        cutoffs = (self.omega_max, self.omega_min)
        ci = iter(_sici()([a * w for trio in spans for a in trio for w in cutoffs])[1].tolist())
        for trio in spans:
            j = [self._piece(a, next(ci), next(ci)) for a in trio]
            yield 0.5 * j[0] + 0.5 * j[1] - j[2]


PowerSpectrum = White | Lorentzian | OneOverF


def spectral_density(spec: PowerSpectrum, omega: float) -> float:
    """One-sided power spectral density S(omega) for omega >= 0."""
    return spec.density(omega)


def autocorrelation(spec: PowerSpectrum, tau: float) -> float:
    """Pointwise autocorrelation C(tau) of the drive.

    Lorentzian: variance * exp(-rate*|tau|); OneOverF: the cosine transform
    of its banded density, (A/pi) * (Ci(omega_max*tau) - Ci(omega_min*tau)).
    White noise raises ``WhiteNoiseUndefined`` (use kernel integrals instead).
    """
    return spec.autocorrelation(tau)


def kernel_integrals(
    spec: PowerSpectrum, tau_p: float, lags: Iterable[float]
) -> Iterator[float]:
    """Windowed phase-covariance kernel I(delta) at each lag, in closed form.

    I(delta) = (1/2pi) int_0^inf S(w) (1-cos(w tau_p))/w^2 cos(w delta) dw,
    yielded lag by lag, in the order given; nothing is computed until the
    first value is asked for.  A closed form that leaves the float range, or
    gives a value that is not finite, raises ``DomainError`` naming its lag
    when that lag's value is asked for.

    Parameters
    ----------
    spec : PowerSpectrum
        Drive spectrum.
    tau_p : float
        Transit-time window length, > 0.
    lags : iterable of float
        Lags between window starts (m * tau); the kernel is even in each.
    """
    if not tau_p > 0.0:
        raise DomainError(f"tau_p must be positive, got {tau_p}")
    lags = list(lags)
    values = spec.kernels(tau_p, [abs(delta) for delta in lags])
    for delta in lags:
        try:
            value = next(values)
        except (ArithmeticError, ValueError) as exc:
            raise DomainError(f"kernel integral of {spec!r} at lag {delta} failed: {exc}") from exc
        if not math.isfinite(value):
            raise DomainError(f"kernel integral of {spec!r} at lag {delta} is {value!r}, not finite")
        yield value


def kernel_integral(spec: PowerSpectrum, tau_p: float, delta: float) -> float:
    """Windowed phase-covariance kernel I(delta): ``kernel_integrals`` at one lag."""
    return next(kernel_integrals(spec, tau_p, (delta,)))
