"""Drive spectra, autocorrelations, and the windowed kernel integral."""

import math
import re

import numpy as np
import pytest
from scipy.integrate import trapezoid

from memphase.errors import DomainError, WhiteNoiseUndefined
from memphase.spectrum import (
    Lorentzian,
    OneOverF,
    White,
    autocorrelation,
    kernel_integral,
    kernel_integrals,
    spectral_density,
)


def lorentzian_kernel_closed_form(variance, rate, tau_p, delta):
    """Independent analytic oracle for the Lorentzian kernel.

    Derived by elementary integration of the single-frequency pieces:
    J(a) = variance/(2 rate^2) * (rate*a - 1 + exp(-rate*a)),
    I(d) = J(tp+d)/2 + J(|tp-d|)/2 - J(d).
    Cross-checked against 30-digit quadrature before freezing.
    """

    def j(a):
        a = abs(a)
        return variance / (2.0 * rate**2) * (rate * a - 1.0 + math.exp(-rate * a))

    d = abs(delta)
    return 0.5 * j(tau_p + d) + 0.5 * j(tau_p - d) - j(d)


class TestSpectralDensity:
    def test_lorentzian_at_zero(self):
        assert spectral_density(Lorentzian(1.0, 1.0), 0.0) == pytest.approx(2.0)

    def test_white_is_flat(self):
        assert spectral_density(White(0.5), 7.3) == 0.5

    def test_one_over_f_below_cutoff(self):
        assert spectral_density(OneOverF(1.0, 0.1, 10.0), 0.05) == 0.0

    def test_one_over_f_inside_band(self):
        assert spectral_density(OneOverF(2.0, 0.1, 10.0), 4.0) == pytest.approx(0.5)

    def test_nonnegative_on_grid(self):
        specs = [White(0.3), Lorentzian(1.2, 0.7), OneOverF(1.0, 0.1, 10.0)]
        for spec in specs:
            for w in np.linspace(0.0, 50.0, 101):
                assert spectral_density(spec, w) >= 0.0

    def test_invalid_parameters(self):
        with pytest.raises(DomainError):
            White(0.0)
        with pytest.raises(DomainError):
            Lorentzian(1.0, -1.0)
        with pytest.raises(DomainError):
            OneOverF(1.0, 10.0, 0.1)


class TestAutocorrelation:
    def test_lorentzian_at_zero(self):
        assert autocorrelation(Lorentzian(2.0, 0.5), 0.0) == pytest.approx(2.0)

    def test_lorentzian_half_life(self):
        assert autocorrelation(Lorentzian(1.0, 1.0), math.log(2.0)) == pytest.approx(0.5)

    def test_white_raises(self):
        with pytest.raises(WhiteNoiseUndefined):
            autocorrelation(White(1.0), 0.3)

    def test_one_over_f_against_trapezoid(self):
        # independent oracle: composite trapezoid at step h and h/2; the
        # half-step evaluation must agree with the closed-form result
        spec = OneOverF(1.0, 0.1, 10.0)
        tau = 1.0
        val = autocorrelation(spec, tau)
        results = []
        for n_points in (4_000_001, 8_000_001):
            w = np.linspace(spec.omega_min, spec.omega_max, n_points)
            results.append(np.trapezoid(np.cos(w * tau) / (np.pi * w), w))
        assert abs(results[0] - results[1]) < 1e-8  # trapezoid converged
        assert abs(val - results[1]) <= 1e-8

    def test_one_over_f_at_zero_is_variance(self):
        spec = OneOverF(1.0, 0.1, 10.0)
        # C(0) = (1/pi) int S(w) dw = (A/pi) ln(omega_max/omega_min)
        assert autocorrelation(spec, 0.0) == pytest.approx(math.log(100.0) / math.pi)

    def test_even_in_tau(self):
        spec = OneOverF(1.0, 0.1, 10.0)
        assert autocorrelation(spec, 1.7) == pytest.approx(autocorrelation(spec, -1.7))

    def test_white_variance_undefined(self):
        with pytest.raises(WhiteNoiseUndefined):
            autocorrelation(White(1.0), 0.0)

    @pytest.mark.parametrize(
        "spec,rtol",
        [(OneOverF(1.0, 0.1, 10.0), 0.0), (OneOverF(2.0, 1e-3, 1e5), 0.0), (Lorentzian(2.0, 0.5), 1e-15)],
        ids=["one_over_f-narrow", "one_over_f-wide", "lorentzian"],
    )
    def test_array_form_matches_scalar_form(self, spec, rtol):
        # zero and -0 included, where Ci(0) = -inf at both 1/f cutoffs, and
        # 1e308, where omega_max * tau leaves the float range
        taus = np.array([[0.0, -0.0, 1e-300, 1e-12, 1e308], [-0.3, 1.0, 7.5, 1e6, -1e308]])
        want = [[autocorrelation(spec, t) for t in row] for row in taus.tolist()]
        np.testing.assert_allclose(spec.autocorrelations(taus), want, rtol=rtol, atol=0.0)
        # and a 0-d array, one argument at a time
        for tau, value in zip(taus.ravel().tolist(), np.ravel(want)):
            got = spec.autocorrelations(np.asarray(tau))
            assert np.shape(got) == ()
            np.testing.assert_allclose(got, value, rtol=rtol, atol=0.0)

    def test_white_has_no_array_form_or_oscillation_scale(self):
        with pytest.raises(WhiteNoiseUndefined):
            White(1.0).autocorrelations(np.zeros(3))
        with pytest.raises(WhiteNoiseUndefined):
            White(1.0).oscillation_scale()


class TestKernelIntegral:
    @pytest.mark.parametrize(
        "spec,delta",
        [
            (Lorentzian(1.0, 1e-300), 0.0),
            (Lorentzian(1.0, 1e200), 0.0),
            (OneOverF(1.0, 1e-300, 10.0), 0.0),
            (OneOverF(1.0, 0.1, math.inf), 0.0),
            (OneOverF(1.0, 0.1, 1e300), 1e9),
        ],
        ids=["rate-tiny", "rate-huge", "omega_min-tiny", "omega_max-inf", "omega_max-huge"],
    )
    def test_float_range_failure_names_spectrum_and_lag(self, spec, delta):
        with pytest.raises(DomainError, match=rf"{type(spec).__name__}\(.*at lag {delta}"):
            kernel_integral(spec, 1.0, delta)

    @pytest.mark.parametrize(
        "spec,tau_p,delta",
        [(OneOverF(1.0, 0.1, 10.0), 1.0, 1e300), (OneOverF(1e300, 1e-12, 10.0), 1e8, 0.0)],
        ids=["lag-huge", "amplitude-huge"],
    )
    def test_non_finite_value_raises(self, spec, tau_p, delta):
        # no step raises, but a piece J(a) overflows: I is inf - inf = nan, or inf
        lag = re.escape(f"at lag {delta} is ")
        with pytest.raises(DomainError, match=rf"OneOverF\(.*{lag}(nan|inf), not finite"):
            kernel_integral(spec, tau_p, delta)

    def test_white_at_zero_lag(self):
        # int_0^inf (1-cos a w)/w^2 dw = pi a / 2  =>  I(0) = S0 tau_p / 4
        assert kernel_integral(White(1.0), 2.0, 0.0) == pytest.approx(0.5, rel=1e-10)

    @pytest.mark.parametrize("delta", [0.0, 0.3, 0.65, 1.2, 1.3, 2.0, 5.2])
    def test_white_closed_form(self, delta):
        val = kernel_integral(White(0.7), 1.3, delta)
        # (S0/8) * (|tp + d| + |tp - d| - 2|d|)
        ref = 0.7 / 8.0 * (abs(1.3 + delta) + abs(1.3 - delta) - 2.0 * abs(delta))
        assert abs(val - ref) <= 1e-8

    def test_white_vanishes_beyond_window(self):
        i0 = kernel_integral(White(0.7), 1.3, 0.0)
        for delta in (1.3, 2.6, 4.0):
            assert abs(kernel_integral(White(0.7), 1.3, delta)) <= 1e-10 * i0

    @pytest.mark.parametrize(
        "variance,rate,tau_p,delta",
        [
            (1.0, 1.0, 1.0, 0.0),
            (1.0, 1.0, 1.0, 1.0),
            (1.0, 1.0, 1.0, 3.0),
            (2.5, 0.3, 2.0, 6.0),
            (0.5, 4.0, 0.5, 1.5),
        ],
    )
    def test_lorentzian_closed_form(self, variance, rate, tau_p, delta):
        val = kernel_integral(Lorentzian(variance, rate), tau_p, delta)
        ref = lorentzian_kernel_closed_form(variance, rate, tau_p, delta)
        assert val == pytest.approx(ref, rel=1e-8)

    @pytest.mark.parametrize(
        "spec",
        [White(0.7), Lorentzian(1.0, 1.0), OneOverF(1.0, 0.1, 10.0)],
        ids=["white", "lorentzian", "one_over_f"],
    )
    def test_even_in_delta(self, spec):
        for delta in (0.4, 1.0, 2.7):
            plus = kernel_integral(spec, 1.0, delta)
            minus = kernel_integral(spec, 1.0, -delta)
            assert plus == minus

    @pytest.mark.parametrize(
        "spec",
        [White(0.7), Lorentzian(1.0, 1.0), OneOverF(1.0, 0.1, 10.0)],
        ids=["white", "lorentzian", "one_over_f"],
    )
    def test_zero_lag_dominates(self, spec):
        i0 = kernel_integral(spec, 1.0, 0.0)
        for delta in np.linspace(0.0, 8.0, 17):
            assert abs(kernel_integral(spec, 1.0, delta)) <= i0 * (1.0 + 1e-12)

    def test_lorentzian_slow_drive_limit(self):
        # rate -> 0: the drive is frozen over the windows, I(d) -> variance tp^2/4
        for delta in (0.0, 0.4, 1.0, 2.5):
            val = kernel_integral(Lorentzian(2.0, 1e-9), 1.0, delta)
            assert val == pytest.approx(0.5, rel=1e-8)

    @pytest.mark.parametrize("rate", [0.3, 40.0])
    def test_lorentzian_beyond_window(self, rate):
        # d >= tau_p: variance/(2 rate^2) exp(-rate d) (cosh(rate tau_p) - 1)
        for delta in (1.0, 2.5, 30.0):
            val = kernel_integral(Lorentzian(1.0, rate), 1.0, delta)
            ref = math.exp(-rate * delta) * (math.cosh(rate) - 1.0) / (2.0 * rate**2)
            assert val == pytest.approx(ref, rel=1e-12)

    def test_white_zero_beyond_window_exactly(self):
        for tau_p, delta in ((1.0, 1.5), (0.1, 0.3), (0.7, 0.7), (1.3, 2.6)):
            assert kernel_integral(White(0.7), tau_p, delta) == 0.0

    def test_invalid_window_raises(self):
        with pytest.raises(DomainError):
            kernel_integral(White(1.0), 0.0, 0.0)


class TestKernelIntegrals:
    @pytest.mark.parametrize(
        "spec",
        [White(0.7), Lorentzian(1.3, 0.8), OneOverF(1.0, 0.1, 10.0), OneOverF(0.9, 0.01, 1000.0)],
        ids=["white", "lorentzian", "one_over_f-10", "one_over_f-1000"],
    )
    def test_each_lag_equals_its_one_lag_call(self, spec):
        lags = [0.0, 0.35, 0.7, -1.19, 1.4, 28.0, 100.0]
        values = list(kernel_integrals(spec, 0.7, lags))
        assert values == [kernel_integral(spec, 0.7, delta) for delta in lags]

    def test_values_before_a_failing_lag_are_yielded(self):
        kernels = kernel_integrals(OneOverF(1.0, 0.1, 1e300), 1.0, [0.0, 1e9, 2e9])
        assert math.isfinite(next(kernels))
        with pytest.raises(DomainError, match=r"at lag 1000000000\.0 failed"):
            next(kernels)
