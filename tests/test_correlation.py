"""Phase covariance construction, feasibility, and route equivalence."""

import math
import os
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import toeplitz

from memphase.codes import fe_single
from memphase.correlation import (
    PANEL_BUDGET,
    ChannelParams,
    PhaseCovariance,
    _mu2_lower,
    check_mu_feasible,
    covariance_from_autocorrelation,
    covariance_from_spectrum,
    epsilon_from_g,
    g_from_epsilon,
)
from memphase.errors import DomainError, NotPositiveSemidefinite, WhiteNoiseUndefined
from memphase.spectrum import Lorentzian, OneOverF, White


def lorentzian_eta_sq(coupling, variance, rate, tau_p):
    """Analytic double integral of variance*exp(-rate*|t1-t2|) over the window."""
    return (
        coupling**2
        * variance
        / (2.0 * rate**2)
        * (rate * tau_p - 1.0 + math.exp(-rate * tau_p))
    )


def lorentzian_mu(rate, tau_p, delta):
    """Analytic mu for window lag delta >= tau_p."""
    return (
        math.exp(-rate * delta)
        * (math.cosh(rate * tau_p) - 1.0)
        / (rate * tau_p - 1.0 + math.exp(-rate * tau_p))
    )


class TestChannelParams:
    def test_rejects_overlapping_windows(self):
        with pytest.raises(DomainError):
            ChannelParams(1.0, 2.0, 1.0, 3)

    def test_rejects_bad_counts(self):
        with pytest.raises(DomainError):
            ChannelParams(1.0, 1.0, 1.0, 0)
        with pytest.raises(DomainError):
            ChannelParams(1.0, 0.0, 1.0, 2)

    @pytest.mark.parametrize("n_uses", [2.5, 3.0, "3"])
    def test_non_integer_use_count(self, n_uses):
        with pytest.raises(DomainError, match="n_uses must be an integer"):
            covariance_from_spectrum(Lorentzian(1, 1), ChannelParams(1.0, 1.0, 1.0, n_uses))

    def test_numpy_integer_use_count_read_as_int(self):
        params = ChannelParams(1.0, 1.0, 1.0, np.int64(3))
        assert type(params.n_uses) is int and params == ChannelParams(1.0, 1.0, 1.0, 3)

    @pytest.mark.parametrize(
        "tau_p, tau",
        [(1.0, math.inf), (math.inf, math.inf), (math.nan, 1.0), (1.0, math.nan)],
        ids=["tau-inf", "both-inf", "tau_p-nan", "tau-nan"],
    )
    def test_non_finite_timing(self, tau_p, tau):
        with pytest.raises(DomainError, match="must be finite"):
            ChannelParams(1.0, tau_p, tau, 3)


class TestPhaseCovariance:
    def test_g_is_exact_exponential(self):
        cov = PhaseCovariance(eta_sq=0.37, mu=np.array([1.0, 0.2]))
        assert cov.g == math.exp(-2.0 * 0.37)

    def test_from_damping_round_trip(self):
        cov = PhaseCovariance.from_damping(0.8, [1.0, 0.5, 0.2])
        assert cov.g == pytest.approx(0.8, abs=1e-15)

    def test_sigma_is_toeplitz(self):
        cov = PhaseCovariance(eta_sq=2.0, mu=np.array([1.0, 0.5, 0.2]))
        expected = 2.0 * np.array(
            [[1.0, 0.5, 0.2], [0.5, 1.0, 0.5], [0.2, 0.5, 1.0]]
        )
        np.testing.assert_allclose(cov.sigma, expected)

    @pytest.mark.parametrize("n", [1, 2, 3, 8, 32, 64])
    def test_mu_matrix_is_scipy_toeplitz(self, n):
        mu = 0.7 ** np.arange(n)
        t = PhaseCovariance(eta_sq=1.0, mu=mu).mu_matrix
        assert np.array_equal(t, toeplitz(mu))
        assert t.flags.c_contiguous
        assert not t.flags.writeable

    @pytest.mark.parametrize(
        "mu",
        [[1.0], [1.0, 0.5, 0.2], [1.0, 1.0, 1.0], [1.0, 0.5, -0.5 - 1e-11], 0.7 ** np.arange(32)],
    )
    def test_min_eigenvalue_is_the_smallest_eigenvalue_of_t(self, mu):
        cov = PhaseCovariance(eta_sq=1.0, mu=np.array(mu))
        assert cov.min_eigenvalue == np.linalg.eigvalsh(cov.mu_matrix)[0]
        assert isinstance(cov.min_eigenvalue, float)
        with pytest.raises(AttributeError):
            cov.min_eigenvalue = 1.0

    def test_rejects_non_unit_leading_mu(self):
        with pytest.raises(DomainError):
            PhaseCovariance(eta_sq=1.0, mu=np.array([0.9, 0.5]))

    def test_rejects_indefinite_mu(self):
        with pytest.raises(NotPositiveSemidefinite):
            PhaseCovariance(eta_sq=1.0, mu=np.array([1.0, 0.9, -0.9]))

    @pytest.mark.parametrize("eta_sq", [math.inf, math.nan, -1.0])
    def test_rejects_non_finite_or_negative_eta_sq(self, eta_sq):
        with pytest.raises(DomainError):
            PhaseCovariance(eta_sq=eta_sq, mu=np.array([1.0, 0.5]))

    @pytest.mark.parametrize("lag", [0, 1])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_rejects_non_finite_mu(self, lag, value):
        mu = np.array([1.0, 0.5])
        mu[lag] = value
        with pytest.raises(DomainError):
            PhaseCovariance(eta_sq=1.0, mu=mu)

    # the finite check comes before the mu[0] check, and that one before the
    # |mu_m| bound, whose message shows mu with mu[0] already set to 1
    @pytest.mark.parametrize(
        "mu, message",
        [
            ([math.nan, 0.5], "mu must be finite, got [nan 0.5]"),
            ([1.0, math.inf], "mu must be finite, got [ 1. inf]"),
            ([1.0, -math.inf], "mu must be finite, got [  1. -inf]"),
            ([0.9, math.nan], "mu must be finite, got [0.9 nan]"),
            ([1.0, 0.5, math.nan, 2.0], "mu must be finite, got [1.  0.5 nan 2. ]"),
            ([0.9, 1.5], "mu[0] must be 1, got 0.9"),
            ([0.5, 0.2], "mu[0] must be 1, got 0.5"),
            ([1.0 + 5e-13, 1.5], "|mu_m| <= 1 violated: [1.  1.5]"),
            ([1.0, 0.5, -1.0 - 2e-12], "|mu_m| <= 1 violated: [ 1.   0.5 -1. ]"),
        ],
    )
    def test_rejected_mu_messages(self, mu, message):
        with pytest.raises(DomainError) as raised:
            PhaseCovariance(eta_sq=1.0, mu=np.array(mu))
        assert str(raised.value) == message

    @pytest.mark.parametrize(
        "mu, clipped",
        [
            ([1.0 + 5e-13, 1.0 + 1e-12], [1.0, 1.0]),
            ([1.0 - 5e-13, -1.0 - 5e-13], [1.0, -1.0]),
        ],
    )
    def test_mu_within_tolerance_of_one_is_clipped_to_one(self, mu, clipped):
        given = np.array(mu)
        cov = PhaseCovariance(eta_sq=1.0, mu=given)
        assert cov.mu.tolist() == clipped
        assert given.tolist() == mu

    def test_sigma_is_built_on_first_read(self):
        cov = PhaseCovariance(eta_sq=0.37, mu=0.6 ** np.arange(5))
        assert "sigma" not in vars(cov)
        sigma = cov.sigma
        assert np.array_equal(sigma, cov.eta_sq * cov.mu_matrix)
        assert not sigma.flags.writeable
        assert cov.sigma is sigma

    @pytest.mark.parametrize("n", range(1, 66))
    def test_mu_matrix_equals_the_lag_index_form(self, n):
        rng = np.random.default_rng(n)
        # r^m cos(theta m) is positive definite for 0 < r < 1
        rate, theta = rng.uniform(0.1, 0.9), rng.uniform(0.0, math.pi)
        mu = rate ** np.arange(n) * np.cos(theta * np.arange(n))
        t = PhaseCovariance(eta_sq=1.0, mu=mu).mu_matrix
        lags = np.arange(n)
        assert np.array_equal(t, mu[np.abs(lags[:, None] - lags[None, :])])
        assert t.flags.c_contiguous
        assert not t.flags.writeable

    def test_construction_peak_is_one_dense_matrix(self):
        # T is the one N x N array a covariance keeps; a lag index or a
        # dense sigma alive beside it would double the peak
        n = 1000
        tracemalloc.start()
        try:
            PhaseCovariance(eta_sq=1.0, mu=0.5 ** np.arange(n))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * 8 * n * n

    def test_rejects_damping_outside_unit_interval(self):
        with pytest.raises(DomainError):
            PhaseCovariance.from_damping(0.0, [1.0])
        with pytest.raises(DomainError):
            PhaseCovariance.from_damping(1.5, [1.0])


class TestSpectralRoute:
    def test_white_is_memoryless(self):
        cov = covariance_from_spectrum(White(0.5), ChannelParams(1.0, 1.0, 1.5, 4))
        assert np.abs(cov.mu[1:]).max() <= 1e-10

    def test_white_eta_sq_closed_form(self):
        cov = covariance_from_spectrum(White(0.5), ChannelParams(2.0, 1.0, 1.0, 1))
        # eta^2 = lambda^2 * S0 * tau_p / 4
        assert cov.eta_sq == pytest.approx(4.0 * 0.5 / 4.0, rel=1e-10)

    def test_lorentzian_eta_sq_example(self):
        cov = covariance_from_spectrum(
            Lorentzian(1.0, 1.0), ChannelParams(1.0, 1.0, 1.0, 1)
        )
        assert cov.eta_sq == pytest.approx(0.5 * math.exp(-1.0), rel=1e-10)
        assert cov.eta_sq == pytest.approx(0.1839397205857212, rel=1e-10)

    def test_lorentzian_mu_closed_form(self):
        params = ChannelParams(1.0, 1.0, 1.5, 3)
        cov = covariance_from_spectrum(Lorentzian(1.0, 1.0), params)
        for m in (1, 2):
            assert cov.mu[m] == pytest.approx(
                lorentzian_mu(1.0, 1.0, m * 1.5), rel=1e-9
            )

    def test_correlation_dies_at_large_lag(self):
        cov = covariance_from_spectrum(
            Lorentzian(1.0, 50.0), ChannelParams(1.0, 1.0, 1.0, 2)
        )
        assert abs(cov.mu[1]) < 0.02

    def test_spectrum_pairs_are_feasible(self):
        # the exact pairs satisfy the constraints; allow the bounds to be
        # missed by no more than the kernel rounding noise
        noise = 1e-9
        specs = [White(0.5), Lorentzian(1.0, 0.5), OneOverF(1.0, 0.1, 10.0)]
        for spec in specs:
            for tau in (1.0, 1.5, 2.5):
                cov = covariance_from_spectrum(spec, ChannelParams(1.0, 1.0, tau, 3))
                mu1, mu2 = float(cov.mu[1]), float(cov.mu[2])
                verdict = check_mu_feasible(mu1, mu2)
                if not verdict.feasible:
                    margin = max(
                        verdict.mu2_lower - mu2, mu2 - verdict.mu2_upper, -mu1
                    )
                    assert margin <= noise, (spec, tau, cov.mu, verdict)

    def test_five_use_covariance_is_psd(self):
        cov = covariance_from_spectrum(
            Lorentzian(1.0, 0.7), ChannelParams(1.0, 1.0, 1.2, 5)
        )
        assert np.linalg.eigvalsh(cov.sigma)[0] >= -1e-10 * cov.eta_sq


class TestTimeDomainRoute:
    def test_white_rejected(self):
        with pytest.raises(WhiteNoiseUndefined):
            covariance_from_autocorrelation(White(1.0), ChannelParams(1.0, 1.0, 1.0, 2))

    @pytest.mark.parametrize("rate,tau_p,tau", [(1.0, 1.0, 1.0), (0.5, 2.0, 3.0)])
    def test_matches_spectral_route(self, rate, tau_p, tau):
        spec = Lorentzian(1.0, rate)
        params = ChannelParams(1.0, tau_p, tau, 3)
        c_spec = covariance_from_spectrum(spec, params)
        c_time = covariance_from_autocorrelation(spec, params)
        assert c_time.eta_sq == pytest.approx(c_spec.eta_sq, rel=1e-7)
        np.testing.assert_allclose(c_time.mu, c_spec.mu, atol=1e-7)

    def test_one_over_f_matches_spectral_route(self):
        spec = OneOverF(1.0, 0.1, 10.0)
        params = ChannelParams(1.0, 1.0, 1.2, 3)
        c_spec = covariance_from_spectrum(spec, params)
        c_time = covariance_from_autocorrelation(spec, params)
        assert c_time.eta_sq == pytest.approx(c_spec.eta_sq, rel=1e-7)
        np.testing.assert_allclose(c_time.mu, c_spec.mu, atol=1e-7)

    @pytest.mark.parametrize(
        "spec,tau_p,tau,n_uses",
        [
            (Lorentzian(1.0, 1.0), 0.2, 1.0, 6),
            (Lorentzian(1.0, 1.0), 0.2, 3.0, 16),
            (OneOverF(1.0, 0.01, 50.0), 1.0, 1.0, 24),
            (OneOverF(1.0, 0.01, 50.0), 0.2, 3.0, 8),
        ],
        ids=["lorentzian-6", "lorentzian-16", "one_over_f-24", "one_over_f-8"],
    )
    def test_long_lags_short_windows_match(self, spec, tau_p, tau, n_uses):
        # lags far beyond the window, where the kernel is small against its pieces
        params = ChannelParams(1.0, tau_p, tau, n_uses)
        c_spec = covariance_from_spectrum(spec, params)
        c_time = covariance_from_autocorrelation(spec, params)
        assert c_time.eta_sq == pytest.approx(c_spec.eta_sq, rel=1e-7)
        np.testing.assert_allclose(c_time.mu, c_spec.mu, rtol=0.0, atol=1e-7)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "spec,spacing",
        [
            pytest.param(Lorentzian(1.0, x / 0.5), k, id=f"lorentzian-{x:g}-tau={k:g}tau_p")
            for x in (1e-2, 1.0, 1e2, 1e4, 1e6)
            for k in (1.0, 3.0)
        ]
        + [
            pytest.param(OneOverF(1.0, 0.1, x / 0.5), 1.0, id=f"one_over_f-{x:g}")
            for x in (10.0, 1e2, 1e3)
        ],
    )
    def test_routes_agree_from_slow_to_fast_drive(self, spec, spacing):
        # correlation times from far above to far below the window tau_p = 0.5: the
        # id gives rate * tau_p or omega_max * tau_p
        params = ChannelParams(1.0, 0.5, spacing * 0.5, 3)
        c_spec = covariance_from_spectrum(spec, params)
        c_time = covariance_from_autocorrelation(spec, params)
        assert c_time.eta_sq == pytest.approx(c_spec.eta_sq, rel=1e-10, abs=0.0)
        np.testing.assert_allclose(c_time.mu, c_spec.mu, rtol=0.0, atol=1e-10)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "omega_max,tau",
        [
            pytest.param(
                x, k, id=f"one_over_f-{x:.0e}-tau={k:g}",
                marks=pytest.mark.skipif(
                    x > 1e5 and not os.environ.get("CI"), reason="about 3 s each; runs in CI"
                ),
            )
            for x in (1e4, 1e5, 1e6)
            for k in (1.0, 3.0)
        ]
        + [pytest.param(1e3, 1.5, id="one_over_f-1e+03-tau=1.5")],
    )
    def test_wide_one_over_f_band_meets_route_tolerance(self, omega_max, tau):
        # C(u) oscillates about omega_max * tau_p / pi times per window
        spec = OneOverF(1.0, 0.1, omega_max)
        params = ChannelParams(1.0, 1.0, tau, 3)
        c_spec = covariance_from_spectrum(spec, params)
        c_time = covariance_from_autocorrelation(spec, params)
        assert c_time.eta_sq == pytest.approx(c_spec.eta_sq, rel=1e-7, abs=0.0)
        np.testing.assert_allclose(c_time.mu, c_spec.mu, rtol=0.0, atol=1e-7)

    def test_orders_that_disagree_raise(self):
        # a step at |u| = 0.37 tau_p lies inside a panel of lag 0, where no
        # polynomial rule converges
        class Step:
            def oscillation_scale(self):
                return math.inf

            def autocorrelations(self, taus):
                return np.where(np.abs(taus) < 0.37, 1.0, 0.5)

        with pytest.raises(DomainError, match="40- and 60-node sums differ"):
            covariance_from_autocorrelation(Step(), ChannelParams(1.0, 1.0, 1.0, 3))

    def test_panel_budget_raises_before_any_panel_runs(self):
        width = 2.0 / PANEL_BUDGET  # lag 0 alone needs PANEL_BUDGET panels and more

        class Fast:
            def oscillation_scale(self):
                return width

            def autocorrelations(self, taus):
                raise AssertionError("a panel was evaluated")

        with pytest.raises(DomainError, match="more than the budget"):
            covariance_from_autocorrelation(Fast(), ChannelParams(1.0, 1.0, 1.0, 3))

    @pytest.mark.parametrize("coupling", [0.0, 1e200])
    def test_rejects_variance_that_is_zero_or_overflows(self, coupling):
        # lambda = 0 gives entries[0] = 0, and the correlations would be 0/0
        params = ChannelParams(coupling, 1.0, 1.5, 3)
        with pytest.raises(DomainError, match="not positive and finite"):
            covariance_from_autocorrelation(Lorentzian(1.0, 1.0), params)

    def test_short_window_taylor_limit(self):
        # eta^2 -> (lambda^2/4) C(0) tau_p^2 as tau_p -> 0
        spec = Lorentzian(1.0, 1.0)
        tau_p = 1e-3
        cov = covariance_from_autocorrelation(spec, ChannelParams(1.0, tau_p, 1.0, 1))
        leading = 0.25 * 1.0 * tau_p**2
        assert abs(cov.eta_sq / leading - 1.0) < 5e-4


class TestScalarConversions:
    def test_epsilon_examples(self):
        assert epsilon_from_g(1.0) == 0.0
        assert epsilon_from_g(0.998) == pytest.approx(1e-3)
        assert epsilon_from_g(0.5) == pytest.approx(0.25)

    def test_epsilon_domain(self):
        with pytest.raises(DomainError):
            epsilon_from_g(0.0)
        with pytest.raises(DomainError):
            epsilon_from_g(1.2)

    @pytest.mark.parametrize("g", [0.0, -0.5, 1.5, math.nan])
    def test_every_damping_check_says_the_same(self, g):
        for call in (
            lambda: epsilon_from_g(g),
            lambda: PhaseCovariance.from_damping(g, [1.0]),
            lambda: fe_single(g),
        ):
            with pytest.raises(DomainError, match=r"damping g must be in \(0, 1\], got"):
                call()

    def test_g_from_epsilon_round_trip(self):
        for eps in (0.0, 1e-3, 0.25, 0.49):
            assert epsilon_from_g(g_from_epsilon(eps)) == pytest.approx(eps)
        with pytest.raises(DomainError):
            g_from_epsilon(0.5)


class TestFeasibility:
    def test_perfect_memory_is_feasible(self):
        assert check_mu_feasible(1.0, 1.0).feasible

    def test_lower_bound_violation(self):
        verdict = check_mu_feasible(0.9, 0.5)
        assert not verdict.feasible
        assert verdict.violation == "mu2_below_lower"
        assert verdict.mu2_lower == pytest.approx(2 * 0.81 - 1)

    def test_ordering_violation(self):
        verdict = check_mu_feasible(0.5, 0.6)
        assert not verdict.feasible
        assert verdict.violation == "mu2_above_upper"

    @pytest.mark.parametrize("mu2", [math.nan, math.inf, -math.inf])
    def test_non_finite_mu2_rejected(self, mu2):
        # a NaN mu2 fails neither band comparison, so it needs its own check
        verdict = check_mu_feasible(0.5, mu2)
        assert not verdict.feasible
        assert verdict.violation == "mu2_not_finite"

    def test_anticorrelation_rejected(self):
        assert not check_mu_feasible(-0.1, 0.0).feasible
        assert not check_mu_feasible(0.5, -0.1).feasible

    def test_verdict_is_truthy(self):
        assert bool(check_mu_feasible(0.3, 0.1))
        assert not bool(check_mu_feasible(0.3, 0.5))

    def test_band_edge_helper_and_fig2_pairs_over_unit_interval(self):
        # fig2 takes one verdict per sweep: at every mu1 in [0, 1] the pairs
        # (mu1, lower edge) and (mu1, mu1) it prints must lie in the band
        root_half = math.sqrt(0.5)
        near_root_half = [root_half]
        for toward in (0.0, 1.0):
            x = root_half
            for _ in range(8):
                x = math.nextafter(x, toward)
                near_root_half.append(x)
        below_one = [1.0 - k * 2.0**-53 for k in range(1, 20_001)]
        uniform = np.random.default_rng(2).uniform(0.0, 1.0, 20_000).tolist()
        points = [0.0, -0.0, 5e-324, 1.0] + near_root_half + below_one + uniform
        for mu1 in points:
            lower = _mu2_lower(mu1)
            assert lower.hex() == check_mu_feasible(mu1, mu1).mu2_lower.hex()
            assert check_mu_feasible(mu1, lower).feasible
            assert check_mu_feasible(mu1, mu1).feasible

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(st.floats(0.0, 1.0), st.floats(0.0, 1.0))
    def test_feasible_pairs_are_positive_semidefinite(self, mu1, mu2):
        if check_mu_feasible(mu1, mu2).feasible:
            assert np.linalg.eigvalsh(toeplitz([1.0, mu1, mu2]))[0] >= -1e-12

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(st.floats(0.0, 1.0), st.floats(1e-3, 1.0))
    def test_pairs_below_the_lower_bound_are_not(self, mu1, margin):
        # det T = (1 - mu2)(1 + mu2 - 2 mu1^2) < 0 below 2 mu1^2 - 1
        mu2 = 2.0 * mu1 * mu1 - 1.0 - margin
        verdict = check_mu_feasible(mu1, mu2)
        assert verdict.violation == "mu2_below_lower"
        assert np.linalg.eigvalsh(toeplitz([1.0, mu1, mu2]))[0] < 0.0
