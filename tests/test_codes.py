"""Closed-form code fidelities and their cross-checks."""

import math
import warnings

import mpmath
import numpy as np
import pytest

from conftest import random_feasible_point
from memphase.codes import (
    _fe_tqc,
    fe_single,
    fe_tqc_approx,
    fe_tqc_general,
    fe_tqc_memory,
    fe_tqc_via_circuit,
    mu2_opt,
    pe_tqc_memory,
    pe_two_qubit,
)
from memphase.correlation import PhaseCovariance
from memphase.errors import DimensionMismatch, DomainError, FeasibilityWarning


class TestSingleUse:
    def test_examples(self):
        assert fe_single(1.0) == 1.0
        assert fe_single(0.998) == pytest.approx(0.999)
        assert fe_single(0.5) == pytest.approx(0.75)

    def test_domain(self):
        with pytest.raises(DomainError):
            fe_single(0.0)
        with pytest.raises(DomainError):
            fe_single(1.1)


class TestGeneralForm:
    def test_memoryless_bracket(self):
        for g in (0.3, 0.9, 0.998):
            assert fe_tqc_general(g, 0, 0, 0) == pytest.approx(
                0.5 + 0.75 * g - 0.25 * g**3, abs=1e-15
            )

    def test_reduces_to_stationary_form(self, rng):
        for _ in range(30):
            g, mu1, mu2 = random_feasible_point(rng)
            assert fe_tqc_general(g, mu1, mu2, mu1) == pytest.approx(
                fe_tqc_memory(g, mu1, mu2), abs=1e-15
            )

    def test_symmetric_under_qa_ab_swap(self, rng):
        for _ in range(30):
            g = rng.uniform(0.2, 0.999)
            a, b, c = rng.uniform(0, 1, size=3)
            assert fe_tqc_general(g, a, b, c) == pytest.approx(
                fe_tqc_general(g, c, b, a), abs=1e-15
            )


class TestStationaryForm:
    def test_memoryless_error_is_three_eps_sq(self):
        eps = 1e-3
        pe = pe_tqc_memory(1 - 2 * eps, 0.0, 0.0)
        assert pe == pytest.approx(3 * eps**2, rel=0.02)

    def test_perfect_memory_error_is_nine_eps_sq(self):
        eps = 1e-4
        pe = pe_tqc_memory(1 - 2 * eps, 1.0, 1.0)
        assert pe == pytest.approx(9 * eps**2, rel=0.02)

    def test_infeasible_point_warns_but_evaluates(self):
        with pytest.warns(FeasibilityWarning):
            value = fe_tqc_memory(0.9, 0.9, 0.5)
        assert value == _fe_tqc(0.9, 0.9, 0.5)
        assert 0.0 < value < 1.0

    def test_nan_mu2_warns(self):
        with pytest.warns(FeasibilityWarning, match="mu2_not_finite"):
            value = fe_tqc_memory(0.9, 0.5, math.nan)
        assert math.isnan(value)

    def test_unchecked_kernel_is_the_public_formula(self, rng):
        # the fig2/fig3 sweeps call _fe_tqc directly, so it must be bit-identical
        for _ in range(500):
            g, mu1, mu2 = random_feasible_point(rng, g_lo=1e-3, g_hi=1.0)
            assert _fe_tqc(g, mu1, mu2) == fe_tqc_memory(g, mu1, mu2)

    def test_feasible_point_does_not_warn(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fe_tqc_memory(0.9, 0.5, 0.25)

    def test_monotone_in_mu1_at_fixed_mu2(self):
        # error grows with mu1 wherever (mu1, mu2) stays feasible
        for eps in (1e-3, 1e-2, 1e-1):
            g = 1 - 2 * eps
            for mu2 in (0.0, 0.2, 0.5):
                mu1_lo = mu2
                # upper end of the feasible slab, backed off rounding noise
                mu1_hi = np.sqrt((1 + mu2) / 2) - 1e-9
                grid = np.linspace(mu1_lo, mu1_hi, 50)
                values = [pe_tqc_memory(g, m1, mu2) for m1 in grid]
                assert all(b >= a - 1e-15 for a, b in zip(values, values[1:]))

    def test_nonmonotone_in_mu2_exists(self):
        # below the optimum the error decreases with mu2
        g = 1 - 2 * 1e-2
        mu1 = 0.7
        opt = mu2_opt(g, mu1)
        assert opt > 0.0
        lo, hi = 0.25 * opt, 0.75 * opt
        assert pe_tqc_memory(g, mu1, hi) < pe_tqc_memory(g, mu1, lo)

    def test_dominates_two_qubit_code_except_near_perfect_memory(self):
        eps = 1e-3
        g = 1 - 2 * eps
        for mu1 in np.arange(0.0, 0.99 + 1e-9, 0.01):
            pe_lower = pe_tqc_memory(g, mu1, max(0.0, 2 * mu1**2 - 1))
            pe_upper = pe_tqc_memory(g, mu1, mu1)
            assert pe_two_qubit(g, mu1) > max(pe_lower, pe_upper)

    def test_error_bounded_between_three_and_nine_eps_sq(self, rng):
        for eps in (1e-3, 1e-2):
            g = 1 - 2 * eps
            for _ in range(200):
                _, mu1, mu2 = random_feasible_point(rng)
                pe = pe_tqc_memory(g, mu1, mu2)
                assert 2.9 * eps**2 <= pe <= 9.1 * eps**2


class TestQuadraticApproximation:
    def test_zero_error_limit(self):
        assert fe_tqc_approx(0.0, 0.7, 0.3) == 1.0

    def test_perfect_memory_coefficient(self):
        eps = 1e-3
        assert fe_tqc_approx(eps, 1.0, 1.0) == 1.0 - 9.0 * eps**2

    def test_cubic_remainder(self, rng):
        # |exact - quadratic| <= C eps^3 with one constant across the grid
        eps_grid = np.geomspace(1e-4, 1e-2, 13)
        points = [random_feasible_point(rng)[1:] for _ in range(10)]
        residual = {}
        for mu1, mu2 in points:
            a = 3 + 4 * mu1**2 + 2 * mu2**2
            for eps in eps_grid:
                pe = pe_tqc_memory(1 - 2 * eps, mu1, mu2)
                residual[(mu1, mu2, eps)] = abs(pe - a * eps**2)
        coarse = [r / eps**3 for (_, _, eps), r in residual.items() if eps >= 1e-3]
        c_fit = 1.05 * max(coarse)
        for (mu1, mu2, eps), r in residual.items():
            assert r <= c_fit * eps**3


class TestTwoQubitCode:
    def test_decoherence_free_at_perfect_memory(self):
        assert pe_two_qubit(0.998, 1.0) == 0.0

    def test_unit_damping_is_positive_zero(self):
        assert math.copysign(1.0, pe_two_qubit(1.0, 0.5)) == 1.0

    def test_full_relative_precision_near_unit_damping(self):
        g, mu1 = 1 - 2e-5, 0.99
        with mpmath.workdps(50):
            exact = -mpmath.expm1(2 * (1 - mpmath.mpf(mu1)) * mpmath.log(mpmath.mpf(g))) / 2
            rel = abs((mpmath.mpf(pe_two_qubit(g, mu1)) - exact) / exact)
        assert rel <= 1e-14

    def test_memoryless_value(self):
        g = 0.998
        assert pe_two_qubit(g, 0.0) == pytest.approx((1 - g**2) / 2, abs=1e-15)
        assert pe_two_qubit(g, 0.0) == pytest.approx(2e-3, rel=5e-3)

    def test_worse_than_tqc_at_low_memory(self):
        g = 0.998
        assert pe_two_qubit(g, 0.0) > pe_tqc_memory(g, 0.0, 0.0)


class TestMu2Optimum:
    def test_zero_at_uncorrelated(self):
        assert mu2_opt(0.9, 0.0) == 0.0

    def test_degenerate_base_rejected(self):
        with pytest.raises(DomainError):
            mu2_opt(1.0, 0.5)
        with pytest.raises(DomainError):
            mu2_opt(0.9, 1.5)

    @pytest.mark.parametrize("mu1", [0.2, 0.5, 0.8])
    def test_stationary_point(self, mu1):
        g = 0.998
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", FeasibilityWarning)
            opt = mu2_opt(g, mu1)
            h = 1e-5
            deriv = (
                pe_tqc_memory(g, mu1, opt + h) - pe_tqc_memory(g, mu1, opt - h)
            ) / (2 * h)
        assert abs(deriv) <= 1e-8

    def test_minimum_on_grid(self):
        g, mu1 = 0.9, 0.5
        opt = mu2_opt(g, mu1)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", FeasibilityWarning)
            pe_opt = pe_tqc_memory(g, mu1, opt)
            for mu2 in np.linspace(0.0, mu1, 201):
                assert pe_tqc_memory(g, mu1, mu2) >= pe_opt - 1e-18

    def test_warns_when_outside_band(self):
        # at large mu1 the optimum falls below the feasibility lower bound
        with pytest.warns(FeasibilityWarning):
            mu2_opt(0.998, 0.8)


class TestCircuitEquivalence:
    def test_matches_closed_form_on_random_points(self, rng):
        for _ in range(20):
            g, mu1, mu2 = random_feasible_point(rng)
            cov = PhaseCovariance.from_damping(g, [1.0, mu1, mu2])
            assert fe_tqc_via_circuit(cov) == pytest.approx(
                fe_tqc_memory(g, mu1, mu2), abs=1e-12
            )

    def test_matches_closed_form_at_band_edges(self, rng):
        # 160 interior points, then mu2 at both band edges: 24 fixed (g, mu1)
        # with g up to 1, and 20 random ones
        points = [random_feasible_point(rng) for _ in range(160)]
        edge_pairs = [
            (g, mu1)
            for g in (1.0, 1.0 - 1e-12, 1.0 - 1e-9, 1.0 - 1e-6, 0.9999, 0.02)
            for mu1 in (0.0, 0.3, 0.9, 1.0)
        ] + [random_feasible_point(rng)[:2] for _ in range(20)]
        for g, mu1 in edge_pairs:
            points += [(g, mu1, max(0.0, 2.0 * mu1 * mu1 - 1.0)), (g, mu1, mu1)]
        for g, mu1, mu2 in points:
            cov = PhaseCovariance.from_damping(g, [1.0, mu1, mu2])
            assert fe_tqc_via_circuit(cov) == pytest.approx(
                fe_tqc_memory(g, mu1, mu2), abs=1e-12
            )

    def test_memoryless_bracket(self):
        g = 0.85
        cov = PhaseCovariance.from_damping(g, [1.0, 0.0, 0.0])
        assert fe_tqc_via_circuit(cov) == pytest.approx(
            0.5 + 0.75 * g - 0.25 * g**3, abs=1e-12
        )

    def test_noiseless_channel(self):
        cov = PhaseCovariance.from_damping(1.0, [1.0, 0.7, 0.5])
        assert fe_tqc_via_circuit(cov) == pytest.approx(1.0, abs=1e-12)

    def test_requires_three_uses(self):
        with pytest.raises(DimensionMismatch):
            fe_tqc_via_circuit(PhaseCovariance.from_damping(0.9, [1.0, 0.5]))
