"""Stochastic oracle: sampling routes and Monte Carlo estimators."""

import numpy as np
import pytest

from conftest import random_feasible_covariance
from memphase.channel import CoherenceLabel, DensityMatrix, decay_factor
from memphase.circuit import (
    JointState,
    entanglement_fidelity,
    prepare_bell_with_ancillas,
    tqc_decode,
    tqc_encode,
)
from memphase.codes import fe_tqc_memory
from memphase.correlation import ChannelParams, PhaseCovariance, covariance_from_spectrum
from memphase.errors import DimensionMismatch, EmptyEnsemble, StepTooCoarse
from memphase.montecarlo import (
    mc_decay_factor,
    mc_tqc_fidelity,
    sample_phases_direct,
    sample_phases_trajectory,
)
from memphase.spectrum import Lorentzian, White


class TestDirectSampling:
    def test_diagonal_covariance_variances(self):
        eta_sq = 0.25
        cov = PhaseCovariance(eta_sq=eta_sq, mu=np.array([1.0, 0.0, 0.0]))
        n = 1_000_000
        phases = sample_phases_direct(cov, 3, n)
        # variance estimator SE ~ eta_sq * sqrt(2/n)
        band = 5.0 * eta_sq * np.sqrt(2.0 / n)
        for k in range(3):
            assert abs(phases[:, k].var() - eta_sq) <= band

    def test_pair_correlation(self):
        cov = PhaseCovariance.from_damping(0.7, [1.0, 0.6])
        n = 1_000_000
        phases = sample_phases_direct(cov, 4, n)
        r = np.corrcoef(phases[:, 0], phases[:, 1])[0, 1]
        assert abs(r - 0.6) <= 5.0 / np.sqrt(n)

    def test_deterministic_for_fixed_seed(self):
        cov = PhaseCovariance.from_damping(0.8, [1.0, 0.3, 0.1])
        a = sample_phases_direct(cov, 99, 10_000)
        b = sample_phases_direct(cov, 99, 10_000)
        assert np.array_equal(a, b)

    def test_different_seeds_differ(self):
        cov = PhaseCovariance.from_damping(0.8, [1.0, 0.3, 0.1])
        a = sample_phases_direct(cov, 1, 1000)
        b = sample_phases_direct(cov, 2, 1000)
        assert not np.array_equal(a, b)

    def test_singular_covariance_supported(self):
        # perfectly correlated phases: rank-1 covariance
        cov = PhaseCovariance.from_damping(0.5, [1.0, 1.0, 1.0])
        phases = sample_phases_direct(cov, 7, 50_000)
        spread = np.abs(phases - phases[:, :1]).max()
        assert spread <= 1e-12


class TestTrajectorySampling:
    def test_covariance_matches_analytic(self):
        spec = Lorentzian(1.0, 1.0)
        params = ChannelParams(1.0, 1.0, 1.0, 3)
        analytic = covariance_from_spectrum(spec, params)
        n = 50_000
        phases = sample_phases_trajectory(spec, params, 11, n, dt=1.0 / 200)
        emp = np.cov(phases.T)
        se = np.sqrt(
            (np.outer(np.diag(analytic.sigma), np.diag(analytic.sigma)) + analytic.sigma**2)
            / n
        )
        allowance = 4.0 * se + 0.02 * analytic.eta_sq
        assert (np.abs(emp - analytic.sigma) <= allowance).all()

    def test_gap_between_windows(self):
        spec = Lorentzian(1.0, 2.0)
        params = ChannelParams(1.0, 0.5, 1.5, 2)
        analytic = covariance_from_spectrum(spec, params)
        phases = sample_phases_trajectory(spec, params, 13, 50_000, dt=0.5 / 100)
        emp = np.cov(phases.T)
        assert abs(emp[0, 1] - analytic.sigma[0, 1]) <= 0.05 * analytic.eta_sq

    def test_fast_drive_is_nearly_memoryless(self):
        spec = Lorentzian(1.0, 40.0)
        params = ChannelParams(1.0, 1.0, 1.0, 2)
        phases = sample_phases_trajectory(spec, params, 17, 50_000, dt=1.0 / 100)
        emp = np.cov(phases.T)
        assert abs(emp[0, 1]) <= 0.05 * emp[0, 0]

    def test_deterministic_for_fixed_seed(self):
        spec = Lorentzian(1.0, 1.0)
        params = ChannelParams(1.0, 1.0, 1.0, 2)
        a = sample_phases_trajectory(spec, params, 5, 1000, dt=1e-2)
        b = sample_phases_trajectory(spec, params, 5, 1000, dt=1e-2)
        assert np.array_equal(a, b)

    def test_rejects_coarse_step(self):
        with pytest.raises(StepTooCoarse):
            sample_phases_trajectory(
                Lorentzian(1.0, 1.0), ChannelParams(1.0, 1.0, 1.0, 2), 1, 10, dt=0.1
            )

    def test_rejects_non_exponential_drive(self):
        with pytest.raises(TypeError):
            sample_phases_trajectory(
                White(1.0), ChannelParams(1.0, 1.0, 1.0, 2), 1, 10, dt=1e-2
            )


class TestDecayEstimator:
    def test_population_is_exact(self):
        cov = PhaseCovariance.from_damping(0.7, [1.0, 0.2])
        phases = sample_phases_direct(cov, 21, 1000)
        est = mc_decay_factor(CoherenceLabel(3, 3, 2), phases)
        assert est.value == 1.0 + 0.0j
        assert est.standard_error == 0.0

    def test_single_use_band(self):
        g = 0.7
        cov = PhaseCovariance.from_damping(g, [1.0])
        phases = sample_phases_direct(cov, 23, 1_000_000)
        est = mc_decay_factor(CoherenceLabel(0, 1, 1), phases)
        assert abs(est.value.real - g) <= 4.0 * est.standard_error
        assert abs(est.value.imag) <= 4.0 * est.imag_standard_error

    def test_ghz_band(self):
        g, mu1, mu2 = 0.8, 0.5, 0.3
        cov = PhaseCovariance.from_damping(g, [1.0, mu1, mu2])
        phases = sample_phases_direct(cov, 29, 1_000_000)
        est = mc_decay_factor(CoherenceLabel(0, 7, 3), phases)
        exact = g ** (3 + 4 * mu1 + 2 * mu2)
        assert abs(est.value.real - exact) <= 4.0 * est.standard_error

    def test_agreement_rate_over_repeated_trials(self, rng):
        # the 4-SE band must capture the truth in at least 99% of trials
        g, mu1, mu2 = 0.75, 0.4, 0.2
        cov = PhaseCovariance.from_damping(g, [1.0, mu1, mu2])
        label = CoherenceLabel(0, 5, 3)
        exact = decay_factor(label, cov)
        hits = 0
        trials = 200
        for trial in range(trials):
            phases = sample_phases_direct(cov, 1000 + trial, 10_000)
            est = mc_decay_factor(label, phases)
            if abs(est.value.real - exact) <= 4.0 * est.standard_error:
                hits += 1
        assert hits >= 0.99 * trials

    def test_route_agreement(self):
        # direct and trajectory ensembles must estimate the same factor
        spec = Lorentzian(1.0, 1.0)
        params = ChannelParams(1.0, 1.0, 1.0, 3)
        cov = covariance_from_spectrum(spec, params)
        label = CoherenceLabel(0, 7, 3)
        direct = mc_decay_factor(label, sample_phases_direct(cov, 31, 200_000))
        traj = mc_decay_factor(
            label, sample_phases_trajectory(spec, params, 37, 200_000, dt=1.0 / 200)
        )
        combined = 4.0 * (direct.standard_error + traj.standard_error) + 0.02
        assert abs(direct.value.real - traj.value.real) <= combined

    def test_errors(self):
        cov = PhaseCovariance.from_damping(0.7, [1.0, 0.2])
        with pytest.raises(EmptyEnsemble):
            mc_decay_factor(CoherenceLabel(0, 1, 2), np.empty((0, 2)))
        with pytest.raises(DimensionMismatch):
            mc_decay_factor(CoherenceLabel(0, 1, 2), np.zeros((10, 3)))


class TestFidelityEstimator:
    def test_noiseless_ensemble_is_exact(self):
        est = mc_tqc_fidelity(np.zeros((500, 3)))
        assert est.value == pytest.approx(1.0, abs=1e-12)

    def test_matches_explicit_pipeline_per_realization(self, rng):
        # the grouped-weights evaluation must equal gate-by-gate simulation
        for _ in range(10):
            phi = rng.normal(scale=0.6, size=3)
            fast = mc_tqc_fidelity(phi[None, :]).value

            state = tqc_encode(prepare_bell_with_ancillas())
            diag = np.ones(16, dtype=complex)
            for i in range(16):
                total = 0.0
                for pos, p in zip((JointState.Q, JointState.A, JointState.B), phi):
                    bit = (i >> (3 - pos)) & 1
                    total += p * (1.0 if bit == 0 else -1.0)
                diag[i] = np.exp(-1j * total)
            u = np.diag(diag)
            rho = DensityMatrix(u @ state.rho.matrix @ u.conj().T)
            slow = entanglement_fidelity(tqc_decode(JointState(rho)))
            assert fast == pytest.approx(slow, abs=1e-12)

    @pytest.mark.parametrize("mu1,mu2", [(0.0, 0.0), (1.0, 1.0), (0.5, 0.25)])
    def test_matches_closed_form_band(self, mu1, mu2):
        g = 1 - 2 * 0.05
        cov = PhaseCovariance.from_damping(g, [1.0, mu1, mu2])
        phases = sample_phases_direct(cov, 41, 200_000)
        est = mc_tqc_fidelity(phases)
        assert abs(est.value - fe_tqc_memory(g, mu1, mu2)) <= 4.0 * est.standard_error

    def test_standard_error_is_plain_sample_error(self):
        # the draws are i.i.d., so the error is that of the mean of per-sample fidelities
        cov = PhaseCovariance.from_damping(0.6, [1.0, 0.5, 0.25])
        phases = sample_phases_direct(cov, 43, 50)
        per_sample = np.array([mc_tqc_fidelity(phi[None, :]).value for phi in phases])
        est = mc_tqc_fidelity(phases)
        assert est.value == pytest.approx(per_sample.mean(), rel=1e-13)
        want = per_sample.std(ddof=1) / np.sqrt(50)
        assert est.standard_error == pytest.approx(want, rel=1e-12)

    def test_errors(self):
        with pytest.raises(EmptyEnsemble):
            mc_tqc_fidelity(np.empty((0, 3)))
        with pytest.raises(DimensionMismatch):
            mc_tqc_fidelity(np.zeros((10, 2)))


class TestRandomFeasibleCovariance:
    def test_helper_produces_valid_covariances(self, rng):
        for n in (1, 2, 3, 4, 5):
            cov = random_feasible_covariance(rng, n)
            assert cov.n_uses == n
            assert np.linalg.eigvalsh(cov.sigma)[0] >= -1e-10 * cov.eta_sq
