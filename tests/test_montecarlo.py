"""Stochastic oracle: sampling routes and Monte Carlo estimators."""

import math
import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest

from conftest import random_feasible_covariance
from memphase.channel import CoherenceLabel, DensityMatrix, decay_factor
from memphase.circuit import (
    JointState,
    _code_weights,
    entanglement_fidelity,
    prepare_bell_with_ancillas,
    tqc_decode,
    tqc_encode,
)
from memphase.codes import fe_tqc_memory
from memphase.correlation import ChannelParams, PhaseCovariance, covariance_from_spectrum
import memphase
from memphase.errors import (
    DimensionMismatch,
    EmptyEnsemble,
    NotPositiveSemidefinite,
    StepTooCoarse,
)
import memphase.montecarlo as montecarlo
from memphase.montecarlo import (
    _chunk_sizes,
    _covariance_factor,
    _fill_substreams,
    _fold_weights,
    _standard_error,
    _stream_generators,
    _tqc_weights,
    mc_decay_factor,
    mc_tqc_fidelity,
    sample_phases_direct,
    sample_phases_trajectory,
)
from memphase.spectrum import Lorentzian, White


def serial_direct(cov, seed, n):
    """The serial direct sampler the substream pool replaced, kept as a reference."""
    factor = _covariance_factor(cov)
    chunks = []
    for gen, size in zip(_stream_generators(seed), _chunk_sizes(n)):
        z = gen.standard_normal((size, cov.n_uses))
        chunks.append(z @ factor.T)
    return np.vstack(chunks)


def serial_trajectory(spec, params, seed, n, dt):
    """The serial trajectory sampler the substream pool replaced, kept as a reference."""
    m = math.ceil(params.tau_p / dt)
    dt_w = params.tau_p / m
    gamma, sig = spec.rate, math.sqrt(spec.variance)
    alpha = math.exp(-gamma * dt_w)
    beta = sig * math.sqrt(1.0 - alpha * alpha)
    gap = params.tau - params.tau_p
    alpha_gap = math.exp(-gamma * gap)
    beta_gap = sig * math.sqrt(1.0 - alpha_gap * alpha_gap)
    half_coupling = 0.5 * params.coupling

    out = np.empty((n, params.n_uses))
    row = 0
    for gen, size in zip(_stream_generators(seed), _chunk_sizes(n)):
        if size == 0:
            continue
        xi = sig * gen.standard_normal(size)
        for k in range(params.n_uses):
            acc = 0.5 * xi.copy()
            for _ in range(m - 1):
                xi = alpha * xi + beta * gen.standard_normal(size)
                acc += xi
            xi = alpha * xi + beta * gen.standard_normal(size)
            acc += 0.5 * xi
            out[row : row + size, k] = half_coupling * dt_w * acc
            if gap > 0.0 and k + 1 < params.n_uses:
                xi = alpha_gap * xi + beta_gap * gen.standard_normal(size)
        row += size
    return out


@pytest.fixture(params=[1, 4], ids=["1-thread", "4-threads"])
def threads(request, monkeypatch):
    """Run the substream pool as if the process could use this many CPUs."""
    monkeypatch.setattr(montecarlo, "_usable_cpus", lambda: request.param)
    return request.param


# fewer rows than substreams, a remainder, and a large ensemble
IDENTITY_SIZES = [1, 7, 20, 1001, 20_000]


class TestSubstreamPool:
    @pytest.mark.parametrize("tau", [1.0, 1.5], ids=["no-gap", "gap"])
    @pytest.mark.parametrize("n_uses", [1, 3, 4])
    @pytest.mark.parametrize("n", IDENTITY_SIZES)
    def test_direct_matches_serial_reference(self, threads, n, n_uses, tau):
        cov = covariance_from_spectrum(Lorentzian(1.0, 1.0), ChannelParams(1.0, 1.0, tau, n_uses))
        assert np.array_equal(sample_phases_direct(cov, 61, n), serial_direct(cov, 61, n))

    @pytest.mark.parametrize("tau", [1.0, 1.5], ids=["no-gap", "gap"])
    @pytest.mark.parametrize("n_uses", [1, 3, 4])
    @pytest.mark.parametrize("n", IDENTITY_SIZES)
    def test_trajectory_matches_serial_reference(self, threads, n, n_uses, tau):
        spec = Lorentzian(1.0, 1.0)
        params = ChannelParams(1.0, 1.0, tau, n_uses)
        got = sample_phases_trajectory(spec, params, 67, n, 1.0 / 50)
        assert np.array_equal(got, serial_trajectory(spec, params, 67, n, 1.0 / 50))

    def test_identity_with_more_threads_than_cpus_and_frequent_switches(self, monkeypatch):
        monkeypatch.setattr(montecarlo, "_usable_cpus", lambda: 8)
        spec = Lorentzian(1.0, 1.0)
        params = ChannelParams(1.0, 1.0, 1.5, 3)
        cov = covariance_from_spectrum(spec, params)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            direct = sample_phases_direct(cov, 71, 5003)
            paths = sample_phases_trajectory(spec, params, 73, 5003, 1.0 / 50)
        finally:
            sys.setswitchinterval(interval)
        assert np.array_equal(direct, serial_direct(cov, 71, 5003))
        assert np.array_equal(paths, serial_trajectory(spec, params, 73, 5003, 1.0 / 50))

    def test_empty_ensemble_has_its_shape(self, threads):
        cov = PhaseCovariance.from_damping(0.8, [1.0, 0.3, 0.1])
        assert sample_phases_direct(cov, 1, 0).shape == (0, 3)
        params = ChannelParams(1.0, 1.0, 1.5, 3)
        assert sample_phases_trajectory(Lorentzian(1.0, 1.0), params, 1, 0, 1e-2).shape == (0, 3)

    def test_pool_hands_each_substream_its_rows(self, threads):
        seen = []
        _fill_substreams(lambda gen, rows: seen.append(rows), 5, 7)
        # seven rows: seven substreams with one row each, in order
        assert sorted(r.start for r in seen) == list(range(7))
        assert all(r.stop == r.start + 1 for r in seen)

    def test_worker_error_reaches_the_caller(self, threads):
        def fill(gen, rows):
            if rows.start > 0:
                raise FloatingPointError(f"rows {rows.start}:{rows.stop}")

        with pytest.raises(FloatingPointError):
            _fill_substreams(fill, 5, 100)


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

    def test_samples_every_covariance_phase_covariance_accepts(self):
        # lambda_min(T) = -9.99998e-11 lies inside PSD_TOLERANCE
        cov = PhaseCovariance(1.0, [1.0, 0.5, -0.5000000001499998])
        assert np.isfinite(sample_phases_direct(cov, 1, 10)).all()
        # mu2 = -0.5 - delta gives lambda_min(T) ~ -2 delta / 3: these sit
        # within a few 1e-15 of the tolerance edge on either side
        accepted = 0
        for eta_sq in np.geomspace(1e-3, 1e2, 12):
            for delta in 1.5e-10 * (1.0 + np.linspace(-3e-5, 3e-5, 25)):
                try:
                    cov = PhaseCovariance(eta_sq, [1.0, 0.5, -0.5 - delta])
                except NotPositiveSemidefinite:
                    continue
                accepted += 1
                assert np.isfinite(sample_phases_direct(cov, 3, 4)).all()
        assert accepted > 0

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


def cosine_sum_fidelity(phases):
    """The 27-term estimator the folded form replaced: sum_s c_s cos(2 s.phi)."""
    coeffs = _code_weights()
    fid = np.zeros(phases.shape[0])
    for index in np.ndindex(coeffs.shape):
        s = np.array(index, dtype=float) - 1.0
        fid += coeffs[index] * np.cos(2.0 * (phases @ s))
    return fid.mean(), _standard_error(fid)


# each breaks one condition the fold rests on: (vector, added weight)
FOLD_PERTURBATIONS = {
    "pair-weight": ((1, 1, 0), 1e-9),
    "asymmetric-unit": ((0, -1, 0), 1e-9),
    "unequal-triple": ((1, -1, 1), 1e-9),
}


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

    @pytest.mark.parametrize("mu1,mu2", [(0.0, 0.0), (1.0, 1.0), (0.5, 0.25)])
    def test_matches_cosine_sum_reference(self, mu1, mu2):
        cov = PhaseCovariance.from_damping(1 - 2 * 0.05, [1.0, mu1, mu2])
        phases = sample_phases_direct(cov, 47, 200_000)
        value, standard_error = cosine_sum_fidelity(phases)
        est = mc_tqc_fidelity(phases)
        assert est.value == pytest.approx(value, rel=1e-14, abs=0.0)
        assert est.standard_error == pytest.approx(standard_error, rel=1e-12, abs=0.0)

    def test_folded_weights_are_cached_and_read_only(self):
        w0, w1, w3 = _tqc_weights()
        assert _tqc_weights()[1] is w1
        assert not w1.flags.writeable
        assert w0 + w1.sum() + w3 == pytest.approx(1.0, abs=1e-12)

    def test_code_weights_are_cached_read_only_and_symmetric(self):
        coeffs = _code_weights()
        assert _code_weights() is coeffs
        assert coeffs.shape == (3, 3, 3) and coeffs.dtype == np.float64
        assert not coeffs.flags.writeable
        assert coeffs.sum() == pytest.approx(1.0, abs=1e-12)
        # c_s = c_-s: reversing every axis maps s + 1 to -s + 1
        np.testing.assert_array_equal(coeffs, coeffs[::-1, ::-1, ::-1])

    @pytest.mark.parametrize("vector,delta", FOLD_PERTURBATIONS.values(), ids=FOLD_PERTURBATIONS)
    def test_fold_rejects_broken_structure(self, vector, delta):
        coeffs = _code_weights().copy()
        coeffs[tuple(np.add(vector, 1))] += delta
        with pytest.raises(ArithmeticError):
            _fold_weights(coeffs)

    def test_fold_checks_survive_optimized_mode(self):
        script = textwrap.dedent(
            f"""
            import sys
            from memphase.circuit import _code_weights
            from memphase.montecarlo import _fold_weights

            assert False, "asserts must be stripped in this run"
            for (q, a, b), delta in {list(FOLD_PERTURBATIONS.values())!r}:
                coeffs = _code_weights().copy()
                coeffs[q + 1, a + 1, b + 1] += delta
                try:
                    _fold_weights(coeffs)
                except ArithmeticError:
                    print(f"optimize={{sys.flags.optimize}} raised")
            """
        )
        package_root = os.path.dirname(os.path.dirname(memphase.__file__))
        env = dict(os.environ, PYTHONPATH=package_root)
        done = subprocess.run(
            [sys.executable, "-O", "-c", script],
            env=env, capture_output=True, text=True, timeout=60, check=True,
        )
        assert done.stdout.splitlines() == ["optimize=1 raised"] * len(FOLD_PERTURBATIONS)

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
