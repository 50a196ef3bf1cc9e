"""Stochastic oracle: sampling routes and Monte Carlo estimators."""

import math
import os
import subprocess
import sys
import textwrap
import threading

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
    DomainError,
    EmptyEnsemble,
    NotPositiveSemidefinite,
    StepTooCoarse,
)
import memphase.montecarlo as montecarlo
from memphase.montecarlo import (
    McEstimate,
    TRAJECTORY_BUDGET,
    TRAJECTORY_STEP_BUDGET,
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

try:
    import resource
except ImportError:  # not on every platform
    resource = None


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


def serial_decay_factor(label, phases):
    """The whole-array decay estimator with its temporaries, kept as a reference."""
    z = np.exp(2j * (phases @ label.s.astype(float)))
    n = phases.shape[0]
    return McEstimate(complex(z.mean()), _standard_error(z.real), n, _standard_error(z.imag))


def serial_tqc_fidelity(phases):
    """The whole-array fidelity estimator with its temporaries, kept as a reference."""
    w0, w1, w3 = _tqc_weights()
    c = np.cos(2.0 * phases)
    fid = w0 + c @ w1 + w3 * (c[:, 0] * c[:, 1] * c[:, 2])
    return McEstimate(float(fid.mean()), _standard_error(fid), phases.shape[0])


def mixed_label(n_uses):
    """A label whose weights s take the values -1, 0 and +1 from three uses on."""
    return CoherenceLabel.from_bitstrings(("011" * n_uses)[:n_uses], ("110" * n_uses)[:n_uses])


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

    def test_pool_threads_call_no_memphase_function(self, monkeypatch):
        # a traced memphase function keeps its spans on one unlocked stack,
        # so the blocks the pool runs call numpy alone
        monkeypatch.setattr(montecarlo, "_usable_cpus", lambda: 4)
        calls = []

        def recording(name, fn):
            def wrapper(*args, **kwargs):
                calls.append((name, threading.current_thread() is threading.main_thread()))
                return fn(*args, **kwargs)

            return wrapper

        for module_name, module in list(sys.modules.items()):
            if module_name != "memphase" and not module_name.startswith("memphase."):
                continue
            for key, value in list(vars(module).items()):
                if (
                    callable(value)
                    and not isinstance(value, type)
                    and getattr(value, "__module__", "").startswith("memphase")
                ):
                    monkeypatch.setattr(module, key, recording(f"{module_name}.{key}", value))
        cov = PhaseCovariance.from_damping(0.6, [1.0, 0.5, 0.25])
        params = ChannelParams(1.0, 1.0, 1.5, 3)
        montecarlo.sample_phases_direct(cov, 97, 1001)
        montecarlo.sample_phases_trajectory(Lorentzian(1.0, 1.0), params, 97, 1001, 1.0 / 50)
        assert [name for name, on_main in calls if not on_main] == []
        names = {name for name, _ in calls}
        pooled = {"memphase.montecarlo.sample_phases_direct", "memphase.montecarlo._fill_substreams"}
        assert pooled <= names


# the identity sizes, and the size validate samples at
ESTIMATOR_SIZES = IDENTITY_SIZES + [200_000]


class TestEstimatorIdentity:
    """An estimate from the pooled samplers and the in-place estimators is
    bit-identical to one from the serial sampler and the estimator with
    temporaries, whatever the pool's thread count and the memory order.

    ``repr`` round-trips every float, the sign of a zero included, so equal
    reprs are equal bits.
    """

    # 8 uses: BLAS rounds rows of a product with 8 columns differently
    # depending on how they are split
    @pytest.mark.parametrize("n_uses", [1, 3, 8])
    @pytest.mark.parametrize("n", ESTIMATOR_SIZES)
    def test_decay_factor_matches_serial_reference(self, threads, n, n_uses):
        cov = covariance_from_spectrum(Lorentzian(1.0, 1.0), ChannelParams(1.0, 1.0, 1.5, n_uses))
        phases = sample_phases_direct(cov, 79, n)
        reference = serial_direct(cov, 79, n)
        for label in (CoherenceLabel(0, (1 << n_uses) - 1, n_uses), mixed_label(n_uses)):
            assert repr(mc_decay_factor(label, phases)) == repr(serial_decay_factor(label, reference))

    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("n", ESTIMATOR_SIZES)
    def test_fidelity_matches_serial_reference(self, threads, n, order):
        cov = PhaseCovariance.from_damping(0.6, [1.0, 0.5, 0.25])
        # the memory order decides how the whole-array product rounds a row;
        # a mean absorbs a last-bit change in one row only at times
        for seed in range(83, 91):
            phases = np.asarray(sample_phases_direct(cov, seed, n), order=order)
            reference = np.asarray(serial_direct(cov, seed, n), order=order)
            assert repr(mc_tqc_fidelity(phases)) == repr(serial_tqc_fidelity(reference))

    def test_identity_with_more_threads_than_cpus_and_frequent_switches(self, monkeypatch):
        monkeypatch.setattr(montecarlo, "_usable_cpus", lambda: 8)
        cov = PhaseCovariance.from_damping(0.6, [1.0, 0.5, 0.25])
        label = mixed_label(3)
        estimates = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for n in (5003, 200_000):
                phases = sample_phases_direct(cov, 89, n)
                estimates.append((n, mc_decay_factor(label, phases), mc_tqc_fidelity(phases)))
        finally:
            sys.setswitchinterval(interval)
        for n, decay, fidelity in estimates:
            reference = serial_direct(cov, 89, n)
            assert repr(decay) == repr(serial_decay_factor(label, reference))
            assert repr(fidelity) == repr(serial_tqc_fidelity(reference))


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

    @pytest.mark.parametrize("n", [-1, 1.5])
    def test_rejects_bad_sample_count(self, n):
        cov = PhaseCovariance.from_damping(0.8, [1.0, 0.3, 0.1])
        with pytest.raises(DomainError, match="sample count n must be"):
            sample_phases_direct(cov, 1, n)

    def test_numpy_integer_sample_count(self):
        cov = PhaseCovariance.from_damping(0.8, [1.0, 0.3, 0.1])
        a = sample_phases_direct(cov, 5, np.int64(100))
        assert np.array_equal(a, sample_phases_direct(cov, 5, 100))


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

    @pytest.mark.parametrize("dt", [0.0, -1e-3, math.nan])
    def test_rejects_non_positive_step(self, dt):
        with pytest.raises(DomainError, match="time step dt must be positive"):
            sample_phases_trajectory(
                Lorentzian(1.0, 1.0), ChannelParams(1.0, 1.0, 1.0, 2), 1, 10, dt=dt
            )

    def test_rejects_step_with_non_finite_step_count(self):
        # tau_p / dt overflows to inf, which math.ceil cannot convert
        with pytest.raises(DomainError, match="dt=5e-324"):
            sample_phases_trajectory(
                Lorentzian(1.0, 1.0), ChannelParams(1.0, 1.0, 1.0, 3), 1, 10, dt=5e-324
            )

    @pytest.mark.parametrize("dt", [1e-12, 1e-300])
    def test_rejects_step_past_the_draw_budget(self, dt):
        # 10 paths of 3 windows of tau_p/dt steps would draw ~3e13 or ~3e301 normals
        with pytest.raises(DomainError, match=f"time step dt={dt} .*budget of {TRAJECTORY_BUDGET}"):
            sample_phases_trajectory(
                Lorentzian(1.0, 1.0), ChannelParams(1.0, 1.0, 1.0, 3), 1, 10, dt=dt
            )

    def test_no_paths_draw_nothing_at_any_step(self):
        params = ChannelParams(1.0, 1.0, 1.0, 3)
        assert sample_phases_trajectory(Lorentzian(1.0, 1.0), params, 1, 0, 1e-300).shape == (0, 3)

    @pytest.mark.parametrize("tau, draws", [(1.0, 4 * (1 + 3 * 50)), (1.5, 4 * (1 + 3 * 50 + 2))], ids=["no-gap", "gap"])
    def test_budget_counts_every_draw(self, monkeypatch, tau, draws):
        # per path: the start state, 50 steps per window, one normal per gap
        spec, params = Lorentzian(1.0, 1.0), ChannelParams(1.0, 1.0, tau, 3)
        expected = sample_phases_trajectory(spec, params, 3, 4, 1.0 / 50)
        monkeypatch.setattr(montecarlo, "TRAJECTORY_BUDGET", draws)
        assert np.array_equal(sample_phases_trajectory(spec, params, 3, 4, 1.0 / 50), expected)
        monkeypatch.setattr(montecarlo, "TRAJECTORY_BUDGET", draws - 1)
        with pytest.raises(DomainError, match="dt=0.02"):
            sample_phases_trajectory(spec, params, 3, 4, 1.0 / 50)

    # at dt = 1e-9 each of the 10 paths asks for a (1e9, 1) step array, 8 GB
    # that the draw touches: only a child that limits its own address space
    # can show a check that comes too late without the machine running out
    @pytest.mark.skipif(resource is None, reason="needs the resource module")
    def test_rejects_step_past_the_draw_budget_before_allocating(self):
        script = textwrap.dedent(
            """
            import resource
            resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))
            from memphase import ChannelParams, Lorentzian, sample_phases_trajectory
            from memphase.errors import DomainError
            try:
                sample_phases_trajectory(
                    Lorentzian(1.0, 1.0), ChannelParams(1.0, 1.0, 1.0, 3), 1, 10, dt=1e-9
                )
            except DomainError as exc:
                print(f"DomainError: {exc}")
            """
        )
        package_root = os.path.dirname(os.path.dirname(memphase.__file__))
        done = subprocess.run(
            [sys.executable, "-c", script],
            env=dict(os.environ, PYTHONPATH=package_root),
            capture_output=True, text=True, timeout=60,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.startswith("DomainError: 10 paths of 3 windows at time step dt=1e-09")

    @pytest.mark.parametrize("n, loop_steps", [(4, 4 * 3 * 50), (50, 20 * 3 * 50)], ids=["4-paths", "50-paths"])
    def test_step_budget_counts_every_loop_step(self, monkeypatch, n, loop_steps):
        # one loop step per step of each window in each non-empty substream
        spec, params = Lorentzian(1.0, 1.0), ChannelParams(1.0, 1.0, 1.5, 3)
        expected = sample_phases_trajectory(spec, params, 3, n, 1.0 / 50)
        monkeypatch.setattr(montecarlo, "TRAJECTORY_STEP_BUDGET", loop_steps)
        assert np.array_equal(sample_phases_trajectory(spec, params, 3, n, 1.0 / 50), expected)
        monkeypatch.setattr(montecarlo, "TRAJECTORY_STEP_BUDGET", loop_steps - 1)
        with pytest.raises(DomainError, match=f"dt=0.02 .*{loop_steps} loop steps"):
            sample_phases_trajectory(spec, params, 3, n, 1.0 / 50)

    # 10 paths at dt = 1e-6 draw 3e7 normals, within the draw budget, but
    # take 3e7 steps of the Python loop, minutes of it: a child with a
    # timeout fails where the check is missing instead of hanging
    def test_rejects_step_past_the_loop_budget_at_once(self):
        script = textwrap.dedent(
            """
            from memphase import ChannelParams, Lorentzian, sample_phases_trajectory
            from memphase.errors import DomainError
            try:
                sample_phases_trajectory(
                    Lorentzian(1.0, 1.0), ChannelParams(1.0, 1.0, 1.0, 3), 1, 10, dt=1e-6
                )
            except DomainError as exc:
                print(f"DomainError: {exc}")
            """
        )
        package_root = os.path.dirname(os.path.dirname(memphase.__file__))
        done = subprocess.run(
            [sys.executable, "-c", script],
            env=dict(os.environ, PYTHONPATH=package_root),
            capture_output=True, text=True, timeout=60,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.startswith("DomainError: 10 paths of 3 windows at time step dt=1e-06")
        assert f"budget of {TRAJECTORY_STEP_BUDGET}" in done.stdout

    @pytest.mark.parametrize("n", [-1, 1.5])
    def test_rejects_bad_sample_count(self, n):
        with pytest.raises(DomainError, match="sample count n must be"):
            sample_phases_trajectory(
                Lorentzian(1.0, 1.0), ChannelParams(1.0, 1.0, 1.0, 2), 1, n, dt=1e-2
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

    # pinned at the size validate samples; repr round-trips every float, so
    # equal reprs are equal bits
    @pytest.mark.parametrize(
        "n_uses,expected",
        [
            (
                3,
                "McEstimate(value=(0.5036258571128672-0.0005309626977533691j), "
                "standard_error=0.0011798589094267219, n_samples=200000, "
                "imag_standard_error=0.0015296258312369245)",
            ),
            (
                8,
                "McEstimate(value=(0.2764775312700275+0.0010470724115874826j), "
                "standard_error=0.0014608135149641861, n_samples=200000, "
                "imag_standard_error=0.0015760210516682076)",
            ),
        ],
    )
    def test_golden_estimate(self, n_uses, expected):
        cov = covariance_from_spectrum(Lorentzian(1.0, 1.0), ChannelParams(1.0, 1.0, 1.5, n_uses))
        phases = sample_phases_direct(cov, 79, 200_000)
        assert repr(mc_decay_factor(mixed_label(n_uses), phases)) == expected

    def test_zero_dimensional_ensemble_is_a_shape_error(self):
        label = CoherenceLabel(0, 1, 1)
        with pytest.raises(DimensionMismatch, match=r"ensemble shape \(\) does not match"):
            mc_decay_factor(label, np.float64(0.3))
        for empty in (np.empty(0), np.empty((0, 1))):
            with pytest.raises(EmptyEnsemble):
                mc_decay_factor(label, empty)


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

    # at this seed the memory order changes the last bits of the estimate,
    # since it decides how the product c @ w1 rounds a row
    @pytest.mark.parametrize(
        "order,expected",
        [
            (
                "C",
                "McEstimate(value=0.8819071740507552, standard_error=0.00038933151418470277, "
                "n_samples=200000, imag_standard_error=0.0)",
            ),
            (
                "F",
                "McEstimate(value=0.8819071740507555, standard_error=0.0003893315141847027, "
                "n_samples=200000, imag_standard_error=0.0)",
            ),
        ],
    )
    def test_golden_estimate(self, order, expected):
        cov = PhaseCovariance.from_damping(0.6, [1.0, 0.5, 0.25])
        phases = np.asarray(sample_phases_direct(cov, 87, 200_000), order=order)
        assert repr(mc_tqc_fidelity(phases)) == expected

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

    def test_zero_dimensional_ensemble_is_a_shape_error(self):
        with pytest.raises(DimensionMismatch, match=r"got \(\)"):
            mc_tqc_fidelity(0.3)
        for empty in (np.empty(0), np.empty((0, 3))):
            with pytest.raises(EmptyEnsemble):
                mc_tqc_fidelity(empty)


class TestRandomFeasibleCovariance:
    def test_helper_produces_valid_covariances(self, rng):
        for n in (1, 2, 3, 4, 5):
            cov = random_feasible_covariance(rng, n)
            assert cov.n_uses == n
            assert np.linalg.eigvalsh(cov.sigma)[0] >= -1e-10 * cov.eta_sq
