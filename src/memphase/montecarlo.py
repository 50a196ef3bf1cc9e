"""Stochastic oracle: sampled phase realizations and averaged estimates.

Every closed form in the package can be checked against trajectory
averages.  Two independent sampling routes exist:

* ``sample_phases_direct`` draws (phi_1 .. phi_N) exactly from the
  multivariate normal with the given covariance, via a symmetric
  eigen-factorization (valid also for singular, perfectly correlated
  covariances).  It trusts ``PhaseCovariance``'s positivity verdict and
  clips the rounding negatives that verdict lets through to zero.
* ``sample_phases_trajectory`` integrates explicit drive paths through the
  transit windows.  The exponentially correlated drive admits an exact
  one-step update xi' = xi*exp(-rate*dt) + sqrt(variance*(1-exp(-2*rate*dt)))*z,
  so the only discretization error is the trapezoidal window quadrature of
  the path integral, O(dt^2); gaps between windows are jumped in a single
  exact step.

``mc_tqc_fidelity`` averages the three-qubit code's realized fidelity: it
folds the circuit layer's weight table (``circuit._code_weights``) into
three cosines per sample.

Reproducibility contract: an ensemble is drawn from N_SUBSTREAMS
counter-based (Philox) substreams spawned from the seed.  Substream i fills
the i-th fixed block of rows, in order, so the ensemble is bit-identical for
a given (seed, n).  The substreams run on up to one thread per CPU the
process may use; each writes only its own rows, so the ensemble does not
depend on the thread count.  The draws are i.i.d., so every estimator
reports the sample mean with the plain standard error std(ddof=1)/sqrt(n).
Only the two samplers use the pool; the estimators are whole-array numpy
on the calling thread.
"""

from __future__ import annotations

import functools
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .channel import CoherenceLabel
from .circuit import _code_weights
from .correlation import PhaseCovariance
from .errors import DimensionMismatch, DomainError, EmptyEnsemble, StepTooCoarse, _integer
from .spectrum import Lorentzian

__all__ = [
    "McEstimate",
    "N_SUBSTREAMS",
    "TRAJECTORY_BUDGET",
    "TRAJECTORY_STEP_BUDGET",
    "sample_phases_direct",
    "sample_phases_trajectory",
    "mc_decay_factor",
    "mc_tqc_fidelity",
]

# number of Philox substreams an ensemble is split across.  It fixes which
# stream draws which sample, so changing it changes every ensemble.  Each
# substream fills a fixed block of rows, on up to one thread per usable CPU;
# the thread count never changes an ensemble.
N_SUBSTREAMS = 20

# normal draws one ``sample_phases_trajectory`` call may take.  Its step
# arrays hold at most one window's draws per path at a time, fewer doubles
# than the budget, so the budget also bounds its memory (1.6 GB); the
# largest draw in the test suite takes 1.2e8.
TRAJECTORY_BUDGET = 200_000_000

# Python loop steps one ``sample_phases_trajectory`` call may take: each
# non-empty substream advances its paths one step at a time through every
# window, at a few microseconds a step however few paths it holds, so this
# bounds the call's time (seconds) where the draw budget does not; the
# largest call in the test suite takes 12 000.
TRAJECTORY_STEP_BUDGET = 1_000_000


@dataclass(frozen=True)
class McEstimate:
    """A Monte Carlo estimate with its statistical uncertainty.

    ``standard_error`` refers to the real part; complex-valued estimates
    carry the imaginary-part uncertainty separately.
    """

    value: complex | float
    standard_error: float
    n_samples: int
    imag_standard_error: float = 0.0


def _standard_error(x: np.ndarray) -> float:
    """Standard error std(ddof=1)/sqrt(n) of the mean of i.i.d. samples; 0 for n = 1."""
    n = x.shape[0]
    return float(x.std(ddof=1) / math.sqrt(n)) if n > 1 else 0.0


def _chunk_sizes(n: int) -> list[int]:
    base, extra = divmod(n, N_SUBSTREAMS)
    return [base + (1 if i < extra else 0) for i in range(N_SUBSTREAMS)]


def _stream_generators(seed: int) -> list[np.random.Generator]:
    seq = np.random.SeedSequence(seed)
    return [np.random.Generator(np.random.Philox(child)) for child in seq.spawn(N_SUBSTREAMS)]


def _usable_cpus() -> int:
    """Number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _fill_substreams(fill, seed: int, n: int) -> None:
    """Call ``fill(gen, rows)`` for every non-empty substream of an n-row ensemble.

    Substream i draws block i's fixed slice of the rows (``_chunk_sizes``),
    so the ensemble depends on (seed, n) alone.  The calls are dealt
    round-robin into one share per usable CPU, capped at the number of
    calls; the calling thread runs the first share and a pool thread each
    other one, so a call starts at most one thread per further CPU.  An
    error raised in any call reaches the caller.  ``fill`` must write only
    its own rows and call only numpy (whose RNG fills and BLAS products
    release the GIL), never a traced memphase function.
    """
    tasks = []
    start = 0
    for gen, size in zip(_stream_generators(seed), _chunk_sizes(n)):
        if size > 0:
            tasks.append((gen, slice(start, start + size)))
        start += size
    shares = max(1, min(_usable_cpus(), len(tasks)))

    def run(share):
        for gen, rows in tasks[share::shares]:
            fill(gen, rows)

    # a pool that is never submitted to starts no thread
    with ThreadPoolExecutor(max_workers=max(1, shares - 1)) as pool:
        futures = [pool.submit(run, share) for share in range(1, shares)]
        run(0)
        for future in futures:
            future.result()


def _sample_count(n) -> int:
    """The ensemble size n as an int; DomainError unless it is an integer >= 0."""
    n = _integer(n, DomainError, "sample count n must be an integer, got {!r}")
    if n < 0:
        raise DomainError(f"sample count n must be non-negative, got {n}")
    return n


def _covariance_factor(cov: PhaseCovariance) -> np.ndarray:
    """Symmetric factor L with L L^T = Sigma (eigendecomposition).

    Reads ``cov.sigma``, which the covariance builds when it is first read.
    ``PhaseCovariance`` has already decided that Sigma is positive
    semidefinite; the eigenvalues it let through below zero are rounding,
    and are clipped to zero here.
    """
    w, v = np.linalg.eigh(cov.sigma)
    # flush null-space rounding noise so degenerate (perfectly correlated)
    # directions stay exactly degenerate in the samples
    w = np.clip(w, 0.0, None)
    if w[-1] > 0.0:
        w[w < 1e-14 * w[-1]] = 0.0
    return v * np.sqrt(w)


def sample_phases_direct(cov: PhaseCovariance, seed: int, n: int) -> np.ndarray:
    """Exact multivariate-normal phase draws, shape (n, N).

    Deterministic for fixed (seed, n): N_SUBSTREAMS spawned Philox streams
    fill consecutive blocks of rows.  n must be an integer >= 0
    (DomainError otherwise).
    """
    n = _sample_count(n)
    factor_t = _covariance_factor(cov).T
    out = np.empty((n, cov.n_uses))

    def fill(gen, rows):
        z = gen.standard_normal((rows.stop - rows.start, cov.n_uses))
        np.matmul(z, factor_t, out=out[rows])

    _fill_substreams(fill, seed, n)
    return out


def sample_phases_trajectory(
    spec: Lorentzian,
    params,
    seed: int,
    n: int,
    dt: float,
) -> np.ndarray:
    """Phase draws from explicit exponentially-correlated drive paths.

    Each trajectory starts from the stationary distribution, is advanced by
    the exact one-step update on a grid of ceil(tau_p/dt) steps per transit
    window (dt is shrunk to divide tau_p evenly), and accumulates
    phi_k = (lambda/2) * trapezoid(xi) over window k.  Between windows the
    state jumps by one exact step of length tau - tau_p.  n must be an
    integer >= 0, and dt > 0 with tau_p/dt finite (DomainError otherwise).
    A call whose paths would draw more than TRAJECTORY_BUDGET normals, or
    take more than TRAJECTORY_STEP_BUDGET loop steps (one per step of a
    window per non-empty substream), raises ``DomainError`` naming dt before
    it allocates or draws anything.
    """
    if not isinstance(spec, Lorentzian):
        raise TypeError(
            "trajectory sampling requires the exponentially correlated "
            f"(Lorentzian) drive, got {type(spec).__name__}"
        )
    n = _sample_count(n)
    # also false for NaN
    if not dt > 0.0:
        raise DomainError(f"time step dt must be positive, got {dt}")
    if dt > params.tau_p / 50.0:
        raise StepTooCoarse(
            f"dt={dt} too coarse; need dt <= tau_p/50 = {params.tau_p / 50.0}"
        )
    steps = params.tau_p / dt
    if not math.isfinite(steps):
        raise DomainError(f"time step dt={dt} is too small: tau_p/dt = {steps} steps per window")
    m = math.ceil(steps)
    gap = params.tau - params.tau_p
    # per path: the start state, m per window and one per gap between windows
    draws = n * (1 + params.n_uses * m + (params.n_uses - 1 if gap > 0.0 else 0))
    if draws > TRAJECTORY_BUDGET:
        raise DomainError(
            f"{n} paths of {params.n_uses} windows at time step dt={dt} "
            f"({steps:.3g} steps per window) would draw more than the budget of "
            f"{TRAJECTORY_BUDGET} normals"
        )
    loop_steps = min(n, N_SUBSTREAMS) * params.n_uses * m
    if loop_steps > TRAJECTORY_STEP_BUDGET:
        raise DomainError(
            f"{n} paths of {params.n_uses} windows at time step dt={dt} "
            f"({m} steps per window in each of {min(n, N_SUBSTREAMS)} substreams) would take "
            f"{loop_steps} loop steps, more than the budget of {TRAJECTORY_STEP_BUDGET}"
        )
    dt_w = params.tau_p / m
    gamma, sig = spec.rate, math.sqrt(spec.variance)
    alpha = math.exp(-gamma * dt_w)
    beta = sig * math.sqrt(1.0 - alpha * alpha)
    alpha_gap = math.exp(-gamma * gap)
    beta_gap = sig * math.sqrt(1.0 - alpha_gap * alpha_gap)
    half_coupling = 0.5 * params.coupling

    out = np.empty((n, params.n_uses))

    def fill(gen, rows):
        size = rows.stop - rows.start
        # draw order per path block: start state, m normals per window, then
        # one gap normal between windows
        steps = np.empty((m, size))
        xi = sig * gen.standard_normal(size)
        for k in range(params.n_uses):
            gen.standard_normal(out=steps)
            # xi' = alpha*xi + beta*z rounds the two products, then their sum
            steps *= beta
            acc = 0.5 * xi
            for t in range(m - 1):
                xi *= alpha
                xi += steps[t]
                acc += xi
            xi *= alpha
            xi += steps[m - 1]
            acc += 0.5 * xi
            out[rows, k] = half_coupling * dt_w * acc
            if gap > 0.0 and k + 1 < params.n_uses:
                xi = alpha_gap * xi + beta_gap * gen.standard_normal(size)

    _fill_substreams(fill, seed, n)
    return out


def mc_decay_factor(label: CoherenceLabel, phases: np.ndarray) -> McEstimate:
    """Empirical mean of exp(2i sum_k s_k phi_k) over the ensemble.

    The imaginary part must be statistically compatible with zero (the
    phases are symmetric zero-mean Gaussians); its own standard error is
    reported alongside.
    """
    phases = np.asarray(phases)
    if phases.ndim >= 1 and phases.shape[0] == 0:
        raise EmptyEnsemble("cannot estimate a decay factor from zero samples")
    if phases.ndim != 2 or phases.shape[1] != label.n_qubits:
        raise DimensionMismatch(
            f"ensemble shape {phases.shape} does not match label on "
            f"{label.n_qubits} qubits"
        )
    n = phases.shape[0]
    z = 2j * (phases @ label.s.astype(float))
    np.exp(z, out=z)
    return McEstimate(complex(z.mean()), _standard_error(z.real), n, _standard_error(z.imag))


# --- per-realization code pipeline ------------------------------------------
#
# ``circuit._code_weights`` gives the code's realized fidelity as
# F(phi) = sum_s c_s cos(2 s.phi) over the 27 weight vectors s in {-1,0,1}^3.
# The pipeline gives equal weights to +e_k and -e_k, equal weights to the
# eight all-+-1 vectors, and zero weight to every vector with two nonzero
# entries, so with the product identity
#
#   sum_{s in {+-1}^3} cos(2 s.phi) = 8 cos(2 phi_Q) cos(2 phi_A) cos(2 phi_B)
#
# the sum folds to three cosines per realization:
#
#   F(phi) = w0 + sum_k w1_k cos(2 phi_k) + w3 prod_k cos(2 phi_k),
#
# w0 = c_0, w1_k = c_{+e_k} + c_{-e_k}, w3 = sum of the eight all-+-1 weights.

# absolute tolerance of the structure checks the fold rests on
_FOLD_TOLERANCE = 1e-12


def _fold_weights(coeffs: np.ndarray) -> tuple[float, np.ndarray, float]:
    """Fold the (3, 3, 3) weights c_s, indexed by s + 1, into (w0, w1, w3).

    Raises if the fold is invalid.
    """
    units = np.eye(3, dtype=int)
    plus, minus = coeffs[tuple(1 + units)], coeffs[tuple(1 - units)]
    support = np.abs(np.indices(coeffs.shape) - 1).sum(axis=0)
    pairs, triples = coeffs[support == 2], coeffs[support == 3]
    if np.any(np.abs(plus - minus) > _FOLD_TOLERANCE):
        raise ArithmeticError(f"weights of +e_k and -e_k differ: {plus!r} vs {minus!r}")
    if triples.max() - triples.min() > _FOLD_TOLERANCE:
        raise ArithmeticError(f"the eight all-+-1 weights differ: {triples!r}")
    if np.any(np.abs(pairs) > _FOLD_TOLERANCE):
        raise ArithmeticError(f"weights with two nonzero entries are not 0: {pairs!r}")
    w1 = plus + minus
    w1.flags.writeable = False
    return float(coeffs[1, 1, 1]), w1, float(triples.sum())


@functools.cache
def _tqc_weights() -> tuple[float, np.ndarray, float]:
    # every caller shares the cached, read-only w1
    return _fold_weights(_code_weights())


def mc_tqc_fidelity(phases: np.ndarray) -> McEstimate:
    """Code fidelity averaged over realized phase triples (Q, A, B order).

    Each sample's fidelity is the encode/decode pipeline's trigonometric
    polynomial in folded form, F(phi) = w0 + sum_k w1_k cos(2 phi_k) +
    w3 prod_k cos(2 phi_k), which rests on the product identity
    sum_{s in {+-1}^3} cos(2 s.phi) = 8 prod_k cos(2 phi_k).  The standard
    error is that of the mean of the per-sample fidelities.
    """
    phases = np.asarray(phases)
    if phases.ndim >= 1 and phases.shape[0] == 0:
        raise EmptyEnsemble("cannot estimate a fidelity from zero samples")
    if phases.ndim != 2 or phases.shape[1] != 3:
        raise DimensionMismatch(f"need (n, 3) phase samples, got {phases.shape}")
    n = phases.shape[0]
    w0, w1, w3 = _tqc_weights()
    c = 2.0 * phases
    np.cos(c, out=c)
    fid = w0 + c @ w1 + w3 * (c[:, 0] * c[:, 1] * c[:, 2])
    return McEstimate(float(fid.mean()), _standard_error(fid), n)
