"""Stochastic oracle: sampled phase realizations and averaged estimates.

Every closed form in the package can be checked against trajectory
averages.  Two independent sampling routes exist:

* ``sample_phases_direct`` draws (phi_1 .. phi_N) exactly from the
  multivariate normal with the given covariance, via a symmetric
  eigen-factorization (valid also for singular, perfectly correlated
  covariances).
* ``sample_phases_trajectory`` integrates explicit drive paths through the
  transit windows.  The exponentially correlated drive admits an exact
  one-step update xi' = xi*exp(-rate*dt) + sqrt(variance*(1-exp(-2*rate*dt)))*z,
  so the only discretization error is the trapezoidal window quadrature of
  the path integral, O(dt^2); gaps between windows are jumped in a single
  exact step.

Reproducibility contract: an ensemble is drawn from N_SUBSTREAMS
counter-based (Philox) substreams spawned from the seed and concatenated in
order, so it is bit-identical for a given (seed, n).  The draws are i.i.d.,
so every estimator reports the sample mean with the plain standard error
std(ddof=1)/sqrt(n).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .channel import CoherenceLabel, _basis_bits
from .circuit import (
    DECODE_GATES,
    JointState,
    bell_state_rq,
    gate_unitary,
    prepare_bell_with_ancillas,
    tqc_encode,
)
from .correlation import PhaseCovariance
from .errors import (
    DimensionMismatch,
    EmptyEnsemble,
    NotPositiveSemidefinite,
    StepTooCoarse,
)
from .spectrum import Lorentzian

__all__ = [
    "McEstimate",
    "N_SUBSTREAMS",
    "sample_phases_direct",
    "sample_phases_trajectory",
    "mc_decay_factor",
    "mc_tqc_fidelity",
]

# number of Philox substreams an ensemble is split across.  It fixes which
# stream draws which sample, so changing it changes every ensemble.
N_SUBSTREAMS = 20


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


def _covariance_factor(cov: PhaseCovariance) -> np.ndarray:
    """Symmetric factor L with L L^T = Sigma (eigendecomposition, PSD-safe)."""
    sigma = cov.sigma
    w, v = np.linalg.eigh(sigma)
    floor = -1e-10 * max(cov.eta_sq, 1e-300)
    if w[0] < floor:
        raise NotPositiveSemidefinite(
            f"covariance eigenvalue {w[0]:.3e} below tolerance {floor:.3e}"
        )
    # flush null-space rounding noise so degenerate (perfectly correlated)
    # directions stay exactly degenerate in the samples
    w = np.clip(w, 0.0, None)
    if w[-1] > 0.0:
        w[w < 1e-14 * w[-1]] = 0.0
    return v * np.sqrt(w)


def sample_phases_direct(cov: PhaseCovariance, seed: int, n: int) -> np.ndarray:
    """Exact multivariate-normal phase draws, shape (n, N).

    Deterministic for fixed (seed, n): samples come from N_SUBSTREAMS spawned
    Philox streams concatenated in order.
    """
    factor = _covariance_factor(cov)
    chunks = []
    for gen, size in zip(_stream_generators(seed), _chunk_sizes(n)):
        z = gen.standard_normal((size, cov.n_uses))
        chunks.append(z @ factor.T)
    return np.vstack(chunks) if chunks else np.empty((0, cov.n_uses))


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
    state jumps by one exact step of length tau - tau_p.
    """
    if not isinstance(spec, Lorentzian):
        raise TypeError(
            "trajectory sampling requires the exponentially correlated "
            f"(Lorentzian) drive, got {type(spec).__name__}"
        )
    if dt > params.tau_p / 50.0:
        raise StepTooCoarse(
            f"dt={dt} too coarse; need dt <= tau_p/50 = {params.tau_p / 50.0}"
        )
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


def mc_decay_factor(label: CoherenceLabel, phases: np.ndarray) -> McEstimate:
    """Empirical mean of exp(2i sum_k s_k phi_k) over the ensemble.

    The imaginary part must be statistically compatible with zero (the
    phases are symmetric zero-mean Gaussians); its own standard error is
    reported alongside.
    """
    phases = np.asarray(phases)
    n = phases.shape[0]
    if n == 0:
        raise EmptyEnsemble("cannot estimate a decay factor from zero samples")
    if phases.ndim != 2 or phases.shape[1] != label.n_qubits:
        raise DimensionMismatch(
            f"ensemble shape {phases.shape} does not match label on "
            f"{label.n_qubits} qubits"
        )
    z = np.exp(2j * (phases @ label.s.astype(float)))
    return McEstimate(complex(z.mean()), _standard_error(z.real), n, _standard_error(z.imag))


# --- per-realization code pipeline ------------------------------------------
#
# For one phase realization the channel is the diagonal unitary
# U = (x)_k exp(-i sigma_z phi_k) on (Q, A, B), so the realized fidelity is
#
#   F(phi) = sum_{j,l} rho_enc[j,l] * exp(2i s(j,l).phi) * K[l,j],
#   K = U_dec^dag (|bell><bell|_RQ (x) 1_AB) U_dec,
#
# a fixed trigonometric polynomial in phi whose coefficients are grouped by
# the 27 distinct weight vectors s in {-1,0,1}^3.  Every gate and the encoded
# state are real, so the coefficients c_s are real and F is the cosine sum
# sum_s c_s cos(2 s.phi).  Averaging F over realizations equals the fidelity
# of the averaged state (linearity).

@functools.cache
def _tqc_weights() -> tuple[np.ndarray, np.ndarray]:
    rho_enc = tqc_encode(prepare_bell_with_ancillas()).rho.matrix
    u_dec = np.eye(16, dtype=complex)
    for gate in DECODE_GATES:
        u_dec = gate_unitary(gate, 4) @ u_dec
    psi = bell_state_rq()
    projector = np.kron(np.outer(psi, psi.conj()), np.eye(4, dtype=complex))
    k_mat = u_dec.conj().T @ projector @ u_dec

    bits = _basis_bits(np.arange(16), 4, (JointState.Q, JointState.A, JointState.B))
    coeffs: dict[tuple[int, int, int], complex] = {}
    for j in range(16):
        for l in range(16):
            w = rho_enc[j, l] * k_mat[l, j]
            if w == 0:
                continue
            s = tuple(int(b) for b in bits[l] - bits[j])
            coeffs[s] = coeffs.get(s, 0.0) + w
    s_mat = np.array(sorted(coeffs), dtype=float)
    c_vec = np.array([coeffs[tuple(int(x) for x in s)] for s in s_mat])
    if np.any(c_vec.imag != 0.0):
        raise ArithmeticError(f"pipeline weights are not real: {c_vec!r}")
    c_vec = c_vec.real
    if not abs(c_vec.sum() - 1.0) < 1e-12:
        raise ArithmeticError(f"noiseless pipeline fidelity is {c_vec.sum()!r}, not 1")
    # every caller shares the cached arrays
    s_mat.flags.writeable = False
    c_vec.flags.writeable = False
    return s_mat, c_vec


def mc_tqc_fidelity(phases: np.ndarray) -> McEstimate:
    """Code fidelity averaged over realized phase triples (Q, A, B order).

    Applies the realized dephasing unitary inside the encode/decode pipeline
    for every sample and averages; the standard error is that of the mean of
    the per-sample fidelities.
    """
    phases = np.asarray(phases)
    n = phases.shape[0]
    if n == 0:
        raise EmptyEnsemble("cannot estimate a fidelity from zero samples")
    if phases.ndim != 2 or phases.shape[1] != 3:
        raise DimensionMismatch(f"need (n, 3) phase samples, got {phases.shape}")
    s_mat, c_vec = _tqc_weights()
    fid = np.zeros(n)
    # one weight at a time: an (n, 27) matrix of cosines would cost 27 n floats
    for s, c in zip(s_mat, c_vec):
        fid += c * np.cos(2.0 * (phases @ s))
    return McEstimate(float(fid.mean()), _standard_error(fid), n)
