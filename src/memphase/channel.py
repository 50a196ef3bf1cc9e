"""Exact N-use correlated dephasing map on register density matrices.

The channel is diagonal in the computational basis: each matrix element
(j, l) is multiplied by a coherence decay factor

    D_jl = g ** (sum_k s_k^2 + 2 sum_{k>k'} s_k s_k' mu_{k-k'}),

where s_k = l_k - j_k in {-1, 0, +1} is the transmitted-qubit weight of the
coherence and g the single-use damping.  Populations (s = 0) are untouched.
Equivalently D_jl = exp(-2 s^T Sigma s); the two forms are evaluated side by
side as an internal consistency check.

Register convention: qubit position 0 is the most significant bit of the
basis index (leftmost factor of the tensor product).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import toeplitz

from .correlation import PhaseCovariance
from .errors import DimensionMismatch, NotPositiveSemidefinite, PositionOutOfRange

__all__ = [
    "CoherenceLabel",
    "DensityMatrix",
    "decay_exponent",
    "decay_factor",
    "apply_channel",
]

HERMITICITY_ATOL = 1e-12
TRACE_ATOL = 1e-12
EIGENVALUE_FLOOR = -1e-10


def _bits(index: int, n_qubits: int) -> np.ndarray:
    """Bit vector of a basis index, position 0 = most significant."""
    return np.array([(index >> (n_qubits - 1 - p)) & 1 for p in range(n_qubits)])


@dataclass(frozen=True)
class CoherenceLabel:
    """Basis pair (j, l) of an n-qubit register, identifying one coherence."""

    j: int
    l: int
    n_qubits: int

    def __post_init__(self):
        dim = 1 << self.n_qubits
        if not (0 <= self.j < dim and 0 <= self.l < dim):
            raise PositionOutOfRange(
                f"basis indices must lie in [0, {dim}), got j={self.j}, l={self.l}"
            )

    @classmethod
    def from_bitstrings(cls, j: str, l: str) -> "CoherenceLabel":
        if len(j) != len(l):
            raise DimensionMismatch(f"bitstrings differ in length: {j!r} vs {l!r}")
        return cls(int(j, 2), int(l, 2), len(j))

    @property
    def s(self) -> np.ndarray:
        """Weights s_k = l_k - j_k per qubit position."""
        return _bits(self.l, self.n_qubits) - _bits(self.j, self.n_qubits)

    @property
    def is_population(self) -> bool:
        return self.j == self.l


class DensityMatrix:
    """Dense 2^n x 2^n density operator with validated invariants."""

    __slots__ = ("matrix",)

    def __init__(self, matrix, *, validate: bool = True):
        m = np.array(matrix, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise DimensionMismatch(f"density matrix must be square, got {m.shape}")
        n = m.shape[0].bit_length() - 1
        if 1 << n != m.shape[0]:
            raise DimensionMismatch(f"dimension {m.shape[0]} is not a power of two")
        if validate:
            if np.abs(m - m.conj().T).max() > HERMITICITY_ATOL:
                raise ValueError("density matrix is not Hermitian")
            if abs(m.trace() - 1.0) > TRACE_ATOL:
                raise ValueError(f"density matrix trace {m.trace():.15f} != 1")
            w = np.linalg.eigvalsh(m)
            if w[0] < EIGENVALUE_FLOOR:
                raise NotPositiveSemidefinite(
                    f"density matrix has eigenvalue {w[0]:.3e}"
                )
        m.flags.writeable = False
        self.matrix = m

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @property
    def n_qubits(self) -> int:
        return self.dim.bit_length() - 1

    @classmethod
    def from_state_vector(cls, psi) -> "DensityMatrix":
        v = np.asarray(psi, dtype=complex)
        v = v / np.linalg.norm(v)
        return cls(np.outer(v, v.conj()), validate=False)

    @classmethod
    def maximally_mixed(cls, n_qubits: int) -> "DensityMatrix":
        dim = 1 << n_qubits
        return cls(np.eye(dim, dtype=complex) / dim, validate=False)


def decay_exponent(label: CoherenceLabel, cov: PhaseCovariance) -> float:
    """Damping power E = sum s_k^2 + 2 sum_{k>k'} s_k s_k' mu_{k-k'}, >= 0."""
    if label.n_qubits != cov.n_uses:
        raise DimensionMismatch(
            f"label has {label.n_qubits} qubits but covariance has "
            f"{cov.n_uses} uses"
        )
    s = label.s.astype(float)
    return float(s @ toeplitz(cov.mu) @ s)


def decay_factor(label: CoherenceLabel, cov: PhaseCovariance) -> float:
    """Coherence decay factor D_jl in (0, 1] for one transmission round.

    Evaluates the damping-power form g**E with E = ``decay_exponent`` and
    cross-checks it against the covariance-exponential form
    exp(-2 s^T Sigma s).
    """
    exponent = decay_exponent(label, cov)
    s = label.s.astype(float)
    d_power = cov.g**exponent
    d_exp = np.exp(-2.0 * float(s @ cov.sigma @ s))
    if not abs(d_power - d_exp) <= 1e-12:
        raise ArithmeticError(f"decay-factor forms disagree: {d_power!r} vs {d_exp!r}")
    return d_power


def _decay_matrix(dim: int, n_qubits: int, cov: PhaseCovariance, which) -> np.ndarray:
    idx = np.arange(dim)
    shifts = np.array([n_qubits - 1 - p for p in which])
    bits = (idx[:, None] >> shifts[None, :]) & 1  # (dim, N), use order
    s = bits[None, :, :] - bits[:, None, :]  # s[j, l, k] = l_k - j_k
    t = toeplitz(cov.mu)
    exponents = np.einsum("jlk,kq,jlq->jl", s, t, s)
    return cov.g**exponents


def apply_channel(rho: DensityMatrix, cov: PhaseCovariance, which) -> DensityMatrix:
    """Send the qubits at positions ``which`` through the channel, in order.

    ``which`` lists register positions in transmission order; its k-th entry
    is the qubit occupying channel use k, so lags between uses follow the
    ordering given here.  Spectator qubits are untouched.  Trace, Hermiticity
    and positivity are preserved and re-validated on the output.
    """
    which = tuple(int(p) for p in which)
    n = rho.n_qubits
    if len(which) != cov.n_uses:
        raise DimensionMismatch(
            f"{len(which)} transmitted qubits but covariance has {cov.n_uses} uses"
        )
    if len(set(which)) != len(which):
        raise PositionOutOfRange(f"duplicate qubit positions in {which}")
    for p in which:
        if not 0 <= p < n:
            raise PositionOutOfRange(f"position {p} outside register of {n} qubits")
    decay = _decay_matrix(rho.dim, n, cov, which)
    return DensityMatrix(rho.matrix * decay)
