"""Exact N-use correlated dephasing map on register density matrices.

The channel is diagonal in the computational basis: each matrix element
(j, l) is multiplied by a coherence decay factor

    D_jl = g ** (sum_k s_k^2 + 2 sum_{k>k'} s_k s_k' mu_{k-k'}),

where s_k = l_k - j_k in {-1, 0, +1} is the transmitted-qubit weight of the
coherence and g the single-use damping.  Populations (s = 0) are untouched.
Equivalently D_jl = exp(-2 s^T Sigma s); ``decay_factor`` evaluates the two
forms side by side as an internal consistency check.

``apply_channel`` builds the whole decay matrix from one quadratic form.
With B the (dim, N) 0/1 bits of the transmitted qubits (in use order) and T
the Toeplitz matrix of mu, the exponent of coherence (j, l) is

    E_jl = s^T T s = q_j + q_l - 2 M_jl,   M = B T B^T,   q = diag(M),

so the cost is one (dim, N) x (N, dim) product, and E_jj = 0 exactly on
the populations.

Validated density matrices must be finite, Hermitian, of unit trace and
positive semidefinite down to EIGENVALUE_FLOOR.  A state is validated where
it enters from outside and where the channel makes it (``apply_channel``),
nowhere else.  The checks run in this order:

1. finiteness of every entry;
2. Hermiticity: max |m - m^H| <= HERMITICITY_ATOL.  Above HERMITICITY_BLOCK
   rows the maximum is taken block by block: rows r:r+b from the diagonal
   on are compared with the conjugate of the matching column block,
   m[r:, r:r+b].  That reads the transpose one contiguous slab at a time,
   and since |m_ij - conj(m_ji)| equals |m_ji - conj(m_ij)| exactly, the
   blocks at and right of the diagonal give the same maximum as the whole
   matrix;
3. the trace, to TRACE_ATOL;
4. positivity, by a Cholesky factorization of m - EIGENVALUE_FLOOR * I,
   which exists exactly when every eigenvalue lies above the floor.  The
   shift is applied in place to the diagonal of one copy of m.  The
   eigenvalues themselves are computed only when the factorization fails.

Register convention: qubit position 0 is the most significant bit of the
basis index (leftmost factor of the tensor product).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .correlation import PhaseCovariance
from .errors import DimensionMismatch, DomainError, NotPositiveSemidefinite, PositionOutOfRange

__all__ = [
    "CoherenceLabel",
    "DensityMatrix",
    "decay_exponent",
    "decay_factor",
    "apply_channel",
]

HERMITICITY_ATOL = 1e-12
HERMITICITY_BLOCK = 64
TRACE_ATOL = 1e-12
EIGENVALUE_FLOOR = -1e-10


def _basis_bits(indices, n_qubits: int, positions) -> np.ndarray:
    """0/1 bits of basis indices at the given register positions.

    Position 0 is the most significant bit.  The result has shape
    ``np.shape(indices) + (len(positions),)``, one column per position in
    the order given.
    """
    shifts = np.array([n_qubits - 1 - p for p in positions], dtype=np.int64)
    bits = (np.asarray(indices)[..., None] >> shifts) & 1
    return bits.astype(np.int64, copy=False)


def _hermiticity_defect(m: np.ndarray) -> float:
    """max |m - m^H|, compared in row blocks above HERMITICITY_BLOCK rows."""
    dim = m.shape[0]
    if dim <= HERMITICITY_BLOCK:
        return np.abs(m - m.conj().T).max()
    b = HERMITICITY_BLOCK
    return max(
        np.abs(m[r : r + b, r:] - m[r:, r : r + b].conj().T).max()
        for r in range(0, dim, b)
    )


@dataclass(frozen=True)
class CoherenceLabel:
    """Basis pair (j, l) of an n-qubit register, identifying one coherence."""

    j: int
    l: int
    n_qubits: int

    def __post_init__(self):
        if self.n_qubits < 0:
            raise DimensionMismatch(
                f"register size must be non-negative, got {self.n_qubits} qubits"
            )
        dim = 1 << self.n_qubits
        if not (0 <= self.j < dim and 0 <= self.l < dim):
            raise PositionOutOfRange(
                f"basis indices must lie in [0, {dim}), got j={self.j}, l={self.l}"
            )

    @classmethod
    def from_bitstrings(cls, j: str, l: str) -> "CoherenceLabel":
        if len(j) != len(l):
            raise DimensionMismatch(f"bitstrings differ in length: {j!r} vs {l!r}")
        # int(x, 2) alone also takes a sign, a 0b prefix and underscores
        if not set(j + l) <= {"0", "1"}:
            raise DomainError(f"bitstrings must be made of 0 and 1, got {j!r}, {l!r}")
        return cls(int(j, 2), int(l, 2), len(j))

    @functools.cached_property
    def s(self) -> np.ndarray:
        """Weights s_k = l_k - j_k per qubit position (computed once, read-only)."""
        # object dtype keeps the shifts exact on registers wider than 63 qubits
        pair = np.array([self.l, self.j], dtype=object)
        s = np.subtract(*_basis_bits(pair, self.n_qubits, range(self.n_qubits)))
        s.flags.writeable = False
        return s

    @property
    def is_population(self) -> bool:
        return self.j == self.l


class DensityMatrix:
    """Dense 2^n x 2^n density operator with validated invariants.

    Immutable: the matrix is a read-only array and the attribute cannot be rebound.
    """

    __slots__ = ("matrix",)

    def __init__(self, matrix, *, validate: bool = True):
        m = np.array(matrix, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise DimensionMismatch(f"density matrix must be square, got {m.shape}")
        dim = m.shape[0]
        if dim == 0 or dim & (dim - 1):
            raise DimensionMismatch(f"dimension {dim} is not a power of two")
        if validate:
            # NaN compares false against every tolerance below, and what
            # LAPACK does with it is no check
            if not np.isfinite(m).all():
                raise ValueError("density matrix has non-finite entries")
            if _hermiticity_defect(m) > HERMITICITY_ATOL:
                raise ValueError("density matrix is not Hermitian")
            if abs(m.trace() - 1.0) > TRACE_ATOL:
                raise ValueError(f"density matrix trace {m.trace():.15f} != 1")
            shifted = m.copy()
            shifted.flat[:: dim + 1] -= EIGENVALUE_FLOOR
            try:
                np.linalg.cholesky(shifted)
            except np.linalg.LinAlgError:
                # the factorization can also break down on rounding right at
                # the floor; the eigenvalues decide then
                w = np.linalg.eigvalsh(m)
                if w[0] < EIGENVALUE_FLOOR:
                    raise NotPositiveSemidefinite(
                        f"density matrix has eigenvalue {w[0]:.3e}"
                    ) from None
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)

    def __setattr__(self, name, value):
        raise AttributeError(f"DensityMatrix is immutable; cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"DensityMatrix is immutable; cannot delete {name!r}")

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @property
    def n_qubits(self) -> int:
        return self.dim.bit_length() - 1

    @classmethod
    def from_state_vector(cls, psi) -> "DensityMatrix":
        """|v><v| of the normalized vector v = psi / ||psi||.

        The vector is checked (one-dimensional, finite, nonzero norm); the
        outer product of such a vector is Hermitian, positive and of unit
        trace by construction, so it is not re-validated.
        """
        v = np.asarray(psi, dtype=complex)
        if v.ndim != 1:
            raise DimensionMismatch(f"state vector must be 1-D, got shape {v.shape}")
        if not np.isfinite(v).all():
            raise ValueError("state vector has non-finite entries")
        norm = np.linalg.norm(v)
        if not 0.0 < norm < np.inf:
            raise ValueError(f"state vector of norm {norm} cannot be normalized")
        v = v / norm
        return cls(np.outer(v, v.conj()), validate=False)


def decay_exponent(label: CoherenceLabel, cov: PhaseCovariance) -> float:
    """Damping power E = sum s_k^2 + 2 sum_{k>k'} s_k s_k' mu_{k-k'}, >= 0."""
    if label.n_qubits != cov.n_uses:
        raise DimensionMismatch(
            f"label has {label.n_qubits} qubits but covariance has "
            f"{cov.n_uses} uses"
        )
    s = label.s.astype(float)
    return float(s @ cov.mu_matrix @ s)


def _decay_factor_and_exponent(
    label: CoherenceLabel, cov: PhaseCovariance
) -> tuple[float, float]:
    """(D_jl, E) with E = ``decay_exponent``; see ``decay_factor``."""
    exponent = decay_exponent(label, cov)
    s = label.s.astype(float)
    d_power = cov.g**exponent
    d_exp = np.exp(-2.0 * float(s @ cov.sigma @ s))
    if not abs(d_power - d_exp) <= 1e-12:
        raise ArithmeticError(f"decay-factor forms disagree: {d_power!r} vs {d_exp!r}")
    return d_power, exponent


def decay_factor(label: CoherenceLabel, cov: PhaseCovariance) -> float:
    """Coherence decay factor D_jl in (0, 1] for one transmission round.

    Evaluates the damping-power form g**E with E = ``decay_exponent`` and
    cross-checks it against the covariance-exponential form
    exp(-2 s^T Sigma s).
    """
    return _decay_factor_and_exponent(label, cov)[0]


def _decay_matrix(dim: int, n_qubits: int, cov: PhaseCovariance, which) -> np.ndarray:
    """D_jl = g ** (q_j + q_l - 2 M_jl) with M = B T B^T and q = diag(M)."""
    b = _basis_bits(np.arange(dim), n_qubits, which).astype(float)  # (dim, N)
    m = (b @ cov.mu_matrix) @ b.T
    q = np.diag(m)  # a view of m: read before m is scaled in place
    exponents = q[:, None] + q[None, :]
    m *= 2.0
    exponents -= m
    return np.power(cov.g, exponents, out=exponents)


def apply_channel(rho: DensityMatrix, cov: PhaseCovariance, which) -> DensityMatrix:
    """Send the qubits at positions ``which`` through the channel, in order.

    ``which`` lists register positions in transmission order; its k-th entry
    is the qubit occupying channel use k, so lags between uses follow the
    ordering given here.  Spectator qubits are untouched.  Every coherence
    is scaled by g ** E_jl, with the exponents of all pairs taken from the
    quadratic form q_j + q_l - 2 (B T B^T)_jl (see the module docstring).
    Trace, Hermiticity and positivity are preserved in exact arithmetic, but
    a covariance accepted within PSD_TOLERANCE can still give non-finite or
    negative-eigenvalue output, so the output is validated in full.
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
    # an infinite or NaN entry is reported by the output validation, not
    # as a numpy warning
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        out = rho.matrix * _decay_matrix(rho.dim, n, cov, which)
    return DensityMatrix(out)
