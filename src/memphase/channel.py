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
2. Hermiticity: max |m - m^H| <= HERMITICITY_ATOL.  The maximum is taken
   in blocks of b = HERMITICITY_BLOCK rows: rows r:r+b from the diagonal
   on are compared with the conjugate of the matching column block,
   m[r:, r:r+b].  That reads the transpose one contiguous slab at a time,
   and since |m_ij - conj(m_ji)| equals |m_ji - conj(m_ij)| exactly, the
   blocks at and right of the diagonal give the same maximum as the whole
   matrix.  Up to b rows this is one pass over the whole matrix;
3. the trace, to TRACE_ATOL;
4. positivity.  A channel output whose positivity the covariance proves
   (below) is not factored.  Every other matrix is, by a Cholesky
   factorization of m - EIGENVALUE_FLOOR * I, which exists exactly when
   every eigenvalue lies above the floor.  The shift is applied in place to
   the diagonal of one copy of m.  The eigenvalues themselves are computed
   only when the factorization fails.  Both read the lower triangle, so the
   matrix judged is the Hermitian completion of that triangle.

Positivity of the channel output from the covariance.  With c = -ln g >= 0
and T positive semidefinite,

    D_jl = exp(-c (b_l - b_j)^T T (b_l - b_j)) = E[exp(i (b_l - b_j) . psi)]

is the characteristic function of a Gaussian psi ~ N(0, 2cT), so D is the
Gram matrix E[u u^H] of u_j = exp(-i b_j . psi).  By the Schur product
theorem, with lambda = min(lambda_min(rho), 0), (rho - lambda I) o D is PSD,
and since D_jj = 1, rho o D >= lambda I.  Two bounds carry this over to the
computed output (u = eps/2 is the unit roundoff; rho and the output are
read, like the factorization reads them, as the Hermitian completions of
their lower triangles):

* T is PSD exactly.  ``eigvalsh`` returns the eigenvalues of T + dT with
  ||dT||_2 <= p(N) u ||T||_2, p a modest function of N, and ||T||_2 <= N
  since |mu| <= 1.  So ``cov.min_eigenvalue`` > N^2 eps (p(N) = 2N) gives
  lambda_min(T) > 0 by Weyl's inequality.
* Rounding cannot cross the floor.  Let A = B |T| B^T (M itself when every
  mu >= 0, else one more product) and W_jl = A_jj + A_ll + 2 A_jl.  The two
  N-term products, the sum and the difference give |E^_jl - E_jl| <=
  gamma W_jl, gamma = 2 (N + 3) eps: twice gamma_{2N+3} / (1 - gamma_{2N}),
  the divisor because A is itself computed.  With x_jl = c gamma W_jl <=
  4 c gamma N^2 <= 1 (checked), exp(x) - 1 <= 2x, and ``np.power`` within
  one ulp, or within tau = 2^-1022 where it underflows,

      |D^_jl - D_jl| <= F_jl = (2 x_jl + 3u) D^_jl + 3 tau.

  The completed error X of D^ has |X| <= F + F^T entrywise and a zero
  diagonal (D^_jj = D_jj = 1), so rho o X = (rho - lambda I) o X.  A PSD
  matrix has |entry_jl| <= sqrt(entry_jj entry_ll); with v_j =
  sqrt(rho_jj - EIGENVALUE_FLOOR) (rho validated down to the floor),

      ||rho o X||_2 <= ||diag(v) (F + F^T) diag(v)||_2
                    <= max_j v_j sum_l (F + F^T)_jl v_l.

  The rounding of the product rho_jl D^_jl, at most u |rho_jl| D^_jl with
  D^ <= e, adds at most 2 eps S in norm, S = sum_j v_j^2 <= 1 + TRACE_ATOL
  + dim |EIGENVALUE_FLOOR|.  Hence

      lambda_min(out) >= lambda - epsilon,
      epsilon = max_j v_j sum_l (F + F^T)_jl v_l + 2 eps S,

  which ``_rounding_bound`` evaluates in floating point, to a relative
  accuracy near dim u.  It first tries the scalar bound 2 f sqrt(dim) S +
  2 eps S, with f >= F_jl from x_jl <= 4 c gamma N^2 and sum_l v_l <=
  sqrt(dim S); that settles small registers without touching an array.

  The output is accepted without factoring when epsilon <
  |EIGENVALUE_FLOOR| / 2.  A PSD input (every state the package builds, to
  rounding far below the floor) then gives an output above
  EIGENVALUE_FLOOR / 2, which the factorization accepts too; an input
  validated nearer the floor than that keeps its own margin less epsilon.
  A covariance accepted only within PSD_TOLERANCE, a singular T (mu1 = mu2
  = 1, the lower mu2 band edge), a g that underflows to 0, and a bound too
  loose to pass leave the output to the factorization.

Register convention: qubit position 0 is the most significant bit of the
basis index (leftmost factor of the tensor product), a position is an
integer (read with ``operator.index``, so 1.5 is refused, not truncated), a
list of positions names distinct qubits of the register, and a register size
is a non-negative integer, read the same way.  This module owns the
convention: ``_basis_bits`` is the one bit reader, ``_check_positions`` the
one position check and ``_register_size`` the one size check, for the
channel and the circuit layer alike.
"""

from __future__ import annotations

import functools
import math
import operator
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
_EPS = np.finfo(float).eps
_TINY = np.finfo(float).tiny


def _basis_bits(indices, n_qubits: int, positions) -> np.ndarray:
    """0/1 bits of basis indices at the given register positions.

    Position 0 is the most significant bit.  The result has shape
    ``np.shape(indices) + (len(positions),)``, one column per position in
    the order given.  A single Python int is read with Python shifts, exact
    at any register width; an array of indices with int64 shifts, so on
    registers of at most 63 qubits.
    """
    shifts = [n_qubits - 1 - p for p in positions]
    if isinstance(indices, int):
        return np.array([(indices >> k) & 1 for k in shifts], dtype=np.int64)
    bits = (np.asarray(indices)[..., None] >> np.array(shifts, dtype=np.int64)) & 1
    return bits.astype(np.int64, copy=False)


def _position(p) -> int:
    """The qubit position p as an int; PositionOutOfRange unless p is an integer.

    Python and numpy integers pass; 1.5, 1.0 and "1" do not.
    """
    try:
        return operator.index(p)
    except TypeError:
        raise PositionOutOfRange(f"qubit position {p!r} is not an integer") from None


def _register_size(n) -> int:
    """The register size n as an int; DimensionMismatch unless n is a non-negative integer.

    Python and numpy integers pass; 4.0 and "4" do not.
    """
    try:
        size = operator.index(n)
    except TypeError:
        raise DimensionMismatch(f"register size must be an integer, got {n!r}") from None
    if size < 0:
        raise DimensionMismatch(f"register size must be non-negative, got {size} qubits")
    return size


def _check_positions(positions, n_qubits: int) -> tuple[int, ...]:
    """The positions as ints, once they are checked to be distinct integer qubits of the register.

    Raises PositionOutOfRange otherwise.
    """
    positions = tuple(map(_position, positions))
    if len(set(positions)) != len(positions):
        raise PositionOutOfRange(f"duplicate qubit positions in {positions}")
    for p in positions:
        if not 0 <= p < n_qubits:
            raise PositionOutOfRange(f"position {p} outside register of {n_qubits} qubits")
    return positions


def _hermiticity_defect(m: np.ndarray) -> float:
    """max |m - m^H|, compared in row blocks of HERMITICITY_BLOCK rows."""
    b = HERMITICITY_BLOCK
    return max(
        np.abs(m[r : r + b, r:] - m[r:, r : r + b].conj().T).max()
        for r in range(0, m.shape[0], b)
    )


@dataclass(frozen=True)
class CoherenceLabel:
    """Basis pair (j, l) of an n-qubit register, identifying one coherence."""

    j: int
    l: int
    n_qubits: int

    def __post_init__(self):
        for name in ("j", "l"):
            try:
                object.__setattr__(self, name, operator.index(getattr(self, name)))
            except TypeError:
                raise PositionOutOfRange(
                    f"basis index {name} must be an integer, got {getattr(self, name)!r}"
                ) from None
        object.__setattr__(self, "n_qubits", _register_size(self.n_qubits))
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
        # a leading 0 changes no value, and reads the empty 0-qubit label as 0
        return cls(int("0" + j, 2), int("0" + l, 2), len(j))

    @functools.cached_property
    def s(self) -> np.ndarray:
        """Weights s_k = l_k - j_k per qubit position (computed once, read-only)."""
        positions = range(self.n_qubits)
        s = _basis_bits(self.l, self.n_qubits, positions)
        s -= _basis_bits(self.j, self.n_qubits, positions)
        s.flags.writeable = False
        return s

    @property
    def is_population(self) -> bool:
        return self.j == self.l


@dataclass(frozen=True)
class _Handover:
    """A fresh complex array that ``apply_channel`` gives to a DensityMatrix.

    The array is kept without a copy, since nothing else holds it, and
    ``positive`` says whether its positivity is already proven.  It travels
    as the matrix argument, so the constructor keeps its public signature.
    """

    array: np.ndarray
    positive: bool


class DensityMatrix:
    """Dense 2^n x 2^n density operator with validated invariants.

    Immutable: the matrix is a read-only array and the attribute cannot be rebound.
    With ``validate=False`` the caller vouches that the matrix is a density
    matrix (finite, Hermitian, of unit trace and positive semidefinite): it
    is stored unchecked, and ``apply_channel``'s positivity proof relies on
    it.
    """

    __slots__ = ("matrix",)

    def __init__(self, matrix, *, validate: bool = True):
        if isinstance(matrix, _Handover):
            m, positive = matrix.array, matrix.positive
        else:
            m, positive = np.array(matrix, dtype=complex), False
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
            if not positive:
                shifted = m.copy()
                shifted.flat[:: dim + 1] -= EIGENVALUE_FLOOR
                try:
                    np.linalg.cholesky(shifted)
                except np.linalg.LinAlgError:
                    # the factorization can also break down on rounding right
                    # at the floor; the eigenvalues decide then
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


def _float_weights(label: CoherenceLabel, cov: PhaseCovariance) -> np.ndarray:
    """The label's weights s as floats, once its size is checked against the covariance."""
    if label.n_qubits != cov.n_uses:
        raise DimensionMismatch(
            f"label has {label.n_qubits} qubits but covariance has "
            f"{cov.n_uses} uses"
        )
    return label.s.astype(float)


def decay_exponent(label: CoherenceLabel, cov: PhaseCovariance) -> float:
    """Damping power E = sum s_k^2 + 2 sum_{k>k'} s_k s_k' mu_{k-k'}, >= 0."""
    s = _float_weights(label, cov)
    return float(s @ cov.mu_matrix @ s)


def _decay_factor_and_exponent(
    label: CoherenceLabel, cov: PhaseCovariance
) -> tuple[float, float]:
    """(D_jl, E) with E = ``decay_exponent``; see ``decay_factor``."""
    s = _float_weights(label, cov)
    exponent = float(s @ cov.mu_matrix @ s)
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


def _decay_matrix(bits: np.ndarray, cov: PhaseCovariance) -> tuple[np.ndarray, np.ndarray]:
    """(D, 2M): D_jl = g ** (q_j + q_l - 2 M_jl) with M = B T B^T and q = diag(M)."""
    m = (bits @ cov.mu_matrix) @ bits.T
    q = np.diag(m)  # a view of m: read before m is scaled in place
    exponents = q[:, None] + q[None, :]
    m *= 2.0
    exponents -= m
    return np.power(cov.g, exponents, out=exponents), m


def _rounding_bound(
    rho: DensityMatrix, cov: PhaseCovariance, bits: np.ndarray, m2: np.ndarray, d: np.ndarray
) -> float:
    """Bound epsilon (module docstring) on how far rounding lowers lambda_min(rho o D).

    ``m2`` is 2 B T B^T and ``d`` the decay matrix, as ``_decay_matrix``
    returns them; ``m2`` may be overwritten.  Infinite where the bound does
    not apply (4 c gamma N^2 > 1).  The scalar bound comes first; the
    weighted row sums are formed only when it exceeds |EIGENVALUE_FLOOR| / 2.
    """
    n, dim = cov.n_uses, d.shape[0]
    gamma = 2.0 * (n + 3) * _EPS
    rate = -math.log(cov.g) if cov.g > 0.0 else math.inf
    x_max = rate * gamma * 4.0 * n * n
    if not x_max <= 1.0:
        return math.inf
    # every F_jl is at most f_max, and sum_l v_l <= sqrt(dim sum_l v_l^2)
    f_max = (2.0 * x_max + 1.5 * _EPS) * math.exp(x_max) * (1.0 + _EPS) + 3.0 * _TINY
    v_sq_sum = 1.0 + TRACE_ATOL - dim * EIGENVALUE_FLOOR
    product = 2.0 * _EPS * v_sq_sum
    scalar = 2.0 * f_max * math.sqrt(dim) * v_sq_sum + product
    if scalar < 0.5 * abs(EIGENVALUE_FLOOR):
        return scalar
    a2 = m2 if cov.mu.min() >= 0.0 else 2.0 * ((bits @ np.abs(cov.mu_matrix)) @ bits.T)
    # F = (2 rate gamma W + 3u) o D + 3 tau with W_jl = h_j + h_l + 2 A_jl and
    # h = diag(A); the sums over l of (F + F^T)_jl v_l, without forming W or F
    h = 0.5 * np.diag(a2)
    wd = np.multiply(a2, d, out=a2)
    v = np.sqrt(np.diag(rho.matrix).real - EIGENVALUE_FLOOR)
    hv = h * v
    dv, vd = d @ v, v @ d
    w_sums = h * (dv + vd) + d @ hv + hv @ d + wd @ v + v @ wd
    sums = 2.0 * rate * gamma * w_sums + 1.5 * _EPS * (dv + vd) + 6.0 * _TINY * v.sum()
    return float((v * sums).max()) + product


def apply_channel(rho: DensityMatrix, cov: PhaseCovariance, which) -> DensityMatrix:
    """Send the qubits at positions ``which`` through the channel, in order.

    ``which`` lists register positions in transmission order; its k-th entry
    is the qubit occupying channel use k, so lags between uses follow the
    ordering given here.  Spectator qubits are untouched.  Every coherence
    is scaled by g ** E_jl, with the exponents of all pairs taken from the
    quadratic form q_j + q_l - 2 (B T B^T)_jl (see the module docstring).

    In exact arithmetic the decay matrix is a Gram matrix when T is PSD, so
    by the Schur product theorem the output is positive whenever rho is.
    The output is checked for finiteness, Hermiticity and trace.  Its
    positivity is taken as proven when ``cov.min_eigenvalue`` exceeds the
    backward-error margin N^2 eps of ``eigvalsh`` and a bound on how far
    the rounding of D can move the output's eigenvalues (weighted rows of
    the entrywise error, see the module docstring) lies below
    |EIGENVALUE_FLOOR| / 2.  Otherwise (a covariance accepted within
    PSD_TOLERANCE, a singular T, a loose bound) the output is factored like
    any other.  The proof assumes rho is a density matrix: for a state
    built with ``validate=False`` the caller vouches for that.
    """
    which = tuple(which)
    n = rho.n_qubits
    if len(which) != cov.n_uses:
        raise DimensionMismatch(
            f"{len(which)} transmitted qubits but covariance has {cov.n_uses} uses"
        )
    which = _check_positions(which, n)
    bits = _basis_bits(np.arange(rho.dim), n, which).astype(float)  # (dim, N)
    # an infinite or NaN entry is reported by the output validation, not
    # as a numpy warning
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        d, m2 = _decay_matrix(bits, cov)
        out = rho.matrix * d
        # T is PSD beyond the backward error of eigvalsh, and rounding in D
        # cannot carry the output's smallest eigenvalue across the floor
        positive = (
            cov.min_eigenvalue > cov.n_uses**2 * _EPS
            and _rounding_bound(rho, cov, bits, m2, d) < 0.5 * abs(EIGENVALUE_FLOOR)
        )
    del d, m2  # freed before a factorization allocates its two copies
    return DensityMatrix(_Handover(out, positive))
