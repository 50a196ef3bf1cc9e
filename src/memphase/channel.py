"""Exact N-use correlated dephasing map on register density matrices.

The channel is diagonal in the computational basis: each matrix element
(j, l) is multiplied by a coherence decay factor

    D_jl = g ** (sum_k s_k^2 + 2 sum_{k>k'} s_k s_k' mu_{k-k'}),

where s_k = l_k - j_k in {-1, 0, +1} is the transmitted-qubit weight of the
coherence and g the single-use damping.  Populations (s = 0) are untouched.
With E = s^T T s the exponent and g = exp(-2 eta^2), equivalently D_jl =
exp(-2 eta^2 E).  ``decay_factor`` returns this exponential form, and
checks it against g**E, which carries the rounding of g E times: the two
must agree within 1e-12 + 2 eps (E + 2) D.

``_decay_factors_and_exponents`` gives the decay factors and exponents of
many basis pairs, and ``decay_factor`` and ``decay_exponent`` are its
one-pair cases.  It reads the weights of all its pairs once per call, with
one ``_basis_bits`` call, as an (L, N) matrix.  The quadratic form stays
one row at a time, s @ T @ s, because batched forms round
differently: over 60 891 random rows (N = 1..39, numpy 2.4) the value
differed from the per-row one in the last digits on 12 968 rows for S @ T
then a per-row dot, 39 913 for ``einsum`` and 17 296 for (S @ T * S).sum(1),
and the ``decay`` rows must not change by a byte.

``apply_channel`` takes one decay factor per weight vector, not per matrix
entry.  A coherence (j, l) enters only through its weight vector s in
{-1, 0, 1}^N (in use order), numbered idx(s) = sum_k 3^k (s_k + 1).  Its
exponent is the lag-count form

    E(s) = sum_m c_m(s) mu_m,   c_0 = sum_k s_k^2,   c_m = 2 sum_k s_k s_{k+m},

whose counts c_m are exact integers, |c_m| <= 2 (N - m), kept as int8 per N
for the first (3^N + 1) / 2 vectors (``_lag_counts``).  E is summed
elementwise, m = 0, 1, ..., N - 1 in that order, so its bits depend on no
BLAS kernel or thread count.  Since c(-s) = c(s) and idx(-s) = 3^N - 1 -
idx(s), the other half of the table mirrors the first: ``np.power`` gives
D^(s) = g ** E^(s) once per pair {s, -s}, so D^(s) = D^(-s) bit for bit,
and D^(0) = 1 exactly.  With u_j = sum_k 3^k b_jk, b_jk the bit of basis
state j at the qubit of use k, coherence (j, l) has weight index
u_l - u_j + (3^N - 1) / 2.  The output rho o D^ is filled in row blocks of
about GATHER_ENTRIES entries, each gathering D^ at those indices, into one
output array: no (dim, dim) float array is formed.

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
Gram matrix E[z z^H] of z_j = exp(-i b_j . psi).  By the Schur product
theorem, with lambda = min(lambda_min(rho), 0), (rho - lambda I) o D is PSD,
and since D_jj = 1, rho o D >= lambda I.  Two bounds carry this over to the
computed output (u = eps/2 is the unit roundoff; rho and the output are
read, like the factorization reads them, as the Hermitian completions of
their lower triangles):

* T is PSD exactly.  ``eigvalsh`` returns the eigenvalues of T + dT with
  ||dT||_2 <= p(N) u ||T||_2, p a modest function of N, and ||T||_2 <= N
  since |mu| <= 1.  So ``cov.min_eigenvalue`` > N^2 eps (p(N) = 2N) gives
  lambda_min(T) > 0 by Weyl's inequality.
* Rounding cannot cross the floor.  E^(s) is an inner product of N terms,
  so |E^(s) - E(s)| <= gamma_N W(s), with W(s) = sum_m |c_m(s) mu_m| <= N^2
  and gamma_N = N u / (1 - N u) (Higham, *Accuracy and Stability of
  Numerical Algorithms*, 2nd ed., sec. 3.1).  So x_max = c gamma_N N^2
  bounds c |E^(s) - E(s)| for every s; it must be <= 1/2 (checked).  Let P
  = g ** E^(s) exactly.  Then D = P exp(c (E^ - E)) gives |P - D| <=
  (e^x_max - 1) P <= (x_max + x_max^2) P, and P <= D e^x_max <= e^x_max;
  ``np.power`` lies within one ulp of P, or within tau = 2^-1022 where it
  underflows, so |D^ - P| <= 2u P + tau.  Together, for every s,

      |D^(s) - D(s)| <= f = (2 x_max + 3u) e^x_max (1 + eps) + 5 tau,

  where f exceeds (x_max + x_max^2 + 2u) e^x_max + tau by at least
  (x_max / 2 + u) e^x_max, far more than the rounding of its own
  evaluation.

  The error X = D^ - D is symmetric, as D^ and D both are, so the
  completed output is the completed rho times D^.  X has a zero diagonal,
  so rho o X = (rho - lambda I) o X.  A PSD matrix has |entry_jl| <=
  sqrt(entry_jj entry_ll); with v_j = sqrt(rho_jj - EIGENVALUE_FLOOR) (rho
  validated down to the floor), |(rho o X)_jl| <= f v_j v_l.  That
  majorant has rank one, so for every unit vector z, by Cauchy-Schwarz,

      |z^H (rho o X) z| <= f (sum_j |z_j| v_j)^2 <= f S,   S = sum_j v_j^2,

  and ||rho o X||_2 <= f S for the Hermitian rho o X, where S <= 1 +
  TRACE_ATOL + dim |EIGENVALUE_FLOOR|.  The rounding of the product
  rho_jl D^_jl (exact on the diagonal, where D^ = 1) is at most
  u |rho_jl| D^_jl <= 2u v_j v_l, as D^ <= 2: the same majorant, so it
  adds less than 2 eps S in norm.  Hence

      lambda_min(out) >= lambda - epsilon,   epsilon = (f + 2 eps) S,

  which ``_decayed`` evaluates without touching an array.  Ten uses on ten
  qubits pass for every g above about 1e-98, eight uses for every g above
  about 1e-191; below that the output is factored.

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
integer (read by ``errors._integer``, so 1.5 is refused, not truncated), a
list of positions names distinct qubits of the register, and a register size
is a non-negative integer, read the same way.  This module owns the
convention: ``_basis_bits`` is the one bit reader, ``_read_bitstrings``
the one bitstring reader, ``_check_positions`` the one position check and
``_register_size`` the one size check, for the channel, the circuit layer
and the command line alike.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .correlation import PhaseCovariance
from .errors import DimensionMismatch, DomainError, NotPositiveSemidefinite, PositionOutOfRange
from .errors import _integer

__all__ = [
    "CoherenceLabel",
    "DensityMatrix",
    "decay_exponent",
    "decay_factor",
    "apply_channel",
]

HERMITICITY_ATOL = 1e-12
HERMITICITY_BLOCK = 64
GATHER_ENTRIES = 1 << 14
TRACE_ATOL = 1e-12
EIGENVALUE_FLOOR = -1e-10
_EPS = float(np.finfo(float).eps)
_TINY = float(np.finfo(float).tiny)
# 3^k for every use k of a register whose weight indices int64 holds
_POWERS_OF_3 = 3 ** np.arange(40)


def _basis_bits(indices, n_qubits: int, positions) -> np.ndarray:
    """0/1 bits of basis indices at the given register positions.

    Position 0 is the most significant bit.  The result has shape
    ``np.shape(indices) + (len(positions),)``, one column per position in
    the order given.  Up to 63 qubits the indices are shifted as a numpy
    integer array (int64 for Python ints); on wider registers, past what
    int64 holds, as Python ints in an object array, exact at any width.
    """
    shifts = [n_qubits - 1 - p for p in positions]
    if n_qubits <= 63:
        indices, shifts = np.asarray(indices), np.array(shifts, dtype=np.int64)
    else:
        indices, shifts = np.asarray(indices, dtype=object), np.array(shifts, dtype=object)
    return ((indices[..., None] >> shifts) & 1).astype(np.int64, copy=False)


def _pair_weights(pairs, n_qubits: int) -> np.ndarray:
    """Weights s = bits(l) - bits(j) of basis pairs (j, l), from one bit read.

    ``pairs`` holds (j, l) pairs in its last axis; the result replaces that
    axis by one int64 column per qubit position.
    """
    bits = _basis_bits(pairs, n_qubits, range(n_qubits))
    return bits[..., 1, :] - bits[..., 0, :]


def _position(p) -> int:
    """The qubit position p as an int; PositionOutOfRange unless p is an integer."""
    return _integer(p, PositionOutOfRange, "qubit position {!r} is not an integer")


def _register_size(n) -> int:
    """The register size n as an int; DimensionMismatch unless n is a non-negative integer."""
    size = _integer(n, DimensionMismatch, "register size must be an integer, got {!r}")
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


def _read_bitstrings(j: str, l: str) -> tuple[int, int]:
    """(j, l) read from two 0/1 bitstrings, position 0 first; their lengths must agree."""
    if len(j) != len(l):
        raise DimensionMismatch(f"bitstrings differ in length: {j!r} vs {l!r}")
    # int(x, 2) alone also takes a sign, a 0b prefix and underscores
    if not set(j + l) <= {"0", "1"}:
        raise DomainError(f"bitstrings must be made of 0 and 1, got {j!r}, {l!r}")
    # a leading 0 changes no value, and reads the empty 0-qubit label as 0
    return int("0" + j, 2), int("0" + l, 2)


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
            message = f"basis index {name} must be an integer, got {{!r}}"
            index = _integer(getattr(self, name), PositionOutOfRange, message)
            object.__setattr__(self, name, index)
        object.__setattr__(self, "n_qubits", _register_size(self.n_qubits))
        dim = 1 << self.n_qubits
        if not (0 <= self.j < dim and 0 <= self.l < dim):
            raise PositionOutOfRange(
                f"basis indices must lie in [0, {dim}), got j={self.j}, l={self.l}"
            )

    @classmethod
    def from_bitstrings(cls, j: str, l: str) -> "CoherenceLabel":
        return cls(*_read_bitstrings(j, l), len(j))

    @functools.cached_property
    def s(self) -> np.ndarray:
        """Weights s_k = l_k - j_k per qubit position (computed once, read-only)."""
        s = _pair_weights((self.j, self.l), self.n_qubits)
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


def _check_size(label: CoherenceLabel, cov: PhaseCovariance) -> None:
    """DimensionMismatch unless the label has one qubit per use of the covariance."""
    if label.n_qubits != cov.n_uses:
        raise DimensionMismatch(
            f"label has {label.n_qubits} qubits but covariance has "
            f"{cov.n_uses} uses"
        )


def _decay_factors_and_exponents(
    pairs, cov: PhaseCovariance
) -> Iterator[tuple[float, float]]:
    """(D_jl, E) of each basis pair (j, l) of a ``cov.n_uses``-qubit register, in order.

    The weights of all pairs come from one bit read, an (L, N) matrix; each
    row's quadratic form and the cross-check of ``decay_factor`` run as the
    rows are drawn, so an ArithmeticError is raised at the pair whose forms
    disagree.  D_jl is exp(-2 eta^2 E), checked against g**E.
    """
    weights = _pair_weights(pairs, cov.n_uses).astype(float)
    mu_matrix, eta_sq, g = cov.mu_matrix, cov.eta_sq, cov.g
    for s in weights:
        exponent = float(s @ mu_matrix @ s)
        # eta^2 E first: E = 0 gives exactly 1 even where -2 eta^2 overflows
        d = math.exp(-2.0 * (eta_sq * exponent))
        # g**E carries the rounding of g = exp(-2 eta^2) E times
        bound = 1e-12 + 2.0 * _EPS * (exponent + 2.0) * d
        d_power = g**exponent
        if not abs(d_power - d) <= bound:
            raise ArithmeticError(
                f"decay-factor forms disagree: g**E = {d_power!r} vs exp(-2 eta^2 E) = "
                f"{d!r} at E = {exponent!r}, beyond {bound!r}"
            )
        yield d, exponent


def decay_exponent(label: CoherenceLabel, cov: PhaseCovariance) -> float:
    """Damping power E = sum s_k^2 + 2 sum_{k>k'} s_k s_k' mu_{k-k'}, >= 0."""
    _check_size(label, cov)
    return next(_decay_factors_and_exponents([(label.j, label.l)], cov))[1]


def decay_factor(label: CoherenceLabel, cov: PhaseCovariance) -> float:
    """Coherence decay factor D_jl in (0, 1] for one transmission round.

    Evaluates the exponential form exp(-2 eta^2 E) with E =
    ``decay_exponent`` and cross-checks it against the damping-power form
    g**E, within 1e-12 + 2 eps (E + 2) D (module docstring).
    """
    _check_size(label, cov)
    return next(_decay_factors_and_exponents([(label.j, label.l)], cov))[0]


@functools.cache
def _lag_counts(n: int) -> np.ndarray:
    """Lag counts of the first (3^n + 1) / 2 weight vectors, an (n, (3^n + 1) / 2) int8 array.

    Column i is the vector s_k = (i // 3^k) % 3 - 1.  Row 0 holds c_0 =
    sum_k s_k^2 and row m holds c_m = 2 sum_k s_k s_{k+m}: exact integers,
    of magnitude at most 2 (n - m), which int8 holds up to 64 uses.  Built
    once per n and kept read-only.
    """
    # the kept table is allocated before its temporaries, so that it does
    # not pin the heap above them once they are freed
    counts = np.empty((n, (3**n + 1) // 2), dtype=np.int8)
    index = np.arange(counts.shape[1])
    s = np.array([index // 3**k % 3 - 1 for k in range(n)], dtype=np.int8)
    counts[0] = (s * s).sum(0)
    for m in range(1, n):
        counts[m] = 2 * (s[:-m] * s[m:]).sum(0)
    counts.flags.writeable = False
    return counts


def _exponents(cov: PhaseCovariance) -> np.ndarray:
    """E^(s) = sum_m c_m(s) mu_m of the first (3^N + 1) / 2 weight vectors.

    Summed elementwise, m = 0, 1, ..., N - 1 in that order.
    """
    counts = _lag_counts(cov.n_uses)
    exponents = counts[0].astype(float)  # mu_0 = 1
    for m in range(1, cov.n_uses):
        exponents += counts[m] * cov.mu[m]
    return exponents


def _mirrored(half: np.ndarray) -> np.ndarray:
    """A table over all 3^N weight vectors from its first half: entry 3^N - 1 - i (-s) is entry i (s)."""
    return np.concatenate((half, half[-2::-1]))


def _decay_error_bound(cov: PhaseCovariance) -> float:
    """f >= |D^(s) - D(s)| for every weight vector s, or infinity where x_max > 1/2.

    x_max = c gamma_N N^2 with c = -ln g (module docstring).
    """
    n = cov.n_uses
    gamma = n * 0.5 * _EPS / (1.0 - n * 0.5 * _EPS)
    rate = -math.log(cov.g) if cov.g > 0.0 else math.inf
    x_max = rate * gamma * n * n
    if not x_max <= 0.5:
        return math.inf
    return (2.0 * x_max + 1.5 * _EPS) * math.exp(x_max) * (1.0 + _EPS) + 5.0 * _TINY


def _decayed(rho: DensityMatrix, cov: PhaseCovariance, which) -> tuple[np.ndarray, float]:
    """(rho o D^, epsilon) for the checked positions ``which``, in use order.

    epsilon = (f + 2 eps) S, f from ``_decay_error_bound``, bounds how far
    rounding lowers the output's smallest eigenvalue (module docstring).
    It is infinite where the proof does not apply: T not positive definite
    beyond the backward error N^2 eps of ``eigvalsh``, or x_max > 1/2.
    """
    n, dim = cov.n_uses, rho.dim
    exponents = _exponents(cov)
    decay = _mirrored(np.power(cov.g, exponents, out=exponents))
    v_sq_sum = 1.0 + TRACE_ATOL - dim * EIGENVALUE_FLOOR
    epsilon = (_decay_error_bound(cov) + 2.0 * _EPS) * v_sq_sum
    if not cov.min_eigenvalue > n * n * _EPS:
        epsilon = math.inf

    # coherence (j, l) has weight index u_l - u_j + (3^N - 1) / 2
    u = _basis_bits(np.arange(dim), rho.n_qubits, which).dot(_POWERS_OF_3[:n])
    shifted = u + (3**n - 1) // 2
    rows = max(1, GATHER_ENTRIES // dim)
    if rows >= dim:
        # one block: the product itself is the output, with no slicing
        return rho.matrix * decay[shifted - u[:, None]], epsilon
    out = np.empty_like(rho.matrix)
    for r in range(0, dim, rows):
        index = shifted - u[r : r + rows, None]
        np.multiply(rho.matrix[r : r + rows], decay[index], out=out[r : r + rows])
    return out, epsilon


def apply_channel(rho: DensityMatrix, cov: PhaseCovariance, which) -> DensityMatrix:
    """Send the qubits at positions ``which`` through the channel, in order.

    ``which`` lists register positions in transmission order; its k-th entry
    is the qubit occupying channel use k, so lags between uses follow the
    ordering given here.  Spectator qubits are untouched.  Every coherence
    is scaled by D^(s) = g ** E(s) of its weight vector s, from one table
    over the 3^N weight vectors (see the module docstring).

    In exact arithmetic the decay matrix is a Gram matrix when T is PSD, so
    by the Schur product theorem the output is positive whenever rho is.
    The output is checked for finiteness, Hermiticity and trace.  Its
    positivity is taken as proven when ``cov.min_eigenvalue`` exceeds the
    backward-error margin N^2 eps of ``eigvalsh`` and a bound on how far
    the rounding of D can move the output's eigenvalues (one rank-one
    bound, from one bound on the rounding of every D^(s), see the module
    docstring) lies below |EIGENVALUE_FLOOR| / 2.  Otherwise (a covariance
    accepted within PSD_TOLERANCE, a singular T, a g so small that the
    bound fails: at ten uses, g below about 1e-98) the output is factored
    like any other.  The proof assumes rho is a density matrix: for a
    state built with ``validate=False`` the caller vouches for that.
    """
    which = tuple(which)
    if len(which) != cov.n_uses:
        raise DimensionMismatch(
            f"{len(which)} transmitted qubits but covariance has {cov.n_uses} uses"
        )
    which = _check_positions(which, rho.n_qubits)
    # an infinite or NaN entry is reported by the output validation, not
    # as a numpy warning
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        out, epsilon = _decayed(rho, cov, which)
    return DensityMatrix(_Handover(out, epsilon < 0.5 * abs(EIGENVALUE_FLOOR)))
