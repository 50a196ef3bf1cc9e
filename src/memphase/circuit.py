"""Minimal density-matrix circuit layer for the three-qubit phase code.

Register layout is fixed as (R, Q, A, B) = positions (0, 1, 2, 3): R is the
reference qubit purifying the source and is never touched by gates or by the
channel; Q carries the logical qubit; A and B are the code ancillas.

Encoding copies Q onto A and B with CNOTs and rotates all three code qubits
to the +/- basis with Hadamards, so that dephasing during transmission acts
like bit flips on the codewords.  Decoding rotates back, uncopies, and
applies a Toffoli that coherently corrects the single-flip syndromes.

Gates run as one loop over raw matrices, m = u @ m @ u^H, with each gate's
(u, u^H) pair built once per gate; ``tqc_encode``, ``tqc_decode`` and
``apply_gate`` (the one-gate case, which alone checks that R is untouched)
wrap the result in a ``JointState`` only at the end.  The encoded source,
``tqc_encode(prepare_bell_with_ancillas())``, is built here once and shared
read-only (``_encoded_source``): ``codes.fe_tqc_via_circuit`` sends it
through the channel and ``_code_weights`` reads its fidelity polynomial off
it, so the package encodes in one place.

A state is validated where it enters from outside and where the channel
makes it, nowhere else: a Hadamard, basis permutation or +-1 diagonal
conjugation keeps a valid state valid up to rounding, so the gate loop and
``apply_pauli_z`` build their outputs unvalidated.  ``_code_weights`` holds
the code's fidelity polynomial as a (3, 3, 3) weight table for Monte Carlo.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .channel import DensityMatrix, _basis_bits, _check_positions, _position, _register_size
from .errors import DimensionMismatch, PositionOutOfRange

__all__ = [
    "Gate",
    "hadamard",
    "cnot",
    "toffoli",
    "gate_unitary",
    "JointState",
    "prepare_bell_with_ancillas",
    "apply_gate",
    "apply_pauli_z",
    "tqc_encode",
    "tqc_decode",
    "partial_trace",
    "bell_state_rq",
    "entanglement_fidelity",
]

_H2 = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / math.sqrt(2.0)
_X2 = np.array([[0.0, 1.0], [1.0, 0.0]])


@dataclass(frozen=True)
class Gate:
    """One of Hadamard / CNOT / Toffoli at explicit register positions."""

    kind: str
    target: int
    controls: tuple[int, ...] = ()

    _N_CONTROLS = {"h": 0, "cnot": 1, "toffoli": 2}

    def __post_init__(self):
        if self.kind not in self._N_CONTROLS:
            raise ValueError(f"unknown gate kind {self.kind!r}")
        object.__setattr__(self, "target", _position(self.target))
        object.__setattr__(self, "controls", tuple(map(_position, self.controls)))
        if len(self.controls) != self._N_CONTROLS[self.kind]:
            raise ValueError(
                f"{self.kind} takes {self._N_CONTROLS[self.kind]} controls, "
                f"got {self.controls}"
            )
        if len({self.target, *self.controls}) != 1 + len(self.controls):
            raise ValueError(f"gate positions must be distinct: {self}")


def hadamard(target: int) -> Gate:
    return Gate("h", target)


def cnot(control: int, target: int) -> Gate:
    return Gate("cnot", target, (control,))


def toffoli(control1: int, control2: int, target: int) -> Gate:
    return Gate("toffoli", target, (control1, control2))


# typed, so that n_qubits = 4.0 misses the entry for 4 and meets the size check
@functools.lru_cache(maxsize=None, typed=True)
def gate_unitary(gate: Gate, n_qubits: int) -> np.ndarray:
    """Dense 2^n x 2^n unitary of the gate embedded at its positions.

    Built once per (gate, n_qubits); every caller shares the returned
    read-only array.  A register size that is not a non-negative integer
    raises DimensionMismatch.
    """
    n_qubits = _register_size(n_qubits)
    _check_positions((gate.target, *gate.controls), n_qubits)
    one_qubit = _H2 if gate.kind == "h" else _X2
    u = np.ones((1, 1))
    for p in range(n_qubits):
        u = np.kron(u, one_qubit if p == gate.target else np.eye(2))
    if gate.controls:
        # X on the target moves a basis index only where every control bit is 1
        fires = _basis_bits(np.arange(len(u)), n_qubits, gate.controls).all(axis=1)
        u = np.where(fires, u, np.eye(len(u)))
    u.flags.writeable = False
    return u


@dataclass(frozen=True)
class JointState:
    """Density matrix over the fixed (R, Q, A, B) register."""

    rho: DensityMatrix

    R = 0
    Q = 1
    A = 2
    B = 3

    def __post_init__(self):
        if self.rho.n_qubits != 4:
            raise DimensionMismatch(
                f"joint register has 4 qubits, got {self.rho.n_qubits}"
            )


def prepare_bell_with_ancillas() -> JointState:
    """|bell>_RQ (x) |00>_AB: the purified maximally mixed source plus ancillas."""
    psi = np.zeros(16, dtype=complex)
    psi[0b0000] = 1.0 / math.sqrt(2.0)
    psi[0b1100] = 1.0 / math.sqrt(2.0)
    return JointState(DensityMatrix.from_state_vector(psi))


@functools.cache
def _conjugation(gate: Gate) -> tuple[np.ndarray, np.ndarray]:
    """(u, u^H) of the gate on the joint register, built once per gate; both read-only."""
    u = gate_unitary(gate, 4)
    u_h = u.conj().T
    u_h.flags.writeable = False
    return u, u_h


def _run_gates(state: JointState, gates) -> JointState:
    """Conjugate the joint state by each gate in turn, as raw matrices, m = u @ m @ u^H."""
    m = state.rho.matrix
    for gate in gates:
        u, u_h = _conjugation(gate)
        m = u @ m @ u_h
    return JointState(DensityMatrix(m, validate=False))


def apply_gate(state: JointState, gate: Gate) -> JointState:
    """Conjugate the joint state by the gate unitary; R must stay untouched."""
    if JointState.R in (gate.target, *gate.controls):
        raise PositionOutOfRange("the reference qubit R is never acted on")
    return _run_gates(state, (gate,))


def apply_pauli_z(state: JointState, position: int) -> JointState:
    """Deterministic phase flip on one code qubit (error injection)."""
    if position == JointState.R:
        raise PositionOutOfRange("the reference qubit R is never acted on")
    _check_positions((position,), 4)
    signs = 1.0 - 2.0 * _basis_bits(np.arange(16), 4, (position,))[:, 0]
    flipped = state.rho.matrix * np.outer(signs, signs)
    return JointState(DensityMatrix(flipped, validate=False))


ENCODE_GATES = (
    cnot(JointState.Q, JointState.A),
    cnot(JointState.Q, JointState.B),
    hadamard(JointState.Q),
    hadamard(JointState.A),
    hadamard(JointState.B),
)

DECODE_GATES = (
    hadamard(JointState.Q),
    hadamard(JointState.A),
    hadamard(JointState.B),
    cnot(JointState.Q, JointState.A),
    cnot(JointState.Q, JointState.B),
    toffoli(JointState.A, JointState.B, JointState.Q),
)

# order in which the code qubits cross the channel
CODE_ORDER = (JointState.Q, JointState.A, JointState.B)


def tqc_encode(state: JointState) -> JointState:
    return _run_gates(state, ENCODE_GATES)


def tqc_decode(state: JointState) -> JointState:
    return _run_gates(state, DECODE_GATES)


@functools.cache
def _encoded_source() -> JointState:
    """The encoded purified source, ``tqc_encode(prepare_bell_with_ancillas())``.

    Built once; every caller shares the returned state, whose matrix is
    read-only like every ``DensityMatrix``'s.
    """
    return tqc_encode(prepare_bell_with_ancillas())


def partial_trace(matrix: np.ndarray, keep, n_qubits: int) -> np.ndarray:
    """Trace out every qubit not in ``keep`` (positions, ascending output order)."""
    n_qubits = _register_size(n_qubits)
    keep = sorted(keep)
    _check_positions(keep, n_qubits)
    dim = 1 << n_qubits
    if matrix.shape != (dim, dim):
        raise DimensionMismatch(
            f"{n_qubits}-qubit partial trace needs a {dim} x {dim} matrix, "
            f"got {matrix.shape}"
        )
    traced = [p for p in range(n_qubits) if p not in keep]
    t = matrix.reshape((2,) * (2 * n_qubits))
    for offset, p in enumerate(traced):
        n_now = t.ndim // 2
        t = np.trace(t, axis1=p - offset, axis2=p - offset + n_now)
    dim_kept = 1 << len(keep)
    return t.reshape(dim_kept, dim_kept)


def bell_state_rq() -> np.ndarray:
    psi = np.zeros(4, dtype=complex)
    psi[0b00] = 1.0 / math.sqrt(2.0)
    psi[0b11] = 1.0 / math.sqrt(2.0)
    return psi


def entanglement_fidelity(state: JointState) -> float:
    """<psi|rho_RQ|psi> after tracing out the ancillas.

    psi is the Bell pair on (R, Q) prepared by ``prepare_bell_with_ancillas``.
    """
    psi = bell_state_rq()
    rho_rq = partial_trace(state.rho.matrix, (JointState.R, JointState.Q), 4)
    return float(np.real(psi.conj() @ rho_rq @ psi))


# For one phase realization the channel is the diagonal unitary
# U = (x)_k exp(-i sigma_z phi_k) on the code qubits, so the realized
# fidelity is
#
#   F(phi) = sum_{j,l} rho_enc[j,l] * exp(2i s(j,l).phi) * K[l,j],
#   K = U_dec^dag (|bell><bell|_RQ (x) 1_AB) U_dec,
#
# with s(j,l) = bits(l) - bits(j) over CODE_ORDER: a fixed trigonometric
# polynomial in phi whose coefficients c_s are grouped by the 27 weight
# vectors s in {-1,0,1}^3.  Every gate and the encoded state are real, so
# the c_s are real and F = sum_s c_s cos(2 s.phi).  Averaging F over
# realizations equals the fidelity of the averaged state (linearity).


@functools.cache
def _code_weights() -> np.ndarray:
    """The real weights c_s of the code's fidelity polynomial, from the gate unitaries.

    A (3, 3, 3) array indexed by s + 1 over CODE_ORDER; c_s is summed in
    (j, l) order.  Every caller shares the returned read-only array.
    """
    rho_enc = _encoded_source().rho.matrix
    u_dec = np.eye(16, dtype=complex)
    for gate in DECODE_GATES:
        u_dec = gate_unitary(gate, 4) @ u_dec
    psi = bell_state_rq()
    projector = np.kron(np.outer(psi, psi.conj()), np.eye(4, dtype=complex))
    k_mat = u_dec.conj().T @ projector @ u_dec

    bits = _basis_bits(np.arange(16), 4, CODE_ORDER)
    index = (bits[None, :, :] - bits[:, None, :] + 1).reshape(256, 3)
    coeffs = np.zeros((3, 3, 3), dtype=complex)
    np.add.at(coeffs, tuple(index.T), (rho_enc * k_mat.T).ravel())
    if np.any(coeffs.imag != 0.0):
        raise ArithmeticError(f"pipeline weights are not real: {coeffs!r}")
    weights = coeffs.real.copy()
    total = weights.sum()
    if not abs(total - 1.0) < 1e-12:
        raise ArithmeticError(f"noiseless pipeline fidelity is {total!r}, not 1")
    weights.flags.writeable = False
    return weights
