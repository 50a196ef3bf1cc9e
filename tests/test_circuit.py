"""Gate layer, code pipeline, and entanglement fidelity."""

import numpy as np
import pytest

from memphase.channel import DensityMatrix, apply_channel
from memphase.circuit import (
    JointState,
    apply_gate,
    apply_pauli_z,
    cnot,
    entanglement_fidelity,
    gate_unitary,
    hadamard,
    partial_trace,
    prepare_bell_with_ancillas,
    toffoli,
    tqc_decode,
    tqc_encode,
)
from memphase.codes import fe_tqc_memory
from memphase.correlation import PhaseCovariance
from memphase.errors import PositionOutOfRange


def code_space_state(rng) -> JointState:
    """Random pure state on (R, Q) with the ancillas in |00>."""
    v = rng.normal(size=4) + 1j * rng.normal(size=4)
    v /= np.linalg.norm(v)
    full = np.kron(v, np.array([1, 0, 0, 0], dtype=complex))
    return JointState(DensityMatrix.from_state_vector(full))


class TestGates:
    @pytest.mark.parametrize(
        "gate,n",
        [
            (hadamard(0), 1),
            (hadamard(2), 3),
            (cnot(0, 1), 2),
            (cnot(2, 0), 3),
            (toffoli(0, 1, 2), 3),
        ],
    )
    def test_unitarity(self, gate, n):
        u = gate_unitary(gate, n)
        np.testing.assert_allclose(u @ u.conj().T, np.eye(1 << n), atol=1e-12)

    def test_hadamard_squares_to_identity(self):
        u = gate_unitary(hadamard(1), 3)
        np.testing.assert_allclose(u @ u, np.eye(8), atol=1e-12)

    def test_cnot_truth_table(self):
        u = gate_unitary(cnot(0, 1), 2)
        # |10> -> |11>
        state = np.zeros(4)
        state[0b10] = 1.0
        np.testing.assert_allclose(u @ state, np.eye(4)[0b11], atol=1e-15)
        # |01> unchanged (control clear)
        state = np.zeros(4)
        state[0b01] = 1.0
        np.testing.assert_allclose(u @ state, state, atol=1e-15)

    def test_toffoli_truth_table(self):
        u = gate_unitary(toffoli(0, 1, 2), 3)
        state = np.zeros(8)
        state[0b110] = 1.0
        np.testing.assert_allclose(u @ state, np.eye(8)[0b111], atol=1e-15)
        state = np.zeros(8)
        state[0b100] = 1.0
        np.testing.assert_allclose(u @ state, state, atol=1e-15)

    def test_repeated_calls_share_one_read_only_array(self):
        u = gate_unitary(cnot(1, 2), 4)
        assert gate_unitary(cnot(1, 2), 4) is u
        assert not u.flags.writeable
        with pytest.raises(ValueError):
            u[0, 0] = 0.0

    def test_invalid_gates(self):
        with pytest.raises(ValueError):
            cnot(1, 1)
        with pytest.raises(PositionOutOfRange):
            gate_unitary(hadamard(5), 3)


class TestPreparation:
    def test_reduced_source_is_maximally_mixed(self):
        state = prepare_bell_with_ancillas()
        rho_q = partial_trace(state.rho.matrix, (JointState.Q,), 4)
        np.testing.assert_allclose(rho_q, np.eye(2) / 2, atol=1e-15)

    def test_output_is_pure(self):
        state = prepare_bell_with_ancillas()
        m = state.rho.matrix
        assert np.trace(m @ m).real == pytest.approx(1.0, abs=1e-14)

    def test_identity_channel_has_unit_fidelity(self):
        assert entanglement_fidelity(prepare_bell_with_ancillas()) == pytest.approx(
            1.0, abs=1e-14
        )


class TestPipeline:
    def test_reference_qubit_protected(self):
        state = prepare_bell_with_ancillas()
        with pytest.raises(PositionOutOfRange):
            apply_gate(state, hadamard(JointState.R))
        with pytest.raises(PositionOutOfRange):
            apply_pauli_z(state, JointState.R)

    def test_decode_inverts_encode_on_code_space(self, rng):
        for _ in range(10):
            state = code_space_state(rng)
            out = tqc_decode(tqc_encode(state))
            np.testing.assert_allclose(out.rho.matrix, state.rho.matrix, atol=1e-12)

    def test_noiseless_pipeline_unit_fidelity(self):
        state = tqc_decode(tqc_encode(prepare_bell_with_ancillas()))
        assert entanglement_fidelity(state) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("position", [JointState.Q, JointState.A, JointState.B])
    def test_single_phase_flip_corrected(self, position):
        state = tqc_encode(prepare_bell_with_ancillas())
        state = apply_pauli_z(state, position)
        state = tqc_decode(state)
        assert abs(entanglement_fidelity(state) - 1.0) <= 1e-12

    def test_trace_preserved_through_stages(self):
        state = prepare_bell_with_ancillas()
        for stage in (tqc_encode, tqc_decode):
            state = stage(state)
            assert abs(state.rho.matrix.trace() - 1.0) <= 1e-12

    def test_memoryless_pipeline_matches_closed_form(self):
        g = 0.9
        cov = PhaseCovariance.from_damping(g, [1.0, 0.0, 0.0])
        state = tqc_encode(prepare_bell_with_ancillas())
        rho = apply_channel(state.rho, cov, (JointState.Q, JointState.A, JointState.B))
        fid = entanglement_fidelity(tqc_decode(JointState(rho)))
        assert fid == pytest.approx(fe_tqc_memory(g, 0.0, 0.0), abs=1e-12)
        assert fid == pytest.approx(0.5 + 0.75 * g - 0.25 * g**3, abs=1e-12)


class TestEntanglementFidelity:
    def test_pure_reference_scores_one(self):
        state = prepare_bell_with_ancillas()
        assert entanglement_fidelity(state) == pytest.approx(1.0)

    def test_single_use_fidelity(self):
        for g in (0.2, 0.5, 0.998):
            cov = PhaseCovariance.from_damping(g, [1.0])
            state = prepare_bell_with_ancillas()
            rho = apply_channel(state.rho, cov, (JointState.Q,))
            fid = entanglement_fidelity(JointState(rho))
            assert fid == pytest.approx((1 + g) / 2, abs=1e-12)

    def test_fully_dephased_limit(self):
        cov = PhaseCovariance.from_damping(1e-13, [1.0])
        state = prepare_bell_with_ancillas()
        rho = apply_channel(state.rho, cov, (JointState.Q,))
        assert entanglement_fidelity(JointState(rho)) == pytest.approx(0.5, abs=1e-12)

    def test_range(self, rng):
        for _ in range(20):
            state = code_space_state(rng)
            fid = entanglement_fidelity(state)
            assert 0.0 <= fid <= 1.0 + 1e-12
