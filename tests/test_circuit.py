"""Gate layer, code pipeline, and entanglement fidelity."""

import itertools

import numpy as np
import pytest

from conftest import random_density_matrix, random_feasible_point
import memphase.montecarlo as montecarlo
from memphase.channel import DensityMatrix, apply_channel
from memphase.circuit import (
    CODE_ORDER,
    DECODE_GATES,
    ENCODE_GATES,
    Gate,
    JointState,
    _code_weights,
    _encoded_source,
    _gate_plan,
    _run_gates,
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
from memphase.codes import fe_tqc_memory, fe_tqc_via_circuit
from memphase.correlation import PhaseCovariance
from memphase.errors import DimensionMismatch, PositionOutOfRange
from memphase.montecarlo import _fold_weights, mc_tqc_fidelity, sample_phases_direct


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

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_controlled_flips_permute_bitstrings(self, n):
        # reference read from the binary strings of the indices, position 0 first
        for gate in [cnot(c, t) for c in range(n) for t in range(n) if c != t] + [
            toffoli(c1, c2, t)
            for c1 in range(n)
            for c2 in range(n)
            for t in range(n)
            if len({c1, c2, t}) == 3
        ]:
            u = gate_unitary(gate, n)
            for i in range(1 << n):
                bits = list(format(i, f"0{n}b"))
                if all(bits[c] == "1" for c in gate.controls):
                    bits[gate.target] = "1" if bits[gate.target] == "0" else "0"
                assert np.array_equal(u[:, i], np.eye(1 << n)[int("".join(bits), 2)])

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_every_gate_is_its_own_adjoint(self, n):
        # the gate loop conjugates by u on both sides, reading u^H as u
        positions = range(n)
        gates = (
            [hadamard(t) for t in positions]
            + [cnot(c, t) for c, t in itertools.permutations(positions, 2)]
            + [toffoli(c1, c2, t) for c1, c2, t in itertools.permutations(positions, 3)]
        )
        for gate in gates:
            u = gate_unitary(gate, n)
            assert u.imag.tobytes() == np.zeros((1 << n, 1 << n)).tobytes()
            assert u.tobytes() == u.T.copy().tobytes()
            square = (u @ u).real
            if gate.kind == "h":
                # (1/sqrt 2)^2 + (1/sqrt 2)^2 rounds to 1 - 2^-52
                eps = np.finfo(float).eps
                np.testing.assert_allclose(square, np.eye(1 << n), rtol=0.0, atol=eps)
            else:
                assert np.array_equal(square, np.eye(1 << n))

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

    @pytest.mark.parametrize("n_qubits", [4.0, 4.5, "4", -1])
    def test_register_size_not_a_non_negative_integer(self, n_qubits):
        # the entry for the integer 4 is cached first: 4.0 must not read it
        gate_unitary(hadamard(1), 4)
        with pytest.raises(DimensionMismatch, match="register size must be"):
            gate_unitary(hadamard(1), n_qubits)


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


def run_per_gate(state: JointState, gates) -> JointState:
    """Reference: the public apply_gate, called once per gate."""
    for gate in gates:
        state = apply_gate(state, gate)
    return state


def fidelity_per_gate(cov: PhaseCovariance) -> float:
    """Reference for fe_tqc_via_circuit: encode on every call, one apply_gate per gate."""
    source = run_per_gate(prepare_bell_with_ancillas(), ENCODE_GATES)
    rho = apply_channel(source.rho, cov, CODE_ORDER)
    return entanglement_fidelity(run_per_gate(JointState(rho), DECODE_GATES))


def band_grid():
    """(g, mu1, mu2) over g bins, mu1 bins and the lower edge, middle and top of the mu2 band."""
    for g, mu1 in itertools.product((0.05, 0.3, 0.7, 0.95, 0.999, 1.0), np.linspace(0.0, 1.0, 6)):
        lo, hi = max(0.0, 2.0 * mu1 * mu1 - 1.0), mu1
        for frac in (0.0, 0.5, 1.0):
            yield g, float(mu1), lo + frac * (hi - lo)


def float_bytes(x: float) -> bytes:
    return np.float64(x).tobytes()


# every gate on the joint register that leaves R alone
CODE_GATES = (
    [hadamard(t) for t in CODE_ORDER]
    + [cnot(c, t) for c in CODE_ORDER for t in CODE_ORDER if c != t]
    + [toffoli(c1, c2, t) for c1, c2, t in itertools.permutations(CODE_ORDER)]
)


class TestGateLoopBitIdentity:
    """The raw-matrix gate loop and the shared encoded source change no bit."""

    @pytest.mark.parametrize("gate", CODE_GATES, ids=str)
    def test_apply_gate_is_one_conjugation_by_the_gate_unitary(self, rng, gate):
        state = JointState(random_density_matrix(rng, 4))
        u = gate_unitary(gate, 4)
        expected = u @ state.rho.matrix @ u.conj().T
        assert apply_gate(state, gate).rho.matrix.tobytes() == expected.tobytes()

    def test_encode_and_decode_equal_per_gate_loops(self, rng):
        states = [prepare_bell_with_ancillas(), code_space_state(rng)]
        states += [JointState(random_density_matrix(rng, 4)) for _ in range(5)]
        for state in states:
            for stage, gates in ((tqc_encode, ENCODE_GATES), (tqc_decode, DECODE_GATES)):
                got = stage(state).rho.matrix
                assert got.tobytes() == run_per_gate(state, gates).rho.matrix.tobytes()

    def test_circuit_fidelity_equals_per_gate_pipeline(self):
        points = list(band_grid())
        assert len(points) == 108
        for g, mu1, mu2 in points:
            cov = PhaseCovariance.from_damping(g, [1.0, mu1, mu2])
            got, want = fe_tqc_via_circuit(cov), fidelity_per_gate(cov)
            assert float_bytes(got) == float_bytes(want), (g, mu1, mu2)

    def test_encoded_source_is_one_read_only_state(self):
        source = _encoded_source()
        assert _encoded_source() is source
        assert not source.rho.matrix.flags.writeable
        with pytest.raises(ValueError):
            source.rho.matrix[0, 0] = 0.0
        reference = run_per_gate(prepare_bell_with_ancillas(), ENCODE_GATES)
        assert source.rho.matrix.tobytes() == reference.rho.matrix.tobytes()

    def test_code_weights_and_mc_fidelity_equal_per_gate_encoding(self, monkeypatch):
        monkeypatch.setattr(
            "memphase.circuit._encoded_source",
            lambda: run_per_gate(prepare_bell_with_ancillas(), ENCODE_GATES),
        )
        reference = _code_weights.__wrapped__()
        assert _code_weights().tobytes() == reference.tobytes()

        cov = PhaseCovariance.from_damping(0.8, [1.0, 0.5, 0.3])
        phases = sample_phases_direct(cov, 7, 5000)
        got = mc_tqc_fidelity(phases)
        monkeypatch.setattr(montecarlo, "_tqc_weights", lambda: _fold_weights(reference))
        want = mc_tqc_fidelity(phases)
        assert float_bytes(got.value) == float_bytes(want.value)
        assert float_bytes(got.standard_error) == float_bytes(want.standard_error)


def conjugate_per_gate(m: np.ndarray, gates) -> np.ndarray:
    """Reference for the gate loop: one dense conjugation u @ m @ u^H per gate."""
    for gate in gates:
        u = gate_unitary(gate, 4)
        m = u @ m @ u.conj().T
    return m


def controlled_runs(gates):
    """The maximal runs of consecutive controlled gates, in order."""
    runs = itertools.groupby(gates, lambda gate: bool(gate.controls))
    return [list(run) for controlled, run in runs if controlled]


def random_gate_sequences(rng, count):
    for _ in range(count):
        picks = rng.integers(0, len(CODE_GATES), size=rng.integers(1, 9))
        yield tuple(CODE_GATES[i] for i in picks)


class TestPermutationRuns:
    """Controlled-gate runs go by index; Hadamards stay dense products."""

    def test_random_sequences_equal_per_gate_products(self, rng):
        for gates in random_gate_sequences(rng, 200):
            state = JointState(random_density_matrix(rng, 4))
            got = _run_gates(state, gates).rho.matrix
            want = conjugate_per_gate(state.rho.matrix, gates)
            assert got.tobytes() == want.tobytes(), gates

    def test_composed_permutations_equal_the_unitary_products(self, rng):
        for gates in random_gate_sequences(rng, 200):
            plan = _gate_plan(gates)
            dense = [a for permutes, a in plan if not permutes]
            indices = [a for permutes, a in plan if permutes]
            hadamards = [g for g in gates if not g.controls]
            assert len(dense) == len(hadamards)
            assert all(u is gate_unitary(g, 4) for u, g in zip(dense, hadamards))
            runs = controlled_runs(gates)
            assert len(indices) == len(runs)
            for index, run in zip(indices, runs):
                product = np.eye(16)
                for gate in run:
                    product = gate_unitary(gate, 4) @ product
                # the product conjugates m to m[np.ix_(p, p)], p[i] the column of row i's 1
                p = product.argmax(axis=1)
                assert np.array_equal(product, np.eye(16)[p])
                assert np.array_equal(index, p[:, None] * 16 + p)

    def test_signed_zeros(self, rng):
        # a take keeps the sign of a zero; a product may turn -0 into +0
        # real and imaginary parts set directly: arithmetic would fold -0 into +0
        parts = np.where(rng.integers(0, 2, size=(16, 16, 2)) == 1, -0.0, 0.0)
        upper, lower = np.triu_indices(16, 1)
        parts[lower, upper, 0] = parts[upper, lower, 0]
        parts[lower, upper, 1] = -parts[upper, lower, 1]
        m = parts.view(complex)[..., 0]
        m[np.diag_indices(16)] = rng.dirichlet(np.ones(16))
        state = JointState(DensityMatrix(m))
        assert np.signbit(state.rho.matrix.real).any() and np.signbit(state.rho.matrix.imag).any()
        for gates in [*random_gate_sequences(rng, 50), ENCODE_GATES, DECODE_GATES]:
            got = _run_gates(state, gates).rho.matrix
            assert np.array_equal(got, conjugate_per_gate(state.rho.matrix, gates)), gates
        permutation = (cnot(1, 2), toffoli(2, 3, 1), cnot(3, 1))
        (permutes, index), = _gate_plan(permutation)
        assert permutes
        got = _run_gates(state, permutation).rho.matrix
        assert got.tobytes() == state.rho.matrix.take(index).tobytes()

    def test_decode_is_three_products_and_one_take(self):
        assert [permutes for permutes, _ in _gate_plan(DECODE_GATES)] == [False] * 3 + [True]
        assert [permutes for permutes, _ in _gate_plan(ENCODE_GATES)] == [True] + [False] * 3

    def test_plan_is_cached_and_read_only(self):
        plan = _gate_plan(DECODE_GATES)
        assert _gate_plan(DECODE_GATES) is plan
        for _, a in plan:
            assert not a.flags.writeable


class TestValidationRule:
    """A state is validated where it enters and where the channel makes it."""

    @pytest.mark.parametrize("cache", ["cold", "warm"])
    def test_one_circuit_fidelity_validates_one_state(self, monkeypatch, cache):
        if cache == "cold":
            _encoded_source.cache_clear()
        else:
            _encoded_source()
        original = DensityMatrix.__init__
        validated = []

        def counting_init(obj, matrix, *, validate=True):
            validated.append(validate)
            original(obj, matrix, validate=validate)

        monkeypatch.setattr(DensityMatrix, "__init__", counting_init)
        fe_tqc_via_circuit(PhaseCovariance.from_damping(0.9, [1.0, 0.4, 0.2]))
        assert validated.count(True) == 1

    def test_every_derived_state_passes_full_validation(self, rng):
        # 40 interior points, then mu2 at both band edges with g up to 1 - 1e-12
        points = [random_feasible_point(rng) for _ in range(40)]
        for g in (0.3, 1.0 - 1e-9, 1.0 - 1e-12):
            for mu1 in (0.0, 0.5, 0.9, 1.0):
                points += [(g, mu1, max(0.0, 2.0 * mu1 * mu1 - 1.0)), (g, mu1, mu1)]
        assert len(points) >= 50

        def check(state):
            DensityMatrix(state.rho.matrix)
            for position in CODE_ORDER:
                DensityMatrix(apply_pauli_z(state, position).rho.matrix)

        encoded = prepare_bell_with_ancillas()
        for gate in ENCODE_GATES:
            encoded = apply_gate(encoded, gate)
            check(encoded)
        for g, mu1, mu2 in points:
            cov = PhaseCovariance.from_damping(g, [1.0, mu1, mu2])
            state = JointState(apply_channel(encoded.rho, cov, CODE_ORDER))
            check(state)
            for gate in DECODE_GATES:
                state = apply_gate(state, gate)
                check(state)


class TestPartialTrace:
    @pytest.mark.parametrize("keep", [(0, 0), (1, 4), (-1, 0)])
    def test_bad_keep_positions(self, keep):
        with pytest.raises(PositionOutOfRange):
            partial_trace(np.eye(16) / 16, keep, 4)

    def test_matrix_of_another_register(self):
        with pytest.raises(DimensionMismatch, match="16 x 16"):
            partial_trace(np.eye(8) / 8, (0, 1), 4)

    @pytest.mark.parametrize("n_qubits", [4.0, 3.5, -1])
    def test_register_size_not_a_non_negative_integer(self, n_qubits):
        with pytest.raises(DimensionMismatch, match="register size must be"):
            partial_trace(np.eye(16) / 16, (0, 1), n_qubits)


class TestPositionChecks:
    """The circuit layer reports bad positions with the channel's one check."""

    @pytest.mark.parametrize(
        "call,message",
        [
            (lambda: partial_trace(np.eye(16) / 16, (1, 1), 4), r"duplicate .* \(1, 1\)$"),
            (lambda: partial_trace(np.eye(16) / 16, (4,), 4), "4 outside register of 4 qubits$"),
            (lambda: gate_unitary(cnot(0, 3), 3), "3 outside register of 3 qubits$"),
            (
                lambda: apply_pauli_z(prepare_bell_with_ancillas(), 4),
                "4 outside register of 4 qubits$",
            ),
        ],
        ids=["trace-duplicate", "trace-outside", "gate-outside", "pauli-z-outside"],
    )
    def test_message(self, call, message):
        with pytest.raises(PositionOutOfRange, match=message):
            call()

    @pytest.mark.parametrize(
        "call",
        [
            lambda: Gate("h", 1.5),
            lambda: Gate("cnot", 2, (1.5,)),
            lambda: apply_pauli_z(prepare_bell_with_ancillas(), 1.5),
            lambda: partial_trace(np.eye(16) / 16, (0.5, 1), 4),
        ],
        ids=["gate-target", "gate-control", "pauli-z", "partial-trace"],
    )
    def test_fractional_position(self, call):
        with pytest.raises(PositionOutOfRange, match=r"position [01]\.5 is not an integer$"):
            call()

    def test_numpy_integer_positions_read_as_ints(self):
        gate = Gate("cnot", np.int64(2), (np.int32(1),))
        assert gate == cnot(1, 2) and type(gate.target) is int
        assert gate_unitary(gate, 4) is gate_unitary(cnot(1, 2), 4)
        state = prepare_bell_with_ancillas()
        flipped = apply_pauli_z(state, np.int64(2)).rho.matrix
        np.testing.assert_array_equal(flipped, apply_pauli_z(state, 2).rho.matrix)
        kept = partial_trace(state.rho.matrix, (np.int64(0), np.int64(1)), 4)
        np.testing.assert_array_equal(kept, partial_trace(state.rho.matrix, (0, 1), 4))


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
