"""Coherence labels, decay factors, and the dephasing map itself."""

import math
import os
import subprocess
import sys
import textwrap
import tracemalloc
import types
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_density_matrix, random_feasible_covariance
from memphase.channel import (
    HERMITICITY_BLOCK,
    CoherenceLabel,
    DensityMatrix,
    _basis_bits,
    _decay_error_bound,
    _decayed,
    _exponents,
    _hermiticity_defect,
    _lag_counts,
    _mirrored,
    _position,
    _register_size,
    apply_channel,
    decay_exponent,
    decay_factor,
)
import memphase
from memphase.correlation import ChannelParams, PhaseCovariance
from memphase.errors import (
    DimensionMismatch,
    DomainError,
    NotPositiveSemidefinite,
    PositionOutOfRange,
)
from memphase.montecarlo import _sample_count

# fixed example sequence, so the suite gives the same verdict on every run
PROPERTY_SETTINGS = settings(max_examples=60, deadline=None, derandomize=True, database=None)


@st.composite
def channel_cases(draw):
    """(rho, cov, which): a random-rank state and an AR(1)-mixture mu.

    Each AR(1) correlation r**m (|r| <= 1) has a PSD Toeplitz matrix at
    every order, and so has any convex mixture of them.
    """
    n = draw(st.integers(1, 4))
    n_uses = draw(st.integers(1, n))
    which = tuple(draw(st.permutations(range(n)))[:n_uses])
    n_terms = draw(st.integers(1, 3))
    weights = np.array(draw(st.lists(st.floats(0.01, 1.0), min_size=n_terms, max_size=n_terms)))
    rates = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=n_terms, max_size=n_terms)))
    mu = [1.0] + [float(weights @ rates**m / weights.sum()) for m in range(1, n_uses)]
    cov = PhaseCovariance.from_damping(draw(st.floats(0.05, 0.999)), mu)
    dim = 1 << n
    rank = draw(st.integers(1, dim))
    state_rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    a = state_rng.normal(size=(dim, rank)) + 1j * state_rng.normal(size=(dim, rank))
    m = a @ a.conj().T
    return DensityMatrix(m / m.trace()), cov, which


def use_order_index(index: int, n_qubits: int, which) -> int:
    """Basis index of the transmitted qubits alone, in use order."""
    return int("".join(str((index >> (n_qubits - 1 - p)) & 1) for p in which), 2)


class TestCoherenceLabel:
    def test_weights_from_bitstrings(self):
        label = CoherenceLabel.from_bitstrings("01", "10")
        np.testing.assert_array_equal(label.s, [1, -1])

    def test_weight_sign_identity(self, rng):
        # s_k = l_k - j_k must equal ((-1)^j_k - (-1)^l_k)/2 for bits
        for _ in range(50):
            n = int(rng.integers(1, 6))
            j, l = rng.integers(0, 1 << n, size=2)
            label = CoherenceLabel(int(j), int(l), n)
            j_bits = [(j >> (n - 1 - p)) & 1 for p in range(n)]
            l_bits = [(l >> (n - 1 - p)) & 1 for p in range(n)]
            alt = [((-1) ** jb - (-1) ** lb) / 2 for jb, lb in zip(j_bits, l_bits)]
            np.testing.assert_array_equal(label.s, alt)

    def test_population_iff_equal(self, rng):
        for _ in range(20):
            n = int(rng.integers(1, 5))
            j, l = rng.integers(0, 1 << n, size=2)
            label = CoherenceLabel(int(j), int(l), n)
            assert (not label.s.any()) == (j == l) == label.is_population

    def test_out_of_range_index(self):
        with pytest.raises(PositionOutOfRange):
            CoherenceLabel(4, 0, 2)

    def test_negative_register_size(self):
        with pytest.raises(DimensionMismatch, match="non-negative"):
            CoherenceLabel(0, 1, -1)

    @pytest.mark.parametrize("n_qubits", [1.5, 4.0, "4"])
    def test_non_integer_register_size(self, n_qubits):
        with pytest.raises(DimensionMismatch, match="register size must be an integer"):
            CoherenceLabel(0, 1, n_qubits)

    def test_numpy_integer_register_size_read_as_int(self):
        label = CoherenceLabel(0, 1, np.int64(3))
        assert type(label.n_qubits) is int and label == CoherenceLabel(0, 1, 3)

    @pytest.mark.parametrize("j,l", [(1.5, 2), (2, 1.5), (1.0, 2), (2, "1")])
    def test_non_integer_index(self, j, l):
        with pytest.raises(PositionOutOfRange, match="must be an integer"):
            CoherenceLabel(j, l, 3)

    def test_numpy_integer_indices_read_as_ints(self):
        label = CoherenceLabel(np.int64(1), np.uint8(6), 3)
        assert label == CoherenceLabel(1, 6, 3)
        assert type(label.j) is int and type(label.l) is int
        np.testing.assert_array_equal(label.s, CoherenceLabel(1, 6, 3).s)

    def test_empty_bitstrings_give_the_zero_qubit_label(self):
        label = CoherenceLabel.from_bitstrings("", "")
        assert label == CoherenceLabel(0, 0, 0)
        assert label.s.shape == (0,) and label.is_population

    @pytest.mark.parametrize("n", [64, 70, 100])
    def test_wide_label_weights_equal_the_bitstring_difference(self, rng, n):
        # set bits on both sides of bit 63 of the basis index, which int64
        # shifts cannot reach
        j = list(rng.integers(0, 2, n))
        l = list(rng.integers(0, 2, n))
        j[0], l[0], j[-1], l[-1] = 1, 0, 0, 1
        j_bits, l_bits = "".join(map(str, j)), "".join(map(str, l))
        label = CoherenceLabel.from_bitstrings(j_bits, l_bits)
        assert label.s.dtype == np.int64
        np.testing.assert_array_equal(label.s, np.array(l) - np.array(j))
        assert label.s[0] == -1 and label.s[-1] == 1
        assert not label.s.flags.writeable
        with pytest.raises(ValueError):
            label.s[0] = 0

    @pytest.mark.parametrize("bits", ["-01", "0b1", "+01", "0_1", " 01", "012", "０１１"])
    def test_bitstrings_are_made_of_0_and_1(self, bits):
        with pytest.raises(DomainError, match="made of 0 and 1"):
            CoherenceLabel.from_bitstrings(bits, "111")
        with pytest.raises(DomainError, match="made of 0 and 1"):
            CoherenceLabel.from_bitstrings("111", bits)


# each integer argument of the package, read by the one reader with its own
# exception type and message
INTEGER_READERS = {
    "position": (_position, PositionOutOfRange, "qubit position {} is not an integer"),
    "register-size": (
        _register_size, DimensionMismatch, "register size must be an integer, got {}"
    ),
    "index-j": (
        lambda v: CoherenceLabel(v, 0, 3).j,
        PositionOutOfRange,
        "basis index j must be an integer, got {}",
    ),
    "index-l": (
        lambda v: CoherenceLabel(0, v, 3).l,
        PositionOutOfRange,
        "basis index l must be an integer, got {}",
    ),
    "n_uses": (
        lambda v: ChannelParams(1.0, 1.0, 1.0, v).n_uses,
        DomainError,
        "n_uses must be an integer, got {}",
    ),
    "sample-count": (_sample_count, DomainError, "sample count n must be an integer, got {}"),
}


class TestIntegerReaders:
    @pytest.mark.parametrize("value,shown", [(1.5, "1.5"), (4.0, "4.0"), ("3", "'3'")])
    @pytest.mark.parametrize("reader", list(INTEGER_READERS))
    def test_non_integer_message(self, reader, value, shown):
        read, error, message = INTEGER_READERS[reader]
        with pytest.raises(error) as info:
            read(value)
        assert type(info.value) is error
        assert str(info.value) == message.format(shown)
        assert info.value.__suppress_context__

    @pytest.mark.parametrize("value", [np.int64(3), np.uint8(3), np.intp(3)])
    @pytest.mark.parametrize("reader", list(INTEGER_READERS))
    def test_numpy_integer_read_as_int(self, reader, value):
        got = INTEGER_READERS[reader][0](value)
        assert type(got) is int and got == 3


class TestBasisBits:
    @pytest.mark.parametrize("n", [64, 70, 100])
    def test_wide_index_arrays_read_exactly(self, rng, n):
        # bits set on both sides of bit 63, which int64 shifts cannot reach;
        # a wrapped read would lose or flip the high bits
        indices = [
            int("".join(map(str, rng.integers(0, 2, n))), 2) | (1 << (n - 1)) | 1
            for _ in range(6)
        ]
        positions = [int(p) for p in rng.permutation(n)]
        want = np.array([[(i >> (n - 1 - p)) & 1 for p in positions] for i in indices])
        forms = {"list": indices, "object": np.array(indices, dtype=object)}
        if n == 64:
            forms["uint64"] = np.array(indices, dtype=np.uint64)
        for name, form in forms.items():
            got = _basis_bits(form, n, positions)
            assert got.dtype == np.int64, name
            np.testing.assert_array_equal(got, want, err_msg=name)
        pairs = np.array(indices, dtype=object).reshape(3, 2)
        np.testing.assert_array_equal(
            _basis_bits(pairs, n, positions), want.reshape(3, 2, n)
        )

    def test_narrow_indices_on_a_wide_register_read_exactly(self):
        # int64 indices below 2^63 on 70 qubits: the top positions are 0
        indices = np.array([0, 1, (1 << 63) - 1], dtype=np.int64)
        want = [[(int(i) >> (69 - p)) & 1 for p in range(70)] for i in indices]
        np.testing.assert_array_equal(_basis_bits(indices, 70, range(70)), want)

    @pytest.mark.parametrize("n", [3, 70])
    def test_non_integer_indices_raise(self, n):
        with pytest.raises(TypeError):
            _basis_bits(np.array([1.0, 2.0]), n, range(n))


class TestDecayFactor:
    def test_population_undamped(self):
        cov = PhaseCovariance.from_damping(0.5, [1.0, 0.3, 0.1])
        assert decay_factor(CoherenceLabel(5, 5, 3), cov) == 1.0

    def test_single_use_equals_damping(self):
        for g in (0.2, 0.7, 0.998):
            cov = PhaseCovariance.from_damping(g, [1.0])
            assert decay_factor(CoherenceLabel(0, 1, 1), cov) == pytest.approx(g, abs=1e-15)

    def test_antisymmetric_pair(self):
        # weights (-1, +1): exponent 2 - 2 mu1, decoherence-free at mu1 = 1
        g = 0.8
        label = CoherenceLabel.from_bitstrings("01", "10")
        for mu1 in (0.0, 0.5, 1.0):
            cov = PhaseCovariance.from_damping(g, [1.0, mu1])
            assert decay_factor(label, cov) == pytest.approx(
                g ** (2 - 2 * mu1), abs=1e-14
            )
        cov = PhaseCovariance.from_damping(g, [1.0, 1.0])
        assert decay_factor(label, cov) == 1.0

    def test_aligned_pair_superdecoherent(self):
        g, mu1 = 0.8, 0.6
        cov = PhaseCovariance.from_damping(g, [1.0, mu1])
        label = CoherenceLabel.from_bitstrings("00", "11")
        assert decay_factor(label, cov) == pytest.approx(g ** (2 + 2 * mu1), abs=1e-14)

    def test_ghz_exponent(self):
        g, mu1, mu2 = 0.9, 0.5, 0.3
        cov = PhaseCovariance.from_damping(g, [1.0, mu1, mu2])
        label = CoherenceLabel.from_bitstrings("000", "111")
        assert decay_factor(label, cov) == pytest.approx(
            g ** (3 + 4 * mu1 + 2 * mu2), abs=1e-14
        )

    def test_exponent_nonnegative(self, rng):
        # E = s^T (Sigma/eta^2) s >= 0 for PSD covariances
        for _ in range(100):
            n = int(rng.integers(1, 5))
            cov = random_feasible_covariance(rng, n)
            j, l = rng.integers(0, 1 << n, size=2)
            label = CoherenceLabel(int(j), int(l), n)
            assert decay_exponent(label, cov) >= -1e-12

    def test_power_and_exponential_forms_agree(self, rng):
        for _ in range(100):
            n = int(rng.integers(1, 5))
            cov = random_feasible_covariance(rng, n)
            j, l = rng.integers(0, 1 << n, size=2)
            label = CoherenceLabel(int(j), int(l), n)
            d = decay_factor(label, cov)  # internal 1e-12 cross-check
            s = label.s.astype(float)
            assert d == pytest.approx(np.exp(-2 * s @ cov.sigma @ s), abs=1e-12)

    def test_dimension_mismatch(self):
        cov = PhaseCovariance.from_damping(0.9, [1.0, 0.5])
        with pytest.raises(DimensionMismatch):
            decay_factor(CoherenceLabel(0, 7, 3), cov)

    def test_forms_cross_check_survives_optimized_mode(self):
        # a covariance whose g disagrees with eta^2 must be caught under -O too
        script = textwrap.dedent(
            """
            import sys
            from memphase.channel import CoherenceLabel, decay_factor
            from memphase.correlation import PhaseCovariance

            class Skewed(PhaseCovariance):
                @property
                def g(self):
                    return 0.5

            assert False, "asserts must be stripped in this run"
            try:
                decay_factor(CoherenceLabel(0, 3, 2), Skewed(eta_sq=0.1, mu=[1.0, 0.3]))
            except ArithmeticError as exc:
                print(f"optimize={sys.flags.optimize} raised: {exc}")
            """
        )
        package_root = os.path.dirname(os.path.dirname(memphase.__file__))
        env = dict(os.environ, PYTHONPATH=package_root)
        done = subprocess.run(
            [sys.executable, "-O", "-c", script],
            env=env, capture_output=True, text=True, timeout=60, check=True,
        )
        assert done.stdout.startswith("optimize=1 raised: decay-factor forms disagree")


class TestApplyChannel:
    # mu2 = -0.5 - delta gives min eig(T) ~ -2 delta / 3, inside PSD_TOLERANCE,
    # so the covariance is accepted; only the output validation catches these
    def test_output_validation_catches_non_finite_entries(self):
        rho = DensityMatrix.from_state_vector(np.ones(8))
        cov = PhaseCovariance(eta_sq=400.0, mu=[1.0, 0.5, -0.5 - 1e-11])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="non-finite"):
                apply_channel(rho, cov, (0, 1, 2))

    def test_output_validation_catches_a_negative_eigenvalue(self):
        rho = DensityMatrix.from_state_vector(np.ones(8))
        cov = PhaseCovariance(eta_sq=20.0, mu=[1.0, 0.5, -0.5 - 3e-11])
        with pytest.raises(NotPositiveSemidefinite, match="eigenvalue"):
            apply_channel(rho, cov, (0, 1, 2))

    def test_maximally_mixed_unchanged(self):
        cov = PhaseCovariance.from_damping(0.5, [1.0, 0.4])
        rho = DensityMatrix(np.eye(4) / 4)
        out = apply_channel(rho, cov, (0, 1))
        np.testing.assert_allclose(out.matrix, rho.matrix, atol=1e-15)

    def test_bell_fidelity_single_use(self):
        # send one half of a Bell pair: off-diagonals scale by g,
        # fidelity (1+g)/2
        bell = np.zeros(4, dtype=complex)
        bell[0b00] = bell[0b11] = 1 / np.sqrt(2)
        rho = DensityMatrix.from_state_vector(bell)
        for g in (0.2, 0.7, 0.998):
            cov = PhaseCovariance.from_damping(g, [1.0])
            out = apply_channel(rho, cov, (1,))
            fid = float((bell.conj() @ out.matrix @ bell).real)
            assert fid == pytest.approx((1 + g) / 2, abs=1e-14)
            assert out.matrix[0, 3] == pytest.approx(0.5 * g, abs=1e-14)

    def test_ghz_coherence_scaling(self):
        g, mu1, mu2 = 0.9, 0.5, 0.3
        cov = PhaseCovariance.from_damping(g, [1.0, mu1, mu2])
        ghz = np.zeros(8, dtype=complex)
        ghz[0b000] = ghz[0b111] = 1 / np.sqrt(2)
        out = apply_channel(DensityMatrix.from_state_vector(ghz), cov, (0, 1, 2))
        assert out.matrix[0, 7] == pytest.approx(
            0.5 * g ** (3 + 4 * mu1 + 2 * mu2), abs=1e-14
        )

    def test_lags_follow_transmission_order(self):
        # positions 2, 0, 1 occupy uses 0, 1, 2
        g, mu1, mu2 = 0.8, 0.6, 0.3
        cov = PhaseCovariance.from_damping(g, [1.0, mu1, mu2])
        rho = DensityMatrix.from_state_vector(np.ones(8))
        out = apply_channel(rho, cov, (2, 0, 1)).matrix
        # positions 0 and 2 sit at uses 1 and 0 (lag 1), positions 1 and 2
        # at uses 2 and 0 (lag 2)
        assert out[0b000, 0b101] == pytest.approx(g ** (2 + 2 * mu1) / 8, abs=1e-15)
        assert out[0b000, 0b011] == pytest.approx(g ** (2 + 2 * mu2) / 8, abs=1e-15)
        assert out[0b001, 0b100] == pytest.approx(g ** (2 - 2 * mu1) / 8, abs=1e-15)

    def test_trace_hermiticity_populations(self, rng):
        for _ in range(30):
            n = int(rng.integers(1, 5))
            n_uses = int(rng.integers(1, n + 1))
            cov = random_feasible_covariance(rng, n_uses)
            which = rng.permutation(n)[:n_uses]
            rho = random_density_matrix(rng, n)
            out = apply_channel(rho, cov, which)
            m = out.matrix
            assert abs(m.trace() - 1.0) <= 1e-12
            assert np.abs(m - m.conj().T).max() <= 1e-12
            np.testing.assert_array_equal(np.diag(m), np.diag(rho.matrix))
            assert np.linalg.eigvalsh(m)[0] >= -1e-10

    def test_memoryless_factorization(self, rng):
        # with all mu_m = 0 the three-use map equals three single-use maps
        g = 0.7
        cov3 = PhaseCovariance.from_damping(g, [1.0, 0.0, 0.0])
        cov1 = PhaseCovariance.from_damping(g, [1.0])
        for _ in range(10):
            rho = random_density_matrix(rng, 3)
            joint = apply_channel(rho, cov3, (0, 1, 2))
            seq = rho
            for pos in (0, 1, 2):
                seq = apply_channel(seq, cov1, (pos,))
            np.testing.assert_allclose(joint.matrix, seq.matrix, atol=1e-12)

    def test_spectators_untouched(self):
        # coherences living only on untransmitted qubits keep their value
        rng = np.random.default_rng(5)
        rho = random_density_matrix(rng, 2)
        cov = PhaseCovariance.from_damping(0.5, [1.0])
        out = apply_channel(rho, cov, (1,))
        # (j, l) = (00, 10): differs only on the spectator qubit 0
        assert out.matrix[0, 2] == rho.matrix[0, 2]

    def test_position_errors(self):
        rho = DensityMatrix(np.eye(4) / 4)
        cov = PhaseCovariance.from_damping(0.9, [1.0])
        with pytest.raises(PositionOutOfRange):
            apply_channel(rho, cov, (2,))
        with pytest.raises(DimensionMismatch):
            apply_channel(rho, cov, (0, 1))
        cov2 = PhaseCovariance.from_damping(0.9, [1.0, 0.5])
        with pytest.raises(PositionOutOfRange):
            apply_channel(rho, cov2, (0, 0))

    def test_fractional_positions(self):
        rho = DensityMatrix(np.eye(4) / 4)
        cov = PhaseCovariance.from_damping(0.9, [1.0, 0.5])
        with pytest.raises(PositionOutOfRange, match="position 0.9 is not an integer$"):
            apply_channel(rho, cov, [0.9, 1.2])

    def test_numpy_integer_positions_read_as_ints(self, rng):
        rho = random_density_matrix(rng, 3)
        cov = PhaseCovariance.from_damping(0.9, [1.0, 0.5])
        out = apply_channel(rho, cov, np.array([2, 0]))
        np.testing.assert_array_equal(out.matrix, apply_channel(rho, cov, (2, 0)).matrix)


class TestApplyChannelProperties:
    @PROPERTY_SETTINGS
    @given(channel_cases())
    def test_invariants_and_coherence_ratios(self, case):
        rho, cov, which = case
        n = rho.n_qubits
        m = apply_channel(rho, cov, which).matrix
        assert abs(m.trace() - 1.0) <= 1e-12
        assert np.abs(m - m.conj().T).max() <= 1e-12
        assert np.linalg.eigvalsh(m)[0] >= -1e-10
        np.testing.assert_array_equal(np.diag(m), np.diag(rho.matrix))
        sub = [use_order_index(i, n, which) for i in range(rho.dim)]
        expected = np.array(
            [
                [decay_factor(CoherenceLabel(sj, sl, len(which)), cov) for sl in sub]
                for sj in sub
            ]
        )
        np.testing.assert_allclose(m / rho.matrix, expected, rtol=0, atol=1e-12)

    @PROPERTY_SETTINGS
    @given(channel_cases())
    def test_memoryless_coherences_decay_per_flipped_qubit(self, case):
        rho, cov, which = case
        n = rho.n_qubits
        memoryless = PhaseCovariance.from_damping(cov.g, [1.0] + [0.0] * (len(which) - 1))
        m = apply_channel(rho, memoryless, which).matrix
        # mu = (1, 0, ...): D_jl = g ** sum_k |s_k|
        flips = np.array(
            [
                [sum(((j ^ l) >> (n - 1 - p)) & 1 for p in which) for l in range(rho.dim)]
                for j in range(rho.dim)
            ]
        )
        np.testing.assert_allclose(m / rho.matrix, memoryless.g**flips, rtol=0, atol=1e-12)


def random_state_vector(seed, dim):
    return np.array([1.0, 1j]) @ np.random.default_rng(seed).normal(size=(2, dim))


def reference_output(rho, cov, which):
    """rho o D, D_jl = g ** E(s) with s = b_l - b_j, formed entry by entry for every pair.

    E = sum_m c_m mu_m is summed in the channel's order, m = 0, 1, ..., from
    integer lag counts c_0 = sum_k s_k^2 and c_m = 2 sum_k s_k s_{k+m}; no
    table over weight vectors, no mirroring, one power per entry.
    """
    n = rho.n_qubits
    bits = [(np.arange(rho.dim) >> (n - 1 - p)) & 1 for p in which]
    s = [(b[None, :] - b[:, None]).astype(np.int8) for b in bits]
    exponents = sum(sk * sk for sk in s).astype(float)
    for m in range(1, len(s)):
        exponents += 2 * sum(s[k] * s[k + m] for k in range(len(s) - m)) * cov.mu[m]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        return rho.matrix * np.power(cov.g, exponents, out=exponents)


def full_check_verdict(m):
    """Error type the full validation (factoring every matrix) raises on m, or None."""
    if not np.isfinite(m).all():
        return ValueError
    if np.abs(m - m.conj().T).max() > 1e-12 or abs(m.trace() - 1.0) > 1e-12:
        return ValueError
    shifted = m.copy()
    shifted.flat[:: m.shape[0] + 1] += 1e-10
    try:
        np.linalg.cholesky(shifted)
    except np.linalg.LinAlgError:
        if np.linalg.eigvalsh(m)[0] < -1e-10:
            return NotPositiveSemidefinite
    return None


@st.composite
def certificate_cases(draw):
    """(rho, cov, which) over the kinds of T the positivity decision tells apart.

    A well-conditioned T (AR(1) mixture with |r| <= 0.9, so lambda_min(T) >=
    0.05), a singular T on the lower mu2 band edge (mu1 = 1 included), and a
    T accepted within PSD_TOLERANCE with a negative eigenvalue; states of
    every rank, eta^2 from 0 (g = 1) to 400.
    """
    kind = draw(st.sampled_from(["well-conditioned", "band-edge", "tolerance-accepted"]))
    if kind == "well-conditioned":
        n_uses = draw(st.integers(1, 5))
        weights = np.array(draw(st.lists(st.floats(0.01, 1.0), min_size=2, max_size=2)))
        rates = np.array(draw(st.lists(st.floats(-0.9, 0.9), min_size=2, max_size=2)))
        mu = [1.0] + [float(weights @ rates**m / weights.sum()) for m in range(1, n_uses)]
    elif kind == "band-edge":
        mu1 = draw(st.sampled_from([1.0, 0.5 ** 0.5]) | st.floats(0.0, 1.0))
        mu = [1.0, mu1, max(0.0, 2.0 * mu1 * mu1 - 1.0)]
    else:
        mu = [1.0, 0.5, -0.5 - draw(st.floats(1e-12, 1.4e-10))]
    eta_sq = draw(st.sampled_from([0.0, 20.0, 400.0]) | st.floats(0.0, 400.0))
    cov = PhaseCovariance(eta_sq=eta_sq, mu=mu)
    n = draw(st.integers(len(mu), 5))
    which = tuple(draw(st.permutations(range(n)))[: len(mu)])
    dim = 1 << n
    rank = draw(st.sampled_from([1, dim]) | st.integers(1, dim))
    state_rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    a = state_rng.normal(size=(dim, rank)) + 1j * state_rng.normal(size=(dim, rank))
    m = a @ a.conj().T
    return DensityMatrix(m / m.trace()), cov, which


class TestPositivityCertificate:
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(certificate_cases())
    def test_same_verdict_and_bits_as_factoring_every_output(self, case):
        rho, cov, which = case
        expected = reference_output(rho, cov, which)
        verdict = full_check_verdict(expected)
        if verdict is None:
            out = apply_channel(rho, cov, which).matrix
            assert np.array_equal(out, expected)
        else:
            with pytest.raises(ValueError) as raised:
                apply_channel(rho, cov, which)
            assert type(raised.value) is verdict

    @staticmethod
    def count_factorizations(monkeypatch):
        calls = []
        original = np.linalg.cholesky

        def counting(a, *args, **kwargs):
            calls.append(a.shape)
            return original(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "cholesky", counting)
        return calls

    @pytest.mark.parametrize(
        "g, mu, factorizations",
        [
            (0.3, 0.6 ** np.arange(10), 0),
            (0.3, np.ones(10), 1),  # singular T: every mu_m = 1
            (0.3, [1.0, 0.5, -0.5 - 1e-11], 1),  # lambda_min(T) ~ -7e-12
            (1e-6, 0.6 ** np.arange(10), 0),  # epsilon ~ 3e-12 at N = 10
            (1e-50, 0.6 ** np.arange(10), 0),  # subnormal entries, epsilon ~ 2.6e-11
            (1e-120, 0.6 ** np.arange(10), 1),  # epsilon ~ 6e-11, above half the floor
        ],
        ids=[
            "well-conditioned", "singular", "tolerance-accepted", "almost-total-dephasing",
            "subnormal-entries", "below-the-bound",
        ],
    )
    def test_factors_a_ten_qubit_output_only_when_t_does_not_prove_it(
        self, monkeypatch, g, mu, factorizations
    ):
        # T proves positivity at N = 10 where the rounding bound is below
        # half the floor: for every g above about 1e-98
        rho = DensityMatrix.from_state_vector(random_state_vector(11, 1024))
        cov = PhaseCovariance.from_damping(g, mu)
        which = range(len(mu))
        calls = self.count_factorizations(monkeypatch)
        out = apply_channel(rho, cov, which)
        assert calls == [(1024, 1024)] * factorizations
        assert np.array_equal(out.matrix, reference_output(rho, cov, which))

    @pytest.mark.skipif(
        np.finfo(np.longdouble).eps > 1e-18, reason="needs an extended-precision long double"
    )
    def test_each_exponent_is_within_its_rounding_bound(self, rng):
        # |E^(s) - E(s)| <= gamma_N W(s) for every weight vector, against the
        # lag-count sum in extended precision (each c_m mu_m exact there);
        # and so, at a drawn g, |D^(s) - D(s)| <= f, the one constant the
        # positivity certificate rests on
        worst = 0.0
        for _ in range(300):
            n = int(rng.integers(1, 10))
            weights, rates = rng.dirichlet(np.ones(3)), rng.uniform(-1.0, 1.0, 3)
            cov = PhaseCovariance(eta_sq=1.0, mu=[float(weights @ rates**m) for m in range(n)])
            products = _lag_counts(n).astype(np.longdouble) * cov.mu.astype(np.longdouble)[:, None]
            exact, w = products.sum(0), np.abs(products).sum(0)
            unit = np.longdouble(0.5 * np.finfo(float).eps)
            gamma = n * unit / (1 - n * unit)
            err = np.abs(_exponents(cov) - exact)
            assert np.all(err <= gamma * w)
            assert _exponents(cov)[-1] == 0.0  # s = 0
            worst = max(worst, float((err / np.maximum(gamma * w, 1e-300)).max()))
            damped = PhaseCovariance.from_damping(float(10.0 ** rng.uniform(-300.0, 0.0)), cov.mu)
            exact_decay = np.longdouble(damped.g) ** exact
            err = np.abs(np.power(damped.g, _exponents(damped)) - exact_decay)
            assert np.all(err <= _decay_error_bound(damped))
        assert worst > 0.0  # the sums do round

    @pytest.mark.skipif(
        np.finfo(np.longdouble).eps > 1e-18, reason="needs an extended-precision long double"
    )
    def test_rounding_bound_covers_the_rounding_of_d(self, rng):
        # D^ gathered from the table is symmetric with a unit diagonal;
        # rho o (D^ - D) lies under the rank-one majorant f v v^T entrywise,
        # and a finite epsilon covers its norm, with D in extended precision
        # and v_j = sqrt(rho_jj + |floor|)
        proven = 0
        for trial in range(60):
            n = int(rng.integers(1, 8))
            k = int(rng.integers(1, n + 1))
            which = tuple(int(p) for p in rng.permutation(n)[:k])
            weights, rates = rng.dirichlet(np.ones(3)), rng.uniform(-1.0, 1.0, 3)
            mu = [1.0] + [float(weights @ rates**m) for m in range(1, k)]
            if trial % 3 == 0:
                mu = [1.0] * k  # singular T from two uses on
            cov = PhaseCovariance.from_damping(float(10.0 ** rng.uniform(-300.0, 0.0)), mu)
            if trial % 2:
                rho = random_density_matrix(rng, n)
            else:
                rho = DensityMatrix.from_state_vector(random_state_vector(trial, 1 << n))
            out, bound = _decayed(rho, cov, which)
            u = _basis_bits(np.arange(1 << n), n, which) @ 3 ** np.arange(k)
            index = u[None, :] - u[:, None] + (3**k - 1) // 2
            d = _mirrored(np.power(cov.g, _exponents(cov)))[index]
            assert np.array_equal(d, d.T) and np.all(np.diag(d) == 1.0)
            assert np.array_equal(out, rho.matrix * d)
            if bound == np.inf:
                continue
            proven += 1
            counts = _lag_counts(k).astype(np.longdouble)
            exponents = _mirrored((counts * cov.mu.astype(np.longdouble)[:, None]).sum(0))
            err = (d - np.longdouble(cov.g) ** exponents[index]).astype(float)
            v = np.sqrt(np.diag(rho.matrix).real + 1e-10)
            assert np.all(np.abs(rho.matrix * err) <= _decay_error_bound(cov) * np.outer(v, v))
            assert np.linalg.norm(rho.matrix * err, 2) <= bound
        # both a finite and an infinite epsilon were exercised
        assert 0 < proven < 60

    @pytest.mark.parametrize(
        "g, n", [(1.0, 1), (0.3, 2), (0.3, 10), (1e-6, 10), (1e-50, 8), (1e-300, 39)]
    )
    def test_decay_error_bound_is_its_formula(self, g, n):
        # f = (2 x + 3u) e^x (1 + eps) + 5 tau, x = -ln(g) gamma_N N^2
        cov = PhaseCovariance.from_damping(g, [1.0] + [0.0] * (n - 1))
        u = 2.0**-53
        x = -math.log(cov.g) * n * u / (1 - n * u) * n * n
        f = (2 * x + 3 * u) * math.exp(x) * (1 + 2 * u) + 5 * 2.0**-1022
        assert _decay_error_bound(cov) == pytest.approx(f, rel=1e-14, abs=0)

    def test_decay_error_bound_is_infinite_past_its_preconditions(self):
        # g underflows to 0 at eta^2 = 400; x = -ln(g) gamma_N N^2 passes
        # 1/2 at g = 1e-300 and 2 * 10^4 uses, read from n_uses and g alone
        assert _decay_error_bound(PhaseCovariance(eta_sq=400.0, mu=[1.0])) == math.inf
        wide = types.SimpleNamespace(n_uses=20_000, g=1e-300)
        assert _decay_error_bound(wide) == math.inf

    @pytest.mark.parametrize(
        "mu, outputs", [(0.6 ** np.arange(10), 1.5), (np.ones(10), 3.5)], ids=["proven", "factored"]
    )
    def test_output_is_not_copied(self, mu, outputs):
        # peak traced memory of one ten-qubit call, in units of the 16 MiB
        # output: the output and the validation's row blocks when positivity
        # is proven; the output, its shifted copy and the Cholesky factor
        # when it is factored; a copy of the output would add one more
        rho = DensityMatrix.from_state_vector(random_state_vector(12, 1024))
        cov = PhaseCovariance.from_damping(0.3, mu)
        tracemalloc.start()
        try:
            apply_channel(rho, cov, range(10))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < outputs * rho.matrix.nbytes


class TestDensityMatrix:
    def test_matrix_is_read_only_and_not_rebindable(self):
        rho = DensityMatrix(np.eye(4) / 4)
        assert not rho.matrix.flags.writeable
        with pytest.raises(ValueError):
            rho.matrix[0, 0] = 0.0
        with pytest.raises(AttributeError):
            rho.matrix = np.eye(4, dtype=complex) / 4
        with pytest.raises(AttributeError):
            del rho.matrix
        np.testing.assert_array_equal(rho.matrix, np.eye(4) / 4)

    @pytest.mark.parametrize("entry", [np.nan, complex(0.1, np.nan), np.inf])
    def test_rejects_non_finite(self, entry):
        m = np.eye(2, dtype=complex) / 2
        m[0, 1] = entry
        m[1, 0] = np.conj(entry)
        with pytest.raises(ValueError, match="non-finite"):
            DensityMatrix(m)

    @pytest.mark.parametrize("n_qubits", [2, 6, 8])
    def test_positivity_boundary(self, rng, n_qubits):
        dim = 1 << n_qubits
        q, _ = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))

        def with_min_eigenvalue(w0):
            w = np.zeros(dim)
            w[0], w[-2], w[-1] = w0, 0.5 - w0, 0.5
            m = (q * w) @ q.conj().T
            return (m + m.conj().T) / 2

        with pytest.raises(NotPositiveSemidefinite, match=r"eigenvalue -1\.000e-09"):
            DensityMatrix(with_min_eigenvalue(-1e-9))
        DensityMatrix(with_min_eigenvalue(-1e-11))

    def test_rejects_non_hermitian(self):
        m = np.eye(2, dtype=complex) / 2
        m = m.copy()
        m[0, 1] = 0.5
        with pytest.raises(ValueError):
            DensityMatrix(m)

    def test_rejects_bad_trace(self):
        with pytest.raises(ValueError):
            DensityMatrix(np.eye(2, dtype=complex))

    def test_rejects_non_power_of_two(self):
        with pytest.raises(DimensionMismatch):
            DensityMatrix(np.eye(3, dtype=complex) / 3)

    def test_rejects_empty_matrix(self):
        with pytest.raises(DimensionMismatch, match="dimension 0"):
            DensityMatrix(np.zeros((0, 0)))

    @pytest.mark.parametrize("dim", [128, 512])
    @pytest.mark.parametrize(
        "position", ["top-right", "bottom-left", "above-boundary", "below-boundary"]
    )
    @pytest.mark.parametrize("direction", [1.0, 1j])
    def test_hermiticity_defect_anywhere_is_caught(self, rng, dim, position, direction):
        i, j = {
            "top-right": (0, dim - 1),
            "bottom-left": (dim - 1, 0),
            "above-boundary": (HERMITICITY_BLOCK - 1, HERMITICITY_BLOCK),
            "below-boundary": (HERMITICITY_BLOCK, HERMITICITY_BLOCK - 1),
        }[position]
        a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        base = a @ a.conj().T
        base = (base + base.conj().T) / (2 * base.trace().real)

        def with_defect(size):
            m = base.copy()
            m[i, j] += size * direction
            return m

        with pytest.raises(ValueError, match="not Hermitian"):
            DensityMatrix(with_defect(2e-12))
        DensityMatrix(with_defect(5e-13))

    def test_from_state_vector_normalizes(self):
        rho = DensityMatrix.from_state_vector([2.0, 0.0])
        assert rho.matrix[0, 0] == pytest.approx(1.0)
        assert rho.n_qubits == 1

    @pytest.mark.parametrize(
        "psi",
        [[0.0, 0.0], [1.0, np.nan], [np.inf, 0.0], [1.0, complex(0.0, np.nan)]],
        ids=["zero", "nan", "inf", "nan-imaginary"],
    )
    def test_from_state_vector_rejects_unnormalizable(self, psi):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="state vector"):
                DensityMatrix.from_state_vector(psi)

    def test_from_state_vector_rejects_matrix_input(self):
        with pytest.raises(DimensionMismatch, match="1-D"):
            DensityMatrix.from_state_vector(np.eye(2) / np.sqrt(2))


class TestHermiticityDefect:
    @pytest.mark.parametrize("dim", [1 << k for k in range(1, 11)] + [65, 100, 127, 200])
    def test_blocked_maximum_is_the_whole_matrix_maximum(self, rng, dim):
        general = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        hermitian = (general + general.conj().T) / 2
        near = hermitian + 1e-13 * (
            rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        )
        for m in (general, hermitian, near):
            assert _hermiticity_defect(m) == np.abs(m - m.conj().T).max()
