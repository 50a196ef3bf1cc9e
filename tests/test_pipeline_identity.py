"""The code pipeline's shortcuts give the bits of the routes they stand for.

``fe_tqc_via_circuit`` decodes the raw channel output and reads the Bell
overlap off four diagonal blocks of it; ``entanglement_fidelity`` reads the
overlap the same way; ``apply_channel`` reads its weight offsets from a
cache.  Each is compared with ``==`` on the floats' bytes against the
public route it replaces (``tqc_decode``, ``partial_trace``, offsets built
afresh), so the check holds on any machine.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from memphase.channel import DensityMatrix, _weight_offsets, apply_channel
from memphase.circuit import (
    CODE_ORDER,
    JointState,
    bell_state_rq,
    entanglement_fidelity,
    partial_trace,
    prepare_bell_with_ancillas,
    tqc_decode,
    tqc_encode,
)
from memphase.codes import fe_tqc_via_circuit
from memphase.correlation import PhaseCovariance, _mu2_lower

# fixed example sequence, so the suite gives the same verdict on every run
IDENTITY_SETTINGS = settings(max_examples=60, deadline=None, derandomize=True, database=None)


def overlap_via_partial_trace(m: np.ndarray) -> float:
    """<psi|rho_RQ|psi> of a joint matrix, rho_RQ from ``partial_trace``."""
    psi = bell_state_rq()
    rho_rq = partial_trace(m, (JointState.R, JointState.Q), 4)
    return float(np.real(psi.conj() @ rho_rq @ psi))


@st.composite
def code_covariances(draw):
    """(g, mu1, mu2) in the feasible band, band edges included, g from 1e-3 to 1."""
    mu1 = draw(st.floats(0.0, 1.0))
    mu2 = draw(st.floats(_mu2_lower(mu1), mu1))
    return PhaseCovariance.from_damping(draw(st.floats(1e-3, 1.0)), [1.0, mu1, mu2])


@st.composite
def density_matrices(draw, n_qubits):
    """A validated density matrix of any rank, complex Wishart."""
    dim = 1 << n_qubits
    rank = draw(st.sampled_from([1, dim]) | st.integers(1, dim))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    a = rng.normal(size=(dim, rank)) + 1j * rng.normal(size=(dim, rank))
    m = a @ a.conj().T
    return DensityMatrix(m / m.trace())


@IDENTITY_SETTINGS
@given(code_covariances())
def test_circuit_fidelity_is_the_public_pipeline_bit_for_bit(cov):
    source = tqc_encode(prepare_bell_with_ancillas()).rho
    decoded = tqc_decode(JointState(apply_channel(source, cov, CODE_ORDER)))
    assert fe_tqc_via_circuit(cov) == overlap_via_partial_trace(decoded.rho.matrix)


@IDENTITY_SETTINGS
@given(density_matrices(4))
def test_entanglement_fidelity_is_the_partial_trace_form_bit_for_bit(rho):
    assert entanglement_fidelity(JointState(rho)) == overlap_via_partial_trace(rho.matrix)


@IDENTITY_SETTINGS
@given(st.integers(1, 9), st.data())
def test_cached_offsets_give_the_same_bytes_cold_and_warm(n, data):
    # up to 7 qubits the output is one block, from 8 on it is filled in row blocks
    k = data.draw(st.integers(1, n))
    which = tuple(data.draw(st.permutations(range(n)))[:k])
    rho = data.draw(density_matrices(n))
    cov = PhaseCovariance.from_damping(data.draw(st.floats(1e-3, 1.0)), [1.0] + [0.3] * (k - 1))
    _weight_offsets.cache_clear()
    cold = apply_channel(rho, cov, which).matrix
    warm = apply_channel(rho, cov, which).matrix
    assert cold.tobytes() == warm.tobytes()
    u, shifted = _weight_offsets(n, which)
    assert not u.flags.writeable and not shifted.flags.writeable
    bits = (np.arange(1 << n)[:, None] >> (n - 1 - np.array(which))) & 1
    assert np.array_equal(u, bits @ 3 ** np.arange(k))
    assert np.array_equal(shifted, u + (3**k - 1) // 2)
    assert _weight_offsets.cache_info().maxsize == 256
