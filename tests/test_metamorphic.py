"""Exact relations between configs that the channel's table proof rests on.

Each relation holds bit for bit, so each is checked with ``==`` on the
floats' bytes, not within a tolerance: the mirrored table gives D^(s) =
D^(-s), the zero weight vector gives D^(0) = 1, the lag counts are the
same for s and s reversed, and the covariance of N uses is a prefix of
that of more uses.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from memphase.channel import DensityMatrix, _exponents, _mirrored, apply_channel
from memphase.correlation import ChannelParams, PhaseCovariance, covariance_from_spectrum
from memphase.spectrum import Lorentzian, OneOverF, White

# fixed example sequence, so the suite gives the same verdict on every run
METAMORPHIC_SETTINGS = settings(max_examples=40, deadline=None, derandomize=True, database=None)


@st.composite
def covariances(draw, max_uses=8):
    """An AR(1)-mixture mu (PSD at every order) at g from 1e-4 to 1."""
    n_uses = draw(st.integers(1, max_uses))
    weights = np.array(draw(st.lists(st.floats(0.01, 1.0), min_size=2, max_size=2)))
    rates = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=2, max_size=2)))
    mu = [1.0] + [float(weights @ rates**m / weights.sum()) for m in range(1, n_uses)]
    return PhaseCovariance.from_damping(draw(st.floats(1e-4, 1.0)), mu)


@METAMORPHIC_SETTINGS
@given(covariances(), st.data())
def test_the_gathered_table_is_symmetric_with_a_unit_diagonal(cov, data):
    # rho = 1/dim everywhere is a valid pure state whose every product
    # rho_jl D^_jl is exact (a power of two times D^, far from underflow at
    # g >= 1e-4), so dim * out is the gathered table itself
    n = data.draw(st.integers(cov.n_uses, 8))
    which = tuple(data.draw(st.permutations(range(n)))[: cov.n_uses])
    dim = 1 << n
    out = apply_channel(DensityMatrix(np.full((dim, dim), 1.0 / dim)), cov, which).matrix
    table = out.real * dim
    assert table.tobytes() == table.T.copy().tobytes()
    assert np.all(np.diag(table) == 1.0)
    half = np.power(cov.g, _exponents(cov))
    mirrored = _mirrored(half)
    assert mirrored.tobytes() == mirrored[::-1].tobytes()
    assert half[-1] == 1.0


@METAMORPHIC_SETTINGS
@given(covariances(max_uses=5), st.integers(0, 2**32 - 1))
def test_the_output_diagonal_is_the_input_diagonal(cov, seed):
    # D^(0) = 1 exactly, and a complex times a real rounds each part once,
    # so the populations come through unchanged (equal as values; only the
    # sign of a zero part may differ) and the trace is rho's
    n = cov.n_uses
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(1 << n, 3)) + 1j * rng.normal(size=(1 << n, 3))
    m = a @ a.conj().T
    rho = DensityMatrix(m / m.trace().real, validate=False)
    out = apply_channel(rho, cov, range(n)).matrix
    assert np.array_equal(np.diag(out), np.diag(rho.matrix))
    assert out.trace() == rho.matrix.trace()


@METAMORPHIC_SETTINGS
@given(covariances(max_uses=9))
def test_reversing_the_uses_keeps_every_exponent(cov):
    # c_m(s) = c_m(reversed s) are the same integers, summed in the same
    # order, so E^(s) = E^(reversed s) bit for bit over all 3^N vectors
    n = cov.n_uses
    exponents = _mirrored(_exponents(cov))
    index = np.arange(3**n)
    digits = index[:, None] // 3 ** np.arange(n) % 3
    reversed_index = digits[:, ::-1] @ 3 ** np.arange(n)
    assert exponents[reversed_index].tobytes() == exponents.tobytes()


@st.composite
def spectra(draw):
    kind = draw(st.sampled_from(["white", "lorentzian", "one_over_f"]))
    if kind == "white":
        return White(draw(st.floats(0.01, 10.0)))
    if kind == "lorentzian":
        return Lorentzian(draw(st.floats(0.01, 10.0)), draw(st.floats(0.01, 10.0)))
    omega_min = draw(st.floats(0.01, 1.0))
    return OneOverF(draw(st.floats(0.01, 10.0)), omega_min, omega_min * draw(st.floats(2.0, 1e3)))


@METAMORPHIC_SETTINGS
@given(spectra(), st.floats(0.1, 2.0), st.floats(1.0, 4.0), st.floats(0.1, 2.0))
def test_five_uses_are_a_prefix_of_forty(spec, tau_p, spacing, coupling):
    # each lag's kernel integral depends on that lag alone, for all three
    # spectra (1/f takes every lag's Ci values from one call)
    short = covariance_from_spectrum(spec, ChannelParams(coupling, tau_p, tau_p * spacing, 5))
    long = covariance_from_spectrum(spec, ChannelParams(coupling, tau_p, tau_p * spacing, 40))
    assert short.mu.tobytes() == long.mu[:5].tobytes()
    assert short.eta_sq == long.eta_sq
