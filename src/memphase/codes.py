"""Closed-form code fidelities under correlated dephasing.

All formulas are functions of the single-use damping g (equivalently the
single-use error probability epsilon = (1-g)/2) and of the use-correlation
coefficients mu1 (adjacent uses) and mu2 (next-to-adjacent).  For the
three-qubit phase code transmitted in order Q, A, B the pair correlations
are mu_QA = mu_AB = mu1 and mu_QB = mu2.

The ``fig2`` / ``fig3`` rows come from ``_fig2_points`` / ``_fig3_points``,
one loop per sweep.  ``fig3``'s memoryless and worst-case columns, the code
at (mu1, mu2) = (0, 0) and (1, 1), are ``_pe_tqc_memoryless`` and
``_pe_tqc_worst``: at those two points 1 - F factors as (1 - g)^2 times a
polynomial in g, so it is formed without cancelling F against 1.  They take
1 - g as u = 2 epsilon, which is exact in floats, not as 1 - g of the
rounded g = 1 - 2 epsilon, which would carry g's rounding error into a
number of size epsilon; both sweeps' two-qubit column takes ln g as
log1p(-2 epsilon) for the same reason.  These columns are exact to the
printed digits: ``tests/test_codes.py::TestFactoredForms`` checks the forms,
and ``TestSweepPoints`` every number the sweeps yield for them, against
mpmath in epsilon to 1e-15 relative.  ``fig2``'s three code columns still
form 1 - F of ``fe_tqc_memory`` (~1e-11 relative at epsilon = 1e-3): its loop
repeats that function's operations in the same order, with the g-only terms
(1/2 + 3g/4, g^3/16) taken once per sweep and a power that two bracket terms
share taken once, and ``TestSweepPoints`` pins those columns and mu2_lower
to ``fe_tqc_memory`` and ``correlation._mu2_lower`` by ``float.hex``.

``fe_tqc_via_circuit`` re-derives the closed form by running the full
encode / channel / decode pipeline exactly (no sampling); agreement to
machine precision is part of the acceptance suite.  The source is encoded
once per process (``circuit._encoded_source``) and shared, so a call runs
the channel and the decode gates, the latter as one loop over raw matrices.
A state is validated where it enters from outside and where the channel
makes it, nowhere else, so each call validates one state: the channel
output.  The Monte Carlo route checks the same pipeline through its weight
table (``circuit._code_weights``), read off the same encoded source.
"""

from __future__ import annotations

import math
import warnings

from .channel import apply_channel
from .circuit import CODE_ORDER, JointState, _encoded_source, entanglement_fidelity, tqc_decode
from .correlation import PhaseCovariance, _check_damping, check_mu_feasible
from .errors import DomainError, FeasibilityWarning

__all__ = [
    "fe_single",
    "fe_tqc_general",
    "fe_tqc_memory",
    "pe_tqc_memory",
    "fe_tqc_approx",
    "pe_two_qubit",
    "mu2_opt",
    "fe_tqc_via_circuit",
]


def fe_single(g: float) -> float:
    """Entanglement fidelity of one uncoded channel use: (1 + g)/2."""
    _check_damping(g)
    return 0.5 * (1.0 + g)


def fe_tqc_general(g: float, mu_qa: float, mu_qb: float, mu_ab: float) -> float:
    """Three-qubit-code fidelity for arbitrary pair correlations.

    1/2 + (3/4) g - (g^3/16) [ g^(2 mu_QA - 2 mu_QB - 2 mu_AB)
                             + g^(-2 mu_QA + 2 mu_QB - 2 mu_AB)
                             + g^(-2 mu_QA - 2 mu_QB + 2 mu_AB)
                             + g^(2 mu_QA + 2 mu_QB + 2 mu_AB) ]
    """
    _check_damping(g)
    bracket = (
        g ** (2 * mu_qa - 2 * mu_qb - 2 * mu_ab)
        + g ** (-2 * mu_qa + 2 * mu_qb - 2 * mu_ab)
        + g ** (-2 * mu_qa - 2 * mu_qb + 2 * mu_ab)
        + g ** (2 * mu_qa + 2 * mu_qb + 2 * mu_ab)
    )
    return 0.5 + 0.75 * g - g**3 / 16.0 * bracket


def fe_tqc_memory(g: float, mu1: float, mu2: float) -> float:
    """Three-qubit-code fidelity with stationary use correlations.

    1/2 + (3/4) g - (g^3/16) [2 g^(-2 mu2) + g^(2 mu2 - 4 mu1)
                              + g^(2 mu2 + 4 mu1)]

    Infeasible (mu1, mu2) pairs warn but still evaluate: the formula is a
    well-defined function everywhere.
    """
    _check_damping(g)
    verdict = check_mu_feasible(mu1, mu2)
    if not verdict.feasible:
        warnings.warn(
            f"(mu1={mu1}, mu2={mu2}) violates {verdict.violation} "
            f"(band [{verdict.mu2_lower:.6g}, {verdict.mu2_upper:.6g}])",
            FeasibilityWarning,
            stacklevel=2,
        )
    bracket = 2.0 * g ** (-2 * mu2) + g ** (2 * mu2 - 4 * mu1) + g ** (2 * mu2 + 4 * mu1)
    return 0.5 + 0.75 * g - g**3 / 16.0 * bracket


def _pe_tqc_memoryless(eps: float) -> float:
    """1 - F at (mu1, mu2) = (0, 0) for epsilon in [0, 0.5), unchecked.

    (1 - g)^2 (2 + g)/4 with 1 - g = u = 2 epsilon: u^2 (3 - u)/4.
    """
    u = 2.0 * eps
    return u * u * (3.0 - u) / 4.0


def _pe_tqc_worst(eps: float) -> float:
    """1 - F at (mu1, mu2) = (1, 1) for epsilon in [0, 0.5), unchecked.

    (g^9 - 9 g + 8)/16 = u^2 P(g)/16 with u = 2 epsilon, g = 1 - u and
    P(g) = g^7 + 2 g^6 + 3 g^5 + 4 g^4 + 5 g^3 + 6 g^2 + 7 g + 8, by Horner's rule.
    """
    u = 2.0 * eps
    g = 1.0 - u
    p = ((((((g + 2.0) * g + 3.0) * g + 4.0) * g + 5.0) * g + 6.0) * g + 7.0) * g + 8.0
    return u * u * p / 16.0


def _fig2_points(eps: float, mu1_grid):
    """Yield the printed numbers of each fig2 grid point, unchecked.

    Per mu1 in [0, 1]: (mu1, mu2_lower, Pe at mu2_lower, Pe at mu2 = mu1,
    Pe_two_qubit), where mu2_lower = ``_mu2_lower(mu1)``, the code error
    probabilities are 1 - ``fe_tqc_memory`` of g = 1 - 2 epsilon in (0, 1),
    and Pe_two_qubit is ``pe_two_qubit``'s form with ln g taken as
    log1p(-2 epsilon).  A point whose lower edge is 0 yields no mu2_lower,
    only the other four.  The code columns are the same IEEE results as
    ``fe_tqc_memory``'s: the g-only terms are taken once per sweep, and at
    mu2 = mu1 the exponents 2 mu1 - 4 mu1 and -2 mu1 are the same float, so
    that power is taken once.
    """
    g = 1.0 - 2.0 * eps
    fe0 = 0.5 + 0.75 * g
    cube = g**3 / 16.0
    # ln g < 0 for epsilon > 0, so -expm1 of a multiple of it is never -0
    log_g = math.log1p(-2.0 * eps)
    expm1 = math.expm1
    for mu1 in mu1_grid:
        twice, four = 2 * mu1, 4 * mu1
        shared = g ** (-2 * mu1)
        pe_equal = 1.0 - (fe0 - cube * (2.0 * shared + shared + g ** (twice + four)))
        pe_2q = -0.5 * expm1(2.0 * (1.0 - mu1) * log_g)
        mu2 = 2.0 * mu1 * mu1 - 1.0
        if mu2 > 0.0:
            mu2_twice = 2 * mu2
            bracket = 2.0 * g ** (-2 * mu2) + g ** (mu2_twice - four) + g ** (mu2_twice + four)
            yield mu1, mu2, 1.0 - (fe0 - cube * bracket), pe_equal, pe_2q
        else:
            # g ** (-2 * 0.0) is 1.0
            bracket = 2.0 + g ** -four + g**four
            yield mu1, 1.0 - (fe0 - cube * bracket), pe_equal, pe_2q


def _fig3_points(eps_grid):
    """Yield (epsilon, Pe at (0, 0), Pe at (1, 1), Pe_two_qubit at mu1 = 0.99)
    per epsilon in (0, 0.5), unchecked: the two factored forms, and
    ``pe_two_qubit``'s form with ln g taken as log1p(-2 epsilon).
    """
    expm1, log1p = math.expm1, math.log1p
    two_qubit = 2.0 * (1.0 - 0.99)
    for eps in eps_grid:
        yield (
            eps,
            _pe_tqc_memoryless(eps),
            _pe_tqc_worst(eps),
            -0.5 * expm1(two_qubit * log1p(-2.0 * eps)),
        )


def pe_tqc_memory(g: float, mu1: float, mu2: float) -> float:
    """Code error probability 1 - F of the correlated three-qubit code."""
    return 1.0 - fe_tqc_memory(g, mu1, mu2)


def fe_tqc_approx(epsilon: float, mu1: float, mu2: float) -> float:
    """Small-epsilon expansion: 1 - (3 + 4 mu1^2 + 2 mu2^2) epsilon^2.

    Documented validity range is epsilon <= 0.05; outside it the quadratic
    truncation simply degrades.
    """
    return 1.0 - (3.0 + 4.0 * mu1 * mu1 + 2.0 * mu2 * mu2) * epsilon * epsilon


def pe_two_qubit(g: float, mu1: float) -> float:
    """Error probability of the two-qubit {|01>, |10>} subspace code.

    The logical coherence carries weights (+1, -1), so it decays by
    g^(2 - 2 mu1) and the error probability is (1 - g^(2 - 2 mu1))/2;
    decoherence-free at mu1 = 1.  Evaluated as -expm1((2 - 2 mu1) ln g)/2,
    which keeps full relative precision when g^(2 - 2 mu1) is close to 1.
    """
    _check_damping(g)
    # + 0.0 turns the -0.0 of g = 1 into 0.0
    return -0.5 * math.expm1(2.0 * (1.0 - mu1) * math.log(g)) + 0.0


def mu2_opt(g: float, mu1: float) -> float:
    """Location of the error-probability minimum in mu2 at fixed (g, mu1).

    mu2_opt = -0.25 * log_g[ (g^(4 mu1) + g^(-4 mu1)) / 2 ].

    May fall outside the feasible band [max(0, 2 mu1^2 - 1), mu1]; that
    case is reported with a ``FeasibilityWarning`` and the raw value is
    still returned.
    """
    if not 0.0 < g < 1.0:
        raise DomainError(f"log base g must be in (0, 1), got {g}")
    if not 0.0 <= mu1 <= 1.0:
        raise DomainError(f"mu1 must be in [0, 1], got {mu1}")
    value = -0.25 * math.log(0.5 * (g ** (4 * mu1) + g ** (-4 * mu1))) / math.log(g)
    verdict = check_mu_feasible(mu1, value)
    if not verdict.feasible:
        warnings.warn(
            f"mu2_opt={value:.6g} lies outside the feasible band "
            f"[{verdict.mu2_lower:.6g}, {verdict.mu2_upper:.6g}] at mu1={mu1}",
            FeasibilityWarning,
            stacklevel=2,
        )
    return value


def fe_tqc_via_circuit(cov: PhaseCovariance) -> float:
    """Code fidelity from the explicit gate pipeline (exact, no sampling).

    Takes the purified source, encoded once per process, sends (Q, A, B)
    through the channel in that order (``circuit.CODE_ORDER``), decodes,
    traces out the ancillas and evaluates the overlap with the ideal pair.
    """
    rho = apply_channel(_encoded_source().rho, cov, CODE_ORDER)
    return entanglement_fidelity(tqc_decode(JointState(rho)))
