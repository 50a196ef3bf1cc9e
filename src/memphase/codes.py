"""Closed-form code fidelities under correlated dephasing.

All formulas are functions of the single-use damping g (equivalently the
single-use error probability epsilon = (1-g)/2) and of the use-correlation
coefficients mu1 (adjacent uses) and mu2 (next-to-adjacent).  For the
three-qubit phase code transmitted in order Q, A, B the pair correlations
are mu_QA = mu_AB = mu1 and mu_QB = mu2.

``_fe_tqc`` holds the stationary three-qubit-code formula with no checks:
``fe_tqc_memory`` calls it after checking its arguments, and the ``fig2`` /
``fig3`` sweeps call it after checking each distinct value once per sweep,
so the public function and the sweep columns share one expression.

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
    return _fe_tqc(g, mu1, mu2)


def _fe_tqc(g: float, mu1: float, mu2: float) -> float:
    """The ``fe_tqc_memory`` formula without the checks on g and (mu1, mu2)."""
    bracket = 2.0 * g ** (-2 * mu2) + g ** (2 * mu2 - 4 * mu1) + g ** (2 * mu2 + 4 * mu1)
    return 0.5 + 0.75 * g - g**3 / 16.0 * bracket


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
