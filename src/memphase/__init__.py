"""Correlated dephasing channel with stationary Gaussian noise.

Exact coherence decay factors, error-correcting-code fidelities under
inter-use correlations, and Monte Carlo cross-validation of every closed
form.
"""

__version__ = "0.1.0"

from .channel import CoherenceLabel, DensityMatrix, apply_channel, decay_factor
from .circuit import (
    Gate,
    JointState,
    apply_gate,
    apply_pauli_z,
    bell_state_rq,
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
from .codes import (
    fe_single,
    fe_tqc_approx,
    fe_tqc_general,
    fe_tqc_memory,
    fe_tqc_via_circuit,
    mu2_opt,
    pe_tqc_memory,
    pe_two_qubit,
)
from .correlation import (
    ChannelParams,
    MuFeasibility,
    PhaseCovariance,
    check_mu_feasible,
    covariance_from_autocorrelation,
    covariance_from_spectrum,
    epsilon_from_g,
    g_from_epsilon,
)
from .errors import (
    ConfigError,
    DimensionMismatch,
    DomainError,
    EmptyEnsemble,
    FeasibilityWarning,
    NotPositiveSemidefinite,
    PositionOutOfRange,
    QuadratureNonConvergence,
    StepTooCoarse,
    WhiteNoiseUndefined,
)
from .montecarlo import (
    McEstimate,
    mc_decay_factor,
    mc_tqc_fidelity,
    sample_phases_direct,
    sample_phases_trajectory,
)
from .spectrum import (
    Lorentzian,
    OneOverF,
    PowerSpectrum,
    White,
    autocorrelation,
    kernel_integral,
    spectral_density,
)

__all__ = [
    "__version__",
    "White", "Lorentzian", "OneOverF", "PowerSpectrum",
    "spectral_density", "autocorrelation", "kernel_integral",
    "ChannelParams", "PhaseCovariance", "MuFeasibility",
    "covariance_from_spectrum", "covariance_from_autocorrelation",
    "epsilon_from_g", "g_from_epsilon", "check_mu_feasible",
    "CoherenceLabel", "DensityMatrix", "decay_factor", "apply_channel",
    "Gate", "hadamard", "cnot", "toffoli", "gate_unitary", "JointState",
    "prepare_bell_with_ancillas", "apply_gate", "apply_pauli_z",
    "tqc_encode", "tqc_decode", "partial_trace", "bell_state_rq",
    "entanglement_fidelity",
    "fe_single", "fe_tqc_general", "fe_tqc_memory",
    "pe_tqc_memory", "fe_tqc_approx", "pe_two_qubit", "mu2_opt",
    "fe_tqc_via_circuit",
    "McEstimate", "sample_phases_direct", "sample_phases_trajectory",
    "mc_decay_factor", "mc_tqc_fidelity",
    "DomainError", "WhiteNoiseUndefined", "QuadratureNonConvergence",
    "NotPositiveSemidefinite", "DimensionMismatch", "PositionOutOfRange",
    "StepTooCoarse", "EmptyEnsemble", "ConfigError", "FeasibilityWarning",
]
