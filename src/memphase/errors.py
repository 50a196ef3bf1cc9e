"""Exception and warning types shared across the package, and ``_integer``,
the one reader of its integer arguments."""

import operator


class DomainError(ValueError):
    """An argument lies outside the mathematical domain of the operation."""


class WhiteNoiseUndefined(ValueError):
    """Pointwise autocorrelation requested for white noise.

    The white-noise autocorrelation is a delta distribution; only kernel
    integrals of it are defined.  Callers should use the spectral route.
    """


class QuadratureNonConvergence(ArithmeticError):
    """Adaptive quadrature failed to reach the requested tolerance.

    The package no longer raises it: the spectral kernels are closed forms.
    It stays importable for code that catches it.
    """


class NotPositiveSemidefinite(DomainError):
    """A covariance or density matrix has a negative eigenvalue beyond tolerance.

    For a phase covariance it means the correlation coefficients are
    mutually inconsistent: no Gaussian phase vector has them.  The commands
    report it, as every DomainError, as a config error.
    """


class DimensionMismatch(ValueError):
    """Operands disagree on register size or number of channel uses."""


class PositionOutOfRange(IndexError):
    """A qubit position does not exist in the register."""


class StepTooCoarse(ValueError):
    """Trajectory time step too large relative to the transit time."""


class EmptyEnsemble(ValueError):
    """A Monte Carlo estimate was requested from zero samples."""


class ConfigError(ValueError):
    """Malformed run configuration; message carries line/field diagnostics."""


class FeasibilityWarning(UserWarning):
    """A (mu1, mu2) pair violates the physical feasibility constraints.

    The closed-form fidelities remain well-defined, so sweeps warn and
    keep going instead of failing.
    """


def _integer(value, error: type[Exception], message: str) -> int:
    """``value`` as an int, read with ``operator.index`` so that Python and numpy
    integers pass and 1.5, 4.0 and "3" raise ``error(message.format(value))``."""
    try:
        return operator.index(value)
    except TypeError:
        raise error(message.format(value)) from None
