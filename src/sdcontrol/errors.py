"""Exception hierarchy for the toolkit.

Every error raised by the public API derives from ToolkitError so callers
can tell toolkit failures from bugs.  Each class carries the CLI's exit
status for it as the class attribute ``exit_code``: 1 configuration or
parameter error, 2 violated plant assumption, 3 gain synthesis failure,
4 infeasible certificate, 5 diverged simulation.
"""

__all__ = [
    "ToolkitError",
    "ConfigError",
    "InvalidParameterError",
    "AssumptionViolatedError",
    "SynthesisFailureError",
    "CertificateParameterError",
    "InfeasibleCertificateError",
    "SimulationDivergedError",
    "InsufficientDataError",
]


class ToolkitError(Exception):
    """Base class for all toolkit errors; exit_code is the CLI's status."""

    exit_code = 1


class ConfigError(ToolkitError):
    """A run configuration file is missing, malformed, or inconsistent."""


class InvalidParameterError(ToolkitError):
    """An argument violates a documented precondition."""


class AssumptionViolatedError(ToolkitError):
    """A structural assumption fails (e.g. an unstable mode is discarded)."""

    exit_code = 2


class SynthesisFailureError(ToolkitError):
    """Gain synthesis failed (uncontrollable pair, ill-conditioned placement,
    or no stabilizing solution)."""

    exit_code = 3


class CertificateParameterError(ToolkitError):
    """Certificate weights violate a feasibility inequality."""

    exit_code = 4


class InfeasibleCertificateError(ToolkitError):
    """No feasible certificate parameters were found."""

    exit_code = 4


class SimulationDivergedError(ToolkitError):
    """The integrated state left the finite range."""

    exit_code = 5


class InsufficientDataError(ToolkitError):
    """A trajectory does not contain enough samples for the requested fit."""
