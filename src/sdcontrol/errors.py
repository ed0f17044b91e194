"""Exception hierarchy for the toolkit.

Every error raised by the public API derives from ToolkitError so callers
(and the CLI exit-code mapping) can tell toolkit failures from bugs.
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
    """Base class for all toolkit errors."""


class ConfigError(ToolkitError):
    """A run configuration file is missing, malformed, or inconsistent."""


class InvalidParameterError(ToolkitError):
    """An argument violates a documented precondition."""


class AssumptionViolatedError(ToolkitError):
    """A structural assumption fails (e.g. an unstable mode is discarded)."""


class SynthesisFailureError(ToolkitError):
    """Gain synthesis failed (uncontrollable pair, ill-conditioned placement,
    or no stabilizing solution)."""


class CertificateParameterError(ToolkitError):
    """Certificate weights violate a feasibility inequality."""


class InfeasibleCertificateError(ToolkitError):
    """No feasible certificate parameters were found."""


class SimulationDivergedError(ToolkitError):
    """The integrated state left the finite range."""


class InsufficientDataError(ToolkitError):
    """A trajectory does not contain enough samples for the requested fit."""
