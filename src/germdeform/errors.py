"""Exception taxonomy for the toolkit.

Every failure the library raises on purpose derives from ToolkitError, so
callers (and the CLI) can separate numerical / domain failures from bugs.
"""

from __future__ import annotations


class ToolkitError(Exception):
    """Base class for all deliberate failures."""


class ConfigError(ToolkitError):
    """Malformed or inconsistent configuration input."""


class DomainError(ToolkitError):
    """Input outside the valid domain of an operation."""


class ConvergenceError(ToolkitError):
    """An iterative scheme failed to converge within its budget."""


class SingularDerivativeError(ToolkitError):
    """A derivative needed for inversion or division is (numerically) zero."""


class DegenerateCycleError(ToolkitError):
    """A cycle passes through a critical point, so its multiplier is 0."""


class ChartError(ToolkitError):
    """Linearizing chart construction failed (resonance, radius search)."""


class ShearError(ToolkitError):
    """Requested multiplier deformation is degenerate or out of range."""


class UnreliableEstimateError(ToolkitError):
    """A measured quantity failed its internal consistency gate."""


class InsufficientDataError(ToolkitError):
    """Not enough usable data to evaluate the requested quantity."""
