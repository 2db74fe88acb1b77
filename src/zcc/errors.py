"""Shared exception types.

Validation problems (bad user input, mixed fields, malformed expressions)
raise ValueError subclasses; computational guards and cross-check failures
get their own classes so the CLI can map them to exit code 2.
"""


class ZccError(Exception):
    """Base class for all package-specific errors."""


class ValidationError(ZccError, ValueError):
    """Malformed or inconsistent user input."""


class GuardError(ZccError):
    """A desk-scale size guard was exceeded."""


class InconsistencyError(ZccError):
    """An exact cross-check failed (interpolation slack sample, oracle mismatch)."""


class StructureError(ZccError):
    """A structural invariant that should hold mathematically was violated."""
