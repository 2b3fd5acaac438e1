"""Exception hierarchy shared across the package.

The command line interface maps these onto process exit codes, so library
code should raise the most specific type that applies.
"""

from __future__ import annotations


class SharmonicError(Exception):
    """Base class for all package-specific errors."""


class ConfigError(SharmonicError, ValueError):
    """Invalid configuration: bad parameter ranges, malformed inputs,
    or a function whose growth makes the operator integral diverge."""


class DomainError(SharmonicError, ValueError):
    """A mathematically invalid argument, e.g. evaluating a derivative
    at a kink or requesting a block with a nonpositive offset."""


class EvaluationError(SharmonicError, RuntimeError):
    """A function produced a non-finite value at a quadrature node."""

    def __init__(self, message: str, node: float | None = None):
        super().__init__(message)
        self.node = node


class ApproximationError(SharmonicError, RuntimeError):
    """The requested approximation tolerance could not be certified."""

