"""Exception types shared across the package."""

from __future__ import annotations


class UltrafracError(Exception):
    """Base class for every error raised by this package."""


class DivergentTail(UltrafracError):
    """A weighted tail series has geometric ratio >= 1 and cannot be summed."""


class DomainViolation(UltrafracError):
    """Input function violates the growth conditions an operator requires."""


class NoContraction(UltrafracError):
    """Picard iteration failed to converge and the predicted factor is >= 1."""


class ToleranceNotReached(UltrafracError):
    """Iteration budget exhausted while differences were still shrinking."""


class ContractionFailure(UltrafracError):
    """Scalar fixed-point iteration failed at a continuation shell."""

    def __init__(self, message: str, shell: int | None = None,
                 factor: float | None = None):
        super().__init__(message)
        self.shell = shell
        self.factor = factor


class MissingBeta(UltrafracError):
    """Strict verification needs a decay exponent beta greater than alpha."""


class MarginTooSmall(UltrafracError):
    """Strict verification needs the solved window to overhang the report window."""


class DeclarationViolated(UltrafracError):
    """A constant declared for the rhs (the bound M, the decay constant
    implied by beta, or a per-shell Lipschitz constant F_l outside
    [0, inf)) fails its check along the solution."""


class RangeExceeded(UltrafracError):
    """A power q^x leaves the float range: a radius, weight or kernel factor
    that the shell series needs cannot be represented."""


class ConfigError(UltrafracError):
    """Malformed or incomplete run configuration."""


class ExpressionError(UltrafracError):
    """Base class for expression parsing and evaluation errors."""


class ExprSyntaxError(ExpressionError):
    """Syntax error, with the byte offset and the tokens that were expected."""

    def __init__(self, message: str, offset: int, expected: tuple[str, ...] = ()):
        tail = f" (expected {', '.join(expected)})" if expected else ""
        super().__init__(f"{message} at byte {offset}{tail}")
        self.offset = offset
        self.expected = expected


class ExprNameError(ExpressionError):
    """Unknown identifier in an expression."""

    def __init__(self, name: str, offset: int):
        super().__init__(f"unknown identifier '{name}' at byte {offset}")
        self.name = name
        self.offset = offset


class ExprEvalError(ExpressionError):
    """Evaluation hit a domain error (log of a nonpositive value, zero division, overflow)."""
