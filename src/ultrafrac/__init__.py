"""Fractional calculus for radial functions on non-Archimedean local fields.

Radial functions live on the shell lattice q**Z.  The package evaluates
the fractional derivative and its regularized right inverse through exact
shell series (with independent hypersingular-integral oracles), and solves
the nonlinear Cauchy problem D^a u = f(|t|, u), u(0) = u0 by Picard
iteration with shell-by-shell continuation and strict-residual
verification.
"""

from .errors import (
    ConfigError,
    ContractionFailure,
    DeclarationViolated,
    DivergentTail,
    DomainViolation,
    ExpressionError,
    ExprEvalError,
    ExprNameError,
    ExprSyntaxError,
    MarginTooSmall,
    MissingBeta,
    NoContraction,
    RangeExceeded,
    ToleranceNotReached,
    UltrafracError,
)
from .expr import FUNCTIONS, RhsExpr, make_callable, parse_expression
from .fracint import (
    apply_ialpha,
    bound_constant,
    ialpha_domain,
    ialpha_oracle,
    kernel_constant,
)
from .grid import (
    ConditionEntry,
    ConditionReport,
    RadialFunction,
    RadialGrid,
    TailSpec,
    qpow,
)
from .solver import (
    MildSolution,
    ResidualReport,
    RhsSpec,
    continue_solution,
    mild_residuals,
    picard_solve,
    verify_strict,
)
from .vladimirov import (
    apply_dalpha,
    dalpha_domain,
    dalpha_oracle,
    diag_coeff,
    fit_upper_tail,
    theta,
)

__version__ = "0.1.0"
