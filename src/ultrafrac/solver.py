"""Solver for the nonlinear Cauchy problem D^a u = f(|t|, u), u(0) = u0.

The mild formulation replaces the differential equation by the integral
equation u = u0 + I^a f(., u), which is local: the value on a ball only
needs f on the same ball.  :func:`picard_solve` builds the local solution
on shells [k_min, N] by successive substitution of the integral map, with
the contraction factor rho = C * F * q^(a N) predicted from the certified
operator bound.  :func:`continue_solution` then extends shell by shell:
at each new shell the mild equation collapses to the scalar fixed-point
problem

    u(q^(l+1)) = u0 + v0 + q^(a l) * f(q^(l+1), u(q^(l+1))),

where v0 is the known integral over the already-solved ball; every call
of f on a shell gets one radius object, which the compiled rhs memoizes.
:func:`verify_strict` checks that the mild solution actually satisfies
the differential equation pointwise, by applying the derivative operator
to u - u0 and comparing with f along the solution.

Shells below the solve window are handled through a constant tail model
for f(., u) anchored at the cutoff; the cutoff is chosen so that the
certified effect of any model error (at most 2M) stays below tol/10.
A solution carries f(., u) with this tail as ``MildSolution.phi``, which
continuation extends: beyond the iterations themselves, f is formed at
most once per solved shell, and not at all on a continued shell whose
last iterate repeats the one before it.
"""

from __future__ import annotations

import math
import sys
from collections.abc import Callable, Sequence
from functools import cached_property

from .errors import (
    ContractionFailure,
    DeclarationViolated,
    DivergentTail,
    MarginTooSmall,
    MissingBeta,
    NoContraction,
    RangeExceeded,
    ToleranceNotReached,
)
from .expr import make_callable, parse_expression
from .fracint import KernelSum, apply_ialpha, bound_constant
from .grid import ConditionEntry, RadialFunction, RadialGrid, TailSpec, qpow
from .record import Record
from .vladimirov import apply_dalpha, fit_upper_tail

__all__ = [
    "RhsSpec",
    "MildSolution",
    "ResidualReport",
    "picard_solve",
    "mild_residuals",
    "continue_solution",
    "verify_strict",
]

#: solved shells that verify_strict needs on each side of its window
_VERIFY_MARGIN = 10


class RhsSpec(Record):
    """The nonlinearity f(r, x) with its declared constants.

    ``f`` maps (radius, state) to a real; ``M`` bounds |f| uniformly, ``F``
    is a global Lipschitz constant in x, ``F_l`` an optional per-shell
    Lipschitz map used by the continuation, and ``beta`` an optional decay
    exponent: |f(q^l, x)| <= C q^(-beta l) for l >= 1.  The constants are
    declarations; :func:`verify_strict` checks M and the decay constant
    along the solution it verifies.
    """

    __slots__ = ("f", "M", "F", "F_l", "beta")

    def __init__(self, f: Callable[[float, float], float], M: float, F: float,
                 F_l: Callable[[int], float] | None = None,
                 beta: float | None = None) -> None:
        if not 0.0 < M < math.inf:
            raise ValueError(f"M must be positive and finite, got {M}")
        if not 0.0 < F < math.inf:
            raise ValueError(f"F must be positive and finite, got {F}")
        if beta is not None and not math.isfinite(beta):
            raise ValueError(f"beta must be finite, got {beta}")
        Record.__init__(self, f, M, F, F_l, beta)

    @classmethod
    def from_expressions(cls, text: str, M: float, F: float, q: int,
                         F_l_text: str | None = None,
                         beta: float | None = None) -> "RhsSpec":
        """Build from expression source: f over (r, x), F_l over l."""
        node = parse_expression(text, ("r", "x"))
        f = make_callable(node, q, ("r", "x"))
        fl = None
        if F_l_text is not None:
            fl_node = parse_expression(F_l_text, ("l",))
            fl_call = make_callable(fl_node, q, ("l",))
            fl = lambda l: fl_call(float(l))
        return cls(f, M, F, fl, beta)


class MildSolution(Record):
    """Per-shell solution values of D^a u = f(|t|, u), u(0) = u0, with
    iteration diagnostics.

    The problem (``rhs``, ``alpha``, ``u0``) travels with its solution.
    ``values[i]`` is u(q^k) for k = grid.k_min + i, up to the frontier
    grid.k_max.  ``picard_history`` holds the sup-norm successive
    differences of the Picard stage; continued shells record their scalar
    fixed-point iteration counts, contraction factors and mild residuals
    ``fp_residuals``, which :func:`mild_residuals` reads in place of a
    second integral.  u(0) = u0 by continuity.  ``phi`` is f(., u) on the
    solved shells, formed on first use; a copy made by :meth:`replace` forms
    its own.  A copy given another problem (``rhs``, ``alpha`` or ``u0``) or
    other ``values`` must pass ``fp_residuals={}``, so that every residual
    is integrated afresh; a dict left out or empty becomes a new one.
    """

    __slots__ = ("grid", "rhs", "alpha", "u0", "values", "picard_history", "predicted_rho",
                 "fp_iterations", "contraction_factors", "fp_residuals", "__dict__")

    def __init__(self, grid: RadialGrid, rhs: RhsSpec, alpha: float, u0: float,
                 values: tuple[float, ...], picard_history: tuple[float, ...],
                 predicted_rho: float, fp_iterations: dict[int, int] | None = None,
                 contraction_factors: dict[int, float] | None = None,
                 fp_residuals: dict[int, float] | None = None) -> None:
        Record.__init__(self, grid, rhs, alpha, u0, values, picard_history, predicted_rho,
                        fp_iterations or {}, contraction_factors or {}, fp_residuals or {})

    @property
    def q(self) -> int:
        return self.grid.q

    @property
    def k_min(self) -> int:
        return self.grid.k_min

    @property
    def frontier(self) -> int:
        return self.grid.k_max

    @property
    def picard_iterations(self) -> int:
        return len(self.picard_history)

    @cached_property
    def phi(self) -> RadialFunction:
        return _phi_function(self.q, self.k_min, self.values, self.rhs)


class ResidualReport(Record):
    """Pointwise residuals on a window, as (shell, residual) pairs, plus
    the checks of the declared constants made along the way.

    A strict report whose declared constant fails has no residuals
    (``residuals == ()``), and its ``max_residual`` is nan."""

    __slots__ = ("window", "residuals", "checks")

    @property
    def max_residual(self) -> float:
        return max((r for _, r in self.residuals), default=math.nan)

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)


def _phi_function(q: int, k_min: int, values: Sequence[float],
                  rhs: RhsSpec) -> RadialFunction:
    """f(., u(.)) on the shells of ``values`` from k_min on, with a constant
    tail below the cutoff."""
    vals = [rhs.f(qpow(q, k), v) for k, v in enumerate(values, k_min)]
    return RadialFunction.from_values(q, k_min, vals, 0.0, TailSpec.constant(vals[0]))


def _truncation_bound(alpha: float, q: int, misfit: float,
                      k0: int, n_hi: int) -> float:
    """Certified bound on the integral's response, at any shell in
    [k0, n_hi], to an error of at most ``misfit`` on every shell below k0.

    The exact supremum, reached at n_hi because E grows with its argument:
    misfit q^(a k0) (q^-a + |expm1(-a L)| E(n_hi - k0)/q).  It is formed as
    E(d) = q^(max(a-1, 0)(d-1)) * sum_{i<d} q^(-|a-1| i), a power of q that
    joins the cutoff's factor and a bounded series, so no factor overflows
    before the bound does; E(d) = d at a == 1 exactly.
    """
    lnq = math.log(q)
    d = n_hi - k0
    s = -abs(alpha - 1.0) * lnq
    series = float(d) if alpha == 1.0 else math.expm1(d * s) / math.expm1(s)
    power = qpow(q, alpha * k0 - 1.0 + max(alpha - 1.0, 0.0) * (d - 1))
    return misfit * (qpow(q, alpha * (k0 - 1.0))
                     - math.expm1(-alpha * lnq) * series * power)


def _certified_depth(alpha: float, q: int, M: float, tol: float, N: int) -> int:
    """Deepest shell needed so that modelling f(., u) below it by a constant
    (error at most 2M) perturbs the integral by less than tol/10."""
    k0 = min(N, 0)
    target = tol / 10.0
    while _truncation_bound(alpha, q, 2.0 * M, k0, N) > target:
        k0 -= 1
        # the kernel |y|^(a-1) at the cutoff radius: past the float range it
        # raises RangeExceeded here, before any window is allocated, which
        # also bounds this loop for a tiny alpha
        qpow(q, (alpha - 1.0) * k0)
    return k0


def picard_solve(rhs: RhsSpec, u0: float, alpha: float, q: int, N: int,
                 k_min: int | None = None, tol: float = 1e-12,
                 max_iter: int = 100) -> MildSolution:
    """Local mild solution on shells [k_min, N] by Picard iteration.

    The iteration map is u -> u0 + I^a f(., u); its predicted contraction
    factor rho = C * F * q^(a N) is recorded on the result (convergence is
    only guaranteed when N is small enough that rho < 1; callers shrink N
    otherwise).  ``k_min`` may be given to pin the report window; the
    solver deepens it as needed so the certified cutoff error stays below
    tol/10.  The iteration starts from u0 on every shell.

    Raises :class:`NoContraction` when rho >= 1 and the iteration fails or
    overflows, and :class:`ToleranceNotReached` when the budget runs out
    while the differences are still shrinking.
    """
    if alpha <= 0.0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    if tol <= 0.0:
        raise ValueError("tol must be positive")
    if max_iter < 1:
        raise ValueError("max_iter must be at least 1")
    C = bound_constant(alpha, RadialGrid(q, 0, 0))
    rho = C * rhs.F * qpow(q, alpha * N)
    depth = _certified_depth(alpha, q, rhs.M, tol, N)
    if k_min is not None:
        depth = min(depth, k_min)
    grid = RadialGrid(q, depth, N)
    cur = [u0] * grid.size
    history: list[float] = []
    converged = False
    for step in range(1, max_iter + 1):
        try:
            integ = apply_ialpha(_phi_function(q, depth, cur, rhs), alpha, (depth, N))
        except RangeExceeded as exc:
            if rho < 1.0:
                raise
            raise NoContraction(
                f"predicted contraction factor rho = {rho:.6g} >= 1 and iteration "
                f"{step} overflows ({exc}); shrink N") from exc
        nxt = [u0 + w for w in integ.values]
        diff = max(abs(a - b) for a, b in zip(nxt, cur))
        history.append(diff)
        cur = nxt
        if diff <= tol:
            converged = True
            break
    if not converged:
        if rho >= 1.0:
            raise NoContraction(
                f"predicted contraction factor rho = {rho:.6g} >= 1 and the "
                f"iteration did not converge in {max_iter} steps; shrink N")
        raise ToleranceNotReached(
            f"still converging after {max_iter} iterations "
            f"(last difference {history[-1]:.3e}, tol {tol:.3e})")
    return MildSolution(grid, rhs, alpha, u0, tuple(cur), tuple(history), rho)


def mild_residuals(sol: MildSolution) -> ResidualReport:
    """|u - (u0 + I^a f(., u))| on every solved shell, with the uniform
    bound M checked on the same values of f, ``sol.phi``.

    The Picard shells take one extra Picard map.  The continued shells, the
    last ``len(sol.fp_residuals)``, read the residuals that
    :func:`continue_solution` recorded: the same sums, grouped the same
    way, over the same ``phi``, so the same bits.
    """
    phi = sol.phi
    integ = apply_ialpha(phi, sol.alpha, (sol.k_min, sol.frontier - len(sol.fp_residuals)))
    residuals = tuple((k, abs(u - (sol.u0 + w)))
                      for k, u, w in zip(sol.grid.shells, sol.values, integ.values))
    residuals += tuple(sol.fp_residuals.items())
    return ResidualReport((sol.k_min, sol.frontier), residuals,
                          (_bound_entry(phi, sol.rhs.M),))


def continue_solution(sol: MildSolution, k_max: int, tol: float = 1e-12,
                      max_iter: int = 200) -> MildSolution:
    """Extend the solution shell by shell up to ``k_max``.

    Each new shell solves the scalar equation x = u0 + v0 + q^(a l) f(., x)
    by plain successive substitution; the per-shell contraction factor
    q^(a l) * F_(l+1) and the mild residual
    |x - (u0 + (q^(a l) f(., x) + v0))|, grouped as
    :func:`~ultrafrac.fracint.apply_ialpha` groups it, are recorded.  All
    calls of f on a shell pass one radius object q^(l+1).  Raises
    :class:`ContractionFailure` at the first shell whose iteration diverges
    or stalls, and :class:`DeclarationViolated` when F_(l+1) is not in
    [0, inf).

    v0 reads ``sol.phi`` (f(., u) with the constant lower tail of the
    Picard stage) through one :class:`~ultrafrac.fracint.KernelSum` kept
    running across steps.  f at the converged x extends ``phi`` on the
    result and takes one more step of the sum; it is formed once more only
    when the last step moved x (a step between 0.0 and -0.0 counts as a
    move), and otherwise is the value the last step read.
    """
    if k_max <= sol.frontier:
        return sol
    q, rhs, alpha, u0 = sol.q, sol.rhs, sol.alpha, sol.u0
    values = list(sol.values)
    fp_iters = dict(sol.fp_iterations)
    factors = dict(sol.contraction_factors)
    resid = dict(sol.fp_residuals)
    phi = sol.phi
    f_vals = list(phi.values)
    run = KernelSum(phi.lower_tail, q, alpha, sol.k_min)
    for v in f_vals:
        run.push(v)
    for l in range(sol.frontier, k_max):
        v0 = run.value
        gain = qpow(q, alpha * l)
        r_next = qpow(q, l + 1)
        F_next = rhs.F_l(l + 1) if rhs.F_l is not None else rhs.F
        if not 0.0 <= F_next < math.inf:
            raise DeclarationViolated(f"F_l at shell {l + 1} is {F_next!r}, outside [0, inf)")
        factor = gain * F_next
        limit = 10.0 * (abs(u0) + abs(v0) + gain * rhs.M + 1.0)
        x = values[-1]
        for its in range(1, max_iter + 1):
            fx = rhs.f(r_next, x)
            x_new = u0 + v0 + gain * fx
            if not math.isfinite(x_new) or abs(x_new) > limit:
                raise ContractionFailure(
                    f"iterate diverged at shell {l + 1} "
                    f"(contraction factor {factor:.6g})", shell=l + 1, factor=factor)
            if abs(x_new - x) <= tol:
                break
            x = x_new
        else:
            raise ContractionFailure(
                f"no convergence at shell {l + 1} within {max_iter} iterations "
                f"(contraction factor {factor:.6g})", shell=l + 1, factor=factor)
        # fx is f at x; equal nonzero floats have equal bits, equal zeros may not
        if x_new != x or x == 0.0:
            fx = rhs.f(r_next, x_new)
        values.append(x_new)
        fp_iters[l + 1] = its
        factors[l + 1] = factor
        resid[l + 1] = abs(x_new - (u0 + (gain * fx + v0)))
        f_vals.append(fx)
        if l + 1 < k_max:
            run.push(fx)
    ext = sol.replace(grid=RadialGrid(q, sol.k_min, k_max), values=tuple(values),
                      fp_iterations=fp_iters, contraction_factors=factors, fp_residuals=resid)
    ext.__dict__["phi"] = RadialFunction.from_values(q, sol.k_min, f_vals, 0.0, phi.lower_tail)
    return ext


def verify_strict(sol: MildSolution, window: tuple[int, int]) -> ResidualReport:
    """Check that the mild solution solves the differential equation.

    Computes |(D^a u)(q^n) - f(q^n, u(q^n))| on ``window``.  The derivative
    is applied to u - u0 (constants are annihilated exactly), with a zero
    lower tail certified by the Picard cutoff and an upper tail fitted
    beyond an internally extended horizon, so that both tail models
    contribute below the reporting accuracy.  The declared constants of the
    rhs are checked first, along the extended solution: the uniform bound M
    on every solved shell and a finite decay constant for the declared
    beta.  When one fails, the derivative is not applied and the report
    has no residuals.

    Requires solved margins of at least 10 shells around the window, and
    raises :class:`MissingBeta` unless a decay exponent beta > alpha is
    declared.
    """
    n_lo, n_hi = window
    if n_lo > n_hi:
        raise ValueError(f"empty verification window [{n_lo}, {n_hi}]")
    rhs, alpha = sol.rhs, sol.alpha
    if rhs.beta is None or rhs.beta <= alpha:
        msg = ("no decay exponent declared" if rhs.beta is None else
               f"declared beta = {rhs.beta:g} does not exceed alpha = {alpha:g}")
        raise MissingBeta(msg + "; strict verification needs beta > alpha")
    if sol.k_min > n_lo - _VERIFY_MARGIN or sol.frontier < n_hi + _VERIFY_MARGIN:
        raise MarginTooSmall(
            f"need the solution on [{n_lo - _VERIFY_MARGIN}, {n_hi + _VERIFY_MARGIN}], "
            f"have [{sol.k_min}, {sol.frontier}]")

    q = sol.q
    scale = abs(sol.u0) + rhs.M + 1.0
    margin = math.ceil((13.0 * math.log(10.0) + math.log(scale))
                       / (min(1.0, rhs.beta) * math.log(q))) + 4
    margin = min(max(margin, 20), 200)
    horizon = n_hi + margin
    work = sol
    note = f"internally extended to shell {horizon}"
    if work.frontier < horizon:
        try:
            work = continue_solution(sol, horizon, tol=1e-13, max_iter=400)
        except (ContractionFailure, DivergentTail) as exc:
            horizon = work.frontier
            note = f"extension unavailable ({exc}); evaluating at frontier {horizon}"
    checks = (ConditionEntry("evaluation horizon", True, note), *_declared_constant_checks(work))
    report = ResidualReport((n_lo, n_hi), (), checks)
    if not report.ok:
        return report

    g_vals = tuple(v - sol.u0 for v in work.values[: horizon - work.k_min + 1])
    g = RadialFunction(RadialGrid(q, work.k_min, horizon), g_vals)
    # the upper tail stays zero below the reporting accuracy; a fitted
    # exponent that does not decay faster than q^(a l) becomes a constant
    if abs(g_vals[-1]) > 1e-13 * scale:
        g = fit_upper_tail(g)
        if g.upper_tail.e >= alpha - 1e-9:
            g = g.replace(upper_tail=TailSpec.constant(g_vals[-1]))
    deriv = apply_dalpha(g, alpha, (n_lo, n_hi))
    phi = work.phi
    residuals = tuple((n, abs(w - phi.eval(n)))
                      for n, w in zip(range(n_lo, n_hi + 1), deriv.values))
    return report.replace(residuals=residuals)


def _declared_constant_checks(work: MildSolution) -> list[ConditionEntry]:
    """The declared constants of the rhs, checked along the solved shells.

    The uniform bound M must hold for f(q^k, u_k) on every solved shell,
    with the relative slack 1e-9, and the decay constant of the declared
    beta, max |f(q^l, u_l)| q^(beta l) over shells l >= 1, must be a finite
    float.  Each entry names the shell that decides it.
    """
    q, rhs, phi = work.q, work.rhs, work.phi
    far_shell = _far_overflow_shell(phi, q, rhs.beta, work.frontier)
    verdict = ("is a finite float" if far_shell is None else
               f"is not a finite float (largest term at shell {far_shell})")
    return [_bound_entry(phi, rhs.M), ConditionEntry(
        "decay constant", far_shell is None,
        f"max |f(q^l, u_l)| q^(b l) over shells 1..{work.frontier} {verdict}")]


def _bound_entry(phi: RadialFunction, M: float) -> ConditionEntry:
    """The uniform bound M against the window values of phi = f(., u),
    with the relative slack 1e-9; the entry names the shell of the maximum."""
    peak, shell = max((abs(v), k) for k, v in enumerate(phi.values, phi.grid.k_min))
    return ConditionEntry(
        "uniform bound M", peak <= M * (1.0 + 1e-9),
        f"max |f(q^k, u_k)| = {peak:.6g} at shell {shell}; declared M = {M:g}")


def _far_overflow_shell(phi: RadialFunction, q: int, beta: float,
                        frontier: int) -> int | None:
    """The shell of the largest term of max |phi_l| q^(beta l) over shells
    l = 1..frontier when that maximum is not a finite float, else None.

    The terms are compared by their logarithms; a zero phi_l contributes
    nothing.
    """
    ln_q = math.log(q)
    log_big, shell = max(((math.log(a) + beta * j * ln_q, j)
                          for j in range(1, frontier + 1)
                          if (a := abs(phi.eval(j))) > 0.0), default=(0.0, None))
    return shell if log_big > math.log(sys.float_info.max) else None
