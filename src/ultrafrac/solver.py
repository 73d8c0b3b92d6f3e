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

where v0 is the known integral over the already-solved ball (see
:func:`v0_constant`).  :func:`verify_strict` checks that the mild solution
actually satisfies the differential equation pointwise, by applying the
derivative operator to u - u0 and comparing with f along the solution.

Shells below the solve window are handled through a constant tail model
for f(., u) anchored at the cutoff; the cutoff is chosen so that the
certified effect of any model error (at most 2M) stays below tol/10.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

from .errors import (
    ContractionFailure,
    DivergentTail,
    FrontierTooLow,
    MarginTooSmall,
    MissingBeta,
    NoContraction,
    ToleranceNotReached,
)
from .expr import make_callable, parse_expression
from .fracint import (
    apply_ialpha,
    bound_constant,
    front_coeff,
    is_log_branch,
    kernel_sums,
    offdiag_integral,
    second_sum_weight,
)
from .grid import (
    ConditionEntry,
    ConditionReport,
    LowerPrefix,
    RadialFunction,
    RadialGrid,
    TailSpec,
    qpow,
    weighted_tail_sum,
)
from .vladimirov import apply_dalpha, fit_power_tails

__all__ = [
    "RhsSpec",
    "MildSolution",
    "ResidualReport",
    "picard_solve",
    "mild_residuals",
    "v0_constant",
    "continue_solution",
    "verify_strict",
    "check_rhs_conditions",
]

_VERIFY_MARGIN = 10


@dataclass(frozen=True)
class RhsSpec:
    """The nonlinearity f(r, x) with its declared constants.

    ``f`` maps (radius, state) to a real; ``M`` bounds |f| uniformly, ``F``
    is a global Lipschitz constant in x, ``F_l`` an optional per-shell
    Lipschitz map used by the continuation, and ``beta`` an optional decay
    exponent: |f(q^l, x)| <= C q^(-beta l) for l >= 1.  The constants are
    declarations; :func:`check_rhs_conditions` verifies them by sampling.
    """

    f: Callable[[float, float], float]
    M: float
    F: float
    F_l: Callable[[int], float] | None = None
    beta: float | None = None

    def __post_init__(self) -> None:
        if not 0.0 < self.M < math.inf:
            raise ValueError(f"M must be positive and finite, got {self.M}")
        if not 0.0 < self.F < math.inf:
            raise ValueError(f"F must be positive and finite, got {self.F}")
        if self.beta is not None and not math.isfinite(self.beta):
            raise ValueError(f"beta must be finite, got {self.beta}")

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


@dataclass(frozen=True)
class MildSolution:
    """Per-shell solution values with iteration diagnostics.

    ``values[i]`` is u(q^k) for k = grid.k_min + i, up to the frontier
    grid.k_max.  ``picard_history`` holds the sup-norm successive
    differences of the Picard stage; continued shells record their scalar
    fixed-point iteration counts and contraction factors.  u(0) = u0 by
    continuity.
    """

    grid: RadialGrid
    alpha: float
    u0: float
    values: tuple[float, ...]
    picard_history: tuple[float, ...]
    picard_iterations: int
    picard_frontier: int
    predicted_rho: float
    envelope_ok: bool
    fp_iterations: dict[int, int] = field(default_factory=dict)
    contraction_factors: dict[int, float] = field(default_factory=dict)

    @property
    def q(self) -> int:
        return self.grid.q

    @property
    def k_min(self) -> int:
        return self.grid.k_min

    @property
    def frontier(self) -> int:
        return self.grid.k_max

    def value(self, k: int) -> float:
        if not self.k_min <= k <= self.frontier:
            raise ValueError(f"shell {k} outside solved window "
                             f"[{self.k_min}, {self.frontier}]")
        return self.values[k - self.k_min]

    def iterations_at(self, k: int) -> int:
        return self.fp_iterations.get(k, self.picard_iterations)

    def contraction_at(self, k: int) -> float:
        return self.contraction_factors.get(k, self.predicted_rho)


@dataclass(frozen=True)
class ResidualReport:
    """Pointwise residuals |(D^a u)(q^n) - f(q^n, u(q^n))| plus checks."""

    window: tuple[int, int]
    residuals: tuple[tuple[int, float], ...]
    max_residual: float
    checks: tuple[ConditionEntry, ...]

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)


def _phi_function(q: int, k_min: int, values: Sequence[float],
                  rhs: RhsSpec, upto: int) -> RadialFunction:
    """f(., u(.)) on [k_min, upto], with a constant tail below the cutoff."""
    vals = [rhs.f(qpow(q, k), values[k - k_min]) for k in range(k_min, upto + 1)]
    return RadialFunction(RadialGrid(q, k_min, upto), tuple(vals), 0.0,
                          TailSpec.constant(vals[0]), TailSpec.zero())


def _truncation_bound(alpha: float, q: int, misfit: float,
                      k0: int, n_hi: int) -> float:
    """Certified bound on the integral's response, at any shell in
    [k0, n_hi], to an error of at most ``misfit`` on every shell below k0."""
    one = 1.0 - 1.0 / q
    front_abs = abs(front_coeff(alpha, q))
    if is_log_branch(alpha):
        g0 = qpow(q, k0) / (q - 1.0)
        y = 1.0 / q
        g1 = qpow(q, k0 - 1.0) * ((k0 - 1) / (1.0 - y) - y / (1.0 - y) ** 2)
        return misfit * front_abs * one * math.log(q) * (n_hi * g0 - g1)
    n_star = n_hi if alpha >= 1.0 else k0
    term1 = qpow(q, (alpha - 1.0) * n_star + k0 - 1.0)
    term2 = one * qpow(q, alpha * (k0 - 1.0)) / (1.0 - qpow(q, -alpha))
    return misfit * front_abs * (term1 + term2)


def _certified_depth(alpha: float, q: int, M: float, tol: float, N: int) -> int:
    """Deepest shell needed so that modelling f(., u) below it by a constant
    (error at most 2M) perturbs the integral by less than tol/10."""
    k0 = min(N, 0)
    target = tol / 10.0
    while _truncation_bound(alpha, q, 2.0 * M, k0, N) > target:
        k0 -= 1
    return k0


def picard_solve(rhs: RhsSpec, u0: float, alpha: float, q: int, N: int,
                 k_min: int | None = None, tol: float = 1e-12,
                 max_iter: int = 100, start_offset: float = 0.0) -> MildSolution:
    """Local mild solution on shells [k_min, N] by Picard iteration.

    The iteration map is u -> u0 + I^a f(., u); its predicted contraction
    factor rho = C * F * q^(a N) is recorded on the result (convergence is
    only guaranteed when N is small enough that rho < 1; callers shrink N
    otherwise).  ``k_min`` may be given to pin the report window; the
    solver deepens it as needed so the certified cutoff error stays below
    tol/10.  ``start_offset`` shifts the initial iterate away from u0,
    which is useful for uniqueness checks.

    Raises :class:`NoContraction` when rho >= 1 and the iteration fails,
    and :class:`ToleranceNotReached` when the budget runs out while the
    differences are still shrinking.
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
    cur = [u0 + start_offset] * grid.size
    history: list[float] = []
    envelope_ok = True
    floor = 64.0 * 2.3e-16 * (abs(u0) + rhs.M * C * qpow(q, alpha * N) + 1.0)
    converged = False
    for it in range(1, max_iter + 1):
        integ = apply_ialpha(_phi_function(q, depth, cur, rhs, N), alpha, (depth, N))
        nxt = [u0 + w for w in integ.values]
        diff = max(abs(a - b) for a, b in zip(nxt, cur))
        history.append(diff)
        if start_offset == 0.0 and diff > floor:
            # the envelope C^it M F^(it-1) q^(it a N), in logs: the product
            # itself overflows for large N or many iterations
            log_envelope = (it * math.log(C) + math.log(rhs.M)
                            + (it - 1) * math.log(rhs.F) + it * alpha * N * math.log(q))
            if math.log(diff) > log_envelope + math.log1p(1e-6):
                envelope_ok = False
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
    return MildSolution(grid, alpha, u0, tuple(cur), tuple(history),
                        len(history), N, rho, envelope_ok)


def mild_residuals(sol: MildSolution, rhs: RhsSpec) -> tuple[float, ...]:
    """|u - (u0 + I^a f(., u))| per solved shell: one extra Picard map."""
    phi = _phi_function(sol.q, sol.k_min, sol.values, rhs, sol.frontier)
    integ = apply_ialpha(phi, sol.alpha, (sol.k_min, sol.frontier))
    return tuple(abs(u - (sol.u0 + w)) for u, w in zip(sol.values, integ.values))


def v0_constant(sol: MildSolution, rhs: RhsSpec, alpha: float, N: int) -> float:
    """The known constant in the one-shell continuation equation at N + 1.

    Integral of the kernel difference against f(., u(.)) over the solved
    ball |y| <= q^N; the lower tail is the certified constant model of the
    Picard stage.  Requires the solution through shell N.
    """
    if sol.frontier < N:
        raise FrontierTooLow(
            f"solution frontier {sol.frontier} is below requested shell {N}")
    q = sol.q
    phi = _phi_function(q, sol.k_min, sol.values, rhs, N)
    s_plain, s_second = kernel_sums(phi, alpha, N, N)
    return offdiag_integral(alpha, q, front_coeff(alpha, q), N + 1,
                            s_plain[0], s_second[0])


def continue_solution(sol: MildSolution, rhs: RhsSpec, alpha: float,
                      k_max: int, tol: float = 1e-12,
                      max_iter: int = 200) -> MildSolution:
    """Extend the solution shell by shell up to ``k_max``.

    Each new shell solves the scalar equation x = u0 + v0 + q^(a l) f(., x)
    by plain successive substitution; the per-shell contraction factor
    q^(a l) * F_(l+1) is recorded.  Raises :class:`ContractionFailure` at
    the first shell whose iteration diverges or stalls.

    v0 reads f(., u) through two lower sums over the solved shells.  They
    are kept running across steps, so each new shell costs one more
    evaluation of f and one more term per sum; the values are bit-identical
    to :func:`v0_constant` at every step.
    """
    if k_max <= sol.frontier:
        return sol
    q = sol.q
    u0 = sol.u0
    values = list(sol.values)
    fp_iters = dict(sol.fp_iterations)
    factors = dict(sol.contraction_factors)
    front = front_coeff(alpha, q)
    phi = _phi_function(q, sol.k_min, values, rhs, sol.frontier)
    w, p = second_sum_weight(alpha)
    plain = LowerPrefix(phi.lower_tail, q, 1.0, sol.k_min)
    second = LowerPrefix(phi.lower_tail, q, w, sol.k_min, p)
    for v in phi.values:
        plain.push(v)
        second.push(v)
    for l in range(sol.frontier, k_max):
        v0 = offdiag_integral(alpha, q, front, l + 1, plain.value, second.value)
        gain = qpow(q, alpha * l)
        r_next = qpow(q, l + 1)
        F_next = rhs.F_l(l + 1) if rhs.F_l is not None else rhs.F
        factor = gain * F_next
        limit = 10.0 * (abs(u0) + abs(v0) + gain * rhs.M + 1.0)
        x = values[-1]
        its = 0
        converged = False
        while its < max_iter:
            x_new = u0 + v0 + gain * rhs.f(r_next, x)
            its += 1
            if not math.isfinite(x_new) or abs(x_new) > limit:
                raise ContractionFailure(
                    f"iterate diverged at shell {l + 1} "
                    f"(contraction factor {factor:.6g})", shell=l + 1, factor=factor)
            if abs(x_new - x) <= tol:
                x = x_new
                converged = True
                break
            x = x_new
        if not converged:
            raise ContractionFailure(
                f"no convergence at shell {l + 1} within {max_iter} iterations "
                f"(contraction factor {factor:.6g})", shell=l + 1, factor=factor)
        values.append(x)
        fp_iters[l + 1] = its
        factors[l + 1] = factor
        if l + 1 < k_max:
            phi_next = rhs.f(r_next, x)
            plain.push(phi_next)
            second.push(phi_next)
    return MildSolution(RadialGrid(q, sol.k_min, k_max), alpha, u0,
                        tuple(values), sol.picard_history,
                        sol.picard_iterations, sol.picard_frontier,
                        sol.predicted_rho, sol.envelope_ok, fp_iters, factors)


def verify_strict(sol: MildSolution, rhs: RhsSpec, alpha: float,
                  window: tuple[int, int], force: bool = False) -> ResidualReport:
    """Check that the mild solution solves the differential equation.

    Computes |(D^a u)(q^n) - f(q^n, u(q^n))| on ``window``.  The derivative
    is applied to u - u0 (constants are annihilated exactly), with a zero
    lower tail certified by the Picard cutoff and an upper tail fitted
    beyond an internally extended horizon, so that both tail models
    contribute below the reporting accuracy.  Also re-checks the split
    bounds on the continuation constants v0 for shells l >= 1.

    Requires a declared decay exponent beta > alpha and solved margins of
    at least 10 shells around the window; ``force=True`` skips the beta
    requirement (the residual then exposes how the equation fails).
    """
    n_lo, n_hi = window
    if n_lo > n_hi:
        raise ValueError(f"empty verification window [{n_lo}, {n_hi}]")
    checks: list[ConditionEntry] = []
    if rhs.beta is None or rhs.beta <= alpha:
        msg = ("no decay exponent declared" if rhs.beta is None else
               f"declared beta = {rhs.beta:g} does not exceed alpha = {alpha:g}")
        if not force:
            raise MissingBeta(msg + "; strict verification needs beta > alpha")
        checks.append(ConditionEntry("decay exponent beta", False, msg + " (forced)"))
    else:
        checks.append(ConditionEntry("decay exponent beta", True,
                                     f"beta = {rhs.beta:g} > alpha = {alpha:g}"))
    if sol.k_min > n_lo - _VERIFY_MARGIN or sol.frontier < n_hi + _VERIFY_MARGIN:
        raise MarginTooSmall(
            f"need the solution on [{n_lo - _VERIFY_MARGIN}, {n_hi + _VERIFY_MARGIN}], "
            f"have [{sol.k_min}, {sol.frontier}]")

    q = sol.q
    scale = abs(sol.u0) + rhs.M + 1.0
    beta_eff = min(1.0, rhs.beta) if (rhs.beta is not None and rhs.beta > 0) else 1.0
    margin = math.ceil((13.0 * math.log(10.0) + math.log(scale))
                       / (beta_eff * math.log(q))) + 4
    margin = min(max(margin, 20), 200)
    horizon = n_hi + margin
    work = sol
    note = f"internally extended to shell {horizon}"
    if work.frontier < horizon:
        try:
            work = continue_solution(sol, rhs, alpha, horizon,
                                     tol=1e-13, max_iter=400)
        except (ContractionFailure, DivergentTail) as exc:
            horizon = work.frontier
            note = f"extension unavailable ({exc}); evaluating at frontier {horizon}"
    checks.append(ConditionEntry("evaluation horizon", True, note))

    g_vals = tuple(v - sol.u0 for v in work.values[: horizon - work.k_min + 1])
    g = RadialFunction(RadialGrid(q, work.k_min, horizon), g_vals)
    # the upper tail stays zero below the reporting accuracy; a fitted
    # exponent that does not decay faster than q^(a l) becomes a constant
    if abs(g_vals[-1]) > 1e-13 * scale:
        g = fit_power_tails(g, fit_lower=False)
        if g.upper_tail.exponent() >= alpha - 1e-9:
            g = g.with_tails(upper=TailSpec.constant(g_vals[-1]))
    deriv = apply_dalpha(g, alpha, (n_lo, n_hi))
    residuals = tuple(
        (n, abs(w - rhs.f(qpow(q, n), work.value(n))))
        for n, w in zip(range(n_lo, n_hi + 1), deriv.values))
    max_residual = max(r for _, r in residuals)

    checks.extend(_v0_split_checks(work, rhs, alpha, n_hi))
    return ResidualReport((n_lo, n_hi), residuals, max_residual, tuple(checks))


def _v0_split_checks(work: MildSolution, rhs: RhsSpec, alpha: float,
                     n_hi: int) -> list[ConditionEntry]:
    """Certified bounds on the two pieces of v0 (integration over |y| <= 1
    and over |y| >= q), for shells l >= 1 up to the report window."""
    q = work.q
    if is_log_branch(alpha):
        return [ConditionEntry("v0 split bounds", True,
                               "log branch: splits are stated for the generic "
                               "kernel only; skipped")]
    l_top = min(n_hi + 5, work.frontier - 1)
    if l_top < 1 or work.k_min > 0:
        return [ConditionEntry("v0 split bounds", True,
                               "no shells l >= 1 inside the solved window")]
    one = 1.0 - 1.0 / q
    front = front_coeff(alpha, q)
    phi = _phi_function(q, work.k_min, work.values, rhs, work.frontier)
    s_plain0 = weighted_tail_sum(phi, 1.0, "lower", 0)
    s_alpha0 = weighted_tail_sum(phi, alpha, "lower", 0)
    c_near = abs(front) * rhs.M * max(1.0, one / (1.0 - qpow(q, -alpha)))
    beta = rhs.beta
    c_far = 0.0
    if beta is not None:
        c_far, far_shell = _far_decay_constant(phi, q, beta, work.frontier)
    slack = 1.0 + 1e-9
    worst_near = 0.0
    worst_far = 0.0
    near_ok = True
    far_ok = True
    # running sums over shells 1..l, added in ascending order from 0
    t_plain = t_alpha = b_plain = b_alpha = 0.0
    for l in range(1, l_top + 1):
        kern_hi = qpow(q, (alpha - 1.0) * (l + 1))
        v01 = front * one * (kern_hi * s_plain0 - s_alpha0)
        bound1 = c_near * (kern_hi + 1.0)
        worst_near = max(worst_near, abs(v01) / bound1)
        if abs(v01) > bound1 * slack:
            near_ok = False
        if beta is None:
            continue
        phi_l = phi.eval(l)
        t_plain += qpow(q, l) * phi_l
        t_alpha += qpow(q, alpha * l) * phi_l
        b_plain += qpow(q, (1.0 - beta) * l)
        b_alpha += qpow(q, (alpha - beta) * l)
        v02 = front * one * (kern_hi * t_plain - t_alpha)
        bound2 = abs(front) * one * c_far * (kern_hi * b_plain + b_alpha)
        ref = 1.0 + qpow(q, (alpha - beta) * l)
        worst_far = max(worst_far, abs(v02) / ref)
        if abs(v02) > bound2 * slack + 1e-300:
            far_ok = False
    entries = [ConditionEntry(
        "v0 near-origin split bound", near_ok,
        f"|v01| <= C (q^((l+1)(a-1)) + 1) with C = {c_near:.6g}; "
        f"worst ratio {worst_near:.6g}")]
    if beta is not None and math.isinf(c_far):
        entries.append(ConditionEntry(
            "v0 far split bound", False,
            f"the decay constant max |phi_l| q^(b l) over shells 1..{work.frontier} "
            f"is not a finite float (largest term at shell {far_shell})"))
    elif beta is not None:
        entries.append(ConditionEntry(
            "v0 far split bound", far_ok,
            f"|v02| within the certified decay bound; "
            f"max |v02| / (1 + q^((a-b)l)) = {worst_far:.6g}"))
    return entries


def _far_decay_constant(phi: RadialFunction, q: int, beta: float,
                        frontier: int) -> tuple[float, int]:
    """max over shells l = 1..frontier of |phi_l| q^(beta l), and a shell
    where it is taken; inf when the maximum is not a finite float.

    The products are formed while q^(beta l) is a finite float.  Past that
    shell the terms are compared by their logarithms, and a zero phi_l
    contributes 0.
    """
    products = []
    for j in range(1, frontier + 1):
        try:
            products.append(abs(phi.eval(j)) * qpow(q, beta * j))
        except OverflowError:
            break
    c_far = max(products, default=0.0)
    ln_q = math.log(q)
    logs = [(math.log(a) + beta * j * ln_q, j)
            for j in range(len(products) + 1, frontier + 1)
            if (a := abs(phi.eval(j))) > 0.0]
    if logs:
        log_big, j_big = max(logs)
        if not c_far > 0.0 or log_big > math.log(c_far):
            try:
                return math.exp(log_big), j_big
            except OverflowError:
                return math.inf, j_big
    return c_far, products.index(c_far) + 1 if products else 0


def check_rhs_conditions(rhs: RhsSpec, grid: RadialGrid, samples: int = 200,
                         u0: float = 0.0) -> ConditionReport:
    """Sampled verification of the declared constants M, F, F_l and beta.

    Evaluates f on a deterministic grid: every shell of ``grid`` crossed
    with ``samples`` states spanning [-R, R], R = 10 (|u0| + M).  Each
    declared constant gets one report entry, failing entries carry the
    witnessing point.  Report-valued; nothing raises.
    """
    if samples < 100:
        raise ValueError(f"need at least 100 samples, got {samples}")
    q = grid.q
    R = 10.0 * (abs(u0) + rhs.M)
    xs = [-R + 2.0 * R * i / (samples - 1) for i in range(samples)]
    slack = 1.0 + 1e-9
    entries: list[ConditionEntry] = []

    worst_v = 0.0
    worst_at = (grid.k_min, xs[0])
    stride = max(1, samples // 64)
    pairs = [(i, i + 1) for i in range(samples - 1)]
    pairs += [(i, samples - 1 - i) for i in range(0, samples // 2, stride)]
    worst_ratio = 0.0
    ratio_at = worst_at
    fl_ok = True
    fl_detail = ""
    beta_hats: dict[int, float] = {}
    for l in grid.shells:
        r = qpow(q, l)
        vals = [rhs.f(r, x) for x in xs]
        for x, v in zip(xs, vals):
            if abs(v) > worst_v:
                worst_v = abs(v)
                worst_at = (l, x)
        local = 0.0
        for i, j in pairs:
            dx = abs(xs[i] - xs[j])
            if dx == 0.0:
                continue
            ratio = abs(vals[i] - vals[j]) / dx
            if ratio > local:
                local = ratio
                if ratio > worst_ratio:
                    worst_ratio = ratio
                    ratio_at = (l, xs[i])
        if rhs.F_l is not None and fl_ok:
            cap = rhs.F_l(l)
            if local > cap * slack:
                fl_ok = False
                fl_detail = (f"slope {local:.6g} exceeds F_l = {cap:.6g} "
                             f"at shell l = {l}")
        if rhs.beta is not None and l >= 1:
            beta_hats[l] = max(abs(v) for v in vals) * qpow(q, rhs.beta * l)

    entries.append(ConditionEntry(
        "uniform bound M", worst_v <= rhs.M * slack,
        f"max |f| = {worst_v:.6g} at (l = {worst_at[0]}, x = {worst_at[1]:.6g}); "
        f"declared M = {rhs.M:g}"))
    entries.append(ConditionEntry(
        "global Lipschitz F", worst_ratio <= rhs.F * slack,
        f"max slope = {worst_ratio:.6g} near (l = {ratio_at[0]}, "
        f"x = {ratio_at[1]:.6g}); declared F = {rhs.F:g}"))
    if rhs.F_l is not None:
        entries.append(ConditionEntry(
            "per-shell Lipschitz F_l", fl_ok,
            fl_detail or "sampled slopes within F_l on every shell"))
    if rhs.beta is not None:
        if beta_hats:
            ls = sorted(beta_hats)
            base = max(beta_hats[l] for l in ls[:5])
            peak = max(beta_hats.values())
            ok = peak <= 1.1 * base + 1e-12
            entries.append(ConditionEntry(
                "decay exponent beta", ok,
                f"|f| q^(beta l) peaks at {peak:.6g} vs early maximum "
                f"{base:.6g}; declared beta = {rhs.beta:g}"))
        else:
            entries.append(ConditionEntry(
                "decay exponent beta", True,
                "no shells with l >= 1 in the sampling window"))
    return ConditionReport("rhs_conditions", tuple(entries))
