"""Shared fixtures: deterministic random functions and composition pipelines."""

from __future__ import annotations

import math
import random
import struct

from ultrafrac import (
    ConditionEntry,
    RadialFunction,
    RadialGrid,
    TailSpec,
    apply_dalpha,
    apply_ialpha,
    diag_coeff,
    fit_power_tails,
    front_coeff,
    is_log_branch,
    qpow,
    theta,
    weighted_tail_sum,
)
from ultrafrac.errors import ExprEvalError
from ultrafrac.expr import _IMPL, BinOp, Call, Neg, Num, Var, _finite, _power
from ultrafrac.fracint import offdiag_integral, second_sum_weight
from ultrafrac.grid import _Kahan, _index_factor, _tail_series
from ultrafrac.solver import _phi_function
from ultrafrac.vladimirov import _scaled_lower

#: shells of exact tail modelling appended above a window before fitting
UPPER_PAD = 45


def bits(values) -> bytes:
    """The exact bytes of a float sequence: equal iff bit-identical, sign of zero included."""
    return struct.pack(f"<{len(values)}d", *values)


def compact(q: int, k_min: int, values) -> RadialFunction:
    """Compactly supported function (zero tails) from explicit values."""
    return RadialFunction.from_values(q, k_min, list(values))


def random_compact(rnd: random.Random, q: int, max_width: int = 12,
                   lo_range: tuple[int, int] = (-6, 3)) -> RadialFunction:
    width = rnd.randint(2, max_width)
    k_min = rnd.randint(*lo_range)
    vals = [rnd.uniform(-1.0, 1.0) for _ in range(width)]
    return compact(q, k_min, vals)


def constant_function(q: int, c: float, window=(-2, 2)) -> RadialFunction:
    return RadialFunction.constant(RadialGrid(q, window[0], window[1]), c)


def indicator_unit_ball(q: int) -> RadialFunction:
    """1 on |t| <= 1, 0 outside: constant-1 lower tail, zero upper tail."""
    return RadialFunction.from_values(
        q, -1, [1.0, 1.0], value_at_zero=1.0,
        lower_tail=TailSpec.constant(1.0), upper_tail=TailSpec.zero())


def two_exponent_family(q: int, d: float, h: float,
                        trunc: int = 25) -> RadialFunction:
    """q^(d k) on k <= 0 glued to q^(h k) on k >= 0, truncated to zero tails."""
    vals = [qpow(q, d * k) if k <= 0 else qpow(q, h * k)
            for k in range(-trunc, trunc + 1)]
    return RadialFunction.from_values(q, -trunc, vals, value_at_zero=0.0)


def derivative_of_integral(v: RadialFunction, alpha: float) -> RadialFunction:
    """D^a (I^a v) on the support window of a compactly supported v.

    The integral is evaluated on a padded window and its upper tail fitted;
    the pad makes the tail-model error decay like q^(-pad), far below the
    comparison tolerances.
    """
    a, b = v.grid.k_min, v.grid.k_max
    w = apply_ialpha(v, alpha, (a, b + UPPER_PAD))
    w = fit_power_tails(w, fit_lower=False)
    return apply_dalpha(w, alpha, (a, b))


def integral_of_derivative(u: RadialFunction, alpha: float,
                           window: tuple[int, int]) -> RadialFunction:
    """I^a (D^a u) for a compactly supported u, on ``window``.

    Below the support the derivative of a zero-tailed function is exactly
    constant, so the tail model of the intermediate is exact: the whole
    composition is free of modelling error.
    """
    a = u.grid.k_min
    w = apply_dalpha(u, alpha, (a - 1, window[1] + 1))
    w = w.with_tails(lower=TailSpec.constant(w.values[0]))
    return apply_ialpha(w, alpha, window)


def ascending_upper_sum(f: RadialFunction, w: float, k0: int,
                        index_power: int = 0) -> tuple[float, float]:
    """The upper ``weighted_tail_sum`` in its former ascending order.

    The terms at shells k0, k0 + 1, ... up to k_max (lower-tail values below
    the window) come first, then the upper-tail closed form anchored at
    max(k0, k_max + 1), all through one compensated accumulator.  Returns
    the sum and the sum of the absolute values of what was added.
    """
    q, k_max = f.grid.q, f.grid.k_max
    terms = [qpow(q, w * k) * _index_factor(k, index_power) * f.eval(k)
             for k in range(k0, k_max + 1)]
    terms.append(_tail_series(f.upper_tail, q, w, index_power, "upper", max(k0, k_max + 1)))
    acc = _Kahan()
    for t in terms:
        acc.add(t)
    return acc.s, sum(abs(t) for t in terms)


def dalpha_by_shell(u: RadialFunction, alpha: float, window: tuple[int, int]) -> list[float]:
    """``apply_dalpha`` values on ``window`` with each shell's lower and upper
    sums taken by their own ``weighted_tail_sum`` calls.

    The per-shell reference for the two running sums of ``apply_dalpha``:
    the same terms in the same order, so the values agree bit for bit.
    """
    q = u.grid.q
    pref = theta(alpha, q) * (1.0 - 1.0 / q)
    dg = diag_coeff(alpha, q)
    out = []
    for n in range(window[0], window[1] + 1):
        s1 = _scaled_lower(pref, q, -(alpha + 1.0) * n,
                           weighted_tail_sum(u, 1.0, "lower", n - 1))
        s2 = qpow(q, -alpha * n - 1.0) * dg * u.eval(n)
        s3 = pref * weighted_tail_sum(u, -alpha, "upper", n + 1)
        out.append(s1 + s2 + s3)
    return out


def catalog_rhs(q: int = 2, alpha: float = 0.5):
    """The reference nonlinearity 0.1 tanh(x) min(1, r^-2) with its constants."""
    from ultrafrac import RhsSpec

    def f(r: float, x: float) -> float:
        return 0.1 * math.tanh(x) * min(1.0, r ** -2.0)

    def F_l(l: int) -> float:
        return min(0.1, qpow(q, -alpha * l) / 2.0)

    return RhsSpec(f, M=0.1, F=0.1, F_l=F_l, beta=alpha + 1.0)


def v0_at(sol, rhs, alpha: float, N: int) -> float:
    """The known constant v0 of the one-shell continuation equation at N + 1.

    The integral over the solved ball |y| <= q^N of the kernel difference
    against f(., u), with the constant lower tail of the Picard stage, taken
    at one shell: ``continue_solution`` keeps the same two sums running.
    """
    q = sol.q
    phi = _phi_function(q, sol.k_min, sol.values[: N - sol.k_min + 1], rhs)
    w, p = second_sum_weight(alpha)
    return offdiag_integral(alpha, q, front_coeff(alpha, q), N + 1,
                            weighted_tail_sum(phi, 1.0, "lower", N),
                            weighted_tail_sum(phi, w, "lower", N, p))


def continue_by_rebuild(sol, rhs, alpha: float, k_max: int, tol: float = 1e-12,
                        max_iter: int = 200) -> tuple[list[float], dict[int, int]]:
    """Shell continuation that rebuilds f(., u) and rescans it at every step.

    The per-step reference for the incremental ``continue_solution``: v0 at
    each new shell comes from one ``weighted_tail_sum`` pair over all solved
    shells, with the constant lower tail model of the Picard stage.  Returns
    the solution values and the fixed-point iteration counts.
    """
    q, k_min, u0 = sol.q, sol.k_min, sol.u0
    front = front_coeff(alpha, q)
    w, p = second_sum_weight(alpha)
    values = list(sol.values)
    iters = {}
    for l in range(sol.frontier, k_max):
        phi_vals = [rhs.f(qpow(q, k), values[k - k_min]) for k in range(k_min, l + 1)]
        phi = RadialFunction.from_values(q, k_min, phi_vals,
                                         lower_tail=TailSpec.constant(phi_vals[0]))
        v0 = offdiag_integral(alpha, q, front, l + 1,
                              weighted_tail_sum(phi, 1.0, "lower", l),
                              weighted_tail_sum(phi, w, "lower", l, p))
        gain = qpow(q, alpha * l)
        r_next = qpow(q, l + 1)
        x = values[-1]
        for its in range(1, max_iter + 1):
            x_new = u0 + v0 + gain * rhs.f(r_next, x)
            done = abs(x_new - x) <= tol
            x = x_new
            if done:
                break
        else:
            raise AssertionError(f"reference continuation stalled at shell {l + 1}")
        values.append(x)
        iters[l + 1] = its
    return values, iters


def v0_split_checks_by_rescan(work, rhs, alpha: float, n_hi: int) -> list:
    """The v0 split-bound entries with every partial sum over shells 1..l
    recomputed from scratch at each l.

    The O(L^2) reference for the running sums of ``verify_strict``: the same
    terms added in the same ascending order, so the entries agree exactly.
    """
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
    phi_vals = [rhs.f(qpow(q, k), v) for k, v in zip(work.grid.shells, work.values)]
    phi = RadialFunction.from_values(q, work.k_min, phi_vals,
                                     lower_tail=TailSpec.constant(phi_vals[0]))
    s_plain0 = weighted_tail_sum(phi, 1.0, "lower", 0)
    s_alpha0 = weighted_tail_sum(phi, alpha, "lower", 0)
    c_near = abs(front) * rhs.M * max(1.0, one / (1.0 - qpow(q, -alpha)))
    beta = rhs.beta
    c_far = 0.0
    if beta is not None:
        c_far = max((abs(phi.eval(j)) * qpow(q, beta * j)
                     for j in range(1, work.frontier + 1)), default=0.0)
    slack = 1.0 + 1e-9
    worst_near = 0.0
    worst_far = 0.0
    near_ok = True
    far_ok = True
    for l in range(1, l_top + 1):
        kern_hi = qpow(q, (alpha - 1.0) * (l + 1))
        v01 = front * one * (kern_hi * s_plain0 - s_alpha0)
        bound1 = c_near * (kern_hi + 1.0)
        worst_near = max(worst_near, abs(v01) / bound1)
        if abs(v01) > bound1 * slack:
            near_ok = False
        if beta is None:
            continue
        t_plain = sum(qpow(q, j) * phi.eval(j) for j in range(1, l + 1))
        t_alpha = sum(qpow(q, alpha * j) * phi.eval(j) for j in range(1, l + 1))
        v02 = front * one * (kern_hi * t_plain - t_alpha)
        b_plain = sum(qpow(q, (1.0 - beta) * j) for j in range(1, l + 1))
        b_alpha = sum(qpow(q, (alpha - beta) * j) for j in range(1, l + 1))
        bound2 = abs(front) * one * c_far * (kern_hi * b_plain + b_alpha)
        ref = 1.0 + qpow(q, (alpha - beta) * l)
        worst_far = max(worst_far, abs(v02) / ref)
        if abs(v02) > bound2 * slack + 1e-300:
            far_ok = False
    entries = [ConditionEntry(
        "v0 near-origin split bound", near_ok,
        f"|v01| <= C (q^((l+1)(a-1)) + 1) with C = {c_near:.6g}; "
        f"worst ratio {worst_near:.6g}")]
    if beta is not None:
        entries.append(ConditionEntry(
            "v0 far split bound", far_ok,
            f"|v02| within the certified decay bound; "
            f"max |v02| / (1 + q^((a-b)l)) = {worst_far:.6g}"))
    return entries


def eval_by_tree_walk(node, q, variables: tuple[str, ...], *args: float) -> float:
    """Evaluate an expression tree by walking it over a dict of bindings.

    The reference for the compiled ``make_callable``: every call binds
    ``dict(zip(variables, args))`` plus ``q = float(q)`` and dispatches on
    the node type and the operator string at each node.
    """
    env = dict(zip(variables, args))
    env["q"] = float(q)

    def walk(n):
        if isinstance(n, Num):
            return n.value
        if isinstance(n, Var):
            try:
                return env[n.name]
            except KeyError:
                raise ExprEvalError(f"variable '{n.name}' is not bound") from None
        if isinstance(n, Neg):
            return -walk(n.operand)
        if isinstance(n, BinOp):
            a = walk(n.left)
            b = walk(n.right)
            if n.op == "+":
                return _finite(a + b, "addition")
            if n.op == "-":
                return _finite(a - b, "subtraction")
            if n.op == "*":
                return _finite(a * b, "multiplication")
            if n.op == "/":
                if b == 0.0:
                    raise ExprEvalError("division by zero")
                return _finite(a / b, "division")
            return _power(a, b)
        vals = [walk(a) for a in n.args]
        return _finite(_IMPL[n.name](*vals), n.name)

    return walk(node)
