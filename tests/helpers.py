"""Shared fixtures: deterministic random functions, composition pipelines,
reference implementations, and the measure identities, inverse-property
hypotheses, lower-tail fit and sampled rhs checks that only tests use."""

from __future__ import annotations

import math
import random
import struct

from ultrafrac import (
    ConditionEntry,
    ConditionReport,
    RadialFunction,
    RadialGrid,
    TailSpec,
    apply_dalpha,
    apply_ialpha,
    bound_constant,
    diag_coeff,
    fit_upper_tail,
    ialpha_domain,
    qpow,
    theta,
)
from ultrafrac.errors import ExprEvalError
from ultrafrac.expr import _IMPL, BinOp, Call, Neg, Num, Var, _finite, _power
from ultrafrac.fracint import KernelSum
from ultrafrac.grid import RunningSum, _tail_series, series_entry, sweep
from ultrafrac.solver import _phi_function

#: shells of exact tail modelling appended above a window before fitting
UPPER_PAD = 45


def bits(values) -> bytes:
    """The exact bytes of a float sequence: equal iff bit-identical, sign of zero included."""
    return struct.pack(f"<{len(values)}d", *values)


def running_sums(f: RadialFunction, w: float, side: str, k_lo: int, k_hi: int) -> list[float]:
    """The sum of q**(w*k) * f(q**k) over k <= k0 (lower) or k >= k0
    (upper) for every k0 in [k_lo, k_hi], listed in ascending k0: the
    :func:`sweep` of :class:`RunningSum` over the shells next to k0."""
    s = 1 if side == "lower" else -1
    tail = f.lower_tail if side == "lower" else f.upper_tail
    return sweep(lambda n: RunningSum(tail, f.grid.q, w, n, side), f, side, k_lo + s, k_hi + s)


def weighted_tail_sum(f: RadialFunction, w: float, side: str, k0: int) -> float:
    """Sum of q**(w*k) * f(q**k) over k <= k0 (lower) or k >= k0 (upper):
    the one-shell case of ``running_sums``."""
    return running_sums(f, w, side, k0, k0)[0]


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
    """The function identically equal to c on all of q**Z and at 0."""
    grid = RadialGrid(q, window[0], window[1])
    return RadialFunction(grid, (c,) * grid.size, c, TailSpec.constant(c), TailSpec.constant(c))


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
    w = fit_upper_tail(w)
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
    w = w.replace(lower_tail=TailSpec.constant(w.values[0]))
    return apply_ialpha(w, alpha, window)


def ascending_upper_sum(f: RadialFunction, w: float, k0: int) -> tuple[float, float]:
    """The upper ``weighted_tail_sum`` in its former ascending order.

    The terms at shells k0, k0 + 1, ... up to k_max (lower-tail values below
    the window) come first, then the upper-tail closed form anchored at
    max(k0, k_max + 1), all through one Kahan loop.  Returns
    the sum and the sum of the absolute values of what was added.
    """
    q, k_max = f.grid.q, f.grid.k_max
    terms = [qpow(q, w * k) * f.eval(k) for k in range(k0, k_max + 1)]
    terms.append(_tail_series(f.upper_tail, q, w, "upper", max(k0, k_max + 1)))
    s = c = 0.0
    for x in terms:
        y = x - c
        t = s + y
        c = (t - s) - y
        s = t
    return s, sum(abs(t) for t in terms)


class QpowRunningSum(RunningSum):
    """:class:`RunningSum` with each weight from its own ``qpow`` call: the
    per-term form that the running sums' exp(x * ln q) must match bit for bit."""

    __slots__ = ()

    def push(self, v: float) -> float:
        k = self._k
        y = qpow(self._q, self._w * k) * v - self._c
        s = self._s + y
        self._c = (s - self._s) - y
        self._s = s
        self._k = k + self._step
        return s


class QpowKernelSum(KernelSum):
    """:class:`KernelSum` over a :class:`QpowRunningSum`."""

    __slots__ = ()

    def __init__(self, tail: TailSpec, q: int, alpha: float, k_start: int) -> None:
        super().__init__(tail, q, alpha, k_start)
        self._s = QpowRunningSum(tail, q, alpha, k_start)


def sums_by_shell(start, f: RadialFunction, side: str, n_lo: int, n_hi: int) -> list[float]:
    """What :func:`sweep` returns, with a run of its own for every output
    shell and f read by ``eval``, one shell at a time: a fresh start up to
    the edge of the window, and beyond it a run from the edge pushed shell
    by shell up to the output shell."""
    step = 1 if side == "lower" else -1
    edge = f.grid.k_min if step == 1 else f.grid.k_max
    out = []
    for n in range(n_lo, n_hi + 1):
        run = start(n if step * n <= step * edge else edge)
        for k in range(edge, n, step):
            run.push(f.eval(k))
        out.append(run.value)
    return out


def ialpha_by_shell(u: RadialFunction, alpha: float, window: tuple[int, int]) -> list[float]:
    """``apply_ialpha`` values on ``window`` from per-shell runs of
    :class:`QpowKernelSum` and a ``qpow`` call per diagonal term: the
    same terms in the same order, so the values agree bit for bit."""
    q = u.grid.q
    off = sums_by_shell(lambda n: QpowKernelSum(u.lower_tail, q, alpha, n), u, "lower", *window)
    return [qpow(q, alpha * (n - 1)) * u.eval(n) + v
            for n, v in zip(range(window[0], window[1] + 1), off)]


def dalpha_by_shell(u: RadialFunction, alpha: float, window: tuple[int, int]) -> list[float]:
    """``apply_dalpha`` values on ``window`` with each shell's lower and upper
    sums taken by their own :class:`QpowRunningSum` runs and every power by
    its own ``qpow`` call.

    The per-shell reference for ``apply_dalpha``: the same terms in the same
    order, so the values agree bit for bit.  The lower sum's factor
    q^(-(a+1)n) is split in two where it alone would overflow or underflow.
    """
    q = u.grid.q
    pref = theta(alpha, q) * (1.0 - 1.0 / q)
    dg = diag_coeff(alpha, q)
    lows = sums_by_shell(lambda n: QpowRunningSum(u.lower_tail, q, 1.0, n), u, "lower", *window)
    ups = sums_by_shell(lambda n: QpowRunningSum(u.upper_tail, q, -alpha, n, "upper"),
                        u, "upper", *window)
    out = []
    for n, low, up in zip(range(window[0], window[1] + 1), lows, ups):
        x = -(alpha + 1.0) * n
        if abs(x * math.log(q)) < 700.0:
            s1 = pref * qpow(q, x) * low
        else:
            s1 = pref * (qpow(q, x / 2) * (qpow(q, x - x / 2) * low))
        s2 = qpow(q, -alpha * n - 1.0) * dg * u.eval(n)
        s3 = pref * up
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


def _offdiag_at(phi: RadialFunction, alpha: float, n: int) -> float:
    """The off-diagonal part of the integral of ``phi`` at shell n > k_min,
    from a ``KernelSum`` of its own run from k_min."""
    run = KernelSum(phi.lower_tail, phi.grid.q, alpha, phi.grid.k_min)
    for k in range(phi.grid.k_min, n):
        run.push(phi.eval(k))
    return run.value


def v0_at(sol, rhs, alpha: float, N: int) -> float:
    """The known constant v0 of the one-shell continuation equation at N + 1.

    The integral over the solved ball |y| <= q^N of the kernel difference
    against f(., u), with the constant lower tail of the Picard stage, taken
    at one shell: ``continue_solution`` keeps the same sum running.
    """
    phi = _phi_function(sol.q, sol.k_min, sol.values[: N - sol.k_min + 1], rhs)
    return _offdiag_at(phi, alpha, N + 1)


def picard_frontier(sol) -> int:
    """The last shell of the Picard stage: every later shell was continued."""
    return sol.frontier - len(sol.fp_iterations)


def picard_restart(sol, offset: float, tol: float = 1e-12,
                   max_iter: int = 60) -> tuple[float, ...]:
    """The Picard stage of ``sol`` solved again from u0 + ``offset`` on every shell.

    Iterates the library's own map u -> u0 + I^a f(., u) on
    [k_min, picard_frontier(sol)] until successive iterates differ by at
    most ``tol``; the uniqueness checks compare the result with the
    solution's values on those shells.
    """
    k_min, N = sol.k_min, picard_frontier(sol)
    cur = [sol.u0 + offset] * (N - k_min + 1)
    for _ in range(max_iter):
        integ = apply_ialpha(_phi_function(sol.q, k_min, cur, sol.rhs), sol.alpha, (k_min, N))
        nxt = [sol.u0 + w for w in integ.values]
        diff = max(abs(a - b) for a, b in zip(nxt, cur))
        cur = nxt
        if diff <= tol:
            return tuple(cur)
    raise AssertionError(f"restart from offset {offset} still moving after {max_iter} "
                         f"iterations (last difference {diff:.3e})")


def picard_rates_hold(sol) -> tuple[bool, bool]:
    """The two rules that together bound the Picard differences of ``sol`` by
    the envelope C^it M F^(it-1) q^(it a N), each with the relative slack 1e-6.

    The first difference is at most C M q^(a N); each later one above the
    floor 1e-13 (|u0| + M) is at most rho = C F q^(a N) times the one
    before.  A broken ratio rule proves F understated, since C is certified.
    """
    hist, rho = sol.picard_history, sol.predicted_rho
    C = bound_constant(sol.alpha, RadialGrid(sol.q, 0, 0))
    first = hist[0] <= C * sol.rhs.M * qpow(sol.q, sol.alpha * picard_frontier(sol)) * (1.0 + 1e-6)
    floor = 1e-13 * (abs(sol.u0) + sol.rhs.M)
    ratios = all(b <= floor or b <= rho * (1.0 + 1e-6) * a for a, b in zip(hist, hist[1:]))
    return first, ratios


def continue_by_rebuild(sol, rhs, alpha: float, k_max: int, tol: float = 1e-12,
                        max_iter: int = 200) -> tuple[list[float], dict[int, int], set[int]]:
    """Shell continuation that rebuilds f(., u) and rescans it at every step.

    The per-step reference for the incremental ``continue_solution``: v0 at
    each new shell comes from a ``KernelSum`` run of its own over all solved
    shells, with the constant lower tail model of the Picard stage.  Returns
    the solution values, the fixed-point iteration counts and the shells
    whose last iterate repeats the one before it bit for bit at a nonzero
    value, where the last step has already formed f at the solution.
    """
    q, k_min, u0 = sol.q, sol.k_min, sol.u0
    values = list(sol.values)
    iters = {}
    repeats = set()
    for l in range(sol.frontier, k_max):
        phi_vals = [rhs.f(qpow(q, k), values[k - k_min]) for k in range(k_min, l + 1)]
        phi = RadialFunction.from_values(q, k_min, phi_vals,
                                         lower_tail=TailSpec.constant(phi_vals[0]))
        v0 = _offdiag_at(phi, alpha, l + 1)
        gain = qpow(q, alpha * l)
        r_next = qpow(q, l + 1)
        x = values[-1]
        for its in range(1, max_iter + 1):
            x_new = u0 + v0 + gain * rhs.f(r_next, x)
            done = abs(x_new - x) <= tol
            if done and x_new != 0.0 and x_new.hex() == x.hex():
                repeats.add(l + 1)
            x = x_new
            if done:
                break
        else:
            raise AssertionError(f"reference continuation stalled at shell {l + 1}")
        values.append(x)
        iters[l + 1] = its
    return values, iters, repeats


def mild_residuals_by_integral(sol) -> tuple[tuple[int, float], ...]:
    """(shell, |u - (u0 + I^a f(., u))|) on every solved shell, from one
    ``apply_ialpha`` over the whole window: the reference for the residuals
    that ``continue_solution`` records on the shells it solves."""
    integ = apply_ialpha(sol.phi, sol.alpha, (sol.k_min, sol.frontier))
    return tuple((k, abs(u - (sol.u0 + w)))
                 for k, u, w in zip(sol.grid.shells, sol.values, integ.values))


def shell_measure(grid: RadialGrid, n: int) -> float:
    """Measure of the sphere |t| = q**n, i.e. (1 - 1/q) * q**n."""
    return (1.0 - 1.0 / grid.q) * qpow(grid.q, n)


def ball_power_integral(grid: RadialGrid, n: int, a: float) -> float:
    """Integral of |t|**(a-1) over the ball |t| <= q**n, for a > 0.

    Closed form ((1 - 1/q) / (1 - q**-a)) * q**(a*n); equals the shell sum
    of (1 - 1/q) * q**j * q**((a-1)*j) over j <= n.
    """
    if a <= 0.0:
        raise ValueError(f"ball power integral diverges for a = {a} <= 0")
    q = grid.q
    return (1.0 - 1.0 / q) / (1.0 - qpow(q, -a)) * qpow(q, a * n)


def right_inverse_conditions(f: RadialFunction, alpha: float) -> ConditionReport:
    """The integral's domain conditions plus absolute summability above:
    the hypotheses under which the integral is a right inverse."""
    entries = ialpha_domain(f, alpha).entries + (
        series_entry("upper sum |u|", f.upper_tail, 0.0, "upper"),)
    return ConditionReport("right_inverse", entries)


def left_inverse_conditions(f: RadialFunction, alpha: float) -> ConditionReport:
    """The two-exponent decay hypotheses under which the integral is also a
    left inverse, including u(0) = 0."""
    lo, up = f.lower_tail, f.upper_tail
    entries = [ConditionEntry(
        "value at zero", f.value_at_zero == 0.0,
        f"requires u(0) = 0, got {f.value_at_zero:g}")]
    d_floor = max(0.0, alpha - 1.0)
    if lo.is_null():
        entries.append(ConditionEntry("lower decay exponent", True, "tail vanishes"))
    else:
        d = lo.e
        entries.append(ConditionEntry(
            "lower decay exponent", d > d_floor,
            f"requires d > max(0, a-1) = {d_floor:g}; tail has d = {d:g}"))
    if up.is_null():
        entries.append(ConditionEntry("upper growth exponent", True, "tail vanishes"))
    else:
        h = max(0.0, up.e)
        ok = h < alpha and (alpha <= 1.0 or h < alpha - 1.0)
        need = f"h < {alpha:g}" if alpha <= 1.0 \
            else f"h < {alpha:g} and h < {alpha - 1.0:g}"
        entries.append(ConditionEntry(
            "upper growth exponent", ok,
            f"requires {need}; effective h = {h:g}"))
    return ConditionReport("left_inverse_hypotheses", tuple(entries))


def fit_power_tails(f: RadialFunction) -> RadialFunction:
    """``fit_upper_tail`` after a lower power-law tail fitted the same way
    from the first two window values.

    A fitted lower tail that decays toward 0 while u(0) != 0 would break
    continuity at 0, so it falls back to the constant extension.
    """
    if f.grid.size < 2:
        raise ValueError("tail fitting needs at least two window values")
    q = f.grid.q

    def lower() -> TailSpec:
        edge, inner = f.values[0], f.values[1]
        if edge == 0.0:
            return TailSpec.zero()
        ratio = inner / edge
        if inner == 0.0 or not (ratio > 0.0) or not math.isfinite(ratio):
            return TailSpec.constant(edge)
        e = math.log(ratio) / math.log(q)
        tail = TailSpec.power_law(edge * qpow(q, -e * f.grid.k_min), e)
        return TailSpec.constant(edge) if e > 0.0 and f.value_at_zero != 0.0 else tail

    return fit_upper_tail(f.replace(lower_tail=lower()))


def check_rhs_conditions(rhs, grid: RadialGrid, samples: int = 200,
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


def unparse(node) -> str:
    """A fully parenthesized text of an expression tree, which re-parses to
    an identical tree while its parentheses stay within ``MAX_DEPTH``."""
    if isinstance(node, Num):
        return repr(node.value)
    if isinstance(node, Var):
        return node.name
    if isinstance(node, Neg):
        return f"(-{unparse(node.operand)})"
    if isinstance(node, BinOp):
        return f"({unparse(node.left)}{node.op}{unparse(node.right)})"
    return f"{node.name}({','.join(unparse(a) for a in node.args)})"


#: one way of nesting per name: an expression over x of exactly ``depth``
#: levels, and the byte offset at which ``parse_expression`` refuses it
#: when ``depth`` is one past ``MAX_DEPTH``
NESTINGS = {
    "parentheses": (lambda d: "(" * (d - 1) + "x" + ")" * (d - 1), lambda d: d - 1),
    "sums": (lambda d: "+".join(["x"] * d), lambda d: 2 * d - 3),
    "unary minus": (lambda d: "-" * (d - 1) + "x", lambda d: d - 1),
    "power tower": (lambda d: "x" + "^1" * (d - 1), lambda d: 2 * (d - 1)),
    "nested calls": (lambda d: "tanh(" * (d - 1) + "x" + ")" * (d - 1), lambda d: 5 * (d - 1)),
}


def csv_text_by_value(header: list[str], rows: list[tuple]) -> str:
    """CSV text formatted one value at a time: str() for an int, %.17g for
    anything else.  The reference for ``cli._csv_text``, which formats
    each row with one format string."""
    def fmt(v: object) -> str:
        return str(v) if isinstance(v, int) else "%.17g" % (v,)

    lines = [",".join(header)] + [",".join(fmt(v) for v in row) for row in rows]
    return "\n".join(lines) + "\n"
