"""The Vladimirov fractional derivative on radial shell functions.

On radial functions the operator collapses to a three-part shell series:
a weighted sum over the shells below the evaluation shell n, a diagonal
term at n, and a weighted sum over the shells above,

    (D^a u)(q^n) = theta * (1 - 1/q) * q^(-(a+1)n) * sum_{k<n} q^k u(q^k)
                 + q^(-a n - 1) * diag * u(q^n)
                 + theta * (1 - 1/q) * sum_{l>n} q^(-a l) u(q^l),

with theta = (1 - q^a)/(1 - q^(-a-1)) and diag = (q^a + q - 2)/(1 - q^(-a-1)).
Both infinite sums go through the exact tail machinery of :mod:`.grid`.

:func:`dalpha_oracle` evaluates the same operator through its hypersingular
difference integral, stratifying each sphere by ultrametric distance.  The
two routes share only ``theta``; agreement of the oracle with the series is
the package's independent check on every series coefficient.
"""

from __future__ import annotations

import math

from .errors import DomainViolation
from .grid import (
    ConditionReport,
    RadialFunction,
    RunningSum,
    TailSpec,
    finite_output,
    qpow,
    series_entry,
    sweep,
)

__all__ = [
    "theta",
    "diag_coeff",
    "dalpha_domain",
    "apply_dalpha",
    "dalpha_oracle",
    "fit_upper_tail",
]


def theta(alpha: float, q: int) -> float:
    """The front coefficient (1 - q^a) / (1 - q^(-a-1)); negative for a > 0."""
    if alpha <= 0.0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    return (1.0 - qpow(q, alpha)) / (1.0 - qpow(q, -alpha - 1.0))


def diag_coeff(alpha: float, q: int) -> float:
    """Coefficient of the diagonal term, (q^a + q - 2) / (1 - q^(-a-1))."""
    if alpha <= 0.0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    return (qpow(q, alpha) + q - 2.0) / (1.0 - qpow(q, -alpha - 1.0))


def dalpha_domain(u: RadialFunction, alpha: float) -> ConditionReport:
    """Check the tail models of ``u`` against the derivative's domain: the
    lower shells summable with weight q**k, the upper ones with q**(-alpha*l).

    Report-valued: never raises for failing conditions.
    """
    if alpha <= 0.0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    return ConditionReport("dalpha_domain", (
        series_entry("lower sum q^k |u|", u.lower_tail, 1.0, "lower"),
        series_entry("upper sum q^(-a l) |u|", u.upper_tail, -alpha, "upper")))


def apply_dalpha(u: RadialFunction, alpha: float,
                 out_window: tuple[int, int] | None = None) -> RadialFunction:
    """Evaluate the fractional derivative of ``u`` on ``out_window``.

    Requires the growth conditions of :func:`dalpha_domain`; raises
    :class:`DomainViolation` otherwise, and :class:`RangeExceeded` where a
    value is not finite.  The result carries zero tails, its values are
    defined only on the output window (callers widen the window as needed;
    nothing is extrapolated silently).
    """
    report = dalpha_domain(u, alpha)
    if not report.ok:
        raise DomainViolation(
            "input is outside the derivative's domain:\n" + str(report))
    q = u.grid.q
    n_lo, n_hi = out_window if out_window is not None else (u.grid.k_min, u.grid.k_max)
    if n_lo > n_hi:
        raise ValueError(f"empty output window [{n_lo}, {n_hi}]")
    th = theta(alpha, q)
    dg = diag_coeff(alpha, q)
    pref = th * (1.0 - 1.0 / q)
    values = []
    lows = sweep(lambda n: RunningSum(u.lower_tail, q, 1.0, n), u, "lower", n_lo, n_hi)
    ups = sweep(lambda n: RunningSum(u.upper_tail, q, -alpha, n, "upper"),
                u, "upper", n_lo, n_hi)
    exp, lnq = math.exp, math.log(q)
    try:
        for n, low, un, up in zip(range(n_lo, n_hi + 1), lows, u.evals(n_lo, n_hi), ups):
            x = -(alpha + 1.0) * n
            if abs(x * lnq) < 700.0:
                s1 = pref * exp(x * lnq) * low
            else:  # q^x alone would overflow or underflow although s1 need not
                s1 = pref * (qpow(q, x / 2) * (qpow(q, x - x / 2) * low))
            values.append(s1 + exp((-alpha * n - 1.0) * lnq) * dg * un + pref * up)
    except OverflowError:
        qpow(q, -alpha * n - 1.0)  # s2's power, the one here that can overflow: raises
        raise
    return finite_output("D^alpha u", q, n_lo, values)


def dalpha_oracle(u: RadialFunction, alpha: float, n: int) -> float:
    """Hypersingular-integral evaluation of the derivative at shell n.

    Defined for compactly supported inputs (zero tails).  The integral
    theta * int |y|^(-a-1) [u(|x-y|) - u(|x|)] dy with |x| = q^n splits by
    ultrametric geometry: for |y| < q^n the integrand vanishes, the sphere
    |y| = q^n decomposes into strata |x-y| = q^m of measure (1-1/q)q^m for
    m < n and (1-2/q)q^n for m = n (empty for q = 2), and for |y| > q^n
    one has |x-y| = |y|.  All geometric pieces are summed in closed form,
    so no truncation enters.
    """
    if alpha <= 0.0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    if not (u.lower_tail.is_null() and u.upper_tail.is_null()):
        raise DomainViolation("oracle requires a compactly supported input (zero tails)")
    q = u.grid.q
    k_min, k_max = u.grid.k_min, u.grid.k_max
    un = u.eval(n)
    one = 1.0 - 1.0 / q

    # sphere |y| = q^n, stratified by |x - y| = q^m
    sphere = 0.0
    for m in range(k_min, min(n - 1, k_max) + 1):
        sphere += one * qpow(q, m) * u.values[m - k_min]
    sphere -= un * qpow(q, n - 1)
    sphere *= qpow(q, -(alpha + 1.0) * n)

    # region |y| > q^n, where |x - y| = |y|
    outer = 0.0
    for l in range(max(n + 1, k_min), k_max + 1):
        outer += one * qpow(q, -alpha * l) * (u.values[l - k_min] - un)
    if un != 0.0:
        top = max(n, k_max)
        outer -= un * one * qpow(q, -alpha * (top + 1)) / (1.0 - qpow(q, -alpha))

    return theta(alpha, q) * (sphere + outer)


def fit_upper_tail(f: RadialFunction) -> RadialFunction:
    """Fit an approximate power-law upper tail from the top two window values.

    The exponent comes from the log-ratio of the last two shells; an edge
    value of zero gives a zero tail and a nonpositive ratio falls back to a
    constant extension.  The fit is approximate by nature: it is meant for
    chaining operators whose outputs are only known on a window, with the
    window margin controlling the modelling error.
    """
    if f.grid.size < 2:
        raise ValueError("tail fitting needs at least two window values")
    q = f.grid.q
    edge, inner = f.values[-1], f.values[-2]
    if edge == 0.0:
        return f.replace(upper_tail=TailSpec.zero())
    if inner == 0.0:
        return f.replace(upper_tail=TailSpec.constant(edge))
    ratio = edge / inner
    if not (ratio > 0.0) or not math.isfinite(ratio):
        return f.replace(upper_tail=TailSpec.constant(edge))
    e = math.log(ratio) / math.log(q)
    return f.replace(upper_tail=TailSpec.power_law(edge * qpow(q, -e * f.grid.k_max), e))
