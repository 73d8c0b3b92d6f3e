"""The regularized fractional integral on radial shell functions.

For a radial function the operator has the closed radial form

    (I^a u)(q^n) = q^(a(n-1)) u(q^n) + (1 - 1/q) expm1(-a L) G(n),
    G(n) = sum_{j<n} q^(a j) u(q^j) E(n - j),

with L = ln q, rho = q^(a-1) and E(m) = (rho^m - 1)/(rho - 1).  This is
the kernel front * (q^((a-1)n) - q^((a-1)j)) of the defining integral,
with front = (1 - q^-a)/(1 - q^(a-1)), rewritten as
expm1(-a L) q^((a-1)j) E(n - j).  E(m) -> m as a -> 1, where the kernel
becomes the logarithmic one, so this one formula serves every alpha with
no cancellation: :class:`KernelSum` runs G(n+1) = rho G(n) + S(n+1) beside
the compensated sum S(n) = sum_{j<n} q^(a j) u(q^j).  Only shells below n
contribute besides the diagonal, so local evaluation is meaningful; the
value at the origin is 0 by construction.

:func:`ialpha_oracle` evaluates the defining double integral instead,
stratifying the boundary sphere |y| = |x| where the kernel varies, and is
the independent cross-check of the radial form.  :func:`kernel_constant`
and :func:`bound_constant` package the kernel moment integrals

    I_{a,m}(q^n) = int_{|y|<q^n} |K| |y|^(a m) dy = d_{a,m} q^(a(m+1)n)

whose uniform bound d_{a,m} <= A q^(-a m) drives the contraction estimates
used by the solver.
"""

from __future__ import annotations

import math
from functools import lru_cache

from .errors import DivergentTail, DomainViolation
from .grid import (
    ConditionReport,
    RadialFunction,
    RadialGrid,
    RunningSum,
    TailSpec,
    finite_output,
    qpow,
    series_entry,
    sweep,
)

__all__ = [
    "KernelSum",
    "ialpha_domain",
    "apply_ialpha",
    "ialpha_oracle",
    "kernel_constant",
    "bound_constant",
]


class KernelSum:
    """The off-diagonal part of the integral, (1 - 1/q) expm1(-a L) G(n),
    extended one shell at a time.

    Starts at shell ``k_start`` with the lower tail c q^(e k) below it in
    closed form: with x = q^-(a+e), S(k) = c q^((a+e)k) x/(1 - x) and
    G(k) = S(k)/(1 - x rho), where x rho = q^-(1+e).  ``push`` adds the
    value at the next shell: S takes one more compensated term and
    G(k+1) = rho G(k) + S(k+1).  ``value`` is the off-diagonal part at the
    next shell to be pushed.
    """

    __slots__ = ("_s", "_rho", "_lead", "_g")

    def __init__(self, tail: TailSpec, q: int, alpha: float, k_start: int) -> None:
        lnq = math.log(q)
        self._s = RunningSum(tail, q, alpha, k_start)
        self._rho = qpow(q, alpha - 1.0)
        self._lead = (1.0 - 1.0 / q) * math.expm1(-alpha * lnq)
        self._g = 0.0
        if not tail.is_null():
            damp = -math.expm1(-(1.0 + tail.e) * lnq)  # 1 - x rho
            if damp <= 0.0:
                raise DivergentTail(
                    f"lower tail sum diverges: ratio q^-(1+e) = {1.0 - damp!r} >= 1 "
                    f"(tail exponent {tail.e:g})")
            self._g = self._s.value / damp

    @property
    def value(self) -> float:
        return self._lead * self._g

    def push(self, v: float) -> float:
        """Add the value at the next shell; return the off-diagonal part above it."""
        self._g = self._rho * self._g + self._s.push(v)
        return self._lead * self._g


def ialpha_domain(u: RadialFunction, alpha: float) -> ConditionReport:
    """Check the tail models of ``u`` against the integral's domain: the
    lower shells summable with weight max(q**k, q**(alpha*k)).

    Report-valued: never raises for failing conditions.
    """
    if alpha <= 0.0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    return ConditionReport("ialpha_domain", (series_entry(
        "lower sum max(q^k, q^(a k)) |u|", u.lower_tail, min(1.0, alpha), "lower"),))


def apply_ialpha(u: RadialFunction, alpha: float,
                 out_window: tuple[int, int] | None = None) -> RadialFunction:
    """Evaluate the regularized integral of ``u`` on ``out_window``.

    Requires :func:`ialpha_domain` (the integral reads shells j <= n only,
    upper tails are irrelevant); raises :class:`DomainViolation` otherwise,
    and :class:`RangeExceeded` where a value is not finite.  The result has
    zero tails and value 0 at the origin.

    The off-diagonal parts come from one :func:`~ultrafrac.grid.sweep`
    of :class:`KernelSum`, so each is bit-identical to a run over its own
    one-shell window.
    """
    report = ialpha_domain(u, alpha)
    if not report.ok:
        raise DomainViolation(
            "input is outside the integral's domain:\n" + str(report))
    q = u.grid.q
    n_lo, n_hi = out_window if out_window is not None else (u.grid.k_min, u.grid.k_max)
    if n_lo > n_hi:
        raise ValueError(f"empty output window [{n_lo}, {n_hi}]")
    offdiag = sweep(lambda n: KernelSum(u.lower_tail, q, alpha, n), u, "lower", n_lo, n_hi)
    exp, lnq = math.exp, math.log(q)
    try:
        values = [exp(alpha * (n - 1) * lnq) * un + v
                  for n, un, v in zip(range(n_lo, n_hi + 1), u.evals(n_lo, n_hi), offdiag)]
    except OverflowError:
        for n in range(n_lo, n_hi + 1):
            qpow(q, alpha * (n - 1))  # raises the first overflowing power's RangeExceeded
        raise
    return finite_output("I^alpha u", q, n_lo, values)


def ialpha_oracle(u: RadialFunction, alpha: float, n: int) -> float:
    """Defining double-integral evaluation of the integral at shell n.

    Requires compact support (zero tails).  The integral over |y| <= q^n of
    (|x-y|^(a-1) - |y|^(a-1)) u(|y|) splits sphere by sphere: for |y| = q^j
    with j < n the kernel is constant on the sphere, while on the boundary
    sphere |y| = q^n it varies with the stratum |x-y| = q^m, of measure
    (1-1/q)q^m for m < n and (1-2/q)q^n for m = n.  The stratified boundary
    sum has an exact geometric closed form, so the oracle is truncation
    free.  Each term is summed directly, with s = (a-1) L:

        front (q^((a-1)n) - q^((a-1)j)) = expm1(-a L) q^((a-1)j) R(n - j),
        front * bracket = -q^(a n - 1) R(-1),

    where the boundary bracket is q^(a n - 1) expm1(-s)/(-expm1(-a L)) and
    R(m) = expm1(m s)/expm1(s), so nothing cancels next to a = 1; at
    a == 1 exactly R(m) = m, the logarithmic kernel.
    """
    if alpha <= 0.0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    if not (u.lower_tail.is_null() and u.upper_tail.is_null()):
        raise DomainViolation("oracle requires a compactly supported input (zero tails)")
    q = u.grid.q
    k_min, k_max = u.grid.k_min, u.grid.k_max
    lnq = math.log(q)
    s = (alpha - 1.0) * lnq

    def ratio(m: int) -> float:
        return float(m) if alpha == 1.0 else math.expm1(m * s) / math.expm1(s)

    one = 1.0 - 1.0 / q
    lead = math.expm1(-alpha * lnq)
    total = 0.0
    for j in range(k_min, min(n - 1, k_max) + 1):
        kernel = lead * qpow(q, (alpha - 1.0) * j) * ratio(n - j)
        total += one * qpow(q, j) * kernel * u.values[j - k_min]
    un = u.eval(n)
    if un != 0.0:
        total -= un * qpow(q, alpha * n - 1.0) * ratio(-1)
    return total


def _moment(alpha: float, m: int, q: int, lead: float, power: float) -> float:
    """The kernel moments' closed form, with L = ln q:

        (1 - 1/q) lead q^power / ((1 - q^-(1+a m)) (1 - q^-(a+a m))).

    The kernel's two geometric series are combined before they are summed,
    so nothing cancels at any alpha.
    """
    if alpha <= 0.0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    if m < 0:
        raise ValueError(f"m must be a nonnegative integer, got {m}")
    if qpow(q, -alpha) == 1.0:
        raise ValueError(f"alpha = {alpha!r} is too small: q^-alpha rounds to 1")
    lnq = math.log(q)
    return ((1.0 - 1.0 / q) * lead * qpow(q, power)
            / (math.expm1(-(1.0 + alpha * m) * lnq) * math.expm1(-alpha * (m + 1) * lnq)))


def kernel_constant(alpha: float, m: int, grid: RadialGrid,
                    scaled: bool = False) -> float:
    """d_{a,m}, with I_{a,m}(q^n) = d_{a,m} q^(a(m+1)n) for every n, or
    d_{a,m} q^(a m), which the kernel bound caps, when ``scaled``.

    The moment of |q^((a-1)n) - q^((a-1)j)| has the lead
    |expm1((a-1) L)| = q^max(a-1, 0) |expm1(-|a-1| L)|, whose power joins
    the closed form's q^(-a(m+1)), so nothing overflows at large alpha.
    Scaled, the power is max(a-1, 0) - a, which is -1 or -a exactly: no
    rounding of a m enters it.  At a == 1 exactly the kernel is the
    logarithmic one, (n - j) L, and the lead is L.
    """
    lnq = math.log(grid.q)
    lead = lnq if alpha == 1.0 else -math.expm1(-abs(alpha - 1.0) * lnq)
    shift = max(alpha - 1.0, 0.0)
    return _moment(alpha, m, grid.q, lead, shift - alpha * (1 if scaled else m + 1))


_BOUND_MARGIN = 1.1


@lru_cache(maxsize=None)
def bound_constant(alpha: float, grid: RadialGrid) -> float:
    """Certified constant C with |(I^a phi)(q^n)| <= C * mu * q^(a(m+1)n)
    whenever |phi(q^j)| <= mu * q^(a m j), uniformly over m.

    C = q^-a + A with a 10 percent margin, where A is the uniform kernel
    bound sup_m |front| d_{a,m} q^(a m).  Both factors of the closed
    form's denominator grow with m, so the supremum is its m = 0 term.
    Drives the contraction factor predictions of the solver.
    """
    q = grid.q
    lead = -math.expm1(-alpha * math.log(q))  # |1 - q^-a|
    return qpow(q, -alpha) + _BOUND_MARGIN * _moment(alpha, 0, q, lead, -alpha)
