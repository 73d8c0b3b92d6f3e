"""The regularized fractional integral on radial shell functions.

For a radial function the operator has the closed radial form

    (I^a u)(q^n) = q^(-a) q^(a n) u(q^n)
                 + front * sum_{j<n} (1-1/q) q^j K(n, j) u(q^j),

with kernel K(n, j) = q^((a-1)n) - q^((a-1)j) and front coefficient
(1 - q^-a)/(1 - q^(a-1)) when a != 1, and K(n, j) = (n - j) ln q with
front (1 - q)/(q ln q) on the log branch a = 1.  Only shells below n
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

from .errors import DomainViolation, ScalingViolation
from .grid import (
    GrowthKind,
    RadialFunction,
    RadialGrid,
    TailSpec,
    check_growth_conditions,
    is_log_branch,
    qpow,
    running_sums,
)

__all__ = [
    "is_log_branch",
    "front_coeff",
    "second_sum_weight",
    "offdiag_integral",
    "apply_ialpha",
    "ialpha_oracle",
    "kernel_constant",
    "bound_constant",
]


def front_coeff(alpha: float, q: int) -> float:
    """Front coefficient of the integral kernel.

    (1 - q^-a)/(1 - q^(a-1)) away from a = 1; the removable singularity at
    a = 1 is routed to the log branch value (1 - q)/(q ln q).  Values of
    alpha within 1e-12 of 1 take the log branch, since the generic formula
    hits catastrophic cancellation there.
    """
    if alpha <= 0.0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    if is_log_branch(alpha):
        return (1.0 - q) / (q * math.log(q))
    return (1.0 - qpow(q, -alpha)) / (1.0 - qpow(q, alpha - 1.0))


def second_sum_weight(alpha: float) -> tuple[float, int]:
    """Weight exponent and index power of the kernel's second lower sum.

    The off-diagonal integral needs sum q^j u(q^j) and, besides it,
    sum q^(a j) u(q^j), or sum j q^j u(q^j) on the log branch.
    """
    return (1.0, 1) if is_log_branch(alpha) else (alpha, 0)


def offdiag_integral(alpha: float, q: int, front: float, n: int,
                     s_plain: float, s_second: float) -> float:
    """front * integral of K(n, j) u over |y| < q^n.

    ``s_plain`` and ``s_second`` are the two lower sums of u through shell
    n - 1 (see :func:`second_sum_weight`); their tails are exact.
    """
    one = 1.0 - 1.0 / q
    if is_log_branch(alpha):
        return front * math.log(q) * one * (n * s_plain - s_second)
    return front * one * (qpow(q, (alpha - 1.0) * n) * s_plain - s_second)


def apply_ialpha(u: RadialFunction, alpha: float,
                 out_window: tuple[int, int] | None = None) -> RadialFunction:
    """Evaluate the regularized integral of ``u`` on ``out_window``.

    Requires lower-tail summability (the integral reads shells j <= n only,
    upper tails are irrelevant); raises :class:`DomainViolation` otherwise.
    The result has zero tails and value 0 at the origin.
    """
    report = check_growth_conditions(u, alpha, GrowthKind.IALPHA_DOMAIN)
    if not report.ok:
        raise DomainViolation(
            "input is outside the integral's domain:\n" + str(report))
    q = u.grid.q
    n_lo, n_hi = out_window if out_window is not None else (u.grid.k_min, u.grid.k_max)
    if n_lo > n_hi:
        raise ValueError(f"empty output window [{n_lo}, {n_hi}]")
    front = front_coeff(alpha, q)
    w, p = second_sum_weight(alpha)
    s_plain = running_sums(u, 1.0, "lower", n_lo - 1, n_hi - 1)
    s_second = running_sums(u, w, "lower", n_lo - 1, n_hi - 1, p)
    values = []
    for n, sp, ss in zip(range(n_lo, n_hi + 1), s_plain, s_second):
        diag = qpow(q, alpha * (n - 1)) * u.eval(n)
        values.append(diag + offdiag_integral(alpha, q, front, n, sp, ss))
    return RadialFunction(RadialGrid(q, n_lo, n_hi), tuple(values), 0.0,
                          TailSpec.zero(), TailSpec.zero())


def ialpha_oracle(u: RadialFunction, alpha: float, n: int) -> float:
    """Defining double-integral evaluation of the integral at shell n.

    Requires compact support (zero tails).  The integral over |y| <= q^n of
    (|x-y|^(a-1) - |y|^(a-1)) u(|y|) splits sphere by sphere: for |y| = q^j
    with j < n the kernel is constant on the sphere, while on the boundary
    sphere |y| = q^n it varies with the stratum |x-y| = q^m, of measure
    (1-1/q)q^m for m < n and (1-2/q)q^n for m = n.  The stratified boundary
    sum has an exact geometric closed form, so the oracle is truncation
    free.
    """
    if alpha <= 0.0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    if not (u.lower_tail.is_null() and u.upper_tail.is_null()):
        raise DomainViolation("oracle requires a compactly supported input (zero tails)")
    q = u.grid.q
    k_min, k_max = u.grid.k_min, u.grid.k_max
    one = 1.0 - 1.0 / q
    front = front_coeff(alpha, q)
    un = u.eval(n)
    total = 0.0
    if is_log_branch(alpha):
        lnq = math.log(q)
        for j in range(k_min, min(n - 1, k_max) + 1):
            total += one * qpow(q, j) * (n - j) * lnq * u.values[j - k_min]
        # boundary sphere: int (log|x-y| - log|y|) dy = -ln q * q^n/(q-1)
        total -= un * lnq * qpow(q, n) / (q - 1.0)
    else:
        kn = qpow(q, (alpha - 1.0) * n)
        for j in range(k_min, min(n - 1, k_max) + 1):
            total += one * qpow(q, j) * (kn - qpow(q, (alpha - 1.0) * j)) * u.values[j - k_min]
        # boundary sphere: int (|x-y|^(a-1) - q^((a-1)n)) dy in closed form
        if un != 0.0:
            inner = one * qpow(q, alpha * (n - 1)) / (1.0 - qpow(q, -alpha))
            total += un * (inner - qpow(q, alpha * n - 1.0))
    return front * total


def _kernel_moment(alpha: float, m: int, q: int, n: int) -> float:
    """I_{a,m}(q^n) as an exact geometric closed form."""
    one = 1.0 - 1.0 / q
    if is_log_branch(alpha):
        y = qpow(q, -(1.0 + m))
        return one * math.log(q) * qpow(q, (1.0 + m) * n) * y / (1.0 - y) ** 2

    def lower_geom(a: float) -> float:
        # sum_{j <= n-1} q^(a j), a > 0
        return qpow(q, a * (n - 1)) / (1.0 - qpow(q, -a))

    sgn = 1.0 if alpha > 1.0 else -1.0
    return one * sgn * (qpow(q, (alpha - 1.0) * n) * lower_geom(1.0 + alpha * m)
                        - lower_geom(alpha + alpha * m))


def kernel_constant(alpha: float, m: int, grid: RadialGrid) -> float:
    """d_{a,m}, with I_{a,m}(q^n) = d_{a,m} q^(a(m+1)n), checked for
    homogeneity across two shells.

    The moment is evaluated at n = 0 and at a second shell (7, or closer in
    when q^(a(m+1)n) would overflow); the rescaled values must agree to
    1e-10, otherwise a :class:`ScalingViolation` is raised (internal
    consistency guard).
    """
    if alpha <= 0.0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    if m < 0:
        raise ValueError(f"m must be a nonnegative integer, got {m}")
    q = grid.q
    if qpow(q, -alpha) == 1.0:
        raise ValueError(f"alpha = {alpha!r} is too small: q^-alpha rounds to 1")
    d0 = _kernel_moment(alpha, m, q, 0)
    n2 = min(7, max(1, int(600.0 / (alpha * (m + 1) * math.log(q)))))
    d2 = _kernel_moment(alpha, m, q, n2) / qpow(q, alpha * (m + 1) * n2)
    scale = max(abs(d0), abs(d2))
    if abs(d0 - d2) > 1e-10 * scale:
        raise ScalingViolation(
            f"kernel moment ratio violates q^(a(m+1)) scaling: "
            f"d(n=0) = {d0!r}, d(n={n2}) = {d2!r}")
    if d0 <= 0.0:
        raise ScalingViolation(f"kernel constant must be positive, got {d0!r}")
    return d0


_BOUND_M_RANGE = 41  # m in [0, 40]; the uniform constant is estimated over this range
_BOUND_MARGIN = 1.1


@lru_cache(maxsize=None)
def bound_constant(alpha: float, grid: RadialGrid) -> float:
    """Certified constant C with |(I^a phi)(q^n)| <= C * mu * q^(a(m+1)n)
    whenever |phi(q^j)| <= mu * q^(a m j), uniformly over m.

    C = q^-a + |front| * A, where A estimates the uniform kernel bound as
    the maximum of d_{a,m} q^(a m) over m <= 40 with a 10 percent margin.
    Drives the contraction factor predictions of the solver.
    """
    q = grid.q
    a_hat = max(kernel_constant(alpha, m, grid) * qpow(q, alpha * m)
                for m in range(_BOUND_M_RANGE))
    return qpow(q, -alpha) + abs(front_coeff(alpha, q)) * _BOUND_MARGIN * a_hat
