"""High-precision reference values from the defining formulas, in stdlib decimal.

Every function works at ``prec`` significant digits (50 by default) on the
exact values of the floats it is given, and forms each power q^x as
``(x * ln q).exp()`` at that precision, never through ``qpow``.  The
integral uses the kernel of its definition,

    front * (q^((a-1)n) - q^((a-1)j)),  front = (1 - q^-a)/(1 - q^(a-1)),

or (1 - q)/(q ln q) * (n - j) ln q at a == 1 exactly, not the package's
recurrence.  The derivative integrates its hypersingular definition
sphere by sphere, as ``dalpha_oracle`` does, not the package's three-part
series.  Both sum geometric tails in closed form.  Rerunning at 80
digits (``CHECK_PREC``) bounds the reference's own error.
"""

from __future__ import annotations

from decimal import Decimal, getcontext, localcontext
from functools import lru_cache

PREC = 50
CHECK_PREC = 80
#: the margin of ``bound_constant``, taken as the exact value of its float
BOUND_MARGIN = Decimal(1.1)
#: m range of the uniform kernel bound's supremum
M_RANGE = 41


def _pow(q, x) -> Decimal:
    """q^x at the current precision."""
    return _pow_at(q, Decimal(x), getcontext().prec)


@lru_cache(maxsize=4096)
def _pow_at(q, x: Decimal, prec: int) -> Decimal:
    with localcontext() as ctx:
        ctx.prec = prec
        return (x * Decimal(q).ln()).exp()


def power(q: int, x: float, times: int = 1, prec: int = PREC) -> Decimal:
    """q^(x * times) at ``prec`` digits, with the product taken exactly."""
    with localcontext() as ctx:
        ctx.prec = prec
        return _pow(q, Decimal(x) * times)


def _geom(q, r, top) -> Decimal:
    """sum_{j < top} q^(r j), for r > 0."""
    return _pow(q, Decimal(r) * top) / (_pow(q, r) - 1)


def _geom_index(q, r, top) -> Decimal:
    """sum_{j < top} j q^(r j), for r > 0."""
    x = _pow(q, r)
    return _pow(q, Decimal(r) * top) * (top * (x - 1) - x) / (x - 1) ** 2


def _front(alpha, q) -> Decimal:
    if alpha == 1.0:
        return (1 - Decimal(q)) / (q * Decimal(q).ln())
    a = Decimal(alpha)
    return (1 - _pow(q, -a)) / (1 - _pow(q, a - 1))


def front(alpha: float, q: int, prec: int = PREC) -> Decimal:
    """The front coefficient of the kernel (the log kernel's at a == 1)."""
    with localcontext() as ctx:
        ctx.prec = prec
        return +_front(alpha, q)


def _eval(u, k) -> Decimal:
    """u(q^k): the window value, or the tail model c q^(e k)."""
    g = u.grid
    if g.k_min <= k <= g.k_max:
        return Decimal(u.values[k - g.k_min])
    tail = u.lower_tail if k < g.k_min else u.upper_tail
    return Decimal(tail.c) * _pow(g.q, Decimal(tail.e) * k) if tail.c != 0.0 else Decimal(0)


def _kernel_weight(alpha, q, n, j) -> Decimal:
    """front * K(n, j) * (1 - 1/q) q^j: the weight of shell j < n."""
    one = 1 - Decimal(1) / q
    if alpha == 1.0:
        kern = (n - j) * Decimal(q).ln()
    else:
        a1 = Decimal(alpha) - 1
        kern = _pow(q, a1 * n) - _pow(q, a1 * j)
    return _front(alpha, q) * one * _pow(q, j) * kern


def _lower_tail_part(u, alpha, n, top) -> Decimal:
    """The kernel-weighted sum of the lower tail c q^(e j) over j < top."""
    tail = u.lower_tail
    if tail.c == 0.0:
        return Decimal(0)
    q = u.grid.q
    c, e = Decimal(tail.c), Decimal(tail.e)
    one = 1 - Decimal(1) / q
    if alpha == 1.0:
        inner = (n * _geom(q, 1 + e, top) - _geom_index(q, 1 + e, top)) * Decimal(q).ln()
    else:
        a = Decimal(alpha)
        inner = _pow(q, (a - 1) * n) * _geom(q, 1 + e, top) - _geom(q, a + e, top)
    return _front(alpha, q) * one * c * inner


def ialpha(u, alpha: float, n: int, prec: int = PREC) -> tuple[Decimal, Decimal]:
    """(I^a u)(q^n) and the sum of the absolute values of its terms.

    The terms are the diagonal, one kernel-weighted value per explicit
    shell j < n, and the lower tail's closed form below min(n, k_min).
    """
    with localcontext() as ctx:
        ctx.prec = prec
        q = u.grid.q
        top = min(n, u.grid.k_min)
        terms = [_pow(q, Decimal(alpha) * (n - 1)) * _eval(u, n),
                 _lower_tail_part(u, alpha, n, top)]
        terms += [_kernel_weight(alpha, q, n, j) * _eval(u, j) for j in range(top, n)]
        return +sum(terms), +sum(abs(t) for t in terms)


def dalpha(u, alpha: float, n: int, prec: int = PREC) -> tuple[Decimal, Decimal]:
    """(D^a u)(q^n) and the sum of the absolute values of its terms.

    theta * int |y|^(-a-1) (u(|x - y|) - u(|x|)) dy with |x| = q^n, theta =
    (1 - q^a)/(1 - q^(-a-1)): the ball |y| < q^n contributes nothing, the
    sphere |y| = q^n has |x - y| = q^m on a set of measure (1 - 1/q) q^m for
    each m < n, and every sphere |y| = q^l > q^n has |x - y| = q^l.  The
    terms are one per explicit shell m < n and l > n, the value at n with
    every weight that multiplies it, and the closed forms of the tails below
    min(n, k_min) and above max(n, k_max).
    """
    with localcontext() as ctx:
        ctx.prec = prec
        q, g = u.grid.q, u.grid
        a = Decimal(alpha)
        one = 1 - Decimal(1) / q
        th = (1 - _pow(q, a)) / (1 - _pow(q, -a - 1))
        below = th * one * _pow(q, -(a + 1) * n)   # times q^m u(q^m), m < n
        above = th * one                           # times q^(-a l) u(q^l), l > n
        bottom, top = min(n, g.k_min), max(n, g.k_max)
        terms = [-th * _eval(u, n) * (_pow(q, -a * n - 1)
                                      + one * _pow(q, -a * (n + 1)) / (1 - _pow(q, -a)))]
        terms += [below * _pow(q, m) * _eval(u, m) for m in range(bottom, n)]
        terms += [above * _pow(q, -a * l) * _eval(u, l) for l in range(n + 1, top + 1)]
        low, up = u.lower_tail, u.upper_tail
        if low.c != 0.0:  # sum_{m < bottom} q^((1+e) m)
            terms.append(below * Decimal(low.c) * _geom(q, 1 + Decimal(low.e), bottom))
        if up.c != 0.0:  # sum_{l > top} q^((e-a) l) = sum_{j < -top} q^((a-e) j)
            terms.append(above * Decimal(up.c) * _geom(q, a - Decimal(up.e), -top))
        return +sum(terms), +sum(abs(t) for t in terms)


def kernel_moment(alpha: float, m: int, q: int, n: int, prec: int = PREC) -> Decimal:
    """I_{a,m}(q^n) = (1 - 1/q) sum_{j<n} q^j |K(n, j)| q^(a m j), summed at
    shell n itself, so that homogeneity in n is tested, not assumed."""
    with localcontext() as ctx:
        ctx.prec = prec
        a = Decimal(alpha)
        one = 1 - Decimal(1) / q
        if alpha == 1.0:
            r = 1 + Decimal(m)
            inner = (n * _geom(q, r, n) - _geom_index(q, r, n)) * Decimal(q).ln()
        else:
            inner = abs(_pow(q, (a - 1) * n) * _geom(q, 1 + a * m, n)
                        - _geom(q, a + a * m, n))
        return +(one * inner)


def kernel_constant(alpha: float, m: int, q: int, prec: int = PREC) -> Decimal:
    """d_{a,m}: the moment at shell 0."""
    return kernel_moment(alpha, m, q, 0, prec)


def bound_constant(alpha: float, q: int, prec: int = PREC) -> Decimal:
    """q^-a + margin * max over m <= 40 of |front| d_{a,m} q^(a m)."""
    with localcontext() as ctx:
        ctx.prec = prec
        a = Decimal(alpha)
        fr = abs(_front(alpha, q))
        sup = max(fr * kernel_moment(alpha, m, q, 0, prec) * _pow(q, a * m)
                  for m in range(M_RANGE))
        return +(_pow(q, -a) + BOUND_MARGIN * sup)


def truncation_response(alpha: float, q: int, misfit: float, k0: int, n: int,
                        prec: int = PREC) -> Decimal:
    """The integral's response at shell n >= k0 to the error ``misfit`` on
    every shell below k0, with the sign that maximizes it:
    misfit * sum_{j<k0} |front K(n, j)| (1 - 1/q) q^j."""
    with localcontext() as ctx:
        ctx.prec = prec
        one = 1 - Decimal(1) / q
        fr = abs(_front(alpha, q))
        if alpha == 1.0:
            inner = (n * _geom(q, 1, k0) - _geom_index(q, 1, k0)) * Decimal(q).ln()
        else:
            a = Decimal(alpha)
            inner = abs(_pow(q, (a - 1) * n) * _geom(q, 1, k0) - _geom(q, a, k0))
        return +(Decimal(misfit) * fr * one * inner)


def self_error(compute) -> Decimal:
    """Relative difference of ``compute(prec)`` at the default and the check
    precision: a bound on the default-precision value's error."""
    lo, hi = compute(PREC), compute(CHECK_PREC)
    with localcontext() as ctx:
        ctx.prec = CHECK_PREC
        return abs(lo - hi) / abs(hi) if hi != 0 else abs(lo)
