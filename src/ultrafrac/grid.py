"""Radial functions on the ultrametric shell lattice q**Z.

A function on a non-Archimedean local field that depends only on the
absolute value |t| = q**k is stored as one value per integer shell index k
inside a finite window [k_min, k_max], together with closed-form tail
models c * q**(e*k) for the shells outside it (zero and constant are
special cases).  Every operator in this package reduces to weighted sums
over shells, and restricting tails to this family keeps all infinite sums
exact geometric series: tail contributions are never truncated.

Shell k represents the sphere |t| = q**k, whose measure is (1 - 1/q)*q**k.
Every power of q is exp(x * ln q), ln q = ``math.log(q)``, so equal exponents
give bit-identical values and cancellation-sensitive sums are reproducible:
:func:`qpow` forms single powers, and each operator loop forms ln q once.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Sequence

from .errors import DivergentTail, RangeExceeded
from .record import Record

__all__ = [
    "qpow",
    "RadialGrid",
    "TailSpec",
    "RadialFunction",
    "RunningSum",
    "sweep",
    "ConditionEntry",
    "ConditionReport",
    "series_entry",
]

def qpow(q: float, x: float) -> float:
    """q**x computed as exp(x*ln q), with ln q = ``math.log(q)``.

    Every power in the package is this expression, so identical exponents
    give bit-identical floats in every module.  Raises :class:`RangeExceeded`
    when q**x overflows a float.
    """
    try:
        return math.exp(x * math.log(q))
    except OverflowError:
        raise RangeExceeded(f"q^x overflows a float: q = {q}, x = {x!r}") from None


class RadialGrid(Record):
    """Shell index window [k_min, k_max] over the value lattice q**Z.

    q is the residue-field cardinality; shell k stands for |t| = q**k.
    """

    __slots__ = ("q", "k_min", "k_max")

    def __init__(self, q: int, k_min: int, k_max: int) -> None:
        if q < 2:
            raise ValueError(f"q must be an integer >= 2, got {q}")
        if k_min > k_max:
            raise ValueError(f"empty shell window [{k_min}, {k_max}]")
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "k_min", k_min)
        object.__setattr__(self, "k_max", k_max)

    @property
    def shells(self) -> range:
        return range(self.k_min, self.k_max + 1)

    @property
    def size(self) -> int:
        return self.k_max - self.k_min + 1


class TailSpec(Record):
    """Closed-form model u(q**k) = c * q**(e*k) for shells outside the window.

    A constant is the e = 0 case and zero the c = 0 one.  The family is
    closed under the weighted geometric sums every operator needs, so tail
    contributions are exact.  A weighted lower-tail sum with weight
    q**(w*k) converges iff w + e > 0, an upper one iff w + e < 0;
    :class:`RunningSum` rejects the divergent combinations.
    """

    __slots__ = ("c", "e")

    def __init__(self, c: float = 0.0, e: float = 0.0) -> None:
        if not (math.isfinite(c) and math.isfinite(e)):
            raise ValueError(f"tail c and e must be finite, got c = {c!r}, e = {e!r}")
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "e", e)

    @staticmethod
    def zero() -> "TailSpec":
        return TailSpec()

    @staticmethod
    def constant(c: float) -> "TailSpec":
        return TailSpec(float(c))

    @staticmethod
    def power_law(c: float, e: float) -> "TailSpec":
        return TailSpec(float(c), float(e))

    def is_null(self) -> bool:
        """True when the model contributes nothing to any sum."""
        return self.c == 0.0

    def eval(self, q: int, k: int) -> float:
        return self.c * qpow(q, self.e * k)


class RadialFunction(Record):
    """A radial function: window values plus tail models plus the value at 0.

    ``eval`` is total on the integers: window lookup inside [k_min, k_max],
    tail formula outside.  ``value_at_zero`` is the value at the field point
    t = 0 (not a shell); operators read shells only, the zero value feeds
    the continuity check.
    """

    __slots__ = ("grid", "values", "value_at_zero", "lower_tail", "upper_tail")

    def __init__(self, grid: RadialGrid, values: Sequence[float],
                 value_at_zero: float = 0.0, lower_tail: TailSpec = TailSpec(),
                 upper_tail: TailSpec = TailSpec()) -> None:
        vals = tuple(map(float, values))
        if len(vals) != grid.size:
            raise ValueError(
                f"expected {grid.size} shell values for window "
                f"[{grid.k_min}, {grid.k_max}], got {len(vals)}")
        if lower_tail.c != 0.0 and lower_tail.e > 0.0 and value_at_zero != 0.0:
            # u(q**k) -> 0 as k -> -inf, so continuity at 0 forces u(0) = 0
            raise ValueError("decaying power-law lower tail requires value_at_zero == 0")
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "value_at_zero", value_at_zero)
        object.__setattr__(self, "lower_tail", lower_tail)
        object.__setattr__(self, "upper_tail", upper_tail)

    @classmethod
    def from_values(cls, q: int, k_min: int, values: Sequence[float],
                    value_at_zero: float = 0.0,
                    lower_tail: TailSpec | None = None,
                    upper_tail: TailSpec | None = None) -> "RadialFunction":
        grid = RadialGrid(q, k_min, k_min + len(values) - 1)
        return cls(grid, tuple(values), value_at_zero,
                   lower_tail or TailSpec.zero(), upper_tail or TailSpec.zero())

    def eval(self, k: int) -> float:
        if k < self.grid.k_min:
            return self.lower_tail.eval(self.grid.q, k)
        if k > self.grid.k_max:
            return self.upper_tail.eval(self.grid.q, k)
        return self.values[k - self.grid.k_min]

    def evals(self, lo: int, hi: int) -> list[float]:
        """``[self.eval(k) for k in range(lo, hi + 1)]``, slicing the window."""
        q, k_min, k_max = self.grid.q, self.grid.k_min, self.grid.k_max
        out = [self.lower_tail.eval(q, k) for k in range(lo, min(hi + 1, k_min))]
        out += self.values[max(lo, k_min) - k_min:max(min(hi, k_max) + 1 - k_min, 0)]
        out += [self.upper_tail.eval(q, k) for k in range(max(lo, k_max + 1), hi + 1)]
        return out


def _tail_series(tail: TailSpec, q: int, w: float, side: str, anchor: int) -> float:
    """Exact sum of q**(w*k) * tail(k) over k <= anchor or k >= anchor.

    Raises :class:`DivergentTail` when the ratio of the series is >= 1,
    i.e. when the convergence condition on the tail model fails.
    """
    if tail.is_null():
        return 0.0
    r = w + tail.e
    head = tail.c * qpow(q, r * anchor)
    # the ratio q^(s r) of a step away from the anchor: s = -1 below, +1 above
    s = -1.0 if side == "lower" else 1.0
    t = qpow(q, s * r)
    if t >= 1.0:
        ratio = "q^-(w+e)" if side == "lower" else "q^(w+e)"
        raise DivergentTail(
            f"{side} tail sum diverges: ratio {ratio} = {t!r} >= 1 "
            f"(weight {w:g}, tail exponent {tail.e:g})")
    return head / (1.0 - t)


def _step(side: str) -> int:
    """+1 for a lower sum, which runs upward, and -1 for an upper one."""
    if side not in ("lower", "upper"):
        raise ValueError(f"side must be 'lower' or 'upper', got {side!r}")
    return 1 if side == "lower" else -1


class RunningSum:
    """Running one-sided sum of q**(w*k) * f(q**k), extended one shell at a time.

    A lower sum starts as the exact tail series over k <= k_start - 1 and
    ``push`` adds the values at shells k_start, k_start + 1, ...; an upper
    sum starts as the series over k >= k_start + 1 and ``push`` walks down
    through k_start, k_start - 1, ...  The explicit terms are added with
    compensated summation, in the order they are pushed.  The accumulator
    :func:`sweep` runs for the derivative's two sums.
    """

    __slots__ = ("_q", "_lnq", "_w", "_k", "_step", "_s", "_c")

    def __init__(self, tail: TailSpec, q: int, w: float, k_start: int,
                 side: str = "lower") -> None:
        step = _step(side)
        self._q, self._lnq, self._w, self._k, self._step = q, math.log(q), w, k_start, step
        # the first compensated step from a zero sum, in full: 0.0 + t turns
        # a tail of -0.0 into 0.0, and a tail of +-inf leaves nan behind in _c
        t = _tail_series(tail, q, w, side, k_start - step)
        self._s = 0.0 + t
        self._c = self._s - t

    @property
    def value(self) -> float:
        return self._s

    def push(self, v: float) -> float:
        """Add the value at the next shell; return the sum through that shell."""
        k = self._k
        try:
            y = math.exp(self._w * k * self._lnq) * v - self._c
        except OverflowError:
            qpow(self._q, self._w * k)  # raises the power's RangeExceeded
            raise
        s = self._s + y
        self._c = (s - self._s) - y
        self._s = s
        self._k = k + self._step
        return s


def sweep(start: Callable[[int], object], f: RadialFunction, side: str,
          n_lo: int, n_hi: int) -> list[float]:
    """``start(n).value`` for every n in [n_lo, n_hi], in one pass, listed
    in ascending n.

    ``start(n)`` is a one-sided accumulator over f: its ``value`` is the sum
    over the shells below n (lower) or above n (upper), and ``push(v)`` adds
    the value at n, moves one shell on and returns the new ``value``.
    :class:`RunningSum` and :class:`~ultrafrac.fracint.KernelSum` are two.
    Let the edge be the window shell next to the summed tail: k_min for a
    lower sum, k_max for an upper one.  Up to the edge each value is a
    fresh start's; beyond it, one run started at the edge takes one value
    of f per shell.  Either way each value is bit-identical to
    ``start(n).value``.
    """
    step = _step(side)
    edge = f.grid.k_min if step == 1 else f.grid.k_max
    # walk x = step * n upward: an upper sweep is a lower one of the reflection
    x_lo, x_hi = (n_lo, n_hi) if step == 1 else (-n_hi, -n_lo)
    x_edge = step * edge
    out = [start(step * x).value for x in range(x_lo, min(x_hi, x_edge) + 1)]
    if x_hi > x_edge:
        # the value at x + 1 is the run's after pushing f at x; from x_lo on
        push, last = start(edge).push, step * (x_hi - 1)
        vals = f.evals(edge, last) if step == 1 else f.evals(last, edge)[::-1]
        out += list(map(push, vals))[max(x_lo - 1 - x_edge, 0):]
    return out if step == 1 else out[::-1]


def finite_output(name: str, q: int, n_lo: int, values: list[float]) -> RadialFunction:
    """An operator's output from shell ``n_lo`` on, with zero tails; raises
    :class:`RangeExceeded` at the first shell whose value is not finite."""
    if not math.isfinite(sum(values)):  # the common case costs this one sum
        for n, v in enumerate(values, n_lo):
            if not math.isfinite(v):
                raise RangeExceeded(f"{name} is {v!r} at shell {n}: a series term overflows")
    return RadialFunction.from_values(q, n_lo, values)


class ConditionEntry(Record):
    __slots__ = ("name", "passed", "detail")


class ConditionReport(Record):
    """Outcome of a set of predicate checks, one entry per condition."""

    __slots__ = ("kind", "entries")

    @property
    def ok(self) -> bool:
        return all(e.passed for e in self.entries)

    def __str__(self) -> str:
        lines = [f"[{self.kind}] {'ok' if self.ok else 'FAILED'}"]
        lines += [f"  {'pass' if e.passed else 'FAIL'} {e.name}: {e.detail}"
                  for e in self.entries]
        return "\n".join(lines)


def series_entry(name: str, tail: TailSpec, w: float, side: str) -> ConditionEntry:
    """Entry for convergence of sum q**(w*k)|u(q**k)| over one tail."""
    if tail.is_null():
        return ConditionEntry(name, True, "tail vanishes")
    e = tail.e
    if side == "lower":
        ok = w + e > 0.0
        need = f"exponent > {-w:g}"
    else:
        ok = w + e < 0.0
        need = f"exponent < {-w:g}"
    return ConditionEntry(name, ok, f"{need}; tail exponent is {e:g}")
