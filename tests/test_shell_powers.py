"""The operator loops form ln q once per call and read the window by slice;
every value stays bit-identical to per-shell ``qpow`` and ``eval`` forms."""

from __future__ import annotations

import math
import random

import pytest

from ultrafrac import RadialFunction, RangeExceeded, TailSpec, apply_dalpha, apply_ialpha
from ultrafrac.fracint import KernelSum
from ultrafrac.grid import RunningSum, sweep
from helpers import (
    QpowKernelSum,
    QpowRunningSum,
    compact,
    dalpha_by_shell,
    ialpha_by_shell,
    sums_by_shell,
)

QS = (2, 3, 5, 7, 11)
ALPHAS = (0.3, 1.0, 1.0 - 1e-9, 1.0 + 1e-9, 1.7, 2.5)
WIDTH = 20


def _hex(values):
    return [v.hex() for v in values]


def _input(q: int, alpha: float, k_min: int, tails: bool) -> RadialFunction:
    rnd = random.Random(f"{q}:{alpha}:{k_min}:{tails}")
    values = [rnd.uniform(-1.0, 1.0) for _ in range(WIDTH)]
    if not tails:
        return compact(q, k_min, values)
    # in the domain of both operators: e > 0 below, 0 <= e < alpha above
    return RadialFunction.from_values(
        q, k_min, values, lower_tail=TailSpec.power_law(rnd.uniform(-1, 1), 0.5),
        upper_tail=TailSpec.power_law(rnd.uniform(-1, 1), min(0.2, alpha / 2)))


def _cases(q: int, alpha: float):
    """(input, output window) pairs: input windows near the lowest and the
    highest shells where every power and output stays a normal float (|k| up
    to 1000), and near 0, each with output windows below, across and above."""
    lnq = math.log(q)
    k_neg = min(1000, int(min(1400.0 / (alpha + 1.0), 690.0 / alpha) / lnq))
    # the lower tail's sums grow like q^((w + 0.5) k), with w = alpha or 1
    k_pos = min(1000, int(690.0 / ((max(alpha, 1.0) + 0.5) * lnq)))
    for k_min in (-k_neg + 30, -WIDTH // 2, k_pos - WIDTH - 25):
        k_max = k_min + WIDTH - 1
        for tails in (False, True):
            u = _input(q, alpha, k_min, tails)
            for window in ((k_min - 30, k_min - 5), (k_min - 3, k_max + 3),
                           (k_max + 2, k_max + 25)):
                yield u, window


@pytest.mark.parametrize("q", QS)
@pytest.mark.parametrize("alpha", ALPHAS)
def test_operators_match_per_shell_qpow_references(q, alpha):
    for u, window in _cases(q, alpha):
        assert _hex(apply_ialpha(u, alpha, window).values) == _hex(
            ialpha_by_shell(u, alpha, window)), window
        assert _hex(apply_dalpha(u, alpha, window).values) == _hex(
            dalpha_by_shell(u, alpha, window)), window


@pytest.mark.parametrize("q", QS)
@pytest.mark.parametrize("alpha", ALPHAS)
def test_sweeps_match_per_shell_qpow_runs(q, alpha):
    for u, window in _cases(q, alpha):
        lo, up = u.lower_tail, u.upper_tail
        for start, ref, side in (
                (lambda n: RunningSum(lo, q, 1.0, n),
                 lambda n: QpowRunningSum(lo, q, 1.0, n), "lower"),
                (lambda n: RunningSum(up, q, -alpha, n, "upper"),
                 lambda n: QpowRunningSum(up, q, -alpha, n, "upper"), "upper"),
                (lambda n: KernelSum(lo, q, alpha, n),
                 lambda n: QpowKernelSum(lo, q, alpha, n), "lower")):
            assert _hex(sweep(start, u, side, *window)) == _hex(
                sums_by_shell(ref, u, side, *window)), (side, window)


@pytest.mark.parametrize("tails", [False, True])
def test_evals_matches_eval_bitwise(tails):
    u = _input(3, 0.7, -4, tails)
    k_min, k_max = u.grid.k_min, u.grid.k_max
    edges = (k_min - 6, k_min - 1, k_min, k_min + 1, k_max - 1, k_max, k_max + 1, k_max + 6)
    for lo in edges:
        for hi in (*edges, lo - 1):
            assert _hex(u.evals(lo, hi)) == _hex([u.eval(k) for k in range(lo, hi + 1)])


# each power overflows where the per-shell qpow form overflows, with its text
POWER_OVERFLOWS = {
    # the running lower sum's weight q^(a k) at shell 513
    "ialpha-weight": (apply_ialpha, 2.0, 500, 101, None, "q = 2, x = 1026.0"),
    # the diagonal q^(a(n-1)) of a one-shell window, where no weight is pushed
    "ialpha-diagonal": (apply_ialpha, 2.0, 600, 1, None, "q = 2, x = 1198.0"),
    # the diagonal q^(-a n - 1) at n = -513, one shell below the upper sum's last weight
    "dalpha-diagonal": (apply_dalpha, 2.0, -513, 14, (-513, -510), "q = 2, x = 1025.0"),
}


@pytest.mark.parametrize("case", sorted(POWER_OVERFLOWS))
def test_power_overflows_keep_qpow_text(case):
    op, alpha, k_min, width, window, text = POWER_OVERFLOWS[case]
    u = compact(2, k_min, [0.5] * width)
    with pytest.raises(RangeExceeded, match=f"^q\\^x overflows a float: {text}$"):
        op(u, alpha, window)


def test_non_finite_outputs_raise_at_their_first_shell():
    # D^a of a constant is 0, but s1 and s2 each overflow, to -inf and +inf
    u = compact(2, -1000, [1e300] * 6)
    with pytest.raises(RangeExceeded, match=r"^D\^alpha u is nan at shell -1000: "):
        apply_dalpha(u, 0.5)
    # the lower sum runs through the upper tail 0.379 q^(0.614 k) to shell 844
    rnd = random.Random(0)
    u = RadialFunction.from_values(3, 800, [rnd.uniform(-1.0, 1.0) for _ in range(37)],
                                   upper_tail=TailSpec.power_law(0.379, 0.614))
    with pytest.raises(RangeExceeded, match=r"^I\^alpha u is nan at shell 843: "):
        apply_ialpha(u, 0.5, (843, 845))


def test_finite_outputs_whose_sum_overflows_are_kept():
    # 1.06e308 + 1.28e308 overflows the sum of the values, not a value
    out = apply_ialpha(compact(2, 0, [1.5e308] * 2), 0.5, (0, 1))
    assert not math.isfinite(sum(out.values))
    assert all(math.isfinite(v) for v in out.values)
