"""Shell measures, tail sums and growth-condition checks."""

from __future__ import annotations

import hashlib
import math
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ultrafrac import (
    DivergentTail,
    DomainViolation,
    RadialFunction,
    RadialGrid,
    RangeExceeded,
    TailSpec,
    apply_dalpha,
    apply_ialpha,
    dalpha_domain,
    ialpha_domain,
    qpow,
)
from ultrafrac.grid import sweep
from helpers import (
    ascending_upper_sum,
    ball_power_integral,
    bits,
    constant_function,
    indicator_unit_ball,
    left_inverse_conditions,
    right_inverse_conditions,
    running_sums,
    shell_measure,
    weighted_tail_sum,
)


def test_grid_validation():
    with pytest.raises(ValueError):
        RadialGrid(1, 0, 1)
    with pytest.raises(ValueError):
        RadialGrid(2, 3, 2)
    g = RadialGrid(2, -3, 3)
    assert list(g.shells) == list(range(-3, 4))


def test_shell_measure_values():
    assert shell_measure(RadialGrid(2, 0, 0), 0) == pytest.approx(0.5, rel=1e-15)
    assert shell_measure(RadialGrid(3, 0, 0), 0) == pytest.approx(2.0 / 3.0, rel=1e-15)
    assert shell_measure(RadialGrid(3, 0, 0), 2) == pytest.approx(6.0, rel=1e-12)
    assert shell_measure(RadialGrid(5, 0, 0), -1) > 0.0


@pytest.mark.parametrize("q", [2, 3, 5])
@pytest.mark.parametrize("n", range(-10, 11))
def test_shell_measures_sum_to_ball_measure(q, n):
    # partial sum of sphere measures plus the exact remainder of the ball below
    grid = RadialGrid(q, 0, 0)
    partial = sum(shell_measure(grid, j) for j in range(n - 50, n + 1))
    remainder = qpow(q, n - 51)
    assert partial + remainder == pytest.approx(qpow(q, n), rel=1e-12)


def test_ball_power_integral_values():
    assert ball_power_integral(RadialGrid(2, 0, 0), 0, 1.0) == pytest.approx(1.0, rel=1e-15)
    assert ball_power_integral(RadialGrid(3, 0, 0), 0, 2.0) == pytest.approx(0.75, rel=1e-14)


def test_ball_power_integral_rejects_nonpositive_exponent():
    with pytest.raises(ValueError):
        ball_power_integral(RadialGrid(2, 0, 0), 0, 0.0)
    with pytest.raises(ValueError):
        ball_power_integral(RadialGrid(2, 0, 0), 0, -0.5)


@pytest.mark.parametrize("q", [2, 3, 5])
@pytest.mark.parametrize("a", [0.3, 1.0, 1.7, 2.5])
@pytest.mark.parametrize("n", range(-10, 11))
def test_ball_power_integral_matches_shell_sum(q, a, n):
    grid = RadialGrid(q, 0, 0)
    # oracle: explicit shell sum plus the exact geometric tail below the cut
    cut = n - 200
    partial = sum(shell_measure(grid, j) * qpow(q, (a - 1.0) * j)
                  for j in range(cut, n + 1))
    tail = (1.0 - 1.0 / q) * qpow(q, a * (cut - 1)) / (1.0 - qpow(q, -a))
    assert ball_power_integral(grid, n, a) == pytest.approx(partial + tail, rel=1e-12)


def test_eval_total_on_integers():
    f = constant_function(3, 1.0)
    for k in (-30, -3, 0, 3, 30):
        assert f.eval(k) == 1.0
    g = RadialFunction.from_values(
        2, 0, [5.0, 6.0], value_at_zero=0.0,
        lower_tail=TailSpec.power_law(2.0, 1.0), upper_tail=TailSpec.zero())
    assert g.eval(-3) == pytest.approx(2.0 * qpow(2, -3), rel=1e-15)
    assert g.eval(2) == 0.0
    assert g.eval(1) == 6.0


def test_continuity_invariant_enforced():
    with pytest.raises(ValueError):
        RadialFunction.from_values(
            2, 0, [1.0], value_at_zero=1.0,
            lower_tail=TailSpec.power_law(1.0, 0.5))
    # zero coefficient or nonpositive exponent puts no constraint on u(0)
    RadialFunction.from_values(2, 0, [1.0], value_at_zero=1.0,
                               lower_tail=TailSpec.power_law(0.0, 0.5))
    RadialFunction.from_values(2, 0, [1.0], value_at_zero=1.0,
                               lower_tail=TailSpec.constant(1.0))


def test_qpow_overflow_is_a_typed_range_error():
    assert math.isfinite(qpow(2, 1023))
    assert qpow(2, -1100) == 0.0  # underflow stays silent
    with pytest.raises(RangeExceeded, match=r"q = 3, x = 720\.0"):
        qpow(3, 720.0)


def test_weighted_tail_sum_geometric_series():
    # f == 1, weight -1/2, upper side: sum_{k>=0} q^(-k/2) = 1/(1 - q^(-1/2))
    f = constant_function(2, 1.0)
    got = weighted_tail_sum(f, -0.5, "upper", 0)
    want = 1.0 / (1.0 - 2.0 ** -0.5)
    assert got == pytest.approx(want, rel=1e-13)
    brute = sum(2.0 ** (-0.5 * k) for k in range(0, 200))
    assert got == pytest.approx(brute, rel=1e-12)


def test_weighted_tail_sum_zero_outside_window():
    f = RadialFunction.from_values(3, 0, [1.0, 2.0])
    assert weighted_tail_sum(f, 0.7, "lower", -1) == 0.0
    assert weighted_tail_sum(f, -0.7, "upper", 2) == 0.0


def test_weighted_tail_sum_divergence():
    f = constant_function(2, 1.0)
    with pytest.raises(DivergentTail):
        weighted_tail_sum(f, 0.5, "upper", 0)
    with pytest.raises(DivergentTail):
        weighted_tail_sum(f, 0.0, "lower", 0)
    with pytest.raises(DivergentTail):
        weighted_tail_sum(f, -0.2, "lower", 0)


def test_weighted_tail_sum_crossing_regions():
    # lower-side sum whose range extends above the window uses upper-tail values
    f = RadialFunction.from_values(
        2, -1, [1.0, 1.0, 1.0], lower_tail=TailSpec.constant(1.0),
        upper_tail=TailSpec.constant(1.0), value_at_zero=1.0)
    got = weighted_tail_sum(f, 1.0, "lower", 5)
    want = qpow(2, 5) / (1.0 - 0.5)  # sum_{k<=5} 2^k = 2^6
    assert got == pytest.approx(want, rel=1e-13)
    got_up = weighted_tail_sum(f, -1.0, "upper", -4)
    want_up = qpow(2, 4) / (1.0 - 0.5)
    assert got_up == pytest.approx(want_up, rel=1e-13)


@settings(max_examples=60, deadline=None)
@given(q=st.sampled_from([2, 3, 5]),
       w=st.floats(-2.0, 2.0),
       e=st.floats(-2.0, 2.0),
       c=st.floats(-3.0, 3.0),
       k0=st.integers(-6, 6))
def test_tail_closed_forms_match_materialized_window(q, w, e, c, k0):
    # widening the window by 10 shells (tail turned into explicit values)
    # must not change a convergent weighted sum
    tail = TailSpec.power_law(c, e)
    base = RadialFunction.from_values(
        q, -3, [0.7, -0.4, 1.1, 0.2, 0.9, -1.3, 0.5],
        lower_tail=tail, upper_tail=tail)
    wide_vals = ([tail.eval(q, k) for k in range(-13, -3)]
                 + list(base.values)
                 + [tail.eval(q, k) for k in range(4, 14)])
    wide = RadialFunction.from_values(q, -13, wide_vals,
                                      lower_tail=tail, upper_tail=tail)
    for side in ("lower", "upper"):
        converges = (w + e > 1e-9) if side == "lower" else (w + e < -1e-9)
        if not converges:
            continue
        a = weighted_tail_sum(base, w, side, k0)
        b = weighted_tail_sum(wide, w, side, k0)
        assert abs(a - b) <= 1e-12 * (1.0 + abs(a))


def _tail(kind, c, e):
    if kind == "zero":
        return TailSpec.zero()
    if kind == "constant":
        return TailSpec.constant(c)
    return TailSpec.power_law(c, e)


_TAIL_KINDS = st.sampled_from(["zero", "constant", "power"])


@settings(max_examples=300, deadline=None)
@given(q=st.sampled_from([2, 3, 5, 7]),
       w=st.sampled_from([1.0, 0.3, 0.5, 1.7, 2.5, 0.05]),
       lower=_TAIL_KINDS, upper=_TAIL_KINDS,
       c=st.floats(-3.0, 3.0), e_lo=st.floats(-1.0, 2.0), e_up=st.floats(-3.0, 1.0),
       values=st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=12),
       k_min=st.integers(-8, 5),
       where=st.sampled_from(["below", "across", "above"]),
       offset=st.integers(0, 6), span=st.integers(0, 15))
def test_lower_sums_match_per_shell_bitwise(q, w, lower, upper, c, e_lo, e_up,
                                            values, k_min, where, offset, span):
    # the one-pass engine against one weighted_tail_sum call per shell: same
    # bits (sign of zero included), or the same DivergentTail
    f = RadialFunction.from_values(q, k_min, values,
                                   lower_tail=_tail(lower, c, e_lo),
                                   upper_tail=_tail(upper, -c, e_up))
    k_max = f.grid.k_max
    k_lo = {"below": k_min - 2 - offset - span,
            "across": k_min - 2 - offset,
            "above": k_max + 1 + offset}[where]
    k_hi = k_lo + span if where != "across" else k_max + offset + span
    try:
        want = [weighted_tail_sum(f, w, "lower", k0) for k0 in range(k_lo, k_hi + 1)]
    except DivergentTail as exc:
        with pytest.raises(DivergentTail) as got:
            running_sums(f, w, "lower", k_lo, k_hi)
        assert str(got.value) == str(exc)
        return
    assert bits(running_sums(f, w, "lower", k_lo, k_hi)) == bits(want)


@pytest.mark.parametrize("k_lo,k_hi", [(-9, -6), (-9, 4), (-1, 6), (3, 8)])
def test_lower_sums_divergent_tail_in_every_region(k_lo, k_hi):
    f = RadialFunction.from_values(2, -2, [1.0, 2.0, 3.0],
                                   lower_tail=TailSpec.constant(1.0), value_at_zero=1.0)
    with pytest.raises(DivergentTail):
        running_sums(f, -0.2, "lower", k_lo, k_hi)


_UPPER_CASE = dict(
    q=st.sampled_from([2, 3, 5, 7]),
    w=st.sampled_from([-1.0, -0.3, -0.5, -1.7, -2.5, -0.05]),
    lower=_TAIL_KINDS, upper=_TAIL_KINDS,
    c=st.floats(-3.0, 3.0), e_lo=st.floats(-1.0, 3.0), e_up=st.floats(-2.0, 1.0),
    values=st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=12),
    k_min=st.integers(-8, 5),
    where=st.sampled_from(["below", "across", "above"]),
    offset=st.integers(0, 6), span=st.integers(0, 15))


def _upper_case(q, lower, upper, c, e_lo, e_up, values, k_min, where, offset, span):
    """A function and a k0 range below, across or above its window, mirroring
    the ranges of the lower-sum test."""
    f = RadialFunction.from_values(q, k_min, values,
                                   lower_tail=_tail(lower, -c, e_lo),
                                   upper_tail=_tail(upper, c, e_up))
    k_max = f.grid.k_max
    k_hi = {"above": k_max + 2 + offset + span,
            "across": k_max + 2 + offset,
            "below": k_min - 1 - offset}[where]
    k_lo = k_hi - span if where != "across" else k_min - offset - span
    return f, k_lo, k_hi


@settings(max_examples=300, deadline=None)
@given(**_UPPER_CASE)
def test_upper_sums_match_per_shell_bitwise(q, w, lower, upper, c, e_lo, e_up,
                                            values, k_min, where, offset, span):
    # the descending pass against one weighted_tail_sum call per shell: same
    # bits (sign of zero included), or the same DivergentTail
    f, k_lo, k_hi = _upper_case(q, lower, upper, c, e_lo, e_up, values, k_min,
                                where, offset, span)
    try:
        want = [weighted_tail_sum(f, w, "upper", k0) for k0 in range(k_lo, k_hi + 1)]
    except DivergentTail as exc:
        with pytest.raises(DivergentTail) as got:
            running_sums(f, w, "upper", k_lo, k_hi)
        assert str(got.value) == str(exc)
        return
    assert bits(running_sums(f, w, "upper", k_lo, k_hi)) == bits(want)


@settings(max_examples=300, deadline=None)
@given(**_UPPER_CASE)
def test_upper_sums_stay_near_the_ascending_order(q, w, lower, upper, c, e_lo, e_up,
                                                  values, k_min, where, offset, span):
    # the summation order of the upper sums changed from ascending to
    # descending: each sum stays within 4 eps * sum |terms| of the old one,
    # twice the bound of two compensated sums of the same terms
    f, k_lo, k_hi = _upper_case(q, lower, upper, c, e_lo, e_up, values, k_min,
                                where, offset, span)
    try:
        want = [ascending_upper_sum(f, w, k0) for k0 in range(k_lo, k_hi + 1)]
    except DivergentTail as exc:
        with pytest.raises(DivergentTail) as got:
            running_sums(f, w, "upper", k_lo, k_hi)
        assert str(got.value) == str(exc)
        return
    for got, (ref, size) in zip(running_sums(f, w, "upper", k_lo, k_hi), want):
        assert abs(got - ref) <= 4.0 * sys.float_info.epsilon * size


# every tail model the family allows, power_law(c, 0.0) included
_PINNED_TAILS = (TailSpec.zero(), TailSpec.constant(0.75), TailSpec.constant(-1.25),
                 TailSpec.power_law(0.5, 0.0), TailSpec.power_law(-0.8, 0.6),
                 TailSpec.power_law(1.3, -0.4), TailSpec.power_law(0.0, 0.3))


def test_tail_layer_keeps_its_bits():
    # sha256 per side of weighted_tail_sum and running_sums, eval outside
    # the window going with the lower side, over every pair of tail models,
    # or of the error text where a tail sum diverges: the tail model's form
    # must not move a single bit.  The digests date from before the
    # integral's kernel sums left this layer (which took the k-weighted
    # sums with them); the cases left kept every bit.
    digests = {"lower": hashlib.sha256(), "upper": hashlib.sha256()}
    counts = {"lower": 0, "upper": 0}

    def record(side, compute):
        try:
            out = compute()
        except DivergentTail as exc:
            digests[side].update(b"E" + str(exc).encode())
        else:
            out = out if isinstance(out, list) else [out]
            digests[side].update(b"V" + bits(out))
            counts[side] += len(out)

    values = (0.5, -1.0, 0.25, 2.0, -0.75, 1.5, 0.125, -0.5)
    for q in (2, 3):
        for lower in _PINNED_TAILS:
            for upper in _PINNED_TAILS:
                f = RadialFunction(RadialGrid(q, -3, 4), values, 0.0, lower, upper)
                record("lower", lambda: [f.eval(k) for k in range(-9, 11) if not -3 <= k <= 4])
                for w in (1.0, 0.5, -0.7):
                    for side in ("lower", "upper"):
                        for k0 in (-7, -4, -3, 0, 4, 5, 9):
                            record(side, lambda: weighted_tail_sum(f, w, side, k0))
                        record(side, lambda: running_sums(f, w, side, -7, 9))
    assert counts == {"lower": 6552, "upper": 3696}
    assert digests["lower"].hexdigest() == (
        "1b1c61cf5cec8461cc14638ff54e2a215ffbcd74b0656cc76d6bddb55460c750")
    assert digests["upper"].hexdigest() == (
        "6d1f82abbc45d194fbbd122f71c0e96dfacb94fc572ce3bb66a27e0d6a66f0f9")


class _Counting:
    """Stand-in accumulator whose value is the shell it stands at; it logs
    each start and the shell of each push, and checks the value pushed."""

    def __init__(self, f, side, n, log):
        self.f, self.step, self.value, self.log = f, 1 if side == "lower" else -1, n, log
        log.append(("start", n))

    def push(self, v):
        assert v == self.f.eval(self.value)
        self.log.append(("push", self.value))
        self.value += self.step
        return self.value


# windows below, at, across and above both edges of the window [-2, 1]
_SWEEP_WINDOWS = [(-7, -3), (-6, -2), (-2, -2), (-5, 4), (-2, 3), (-1, 0),
                  (0, 5), (1, 1), (2, 6), (3, 7)]


@pytest.mark.parametrize("side", ["lower", "upper"])
@pytest.mark.parametrize("n_lo,n_hi", _SWEEP_WINDOWS)
def test_sweep_starts_fresh_up_to_the_edge_then_runs(side, n_lo, n_hi):
    # fresh starts for the shells up to the edge, one run started at the
    # edge, and each value between the edge and the far end pushed once, in
    # walk order: ascending for a lower sweep, descending for an upper one
    f = RadialFunction.from_values(2, -2, [1.0, 2.0, 3.0, 4.0],
                                   lower_tail=TailSpec.power_law(5.0, 0.5),
                                   upper_tail=TailSpec.power_law(6.0, -0.5))
    log = []
    got = sweep(lambda n: _Counting(f, side, n, log), f, side, n_lo, n_hi)
    assert got == list(range(n_lo, n_hi + 1))
    step, edge = (1, -2) if side == "lower" else (-1, 1)
    walk = list(range(n_lo, n_hi + 1))[::step]
    want = [("start", n) for n in walk if step * n <= step * edge]
    if step * walk[-1] > step * edge:
        want += [("start", edge)] + [("push", k) for k in range(edge, walk[-1], step)]
    assert log == want


def test_sweep_rejects_a_bad_side():
    f = RadialFunction.from_values(2, -2, [1.0, 2.0])
    log = []
    with pytest.raises(ValueError, match="side must be"):
        sweep(lambda n: _Counting(f, "lower", n, log), f, "left", -3, 3)
    assert log == []


def test_tail_spec_family():
    # one model c q^(e k): zero and constant are its special cases
    assert TailSpec.power_law(1.5, 0.0) == TailSpec.constant(1.5)
    assert TailSpec.constant(0.0) == TailSpec.zero()
    assert TailSpec.zero().is_null() and TailSpec.power_law(0.0, 2.0).is_null()
    assert not TailSpec.power_law(1.5, 0.0).is_null()


@pytest.mark.parametrize("c,e", [(math.nan, 0.0), (math.inf, 0.0), (-math.inf, 0.5),
                                 (1.0, math.nan), (1.0, math.inf)])
def test_non_finite_tails_fail_at_construction(c, e):
    # a nan constant tail used to build, and every operator output was nan
    with pytest.raises(ValueError, match="finite"):
        TailSpec(c, e)
    with pytest.raises(ValueError, match="finite"):
        RadialFunction.from_values(2, -3, [1.0] * 7, lower_tail=TailSpec.power_law(c, e))


def test_growth_conditions_compact_support_passes_everything():
    f = RadialFunction.from_values(2, -1, [1.0, 2.0, 3.0])
    for conditions in (dalpha_domain, ialpha_domain, right_inverse_conditions,
                       left_inverse_conditions):
        assert conditions(f, 0.5).ok


def test_growth_conditions_constant_fails_right_inverse():
    f = constant_function(2, 1.0)
    report = right_inverse_conditions(f, 0.5)
    assert not report.ok
    assert any("upper" in e.name for e in report.entries if not e.passed)
    # but constants are inside the derivative's domain
    assert dalpha_domain(f, 0.5).ok


def test_growth_conditions_proposition_exponent_ranges():
    def family(e_low, alpha):
        f = RadialFunction.from_values(
            3, 0, [1.0, 1.0], value_at_zero=0.0,
            lower_tail=TailSpec.power_law(1.0, e_low))
        return left_inverse_conditions(f, alpha)

    assert not family(0.2, 1.5).ok          # needs d > alpha - 1 = 0.5
    assert family(0.7, 1.5).ok
    assert not family(0.2, 1.5).entries[1].passed
    # nonzero value at 0 fails the hypotheses
    g = RadialFunction.from_values(3, 0, [1.0], value_at_zero=2.0)
    rep = left_inverse_conditions(g, 0.5)
    assert not rep.ok and not rep.entries[0].passed
    # upper growth: h below alpha (and below alpha - 1 when alpha > 1)
    up = RadialFunction.from_values(
        3, 0, [1.0], value_at_zero=0.0, upper_tail=TailSpec.power_law(1.0, 0.8))
    assert left_inverse_conditions(up, 1.0).ok
    assert not left_inverse_conditions(up, 1.5).ok
    assert left_inverse_conditions(up, 2.5).ok


def test_growth_conditions_indicator_and_constant_examples():
    ind = indicator_unit_ball(2)
    # truncated version with zero tails passes the derivative domain
    trunc = RadialFunction.from_values(2, -8, [1.0] * 9)
    assert dalpha_domain(trunc, 0.5).ok
    assert dalpha_domain(ind, 0.5).ok
    one = constant_function(2, 1.0)
    assert not right_inverse_conditions(one, 0.5).ok


# ids as in earlier listings of the suite, so that results compare across commits
@pytest.mark.parametrize("conditions", [dalpha_domain, ialpha_domain, right_inverse_conditions],
                         ids=["GrowthKind.DALPHA_DOMAIN", "GrowthKind.IALPHA_DOMAIN",
                              "GrowthKind.RIGHT_INVERSE"])
@pytest.mark.parametrize("alpha", [0.5, 1.0, 1.7])
def test_growth_conditions_monotone_in_exponent(conditions, alpha):
    # moving the exponent toward the feasible side never flips pass to fail
    def passes(e_low, e_up):
        f = RadialFunction.from_values(
            2, 0, [1.0], value_at_zero=0.0,
            lower_tail=TailSpec.power_law(1.0, e_low),
            upper_tail=TailSpec.power_law(1.0, e_up))
        return conditions(f, alpha).ok

    es = [x / 4.0 for x in range(-12, 13)]
    lower_passes = [passes(e, -5.0) for e in es]       # upper tail kept feasible
    assert lower_passes == sorted(lower_passes)        # False ... True
    upper_passes = [passes(5.0, e) for e in es]
    assert upper_passes == sorted(upper_passes, reverse=True)


@pytest.mark.parametrize("q", [2, 3])
@pytest.mark.parametrize("alpha", [0.3, 1.0, 1.7])
def test_operators_raise_exactly_when_their_domain_fails(q, alpha):
    # each operator guards its sums with its own report, and quotes it
    es = [x / 4.0 for x in range(-12, 13)] + [-alpha - 0.05, -alpha + 0.05,
                                              alpha - 0.05, alpha + 0.05]
    seen = set()
    for e_lo in es:
        for e_up in es:
            f = RadialFunction.from_values(
                q, -1, [1.0, -0.5, 2.0],
                lower_tail=TailSpec.power_law(1.0, e_lo),
                upper_tail=TailSpec.power_law(-2.0, e_up))
            for op, domain, sums in (
                    (apply_dalpha, dalpha_domain, ((1.0, e_lo), (-alpha, e_up))),
                    (apply_ialpha, ialpha_domain, ((min(1.0, alpha), e_lo),))):
                if any(abs(w + e) < 1e-9 for w, e in sums):
                    continue  # on the boundary the float ratio decides
                report = domain(f, alpha)
                seen.add((op, report.ok))
                if report.ok:
                    op(f, alpha)
                    continue
                with pytest.raises(DomainViolation) as info:
                    op(f, alpha)
                assert str(report) in str(info.value)
    assert len(seen) == 4  # both outcomes for both operators


@pytest.mark.parametrize("values", [(1.0, 2.0), (1.0, 2.0, 3.0, 4.0)])
def test_values_must_fill_the_window(values):
    with pytest.raises(ValueError, match=rf"^expected 3 shell values for window \[0, 2\], "
                                         rf"got {len(values)}$"):
        RadialFunction(RadialGrid(2, 0, 2), values)
